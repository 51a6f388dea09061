// Distributed graph views — the library's substitute for DGL's partitioned
// graph store plus the halo bookkeeping DistDGL/AdaQP keep per worker.
//
// build_dist_graph() turns one global Graph plus a partition assignment into
// per-device views. Each DeviceGraph renumbers its nodes locally: the owned
// nodes come first (ascending global id), followed by the halo — the remote
// one-hop neighborhood, also ascending by global id. The local CSR spans
// owned + halo rows; halo rows carry no edges (their neighborhoods live on
// their owner), so every aggregation kernel reads exactly the rows a real
// distributed worker would hold after a boundary exchange.
//
// The owned set is further split into *central* nodes (no remote neighbor —
// computable before any communication finishes) and *marginal* nodes (at
// least one halo neighbor). That split is what the paper's
// computation-communication parallelization (§4.1) and the trainers'
// overlap accounting key off.
//
// Send/receive maps are aligned per device pair: devices[d].send_local[p]
// and devices[p].recv_local[d] reference the same global nodes in the same
// (global-ascending) order, so a sender can encode rows straight out of its
// local matrix and the receiver can decode them straight into its own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "partition/partitioner.h"
#include "tensor/matrix.h"

namespace adaqp {

/// One device's local view of the partitioned graph.
struct DeviceGraph {
  int device = 0;
  std::size_t num_owned = 0;  ///< nodes assigned to this device
  std::size_t num_halo = 0;   ///< remote one-hop neighbors mirrored here

  /// Local id -> global id; owned rows first, then halo rows, each segment
  /// ascending by global id.
  std::vector<NodeId> global_of_local;
  /// Global degree per local id (GCN normalization must use global degrees
  /// so distributed results stay bit-comparable to centralized training).
  std::vector<std::uint32_t> global_degree;

  /// Owned local ids with no halo neighbor (paper: central nodes).
  std::vector<NodeId> central_nodes;
  /// Owned local ids with at least one halo neighbor (marginal nodes).
  std::vector<NodeId> marginal_nodes;

  // Precomputed index views (filled by build_dist_graph) so hot paths — the
  // async pipeline stages in particular — never rebuild row-id vectors per
  // layer per epoch.

  /// The identity list [0, num_owned) — the row set of a full owned-row
  /// kernel call.
  std::vector<NodeId> owned_rows;
  /// Union of all send maps, ascending and deduplicated (the device's
  /// boundary rows; SANCUS-style broadcasts snapshot exactly these).
  std::vector<NodeId> boundary_rows;
  /// Peers p with a nonempty devices[p].send_local[device] — the senders
  /// whose forward messages must land before this device's marginal rows
  /// can be computed.
  std::vector<int> halo_senders;
  /// Peers p with a nonempty send_local[p] (this device's receivers).
  std::vector<int> send_targets;

  /// send_local[p]: owned local ids whose rows device p needs (it mirrors
  /// them as halo), ascending. Aligned with devices[p].recv_local[device].
  std::vector<std::vector<NodeId>> send_local;
  /// recv_local[p]: halo local ids owned by device p, ascending. Aligned
  /// with devices[p].send_local[device].
  std::vector<std::vector<NodeId>> recv_local;

  /// Local CSR over owned + halo rows (halo rows are empty).
  std::vector<EdgeIdx> offsets;
  std::vector<NodeId> neighbor_ids;

  std::size_t num_local() const { return num_owned + num_halo; }

  /// Span views of the precomputed row lists (the preferred way to name a
  /// row set; no per-call vector builds).
  std::span<const NodeId> owned_span() const { return owned_rows; }
  /// owned_span() when the precomputed list is populated; otherwise fill
  /// `scratch` with the identity list and view that — the single fallback
  /// for hand-built DeviceGraphs that skipped build_dist_graph.
  std::span<const NodeId> owned_span_or(std::vector<NodeId>& scratch) const {
    if (owned_rows.size() == num_owned) return owned_rows;
    scratch.resize(num_owned);
    for (std::size_t i = 0; i < num_owned; ++i)
      scratch[i] = static_cast<NodeId>(i);
    return scratch;
  }
  std::span<const NodeId> central_span() const { return central_nodes; }
  std::span<const NodeId> marginal_span() const { return marginal_nodes; }
  std::span<const NodeId> boundary_span() const { return boundary_rows; }

  std::size_t degree(NodeId v) const {
    return static_cast<std::size_t>(offsets[v + 1] - offsets[v]);
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbor_ids.data() + offsets[v], degree(v)};
  }

  /// Total CSR entries of the given local rows.
  std::size_t edges_of(std::span<const NodeId> rows) const {
    std::size_t acc = 0;
    for (NodeId v : rows) acc += degree(v);
    return acc;
  }

  /// All CSR entries on this device (== entries of all owned rows).
  std::size_t total_edges() const {
    return offsets.empty() ? 0 : static_cast<std::size_t>(offsets.back());
  }
};

/// The full distributed view: one DeviceGraph per partition, plus the
/// partition itself (the assigner needs global ownership lookups).
struct DistGraph {
  std::vector<DeviceGraph> devices;
  PartitionResult partition;

  int num_devices() const { return static_cast<int>(devices.size()); }
  std::size_t num_global_nodes() const { return partition.part_of.size(); }

  /// Σ halo nodes / Σ owned nodes — the paper's remote-neighbor ratio
  /// (Table 1), the fraction of one-hop state that must cross devices.
  double remote_neighbor_ratio() const;
};

/// Build per-device views from a global graph and a partition assignment.
/// `part.part_of` must assign every node to a part in [0, part.num_parts).
DistGraph build_dist_graph(const Graph& g, const PartitionResult& part);

/// Split a global (num_nodes x dim) row matrix into per-device local
/// matrices (num_local x dim): owned and halo rows are filled from the
/// corresponding global rows.
std::vector<Matrix> scatter_to_devices(const Matrix& global,
                                       const DistGraph& dist);

/// Reassemble a global matrix from the devices' *owned* rows (halo rows are
/// replicas and are ignored).
Matrix gather_from_devices(const std::vector<Matrix>& locals,
                           const DistGraph& dist, std::size_t cols);

}  // namespace adaqp
