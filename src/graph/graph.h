// Compressed-sparse-row graph storage — the library's substitute for DGL's
// graph representation.
//
// Graphs are simple (no self-loops, no multi-edges) and stored symmetrically:
// every undirected edge {u,v} appears as both (u,v) and (v,u) in the CSR
// arrays. GNN layers add the self-loop term analytically (Eqn. 3 of the
// paper), so it is never materialized here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace adaqp {

using NodeId = std::uint32_t;
using EdgeIdx = std::uint64_t;

class Graph {
 public:
  Graph() = default;
  /// Construct from prebuilt CSR arrays (validated).
  Graph(std::vector<EdgeIdx> offsets, std::vector<NodeId> neighbors);

  std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of *directed* CSR entries; undirected edge count is half this.
  std::size_t num_directed_edges() const { return neighbors_.size(); }
  std::size_t num_undirected_edges() const { return neighbors_.size() / 2; }

  std::size_t degree(NodeId v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offsets_[v], degree(v)};
  }

  bool has_edge(NodeId u, NodeId v) const;

  double average_degree() const {
    return num_nodes() == 0
               ? 0.0
               : static_cast<double>(num_directed_edges()) / num_nodes();
  }
  std::size_t max_degree() const;

 private:
  // offsets_[v]..offsets_[v+1] delimit v's neighbor list (sorted ascending).
  std::vector<EdgeIdx> offsets_;
  std::vector<NodeId> neighbors_;
};

/// Build a simple undirected graph from an edge list: symmetrizes, drops
/// self-loops and duplicate edges, and sorts each adjacency list.
Graph build_graph(std::size_t num_nodes,
                  std::span<const std::pair<NodeId, NodeId>> edges);

/// Convenience overload.
Graph build_graph(std::size_t num_nodes,
                  const std::vector<std::pair<NodeId, NodeId>>& edges);

/// Induce the subgraph on `keep` (indices into the original graph). The k-th
/// entry of `keep` becomes node k. Returns the subgraph; `keep` must be
/// duplicate-free.
Graph induced_subgraph(const Graph& g, std::span<const NodeId> keep);

/// Number of undirected edges whose endpoints lie in different parts.
std::size_t edge_cut(const Graph& g, std::span<const int> part_of);

}  // namespace adaqp
