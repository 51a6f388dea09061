#include "dist/dist_graph.h"

#include <algorithm>

#include "common/check.h"

namespace adaqp {

double DistGraph::remote_neighbor_ratio() const {
  std::size_t halo = 0, owned = 0;
  for (const auto& dev : devices) {
    halo += dev.num_halo;
    owned += dev.num_owned;
  }
  return owned == 0 ? 0.0
                    : static_cast<double>(halo) / static_cast<double>(owned);
}

DistGraph build_dist_graph(const Graph& g, const PartitionResult& part) {
  const std::size_t n = g.num_nodes();
  const int k = part.num_parts;
  ADAQP_CHECK_MSG(k >= 1, "partition must have at least one part");
  ADAQP_CHECK_MSG(part.part_of.size() == n,
                  "part_of size " << part.part_of.size() << " != num nodes "
                                  << n);
  for (int p : part.part_of) ADAQP_CHECK(p >= 0 && p < k);

  DistGraph dist;
  dist.partition = part;
  dist.devices.resize(k);

  // Owned lists come out ascending by global id because v runs in order.
  std::vector<std::vector<NodeId>> owned(k);
  for (std::size_t v = 0; v < n; ++v)
    owned[part.part_of[v]].push_back(static_cast<NodeId>(v));

  constexpr NodeId kNoLocal = static_cast<NodeId>(-1);
  std::vector<NodeId> local_of_global(n, kNoLocal);

  for (int d = 0; d < k; ++d) {
    DeviceGraph& dev = dist.devices[d];
    dev.device = d;
    dev.num_owned = owned[d].size();
    dev.global_of_local = owned[d];

    // Halo = remote one-hop neighborhood of the owned set, global-ascending.
    std::vector<NodeId> halo;
    for (NodeId v : owned[d])
      for (NodeId u : g.neighbors(v))
        if (part.part_of[u] != d) halo.push_back(u);
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    dev.num_halo = halo.size();
    dev.global_of_local.insert(dev.global_of_local.end(), halo.begin(),
                               halo.end());

    for (std::size_t i = 0; i < dev.num_local(); ++i)
      local_of_global[dev.global_of_local[i]] = static_cast<NodeId>(i);

    dev.global_degree.resize(dev.num_local());
    for (std::size_t i = 0; i < dev.num_local(); ++i)
      dev.global_degree[i] =
          static_cast<std::uint32_t>(g.degree(dev.global_of_local[i]));

    // Local CSR: owned rows carry their full global neighborhood (remote
    // neighbors resolve to halo locals); halo rows are empty.
    dev.offsets.assign(dev.num_local() + 1, 0);
    std::size_t entries = 0;
    for (std::size_t i = 0; i < dev.num_owned; ++i)
      entries += g.degree(dev.global_of_local[i]);
    dev.neighbor_ids.reserve(entries);
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      for (NodeId u : g.neighbors(dev.global_of_local[i]))
        dev.neighbor_ids.push_back(local_of_global[u]);
      dev.offsets[i + 1] = static_cast<EdgeIdx>(dev.neighbor_ids.size());
    }
    for (std::size_t i = dev.num_owned; i < dev.num_local(); ++i)
      dev.offsets[i + 1] = dev.offsets[i];

    // Central/marginal split and send maps in one sweep over owned rows.
    dev.send_local.assign(k, {});
    dev.recv_local.assign(k, {});
    std::vector<int> last_sent_to(k, -1);
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      bool has_remote = false;
      for (NodeId u : dev.neighbors(v)) {
        if (u < dev.num_owned) continue;
        has_remote = true;
        const int p = part.part_of[dev.global_of_local[u]];
        if (last_sent_to[p] != static_cast<int>(i)) {
          last_sent_to[p] = static_cast<int>(i);
          dev.send_local[p].push_back(v);
        }
      }
      (has_remote ? dev.marginal_nodes : dev.central_nodes).push_back(v);
    }
    // Halo locals are global-ascending, so per-owner receive lists inherit
    // that order — exactly matching the owner's (also ascending) send list.
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h)
      dev.recv_local[part.part_of[dev.global_of_local[h]]].push_back(
          static_cast<NodeId>(h));

    // Precomputed index views: owned identity, deduplicated boundary union,
    // and peer lists (kept sorted by construction).
    dev.owned_rows.resize(dev.num_owned);
    for (std::size_t i = 0; i < dev.num_owned; ++i)
      dev.owned_rows[i] = static_cast<NodeId>(i);
    for (int p = 0; p < k; ++p) {
      if (!dev.send_local[p].empty()) dev.send_targets.push_back(p);
      dev.boundary_rows.insert(dev.boundary_rows.end(),
                               dev.send_local[p].begin(),
                               dev.send_local[p].end());
    }
    std::sort(dev.boundary_rows.begin(), dev.boundary_rows.end());
    dev.boundary_rows.erase(
        std::unique(dev.boundary_rows.begin(), dev.boundary_rows.end()),
        dev.boundary_rows.end());

    // Reset the shared scratch map for the next device.
    for (NodeId gid : dev.global_of_local) local_of_global[gid] = kNoLocal;
  }
  // Sender lists need every device's send maps, so fill them last.
  for (auto& dev : dist.devices)
    for (int p = 0; p < k; ++p)
      if (p != dev.device && !dist.devices[p].send_local[dev.device].empty())
        dev.halo_senders.push_back(p);
  return dist;
}

std::vector<Matrix> scatter_to_devices(const Matrix& global,
                                       const DistGraph& dist) {
  ADAQP_CHECK(global.rows() == dist.num_global_nodes());
  std::vector<Matrix> locals;
  locals.reserve(dist.devices.size());
  for (const auto& dev : dist.devices) {
    Matrix m(dev.num_local(), global.cols());
    for (std::size_t i = 0; i < dev.num_local(); ++i) {
      const auto src = global.row(dev.global_of_local[i]);
      std::copy(src.begin(), src.end(), m.row(i).begin());
    }
    locals.push_back(std::move(m));
  }
  return locals;
}

Matrix gather_from_devices(const std::vector<Matrix>& locals,
                           const DistGraph& dist, std::size_t cols) {
  ADAQP_CHECK(locals.size() == dist.devices.size());
  Matrix global(dist.num_global_nodes(), cols);
  for (const auto& dev : dist.devices) {
    const Matrix& m = locals[dev.device];
    ADAQP_CHECK(m.rows() == dev.num_local() && m.cols() == cols);
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const auto src = m.row(i);
      std::copy(src.begin(), src.end(),
                global.row(dev.global_of_local[i]).begin());
    }
  }
  return global;
}

}  // namespace adaqp
