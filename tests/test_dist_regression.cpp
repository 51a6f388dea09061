// Regression tests for the dist/ subsystem beyond the seed suite: the
// 1-device degenerate path and exactness of lossless (32-bit) round trips.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dist/dist_graph.h"
#include "dist/halo_exchange.h"
#include "graph/generators.h"
#include "partition/partitioner.h"

namespace adaqp {
namespace {

TEST(DistGraphSingleDevice, DegeneratePathIsTheWholeGraph) {
  Rng rng(41);
  Graph g = erdos_renyi(90, 360, rng);
  PartitionResult part;
  part.num_parts = 1;
  part.part_of.assign(g.num_nodes(), 0);
  const DistGraph dist = build_dist_graph(g, part);

  ASSERT_EQ(dist.num_devices(), 1);
  const DeviceGraph& dev = dist.devices[0];
  EXPECT_EQ(dev.num_owned, g.num_nodes());
  EXPECT_EQ(dev.num_halo, 0u);
  EXPECT_EQ(dev.total_edges(), g.num_directed_edges());
  EXPECT_EQ(dev.central_nodes.size(), g.num_nodes());
  EXPECT_TRUE(dev.marginal_nodes.empty());
  EXPECT_TRUE(dev.send_local[0].empty());
  EXPECT_TRUE(dev.recv_local[0].empty());
  // Local ids must be the identity renumbering.
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(dev.global_of_local[v], v);
    EXPECT_EQ(dev.global_degree[v], g.degree(static_cast<NodeId>(v)));
  }

  // Exchanges on one device are no-ops with zero traffic and zero time.
  Matrix features(g.num_nodes(), 6);
  features.fill_uniform(rng, -1.0f, 1.0f);
  auto locals = scatter_to_devices(features, dist);
  const Matrix before = locals[0];
  ClusterSpec cluster = ClusterSpec::machines(1, 1);
  std::vector<Rng> rngs;
  rngs.emplace_back(7);
  const auto plan = ExchangePlan::uniform_forward(dist, 8);
  const auto stats =
      exchange_halo_forward(dist, locals, plan, cluster, rngs);
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.comm_seconds, 0.0);
  EXPECT_EQ(max_abs_diff(locals[0], before), 0.0f);
}

TEST(ExchangePlanRoundTrip, LosslessForwardThenBackwardIsExact) {
  // At 32 bits the codec is passthrough, so a forward exchange followed by a
  // backward exchange must reproduce, on every owner, its own row plus the
  // exact sum of the halo replicas every peer accumulated for it.
  Rng rng(42);
  Graph g = erdos_renyi(140, 640, rng);
  const auto part = MultilevelPartitioner().partition(g, 4, rng);
  const DistGraph dist = build_dist_graph(g, part);
  ClusterSpec cluster = ClusterSpec::machines(2, 2);
  std::vector<Rng> rngs;
  for (int d = 0; d < 4; ++d) rngs.emplace_back(100 + d);

  const std::size_t dim = 11;
  Matrix global(g.num_nodes(), dim);
  global.fill_uniform(rng, -2.0f, 2.0f);
  auto locals = scatter_to_devices(global, dist);
  // Perturb halo rows so the forward exchange has to restore them.
  for (const auto& dev : dist.devices)
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h) {
      auto row = locals[dev.device].row(h);
      std::fill(row.begin(), row.end(), -123.0f);
    }
  const auto fwd = ExchangePlan::uniform_forward(dist, 32);
  exchange_halo_forward(dist, locals, fwd, cluster, rngs);
  EXPECT_EQ(max_abs_diff(gather_from_devices(locals, dist, dim), global),
            0.0f);
  for (const auto& dev : dist.devices)
    for (std::size_t i = 0; i < dev.num_local(); ++i) {
      const auto got = locals[dev.device].row(i);
      const auto want = global.row(dev.global_of_local[i]);
      for (std::size_t c = 0; c < dim; ++c) ASSERT_EQ(got[c], want[c]);
    }

  // Backward: every local row contributes to its global node exactly once.
  Matrix expected = global;
  for (const auto& dev : dist.devices)
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h) {
      auto dst = expected.row(dev.global_of_local[h]);
      const auto src = locals[dev.device].row(h);
      for (std::size_t c = 0; c < dim; ++c) dst[c] += src[c];
    }
  const auto bwd = ExchangePlan::uniform_backward(dist, 32);
  exchange_halo_backward(dist, locals, bwd, cluster, rngs);
  for (const auto& dev : dist.devices) {
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const auto got = locals[dev.device].row(i);
      const auto want = expected.row(dev.global_of_local[i]);
      for (std::size_t c = 0; c < dim; ++c)
        ASSERT_NEAR(got[c], want[c], 1e-5f);
    }
  }
}

}  // namespace
}  // namespace adaqp
