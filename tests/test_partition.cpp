// Tests for graph partitioners (METIS substitute + baselines).
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "runtime/thread_pool.h"

namespace adaqp {
namespace {

struct Case {
  std::string partitioner;
  int parts;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.partitioner << "/k" << c.parts;
}

class PartitionerTest : public ::testing::TestWithParam<Case> {};

TEST_P(PartitionerTest, ValidOnSbm) {
  const auto [name, k] = GetParam();
  Rng rng(13);
  DcSbmParams params;
  params.num_nodes = 1200;
  params.num_blocks = 8;
  params.avg_degree = 10.0;
  DcSbm sbm = dc_sbm(params, rng);
  const auto part = make_partitioner(name)->partition(sbm.graph, k, rng);
  validate_partition(sbm.graph, part);
  EXPECT_EQ(part.num_parts, k);
  // All parts non-empty and reasonably balanced.
  for (auto size : part.part_sizes()) EXPECT_GT(size, 0u);
  EXPECT_LE(part.balance_factor(), 1.35);
}

TEST_P(PartitionerTest, ValidOnGrid) {
  const auto [name, k] = GetParam();
  Rng rng(14);
  Graph g = grid_graph(20, 25);
  const auto part = make_partitioner(name)->partition(g, k, rng);
  validate_partition(g, part);
  EXPECT_LE(part.balance_factor(), 1.35);
}

TEST_P(PartitionerTest, SinglePartTrivial) {
  const auto [name, k] = GetParam();
  (void)k;
  Rng rng(15);
  Graph g = ring_graph(50);
  const auto part = make_partitioner(name)->partition(g, 1, rng);
  validate_partition(g, part);
  EXPECT_EQ(edge_cut(g, part.part_of), 0u);
}

TEST_P(PartitionerTest, HandlesIsolatedNodes) {
  // Star plus isolated singletons: the regression scenario where seed
  // selection used to strand partitions on zero-degree nodes.
  const auto [name, k] = GetParam();
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v < 60; ++v) edges.emplace_back(0, v);
  Graph g = build_graph(100, edges);  // nodes 60..99 isolated
  Rng rng(16);
  const auto part = make_partitioner(name)->partition(g, k, rng);
  validate_partition(g, part);
  EXPECT_LE(part.balance_factor(), 1.5);
}

TEST_P(PartitionerTest, HandlesDisconnectedComponents) {
  const auto [name, k] = GetParam();
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Four disjoint cliques of 25.
  for (int comp = 0; comp < 4; ++comp)
    for (NodeId u = 0; u < 25; ++u)
      for (NodeId v = u + 1; v < 25; ++v)
        edges.emplace_back(comp * 25 + u, comp * 25 + v);
  Graph g = build_graph(100, edges);
  Rng rng(17);
  const auto part = make_partitioner(name)->partition(g, k, rng);
  validate_partition(g, part);
  EXPECT_LE(part.balance_factor(), 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    All, PartitionerTest,
    ::testing::Values(Case{"random", 2}, Case{"random", 4},
                      Case{"range", 2}, Case{"range", 4},
                      Case{"fennel", 2}, Case{"fennel", 4}, Case{"fennel", 8},
                      Case{"multilevel", 2}, Case{"multilevel", 4},
                      Case{"multilevel", 8}));

// The coarsening sweep (coarse-graph construction + projection) runs on the
// runtime pool; the decomposition is per-coarse-node with fixed
// accumulation order, so any thread count must reproduce the serial
// assignment exactly — node for node, not just cut-for-cut.
TEST(Multilevel, CoarseningBitIdenticalAcrossThreadCounts) {
  DcSbmParams params;
  params.num_nodes = 3000;
  params.num_blocks = 6;
  params.avg_degree = 14.0;
  Rng data_rng(47);
  DcSbm sbm = dc_sbm(params, data_rng);
  const int prev = num_threads();
  set_num_threads(1);
  Rng rng1(123);
  const auto serial = MultilevelPartitioner().partition(sbm.graph, 4, rng1);
  for (int threads : {2, 4, 8}) {
    set_num_threads(threads);
    Rng rngN(123);
    const auto parallel =
        MultilevelPartitioner().partition(sbm.graph, 4, rngN);
    EXPECT_EQ(parallel.part_of, serial.part_of) << threads << " threads";
  }
  set_num_threads(prev);
}

TEST(Multilevel, BeatsRandomCutOnCommunityGraph) {
  Rng rng(31);
  DcSbmParams params;
  params.num_nodes = 2000;
  params.num_blocks = 4;
  params.avg_degree = 12.0;
  params.intra_prob = 0.85;
  DcSbm sbm = dc_sbm(params, rng);
  const auto ml = MultilevelPartitioner().partition(sbm.graph, 4, rng);
  const auto rnd = RandomPartitioner().partition(sbm.graph, 4, rng);
  const auto cut_ml = edge_cut(sbm.graph, ml.part_of);
  const auto cut_rnd = edge_cut(sbm.graph, rnd.part_of);
  EXPECT_LT(cut_ml, cut_rnd / 2)
      << "multilevel should halve the random cut on assortative graphs";
}

TEST(Multilevel, NearPerfectOnDisjointCliques) {
  // Four cliques, k=4: the optimal cut is 0 and multilevel should find a
  // low-cut partition (coarsening collapses each clique).
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int comp = 0; comp < 4; ++comp)
    for (NodeId u = 0; u < 40; ++u)
      for (NodeId v = u + 1; v < 40; ++v)
        edges.emplace_back(comp * 40 + u, comp * 40 + v);
  Graph g = build_graph(160, edges);
  Rng rng(32);
  const auto part = MultilevelPartitioner().partition(g, 4, rng);
  EXPECT_EQ(edge_cut(g, part.part_of), 0u);
  EXPECT_LE(part.balance_factor(), 1.05);
}

TEST(Fennel, BeatsRandomCut) {
  Rng rng(33);
  DcSbmParams params;
  params.num_nodes = 1500;
  params.num_blocks = 4;
  params.avg_degree = 10.0;
  params.intra_prob = 0.85;
  DcSbm sbm = dc_sbm(params, rng);
  const auto fe = FennelPartitioner().partition(sbm.graph, 4, rng);
  const auto rnd = RandomPartitioner().partition(sbm.graph, 4, rng);
  EXPECT_LT(edge_cut(sbm.graph, fe.part_of),
            edge_cut(sbm.graph, rnd.part_of));
}

TEST(RangePartitioner, ContiguousAndExactlyBalanced) {
  Rng rng(34);
  Graph g = ring_graph(100);
  const auto part = RangePartitioner().partition(g, 4, rng);
  EXPECT_DOUBLE_EQ(part.balance_factor(), 1.0);
  for (std::size_t v = 1; v < 100; ++v)
    EXPECT_LE(part.part_of[v - 1], part.part_of[v]);
}

TEST(RandomPartitioner, DealsRoundRobin) {
  Rng rng(35);
  Graph g = ring_graph(97);  // not divisible by 4
  const auto part = RandomPartitioner().partition(g, 4, rng);
  const auto sizes = part.part_sizes();
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(PartitionerFactory, UnknownNameThrows) {
  EXPECT_THROW(make_partitioner("metis"), std::runtime_error);
}

TEST(PartitionResult, BalanceFactorComputation) {
  PartitionResult r;
  r.num_parts = 2;
  r.part_of = {0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(r.balance_factor(), 1.5);  // 3 / (4/2)
}

}  // namespace
}  // namespace adaqp
