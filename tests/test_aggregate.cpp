// Tests for neighborhood aggregation kernels and their adjoints.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dist/dist_graph.h"
#include "gnn/aggregate.h"
#include "graph/generators.h"
#include "partition/partitioner.h"

namespace adaqp {
namespace {

/// Single-device view of a whole graph (num_owned == n, no halo).
DistGraph whole_graph(const Graph& g) {
  PartitionResult part;
  part.num_parts = 1;
  part.part_of.assign(g.num_nodes(), 0);
  return build_dist_graph(g, part);
}

/// Dense GCN propagation matrix: Â = D̃^{-1/2} (A + I) D̃^{-1/2}.
Matrix dense_gcn_matrix(const Graph& g) {
  const std::size_t n = g.num_nodes();
  Matrix a(n, n);
  for (std::size_t v = 0; v < n; ++v) {
    const double dv = static_cast<double>(g.degree(v)) + 1.0;
    a.at(v, v) = static_cast<float>(1.0 / dv);
    for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
      const double du = static_cast<double>(g.degree(u)) + 1.0;
      a.at(v, u) = static_cast<float>(1.0 / std::sqrt(dv * du));
    }
  }
  return a;
}

/// Dense SAGE mean matrix: row v = 1/deg(v) over neighbors.
Matrix dense_mean_matrix(const Graph& g) {
  const std::size_t n = g.num_nodes();
  Matrix a(n, n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t dv = g.degree(v);
    if (dv == 0) continue;
    for (NodeId u : g.neighbors(static_cast<NodeId>(v)))
      a.at(v, u) = 1.0f / static_cast<float>(dv);
  }
  return a;
}

TEST(Coefficients, GcnSymmetricNormalization) {
  EXPECT_DOUBLE_EQ(aggregation_coefficient(Aggregator::kGcn, 3, 1),
                   1.0 / std::sqrt(8.0));
  EXPECT_DOUBLE_EQ(self_coefficient(Aggregator::kGcn, 4), 0.2);
}

TEST(Coefficients, SageMean) {
  EXPECT_DOUBLE_EQ(aggregation_coefficient(Aggregator::kSageMean, 99, 4),
                   0.25);
  EXPECT_DOUBLE_EQ(aggregation_coefficient(Aggregator::kSageMean, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(self_coefficient(Aggregator::kSageMean, 7), 0.0);
}

class AggregatorKindTest : public ::testing::TestWithParam<Aggregator> {};

TEST_P(AggregatorKindTest, MatchesDensePropagationMatrix) {
  const Aggregator agg = GetParam();
  Rng rng(21);
  Graph g = erdos_renyi(40, 120, rng);
  const DistGraph dist = whole_graph(g);
  Matrix x(40, 6);
  x.fill_uniform(rng, -2.0f, 2.0f);

  Matrix got;
  aggregate_forward(dist.devices[0], agg, x, got);

  const Matrix a =
      agg == Aggregator::kGcn ? dense_gcn_matrix(g) : dense_mean_matrix(g);
  Matrix want;
  gemm(a, x, want);
  EXPECT_LT(max_abs_diff(got, want), 1e-5f);
}

TEST_P(AggregatorKindTest, AdjointSatisfiesInnerProductIdentity) {
  // <Agg(x), y> == <x, Agg^T(y)> for all x, y.
  const Aggregator agg = GetParam();
  Rng rng(22);
  Graph g = erdos_renyi(30, 90, rng);
  const DistGraph dist = whole_graph(g);
  Matrix x(30, 4), y(30, 4);
  x.fill_uniform(rng, -1.0f, 1.0f);
  y.fill_uniform(rng, -1.0f, 1.0f);

  Matrix ax;
  aggregate_forward(dist.devices[0], agg, x, ax);
  Matrix aty(30, 4);
  aggregate_backward(dist.devices[0], agg, y, aty);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) lhs += ax.data()[i] * y.data()[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x.data()[i] * aty.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST_P(AggregatorKindTest, DistributedEqualsCentralizedAfterHaloFill) {
  const Aggregator agg = GetParam();
  Rng rng(23);
  Graph g = erdos_renyi(60, 240, rng);
  const DistGraph dist = whole_graph(g);
  Matrix x(60, 5);
  x.fill_uniform(rng, -1.0f, 1.0f);
  Matrix central;
  aggregate_forward(dist.devices[0], agg, x, central);

  // Now partition into 3 and aggregate per device with exact halos.
  const auto part = FennelPartitioner().partition(g, 3, rng);
  const DistGraph d3 = build_dist_graph(g, part);
  for (const auto& dev : d3.devices) {
    Matrix local(dev.num_local(), 5);
    for (std::size_t i = 0; i < dev.num_local(); ++i) {
      const auto src = x.row(dev.global_of_local[i]);
      std::copy(src.begin(), src.end(), local.row(i).begin());
    }
    Matrix got;
    aggregate_forward(dev, agg, local, got);
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const auto want = central.row(dev.global_of_local[i]);
      const auto have = got.row(i);
      for (std::size_t c = 0; c < 5; ++c)
        ASSERT_NEAR(have[c], want[c], 1e-5f);
    }
  }
}

TEST_P(AggregatorKindTest, RowSubsetMatchesFullRows) {
  const Aggregator agg = GetParam();
  Rng rng(24);
  Graph g = erdos_renyi(50, 150, rng);
  const DistGraph dist = whole_graph(g);
  Matrix x(50, 3);
  x.fill_uniform(rng, -1.0f, 1.0f);
  Matrix full;
  aggregate_forward(dist.devices[0], agg, x, full);
  Matrix partial(50, 3);
  const std::vector<NodeId> rows = {5, 17, 42};
  aggregate_forward(dist.devices[0], agg, x, rows, partial);
  for (NodeId r : rows)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(partial.at(r, c), full.at(r, c));
}

INSTANTIATE_TEST_SUITE_P(Kinds, AggregatorKindTest,
                         ::testing::Values(Aggregator::kGcn,
                                           Aggregator::kSageMean));

TEST(AggregateFlops, CountsEdgesAndRows) {
  Graph g = star_graph(5);
  const DistGraph dist = whole_graph(g);
  const auto& dev = dist.devices[0];
  std::vector<NodeId> all = {0, 1, 2, 3, 4};
  // 8 directed edges * 2 * dim + 5 rows * 2 * dim, dim = 3.
  EXPECT_DOUBLE_EQ(aggregate_flops(dev, all, 3), 2.0 * 8 * 3 + 2.0 * 5 * 3);
  EXPECT_DOUBLE_EQ(dense_flops(10, 4, 6), 2.0 * 10 * 4 * 6);
  EXPECT_GT(epilogue_flops(10, 4), 0.0);
}

TEST(AggregateFlops, CentralPlusMarginalEqualsAll) {
  Rng rng(25);
  Graph g = erdos_renyi(80, 320, rng);
  const auto part = FennelPartitioner().partition(g, 3, rng);
  const DistGraph dist = build_dist_graph(g, part);
  for (const auto& dev : dist.devices) {
    std::vector<NodeId> all(dev.num_owned);
    for (std::size_t i = 0; i < all.size(); ++i)
      all[i] = static_cast<NodeId>(i);
    EXPECT_DOUBLE_EQ(aggregate_flops(dev, dev.central_nodes, 4) +
                         aggregate_flops(dev, dev.marginal_nodes, 4),
                     aggregate_flops(dev, all, 4));
  }
}

}  // namespace
}  // namespace adaqp
