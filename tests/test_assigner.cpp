// Tests for the bi-objective bit-width assigner (GUROBI substitute).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "assign/bit_assigner.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "quant/quantize.h"

namespace adaqp {
namespace {

MessageGroup group(double beta, std::size_t dims) {
  MessageGroup g;
  g.beta_sum = beta;
  g.dim_sum = dims;
  return g;
}

RoundProblem random_problem(Rng& rng, int pairs, int max_groups) {
  RoundProblem problem;
  for (int p = 0; p < pairs; ++p) {
    RoundProblem::Pair pair;
    pair.src = p;
    pair.dst = (p + 1) % pairs;
    pair.theta = rng.uniform(1e-10, 5e-10);
    pair.gamma = rng.uniform(1e-6, 5e-6);
    const int ngroups = 1 + static_cast<int>(rng.uniform_int(max_groups));
    for (int g = 0; g < ngroups; ++g)
      pair.groups.push_back(
          group(rng.uniform(0.01, 10.0),
                64 * (1 + rng.uniform_int(4))));
    problem.pairs.push_back(std::move(pair));
  }
  return problem;
}

double solution_objective_gap(const RoundProblem& problem, double lambda) {
  const RoundSolution fast = solve_round(problem, lambda);
  const RoundSolution exact = solve_round_bruteforce(problem, lambda);
  EXPECT_LE(exact.objective, fast.objective + 1e-9);
  return fast.objective - exact.objective;
}

class SolverVsBruteForce : public ::testing::TestWithParam<double> {};

TEST_P(SolverVsBruteForce, NearOptimalOnRandomInstances) {
  const double lambda = GetParam();
  Rng rng(static_cast<std::uint64_t>(lambda * 1000) + 5);
  for (int trial = 0; trial < 20; ++trial) {
    const RoundProblem problem = random_problem(rng, 2, 3);
    const double gap = solution_objective_gap(problem, lambda);
    // Greedy MCKP is within one fractional upgrade of optimal; on the
    // normalized objective that is a small constant.
    EXPECT_LE(gap, 0.12) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, SolverVsBruteForce,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

TEST(Solver, LambdaOneMinimizesVariance) {
  // Pure variance objective → everything at 8 bits.
  Rng rng(1);
  const RoundProblem problem = random_problem(rng, 3, 3);
  const RoundSolution sol = solve_round(problem, 1.0);
  for (const auto& pair_bits : sol.bits)
    for (int b : pair_bits) EXPECT_EQ(b, 8);
}

TEST(Solver, LambdaZeroHitsTimeFloorOnStragglerPair) {
  // Pure time objective: the straggler pair must be driven to its 2-bit
  // floor (non-straggler pairs may keep higher widths for free).
  RoundProblem problem;
  RoundProblem::Pair heavy;
  heavy.src = 0;
  heavy.dst = 1;
  heavy.theta = 1e-9;
  heavy.gamma = 0.0;
  heavy.groups = {group(1.0, 1000), group(2.0, 1000)};
  problem.pairs.push_back(heavy);
  const RoundSolution sol = solve_round(problem, 0.0);
  for (int b : sol.bits[0]) EXPECT_EQ(b, 2);
  EXPECT_NEAR(sol.z, 1e-9 * 2 * 2000, 1e-12);
}

TEST(Solver, NonStragglerPairsGetFreeUpgrades) {
  // A fast pair shares the round with a slow straggler: the fast pair can
  // afford 8 bits without moving Z.
  RoundProblem problem;
  RoundProblem::Pair slow;
  slow.src = 0;
  slow.dst = 1;
  slow.theta = 1e-8;
  slow.gamma = 0.0;
  slow.groups = {group(1.0, 4096)};
  RoundProblem::Pair fast;
  fast.src = 1;
  fast.dst = 0;
  fast.theta = 1e-11;
  fast.gamma = 0.0;
  fast.groups = {group(1.0, 4096)};
  problem.pairs.push_back(slow);
  problem.pairs.push_back(fast);
  const RoundSolution sol = solve_round(problem, 0.0);
  EXPECT_EQ(sol.bits[0][0], 2);  // straggler squeezed
  EXPECT_EQ(sol.bits[1][0], 8);  // fast pair free to use full width
}

TEST(Solver, HighBetaGroupsGetMoreBits) {
  // Same pair, two groups, vastly different β: under a middling λ the high
  // β group must not receive fewer bits than the low-β one.
  RoundProblem problem;
  RoundProblem::Pair pair;
  pair.src = 0;
  pair.dst = 1;
  pair.theta = 1e-9;
  pair.gamma = 0.0;
  pair.groups = {group(100.0, 256), group(0.001, 256)};
  problem.pairs.push_back(pair);
  const RoundSolution sol = solve_round(problem, 0.5);
  EXPECT_GE(sol.bits[0][0], sol.bits[0][1]);
}

TEST(Solver, EmptyProblem) {
  RoundProblem problem;
  const RoundSolution sol = solve_round(problem, 0.5);
  EXPECT_EQ(sol.objective, 0.0);
  EXPECT_TRUE(sol.bits.empty());
}

TEST(Solver, PairWithNoGroups) {
  RoundProblem problem;
  RoundProblem::Pair pair;
  pair.src = 0;
  pair.dst = 1;
  pair.theta = 1e-9;
  pair.gamma = 1e-6;
  problem.pairs.push_back(pair);
  const RoundSolution sol = solve_round(problem, 0.5);
  ASSERT_EQ(sol.bits.size(), 1u);
  EXPECT_TRUE(sol.bits[0].empty());
}

// ---- β tracing --------------------------------------------------------------

struct BetaFixture {
  Graph graph;
  DistGraph dist;
  std::vector<std::vector<float>> ranges;

  BetaFixture() {
    // Path 0-1-2-3, split {0,1} | {2,3}; cut edge 1-2.
    graph = path_graph(4);
    PartitionResult part;
    part.num_parts = 2;
    part.part_of = {0, 0, 1, 1};
    dist = build_dist_graph(graph, part);
    ranges.resize(2);
    for (int d = 0; d < 2; ++d)
      ranges[d].assign(dist.devices[d].num_local(), 2.0f);
  }
};

TEST(MessageBetas, ForwardHandComputedOnPath) {
  BetaFixture f;
  const auto betas =
      message_betas(f.dist, Aggregator::kGcn, Direction::kForward, f.ranges, 8);
  // Device 0 sends node 1 to device 1. Node 1's remote aggregation target is
  // node 2; α(1→2) = 1/sqrt((d1+1)(d2+1)) = 1/sqrt(3*3) = 1/3.
  ASSERT_EQ(betas[0][1].size(), 1u);
  const double alpha_sq = 1.0 / 9.0;
  const double expected = alpha_sq * 8.0 * 2.0 * 2.0 / 6.0;
  EXPECT_NEAR(betas[0][1][0], expected, 1e-12);
  // Symmetric for device 1 → device 0.
  ASSERT_EQ(betas[1][0].size(), 1u);
  EXPECT_NEAR(betas[1][0][0], expected, 1e-12);
}

TEST(MessageBetas, BackwardMatchesForwardOnSymmetricCut) {
  BetaFixture f;
  const auto fwd =
      message_betas(f.dist, Aggregator::kGcn, Direction::kForward, f.ranges, 8);
  const auto bwd = message_betas(f.dist, Aggregator::kGcn,
                                 Direction::kBackward, f.ranges, 8);
  // On this symmetric cut the gradient message for halo node 2 on device 0
  // carries the same α² sum as the forward message for node 1.
  ASSERT_EQ(bwd[0][1].size(), 1u);
  EXPECT_NEAR(bwd[0][1][0], fwd[0][1][0], 1e-12);
}

TEST(MessageBetas, ZeroRangeMeansZeroBeta) {
  BetaFixture f;
  for (auto& r : f.ranges) std::fill(r.begin(), r.end(), 0.0f);
  const auto betas =
      message_betas(f.dist, Aggregator::kGcn, Direction::kForward, f.ranges, 8);
  EXPECT_EQ(betas[0][1][0], 0.0);
}

TEST(MessageBetas, UntracedRangesRejected) {
  // A refresh whose epoch traced nothing (or traced another matrix) must
  // fail loudly instead of reading past the range vectors.
  BetaFixture f;
  f.ranges[1].clear();
  for (const Direction dir : {Direction::kForward, Direction::kBackward})
    EXPECT_THROW(message_betas(f.dist, Aggregator::kGcn, dir, f.ranges, 8),
                 std::runtime_error);
}

TEST(RowRanges, ComputesMaxMinusMin) {
  Matrix m(2, 3, {1.0f, -2.0f, 5.0f, 4.0f, 4.0f, 4.0f});
  const auto ranges = row_ranges_of(m);
  EXPECT_FLOAT_EQ(ranges[0], 7.0f);
  EXPECT_FLOAT_EQ(ranges[1], 0.0f);
}

// ---- End-to-end plan construction -------------------------------------------

struct PlanFixture {
  Graph graph;
  DistGraph dist;
  ClusterSpec cluster;
  std::vector<std::vector<float>> ranges;

  PlanFixture() {
    Rng rng(77);
    graph = erdos_renyi(200, 1200, rng);
    const auto part = FennelPartitioner().partition(graph, 4, rng);
    dist = build_dist_graph(graph, part);
    cluster = ClusterSpec::machines(2, 2);
    ranges.resize(4);
    Rng r2(78);
    for (int d = 0; d < 4; ++d) {
      ranges[d].resize(dist.devices[d].num_local());
      for (auto& x : ranges[d])
        x = static_cast<float>(r2.uniform(0.1, 4.0));
    }
  }
};

TEST(AssignPlan, ShapesAlignWithMapsBothDirections) {
  PlanFixture f;
  AssignerOptions opts;
  opts.group_size = 16;
  for (auto dir : {Direction::kForward, Direction::kBackward}) {
    const auto plan = assign_bit_widths(f.dist, f.cluster, Aggregator::kGcn,
                                        dir, f.ranges, 32, opts);
    for (int d = 0; d < 4; ++d)
      for (int p = 0; p < 4; ++p) {
        const auto expected =
            dir == Direction::kForward
                ? f.dist.devices[d].send_local[p].size()
                : f.dist.devices[d].recv_local[p].size();
        ASSERT_EQ(plan.bits[d][p].size(), expected);
        for (int b : plan.bits[d][p]) EXPECT_TRUE(is_valid_bit_width(b));
      }
  }
}

TEST(AssignPlan, LambdaExtremesBracketAverageBits) {
  PlanFixture f;
  auto avg_bits = [&](double lambda) {
    AssignerOptions opts;
    opts.group_size = 16;
    opts.lambda = lambda;
    const auto plan = assign_bit_widths(f.dist, f.cluster, Aggregator::kGcn,
                                        Direction::kForward, f.ranges, 32,
                                        opts);
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& pd : plan.bits)
      for (const auto& pp : pd)
        for (int b : pp) {
          sum += b;
          ++count;
        }
    return count ? sum / count : 0.0;
  };
  const double lo = avg_bits(0.0), mid = avg_bits(0.5), hi = avg_bits(1.0);
  EXPECT_DOUBLE_EQ(hi, 8.0);
  EXPECT_LE(lo, mid + 1e-12);
  EXPECT_LE(mid, hi);
  EXPECT_LT(lo, 8.0);
}

TEST(AssignPlan, ReportIsPopulated) {
  PlanFixture f;
  AssignerOptions opts;
  opts.group_size = 8;
  AssignReport report;
  assign_bit_widths(f.dist, f.cluster, Aggregator::kGcn, Direction::kForward,
                    f.ranges, 32, opts, &report);
  EXPECT_GT(report.num_groups, 0u);
  EXPECT_GT(report.solve_wall_seconds, 0.0);
  EXPECT_GT(report.sim_gather_scatter_seconds, 0.0);
  EXPECT_GT(report.total_z, 0.0);
}

TEST(AssignPlan, GroupSizeOneMatchesPerMessageAssignment) {
  PlanFixture f;
  AssignerOptions fine;
  fine.group_size = 1;
  AssignReport report_fine;
  assign_bit_widths(f.dist, f.cluster, Aggregator::kGcn, Direction::kForward,
                    f.ranges, 32, fine, &report_fine);
  AssignerOptions coarse;
  coarse.group_size = 100000;
  AssignReport report_coarse;
  assign_bit_widths(f.dist, f.cluster, Aggregator::kGcn, Direction::kForward,
                    f.ranges, 32, coarse, &report_coarse);
  EXPECT_GT(report_fine.num_groups, report_coarse.num_groups);
  // Finer granularity widens the solution space, so the scalarized optimum
  // cannot be (meaningfully) worse than under coarse grouping; the small
  // slack covers the greedy knapsack's integrality gap.
  EXPECT_LE(report_fine.total_objective,
            report_coarse.total_objective + 0.15);
}

TEST(UniformSampling, ProducesOnlyCandidateWidths) {
  PlanFixture f;
  Rng rng(5);
  const auto plan = sample_uniform_plan(f.dist, Direction::kForward, rng);
  int hist[9] = {0};
  for (const auto& pd : plan.bits)
    for (const auto& pp : pd)
      for (int b : pp) {
        ASSERT_TRUE(b == 2 || b == 4 || b == 8);
        hist[b]++;
      }
  // All three widths should appear in a large sample.
  EXPECT_GT(hist[2], 0);
  EXPECT_GT(hist[4], 0);
  EXPECT_GT(hist[8], 0);
}

}  // namespace
}  // namespace adaqp
