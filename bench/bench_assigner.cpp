// Microbenchmarks of the bi-objective bit-width solver (GUROBI substitute):
// solve time versus round size, supporting the paper's claim that the
// assignment overhead is a small share of wall-clock time (§5.4), plus the
// end-to-end plan construction over a realistic distributed graph.
#include <benchmark/benchmark.h>

#include "assign/bit_assigner.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "partition/partitioner.h"

namespace {

using namespace adaqp;

RoundProblem make_problem(int pairs, int groups_per_pair) {
  Rng rng(99);
  RoundProblem problem;
  for (int p = 0; p < pairs; ++p) {
    RoundProblem::Pair pair;
    pair.src = p;
    pair.dst = (p + 1) % pairs;
    pair.theta = rng.uniform(5e-11, 5e-10);
    pair.gamma = rng.uniform(1e-6, 1e-5);
    for (int g = 0; g < groups_per_pair; ++g) {
      MessageGroup group;
      group.beta_sum = rng.uniform(0.001, 10.0);
      group.dim_sum = 64 * (1 + rng.uniform_int(16));
      pair.groups.push_back(group);
    }
    problem.pairs.push_back(std::move(pair));
  }
  return problem;
}

void BM_SolveRound(benchmark::State& state) {
  const auto problem = make_problem(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto sol = solve_round(problem, 0.5);
    benchmark::DoNotOptimize(sol.bits.data());
  }
}
BENCHMARK(BM_SolveRound)
    ->Args({4, 8})->Args({4, 64})->Args({8, 64})->Args({24, 64})
    ->Args({24, 256});

void BM_AssignFullPlan(benchmark::State& state) {
  Rng rng(7);
  DcSbmParams params;
  params.num_nodes = 2000;
  params.num_blocks = 8;
  params.avg_degree = 12.0;
  params.intra_prob = 0.8;
  DcSbm sbm = dc_sbm(params, rng);
  const int devices = static_cast<int>(state.range(0));
  const auto part = MultilevelPartitioner().partition(sbm.graph, devices, rng);
  const DistGraph dist = build_dist_graph(sbm.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, devices / 2);
  std::vector<std::vector<float>> ranges(devices);
  for (int d = 0; d < devices; ++d)
    ranges[d].assign(dist.devices[d].num_local(), 1.5f);
  AssignerOptions opts;
  opts.group_size = 64;
  for (auto _ : state) {
    auto plan = assign_bit_widths(dist, cluster, Aggregator::kGcn,
                                  Direction::kForward, ranges, 64, opts);
    benchmark::DoNotOptimize(plan.bits.data());
  }
}
BENCHMARK(BM_AssignFullPlan)->Arg(4)->Arg(8)->Arg(24);

void BM_MessageBetas(benchmark::State& state) {
  Rng rng(8);
  DcSbm sbm = dc_sbm({.num_nodes = 2000,
                      .num_blocks = 8,
                      .avg_degree = 12.0,
                      .intra_prob = 0.8,
                      .degree_exponent = 2.5,
                      .max_degree_cap = 0},
                     rng);
  const auto part = MultilevelPartitioner().partition(sbm.graph, 4, rng);
  const DistGraph dist = build_dist_graph(sbm.graph, part);
  std::vector<std::vector<float>> ranges(4);
  for (int d = 0; d < 4; ++d)
    ranges[d].assign(dist.devices[d].num_local(), 1.0f);
  const Direction dir =
      state.range(0) == 0 ? Direction::kForward : Direction::kBackward;
  for (auto _ : state) {
    auto betas = message_betas(dist, Aggregator::kGcn, dir, ranges, 64);
    benchmark::DoNotOptimize(betas.data());
  }
}
// 0 = forward (send lists), 1 = backward (receive lists).
BENCHMARK(BM_MessageBetas)->ArgName("bwd")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
