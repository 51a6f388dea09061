// The runtime's load-bearing invariant: multi-threaded execution is
// bit-identical to ADAQP_THREADS=1. Covers the pool primitives themselves,
// the parallel GEMM/aggregation/halo-exchange kernels (including ragged,
// non-multiple-of-block shapes), and a full DistTrainer::run().
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "dist/halo_exchange.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace adaqp {
namespace {

/// Scoped global-pool override; restores the previous size on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

TEST(ThreadPool, ConfiguredThreadsIsPositive) {
  EXPECT_GE(configured_threads(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard(8);
  std::vector<int> hits(10001, 0);
  parallel_for(hits.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEachCoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard(8);
  std::vector<int> hits(37, 0);
  parallel_for_each(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadCountGuard guard(4);
  std::vector<long> sums(8, 0);
  parallel_for_each(sums.size(), [&](std::size_t t) {
    // Nested region: must collapse to inline execution on the worker.
    parallel_for(100, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sums[t] += static_cast<long>(i);
    });
  });
  for (long s : sums) EXPECT_EQ(s, 4950);
}

TEST(ThreadPool, TaskExceptionsPropagateToCaller) {
  ThreadCountGuard guard(4);
  EXPECT_THROW(parallel_for(64, 1,
                            [&](std::size_t, std::size_t) {
                              throw std::runtime_error("task boom");
                            }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::vector<int> hits(16, 0);
  parallel_for_each(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PoolTasksCountOnlyBatchSlotTasks) {
  const obs::Counter& tasks = obs::instruments().pool_tasks;
  const auto noop = [](std::size_t, void*) {};
  {
    // A nested region runs inline on the worker: only the 4 outer tasks
    // count.
    ThreadCountGuard guard(4);
    const std::uint64_t before = tasks.value();
    const auto nested = [](std::size_t, void*) {
      global_pool().run(3, [](std::size_t, void*) {}, nullptr);
    };
    global_pool().run(4, nested, nullptr);
    EXPECT_EQ(tasks.value() - before, 4u);
  }
  {
    ThreadCountGuard guard(1);
    const std::uint64_t before = tasks.value();
    global_pool().run(4, noop, nullptr);
    EXPECT_EQ(tasks.value() - before, 0u);
  }
  {
    ThreadCountGuard guard(4);
    std::uint64_t before = tasks.value();
    global_pool().run(1, noop, nullptr);
    EXPECT_EQ(tasks.value() - before, 0u);
    before = tasks.value();
    parallel_for(4, 1, [](std::size_t, std::size_t) {});
    EXPECT_EQ(tasks.value() - before, 4u);
  }
}

// ---- Kernel determinism across thread counts ------------------------------

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  m.fill_uniform(rng, -2.0f, 2.0f);
  return m;
}

struct RaggedShape {
  std::size_t m, k, n;
};

class GemmDeterminism : public ::testing::TestWithParam<RaggedShape> {};

TEST_P(GemmDeterminism, AllVariantsBitExactAcrossThreadCounts) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 11 * m + k);
  const Matrix b = random_matrix(k, n, 13 * k + n);
  const Matrix at = random_matrix(k, m, 17 * m + n);
  const Matrix bt = random_matrix(n, k, 19 * k + m);

  Matrix c1, c8, tn1, tn8, nt1, nt8, b_scratch;
  {
    ThreadCountGuard guard(1);
    gemm(a, b, c1);
    gemm_tn(at, b, tn1);
    gemm_nt(a, bt, nt1, b_scratch);
  }
  {
    ThreadCountGuard guard(8);
    gemm(a, b, c8);
    gemm_tn(at, b, tn8);
    gemm_nt(a, bt, nt8, b_scratch);
  }
  EXPECT_EQ(max_abs_diff(c1, c8), 0.0f);
  EXPECT_EQ(max_abs_diff(tn1, tn8), 0.0f);
  EXPECT_EQ(max_abs_diff(nt1, nt8), 0.0f);
}

// Ragged shapes straddle the kernels' block sizes (8/128/512) on purpose.
INSTANTIATE_TEST_SUITE_P(RaggedShapes, GemmDeterminism,
                         ::testing::Values(RaggedShape{1, 1, 1},
                                           RaggedShape{7, 13, 3},
                                           RaggedShape{129, 67, 33},
                                           RaggedShape{130, 257, 9},
                                           RaggedShape{33, 130, 515},
                                           RaggedShape{1000, 3, 17}));

TEST(AggregateDeterminism, ForwardAndAdjointBitExactAcrossThreadCounts) {
  Rng rng(77);
  Graph g = erdos_renyi(220, 1500, rng);
  const auto part = MultilevelPartitioner().partition(g, 3, rng);
  const DistGraph dist = build_dist_graph(g, part);

  for (const Aggregator agg : {Aggregator::kGcn, Aggregator::kSageMean}) {
    for (const auto& dev : dist.devices) {
      const Matrix x = random_matrix(dev.num_local(), 9, 1000 + dev.device);
      const Matrix gout =
          random_matrix(dev.num_owned, 9, 2000 + dev.device);
      Matrix fwd1, fwd8;
      Matrix adj1(dev.num_local(), 9), adj8(dev.num_local(), 9);
      {
        ThreadCountGuard guard(1);
        aggregate_forward(dev, agg, x, fwd1);
        aggregate_backward(dev, agg, gout, adj1);
      }
      {
        ThreadCountGuard guard(8);
        aggregate_forward(dev, agg, x, fwd8);
        aggregate_backward(dev, agg, gout, adj8);
      }
      ASSERT_EQ(max_abs_diff(fwd1, fwd8), 0.0f);
      ASSERT_EQ(max_abs_diff(adj1, adj8), 0.0f);

      // The plan-based kernels reproduce the serial plan-less ones bit for
      // bit (a plan without adjoints runs the serial scatter; the gather
      // adjoint is GatherAdjointBitExactInTrainerOrder's).
      const AggregatePlan plan = build_aggregate_plan(dev, agg);
      Matrix plan_fwd(dev.num_owned, 9), plan_adj(dev.num_local(), 9);
      {
        ThreadCountGuard guard(8);
        aggregate_forward(dev, plan, x, dev.owned_span(), plan_fwd);
        aggregate_backward(dev, plan, gout, dev.owned_span(), plan_adj);
      }
      ASSERT_EQ(max_abs_diff(fwd1, plan_fwd), 0.0f);
      ASSERT_EQ(max_abs_diff(adj1, plan_adj), 0.0f);
    }
  }
}

/// Bit-for-bit equality: max_abs_diff cannot tell -0 from +0.
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_row_bits(const Matrix& a, const Matrix& b, std::size_t r) {
  return std::memcmp(a.row(r).data(), b.row(r).data(),
                     a.cols() * sizeof(float)) == 0;
}

TEST(AggregateDeterminism, GatherAdjointBitExactInTrainerOrder) {
  Rng rng(78);
  const Graph er = erdos_renyi(220, 1500, rng);
  // One more node without edges: its row gathers only its own self entry.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < er.num_nodes(); ++v)
    for (NodeId u : er.neighbors(v))
      if (v < u) edges.emplace_back(v, u);
  const Graph g = build_graph(er.num_nodes() + 1, edges);
  const auto part = MultilevelPartitioner().partition(g, 3, rng);
  const DistGraph dist = build_dist_graph(g, part);
  constexpr std::size_t kDim = 9;

  bool saw_isolated = false, saw_halo = false, saw_plus_zero = false;
  for (const Aggregator agg : {Aggregator::kGcn, Aggregator::kSageMean}) {
    for (const auto& dev : dist.devices) {
      for (std::size_t v = 0; v < dev.num_owned; ++v)
        saw_isolated |= dev.degree(static_cast<NodeId>(v)) == 0;
      saw_halo |= dev.num_halo > 0 && !dev.marginal_span().empty();
      const Matrix gout = random_matrix(dev.num_owned, kDim, 3000 + dev.device);
      // Every row starts at -0: a zero coefficient (SAGE's self term) turns
      // it into +0 wherever the gradient is positive, so the gather must
      // keep zero-coefficient entries.
      Matrix init(dev.num_local(), kDim);
      init.fill(-0.0f);

      // The trainer's order (marginal rows, then central rows, into one
      // gradient) and the whole-row call, through the serial scatter.
      Matrix ref = init;
      aggregate_backward(dev, agg, gout, dev.marginal_span(), ref);
      aggregate_backward(dev, agg, gout, dev.central_span(), ref);
      Matrix ref_owned = init;
      aggregate_backward(dev, agg, gout, dev.owned_span(), ref_owned);
      for (std::size_t i = 0; i < ref.size(); ++i)
        saw_plus_zero |= std::bit_cast<std::uint32_t>(ref.data()[i]) == 0u;

      const AggregatePlan plan = build_aggregate_plan(
          dev, agg,
          {dev.marginal_span(), dev.central_span(), dev.owned_span()});
      const AggregateAdjoint* central = plan.adjoint_for(dev.central_span());
      ASSERT_NE(plan.adjoint_for(dev.owned_span()), nullptr);
      ASSERT_EQ(plan.adjoint_for(dev.marginal_span()) == nullptr,
                dev.marginal_span().empty());
      ASSERT_EQ(central == nullptr, dev.central_span().empty());
      // Matched by content: a copy of the rows finds the same adjoint.
      const std::vector<NodeId> owned_copy(dev.owned_span().begin(),
                                           dev.owned_span().end());
      ASSERT_EQ(plan.adjoint_for(owned_copy),
                plan.adjoint_for(dev.owned_span()));
      // Central rows reach owned rows only: the gather has no halo row.
      if (central != nullptr) {
        for (NodeId u : central->dst) ASSERT_LT(u, dev.num_owned);
      }

      for (const int threads : {1, 4, 8}) {
        ThreadCountGuard guard(threads);
        Matrix got = init;
        aggregate_backward(dev, plan, gout, dev.marginal_span(), got);
        const Matrix after_marginal = got;
        aggregate_backward(dev, plan, gout, dev.central_span(), got);
        EXPECT_TRUE(same_bits(ref, got)) << "threads " << threads;
        // The central call writes no halo row: the halo-gradient encode
        // reads those rows while it runs.
        for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h)
          ASSERT_TRUE(same_row_bits(after_marginal, got, h)) << "halo " << h;
        Matrix got_owned = init;
        aggregate_backward(dev, plan, gout, dev.owned_span(), got_owned);
        EXPECT_TRUE(same_bits(ref_owned, got_owned)) << "threads " << threads;
      }
    }
  }
  EXPECT_TRUE(saw_isolated);
  EXPECT_TRUE(saw_halo);
  EXPECT_TRUE(saw_plus_zero);
}

TEST(HaloExchangeDeterminism, QuantizedForwardBackwardBitExact) {
  Rng rng(79);
  Graph g = erdos_renyi(160, 800, rng);
  const auto part = MultilevelPartitioner().partition(g, 4, rng);
  const DistGraph dist = build_dist_graph(g, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  const std::size_t dim = 10;
  const Matrix global = random_matrix(g.num_nodes(), dim, 4242);
  // 4-bit plan: stochastic rounding makes the per-device Rng order load-
  // bearing, which is exactly what this test pins down.
  const auto fwd_plan = ExchangePlan::uniform_forward(dist, 4);
  const auto bwd_plan = ExchangePlan::uniform_backward(dist, 4);

  auto run_once = [&](int threads, std::vector<Matrix>& out,
                      ExchangeStats& fwd_stats, ExchangeStats& bwd_stats) {
    ThreadCountGuard guard(threads);
    std::vector<Rng> rngs;
    for (int d = 0; d < dist.num_devices(); ++d) rngs.emplace_back(500 + d);
    out = scatter_to_devices(global, dist);
    fwd_stats = exchange_halo_forward(dist, out, fwd_plan, cluster, rngs);
    bwd_stats = exchange_halo_backward(dist, out, bwd_plan, cluster, rngs);
  };

  std::vector<Matrix> locals1;
  ExchangeStats f1, b1;
  run_once(1, locals1, f1, b1);
  for (const int threads : {4, 8}) {
    std::vector<Matrix> locals;
    ExchangeStats f, b;
    run_once(threads, locals, f, b);
    ASSERT_EQ(locals1.size(), locals.size());
    for (std::size_t d = 0; d < locals1.size(); ++d)
      ASSERT_EQ(max_abs_diff(locals1[d], locals[d]), 0.0f)
          << "threads " << threads << " device " << d;
    EXPECT_EQ(f1.pair_bytes, f.pair_bytes) << "threads " << threads;
    EXPECT_EQ(b1.pair_bytes, b.pair_bytes) << "threads " << threads;
    EXPECT_EQ(f1.comm_seconds, f.comm_seconds) << "threads " << threads;
    EXPECT_EQ(b1.comm_seconds, b.comm_seconds) << "threads " << threads;
    EXPECT_EQ(f1.quant_seconds, f.quant_seconds) << "threads " << threads;
    EXPECT_EQ(f1.dequant_seconds, f.dequant_seconds) << "threads " << threads;
  }
}

// ---- End-to-end determinism -----------------------------------------------

DatasetSpec runtime_spec() {
  DatasetSpec spec;
  spec.name = "runtime_tiny";
  spec.num_nodes = 300;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = false;
  spec.intra_prob = 0.8;
  return spec;
}

RunResult run_trainer(const Dataset& ds, const DistGraph& dist,
                      Method method, int threads, int num_layers = 3) {
  ThreadCountGuard guard(threads);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.spec.num_classes;
  mc.num_layers = num_layers;
  mc.dropout = 0.5f;  // dropout on: per-device Rng streams must hold up
  TrainOptions opts;
  opts.method = method;
  opts.epochs = 6;
  opts.seed = 99;
  opts.reassign_period = 3;
  opts.eval_every_epoch = true;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  return trainer.run();
}

class TrainerDeterminism : public ::testing::TestWithParam<Method> {};

TEST_P(TrainerDeterminism, FullRunBitIdenticalAcrossThreadCounts) {
  const Method method = GetParam();
  Rng rng(314);
  const Dataset ds = make_dataset(runtime_spec(), rng);
  Rng part_rng(27);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  // The input layer computes no input gradient. At one layer it is also the
  // output layer; at two, its incoming gradient comes straight from the
  // output layer's halo exchange.
  for (const int layers : {3, 2, 1}) {
    const RunResult serial = run_trainer(ds, dist, method, 1, layers);
    for (const int threads : {4, 8}) {
      const RunResult parallel =
          run_trainer(ds, dist, method, threads, layers);
      ASSERT_EQ(serial.epochs.size(), parallel.epochs.size());
      for (std::size_t e = 0; e < serial.epochs.size(); ++e) {
        EXPECT_EQ(serial.epochs[e].train_loss, parallel.epochs[e].train_loss)
            << layers << " layers, " << threads << " threads, epoch " << e;
        EXPECT_EQ(serial.epochs[e].val_acc, parallel.epochs[e].val_acc)
            << layers << " layers, " << threads << " threads, epoch " << e;
        EXPECT_EQ(serial.epochs[e].test_acc, parallel.epochs[e].test_acc)
            << layers << " layers, " << threads << " threads, epoch " << e;
      }
      EXPECT_EQ(serial.total_comm_bytes, parallel.total_comm_bytes);
      EXPECT_EQ(serial.final_val_acc, parallel.final_val_acc);
      EXPECT_EQ(serial.final_test_acc, parallel.final_test_acc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, TrainerDeterminism,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

}  // namespace
}  // namespace adaqp
