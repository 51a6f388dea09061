// The pipeline subsystem's invariants: StageGraph executes a DAG correctly
// under both the async scheduler and the serial reference schedule; a full
// DistTrainer::run() is bit-identical with the async pipeline on and off
// for every method; ADAQP_ASYNC parsing is strict; and the trace recorder
// emits loadable Chrome trace JSON. (The one-shot halo exchange's
// thread-count invariance lives in tests/test_runtime.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/trainer.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"
#include "simd/isa.h"

namespace adaqp {
namespace {

using pipeline::AsyncModeGuard;
using pipeline::StageGraph;

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

// ---- StageGraph -----------------------------------------------------------

TEST(Event, SetIsStickyAndWaitReturns) {
  pipeline::Event ev;
  EXPECT_FALSE(ev.done());
  ev.set();
  EXPECT_TRUE(ev.done());
  ev.wait();  // must not block
}

/// Diamond + chain: every stage appends its id under a mutex; afterwards
/// each stage must appear exactly once and after all of its dependencies.
void check_topological(bool async, int threads) {
  ThreadCountGuard guard(threads);
  std::mutex mu;
  std::vector<int> order;
  StageGraph g;
  auto stage = [&](int tag) {
    return [&mu, &order, tag] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(tag);
    };
  };
  const int a = g.add("a", stage(0));
  const int b = g.add("b", stage(1), {a});
  const int c = g.add("c", stage(2), {a});
  const int d = g.add("d", stage(3), {b, c});
  const int e = g.add("e", stage(4), {d});
  (void)e;
  g.run(async);

  ASSERT_EQ(order.size(), 5u);
  std::vector<int> pos(5, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_GE(order[i], 0);
    ASSERT_LT(order[i], 5);
    ASSERT_EQ(pos[order[i]], -1) << "stage ran twice";
    pos[order[i]] = static_cast<int>(i);
  }
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
  EXPECT_LT(pos[3], pos[4]);
  for (int id = 0; id < 5; ++id) EXPECT_TRUE(g.stage_done(id).done());
}

TEST(StageGraph, TopologicalExecutionSerial) {
  check_topological(/*async=*/false, 1);
}
TEST(StageGraph, TopologicalExecutionAsyncOneThread) {
  check_topological(/*async=*/true, 1);
}
TEST(StageGraph, TopologicalExecutionAsyncFourThreads) {
  check_topological(/*async=*/true, 4);
}
TEST(StageGraph, TopologicalExecutionAsyncEightThreads) {
  check_topological(/*async=*/true, 8);
}

TEST(StageGraph, ManyIndependentStagesAllRun) {
  ThreadCountGuard guard(4);
  StageGraph g;
  std::vector<std::atomic<int>> hits(64);
  for (int i = 0; i < 64; ++i)
    g.add("s" + std::to_string(i), [&hits, i] { hits[i]++; });
  g.run(/*async=*/true);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StageGraph, ExceptionPropagatesAndPoisonsDependents) {
  ThreadCountGuard guard(4);
  StageGraph g;
  std::atomic<bool> dependent_ran{false};
  const int boom =
      g.add("boom", [] { throw std::runtime_error("stage boom"); });
  g.add("after", [&dependent_ran] { dependent_ran = true; }, {boom});
  g.launch();
  EXPECT_THROW(g.wait(), std::runtime_error);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(StageGraph, DependencyMustPointBackwards) {
  StageGraph g;
  g.add("a", [] {});
  EXPECT_THROW(g.add("bad", [] {}, {5}), std::runtime_error);
}

// ---- ADAQP_ASYNC parsing --------------------------------------------------

TEST(AsyncConfig, StrictParsing) {
  pipeline::set_async_override(-1);  // consult the environment
  unsetenv("ADAQP_ASYNC");
  EXPECT_TRUE(pipeline::async_enabled());  // default: async on
  setenv("ADAQP_ASYNC", "0", 1);
  EXPECT_FALSE(pipeline::async_enabled());
  setenv("ADAQP_ASYNC", "1", 1);
  EXPECT_TRUE(pipeline::async_enabled());
  setenv("ADAQP_ASYNC", "2", 1);
  EXPECT_THROW(pipeline::async_enabled(), std::runtime_error);
  setenv("ADAQP_ASYNC", "yes", 1);
  EXPECT_THROW(pipeline::async_enabled(), std::runtime_error);
  unsetenv("ADAQP_ASYNC");
}

TEST(AsyncConfig, OverrideWinsAndGuardRestores) {
  pipeline::set_async_override(-1);
  unsetenv("ADAQP_ASYNC");
  {
    AsyncModeGuard guard(false);
    EXPECT_FALSE(pipeline::async_enabled());
    {
      AsyncModeGuard inner(true);
      EXPECT_TRUE(pipeline::async_enabled());
    }
    EXPECT_FALSE(pipeline::async_enabled());
  }
  EXPECT_TRUE(pipeline::async_enabled());
}

// ---- Full trainer: async pipeline on == off, bit for bit ------------------

DatasetSpec pipeline_spec() {
  DatasetSpec spec;
  spec.name = "pipeline_tiny";
  spec.num_nodes = 300;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = false;
  spec.intra_prob = 0.8;
  return spec;
}

RunResult run_trainer(const Dataset& ds, const DistGraph& dist, Method method,
                      int threads, bool async) {
  ThreadCountGuard guard(threads);
  AsyncModeGuard mode(async);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.spec.num_classes;
  mc.num_layers = 3;
  mc.dropout = 0.5f;  // dropout on: the mask pre-draw must preserve streams
  mc.layer_norm = true;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = 6;
  opts.seed = 99;
  opts.reassign_period = 3;
  opts.eval_every_epoch = true;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  return trainer.run();
}

class PipelineTrainerEquality : public ::testing::TestWithParam<Method> {};

TEST_P(PipelineTrainerEquality, AsyncOnOffAndSingleThreadAllBitIdentical) {
  const Method method = GetParam();
  Rng rng(314);
  const Dataset ds = make_dataset(pipeline_spec(), rng);
  Rng part_rng(27);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  const RunResult sync1 = run_trainer(ds, dist, method, 1, /*async=*/false);
  const RunResult async1 = run_trainer(ds, dist, method, 1, /*async=*/true);
  const RunResult async8 = run_trainer(ds, dist, method, 8, /*async=*/true);
  const RunResult sync8 = run_trainer(ds, dist, method, 8, /*async=*/false);

  auto expect_equal = [](const RunResult& a, const RunResult& b,
                         const char* what) {
    ASSERT_EQ(a.epochs.size(), b.epochs.size()) << what;
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
      EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss)
          << what << " epoch " << e;
      EXPECT_EQ(a.epochs[e].val_acc, b.epochs[e].val_acc)
          << what << " epoch " << e;
      EXPECT_EQ(a.epochs[e].test_acc, b.epochs[e].test_acc)
          << what << " epoch " << e;
      EXPECT_EQ(a.epochs[e].time.total, b.epochs[e].time.total)
          << what << " epoch " << e;
    }
    EXPECT_EQ(a.total_comm_bytes, b.total_comm_bytes) << what;
    EXPECT_EQ(a.final_val_acc, b.final_val_acc) << what;
    EXPECT_EQ(a.final_test_acc, b.final_test_acc) << what;
  };
  expect_equal(sync1, async1, "sync1 vs async1");
  expect_equal(sync1, async8, "sync1 vs async8");
  expect_equal(sync1, sync8, "sync1 vs sync8");
}

INSTANTIATE_TEST_SUITE_P(Methods, PipelineTrainerEquality,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

// ---- Backward overlap: gradients and Adam state, bit for bit --------------

/// Every float of trainer-held optimizer state after a short run: parameter
/// values, last-epoch gradients, and both Adam moments — the deep
/// comparison behind the full-duplex backward's bit-identity claim.
struct TrainerState {
  std::vector<std::vector<float>> tensors;

  static TrainerState capture(DistTrainer& trainer) {
    TrainerState s;
    for (Param* p : trainer.model().params()) {
      for (const Matrix* m : {&p->value, &p->grad, &p->adam_m, &p->adam_v})
        s.tensors.emplace_back(m->data(), m->data() + m->size());
    }
    return s;
  }
};

TrainerState run_and_capture(const Dataset& ds, const DistGraph& dist,
                             Method method, int threads, bool async,
                             std::optional<simd::Isa> isa = std::nullopt) {
  ThreadCountGuard guard(threads);
  AsyncModeGuard mode(async);
  std::optional<simd::IsaGuard> isa_guard;
  if (isa) isa_guard.emplace(*isa);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.spec.num_classes;
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  mc.layer_norm = true;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = 5;
  opts.seed = 77;
  opts.reassign_period = 2;
  opts.eval_every_epoch = false;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  // Cross-iteration exchanges (PipeGCN) stay in flight between these calls.
  for (int e = 0; e < opts.epochs; ++e) trainer.train_epoch();
  return TrainerState::capture(trainer);
}

class BackwardOverlapStateEquality : public ::testing::TestWithParam<Method> {
};

TEST_P(BackwardOverlapStateEquality, GradientsAndAdamStateBitIdentical) {
  const Method method = GetParam();
  Rng rng(2718);
  const Dataset ds = make_dataset(pipeline_spec(), rng);
  Rng part_rng(31);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  const TrainerState ref =
      run_and_capture(ds, dist, method, 1, /*async=*/false);
  const TrainerState async1 =
      run_and_capture(ds, dist, method, 1, /*async=*/true);
  const TrainerState async4 =
      run_and_capture(ds, dist, method, 4, /*async=*/true);
  const TrainerState async8 =
      run_and_capture(ds, dist, method, 8, /*async=*/true);
  const TrainerState sync8 =
      run_and_capture(ds, dist, method, 8, /*async=*/false);
  const TrainerState scalar4 = run_and_capture(ds, dist, method, 4,
                                               /*async=*/true,
                                               simd::Isa::kScalar);

  auto expect_equal = [&](const TrainerState& got, const char* what) {
    ASSERT_EQ(got.tensors.size(), ref.tensors.size()) << what;
    for (std::size_t t = 0; t < ref.tensors.size(); ++t) {
      ASSERT_EQ(got.tensors[t].size(), ref.tensors[t].size()) << what;
      for (std::size_t i = 0; i < ref.tensors[t].size(); ++i)
        ASSERT_EQ(got.tensors[t][i], ref.tensors[t][i])
            << what << " tensor " << t << " element " << i;
    }
  };
  expect_equal(async1, "async threads=1");
  expect_equal(async4, "async threads=4");
  expect_equal(async8, "async threads=8");
  expect_equal(sync8, "sync threads=8");
  expect_equal(scalar4, "async threads=4 ADAQP_ISA=scalar");
}

INSTANTIATE_TEST_SUITE_P(Methods, BackwardOverlapStateEquality,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

// ---- Trace recorder -------------------------------------------------------

TEST(TraceRecorder, RecordsStagesAndWritesChromeJson) {
  ThreadCountGuard guard(4);
  AsyncModeGuard mode(true);
  auto& rec = pipeline::TraceRecorder::instance();
  rec.start();
  {
    Rng rng(11);
    const Dataset ds = make_dataset(pipeline_spec(), rng);
    Rng part_rng(5);
    const auto part =
        make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
    const DistGraph dist = build_dist_graph(ds.graph, part);
    const ClusterSpec cluster = ClusterSpec::machines(2, 2);
    ModelConfig mc;
    mc.aggregator = Aggregator::kGcn;
    mc.in_dim = ds.spec.feature_dim;
    mc.hidden_dim = 16;
    mc.out_dim = ds.spec.num_classes;
    mc.num_layers = 2;
    TrainOptions opts;
    opts.method = Method::kAdaQP;
    opts.epochs = 2;
    opts.eval_every_epoch = false;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    trainer.run();
  }
  rec.stop();
  ASSERT_GT(rec.event_count(), 0u);

  const std::string path = ::testing::TempDir() + "adaqp_trace_test.json";
  ASSERT_TRUE(rec.write_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("/central/d0"), std::string::npos);
  EXPECT_NE(json.find("fwd/d"), std::string::npos);
  // Full-duplex backward stages: row-subset adjoints and the fold.
  EXPECT_NE(json.find("L1b/marginal/d0"), std::string::npos);
  EXPECT_NE(json.find("L1b/central/d0"), std::string::npos);
  EXPECT_NE(json.find("L1b/fold"), std::string::npos);
  EXPECT_NE(json.find("bwd-enc/d"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adaqp
