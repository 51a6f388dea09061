// The memory subsystem's contract (docs/ARCHITECTURE.md, "Memory
// subsystem"): after the warmup epoch every DistTrainer method runs a full
// training epoch with ZERO heap allocations, on every method x async mode x
// thread count, over loopback and over a single-process TCP wire, with
// bit-identical numerics between the cold (allocating) and warm (reusing)
// epochs of independent runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/race_checker.h"
#include "core/trainer.h"
#include "memory/alloc_track.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pipeline/config.h"
#include "runtime/thread_pool.h"
#include "transport/loopback.h"
#include "transport/tcp.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

using pipeline::AsyncModeGuard;

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

// ---- Zero-allocation steady state -----------------------------------------

DatasetSpec steady_spec(bool multi_label = false) {
  DatasetSpec spec;
  spec.name = multi_label ? "steady_multi" : "steady_single";
  spec.num_nodes = 600;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = multi_label;
  spec.intra_prob = 0.8;
  return spec;
}

/// The transports the zero-allocation contract covers, pinned by every case
/// so the suite means the same in CI's ADAQP_TRANSPORT / ADAQP_FAULT legs.
std::unique_ptr<transport::Transport> steady_wire(bool tcp) {
  if (tcp)
    return std::make_unique<transport::TcpTransport>(transport::TcpOptions{});
  return std::make_unique<transport::LoopbackTransport>();
}

/// Run `epochs` steady-configured training epochs and return the per-epoch
/// losses; after the warmup epoch, every epoch must be steady state with a
/// zero allocation report.
std::vector<double> run_steady(const Dataset& ds, Method method, bool async,
                               int threads, int epochs, bool tcp = false) {
  AsyncModeGuard async_guard(async);
  ThreadCountGuard thread_guard(threads);
  transport::ScopedTransport wire(steady_wire(tcp));
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.3f;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = 7;
  opts.reassign_period = 1 << 20;  // refresh only at epoch 0
  opts.eval_every_epoch = false;   // steady-state contract requirement
  opts.verbose = false;
  DistTrainer trainer(ds, dist, cluster, mc, opts);

  // Racecheck mode (e.g. CI's ADAQP_RACECHECK=1 pass) is explicitly
  // excluded from the steady-state contract: the checker's per-launch
  // record capture allocates by design. The runs below still execute —
  // their stage graphs get verified — but the allocation assertions are
  // vacuously skipped and the trainer must report not-steady.
  const bool contract_active = !analysis::racecheck_enabled();

  std::vector<double> losses;
  for (int e = 0; e < epochs; ++e) {
    const EpochRecord rec = trainer.train_epoch();
    losses.push_back(rec.train_loss);
    const EpochAllocReport& report = trainer.last_alloc_report();
    if (e == 0) {
      EXPECT_FALSE(report.steady_state) << "warmup epoch cannot be steady";
      continue;
    }
    if (!contract_active) {
      EXPECT_FALSE(report.steady_state)
          << "racecheck-mode epochs must not claim steady state";
      continue;
    }
    EXPECT_TRUE(report.steady_state)
        << method_name(method) << " epoch " << e
        << " did not qualify as steady state";
    EXPECT_EQ(report.total(), 0u)
        << method_name(method) << " async=" << async << " threads=" << threads
        << " tcp=" << tcp << " epoch " << e
        << " allocated: forward=" << report.forward
        << " backward=" << report.backward
        << " optimizer=" << report.optimizer << " refresh=" << report.refresh
        << " evaluation=" << report.evaluation;
  }
  return losses;
}

struct SteadyCase {
  Method method;
  bool async;
  int threads;
  bool tcp = false;
};

class SteadyStateTest : public ::testing::TestWithParam<SteadyCase> {};

TEST_P(SteadyStateTest, WarmEpochsAllocateNothing) {
  const SteadyCase c = GetParam();
  Rng rng(11);
  const Dataset ds = make_dataset(steady_spec(), rng);
  run_steady(ds, c.method, c.async, c.threads, 4, c.tcp);
}

std::string steady_case_name(
    const ::testing::TestParamInfo<SteadyCase>& info) {
  std::string name = method_name(info.param.method);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  name += info.param.async ? "_async" : "_sync";
  name += "_t" + std::to_string(info.param.threads);
  if (info.param.tcp) name += "_tcp";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SteadyStateTest,
    ::testing::Values(
        SteadyCase{Method::kVanilla, true, 4},
        SteadyCase{Method::kVanilla, false, 1},
        SteadyCase{Method::kAdaQP, true, 1},
        SteadyCase{Method::kAdaQP, true, 4},
        SteadyCase{Method::kAdaQP, true, 8},
        SteadyCase{Method::kAdaQP, false, 4},
        SteadyCase{Method::kAdaQPUniform, true, 4},
        SteadyCase{Method::kAdaQPUniform, false, 1},
        SteadyCase{Method::kPipeGCN, true, 1},
        SteadyCase{Method::kPipeGCN, true, 4},
        SteadyCase{Method::kPipeGCN, false, 1},
        SteadyCase{Method::kSancus, true, 4},
        SteadyCase{Method::kSancus, false, 1}),
    steady_case_name);

INSTANTIATE_TEST_SUITE_P(
    AllMethodsTcp, SteadyStateTest,
    ::testing::Values(
        SteadyCase{Method::kVanilla, true, 4, true},
        SteadyCase{Method::kVanilla, false, 1, true},
        SteadyCase{Method::kAdaQP, true, 1, true},
        SteadyCase{Method::kAdaQP, true, 4, true},
        SteadyCase{Method::kAdaQP, true, 8, true},
        SteadyCase{Method::kAdaQP, false, 4, true},
        SteadyCase{Method::kAdaQPUniform, true, 4, true},
        SteadyCase{Method::kAdaQPUniform, false, 1, true},
        SteadyCase{Method::kPipeGCN, true, 1, true},
        SteadyCase{Method::kPipeGCN, true, 4, true},
        SteadyCase{Method::kPipeGCN, false, 1, true},
        SteadyCase{Method::kSancus, true, 4, true},
        SteadyCase{Method::kSancus, false, 1, true}),
    steady_case_name);

TEST(SteadyState, MultiLabelLossPathAllocatesNothing) {
  Rng rng(12);
  const Dataset ds = make_dataset(steady_spec(/*multi_label=*/true), rng);
  for (const bool tcp : {false, true})
    run_steady(ds, Method::kAdaQP, /*async=*/true, /*threads=*/4, 4, tcp);
}

/// The pooled/persistent buffers must not change numerics: per-epoch losses
/// are bitwise identical across async modes, thread counts and the two
/// zero-allocation transports under the steady-state configuration (warm
/// epochs included).
TEST(SteadyState, WarmEpochsAreBitIdenticalAcrossSchedules) {
  Rng rng(13);
  const Dataset ds = make_dataset(steady_spec(), rng);
  for (Method method : {Method::kVanilla, Method::kAdaQP,
                        Method::kAdaQPUniform, Method::kPipeGCN,
                        Method::kSancus}) {
    const std::vector<double> ref =
        run_steady(ds, method, /*async=*/true, /*threads=*/4, 5);
    for (const bool tcp : {false, true})
      for (const auto& [async, threads] :
           {std::pair<bool, int>{true, 1}, {true, 8}, {false, 1}, {false, 4}}) {
        const std::vector<double> got =
            run_steady(ds, method, async, threads, 5, tcp);
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t e = 0; e < ref.size(); ++e)
          EXPECT_EQ(ref[e], got[e])
              << method_name(method) << " async=" << async
              << " threads=" << threads << " tcp=" << tcp
              << " diverged at epoch " << e;
      }
  }
}

/// Modes excluded from the contract must be reported as not-steady (and not
/// trip the ADAQP_ALLOC_TRACK assertion): here, evaluation every epoch.
TEST(SteadyState, EvaluationEpochsAreExcludedFromTheContract) {
  Rng rng(14);
  const Dataset ds = make_dataset(steady_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 2;
  TrainOptions opts;
  opts.method = Method::kVanilla;
  opts.epochs = 2;
  opts.eval_every_epoch = true;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  trainer.train_epoch();
  trainer.train_epoch();
  EXPECT_FALSE(trainer.last_alloc_report().steady_state);
}

/// Metrics capture must not weaken the contract: with ADAQP_METRICS active
/// (capture storage dimensioned up front in run(), every later write landing
/// in pre-allocated rows), warm epochs still allocate nothing — and the
/// capture itself records that fact per epoch.
TEST(SteadyState, MetricsCaptureKeepsWarmEpochsAllocationFree) {
  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "loopback");
    transport::ScopedTransport wire(steady_wire(tcp));
    Rng rng(15);
    const Dataset ds = make_dataset(steady_spec(), rng);
    Rng prng(4242);
    const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
    const DistGraph dist = build_dist_graph(ds.graph, part);
    const ClusterSpec cluster = ClusterSpec::machines(2, 2);
    AsyncModeGuard async_guard(true);
    ThreadCountGuard thread_guard(4);
    ModelConfig mc;
    mc.aggregator = Aggregator::kGcn;
    mc.in_dim = ds.spec.feature_dim;
    mc.hidden_dim = 16;
    mc.out_dim = ds.num_classes();
    mc.num_layers = 3;
    mc.dropout = 0.3f;
    TrainOptions opts;
    opts.method = Method::kAdaQP;
    opts.epochs = 5;
    opts.seed = 7;
    opts.reassign_period = 1 << 20;  // refresh only at epoch 0
    opts.eval_every_epoch = false;   // steady-state contract requirement
    DistTrainer trainer(ds, dist, cluster, mc, opts);

    const std::string path =
        ::testing::TempDir() + "adaqp_steady_metrics.json";
    {
      obs::MetricsGuard guard(path);
      trainer.run();
    }

    const obs::RunCapture& cap = trainer.run_capture();
    ASSERT_TRUE(cap.enabled());
    ASSERT_EQ(cap.captured_epochs(), opts.epochs);
    const bool contract_active = !analysis::racecheck_enabled();
    for (int e = 1; e < opts.epochs; ++e) {
      const obs::EpochRow& row = cap.row_at(e);
      if (!contract_active) {
        EXPECT_FALSE(row.steady_state);
        continue;
      }
      EXPECT_TRUE(row.steady_state)
          << "epoch " << e << " lost steady state under metrics capture";
      EXPECT_EQ(row.allocs_forward + row.allocs_backward +
                    row.allocs_optimizer + row.allocs_refresh +
                    row.allocs_evaluation,
                0u)
          << "epoch " << e << " allocated while metrics capture was active:"
          << " forward=" << row.allocs_forward
          << " backward=" << row.allocs_backward
          << " optimizer=" << row.allocs_optimizer
          << " refresh=" << row.allocs_refresh
          << " evaluation=" << row.allocs_evaluation;
    }
    // The shutdown export still ran.
    std::ifstream report(path);
    EXPECT_TRUE(report.good());
  }
}

}  // namespace
}  // namespace adaqp
