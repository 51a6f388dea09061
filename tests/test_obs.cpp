// Observability subsystem (src/obs/, docs/OBSERVABILITY.md): instrument
// semantics, interval arithmetic, JSON escaping (shared with the trace
// writer — regression for quote/backslash/control-character names), the
// JSON report writer, and the two contracts the
// subsystem must never break: metrics-enabled runs are bit-identical to
// metrics-off runs (every method x async mode x thread count), and capture
// adds no steady-state heap allocations (gated in test_memory.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/stopwatch.h"
#include "pipeline/config.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"

namespace adaqp {
namespace {

using pipeline::AsyncModeGuard;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- Instruments ----------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  obs::Gauge g;
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
}

TEST(Metrics, HistogramBucketsAndSum) {
  const double bounds[] = {10.0, 100.0, 1000.0};
  obs::Histogram h{std::span<const double>(bounds)};
  h.record(5.0);     // bucket 0 (<= 10)
  h.record(10.0);    // bucket 0 (inclusive upper bound)
  h.record(50.0);    // bucket 1
  h.record(5000.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.sum(), 5065.0);
}

TEST(Metrics, RegistryIsIdempotentAndTypeChecked) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("test_obs.some_counter");
  obs::Counter& b = reg.counter("test_obs.some_counter");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("test_obs.some_counter"), std::runtime_error);

  a.add(2);
  bool found = false;
  for (const auto& [name, value] : reg.snapshot().counters)
    if (name == "test_obs.some_counter") {
      found = true;
      EXPECT_GE(value, 2u);
    }
  EXPECT_TRUE(found);
}

TEST(Metrics, WidthIndexMapsWireWidths) {
  EXPECT_EQ(obs::width_index(2), 0);
  EXPECT_EQ(obs::width_index(4), 1);
  EXPECT_EQ(obs::width_index(8), 2);
  EXPECT_EQ(obs::width_index(32), 3);
  EXPECT_EQ(obs::width_index(16), 3);  // anything else counts as b32 slot
}

TEST(Metrics, InstrumentsRegisterOnce) {
  const obs::Instruments& a = obs::instruments();
  const obs::Instruments& b = obs::instruments();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a.trainer_epochs,
            &obs::Registry::instance().counter("trainer.epochs"));
}

// ---- Interval arithmetic --------------------------------------------------

TEST(Intervals, UnionMergesOverlapsAndTouches) {
  std::vector<obs::Interval> iv{{0, 100}, {50, 150}, {400, 500}};
  EXPECT_DOUBLE_EQ(obs::interval_union_seconds(iv), 250e-6);
  std::vector<obs::Interval> empty;
  EXPECT_DOUBLE_EQ(obs::interval_union_seconds(empty), 0.0);
}

TEST(Intervals, IntersectionSweepsBothSets) {
  std::vector<obs::Interval> a{{0, 100}, {200, 300}};
  std::vector<obs::Interval> b{{50, 250}};
  EXPECT_DOUBLE_EQ(obs::interval_intersection_seconds(a, b), 100e-6);
  std::vector<obs::Interval> c{{1000, 2000}};
  std::vector<obs::Interval> d{{0, 999}};
  EXPECT_DOUBLE_EQ(obs::interval_intersection_seconds(c, d), 0.0);
}

TEST(Intervals, OverlapAccumEfficiencyIsBoundedByTheSmallerSide) {
  std::vector<obs::Interval> ex{{0, 100}};
  std::vector<obs::Interval> comp{{0, 400}};
  obs::OverlapAccum acc;
  obs::accumulate_overlap(ex, comp, acc);
  EXPECT_DOUBLE_EQ(acc.exchange_busy_s, 100e-6);
  EXPECT_DOUBLE_EQ(acc.compute_busy_s, 400e-6);
  EXPECT_DOUBLE_EQ(acc.overlap_s, 100e-6);
  EXPECT_DOUBLE_EQ(acc.efficiency(), 1.0);  // fully hidden exchange

  obs::OverlapAccum zero;
  EXPECT_DOUBLE_EQ(zero.efficiency(), 0.0);  // no denominator, no NaN
}

// ---- JSON escaping (shared by run report and trace writer) ----------------

TEST(JsonEscape, QuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(obs::json_escaped("plain"), "plain");
  EXPECT_EQ(obs::json_escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escaped("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escaped(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(obs::json_escaped("\b\f\r"), "\\b\\f\\r");
  // Bytes >= 0x20 pass through untouched (UTF-8 stays valid).
  EXPECT_EQ(obs::json_escaped("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Trace, WriteJsonEscapesHostileStageNames) {
  pipeline::TraceRecorder& rec = pipeline::TraceRecorder::instance();
  rec.start();
  const std::string evil = "quote\" back\\slash \x01 new\nline";
  rec.record(evil, "cat\"egory", 1.0, 2.0);
  rec.stop();
  const std::string path = ::testing::TempDir() + "adaqp_trace_escape.json";
  ASSERT_TRUE(rec.write_json(path));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("quote\\\" back\\\\slash \\u0001 new\\nline"),
            std::string::npos);
  EXPECT_NE(body.find("cat\\\"egory"), std::string::npos);
  // The raw control byte must not leak into the JSON.
  EXPECT_EQ(body.find('\x01'), std::string::npos);
}

TEST(Trace, RepeatedNamesAreInternedNotCopied) {
  pipeline::TraceRecorder& rec = pipeline::TraceRecorder::instance();
  rec.start();
  rec.record("stage/a", "pipeline", 0.0, 1.0);
  rec.record("stage/a", "pipeline", 2.0, 1.0);
  rec.record("stage/b", "pipeline", 4.0, 1.0);
  rec.stop();
  const std::vector<pipeline::TraceEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, evs[1].name);      // same interned pointer
  EXPECT_EQ(evs[0].category, evs[2].category);
  EXPECT_NE(evs[0].name, evs[2].name);
  EXPECT_EQ(*evs[2].name, "stage/b");
}

// ---- Report writers -------------------------------------------------------

obs::ReportMeta sample_meta() {
  obs::ReportMeta meta;
  meta.method = "AdaQP";
  meta.model = "gcn-16";
  meta.dataset = "unit\"test";  // exercises meta escaping
  meta.partition = "2M-2D";
  meta.devices = 2;
  meta.layers = 3;
  meta.threads = 4;
  meta.async = true;
  meta.epochs_requested = 2;
  meta.sim_train_seconds = 1.5;
  meta.assign_seconds = 0.25;
  meta.total_comm_bytes = 12345;
  return meta;
}

obs::RunCapture sample_capture() {
  obs::RunCapture cap;
  cap.init(/*max_epochs=*/2, /*devices=*/2);
  for (int e = 0; e < 2; ++e) {
    obs::EpochRow* row = cap.row(e);
    row->epoch = e;
    row->train_loss = 0.5 - 0.1 * e;
    row->messages = 2;
    row->wire_bytes[3] = 640;
    std::array<std::uint64_t, obs::kNumWidths> widths{};
    widths[3] = 320;
    cap.add_pair(e, 0, 1, widths, 332);
    cap.add_pair(e, 1, 0, widths, 332);
  }
  return cap;
}

TEST(RunReport, JsonCarriesSchemaEpochsAndPairs) {
  const std::string path = ::testing::TempDir() + "adaqp_report_unit.json";
  obs::ReportConfig cfg;
  cfg.enabled = true;
  cfg.path = path;
  ASSERT_TRUE(obs::write_report(sample_capture(), sample_meta(), cfg));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\": \"adaqp-metrics-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"dataset\": \"unit\\\"test\""), std::string::npos);
  EXPECT_NE(body.find("\"wire_bytes\""), std::string::npos);
  EXPECT_NE(body.find("\"b32\": 640"), std::string::npos);
  EXPECT_NE(body.find("\"pairs\""), std::string::npos);
  EXPECT_NE(body.find("\"overlap\""), std::string::npos);
  EXPECT_NE(body.find("\"histograms\""), std::string::npos);
}

TEST(RunReport, CaptureDropsOutOfCapacityEpochsSafely) {
  obs::RunCapture cap;
  EXPECT_EQ(cap.row(0), nullptr);  // disabled until init
  cap.init(1, 2);
  EXPECT_NE(cap.row(0), nullptr);
  EXPECT_EQ(cap.row(1), nullptr);  // beyond capacity: dropped, not grown
  EXPECT_EQ(cap.row(-1), nullptr);
  EXPECT_EQ(cap.captured_epochs(), 1);
}

TEST(RunReport, GuardOverridesAndRestores) {
  const std::string path = ::testing::TempDir() + "adaqp_guard.json";
  {
    obs::MetricsGuard guard(path);
    const obs::ReportConfig cfg = obs::report_config();
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.path, path);
    {
      obs::MetricsGuard off;  // default-constructed: force-disable
      EXPECT_FALSE(obs::report_config().enabled);
    }
    EXPECT_TRUE(obs::report_config().enabled);  // inner guard restored
  }
}

// ---- Trainer integration --------------------------------------------------

DatasetSpec obs_spec() {
  DatasetSpec spec;
  spec.name = "obs_tiny";
  spec.num_nodes = 600;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = false;
  spec.intra_prob = 0.8;
  return spec;
}

struct ObsRun {
  std::vector<double> losses;
  RunResult result;
};

ObsRun run_once(const Dataset& ds, const DistGraph& dist, Method method,
                bool async, int threads, int epochs) {
  AsyncModeGuard async_guard(async);
  ThreadCountGuard thread_guard(threads);
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
  opts.reassign_period = 2;
  opts.eval_every_epoch = false;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  ObsRun out;
  out.result = trainer.run();
  for (const EpochRecord& e : out.result.epochs)
    out.losses.push_back(e.train_loss);
  return out;
}

/// The headline determinism contract: recording metrics must not perturb a
/// single bit of the numerics, for every method x async mode x thread count.
TEST(ObsTrainer, MetricsOnRunsAreBitIdenticalToMetricsOff) {
  Rng rng(21);
  const Dataset ds = make_dataset(obs_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const std::string path = ::testing::TempDir() + "adaqp_obs_matrix.json";

  for (Method method : {Method::kVanilla, Method::kAdaQP,
                        Method::kAdaQPUniform, Method::kPipeGCN,
                        Method::kSancus}) {
    for (const bool async : {true, false}) {
      for (const int threads : {1, 4}) {
        std::vector<double> off;
        {
          obs::MetricsGuard disable;  // insulate from ambient ADAQP_METRICS
          off = run_once(ds, dist, method, async, threads, 3).losses;
        }
        std::vector<double> on;
        {
          obs::MetricsGuard enable(path);
          on = run_once(ds, dist, method, async, threads, 3).losses;
        }
        ASSERT_EQ(off.size(), on.size());
        for (std::size_t e = 0; e < off.size(); ++e)
          EXPECT_EQ(off[e], on[e])
              << method_name(method) << " async=" << async
              << " threads=" << threads
              << ": metrics capture perturbed epoch " << e;
      }
    }
  }
}

TEST(ObsTrainer, RunWritesSchemaValidReportWithTrafficAndOverlap) {
  Rng rng(22);
  const Dataset ds = make_dataset(obs_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const std::string path = ::testing::TempDir() + "adaqp_obs_report.json";

  AsyncModeGuard async_guard(true);
  ThreadCountGuard thread_guard(4);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  TrainOptions opts;
  opts.method = Method::kAdaQP;
  opts.epochs = 4;
  opts.seed = 7;
  opts.reassign_period = 2;
  opts.eval_every_epoch = true;
  DistTrainer trainer(ds, dist, cluster, mc, opts);

  const std::uint64_t msgs_before =
      obs::instruments().exchange_messages.value();
  RunResult result;
  {
    obs::MetricsGuard guard(path);
    result = trainer.run();
  }

  // Capture rows: every epoch recorded, traffic quantized after epoch 0.
  const obs::RunCapture& cap = trainer.run_capture();
  ASSERT_TRUE(cap.enabled());
  ASSERT_EQ(cap.captured_epochs(), 4);
  for (int e = 0; e < 4; ++e) {
    const obs::EpochRow& row = cap.row_at(e);
    EXPECT_EQ(row.epoch, e);
    EXPECT_EQ(row.train_loss, result.epochs[e].train_loss);
    EXPECT_GT(row.messages, 0u);
    EXPECT_GE(row.wall.total(), 0.0);
    std::uint64_t row_bytes = 0;
    for (int w = 0; w < obs::kNumWidths; ++w) row_bytes += row.wire_bytes[w];
    EXPECT_GT(row_bytes, 0u);
    // Per-pair ledgers sum to the row's by-width totals.
    std::uint64_t pair_bytes = 0;
    std::uint64_t pair_msgs = 0;
    for (int s = 0; s < cap.devices(); ++s)
      for (int d = 0; d < cap.devices(); ++d) {
        pair_msgs += cap.pair_messages(e, s, d);
        for (int w = 0; w < obs::kNumWidths; ++w)
          pair_bytes += cap.pair_width_bytes(e, s, d, w);
      }
    EXPECT_EQ(pair_bytes, row_bytes);
    EXPECT_EQ(pair_msgs, row.messages);
    // Epoch 0 runs the uniform 32-bit warmup; later epochs are quantized.
    if (e == 0) {
      EXPECT_EQ(row.wire_bytes[0] + row.wire_bytes[1] + row.wire_bytes[2], 0u);
    } else {
      EXPECT_GT(row.wire_bytes[0] + row.wire_bytes[1] + row.wire_bytes[2], 0u)
          << "no sub-32-bit traffic in quantized epoch " << e;
    }
    // Overlap accumulators are populated (busy time measured) and sane.
    EXPECT_GT(row.fwd_overlap.compute_busy_s, 0.0);
    EXPECT_GE(row.fwd_overlap.efficiency(), 0.0);
    EXPECT_LE(row.fwd_overlap.efficiency(), 1.0);
    EXPECT_GT(row.bwd_overlap.compute_busy_s, 0.0);
    EXPECT_LE(row.bwd_overlap.efficiency(), 1.0);
  }

  // Global instruments observed the run.
  EXPECT_GT(obs::instruments().exchange_messages.value(), msgs_before);

  // Written report is schema-shaped (tools/metrics_schema_check validates
  // the full grammar in CI; spot-check the load-bearing fields here).
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\": \"adaqp-metrics-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"epochs_captured\": 4"), std::string::npos);
  EXPECT_NE(body.find("\"by_width\""), std::string::npos);
  EXPECT_NE(body.find("\"efficiency\""), std::string::npos);
  EXPECT_NE(body.find("\"steady_state\""), std::string::npos);
}

TEST(ObsTrainer, WallAndModelTimingsAreReportedSideBySide) {
  Rng rng(23);
  const Dataset ds = make_dataset(obs_spec(), rng);
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
  opts.epochs = 1;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  const EpochRecord rec = trainer.train_epoch();
  const obs::PhaseWall& wall = trainer.last_wall_report();
  // Measured phases always stamp, metrics enabled or not, and both time
  // axes exist for the same epoch.
  EXPECT_GT(wall.forward_s, 0.0);
  EXPECT_GT(wall.backward_s, 0.0);
  EXPECT_GT(wall.evaluation_s, 0.0);  // eval_every_epoch defaults true
  EXPECT_GT(wall.total(), 0.0);
  EXPECT_GT(rec.time.total, 0.0);  // model seconds, same phases
}

/// exchange.submit_to_join_us (read by the e2e bench as
/// pipeline.submit_to_join_ms_mean) counts deferred joins only: PipeGCN's
/// cold epoch launches its backward exchanges but no forward one, so epoch
/// 1 joins 2 backward rounds and every later epoch joins 3 forward + 2
/// backward rounds of a 3-layer model. Layer graphs that run and join in
/// place (AdaQP) never record.
TEST(ObsTrainer, JoinLatencyHistogramCountsDeferredJoinsOnly) {
  Rng rng(24);
  const Dataset ds = make_dataset(obs_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  const obs::Histogram& joins = obs::instruments().exchange_submit_to_join_us;

  const auto growth_per_epoch = [&](Method method, int epochs) {
    TrainOptions opts;
    opts.method = method;
    opts.epochs = epochs;
    opts.eval_every_epoch = false;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    std::vector<std::uint64_t> growth;
    for (int e = 0; e < epochs; ++e) {
      const std::uint64_t before = joins.count();
      trainer.train_epoch();
      growth.push_back(joins.count() - before);
    }
    return growth;
  };

  EXPECT_EQ(growth_per_epoch(Method::kPipeGCN, 5),
            (std::vector<std::uint64_t>{0, 2, 5, 5, 5}));
  EXPECT_EQ(growth_per_epoch(Method::kAdaQP, 4),
            (std::vector<std::uint64_t>{0, 0, 0, 0}));
}

}  // namespace
}  // namespace adaqp
