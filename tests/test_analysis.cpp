// The determinism analysis suite: check_stage_dag's happens-before model
// (ordering, transitivity, read/write conflict classification), the strict
// ADAQP_RACECHECK / common/env.h parsers, the StageGraph integration — an
// injected undeclared race must be reported and a declared-and-ordered
// graph must pass — and the headline guarantee: every method's real
// forward/backward schedules are racecheck-clean at 1/4/8 threads with the
// async pipeline on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/race_checker.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "quant/message_codec.h"
#include "runtime/thread_pool.h"
#include "tensor/matrix.h"

namespace adaqp {
namespace {

using analysis::AccessList;
using analysis::BufferAccess;
using analysis::RacecheckGuard;
using analysis::RaceCheckRegistry;
using analysis::RaceReport;
using analysis::StageAccessRecord;
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

// ---- check_stage_dag: the happens-before model ----------------------------

float buf_a[64];
float buf_b[64];

StageAccessRecord stage(std::string name, std::vector<int> deps,
                        AccessList acc) {
  return {std::move(name), std::move(deps), std::move(acc)};
}

TEST(RaceChecker, UnorderedWriteWriteConflictIsReported) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("w1", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("w2", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")})},
      "test");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].stage_a_name, "w1");
  EXPECT_EQ(report.findings[0].stage_b_name, "w2");
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.summary().find("unordered conflict"), std::string::npos);
}

TEST(RaceChecker, UnorderedReadWriteConflictIsReported) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("r", {}, {analysis::read_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("w", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")})},
      "test");
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(RaceChecker, ReadReadOverlapIsNotAConflict) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("r1", {}, {analysis::read_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("r2", {}, {analysis::read_of(buf_a, sizeof(buf_a), "buf_a")})},
      "test");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.pairs_checked, 1u);
}

TEST(RaceChecker, DisjointWritesAreNotAConflict) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("w1", {}, {analysis::write_of(buf_a, 32, "buf_a.lo")}),
       stage("w2", {},
             {analysis::write_of(buf_a + 8, 32, "buf_a.hi")})},
      "test");
  EXPECT_TRUE(report.clean());
}

TEST(RaceChecker, DeclaredDependencyOrdersTheConflict) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("w1", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("w2", {0}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")})},
      "test");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.pairs_checked, 0u);
}

TEST(RaceChecker, TransitiveOrderingIsHonored) {
  // a -> b -> c: a and c conflict but are ordered through b, which itself
  // declares nothing (opaque stages still carry happens-before edges).
  const RaceReport report = analysis::check_stage_dag(
      {stage("a", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("b", {0}, {}),
       stage("c", {1}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")})},
      "test");
  EXPECT_TRUE(report.clean());
}

TEST(RaceChecker, SiblingsOfACommonParentStillConflict) {
  // a -> b, a -> c: b and c are unordered with respect to each other.
  const RaceReport report = analysis::check_stage_dag(
      {stage("a", {}, {}),
       stage("b", {0}, {analysis::write_of(buf_b, sizeof(buf_b), "buf_b")}),
       stage("c", {0}, {analysis::write_of(buf_b, sizeof(buf_b), "buf_b")})},
      "test");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].stage_a_name, "b");
  EXPECT_EQ(report.findings[0].stage_b_name, "c");
}

TEST(RaceChecker, UnannotatedStagesAreOpaqueAndSkipped) {
  const RaceReport report = analysis::check_stage_dag(
      {stage("w", {}, {analysis::write_of(buf_a, sizeof(buf_a), "buf_a")}),
       stage("opaque", {}, {})},
      "test");
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.annotated_stages, 1u);
  EXPECT_EQ(report.num_stages, 2u);
}

TEST(RaceChecker, RowSetCompressesConsecutiveRuns) {
  AccessList acc;
  const std::uint32_t rows[] = {2, 3, 4, 9, 12, 13};
  analysis::append_row_set(acc, buf_a, 16, rows, 6,
                           BufferAccess::Mode::kWrite, "rows");
  ASSERT_EQ(acc.size(), 3u);  // [2,5), [9,10), [12,14)
  const auto base = reinterpret_cast<std::uintptr_t>(buf_a);
  EXPECT_EQ(acc[0].begin, base + 2 * 16);
  EXPECT_EQ(acc[0].end, base + 5 * 16);
  EXPECT_EQ(acc[1].begin, base + 9 * 16);
  EXPECT_EQ(acc[2].end, base + 14 * 16);
}

TEST(RaceChecker, ForwardReferencingDependencyThrows) {
  EXPECT_THROW(analysis::check_stage_dag({stage("bad", {3}, {})}, "test"),
               std::invalid_argument);
}

// ---- ADAQP_RACECHECK configuration ----------------------------------------

TEST(RaceCheckConfig, StrictParsingAndGuard) {
  analysis::set_racecheck_override(-1);
  unsetenv("ADAQP_RACECHECK");
  EXPECT_FALSE(analysis::racecheck_enabled());  // default: off
  setenv("ADAQP_RACECHECK", "1", 1);
  EXPECT_TRUE(analysis::racecheck_enabled());
  setenv("ADAQP_RACECHECK", "on", 1);
  EXPECT_THROW(analysis::racecheck_enabled(), std::runtime_error);
  unsetenv("ADAQP_RACECHECK");
  {
    RacecheckGuard guard(true);
    EXPECT_TRUE(analysis::racecheck_enabled());
    {
      RacecheckGuard inner(false);
      EXPECT_FALSE(analysis::racecheck_enabled());
    }
    EXPECT_TRUE(analysis::racecheck_enabled());
  }
  EXPECT_FALSE(analysis::racecheck_enabled());
}

// ---- Strict env helpers (common/env.h) ------------------------------------

TEST(EnvHelpers, Flag01RejectsEverythingButZeroAndOne) {
  unsetenv("ADAQP_TEST_FLAG");
  EXPECT_TRUE(env::flag01("ADAQP_TEST_FLAG", true));
  EXPECT_FALSE(env::flag01("ADAQP_TEST_FLAG", false));
  setenv("ADAQP_TEST_FLAG", "0", 1);
  EXPECT_FALSE(env::flag01("ADAQP_TEST_FLAG", true));
  setenv("ADAQP_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env::flag01("ADAQP_TEST_FLAG", false));
  for (const char* bad : {"2", "yes", "true", " 1", "1 "}) {
    setenv("ADAQP_TEST_FLAG", bad, 1);
    EXPECT_THROW(env::flag01("ADAQP_TEST_FLAG", false), std::runtime_error)
        << "value \"" << bad << "\"";
  }
  // Empty means unset (the `VAR= cmd` shell convention), not malformed.
  setenv("ADAQP_TEST_FLAG", "", 1);
  EXPECT_TRUE(env::flag01("ADAQP_TEST_FLAG", true));
  unsetenv("ADAQP_TEST_FLAG");
}

TEST(EnvHelpers, IntInRangeStrictParseAndClamp) {
  unsetenv("ADAQP_TEST_INT");
  EXPECT_FALSE(env::int_in_range("ADAQP_TEST_INT", 1, 256).has_value());
  setenv("ADAQP_TEST_INT", "8", 1);
  EXPECT_EQ(env::int_in_range("ADAQP_TEST_INT", 1, 256), 8);
  setenv("ADAQP_TEST_INT", "1000", 1);
  EXPECT_EQ(env::int_in_range("ADAQP_TEST_INT", 1, 256), 256);  // clamped
  setenv("ADAQP_TEST_INT", "0", 1);
  EXPECT_EQ(env::int_in_range("ADAQP_TEST_INT", 1, 256), 1);  // clamped
  for (const char* bad : {"abc", "4x", "4 4", "0x10"}) {
    setenv("ADAQP_TEST_INT", bad, 1);
    EXPECT_THROW(env::int_in_range("ADAQP_TEST_INT", 1, 256),
                 std::runtime_error)
        << "value \"" << bad << "\"";
  }
  // Empty means unset (the `VAR= cmd` shell convention), not malformed.
  setenv("ADAQP_TEST_INT", "", 1);
  EXPECT_FALSE(env::int_in_range("ADAQP_TEST_INT", 1, 256).has_value());
  unsetenv("ADAQP_TEST_INT");
}

TEST(EnvHelpers, ConfiguredThreadsRejectsMalformedValues) {
  // The PR-1 parser silently fell back on garbage; the strict contract in
  // docs/ENVVARS.md now throws (pinned here so it cannot regress).
  setenv("ADAQP_THREADS", "fast", 1);
  EXPECT_THROW(configured_threads(), std::runtime_error);
  setenv("ADAQP_THREADS", "4", 1);
  EXPECT_EQ(configured_threads(), 4);
  unsetenv("ADAQP_THREADS");
  EXPECT_GE(configured_threads(), 1);
}

// ---- StageGraph integration -----------------------------------------------

TEST(RaceCheckStageGraph, InjectedUndeclaredRaceIsDetected) {
  // Two stages write the same buffer with no dependency between them — the
  // canonical undeclared race. The checker must refuse to run the graph
  // (launch-time check: the race never executes) in both modes.
  RaceCheckRegistry::instance().reset();
  RacecheckGuard guard(true);
  for (const bool async : {false, true}) {
    StageGraph g;
    g.set_label(async ? "injected-async" : "injected-serial");
    std::vector<float> shared(32, 0.0f);
    g.add(
        "writer-1", [&shared] { shared[0] = 1.0f; }, {},
        {analysis::write_of(shared.data(), shared.size() * sizeof(float),
                            "shared")});
    g.add(
        "writer-2", [&shared] { shared[1] = 2.0f; }, {},
        {analysis::write_of(shared.data(), shared.size() * sizeof(float),
                            "shared")});
    try {
      g.run(async);
      FAIL() << "undeclared race was not reported (async=" << async << ")";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("writer-1"), std::string::npos) << what;
      EXPECT_NE(what.find("writer-2"), std::string::npos) << what;
      EXPECT_NE(what.find("shared"), std::string::npos) << what;
    }
    // Launch-time enforcement: neither stage ran.
    EXPECT_EQ(shared[0], 0.0f);
    EXPECT_EQ(shared[1], 0.0f);
  }
  EXPECT_EQ(RaceCheckRegistry::instance().total_findings(), 2u);
}

TEST(RaceCheckStageGraph, DeclaredDependencyMakesTheSameGraphClean) {
  RaceCheckRegistry::instance().reset();
  RacecheckGuard guard(true);
  StageGraph g;
  std::vector<float> shared(32, 0.0f);
  const int w1 = g.add(
      "writer-1", [&shared] { shared[0] = 1.0f; }, {},
      {analysis::write_of(shared.data(), shared.size() * sizeof(float),
                          "shared")});
  g.add(
      "writer-2", [&shared] { shared[1] = 2.0f; }, {w1},
      {analysis::write_of(shared.data(), shared.size() * sizeof(float),
                          "shared")});
  g.run(/*async=*/true);
  EXPECT_EQ(shared[0], 1.0f);
  EXPECT_EQ(shared[1], 2.0f);
  EXPECT_EQ(RaceCheckRegistry::instance().total_findings(), 0u);
  EXPECT_EQ(RaceCheckRegistry::instance().graphs_checked(), 1u);
}

TEST(RaceCheckStageGraph, DisabledCheckerDoesNotInterfere) {
  RacecheckGuard guard(false);
  StageGraph g;
  std::vector<float> shared(4, 0.0f);
  // Undeclared conflict, but the checker is off — the graph runs (this is
  // the production default; annotations are inert).
  g.add("w1", [&shared] { shared[0] = 1.0f; }, {},
        {analysis::write_of(shared.data(), 4, "shared")});
  g.add("w2", [&shared] { shared[0] = 2.0f; }, {0},
        {analysis::write_of(shared.data(), 4, "shared")});
  g.run(/*async=*/false);
  EXPECT_EQ(shared[0], 2.0f);
}

TEST(RaceCheckRegistryTest, ViolationReportIsChromeTraceJson) {
  RaceCheckRegistry::instance().reset();
  RacecheckGuard guard(true);
  StageGraph g;
  g.set_label("report-test");
  float shared = 0.0f;
  g.add("rep-w1", [] {}, {},
        {analysis::write_of(&shared, sizeof(shared), "shared-scalar")});
  g.add("rep-w2", [] {}, {},
        {analysis::write_of(&shared, sizeof(shared), "shared-scalar")});
  EXPECT_THROW(g.run(false), std::runtime_error);

  const std::string path = ::testing::TempDir() + "adaqp_racecheck_test.json";
  ASSERT_TRUE(RaceCheckRegistry::instance().write_report_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("rep-w1"), std::string::npos);
  EXPECT_NE(json.find("rep-w2"), std::string::npos);
  EXPECT_NE(json.find("shared-scalar"), std::string::npos);
  EXPECT_NE(json.find("\"racecheckSummary\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- Real schedules: every method, clean at 1/4/8 threads -----------------

DatasetSpec analysis_spec() {
  DatasetSpec spec;
  spec.name = "analysis_tiny";
  spec.num_nodes = 300;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.multi_label = false;
  spec.intra_prob = 0.8;
  return spec;
}

class RealSchedulesRacecheckClean : public ::testing::TestWithParam<Method> {};

TEST_P(RealSchedulesRacecheckClean, AllThreadCountsAsyncOnAndOff) {
  const Method method = GetParam();
  Rng rng(314);
  const Dataset ds = make_dataset(analysis_spec(), rng);
  Rng part_rng(27);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);

  RacecheckGuard racecheck(true);
  for (const int threads : {1, 4, 8}) {
    for (const bool async : {true, false}) {
      RaceCheckRegistry::instance().reset();
      ThreadCountGuard guard(threads);
      AsyncModeGuard mode(async);
      ModelConfig mc;
      mc.aggregator = Aggregator::kGcn;
      mc.in_dim = ds.spec.feature_dim;
      mc.hidden_dim = 16;
      mc.out_dim = ds.spec.num_classes;
      mc.num_layers = 3;
      mc.dropout = 0.5f;
      TrainOptions opts;
      opts.method = method;
      opts.epochs = 3;
      opts.seed = 99;
      opts.reassign_period = 2;
      opts.eval_every_epoch = false;
      DistTrainer trainer(ds, dist, cluster, mc, opts);
      trainer.run();
      EXPECT_EQ(RaceCheckRegistry::instance().total_findings(), 0u)
          << method_name(method) << " threads=" << threads
          << " async=" << async;
      // The exchange wrappers and fused layer graphs are annotated in every
      // mode; make sure the checker actually saw them rather than vacuously
      // passing. SANCUS is the one method with no stage graphs at all — its
      // broadcast-skipping exchange is deliberately serial (trainer.cpp).
      if (method != Method::kSancus) {
        EXPECT_GT(RaceCheckRegistry::instance().graphs_checked(), 0u)
            << method_name(method) << " threads=" << threads
            << " async=" << async;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, RealSchedulesRacecheckClean,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

// Sanitizer regression pins (docs/ANALYSIS.md). These lock in properties
// the sanitizer matrix depends on: they pass today, and exist so the UBSan
// CI job fails loudly if the underlying discipline regresses.

// The wire format itself forces misaligned float access: 12 header bytes
// plus a 1-byte width tag put every per-row (zero-point, scale) pair — and,
// for 32-bit rows, the raw float payload — at offset ≡ 1 (mod 4). The codec
// stays UB-free only because every wire read/write goes through memcpy or
// unaligned vector loads, never an aligned reinterpret_cast. This test
// decodes rows whose payloads sit at those odd offsets and demands a
// bit-exact 32-bit round trip, so swapping in an aligned load breaks the
// UBSan job (alignment check) rather than working by luck on x86.
TEST(SanitizerRegression, CodecFloatFieldsSitAtOddOffsetsAndRoundTrip) {
  Rng rng(0x5eedULL);
  const std::size_t dim = 7;  // odd dim: payload starts vary mod 4 per row
  Matrix src(3, dim);
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < dim; ++c)
      src.row(r)[c] = static_cast<float>(r * 31 + c) * 0.37f - 2.5f;

  const std::vector<NodeId> rows = {0, 1, 2};
  const std::vector<int> bits = {32, 4, 32};
  const EncodedBlock block = encode_rows(src, rows, bits, rng);

  // Pin the layout property this test exists for: the first row's metadata
  // (and, at 32 bits, its payload) really is misaligned on the wire.
  const std::size_t first_meta_at = 12 + 1;
  ASSERT_NE(first_meta_at % alignof(float), 0u);

  Matrix dst(3, dim);
  decode_rows(block, dst, rows);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_EQ(dst.row(0)[c], src.row(0)[c]);  // 32-bit rows are lossless
    EXPECT_EQ(dst.row(2)[c], src.row(2)[c]);
    EXPECT_NEAR(dst.row(1)[c], src.row(1)[c], 1.0f);  // 4-bit: quantized
  }
}

// Low-width packing shifts bit groups within a byte. With a non-multiple
// dim the final byte of each payload is only partially filled; reading or
// writing past it is heap-buffer-overflow under ASan, and shifting by >= 8
// is UB under UBSan. Sweep every width × a ragged dim range so both stay
// exercised in the sanitizer trees.
TEST(SanitizerRegression, RaggedTailPackingStaysInBounds) {
  Rng rng(0x7a11ULL);
  for (const int width : {2, 4, 8}) {
    for (std::size_t dim = 1; dim <= 9; ++dim) {
      Matrix src(1, dim);
      for (std::size_t c = 0; c < dim; ++c)
        src.row(0)[c] = static_cast<float>(c) - 0.5f * static_cast<float>(dim);
      const std::vector<NodeId> rows = {0};
      const std::vector<int> bits = {width};
      const EncodedBlock block = encode_rows(src, rows, bits, rng);
      ASSERT_EQ(block.wire_bytes(),
                encoded_wire_bytes(1, dim, bits));
      Matrix dst(1, dim);
      decode_rows(block, dst, rows);
      const float levels = static_cast<float>((1u << width) - 1);
      const float span = static_cast<float>(dim - 1);
      for (std::size_t c = 0; c < dim; ++c)
        EXPECT_NEAR(dst.row(0)[c], src.row(0)[c],
                    span / std::max(levels, 1.0f) + 1e-6f);
    }
  }
}

// Pins the TSan finding this suite's first run surfaced: Event::set() used
// to notify_all() after releasing its mutex, so a waiter could observe
// done_, return from StageGraph::wait(), and destroy the graph (and the
// condvar) while the signaling pool worker was still inside the broadcast —
// a destroy-while-broadcast race on every graph teardown. set() now
// notifies under the lock, making "wait() returned => set() finished" part
// of Event's contract. This loop hammers the launch/wait/destroy window so
// the TSan CI job catches the race if the notify ever moves back out.
TEST(SanitizerRegression, GraphDestroyImmediatelyAfterWaitIsRaceFree) {
  ThreadCountGuard threads(4);
  for (int iter = 0; iter < 200; ++iter) {
    StageGraph graph;
    int sink = 0;
    const int a = graph.add("a", [&] { sink += 1; });
    graph.add("b", [&] { sink += 2; }, {a});
    graph.launch();
    graph.wait();  // graph destroyed right here, while workers wind down
    ASSERT_EQ(sink, 3);
  }
}

}  // namespace
}  // namespace adaqp
