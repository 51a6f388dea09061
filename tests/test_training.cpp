// End-to-end training behaviour: convergence, method comparisons, timing
// accounting. These are the integration tests over the whole stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "pipeline/config.h"
#include "runtime/thread_pool.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

DatasetSpec small_spec(bool multi_label = false) {
  DatasetSpec spec;
  spec.name = multi_label ? "small_multi" : "small_single";
  spec.num_nodes = 900;
  spec.avg_degree = 10.0;
  spec.feature_dim = 16;
  spec.num_classes = 6;
  spec.multi_label = multi_label;
  spec.intra_prob = 0.8;
  return spec;
}

RunResult train(const Dataset& ds, Method method, Aggregator agg, int epochs,
                int devices = 4, float dropout = 0.3f,
                std::uint64_t seed = 21) {
  Rng rng(4242);
  const auto part =
      MultilevelPartitioner().partition(ds.graph, devices, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, devices / 2);
  ModelConfig mc;
  mc.aggregator = agg;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 24;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = dropout;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = seed;
  opts.reassign_period = 10;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  return trainer.run();
}

class ConvergenceTest : public ::testing::TestWithParam<Aggregator> {};

TEST_P(ConvergenceTest, VanillaLearnsTheSbmTask) {
  Rng rng(1);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kVanilla, GetParam(), 40);
  EXPECT_GT(r.final_val_acc, 0.80) << "model failed to learn";
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss * 0.5)
      << "loss did not decrease";
}

TEST_P(ConvergenceTest, AdaQPMatchesVanillaAccuracy) {
  // Paper Table 4: AdaQP accuracy within a few tenths of a percent of
  // Vanilla. At our scale we allow a slightly wider band.
  Rng rng(2);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, GetParam(), 40);
  const RunResult adaqp = train(ds, Method::kAdaQP, GetParam(), 40);
  EXPECT_NEAR(adaqp.final_val_acc, vanilla.final_val_acc, 0.035);
}

TEST_P(ConvergenceTest, AdaQPFasterThanVanilla) {
  Rng rng(3);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, GetParam(), 15);
  const RunResult adaqp = train(ds, Method::kAdaQP, GetParam(), 15);
  EXPECT_GT(adaqp.throughput, vanilla.throughput * 1.2)
      << "AdaQP should beat Vanilla's simulated throughput";
  EXPECT_LT(adaqp.total_comm_bytes, vanilla.total_comm_bytes / 2)
      << "quantization should at least halve traffic";
}

INSTANTIATE_TEST_SUITE_P(Models, ConvergenceTest,
                         ::testing::Values(Aggregator::kGcn,
                                           Aggregator::kSageMean));

TEST(MultiLabelTraining, LearnsAndReportsMicroF1) {
  Rng rng(4);
  const Dataset ds = make_dataset(small_spec(/*multi_label=*/true), rng);
  const RunResult r = train(ds, Method::kVanilla, Aggregator::kGcn, 40);
  EXPECT_GT(r.final_val_acc, 0.5);  // micro-F1 on the synthetic task
}

TEST(StalenessBaselines, RunAndStayFinite) {
  Rng rng(5);
  const Dataset ds = make_dataset(small_spec(), rng);
  for (Method m : {Method::kPipeGCN, Method::kSancus}) {
    const RunResult r = train(ds, m, Aggregator::kGcn, 25);
    for (const auto& e : r.epochs)
      ASSERT_TRUE(std::isfinite(e.train_loss)) << method_name(m);
    EXPECT_GT(r.final_val_acc, 0.4) << method_name(m);
  }
}

TEST(StalenessBaselines, PipeGcnHidesCommunication) {
  // PipeGCN overlaps communication with computation, so its epoch must be
  // shorter than Vanilla's comm+comp sum.
  Rng rng(6);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 12);
  const RunResult pipe = train(ds, Method::kPipeGCN, Aggregator::kGcn, 12);
  EXPECT_LT(pipe.avg_epoch_seconds, vanilla.avg_epoch_seconds);
}

TEST(StalenessBaselines, SancusSkipsBroadcasts) {
  // With broadcast skipping, SANCUS must move fewer bytes than Vanilla.
  Rng rng(7);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 20);
  const RunResult sancus = train(ds, Method::kSancus, Aggregator::kGcn, 20);
  EXPECT_LT(sancus.total_comm_bytes, vanilla.total_comm_bytes);
}

TEST(UniformQuantBaseline, RunsWithRandomWidths) {
  Rng rng(8);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kAdaQPUniform, Aggregator::kGcn, 25);
  EXPECT_GT(r.final_val_acc, 0.6);
  EXPECT_EQ(r.assign_seconds, 0.0);  // no solver in the uniform scheme
}

TEST(Timing, BreakdownComponentsArePopulated) {
  Rng rng(9);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult vanilla = train(ds, Method::kVanilla, Aggregator::kGcn, 5);
  EXPECT_GT(vanilla.avg_breakdown.comm, 0.0);
  EXPECT_GT(vanilla.avg_breakdown.comp, 0.0);
  EXPECT_EQ(vanilla.avg_breakdown.quant, 0.0);
  EXPECT_GE(vanilla.avg_breakdown.total,
            vanilla.avg_breakdown.comm);  // no overlap in Vanilla

  const RunResult adaqp = train(ds, Method::kAdaQP, Aggregator::kGcn, 5);
  EXPECT_GT(adaqp.avg_breakdown.quant, 0.0);
  EXPECT_GT(adaqp.assign_seconds, 0.0);
  EXPECT_DOUBLE_EQ(adaqp.wall_clock_seconds,
                   adaqp.train_seconds + adaqp.assign_seconds);
}

TEST(Timing, CommCostFractionInPaperRegime) {
  // Table 1's premise: communication dominates vanilla full-graph training.
  Rng rng(10);
  const Dataset ds = make_dataset(small_spec(), rng);
  const RunResult r = train(ds, Method::kVanilla, Aggregator::kGcn, 5);
  const double frac = r.avg_breakdown.comm / r.avg_epoch_seconds;
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.95);
}

TEST(Trainer, PairBytesMatrixExposed) {
  Rng rng(11);
  const Dataset ds = make_dataset(small_spec(), rng);
  Rng prng(12);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  TrainOptions opts;
  opts.method = Method::kVanilla;
  opts.epochs = 1;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  trainer.train_epoch();
  const auto& bytes = trainer.last_layer1_pair_bytes();
  ASSERT_EQ(bytes.size(), 4u);
  std::size_t total = 0;
  for (const auto& row : bytes)
    for (std::size_t b : row) total += b;
  EXPECT_GT(total, 0u);
}

TEST(Trainer, MethodNames) {
  EXPECT_EQ(method_name(Method::kVanilla), "Vanilla");
  EXPECT_EQ(method_name(Method::kAdaQP), "AdaQP");
  EXPECT_EQ(method_name(Method::kAdaQPUniform), "AdaQP-Uniform");
  EXPECT_EQ(method_name(Method::kPipeGCN), "PipeGCN-like");
  EXPECT_EQ(method_name(Method::kSancus), "SANCUS-like");
}

TEST(Trainer, SingleDeviceDegenerateCase) {
  Rng rng(13);
  DatasetSpec spec = small_spec();
  spec.num_nodes = 250;
  const Dataset ds = make_dataset(spec, rng);
  PartitionResult part;
  part.num_parts = 1;
  part.part_of.assign(ds.num_nodes(), 0);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(1, 1);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  TrainOptions opts;
  opts.method = Method::kAdaQP;  // no peers: must degrade gracefully
  opts.epochs = 3;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  const RunResult r = trainer.run();
  EXPECT_EQ(r.total_comm_bytes, 0u);
  for (const auto& e : r.epochs) EXPECT_TRUE(std::isfinite(e.train_loss));
}

// ---- Pinned numerics --------------------------------------------------------
//
// Reference bit patterns of the five methods' runs (4 devices, 6 epochs,
// dropout on, a plan refresh every 3 epochs), plus Vanilla on one device and
// with SAGE-mean: per-epoch loss/val/test, total wire bytes and the modeled
// mean epoch time. A change to the execution path
// must reproduce them exactly; the CI passes at ADAQP_THREADS=1/4 and
// ADAQP_ISA=scalar check them across schedules and kernel ISAs.

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct PinnedRun {
  std::vector<std::uint64_t> epochs;  ///< loss, val, test bits per epoch
  std::size_t total_comm_bytes = 0;
  std::uint64_t avg_epoch_seconds = 0;
};

RunResult pin_train(const Dataset& ds, Method method, double drift = 0.30,
                    int devices = 4, Aggregator agg = Aggregator::kGcn,
                    bool eval_every_epoch = true) {
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, devices, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = devices > 1
                                  ? ClusterSpec::machines(2, devices / 2)
                                  : ClusterSpec::machines(1, 1);
  ModelConfig mc;
  mc.aggregator = agg;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = 6;
  opts.seed = 31;
  opts.reassign_period = 3;
  opts.sancus_drift_threshold = drift;
  opts.eval_every_epoch = eval_every_epoch;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  return trainer.run();
}

PinnedRun pin_of(const RunResult& r) {
  PinnedRun out;
  for (const EpochRecord& e : r.epochs) {
    out.epochs.push_back(bits_of(e.train_loss));
    out.epochs.push_back(bits_of(e.val_acc));
    out.epochs.push_back(bits_of(e.test_acc));
  }
  out.total_comm_bytes = r.total_comm_bytes;
  out.avg_epoch_seconds = bits_of(r.avg_epoch_seconds);
  return out;
}

Dataset pin_dataset() {
  Rng rng(17);
  DatasetSpec spec = small_spec();
  spec.num_nodes = 400;
  return make_dataset(spec, rng);
}

void expect_pinned(const RunResult& run, const PinnedRun& want,
                   const std::string& label) {
  const PinnedRun got = pin_of(run);
  ASSERT_EQ(got.epochs.size(), want.epochs.size()) << label;
  for (std::size_t i = 0; i < want.epochs.size(); ++i)
    EXPECT_EQ(got.epochs[i], want.epochs[i])
        << label << " epoch " << i / 3 << " field " << i % 3
        << " (loss, val, test)";
  EXPECT_EQ(got.total_comm_bytes, want.total_comm_bytes) << label;
  EXPECT_EQ(got.avg_epoch_seconds, want.avg_epoch_seconds) << label;
}

void expect_pinned(Method method, const PinnedRun& want) {
  const Dataset ds = pin_dataset();
  expect_pinned(pin_train(ds, method), want, method_name(method));
}

TEST(PinnedNumerics, Vanilla) {
  expect_pinned(Method::kVanilla,
                {{0x3ffd46631a7c5e52ull, 0x3fce666666666666ull,
                  0x3fd4cccccccccccdull, 0x3ffb43ceffa48a29ull,
                  0x3fd8000000000000ull, 0x3fd8cccccccccccdull,
                  0x3ffa6ea526429e09ull, 0x3fe0000000000000ull,
                  0x3fe0cccccccccccdull, 0x3ff951855fd0734bull,
                  0x3fe2000000000000ull, 0x3fe599999999999aull,
                  0x3ff7a0cf6c4741dbull, 0x3fe599999999999aull,
                  0x3fe8000000000000ull, 0x3ff5e6bb3135c00bull,
                  0x3fe799999999999aull, 0x3fe8666666666666ull},
                 1230720u,
                 0x3f164e5091013587ull});
}

TEST(PinnedNumerics, AdaQP) {
  expect_pinned(Method::kAdaQP,
                {{0x3ffd46631a7c5e52ull, 0x3fce666666666666ull,
                  0x3fd4cccccccccccdull, 0x3ffb42ed8c5972a5ull,
                  0x3fd8000000000000ull, 0x3fd8cccccccccccdull,
                  0x3ffa6d6e7a56418dull, 0x3fe0000000000000ull,
                  0x3fe0cccccccccccdull, 0x3ff94df26ca7650full,
                  0x3fe2000000000000ull, 0x3fe599999999999aull,
                  0x3ff79d24f8e0c0f2ull, 0x3fe599999999999aull,
                  0x3fe799999999999aull, 0x3ff5e7c8bd1b0adfull,
                  0x3fe799999999999aull, 0x3fe8666666666666ull},
                 476924u,
                 0x3f138a206280485full});
}

TEST(PinnedNumerics, AdaQPUniform) {
  expect_pinned(Method::kAdaQPUniform,
                {{0x3ffd46631a7c5e52ull, 0x3fce666666666666ull,
                  0x3fd4cccccccccccdull, 0x3ffb4d5fd791f154ull,
                  0x3fd8000000000000ull, 0x3fd8000000000000ull,
                  0x3ffa6a9f7ae9bb2eull, 0x3fe0000000000000ull,
                  0x3fe0cccccccccccdull, 0x3ff94cea14278d3bull,
                  0x3fe2000000000000ull, 0x3fe599999999999aull,
                  0x3ff79a98ca18ebeaull, 0x3fe599999999999aull,
                  0x3fe799999999999aull, 0x3ff5e7755acfc4faull,
                  0x3fe799999999999aull, 0x3fe8666666666666ull},
                 465024u,
                 0x3f13a692d118cb3full});
}

TEST(PinnedNumerics, PipeGCN) {
  expect_pinned(Method::kPipeGCN,
                {{0x3ffd46631a7c5e52ull, 0x3fce666666666666ull,
                  0x3fd599999999999aull, 0x3ffc8984a4f7e087ull,
                  0x3fd8cccccccccccdull, 0x3fdc000000000000ull,
                  0x3ffa1d72004b5a8dull, 0x3fe0cccccccccccdull,
                  0x3fe199999999999aull, 0x3ff8ddaecd88b1b4ull,
                  0x3fe3333333333333ull, 0x3fe6000000000000ull,
                  0x3ff76f6bb166071dull, 0x3fe7333333333333ull,
                  0x3fe8666666666666ull, 0x3ff669912f05cd03ull,
                  0x3fe8666666666666ull, 0x3fe8cccccccccccdull},
                 1230720u,
                 0x3f15c6978a759cefull});
}

// One partition: no halo rows, no exchange, no allreduce (the shape of the
// single-device benchmark workload).
TEST(PinnedNumerics, SingleDevice) {
  const Dataset ds = pin_dataset();
  expect_pinned(
      pin_train(ds, Method::kVanilla, /*drift=*/0.30, /*devices=*/1),
      {{0x3ffd7f1f4a9bcb92ull, 0x3fd0000000000000ull, 0x3fd4cccccccccccdull,
        0x3ffb03533bf1521full, 0x3fdb333333333333ull, 0x3fda666666666666ull,
        0x3ff9877a62569201ull, 0x3fe199999999999aull, 0x3fe2cccccccccccdull,
        0x3ff8c35f2271226bull, 0x3fe399999999999aull, 0x3fe599999999999aull,
        0x3ff6f1a76acb415eull, 0x3fe6666666666666ull, 0x3fe8000000000000ull,
        0x3ff5c152b63fa7c4ull, 0x3fe8000000000000ull, 0x3fe8666666666666ull},
       0u,
       0x3eebfc0165274388ull},
      "single-device");
}

// SAGE-mean: the self path through W_self and its separate weight gradient.
TEST(PinnedNumerics, VanillaSage) {
  const Dataset ds = pin_dataset();
  expect_pinned(
      pin_train(ds, Method::kVanilla, /*drift=*/0.30, /*devices=*/4,
                Aggregator::kSageMean),
      {{0x4005b427bbbd95d5ull, 0x3fb999999999999aull, 0x3fce666666666666ull,
        0x4003ff9b321457b3ull, 0x3fc6666666666666ull, 0x3fd3333333333333ull,
        0x4001829e63b06329ull, 0x3fda666666666666ull, 0x3fdccccccccccccdull,
        0x40011ecd5d4c5915ull, 0x3fe2000000000000ull, 0x3fe3333333333333ull,
        0x3ffd21ae24181766ull, 0x3fe799999999999aull, 0x3fe6000000000000ull,
        0x3ffaae827fbda7eaull, 0x3fea000000000000ull, 0x3fe799999999999aull},
       1230720u,
       0x3f169ca7a89475fcull},
      "vanilla-sage");
}

// SANCUS at a drift threshold of 1.0 skips broadcasts of hidden layers too,
// so receivers train on stale boundary rows and the losses leave Vanilla's
// from epoch 1; the wire carries fewer bytes than Vanilla's 1230720.
TEST(PinnedNumerics, Sancus) {
  const Dataset ds = pin_dataset();
  const PinnedRun got = pin_of(pin_train(ds, Method::kSancus, /*drift=*/1.0));
  const PinnedRun want{
      {0x3ffd46631a7c5e52ull, 0x3fce666666666666ull, 0x3fd4cccccccccccdull,
       0x3ffb4b1442c9b321ull, 0x3fd8000000000000ull, 0x3fd8000000000000ull,
       0x3ffa8264180a3e5cull, 0x3fe0000000000000ull, 0x3fe0000000000000ull,
       0x3ff95faade0dd107ull, 0x3fe199999999999aull, 0x3fe5333333333333ull,
       0x3ff7ad691b559c2aull, 0x3fe5333333333333ull, 0x3fe8000000000000ull,
       0x3ff612dc78898817ull, 0x3fe8000000000000ull, 0x3fe799999999999aull},
      848876u,
      0x3f240812130773faull};
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.total_comm_bytes, want.total_comm_bytes);
  EXPECT_LT(got.total_comm_bytes, 1230720u);
  EXPECT_EQ(got.avg_epoch_seconds, want.avg_epoch_seconds);
}

// Methods differ only by policy: SANCUS that never skips a broadcast (every
// drift exceeds a negative threshold) is Vanilla, bit for bit.
TEST(PinnedNumerics, SancusWithoutSkippingIsVanilla) {
  const Dataset ds = pin_dataset();
  const PinnedRun vanilla = pin_of(pin_train(ds, Method::kVanilla));
  const PinnedRun sancus =
      pin_of(pin_train(ds, Method::kSancus, /*drift=*/-1.0));
  EXPECT_EQ(sancus.epochs, vanilla.epochs);
  EXPECT_EQ(sancus.total_comm_bytes, vanilla.total_comm_bytes);
}

// Evaluation observes and never steers: its exchanges draw from a private
// copy of the training streams, so every epoch's loss is the same with
// per-epoch evaluation on or off.
TEST(Evaluation, LeavesTrainingLossesUntouched) {
  const Dataset ds = pin_dataset();
  for (const Method m : {Method::kVanilla, Method::kAdaQP,
                         Method::kAdaQPUniform, Method::kPipeGCN,
                         Method::kSancus}) {
    const RunResult on = pin_train(ds, m, 0.30, 4, Aggregator::kGcn, true);
    const RunResult off = pin_train(ds, m, 0.30, 4, Aggregator::kGcn, false);
    ASSERT_EQ(on.epochs.size(), off.epochs.size()) << method_name(m);
    for (std::size_t e = 0; e < on.epochs.size(); ++e)
      EXPECT_EQ(bits_of(on.epochs[e].train_loss),
                bits_of(off.epochs[e].train_loss))
          << method_name(m) << " epoch " << e;
  }
}

// Evaluation's exchanges run on a channel claimed at construction, so
// repeated evaluate() calls claim none (a wire backend keeps a payload slot
// per channel for the process lifetime).
TEST(Evaluation, ClaimsNoTransportChannel) {
  const Dataset ds = pin_dataset();
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  ModelConfig mc;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  TrainOptions opts;
  opts.method = Method::kVanilla;
  opts.epochs = 1;
  DistTrainer trainer(ds, dist, ClusterSpec::machines(2, 2), mc, opts);
  const std::uint32_t before = transport::next_channel();
  for (int i = 0; i < 3; ++i) trainer.evaluate();
  EXPECT_EQ(transport::next_channel(), before + 1);
}

}  // namespace

// Overwrites every DeviceState buffer that trainer.h files as per-epoch
// scratch with NaN: the caches, both sink sets, the backward scratch, the
// SANCUS snapshots, the loss scratch and the device loss.
struct DistTrainerTestPeer {
  static void poison_epoch_scratch(DistTrainer& trainer) {
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    for (DistTrainer::DeviceState& s : trainer.devices_) {
      for (DistTrainer::DeviceState::LayerScratch& ls : s.layers) {
        LayerCache& c = ls.cache;
        LayerBackwardScratch& b = ls.bwd_scratch;
        for (Matrix* m :
             {&c.agg, &c.mean_nbr, &c.pre_norm, &c.ln.normalized, &c.pre_act,
              &c.drop_mask, &c.self_scratch, &ls.sinks.weight,
              &ls.sinks.weight_self, &ls.sinks.gamma, &ls.sinks.beta,
              &ls.central_sinks.weight, &ls.central_sinks.weight_self,
              &ls.central_sinks.gamma, &ls.central_sinks.beta, &b.dpre_act,
              &b.dpre_norm, &b.dagg, &b.dself, &b.wt, &ls.sancus_snapshot})
          m->fill(kNaN);
        std::fill(c.ln.rstd.begin(), c.ln.rstd.end(), kNaN);
      }
      std::fill(s.loss_scratch.begin(), s.loss_scratch.end(),
                std::numeric_limits<double>::quiet_NaN());
      s.loss = std::numeric_limits<double>::quiet_NaN();
    }
  }

  /// Device d's aggregation plan, and whether every layer cache shares it.
  static const AggregatePlan& device_plan(const DistTrainer& trainer, int d,
                                          bool& shared) {
    const DistTrainer::DeviceState& s = trainer.devices_[d];
    shared = true;
    for (const DistTrainer::DeviceState::LayerScratch& ls : s.layers)
      shared &= ls.cache.agg_plan == s.agg_plan;
    return *s.agg_plan;
  }
};

namespace {

// The per-epoch scratch group of DeviceState really is scratch: a trainer
// whose scratch is overwritten with NaN after every epoch trains exactly
// like an untouched one, for every method, on 4 threads with async stage
// graphs (PipeGCN's deferred rounds stay in flight while it is poisoned).
// SANCUS runs at drift 1.0, so pairs really skip.
TEST(DeviceState, ScratchCarriesNothingAcrossEpochs) {
  const int prev_threads = num_threads();
  set_num_threads(4);
  pipeline::set_async_override(1);
  const Dataset ds = pin_dataset();
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  for (const Method m : {Method::kVanilla, Method::kAdaQP,
                         Method::kAdaQPUniform, Method::kPipeGCN,
                         Method::kSancus}) {
    TrainOptions opts;
    opts.method = m;
    opts.epochs = 6;
    opts.seed = 31;
    opts.reassign_period = 3;
    opts.sancus_drift_threshold = 1.0;
    DistTrainer clean(ds, dist, cluster, mc, opts);
    DistTrainer poisoned(ds, dist, cluster, mc, opts);
    for (int e = 0; e < opts.epochs; ++e) {
      const EpochRecord want = clean.train_epoch();
      const EpochRecord got = poisoned.train_epoch();
      DistTrainerTestPeer::poison_epoch_scratch(poisoned);
      const std::string at = method_name(m) + " epoch " + std::to_string(e);
      EXPECT_EQ(bits_of(got.train_loss), bits_of(want.train_loss)) << at;
      EXPECT_EQ(bits_of(got.val_acc), bits_of(want.val_acc)) << at;
      EXPECT_EQ(bits_of(got.test_acc), bits_of(want.test_acc)) << at;
      EXPECT_EQ(bits_of(got.time.comm), bits_of(want.time.comm)) << at;
      EXPECT_EQ(bits_of(got.time.comp), bits_of(want.time.comp)) << at;
      EXPECT_EQ(bits_of(got.time.quant), bits_of(want.time.quant)) << at;
      EXPECT_EQ(bits_of(got.time.total), bits_of(want.time.total)) << at;
    }
  }
  pipeline::set_async_override(-1);
  set_num_threads(prev_threads);
}

// One aggregation plan per device, shared by every layer, holding the
// adjoints of exactly the row sets its method's backward runs over:
// central and marginal rows with overlap, the owned rows otherwise.
TEST(DeviceState, OnePlanPerDeviceWithTheTrainingAdjoints) {
  const Dataset ds = pin_dataset();
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  ModelConfig mc;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  for (const Method m : {Method::kVanilla, Method::kAdaQP,
                         Method::kAdaQPUniform, Method::kPipeGCN,
                         Method::kSancus}) {
    TrainOptions opts;
    opts.method = m;
    const DistTrainer trainer(ds, dist, ClusterSpec::machines(2, 2), mc,
                              opts);
    const bool overlap = m == Method::kAdaQP || m == Method::kAdaQPUniform;
    for (int d = 0; d < dist.num_devices(); ++d) {
      const DeviceGraph& dev = dist.devices[d];
      bool shared = false;
      const AggregatePlan& plan =
          DistTrainerTestPeer::device_plan(trainer, d, shared);
      const std::string at = method_name(m) + " device " + std::to_string(d);
      EXPECT_TRUE(shared) << at;
      ASSERT_FALSE(dev.marginal_span().empty() || dev.central_span().empty())
          << at;
      EXPECT_EQ(plan.adjoints.size(), overlap ? 2u : 1u) << at;
      EXPECT_EQ(plan.adjoint_for(dev.marginal_span()) != nullptr, overlap)
          << at;
      EXPECT_EQ(plan.adjoint_for(dev.central_span()) != nullptr, overlap)
          << at;
      EXPECT_EQ(plan.adjoint_for(dev.owned_span()) != nullptr, !overlap)
          << at;
    }
  }
}

}  // namespace
}  // namespace adaqp
