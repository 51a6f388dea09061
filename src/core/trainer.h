// Distributed full-graph GNN trainers.
//
// One DistTrainer drives an entire training run of one method over the
// simulated cluster. Numerics are bit-exact (every message passes through
// the real quantization codec); time is accounted by the ClusterSpec cost
// model. Methods:
//
//   kVanilla      — synchronous full-precision messages, no overlap
//                   (paper's "Vanilla" baseline).
//   kAdaQP        — adaptive stochastic quantization (bi-objective bit-width
//                   assignment, re-solved periodically) + central/marginal
//                   computation-communication parallelization. The paper's
//                   contribution.
//   kAdaQPUniform — AdaQP with uniformly-random bit sampling from {2,4,8}
//                   (Table 6 ablation).
//   kPipeGCN      — cross-iteration pipelining with epoch-stale boundary
//                   embeddings and gradients, communication hidden inside
//                   computation (PipeGCN-like baseline).
//   kSancus       — staleness-aware broadcast skipping with sequential
//                   (non-ring) broadcast cost and dropped remote gradients
//                   on skipped epochs (SANCUS-like baseline).
//
// Execution: every per-device compute stage (layer forward/backward, loss,
// evaluation) runs as one task per simulated device on the runtime thread
// pool (src/runtime/), and shared parameter gradients are reduced in
// ascending device order — so a run is bit-identical at any ADAQP_THREADS
// setting (tests/test_runtime.cpp enforces this).
//
// One execution path serves all five methods. Every (layer, direction) owns
// one persistent pipeline stage graph (src/pipeline/) holding the per-pair
// encode/wire/decode stages of its halo exchange; it is built in the warmup
// epoch and re-armed every later epoch. A small per-method policy table
// (trainer.cpp) decides the rest:
//
//   plan        fixed 32-bit, the bi-objective assigner, or uniform-random
//               widths (re-solved after the warmup epoch);
//   overlap     on: the layer's central/marginal compute stages join the
//               graph. Forward, the exchange runs concurrently with the
//               central-row forward and marginal rows wait on their inbound
//               messages; backward (full duplex), the marginal-row adjoint
//               produces the halo gradient rows, whose encode/wire stages
//               run concurrently with the central-row adjoint and the shared
//               parameter-gradient fold. Off: whole-row per-device compute
//               runs as device tasks after the graph (forward) or before it
//               (backward) — the exchange-then-compute barrier;
//   defer       PipeGCN: a layer graph's stale halo send/recv is launched in
//               one epoch, stays in flight across the iteration boundary and
//               is joined lazily in the next, just before its buffers are
//               reread or rewritten (the forward defers from epoch 1 on; the
//               cold first epoch runs Vanilla's shape);
//   drift_skip  SANCUS: a serial drift pre-pass marks which pairs send this
//               epoch; a skipped pair ships no frame and costs no time, and
//               the modeled comm is the sequential-broadcast sum.
//
// ADAQP_ASYNC=1 (the default) launches each graph on the pool; ADAQP_ASYNC=0
// runs the same graph with run_serial(), the ascending-id reference
// schedule. Both modes (and any thread count, and any ADAQP_ISA) are
// bit-identical, enforced by tests/test_pipeline.cpp. Setting ADAQP_TRACE to
// a path makes run() record a Chrome trace of the stages.
//
// State: each simulated device owns one DeviceState and each (layer,
// direction) LayerGraph owns its exchange's plan, ranges and staging; only
// the exchange operands (acts_, grad_flow_) and the RNG streams stay
// device-indexed vectors, the shape the exchange builders take. The comment
// above DistTrainer's members lists what carries across epochs.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "assign/bit_assigner.h"
#include "comm/cluster.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "dist/dist_graph.h"
#include "dist/halo_exchange.h"
#include "gnn/adam.h"
#include "gnn/model.h"
#include "obs/run_report.h"
#include "pipeline/exchange_stages.h"
#include "runtime/parallel_for.h"

namespace adaqp {

enum class Method { kVanilla, kAdaQP, kAdaQPUniform, kPipeGCN, kSancus };

std::string method_name(Method method);

struct TrainOptions {
  Method method = Method::kAdaQP;
  int epochs = 100;
  Adam::Options adam;              ///< lr defaults to the paper's 0.01
  AssignerOptions assigner;        ///< group size, λ
  int reassign_period = 50;        ///< epochs between bit-width re-solves
  double sancus_drift_threshold = 0.30;
  int sancus_max_staleness = 12;
  std::uint64_t seed = 1;
  bool eval_every_epoch = true;
  bool verbose = false;
};

/// Per-epoch simulated time decomposition (paper Fig. 10a).
struct EpochBreakdown {
  double comm = 0.0;    ///< halo-exchange straggler time (fwd + bwd)
  double comp = 0.0;    ///< computation on the critical path (AdaQP: marginal
                        ///< graph only — central comp hides in comm)
  double quant = 0.0;   ///< quantize + de-quantize kernel time
  double total = 0.0;   ///< composed epoch duration with overlap applied

  void accumulate(const EpochBreakdown& other);
};

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  double val_acc = 0.0;
  double test_acc = 0.0;
  EpochBreakdown time;
};

/// Heap-allocation counts of the last train_epoch(), by phase (global
/// operator-new calls observed by memory::alloc_track). `steady_state`
/// records whether the epoch qualified for the zero-allocation contract
/// (see memory::steady_state_definition()); under ADAQP_ALLOC_TRACK=1,
/// train_epoch() throws if a qualifying epoch allocated at all.
struct EpochAllocReport {
  std::uint64_t forward = 0;
  std::uint64_t backward = 0;
  std::uint64_t optimizer = 0;   ///< gradient allreduce accounting + Adam
  std::uint64_t refresh = 0;     ///< bit-width plan re-assignment
  std::uint64_t evaluation = 0;
  bool steady_state = false;

  std::uint64_t total() const {
    return forward + backward + optimizer + refresh + evaluation;
  }
};

struct RunResult {
  std::string method;
  std::string model;
  std::string dataset;
  std::string partition_setting;
  std::vector<EpochRecord> epochs;

  double train_seconds = 0.0;    ///< Σ simulated epoch durations
  double assign_seconds = 0.0;   ///< bit-width assignment overhead
  double wall_clock_seconds = 0.0;  ///< train + assign (paper Table 5/9)
  double final_val_acc = 0.0;
  double final_test_acc = 0.0;
  double best_val_acc = 0.0;
  double avg_epoch_seconds = 0.0;
  double throughput = 0.0;       ///< epochs per simulated second (Table 4)
  EpochBreakdown avg_breakdown;
  std::size_t total_comm_bytes = 0;
};

/// Test access to DistTrainer's per-device state (tests/test_training.cpp).
struct DistTrainerTestPeer;

class DistTrainer {
 public:
  DistTrainer(const Dataset& dataset, const DistGraph& dist,
              const ClusterSpec& cluster, const ModelConfig& model_config,
              const TrainOptions& opts);
  /// Releases the evaluation channel; each LayerGraph releases its own.
  ~DistTrainer();

  /// Train for opts.epochs epochs; returns the full run record.
  RunResult run();

  /// Run a single epoch (exposed for fine-grained benches); returns its
  /// record. Evaluation is performed iff opts.eval_every_epoch.
  EpochRecord train_epoch();

  /// Full-precision evaluation of the current model; returns
  /// (val metric, test metric). Does not advance simulated time.
  std::pair<double, double> evaluate();

  GnnModel& model() { return model_; }
  const DistGraph& dist() const { return dist_; }
  double assign_seconds() const { return assign_seconds_; }
  std::size_t total_comm_bytes() const { return total_comm_bytes_; }

  /// Per-pair wire bytes of the most recent layer-1 forward exchange
  /// (paper Fig. 2 reproduces this matrix).
  const std::vector<std::vector<std::size_t>>& last_layer1_pair_bytes() const {
    return last_layer1_pair_bytes_;
  }

  /// Per-phase heap-allocation counts of the most recent train_epoch().
  const EpochAllocReport& last_alloc_report() const { return alloc_report_; }

  /// Measured wall seconds of the most recent train_epoch(), stamped at the
  /// same phase boundaries as the allocation report — the counterpart to
  /// EpochRecord::time's *modeled* seconds (core/timing.h).
  const obs::PhaseWall& last_wall_report() const { return last_wall_; }

  /// The metrics capture of the current/most recent run() (exposed for
  /// tests). Disabled unless ADAQP_METRICS (or an obs::MetricsGuard) was
  /// active when run() started.
  const obs::RunCapture& run_capture() const { return capture_; }

 private:
  friend struct DistTrainerTestPeer;

  /// One layer's halo exchange in one direction: a persistent stage graph,
  /// built on first use (warmup epoch) and re-armed in place every later
  /// epoch, plus the accounting its stages write and the per-exchange state
  /// they read. Overlapping methods add the layer's compute stages to the
  /// same graph; PipeGCN launches its exchange-only graphs in one epoch and
  /// joins them in the next.
  struct LayerGraph {
    pipeline::StageGraph graph;
    pipeline::ExchangeAccounting acct;
    /// Read by reference at run time, so a refresh needs no rebuild; 32-bit
    /// (and so stable under a deferred round) until a quantizing refresh.
    ExchangePlan plan;
    /// [device] traced row ranges, read by the assigner's refresh.
    std::vector<std::vector<float>> ranges;
    /// PipeGCN backward, [device]: what its deferred round binds instead of
    /// the gradient ping-pong. Halo rows: this epoch's outbound gradients;
    /// owned rows: the in-flight round's arrivals, harvested at the join.
    std::vector<Matrix> staging;
    /// PipeGCN forward: a joined round's comm seconds, kept until this
    /// layer's forward consumes them (joins can happen one layer early).
    double joined_comm = 0.0;
    bool built = false;
    bool pending = false;   ///< deferred round armed, not yet joined
    double launch_us = 0.0;  ///< arm stamp for the join-latency histogram

    /// Claims the graph's transport channel.
    LayerGraph(ExchangePlan initial_plan, int num_devices);
    LayerGraph(const LayerGraph&) = delete;
    LayerGraph& operator=(const LayerGraph&) = delete;
    /// Joins a still-launched deferred round, so a trainer destroyed
    /// mid-flight never frees a buffer a stage reads. Stage errors are
    /// dropped: the round's results die with the trainer.
    ~LayerGraph();
  };

  /// What one simulated device holds of its own, grouped by lifetime.
  struct DeviceState {
    /// Per-epoch scratch of one layer.
    struct LayerScratch {
      LayerCache cache;  ///< its agg_plan: the device's agg_plan
      /// Parameter-gradient partials: the whole-row backward, or the
      /// overlapped marginal rows, write `sinks`; central rows the other.
      LayerGrads sinks;
      LayerGrads central_sinks;
      /// Shared by both row subsets: a device's central stage depends on
      /// its marginal stage.
      LayerBackwardScratch bwd_scratch;
      Matrix sancus_snapshot;  ///< SANCUS: this epoch's boundary rows
    };
    /// SANCUS history of one layer input.
    struct SancusHistory {
      Matrix last_bcast;  ///< boundary rows at the last broadcast
      int staleness = 1 << 20;  ///< epochs since then (first epoch: stale)
    };

    DeviceState(const DeviceGraph& device, int index, const Dataset& dataset,
                std::span<const std::uint8_t> is_train, const GnnModel& model,
                bool drift_skip, bool overlap);

    const DeviceGraph& graph;
    const int id;

    // Static inputs, built here and never written again.
    /// The aggregation plan every layer (and evaluation) shares, with the
    /// adjoints of the row sets the training backward runs over: central
    /// and marginal rows with overlap, else the owned rows.
    std::shared_ptr<const AggregatePlan> agg_plan;
    std::vector<std::uint32_t> train_rows;  ///< local owned ids
    std::vector<std::int32_t> train_labels;
    Matrix train_targets;                   ///< multi-label targets

    // Per-epoch scratch: every epoch writes each buffer before reading it.
    // Sized here where the shape is known, else grown by the warmup epoch.
    std::vector<LayerScratch> layers;  ///< [layer]
    std::vector<double> loss_scratch;
    double loss = 0.0;  ///< this epoch's summed loss over train_rows

    // Cross-epoch history.
    std::vector<SancusHistory> sancus;  ///< [layer]; empty unless SANCUS
  };

  void refresh_plans();
  EpochBreakdown forward_pass(double& loss);
  EpochBreakdown backward_pass();

  /// Run fn(DeviceState&) for every device as one task group on the runtime
  /// pool. Templated so per-epoch calls build no std::function (part of the
  /// zero-allocation steady-state contract, docs/ARCHITECTURE.md).
  template <typename Fn>
  void run_device_tasks(const Fn& fn) {
    parallel_for_each(devices_.size(),
                      [this, &fn](std::size_t d) { fn(devices_[d]); });
  }

  /// Exchange + compute of layer l (its input is acts_[l]); returns the
  /// modeled time contributions.
  EpochBreakdown forward_layer(int l);
  /// Backward of layer l: folds the parameter gradients and, when l > 0,
  /// writes the layer-input gradient into the grad_flow_ buffer of parity
  /// (num_layers - l) & 1 and exchanges its halo rows. Layer 0 computes no
  /// input gradient.
  EpochBreakdown backward_layer(int l);

  /// The layer graphs, built on first use.
  LayerGraph& forward_graph(int l);
  LayerGraph& backward_graph(int l);

  /// Re-derive the per-pair RNG streams, re-arm and run one layer graph,
  /// then finish it (below) and capture its critical-path profile.
  void run_layer_graph(LayerGraph& g, int layer, bool forward);

  /// The accounting tail of every completed layer-graph round, in place or
  /// deferred: exchange stats into stats_scratch_, total_comm_bytes_, the
  /// metrics row and (layer-0 forward) last_layer1_pair_bytes_.
  void finish_layer_graph(const LayerGraph& g, int layer, bool forward);

  /// PipeGCN's deferred round, first half: re-derive the per-pair RNG
  /// streams and re-arm g, then launch it on the pool when async (with
  /// ADAQP_ASYNC=0 the stages run at the join). The round stays in flight
  /// across the iteration boundary.
  void launch_deferred(LayerGraph& g);

  /// Second half: join g's pending round (0 when none is pending), record
  /// the launch-to-join latency and finish it; returns its modeled comm
  /// seconds. Overlap and profile capture are skipped — the round's span
  /// crosses an epoch boundary.
  double join_deferred(LayerGraph& g, int layer, bool forward);

  /// Modeled time of the layer exchange just run (stats_scratch_) plus the
  /// layer's compute, composed per policy: with overlap, central compute
  /// hides inside the comm window; without, exchange and compute add up.
  EpochBreakdown compose_time(int layer, bool backward, bool overlap) const;

  /// SANCUS pre-pass over layer input l, serial in ascending device order:
  /// a device re-broadcasts its boundary rows only when they drifted past
  /// the threshold or went stale for too long. Writes the per-pair send
  /// masks of layer l's forward (sender broadcasts) and backward (owner
  /// broadcast) exchanges.
  void sancus_drift_pass(int l);

  /// PipeGCN's backward exchange of layer input l: joins last epoch's
  /// in-flight round, adds its arrivals to grad_x's owned rows, stages this
  /// epoch's halo rows and launches them. Returns the joined comm seconds.
  double pipegcn_backward(int l, std::vector<Matrix>& grad_x);

  /// Fold the halo-exchange stats just produced into the current epoch's
  /// metrics row (messages, wire bytes split by bit-width, per-pair
  /// volumes). No-op unless run() enabled capture. Purely observational:
  /// writes pre-allocated capture storage only.
  void capture_exchange_stats(const ExchangeStats& stats);
  /// Feed one executed layer graph into the critical-path profiler
  /// (obs/profile.h): every stage's name, timestamps and declared deps go
  /// into the pre-sized DAG scratch, the exchange split model comes from
  /// stats_scratch_, and the solved SegmentProfile lands in the profile
  /// rows of the current epoch; the segment's realized exchange||compute
  /// overlap also accumulates into the epoch row's fwd_overlap/bwd_overlap.
  /// With ADAQP_TRACE active it also emits
  /// Chrome-trace flow arrows along the segment's critical path. No-op
  /// unless run() armed the profiler. Purely observational.
  void capture_profile_segment(const pipeline::StageGraph& graph, int layer,
                               bool forward);

  /// Selects a device's row set: owned, central or marginal rows.
  using RowSpan = std::span<const NodeId> (DeviceGraph::*)() const;

  /// Modeled compute seconds of one layer pass over each device's `rows`
  /// (core/timing.h), maxed over devices.
  double max_compute_seconds(int layer, bool backward, RowSpan rows) const;

  // ---- Run state: what carries from one epoch into the next ---------------
  // Everything else is rebuilt from (config, dataset, partition) or is
  // per-epoch scratch that every epoch rewrites before reading it.
  //  - model_'s parameters and adam_'s moments and step count;
  //  - master_rng_ (uniform-random plans) and device_rngs_ (dropout masks,
  //    per-pair rounding keys);
  //  - epoch_ (the refresh phase) and each LayerGraph's plan;
  //  - SANCUS: each DeviceState's sancus history, and the halo rows of
  //    acts_[l] that a skipping pair left in place. A pair that skips sends
  //    no frame (its forward stage returns early), so the receiver's halo
  //    rows keep the last broadcast they got;
  //  - PipeGCN: pipegcn_warm_, the launched (pending) deferred rounds, the
  //    stale halo rows of acts_[l] they deliver, each backward LayerGraph's
  //    staging and each forward LayerGraph's joined_comm;
  //  - observational totals: assign_seconds_, total_comm_bytes_,
  //    last_layer1_pair_bytes_, each accounting's transport round ordinal
  //    and capture_.

  const Dataset& dataset_;
  const DistGraph& dist_;
  ClusterSpec cluster_;
  TrainOptions opts_;

  Rng master_rng_;
  std::vector<Rng> device_rngs_;
  GnnModel model_;
  Adam adam_;

  int num_devices_ = 0;
  int num_layers_ = 0;
  /// The method's overlap policy, on only when some device has halo rows:
  /// a layer with no wire pairs runs zero stages.
  bool overlap_ = false;
  double global_train_count_ = 0.0;

  std::vector<DeviceState> devices_;  ///< fixed after construction

  // Activations: acts_[l][dev] is the input to layer l (l=0: features);
  // acts_[L][dev] holds the logits.
  std::vector<std::vector<Matrix>> acts_;
  /// Trace gate, set at the start of each train_epoch(): true exactly on
  /// the epochs that end in an assigner refresh. The persistent backward
  /// trace stages read it at run time.
  bool trace_ranges_ = false;
  bool pipegcn_warm_ = false;  ///< PipeGCN: the forward defers from now on

  int epoch_ = 0;
  bool async_pipeline_ = true;  ///< resolved from ADAQP_ASYNC at construction
  double assign_seconds_ = 0.0;
  std::size_t total_comm_bytes_ = 0;
  std::vector<std::vector<std::size_t>> last_layer1_pair_bytes_;

  // ---- Memory subsystem (zero-allocation steady state) --------------------
  // Every scratch buffer is a plain member (here, in DeviceState or in a
  // LayerGraph), sized at construction or first grown during the warmup
  // epoch; steady-state epochs only reuse it.
  std::vector<Param*> params_;   ///< cached model_.params() (stable set)
  std::size_t grad_bytes_ = 0;   ///< cached model_.grad_bytes()
  ExchangeStats stats_scratch_;  ///< reusable stats sink (main thread only)
  EpochAllocReport alloc_report_;
  obs::PhaseWall last_wall_;     ///< measured seconds of the last epoch

  // ---- Observability capture (src/obs/, docs/OBSERVABILITY.md) ------------
  // run() sizes capture_ (epochs x devices) before the first epoch when
  // ADAQP_METRICS enables a report; every per-epoch write below then lands
  // in pre-allocated storage, so capture runs through steady-state epochs
  // without allocating.
  obs::RunCapture capture_;

  // Backward activation-gradient ping-pong. The parity of the buffer that
  // holds layer l's incoming gradient is fixed ((num_layers-1-l) & 1), so
  // the persistent backward stage graphs can capture these by reference.
  std::vector<std::vector<Matrix>> grad_flow_;    ///< [parity][device]

  // Evaluation's forward exchange accounting, shared by its layers (one
  // round each) on one transport channel claimed at construction, after the
  // layer graphs'. One accounting keeps one layer's wire blocks, not all.
  pipeline::ExchangeAccounting eval_acct_;

  // The per-(layer, direction) stage graphs; each claims its own transport
  // channel at construction, in layer order, forward before backward.
  // Declared last so they are destroyed (and a pending PipeGCN round
  // therefore joined) before the device state and activations their stages
  // reference.
  std::vector<std::unique_ptr<LayerGraph>> fwd_graphs_;
  std::vector<std::unique_ptr<LayerGraph>> bwd_graphs_;
};

/// Convenience wrapper: partition + build + train one (dataset, model,
/// method) configuration and return the result.
RunResult run_training(const Dataset& dataset, const ClusterSpec& cluster,
                       Aggregator aggregator, const TrainOptions& opts,
                       std::size_t hidden_dim = 64,
                       const std::string& partitioner = "multilevel");

}  // namespace adaqp
