// Asynchronous halo exchange: the submit()/wait() split of
// exchange_halo_forward / exchange_halo_backward.
//
// Every (sender, receiver) message becomes one pipeline stage that encodes
// through the real wire codec and decodes on the receiver, so the
// quantize -> wire -> dequantize work of a layer can overlap the central-
// subgraph computation the paper hides it behind (§4.1). Determinism at any
// thread count / schedule comes from two rules, mirroring what src/runtime/
// did for parallel_for:
//
//  * Per-pair RNG streams. Stochastic-rounding draws come from a private
//    stream per (sender, receiver) pair, derived serially at submit time
//    (one next() per device stream, then a splitmix of that base with the
//    peer index). No stage ever touches a shared Rng, so stage scheduling
//    cannot reorder draws — and the serial reference schedule consumes the
//    exact same streams.
//  * Ascending-owner decode order. Backward accumulation into an owner's
//    rows happens in a single per-owner stage that folds senders in
//    ascending order — the same summation order as a serial d-outer sweep.
//
// The synchronous exchange_halo_forward/backward entry points in src/dist/
// are thin wrappers over this API (submit immediately followed by wait), so
// there is exactly one exchange implementation in the library.
#pragma once

#include <vector>

#include "comm/cluster.h"
#include "common/rng.h"
#include "dist/dist_graph.h"
#include "dist/halo_exchange.h"
#include "pipeline/stage_graph.h"
#include "quant/message_codec.h"

namespace adaqp::pipeline {

/// Per-pair stage ids of one exchange added to a StageGraph.
struct PairStages {
  /// stage[d][p]: id of the encode stage for message d -> p, or -1 when the
  /// pair exchanges nothing.
  std::vector<std::vector<int>> stage;
  /// Backward only: per-owner decode/accumulate stage ids (-1 when the
  /// owner receives nothing).
  std::vector<int> owner_stage;
};

/// Storage the exchange stages write into; owned by the caller and must
/// outlive the graph execution. All slots are indexed [sender][receiver]
/// and written by exactly one stage, so no synchronization is needed.
/// Re-init()s rewrite every slot in place (capacities kept), so a
/// steady-state exchange performs no heap allocation after its first round.
struct ExchangeAccounting {
  std::vector<std::vector<std::size_t>> pair_bytes;
  /// pair_bytes split by bit-width tag (see ExchangeStats::pair_width_bytes
  /// for the exact byte attribution). Written by the pair's encode stage.
  std::vector<std::vector<std::array<std::uint64_t, obs::kNumWidths>>>
      pair_width_bytes;
  std::vector<std::vector<std::size_t>> fp_bytes;
  std::vector<std::vector<Rng>> pair_rngs;
  std::vector<std::vector<EncodedBlock>> blocks;  ///< per-pair wire staging
  /// Per-pair stochastic-rounding draw buffers (see encode_rows_into).
  std::vector<std::vector<std::vector<float>>> uniforms;
  /// Per-owner backward-accumulate staging: decoded rows + identity seq.
  std::vector<Matrix> acc_decoded;
  std::vector<std::vector<NodeId>> acc_seq;
  /// Optional per-pair send mask, [sender][receiver], written by the owner
  /// before a round runs; empty means every pair sends. A masked-off pair's
  /// encode stage leaves its block empty: no frame, 0 wire bytes, and the
  /// backward owner accumulate skips it.
  std::vector<std::vector<std::uint8_t>> active;

  bool sends(int d, int p) const { return active.empty() || active[d][p]; }

  /// Transport identity (src/transport/): the exchange's wire channel —
  /// claimed from transport::next_channel() by whoever owns this accounting
  /// — and the per-channel round ordinal init() advances on every submit.
  /// With each message's (direction, src, dst) these form the FrameTag the
  /// transport matches deliveries on.
  std::uint32_t channel = 0;
  std::uint32_t round = 0;

  void init(int n, std::vector<Rng>& device_rngs);

  /// Size the [sender][receiver] slot tables without deriving RNG streams
  /// (init() does both). Idempotent; lets a graph be *built* against this
  /// accounting before any round is submitted — PipeGCN's deferred forward
  /// exchanges are prepared this way at trainer construction so their first
  /// submit (epoch 1, already steady state) allocates nothing.
  void init_storage(int n);

  /// Pre-reserve every per-pair staging buffer for the message shapes the
  /// (dist, plan) pair implies — wire blocks at the plan's current widths
  /// (call while the plan is still the maximal uniform-32 warmup plan),
  /// stochastic-rounding buffers at one row width, backward decode staging
  /// at each owner's largest inbound message. After warm(), the first
  /// *execution* of the exchange stages is already allocation-free, even if
  /// it is deferred into a steady-state epoch.
  void warm(const DistGraph& dist, const ExchangePlan& plan, bool forward,
            std::size_t cols);
};

/// Add one stage per forward message (encode sender rows, decode into the
/// receiver's halo rows; disjoint writes). No dependencies between stages.
PairStages add_forward_exchange_stages(StageGraph& graph,
                                       const DistGraph& dist,
                                       std::vector<Matrix>& locals,
                                       const ExchangePlan& plan,
                                       ExchangeAccounting& acct);

/// Extra stage dependencies threaded into one backward exchange — the hooks
/// that let exchange stages interleave with row-subset backward compute
/// stages added to the same graph (see DistTrainer's full-duplex backward):
///   encode[d]     gates every bwd-enc/d->p on the stage that last writes
///                 device d's halo gradient rows (the marginal-row adjoint);
///   accumulate[p] gates bwd-acc/p on the stage that finishes p's own
///                 writes to its owned rows (owner accumulation adds into
///                 boundary rows, which the central-row adjoint also
///                 scatters into);
///   zero[d]       gates bwd-zero/d on the last *reader* of d's halo rows
///                 (e.g. the assigner's range trace).
/// Entries are stage ids or -1 (no extra dep); an empty vector skips that
/// hook entirely.
struct BackwardStageDeps {
  std::vector<int> encode;
  std::vector<int> accumulate;
  std::vector<int> zero;
};

/// Add backward stages: per-pair encodes of halo-row gradients, per-owner
/// accumulate stages (senders folded ascending), and per-device halo-zero
/// stages gated on that device's encodes — plus any extra `deps` hooks.
PairStages add_backward_exchange_stages(StageGraph& graph,
                                        const DistGraph& dist,
                                        std::vector<Matrix>& grads,
                                        const ExchangePlan& plan,
                                        ExchangeAccounting& acct,
                                        const BackwardStageDeps& deps = {});

/// Fold the per-pair byte counts into ExchangeStats (kernel times in fixed
/// (d, p) order, then the ring-all2all straggler time). Call after the
/// graph has completed.
ExchangeStats finalize_exchange_stats(const ExchangeAccounting& acct,
                                      const DistGraph& dist,
                                      const ClusterSpec& cluster);

/// In-place form: rewrites `stats` reusing its capacity (no allocation once
/// the shapes have stabilized).
void finalize_exchange_stats_into(const ExchangeAccounting& acct,
                                  const DistGraph& dist,
                                  const ClusterSpec& cluster,
                                  ExchangeStats& stats);

/// The submit()/wait() halves of one halo exchange, for callers that want
/// the exchange in flight while they do other work.
///
/// Lifecycle (multi-shot): construct → submit → wait → submit → wait → …;
/// a submit while a round is still in flight throws. The first submit
/// builds the stage graph, capturing the matrices and plan by reference;
/// every later submit must pass the *same* objects (same direction, same
/// addresses — the trainer keeps one instance per layer/direction with
/// stable buffers) and merely re-derives the per-pair RNG streams in place,
/// re-arms the graph and relaunches it, performing no heap allocation —
/// the steady-state contract (docs/ARCHITECTURE.md). The referenced
/// matrices and plan must stay alive — and their exchanged rows untouched
/// by anyone else — while a round is in flight. The destructor joins a
/// still-launched exchange defensively (swallowing stage errors), so an
/// in-flight exchange can be dropped safely, but only wait() returns its
/// ExchangeStats.
///
/// The join may happen arbitrarily later than the submit: DistTrainer
/// keeps one AsyncExchange per layer in flight *across iteration
/// boundaries* for PipeGCN's deferred exchanges (stale boundary rows ship
/// while the rest of the epoch and the next epoch's earlier layers run).
/// Benches and tests drive it directly.
class AsyncExchange {
 public:
  AsyncExchange(const DistGraph& dist, const ClusterSpec& cluster);
  ~AsyncExchange();

  AsyncExchange(const AsyncExchange&) = delete;
  AsyncExchange& operator=(const AsyncExchange&) = delete;

  /// Build the exchange stages and, when `async`, launch them on the pool.
  /// locals/plan must stay valid until wait() returns. When `async` is
  /// false nothing runs until wait(), which then executes the reference
  /// serial schedule — numerics are identical either way.
  void submit_forward(std::vector<Matrix>& locals, const ExchangePlan& plan,
                      std::vector<Rng>& rngs, bool async);
  void submit_backward(std::vector<Matrix>& grads, const ExchangePlan& plan,
                       std::vector<Rng>& rngs, bool async);

  /// Build (but do not run) the stage graph and warm every staging buffer,
  /// binding the matrices and plan exactly as the first submit would —
  /// without consuming any RNG draws or launching anything. A later
  /// submit_forward/submit_backward with the same objects then re-inits the
  /// accounting in place and relaunches, allocation-free: this is how the
  /// trainer makes an exchange whose first round happens *after* warmup
  /// (PipeGCN's deferred forward pipeline) satisfy the steady-state
  /// contract. Call at most once, before any submit.
  void prepare_forward(std::vector<Matrix>& locals, const ExchangePlan& plan);
  void prepare_backward(std::vector<Matrix>& grads, const ExchangePlan& plan);

  /// Completion handle of the d -> p message (nullptr when the pair
  /// exchanges nothing). Forward: set once the receiver's halo rows are
  /// decoded. Backward: set once the message is encoded.
  Event* pair_done(int d, int p);

  /// Join the exchange and return its stats. Call exactly once per submit.
  ExchangeStats wait();

  /// wait() into caller-owned stats storage (capacity reused — the
  /// steady-state form).
  void wait_into(ExchangeStats& stats);

 private:
  enum class Kind { kNone, kForward, kBackward };

  /// Shared re-submit path: bind-check against the first submit (or record
  /// the binding), re-arm the graph, relaunch when async.
  void resubmit(Kind kind, const void* data, const ExchangePlan* plan,
                bool async);

  const DistGraph& dist_;
  const ClusterSpec& cluster_;
  StageGraph graph_;
  ExchangeAccounting acct_;
  PairStages stages_;
  Kind built_kind_ = Kind::kNone;
  const void* bound_data_ = nullptr;
  const ExchangePlan* bound_plan_ = nullptr;
  bool submitted_ = false;
  bool async_ = false;
  bool finished_ = false;
  double submit_us_ = 0.0;  ///< resubmit() stamp for the join-latency histogram
};

}  // namespace adaqp::pipeline
