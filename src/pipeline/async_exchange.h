// Halo-exchange stages: the builders that add one exchange's per-pair
// encode -> wire -> decode stages to a StageGraph, and the accounting those
// stages write.
//
// Every (sender, receiver) message becomes one pipeline stage that encodes
// through the real wire codec and decodes on the receiver, so the
// quantize -> wire -> dequantize work of a layer can overlap the central-
// subgraph computation the paper hides it behind (§4.1). Determinism at any
// thread count / schedule comes from two rules, mirroring what src/runtime/
// did for parallel_for:
//
//  * Per-pair RNG streams. Stochastic-rounding draws come from a private
//    stream per (sender, receiver) pair, derived serially when a round is
//    armed (ExchangeAccounting::init: one next() per device stream, then a
//    splitmix of that base with the peer index). No stage ever touches a
//    shared Rng, so stage scheduling cannot reorder draws — and the serial
//    reference schedule consumes the exact same streams.
//  * Ascending-owner decode order. Backward accumulation into an owner's
//    rows happens in a single per-owner stage that folds senders in
//    ascending order — the same summation order as a serial d-outer sweep.
//
// Two owners build graphs from these stages, so there is exactly one
// exchange implementation in the library: the trainer's persistent
// per-(layer, direction) graphs (src/core/trainer.h), which PipeGCN also
// launches in one epoch and joins in the next, and the one-shot
// exchange_halo_forward / exchange_halo_backward (src/dist/halo_exchange.h).
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
  /// — and the per-channel round ordinal init() advances on every round.
  /// With each message's (direction, src, dst) these form the FrameTag the
  /// transport matches deliveries on.
  std::uint32_t channel = 0;
  std::uint32_t round = 0;

  /// Arm one round: advance `round`, zero the per-pair byte counts and wire
  /// blocks in place, and derive the per-pair RNG streams (one draw from
  /// each device_rngs[d], in ascending d).
  void init(int n, std::vector<Rng>& device_rngs);

  /// Size the [sender][receiver] slot tables without deriving RNG streams
  /// (init() does both). Idempotent; lets a graph be *built* against this
  /// accounting before its first round is armed.
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

}  // namespace adaqp::pipeline
