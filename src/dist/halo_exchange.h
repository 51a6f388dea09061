// Quantized boundary exchange over the simulated cluster.
//
// The forward exchange ships every device's boundary (send-map) rows to the
// peers that mirror them as halo; the backward exchange ships halo-row
// gradient contributions back to their owners and accumulates them there
// (the halo rows are left as they were). Both directions push every
// message through the real wire codec (quant/message_codec) at the
// per-message bit-widths of an ExchangePlan, so numerics are bit-exact with
// what a physical cluster would compute, while *time* is accounted by the
// ClusterSpec cost model under the paper's ring all2all schedule (Fig. 8).
//
// These synchronous entry points build the exchange's per-pair stages
// (src/pipeline/exchange_stages.h) into a one-shot stage graph and run it —
// the same stages the trainer's persistent layer graphs hold, so there is
// exactly one exchange implementation in the library. The trainer adds
// compute stages to its graphs to overlap the exchange with the central-row
// forward/adjoint (gated per stage via pipeline::BackwardStageDeps), and
// keeps PipeGCN's deferred rounds in flight across whole iteration
// boundaries. See docs/ARCHITECTURE.md.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/cluster.h"
#include "dist/dist_graph.h"
#include "obs/metrics.h"

namespace adaqp {

class Rng;

/// Per-message bit-width choices for one exchange of one layer/direction.
/// Forward plans align bits[d][p] with devices[d].send_local[p]; backward
/// plans align bits[d][p] with devices[d].recv_local[p] (the halo rows d
/// sends back to owner p). Entries are in {2, 4, 8, 32}.
struct ExchangePlan {
  std::vector<std::vector<std::vector<int>>> bits;

  /// Every forward message at one width. Throws std::runtime_error unless
  /// `bit_width` is in {2, 4, 8, 32}.
  static ExchangePlan uniform_forward(const DistGraph& dist, int bit_width);
  /// Every backward message at one width.
  static ExchangePlan uniform_backward(const DistGraph& dist, int bit_width);
};

/// Traffic and time accounting of one exchange.
struct ExchangeStats {
  /// Wire bytes device d sent to device p (codec output size).
  std::vector<std::vector<std::size_t>> pair_bytes;
  /// pair_bytes split by bit-width tag (index = obs::width_index(bits):
  /// 2, 4, 8, 32). Counts per-row tag + metadata + payload bytes; the
  /// 12-byte block header appears only in the pair_bytes total.
  std::vector<std::vector<std::array<std::uint64_t, obs::kNumWidths>>>
      pair_width_bytes;
  /// Non-empty pair blocks moved by this exchange.
  std::uint64_t messages = 0;
  /// Straggler-synchronized ring-all2all time for pair_bytes.
  double comm_seconds = 0.0;
  /// Per-device quantize / de-quantize kernel time (zero for 32-bit
  /// passthrough messages).
  std::vector<double> quant_seconds;
  std::vector<double> dequant_seconds;

  std::size_t total_bytes() const;
  double max_quant_seconds() const;
  double max_dequant_seconds() const;
};

/// Forward halo exchange: for every pair (d, p), encode the send-map rows of
/// locals[d] at plan.bits[d][p] and decode them into the aligned halo rows
/// of locals[p]. Owned rows are never written.
///
/// Both exchanges advance each rngs[d] by exactly one draw per call, from
/// which private per-pair stochastic-rounding streams are derived — the
/// mechanism that lets the trainer's layer graphs run messages concurrently
/// with compute while staying bit-identical to this synchronous form (both
/// are the same per-pair stages; see src/pipeline/exchange_stages.h).
ExchangeStats exchange_halo_forward(const DistGraph& dist,
                                    std::vector<Matrix>& locals,
                                    const ExchangePlan& plan,
                                    const ClusterSpec& cluster,
                                    std::vector<Rng>& rngs);

/// Backward halo exchange: for every pair (d, p), encode the halo rows
/// grads[d][recv_local[p]] at plan.bits[d][p] and *accumulate* them into the
/// owner's rows grads[p][send_local[d]]. Halo rows are read, never written.
ExchangeStats exchange_halo_backward(const DistGraph& dist,
                                     std::vector<Matrix>& grads,
                                     const ExchangePlan& plan,
                                     const ClusterSpec& cluster,
                                     std::vector<Rng>& rngs);

/// Simulated time of a ring allreduce of `bytes` over the cluster's devices:
/// 2(n-1) rounds of bytes/n chunks, straggler-paced by the slowest ring link
/// (0 for a single device).
double ring_allreduce_seconds(const ClusterSpec& cluster, std::size_t bytes);

/// Ring allreduce over same-shaped per-device matrices: every matrix is
/// replaced by the elementwise sum. Returns the simulated time (0 for a
/// single device); numerics are exact (no quantization on model gradients).
double allreduce_sum(std::vector<Matrix>& per_device,
                     const ClusterSpec& cluster);

}  // namespace adaqp
