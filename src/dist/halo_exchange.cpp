#include "dist/halo_exchange.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "obs/stopwatch.h"
#include "pipeline/async_exchange.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"
#include "transport/transport.h"

namespace adaqp {

namespace {

ExchangePlan make_uniform_plan(const DistGraph& dist, int bit_width,
                               bool forward) {
  ADAQP_CHECK_MSG(is_valid_bit_width(bit_width),
                  "bit-width " << bit_width << " not in {2,4,8,32}");
  const int n = dist.num_devices();
  ExchangePlan plan;
  plan.bits.resize(n);
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    plan.bits[d].resize(n);
    for (int p = 0; p < n; ++p) {
      const auto& list = forward ? dev.send_local[p] : dev.recv_local[p];
      plan.bits[d][p].assign(list.size(), bit_width);
    }
  }
  return plan;
}

/// The synchronous entry points execute the same per-pair stages as the
/// trainer's layer graphs. With more than one pool thread the stages run
/// concurrently (the caller helps drain them); from inside a pool task or on
/// a 1-thread pool the serial reference schedule runs inline. Numerics are
/// identical either way.
bool parallel_exchange_ok() {
  return !ThreadPool::in_worker() && num_threads() > 1;
}

/// One exchange round over a local stage graph on a fresh wire channel:
/// derive the per-pair RNG streams, build the stages, run them, finalize.
template <typename AddStages>
ExchangeStats run_one_shot(const DistGraph& dist, const ClusterSpec& cluster,
                           std::vector<Rng>& rngs, const char* label,
                           const AddStages& add_stages) {
  const int n = dist.num_devices();
  ADAQP_CHECK(cluster.num_devices() == n);
  ADAQP_CHECK(static_cast<int>(rngs.size()) == n);
  pipeline::StageGraph graph;
  pipeline::ExchangeAccounting acct;
  // Deterministic call order makes replicated ranks agree on the channel
  // without negotiation (see transport::next_channel()).
  acct.channel = transport::next_channel();
  acct.init(n, rngs);
  graph.set_label(label);
  add_stages(graph, acct);
  const double start_us = obs::monotonic_us();
  graph.run(parallel_exchange_ok());
  obs::instruments().exchange_submit_to_join_us.record(obs::monotonic_us() -
                                                       start_us);
  return pipeline::finalize_exchange_stats(acct, dist, cluster);
}

}  // namespace

ExchangePlan ExchangePlan::uniform_forward(const DistGraph& dist,
                                           int bit_width) {
  return make_uniform_plan(dist, bit_width, /*forward=*/true);
}

ExchangePlan ExchangePlan::uniform_backward(const DistGraph& dist,
                                            int bit_width) {
  return make_uniform_plan(dist, bit_width, /*forward=*/false);
}

std::size_t ExchangeStats::total_bytes() const {
  std::size_t acc = 0;
  for (const auto& row : pair_bytes)
    for (std::size_t b : row) acc += b;
  return acc;
}

double ExchangeStats::max_quant_seconds() const {
  return quant_seconds.empty()
             ? 0.0
             : *std::max_element(quant_seconds.begin(), quant_seconds.end());
}

double ExchangeStats::max_dequant_seconds() const {
  return dequant_seconds.empty()
             ? 0.0
             : *std::max_element(dequant_seconds.begin(),
                                 dequant_seconds.end());
}

ExchangeStats exchange_halo_forward(const DistGraph& dist,
                                    std::vector<Matrix>& locals,
                                    const ExchangePlan& plan,
                                    const ClusterSpec& cluster,
                                    std::vector<Rng>& rngs) {
  return run_one_shot(
      dist, cluster, rngs, "halo-exchange/forward",
      [&](pipeline::StageGraph& graph, pipeline::ExchangeAccounting& acct) {
        pipeline::add_forward_exchange_stages(graph, dist, locals, plan, acct);
      });
}

ExchangeStats exchange_halo_backward(const DistGraph& dist,
                                     std::vector<Matrix>& grads,
                                     const ExchangePlan& plan,
                                     const ClusterSpec& cluster,
                                     std::vector<Rng>& rngs) {
  return run_one_shot(
      dist, cluster, rngs, "halo-exchange/backward",
      [&](pipeline::StageGraph& graph, pipeline::ExchangeAccounting& acct) {
        pipeline::add_backward_exchange_stages(graph, dist, grads, plan, acct);
      });
}

double allreduce_sum(std::vector<Matrix>& per_device,
                     const ClusterSpec& cluster) {
  const int n = static_cast<int>(per_device.size());
  ADAQP_CHECK(n >= 1 && cluster.num_devices() == n);
  if (n == 1) return 0.0;

  Matrix sum = per_device[0];
  for (int d = 1; d < n; ++d) {
    ADAQP_CHECK(per_device[d].same_shape(sum));
    sum.add_inplace(per_device[d]);
  }
  for (auto& m : per_device) m = sum;

  // Ring allreduce: 2(n-1) rounds of bytes/n chunks, straggler-paced by the
  // slowest ring link.
  const std::size_t bytes = sum.size() * sizeof(float);
  double worst_theta = 0.0, worst_gamma = 0.0;
  for (int d = 0; d < n; ++d) {
    const LinkParams l = cluster.link(d, (d + 1) % n);
    worst_theta = std::max(worst_theta, l.theta);
    worst_gamma = std::max(worst_gamma, l.gamma);
  }
  const double chunk = static_cast<double>(bytes) / n;
  return 2.0 * (n - 1) * (worst_theta * chunk + worst_gamma);
}

}  // namespace adaqp
