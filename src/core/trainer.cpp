#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/race_checker.h"
#include "common/check.h"
#include "common/env.h"
#include "core/timing.h"
#include "gnn/loss.h"
#include "memory/alloc_track.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "pipeline/async_exchange.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"
#include "transport/transport.h"

namespace adaqp {

std::string method_name(Method method) {
  switch (method) {
    case Method::kVanilla: return "Vanilla";
    case Method::kAdaQP: return "AdaQP";
    case Method::kAdaQPUniform: return "AdaQP-Uniform";
    case Method::kPipeGCN: return "PipeGCN-like";
    case Method::kSancus: return "SANCUS-like";
  }
  return "?";
}

void EpochBreakdown::accumulate(const EpochBreakdown& other) {
  comm += other.comm;
  comp += other.comp;
  quant += other.quant;
  total += other.total;
}

namespace {

/// The policy table: the four choices that distinguish the five methods.
/// Layer math, exchange stages and accounting are shared by all of them.
enum class PlanKind { kFull32, kAssigner, kUniformRandom };

struct MethodPolicy {
  PlanKind plan;    ///< widths after the 32-bit warmup epoch
  bool overlap;     ///< central/marginal compute stages in the layer graph
  bool defer;       ///< PipeGCN: stale cross-epoch exchanges
  bool drift_skip;  ///< SANCUS: per-pair broadcast skipping, sequential cost
};

constexpr std::array<MethodPolicy, 5> kPolicies{{
    /* kVanilla      */ {PlanKind::kFull32, false, false, false},
    /* kAdaQP        */ {PlanKind::kAssigner, true, false, false},
    /* kAdaQPUniform */ {PlanKind::kUniformRandom, true, false, false},
    /* kPipeGCN      */ {PlanKind::kFull32, false, true, false},
    /* kSancus       */ {PlanKind::kFull32, false, false, true},
}};

static_assert(kPolicies.size() == static_cast<std::size_t>(Method::kSancus) + 1,
              "one policy row per Method, in enum order");

constexpr MethodPolicy policy_of(Method method) {
  return kPolicies[static_cast<std::size_t>(method)];
}

/// Ring allreduce time for `bytes` of model gradients (numerics are already
/// exact because devices share one weight/grad store).
double allreduce_seconds(const ClusterSpec& cluster, std::size_t bytes) {
  const int n = cluster.num_devices();
  if (n <= 1) return 0.0;
  double worst_theta = 0.0, worst_gamma = 0.0;
  for (int d = 0; d < n; ++d) {
    const LinkParams l = cluster.link(d, (d + 1) % n);
    worst_theta = std::max(worst_theta, l.theta);
    worst_gamma = std::max(worst_gamma, l.gamma);
  }
  const double chunk = static_cast<double>(bytes) / n;
  return 2.0 * (n - 1) * (worst_theta * chunk + worst_gamma);
}

/// Copy `src` into `dst` reusing dst's capacity (Matrix copy-assignment
/// would too, but this keeps the reshape explicit).
void copy_matrix_into(const Matrix& src, Matrix& dst) {
  dst.reshape_uninit(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), dst.data());
}

// ---- Race-checker annotations (ADAQP_RACECHECK) ---------------------------
//
// The compute stages of the overlapped forward/backward graphs declare their
// row intervals so the checker can prove the central/marginal split and the
// exchange stages never touch the same bytes unordered. Lists are built only
// when the checker is enabled.

using analysis::AccessList;
using analysis::BufferAccess;

constexpr auto kRcRead = BufferAccess::Mode::kRead;
constexpr auto kRcWrite = BufferAccess::Mode::kWrite;

void rc_rows(AccessList& out, const Matrix& m, std::span<const NodeId> rows,
             BufferAccess::Mode mode, const std::string& label) {
  analysis::append_row_set(out, m.data(), m.cols() * sizeof(float),
                           rows.data(), rows.size(), mode, label);
}

BufferAccess rc_row_range(const Matrix& m, std::size_t row_begin,
                          std::size_t row_end, BufferAccess::Mode mode,
                          std::string label) {
  return analysis::row_range(m.data(), m.cols() * sizeof(float), row_begin,
                             row_end, mode, std::move(label));
}

}  // namespace

DistTrainer::DistTrainer(const Dataset& dataset, const DistGraph& dist,
                         const ClusterSpec& cluster,
                         const ModelConfig& model_config,
                         const TrainOptions& opts)
    : dataset_(dataset),
      dist_(dist),
      cluster_(cluster),
      opts_(opts),
      master_rng_(opts.seed),
      model_(model_config, master_rng_),
      adam_(opts.adam) {
  const MethodPolicy policy = policy_of(opts_.method);
  num_devices_ = dist_.num_devices();
  num_layers_ = model_.num_layers();
  async_pipeline_ = pipeline::async_enabled();
  ADAQP_CHECK(cluster_.num_devices() == num_devices_);
  ADAQP_CHECK(model_config.in_dim == dataset.spec.feature_dim);
  overlap_ = policy.overlap &&
             std::any_of(dist_.devices.begin(), dist_.devices.end(),
                         [](const DeviceGraph& d) { return d.num_halo > 0; });

  for (int d = 0; d < num_devices_; ++d)
    device_rngs_.push_back(master_rng_.split());

  features_ = scatter_to_devices(dataset_.features, dist_);

  // Per-device training rows, labels and targets.
  std::vector<std::uint8_t> is_train(dataset_.num_nodes(), 0);
  for (auto v : dataset_.train_nodes) is_train[v] = 1;
  global_train_count_ = static_cast<double>(dataset_.train_nodes.size());
  train_rows_.resize(num_devices_);
  train_labels_.resize(num_devices_);
  train_targets_.resize(num_devices_);
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    std::vector<std::uint32_t>& rows = train_rows_[d];
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const NodeId g = dev.global_of_local[i];
      if (!is_train[g]) continue;
      rows.push_back(static_cast<std::uint32_t>(i));
      train_labels_[d].push_back(dataset_.labels[g]);
    }
    if (dataset_.spec.multi_label) {
      Matrix targets(rows.size(), dataset_.num_classes());
      std::size_t at = 0;
      for (std::size_t i = 0; i < dev.num_owned; ++i) {
        const NodeId g = dev.global_of_local[i];
        if (!is_train[g]) continue;
        const auto src = dataset_.label_matrix.row(g);
        std::copy(src.begin(), src.end(), targets.row(at++).begin());
      }
      train_targets_[d] = std::move(targets);
    }
  }

  // Activation buffers and caches.
  acts_.resize(num_layers_ + 1);
  caches_.resize(num_layers_);
  acts_[0] = features_;
  for (int l = 1; l <= num_layers_; ++l) {
    const std::size_t dim = model_.layer_out_dim(l - 1);
    acts_[l].reserve(num_devices_);
    for (int d = 0; d < num_devices_; ++d)
      acts_[l].emplace_back(dist_.devices[d].num_local(), dim);
  }
  for (int l = 0; l < num_layers_; ++l) caches_[l].resize(num_devices_);

  // Plans: everything starts full-precision; quantizing methods refresh
  // after the first traced epoch.
  fwd_plans_.resize(num_layers_);
  bwd_plans_.resize(num_layers_);
  for (int l = 0; l < num_layers_; ++l) {
    fwd_plans_[l] = ExchangePlan::uniform_forward(dist_, 32);
    bwd_plans_[l] = ExchangePlan::uniform_backward(dist_, 32);
  }
  fwd_ranges_.assign(num_layers_,
                     std::vector<std::vector<float>>(num_devices_));
  bwd_ranges_.assign(num_layers_,
                     std::vector<std::vector<float>>(num_devices_));

  // One stage graph per (layer, direction), each on its own wire channel,
  // claimed in deterministic order so replicated ranks agree
  // (src/transport/) and no two exchanges of an epoch share a frame tag.
  for (int l = 0; l < num_layers_; ++l) {
    fwd_graphs_.push_back(std::make_unique<LayerGraph>());
    fwd_graphs_.back()->acct.channel = transport::next_channel();
    bwd_graphs_.push_back(std::make_unique<LayerGraph>());
    bwd_graphs_.back()->acct.channel = transport::next_channel();
  }

  if (policy.defer) {
    pipegcn_bwd_scratch_.resize(num_layers_);
    pipegcn_joined_comm_.assign(num_layers_, 0.0);
    for (int l = 1; l < num_layers_; ++l) {
      const std::size_t dim = model_.layer_in_dim(l);
      for (int d = 0; d < num_devices_; ++d)
        pipegcn_bwd_scratch_[l].emplace_back(dist_.devices[d].num_local(),
                                             dim);
    }
  }

  // ---- Memory subsystem: cache the stable param set and resolve every
  // pool key the training loop will use on the main thread, pre-warming the
  // capacities whose first natural use would otherwise fall in a
  // steady-state epoch (docs/ARCHITECTURE.md, "Memory subsystem").
  params_ = model_.params();
  grad_bytes_ = model_.grad_bytes();

  loss_sink_.resize(num_devices_);
  loss_prob_.resize(num_devices_);
  for (int d = 0; d < num_devices_; ++d) {
    loss_sink_[d] = &ws_.matrix(memory::Scratch::kLossGradSink, 0, d);
    loss_prob_[d] = &ws_.doubles(memory::Scratch::kLossProb, 0, d);
  }

  grad_flow_.resize(2);
  for (auto& flow : grad_flow_) flow.resize(num_devices_);
  bwd_sinks_.assign(num_layers_, std::vector<LayerGrads>(num_devices_));
  central_sinks_.assign(num_layers_, std::vector<LayerGrads>(num_devices_));
  bwd_scratch_.assign(num_layers_,
                      std::vector<LayerBackwardScratch>(num_devices_));
  // Register every metrics instrument now: the registry inserts on first
  // use, and first use must not land inside a steady-state epoch.
  (void)obs::instruments();

  if (policy.drift_skip) {
    // SANCUS first diffs against a previous broadcast in epoch 1, so
    // resolve and pre-size its drift scratch and send masks here.
    sancus_last_bcast_.assign(num_layers_, std::vector<Matrix>(num_devices_));
    sancus_staleness_.assign(num_layers_,
                             std::vector<int>(num_devices_, 1 << 20));
    sancus_snapshot_.resize(num_layers_);
    sancus_diff_.resize(num_layers_);
    const std::vector<std::vector<std::uint8_t>> all_send(
        num_devices_, std::vector<std::uint8_t>(num_devices_, 1));
    for (int l = 0; l < num_layers_; ++l) {
      fwd_graphs_[l]->acct.active = all_send;
      bwd_graphs_[l]->acct.active = all_send;
      const std::size_t dim = model_.layer_in_dim(l);
      for (int d = 0; d < num_devices_; ++d) {
        const std::size_t boundary = dist_.devices[d].boundary_span().size();
        Matrix& snap = ws_.matrix(memory::Scratch::kSancusSnapshot, l, d);
        Matrix& diff = ws_.matrix(memory::Scratch::kSancusDiff, l, d);
        snap.reshape_uninit(boundary, dim);
        diff.reshape_uninit(boundary, dim);
        sancus_snapshot_[l].push_back(&snap);
        sancus_diff_[l].push_back(&diff);
      }
    }
  }
}

double DistTrainer::compute_seconds(int layer, bool backward,
                                    bool central_only, int device) const {
  const DeviceGraph& dev = dist_.devices[device];
  // Precomputed index views — no per-call row-vector builds.
  const std::span<const NodeId> rows =
      central_only ? dev.central_span() : dev.owned_span();
  const std::size_t in = model_.layer_in_dim(layer);
  const std::size_t out = model_.layer_out_dim(layer);
  return backward ? layer_backward_seconds(cluster_, dev, rows, in, out)
                  : layer_forward_seconds(cluster_, dev, rows, in, out);
}

double DistTrainer::max_compute_seconds(int layer, bool backward,
                                        bool central_only) const {
  double m = 0.0;
  for (int d = 0; d < num_devices_; ++d)
    m = std::max(m, compute_seconds(layer, backward, central_only, d));
  return m;
}

double DistTrainer::marginal_compute_seconds_max(int layer,
                                                 bool backward) const {
  double m = 0.0;
  const std::size_t in = model_.layer_in_dim(layer);
  const std::size_t out = model_.layer_out_dim(layer);
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    const double s =
        backward
            ? layer_backward_seconds(cluster_, dev, dev.marginal_nodes, in, out)
            : layer_forward_seconds(cluster_, dev, dev.marginal_nodes, in, out);
    m = std::max(m, s);
  }
  return m;
}

DistTrainer::LayerGraph::~LayerGraph() {
  if (!pending || !graph.launched()) return;
  try {
    graph.wait();
  } catch (...) {
  }
}

DistTrainer::LayerGraph& DistTrainer::forward_graph(int l) {
  LayerGraph& g = *fwd_graphs_[l];
  if (g.built) return g;
  g.built = true;
  // Built once (warmup epoch 0, uniform 32-bit plan = maximal payloads),
  // re-armed in place forever after: the stage lambdas read fwd_plans_[l]
  // (stable address) at run time.
  pipeline::StageGraph& graph = g.graph;
  const std::string prefix = "L" + std::to_string(l);
  graph.set_label(prefix + "/forward");
  g.acct.init_storage(num_devices_);
  const pipeline::PairStages pair = pipeline::add_forward_exchange_stages(
      graph, dist_, acts_[l], fwd_plans_[l], g.acct);
  for (const auto& row : pair.stage)
    for (const int id : row)
      if (id >= 0) g.exchange_ids.push_back(id);

  if (overlap_) {
    // Per-pair encode/wire/decode stages run concurrently with per-device
    // central-row compute; each device's marginal rows wait on its inbound
    // messages (and on its own prepare/central stage, which sizes the shared
    // layer cache). Stage bodies write disjoint rows and use private RNG
    // streams, so every schedule is bit-identical to the whole-row forward.
    std::vector<int> central(num_devices_, -1);
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceGraph& dev = dist_.devices[d];
      const std::string dn = "d" + std::to_string(d);
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        // Central rows aggregate only owned neighbors (layers.h), so the
        // read never touches the halo rows the fwd stages are decoding into.
        acc.push_back(rc_row_range(acts_[l][d], 0, dev.num_owned, kRcRead,
                                   "x[" + dn + "].owned_rows"));
        rc_rows(acc, acts_[l + 1][d], dev.central_span(), kRcWrite,
                "h[" + dn + "].central_rows");
        acc.push_back(analysis::write_of(&caches_[l][d], sizeof(caches_[l][d]),
                                         "cache[" + dn + "]"));
        acc.push_back(analysis::write_of(&device_rngs_[d],
                                         sizeof(device_rngs_[d]),
                                         "rng[" + dn + "]"));
      }
      central[d] = graph.add(
          prefix + "/central/" + dn,
          [this, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            const GnnLayer& layer = model_.layer(l);
            layer.forward_prepare(device, caches_[l][d], device_rngs_[d],
                                  /*training=*/true);
            layer.forward_rows(device, acts_[l][d], acts_[l + 1][d],
                               caches_[l][d], device.central_span());
          },
          {}, std::move(acc));
    }
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceGraph& dev = dist_.devices[d];
      const std::string dn = "d" + std::to_string(d);
      std::vector<int> deps{central[d]};
      for (int p : dev.halo_senders)
        if (pair.stage[p][d] >= 0) deps.push_back(pair.stage[p][d]);
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        // Marginal rows aggregate halo neighbors too, so the read covers the
        // whole local matrix — the deps on this device's inbound decodes are
        // exactly what orders it.
        acc.push_back(rc_row_range(acts_[l][d], 0, dev.num_local(), kRcRead,
                                   "x[" + dn + "].local_rows"));
        rc_rows(acc, acts_[l + 1][d], dev.marginal_span(), kRcWrite,
                "h[" + dn + "].marginal_rows");
        acc.push_back(analysis::write_of(&caches_[l][d], sizeof(caches_[l][d]),
                                         "cache[" + dn + "]"));
      }
      graph.add(
          prefix + "/marginal/" + dn,
          [this, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            model_.layer(l).forward_rows(device, acts_[l][d], acts_[l + 1][d],
                                         caches_[l][d],
                                         device.marginal_span());
          },
          deps, std::move(acc));
    }
    // The central compute is what the wire stages should hide under: their
    // stage timestamps yield the realized overlap in the metrics report.
    g.compute_ids = central;
  }
  // Warm the staging the 32-bit warmup rounds never touch: quantized
  // rounds draw per-column stochastic-rounding uniforms.
  g.acct.warm(dist_, fwd_plans_[l], /*forward=*/true, model_.layer_in_dim(l));
  return g;
}

DistTrainer::LayerGraph& DistTrainer::backward_graph(int l) {
  LayerGraph& g = *bwd_graphs_[l];
  if (g.built) return g;
  g.built = true;
  // The stage lambdas capture the grad_flow_ ping-pong vectors by
  // reference; their parity is fixed per layer, so the very same objects
  // carry this layer's gradients every epoch. PipeGCN's deferred rounds
  // ship a staged copy of the halo rows instead, so its graphs bind the
  // per-layer staging scratch.
  std::vector<Matrix>& grads = grad_flow_[(num_layers_ - 1 - l) & 1];
  std::vector<Matrix>& grad_x = policy_of(opts_.method).defer
                                    ? pipegcn_bwd_scratch_[l]
                                    : grad_flow_[(num_layers_ - l) & 1];
  const std::size_t in_dim = model_.layer_in_dim(l);
  pipeline::StageGraph& graph = g.graph;
  const std::string prefix = "L" + std::to_string(l) + "b";
  graph.set_label(prefix + "/backward");
  g.acct.init_storage(num_devices_);

  // Overlapped backward: determinism at any schedule comes from the same
  // rules as the forward split — disjoint writes per stage (marginal
  // adjoints are the sole writers of halo gradient rows; central adjoints
  // write owned rows after them), per-pair RNG streams derived serially per
  // epoch, owner accumulation folding senders ascending, and one serial fold
  // stage applying per-(device, subset) partials in ascending device order,
  // marginal before central.
  const GnnLayer& layer = model_.layer(l);
  std::vector<LayerGrads>& marginal_sinks = bwd_sinks_[l];
  std::vector<LayerGrads>& central_sinks = central_sinks_[l];
  std::vector<int> central;
  pipeline::BackwardStageDeps deps;
  if (overlap_) {
    std::vector<int> marginal(num_devices_, -1);
    central.assign(num_devices_, -1);
    std::vector<int> trace(num_devices_, -1);
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceGraph& dev = dist_.devices[d];
      const std::string dn = "d" + std::to_string(d);
      // Marginal-row adjoint: produces every halo gradient row this device
      // will ship, unblocking its encode stages. Marginal and central share
      // the per-(layer, device) scratch — they are serialized per device.
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        // The marginal adjoint scatters into neighbors of marginal rows —
        // owned and halo rows alike — so its write claims the whole local
        // gradient matrix; everything downstream is ordered behind it.
        acc.push_back(rc_row_range(grads[d], 0, dev.num_local(), kRcRead,
                                   "grad_out[" + dn + "]"));
        acc.push_back(rc_row_range(grad_x[d], 0, dev.num_local(), kRcWrite,
                                   "grad[" + dn + "].local_rows"));
        acc.push_back(analysis::read_of(&caches_[l][d], sizeof(caches_[l][d]),
                                        "cache[" + dn + "]"));
        acc.push_back(analysis::read_of(&layer, sizeof(layer), "layer"));
        acc.push_back(analysis::write_of(&marginal_sinks[d],
                                         sizeof(marginal_sinks[d]),
                                         "marginal_sinks[" + dn + "]"));
        acc.push_back(analysis::write_of(&bwd_scratch_[l][d],
                                         sizeof(bwd_scratch_[l][d]),
                                         "bwd_scratch[" + dn + "]"));
      }
      marginal[d] = graph.add(
          prefix + "/marginal/" + dn,
          [this, &grads, &grad_x, &marginal_sinks, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            model_.layer(l).backward_rows(device, grads[d], caches_[l][d],
                                          grad_x[d], marginal_sinks[d],
                                          device.marginal_span(),
                                          bwd_scratch_[l][d]);
          },
          {}, std::move(acc));
    }
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceGraph& dev = dist_.devices[d];
      const std::string dn = "d" + std::to_string(d);
      // Central-row adjoint: owned-row writes only — this is the compute
      // that runs while the halo-gradient exchange is on the wire.
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        acc.push_back(rc_row_range(grads[d], 0, dev.num_local(), kRcRead,
                                   "grad_out[" + dn + "]"));
        acc.push_back(rc_row_range(grad_x[d], 0, dev.num_owned, kRcWrite,
                                   "grad[" + dn + "].owned_rows"));
        acc.push_back(analysis::read_of(&caches_[l][d], sizeof(caches_[l][d]),
                                        "cache[" + dn + "]"));
        acc.push_back(analysis::read_of(&layer, sizeof(layer), "layer"));
        acc.push_back(analysis::write_of(&central_sinks[d],
                                         sizeof(central_sinks[d]),
                                         "central_sinks[" + dn + "]"));
        // Shared with this device's marginal adjoint (staging matrices and
        // the transposed weight); the dep on it is what orders the reuse.
        acc.push_back(analysis::write_of(&bwd_scratch_[l][d],
                                         sizeof(bwd_scratch_[l][d]),
                                         "bwd_scratch[" + dn + "]"));
      }
      central[d] = graph.add(
          prefix + "/central/" + dn,
          [this, &grads, &grad_x, &central_sinks, l, d] {
            const DeviceGraph& device = dist_.devices[d];
            model_.layer(l).backward_rows(device, grads[d], caches_[l][d],
                                          grad_x[d], central_sinks[d],
                                          device.central_span(),
                                          bwd_scratch_[l][d]);
          },
          {marginal[d]}, std::move(acc));
    }
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceGraph& dev = dist_.devices[d];
      const std::string dn = "d" + std::to_string(d);
      // Assigner range trace: needs the complete local adjoint but must
      // precede the exchange's mutations (owner accumulate, halo zero). The
      // stage stays in the persistent graph every epoch; its body only
      // traces on epochs whose plan refresh reads the ranges.
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        acc.push_back(rc_row_range(grad_x[d], 0, dev.num_local(), kRcRead,
                                   "grad[" + dn + "].local_rows"));
        acc.push_back(analysis::read_of(&trace_ranges_, sizeof(trace_ranges_),
                                        "trace_gate"));
        acc.push_back(analysis::write_of(&bwd_ranges_[l][d],
                                         sizeof(bwd_ranges_[l][d]),
                                         "bwd_ranges[" + dn + "]"));
      }
      trace[d] = graph.add(
          prefix + "/trace/" + dn,
          [this, &grad_x, l, d] {
            if (trace_ranges_)
              row_ranges_of_into(grad_x[d], bwd_ranges_[l][d]);
          },
          {central[d]}, std::move(acc));
    }
    deps.encode = marginal;     // halo rows are complete
    deps.accumulate = trace;    // owner's own owned-row writes are complete
    deps.zero = trace;          // last halo-row reader is done
  }
  const pipeline::PairStages wire = pipeline::add_backward_exchange_stages(
      graph, dist_, grad_x, bwd_plans_[l], g.acct, deps);
  // Wire stages: per-pair encodes + owner accumulates.
  for (const auto& row : wire.stage)
    for (const int id : row)
      if (id >= 0) g.exchange_ids.push_back(id);
  for (const int id : wire.owner_stage)
    if (id >= 0) g.exchange_ids.push_back(id);

  if (overlap_) {
    // Shared parameter-gradient fold: one serial stage, concurrent with the
    // wire stages, in fixed device-then-subset order.
    AccessList fold_acc;
    if (analysis::racecheck_enabled()) {
      fold_acc.push_back(analysis::write_of(&layer, sizeof(layer), "layer"));
      for (int d = 0; d < num_devices_; ++d) {
        const std::string dn = "d" + std::to_string(d);
        fold_acc.push_back(analysis::read_of(&marginal_sinks[d],
                                             sizeof(marginal_sinks[d]),
                                             "marginal_sinks[" + dn + "]"));
        fold_acc.push_back(analysis::read_of(&central_sinks[d],
                                             sizeof(central_sinks[d]),
                                             "central_sinks[" + dn + "]"));
      }
    }
    const int fold_id = graph.add(
        prefix + "/fold",
        [this, &marginal_sinks, &central_sinks, l] {
          for (int d = 0; d < num_devices_; ++d) {
            model_.layer(l).apply_grads(marginal_sinks[d]);
            model_.layer(l).apply_grads(central_sinks[d]);
          }
        },
        central, std::move(fold_acc));
    // The compute running while the wire stages are in flight: central
    // adjoints + the fold.
    g.compute_ids = central;
    g.compute_ids.push_back(fold_id);
  }
  // Warm the quantized rounds' uniform staging (the 32-bit build-epoch
  // rounds never draw any) and the owner-side decode accumulators.
  g.acct.warm(dist_, bwd_plans_[l], /*forward=*/false, in_dim);
  return g;
}

void DistTrainer::run_layer_graph(LayerGraph& g, int layer, bool forward) {
  // Same per-pair RNG streams as a fresh build, re-armed graph; no
  // allocation once built.
  g.acct.init(num_devices_, device_rngs_);
  g.graph.reset();
  g.graph.run(async_pipeline_);
  finish_layer_graph(g, layer, forward);
  capture_overlap(g, forward);
  capture_profile_segment(g.graph, layer, forward);
}

void DistTrainer::finish_layer_graph(const LayerGraph& g, int layer,
                                     bool forward) {
  pipeline::finalize_exchange_stats_into(g.acct, dist_, cluster_,
                                         stats_scratch_);
  total_comm_bytes_ += stats_scratch_.total_bytes();
  // Deferred traffic lands in the epoch row of the epoch that *joins* it
  // (one after the launch); the end-of-run drain past the last epoch only
  // feeds the global counters.
  capture_exchange_stats(stats_scratch_);
  if (forward && layer == 0)
    last_layer1_pair_bytes_ = stats_scratch_.pair_bytes;
}

void DistTrainer::launch_deferred(LayerGraph& g) {
  ADAQP_CHECK_MSG(!g.pending, "deferred round launched before its join");
  g.acct.init(num_devices_, device_rngs_);
  g.graph.reset();
  g.launch_us = obs::monotonic_us();
  if (async_pipeline_) g.graph.launch();
  g.pending = true;
}

double DistTrainer::join_deferred(LayerGraph& g, int layer, bool forward) {
  if (!g.pending) return 0.0;
  g.pending = false;
  if (async_pipeline_)
    g.graph.wait();
  else
    g.graph.run_serial();
  // The latency covers the whole in-flight window — across the iteration
  // boundary, not just the time blocked here.
  obs::instruments().exchange_submit_to_join_us.record(obs::monotonic_us() -
                                                       g.launch_us);
  finish_layer_graph(g, layer, forward);
  return stats_scratch_.comm_seconds;
}

EpochBreakdown DistTrainer::compose_time(int layer, bool backward,
                                         bool overlap) const {
  const ExchangeStats& stats = stats_scratch_;
  EpochBreakdown bd;
  if (policy_of(opts_.method).drift_skip) {
    // Sequential broadcast (the inefficiency the paper calls out in §5.1):
    // every message pays its own transfer; skipped pairs cost nothing.
    for (int d = 0; d < num_devices_; ++d)
      for (int p = 0; p < num_devices_; ++p)
        bd.comm += cluster_.transfer_seconds(d, p, stats.pair_bytes[d][p]);
  } else {
    bd.comm = stats.comm_seconds;
  }
  // Quantize / de-quantize kernels never hide (Fig. 10a); with overlap the
  // central compute hides inside the comm window and marginal compute
  // follows it.
  const double tq = stats.max_quant_seconds();
  const double tdq = stats.max_dequant_seconds();
  bd.quant = tq + tdq;
  if (overlap) {
    const double central_s = max_compute_seconds(layer, backward, true);
    bd.comp = marginal_compute_seconds_max(layer, backward);
    bd.total = tq + std::max(bd.comm, central_s) + tdq + bd.comp;
  } else {
    bd.comp = max_compute_seconds(layer, backward, false);
    bd.total = tq + bd.comm + tdq + bd.comp;
  }
  return bd;
}

void DistTrainer::sancus_drift_pass(int l) {
  auto& fwd_send = fwd_graphs_[l]->acct.active;  // [sender][receiver]
  auto& bwd_send = bwd_graphs_[l]->acct.active;
  for (int d = 0; d < num_devices_; ++d) {
    // This device's outgoing boundary rows (precomputed union view).
    const std::span<const NodeId> boundary = dist_.devices[d].boundary_span();
    Matrix& snapshot = *sancus_snapshot_[l][d];
    snapshot.reshape_uninit(boundary.size(), acts_[l][d].cols());
    for (std::size_t i = 0; i < boundary.size(); ++i) {
      const auto src = acts_[l][d].row(boundary[i]);
      std::copy(src.begin(), src.end(), snapshot.row(i).begin());
    }
    bool bcast = true;
    if (sancus_staleness_[l][d] < opts_.sancus_max_staleness &&
        sancus_last_bcast_[l][d].same_shape(snapshot)) {
      const double base = sancus_last_bcast_[l][d].frobenius_norm();
      Matrix& diff = *sancus_diff_[l][d];
      copy_matrix_into(snapshot, diff);
      diff.axpy_inplace(-1.0f, sancus_last_bcast_[l][d]);
      const double drift = diff.frobenius_norm() / (base + 1e-12);
      bcast = drift > opts_.sancus_drift_threshold;
    }
    if (bcast) {
      sancus_staleness_[l][d] = 0;
      // Copy, not move: the snapshot is pooled scratch and must keep its
      // buffer for the next epoch.
      copy_matrix_into(snapshot, sancus_last_bcast_[l][d]);
    } else {
      sancus_staleness_[l][d]++;
    }
    // Forward: d ships its rows to every peer only when it broadcasts.
    // Backward: remote gradients only flow toward owners that broadcast
    // fresh embeddings this epoch; contributions to stale owners are dropped
    // (the gradient bias that slows SANCUS's convergence).
    for (int p = 0; p < num_devices_; ++p) {
      fwd_send[d][p] = bcast;
      bwd_send[p][d] = bcast;
    }
  }
}

EpochBreakdown DistTrainer::forward_layer(int l) {
  const MethodPolicy policy = policy_of(opts_.method);
  // PipeGCN's cold epoch runs Vanilla's shape; once warm, layer l computes
  // with the halo rows its deferred exchange delivered.
  const bool deferred = policy.defer && pipegcn_warm_;
  double joined_comm = 0.0;
  if (deferred) {
    // Cross-iteration joins first: layer l's compute reads the halo rows
    // the pending deferred exchange of layer l delivers, and *writes* the
    // owned rows of acts_[l + 1] that the next pending exchange's encode
    // stages read — both must be joined before the trace below touches
    // acts_[l]. Join time is stashed per slot and consumed by the slot's own
    // layer, so each layer's breakdown reports its own exchange regardless
    // of where the join happened.
    const auto join = [&](int slot) {
      pipegcn_joined_comm_[slot] +=
          join_deferred(*fwd_graphs_[slot], slot, /*forward=*/true);
    };
    join(l);
    if (l + 1 < num_layers_) join(l + 1);
    joined_comm = pipegcn_joined_comm_[l];
    pipegcn_joined_comm_[l] = 0.0;
  }
  // Trace input ranges for the assigner before any halo row of this layer's
  // input is rewritten — only on epochs whose plan refresh reads them.
  if (trace_ranges_)
    run_device_tasks([&](int d) {
      row_ranges_of_into(acts_[l][d], fwd_ranges_[l][d]);
    });

  const auto whole_rows = [&] {
    // Each simulated device's layer compute is one task on the pool: it
    // touches only its own activations, cache and Rng stream.
    run_device_tasks([&](int d) {
      model_.layer(l).forward(dist_.devices[d], acts_[l][d], acts_[l + 1][d],
                              caches_[l][d], device_rngs_[d],
                              /*training=*/true);
    });
  };
  if (deferred) {
    // The round launched last epoch stayed in flight across the iteration
    // boundary, overlapping the rest of last epoch (later layers, backward,
    // Adam, evaluation) and this epoch's earlier layers; its comm time hides
    // inside computation. Ship this epoch's (already-consumed) inputs the
    // same way, so next epoch's halos are one epoch stale. fwd_plans_[l]
    // stays uniform 32-bit for PipeGCN, stable while the round is in flight.
    whole_rows();
    launch_deferred(forward_graph(l));
    EpochBreakdown bd;
    bd.comm = joined_comm;
    bd.comp = max_compute_seconds(l, false, false);
    bd.total = std::max(bd.comp, bd.comm);
    return bd;
  }
  if (policy.drift_skip) sancus_drift_pass(l);
  run_layer_graph(forward_graph(l), l, /*forward=*/true);
  if (!overlap_) whole_rows();
  return compose_time(l, /*backward=*/false, overlap_);
}

EpochBreakdown DistTrainer::forward_pass(double& loss) {
  EpochBreakdown total;
  for (int l = 0; l < num_layers_; ++l) total.accumulate(forward_layer(l));

  // Loss values only (gradients handled in backward_pass); per-device terms
  // computed concurrently into epoch-arena scratch, reduced in ascending
  // device order. The gradient sink is pooled per device and re-zeroed
  // because the losses accumulate into it.
  double* device_loss =
      ws_.arena().span<double>(static_cast<std::size_t>(num_devices_));
  run_device_tasks([&](int d) {
    Matrix& sink = *loss_sink_[d];
    sink.reshape_zero(acts_[num_layers_][d].rows(),
                      acts_[num_layers_][d].cols());
    if (!dataset_.spec.multi_label) {
      device_loss[d] = softmax_cross_entropy(
          acts_[num_layers_][d], train_rows_[d], train_labels_[d],
          global_train_count_, sink, *loss_prob_[d]);
    } else {
      device_loss[d] =
          bce_with_logits(acts_[num_layers_][d], train_rows_[d],
                          train_targets_[d], global_train_count_, sink);
    }
  });
  loss = 0.0;
  for (int d = 0; d < num_devices_; ++d) loss += device_loss[d];
  loss /= global_train_count_;
  return total;
}

EpochBreakdown DistTrainer::backward_layer(int l) {
  const MethodPolicy policy = policy_of(opts_.method);
  std::vector<Matrix>& grads = grad_flow_[(num_layers_ - 1 - l) & 1];
  std::vector<Matrix>& grad_x = grad_flow_[(num_layers_ - l) & 1];
  const bool overlap = overlap_ && l > 0;
  if (overlap) {
    // Zero-initialized: the row-subset adjoints accumulate, and the
    // exchange stage builder validates shapes at graph-build time.
    for (int d = 0; d < num_devices_; ++d)
      grad_x[d].reshape_zero(dist_.devices[d].num_local(),
                             model_.layer_in_dim(l));
  } else {
    // Whole-row backward into per-device gradient sinks, concurrently; the
    // shared parameter gradients are then reduced in ascending device
    // order so the epoch is deterministic at any thread count.
    // The input layer's gradient has no consumer: skip computing it.
    const GnnLayer& layer = model_.layer(l);
    const InputGrad input_grad = l > 0 ? InputGrad::kCompute : InputGrad::kSkip;
    run_device_tasks([&](int d) {
      layer.backward(dist_.devices[d], grads[d], caches_[l][d], grad_x[d],
                     bwd_sinks_[l][d], bwd_scratch_[l][d], input_grad);
    });
    for (int d = 0; d < num_devices_; ++d)
      model_.layer(l).apply_grads(bwd_sinks_[l][d]);
    EpochBreakdown bd;
    bd.comp = max_compute_seconds(l, true, false);
    bd.total = bd.comp;
    if (l == 0) return bd;  // no gradient leaves the input layer
    // Trace gradient ranges for the assigner before any mutation, on the
    // epochs whose plan refresh reads them.
    if (trace_ranges_)
      run_device_tasks([&](int d) {
        row_ranges_of_into(grad_x[d], bwd_ranges_[l][d]);
      });
    if (policy.defer) {
      bd.comm = pipegcn_backward(l, grad_x);
      bd.total = std::max(bd.comp, bd.comm);
      return bd;
    }
  }
  run_layer_graph(backward_graph(l), l, /*forward=*/false);
  return compose_time(l, /*backward=*/true, overlap);
}

EpochBreakdown DistTrainer::backward_pass() {
  // Loss gradients wrt logits — one device task each (disjoint outputs).
  // Gradients flow through the two persistent ping-pong buffer sets: at
  // layer l, the incoming grad lives in grad_flow_[(num_layers_-1-l) % 2]
  // and the input grad in the other — fixed per layer across epochs, which
  // is what lets the persistent exchanges and stage graphs bind them once.
  std::vector<Matrix>& logits_grad = grad_flow_[0];
  run_device_tasks([&](int d) {
    Matrix& g = logits_grad[d];
    // reshape_zero, not uninit: the losses accumulate into their sink.
    g.reshape_zero(acts_[num_layers_][d].rows(),
                   acts_[num_layers_][d].cols());
    if (!dataset_.spec.multi_label) {
      softmax_cross_entropy(acts_[num_layers_][d], train_rows_[d],
                            train_labels_[d], global_train_count_, g,
                            *loss_prob_[d]);
    } else {
      bce_with_logits(acts_[num_layers_][d], train_rows_[d], train_targets_[d],
                      global_train_count_, g);
    }
  });

  EpochBreakdown total;
  for (int l = num_layers_ - 1; l >= 0; --l)
    total.accumulate(backward_layer(l));
  return total;
}

double DistTrainer::pipegcn_backward(int l, std::vector<Matrix>& grad_x) {
  // Stale gradient pipeline as cross-iteration stages: the halo-row
  // gradients computed this epoch are staged into the persistent per-layer
  // scratch and shipped by an exchange that stays in flight while the
  // remaining backward layers, Adam, evaluation and the next epoch's forward
  // run. Last epoch's in-flight exchange is joined here — its arrivals
  // (accumulated into the scratch owned rows by the bwd-acc stages) are the
  // remote contributions this epoch's owned rows receive.
  LayerGraph& g = backward_graph(l);  // binds pipegcn_bwd_scratch_[l]
  const bool had_pending = g.pending;
  const double comm = join_deferred(g, l, /*forward=*/false);
  std::vector<Matrix>& scratch = pipegcn_bwd_scratch_[l];
  for (int d = 0; d < num_devices_; ++d) {
    const DeviceGraph& dev = dist_.devices[d];
    if (had_pending) {
      for (std::size_t i = 0; i < dev.num_owned; ++i) {
        auto dst = grad_x[d].row(i);
        const auto src = scratch[d].row(i);
        for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
      }
    }
    // Re-stage: zero the owned rows the next exchange accumulates into,
    // copy this epoch's outbound halo contributions, then drop them locally
    // (they are being shipped).
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      auto row = scratch[d].row(i);
      std::fill(row.begin(), row.end(), 0.0f);
    }
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h) {
      const auto src = grad_x[d].row(h);
      std::copy(src.begin(), src.end(), scratch[d].row(h).begin());
      auto row = grad_x[d].row(h);
      std::fill(row.begin(), row.end(), 0.0f);
    }
  }
  launch_deferred(g);
  return comm;
}

void DistTrainer::capture_exchange_stats(const ExchangeStats& stats) {
  obs::EpochRow* row = capture_.row(epoch_);
  if (row == nullptr) return;
  row->messages += stats.messages;
  for (int d = 0; d < num_devices_; ++d)
    for (int p = 0; p < num_devices_; ++p) {
      const std::size_t bytes = stats.pair_bytes[d][p];
      if (bytes == 0) continue;
      const auto& by_width = stats.pair_width_bytes[d][p];
      for (int w = 0; w < obs::kNumWidths; ++w)
        row->wire_bytes[static_cast<std::size_t>(w)] +=
            by_width[static_cast<std::size_t>(w)];
      capture_.add_pair(epoch_, d, p, by_width, bytes);
    }
}

void DistTrainer::capture_overlap(const LayerGraph& g, bool forward) {
  obs::EpochRow* row = capture_.row(epoch_);
  if (row == nullptr || g.exchange_ids.empty() || g.compute_ids.empty())
    return;
  // Stage timestamps into the pre-reserved interval scratch; the interval
  // math mutates in place and never grows beyond the reserved capacity.
  iv_exchange_.clear();
  iv_compute_.clear();
  for (const int id : g.exchange_ids)
    iv_exchange_.emplace_back(g.graph.stage_begin_us(id),
                              g.graph.stage_end_us(id));
  for (const int id : g.compute_ids)
    iv_compute_.emplace_back(g.graph.stage_begin_us(id),
                             g.graph.stage_end_us(id));
  obs::accumulate_overlap(iv_exchange_, iv_compute_,
                          forward ? row->fwd_overlap : row->bwd_overlap);
}

void DistTrainer::capture_profile_segment(const pipeline::StageGraph& graph,
                                          int layer, bool forward) {
  obs::ProfileCapture& prof = capture_.profile();
  obs::SegmentProfile* seg = prof.segment(epoch_, layer, forward);
  if (seg == nullptr || graph.size() == 0) return;
  // Rebuild the executed graph inside the pre-sized DAG scratch: names,
  // timestamps and declared dependency edges, plus this layer-epoch's
  // modeled quantize : comm : dequantize split so the exchange stages can be
  // attributed across encode/wire/decode. stats_scratch_ holds exactly this
  // segment's exchange stats (finalized just before).
  obs::ProfileDag& dag = prof.dag();
  dag.clear();
  dag.set_exchange_model(stats_scratch_.max_quant_seconds(),
                         stats_scratch_.comm_seconds,
                         stats_scratch_.max_dequant_seconds());
  const int n = static_cast<int>(graph.size());
  for (int id = 0; id < n; ++id) {
    const std::string& name = graph.stage_name(id);
    dag.add_stage(&name, name, graph.stage_begin_us(id),
                  graph.stage_end_us(id));
  }
  for (int id = 0; id < n; ++id)
    for (const int dep : graph.stage_deps(id)) dag.add_dep(id, dep);
  seg->layer = layer;
  seg->forward = forward;
  dag.compute(*seg, prof.pair_seconds(epoch_), num_devices_);

  // With a trace active, draw the segment's critical path as flow arrows
  // between the recorded stage spans (trace-enabled epochs are outside the
  // steady-state contract, so the recorder may allocate).
  pipeline::TraceRecorder& rec = pipeline::TraceRecorder::instance();
  if (!rec.enabled()) return;
  const int cp = std::min(seg->cp_stages, obs::kMaxCpStages);
  for (int i = 0; i + 1 < cp; ++i) {
    const std::string* from = seg->cp_names[static_cast<std::size_t>(i)];
    const std::string* to = seg->cp_names[static_cast<std::size_t>(i + 1)];
    if (from == nullptr || to == nullptr) continue;
    // Anchor each endpoint at the midpoint of its stage span so the flow
    // binds inside the recorded slice regardless of rounding.
    int from_id = -1;
    int to_id = -1;
    for (int id = 0; id < n; ++id) {
      if (&graph.stage_name(id) == from) from_id = id;
      if (&graph.stage_name(id) == to) to_id = id;
    }
    if (from_id < 0 || to_id < 0) continue;
    const double from_mid = rec.trace_ts(
        0.5 * (graph.stage_begin_us(from_id) + graph.stage_end_us(from_id)));
    const double to_mid = rec.trace_ts(
        0.5 * (graph.stage_begin_us(to_id) + graph.stage_end_us(to_id)));
    rec.record_flow(*from, from_mid, *to, to_mid);
  }
}

void DistTrainer::refresh_plans() {
  switch (policy_of(opts_.method).plan) {
    case PlanKind::kFull32:
      return;
    case PlanKind::kAssigner: {
      const Aggregator agg = model_.config().aggregator;
      for (int l = 0; l < num_layers_; ++l) {
        AssignReport report;
        fwd_plans_[l] = assign_bit_widths(dist_, cluster_, agg,
                                          Direction::kForward, fwd_ranges_[l],
                                          model_.layer_in_dim(l),
                                          opts_.assigner, &report);
        assign_seconds_ +=
            report.solve_wall_seconds + report.sim_gather_scatter_seconds;
      }
      for (int l = 1; l < num_layers_; ++l) {
        AssignReport report;
        bwd_plans_[l] = assign_bit_widths(dist_, cluster_, agg,
                                          Direction::kBackward, bwd_ranges_[l],
                                          model_.layer_in_dim(l),
                                          opts_.assigner, &report);
        assign_seconds_ +=
            report.solve_wall_seconds + report.sim_gather_scatter_seconds;
      }
      return;
    }
    case PlanKind::kUniformRandom:
      for (int l = 0; l < num_layers_; ++l)
        fwd_plans_[l] =
            sample_uniform_plan(dist_, Direction::kForward, master_rng_);
      for (int l = 1; l < num_layers_; ++l)
        bwd_plans_[l] =
            sample_uniform_plan(dist_, Direction::kBackward, master_rng_);
      return;
  }
}

EpochRecord DistTrainer::train_epoch() {
  EpochRecord rec;
  rec.epoch = epoch_;

  // Epoch-arena scratch from the previous epoch dies here; pooled and
  // persistent buffers keep their capacity (the steady-state contract,
  // docs/ARCHITECTURE.md "Memory subsystem").
  ws_.arena().reset();

  // Periodic bit-width (re-)assignment runs at the end of the traced
  // period. Decided up front: the assigner's refresh reads row ranges traced
  // during this very epoch, so the passes trace exactly when it will run.
  const MethodPolicy policy = policy_of(opts_.method);
  const bool refresh_now =
      policy.plan != PlanKind::kFull32 &&
      (epoch_ == 0 || (epoch_ + 1) % std::max(opts_.reassign_period, 1) == 0);
  trace_ranges_ = refresh_now && policy.plan == PlanKind::kAssigner;

  // Wall-clock phase stamps (obs::Stopwatch clock) ride along with the
  // allocation samples: modeled seconds (rec.time) and measured seconds
  // (last_wall_) come from the same phase boundaries. Observational only —
  // nothing below reads them back into the numerics.
  const double w0 = obs::monotonic_us();
  const std::uint64_t a0 = memory::alloc_count();
  for (Param* p : params_) p->grad.set_zero();
  double loss = 0.0;
  EpochBreakdown fwd = forward_pass(loss);
  const std::uint64_t a1 = memory::alloc_count();
  const double w1 = obs::monotonic_us();
  EpochBreakdown bwd = backward_pass();
  const std::uint64_t a2 = memory::alloc_count();
  const double w2 = obs::monotonic_us();
  rec.train_loss = loss;

  // Model-gradient synchronization (numerics already global; timing only).
  const double sync = allreduce_seconds(cluster_, grad_bytes_);
  adam_.step(params_);
  const std::uint64_t a3 = memory::alloc_count();
  const double w3 = obs::monotonic_us();

  rec.time = fwd;
  rec.time.accumulate(bwd);
  rec.time.comm += sync;
  rec.time.total += sync;

  if (policy.defer) pipegcn_warm_ = true;

  if (refresh_now) refresh_plans();
  const std::uint64_t a4 = memory::alloc_count();
  const double w4 = obs::monotonic_us();

  if (opts_.eval_every_epoch) {
    const auto [val, test] = evaluate();
    rec.val_acc = val;
    rec.test_acc = test;
  }
  const std::uint64_t a5 = memory::alloc_count();
  const double w5 = obs::monotonic_us();

  alloc_report_.forward = a1 - a0;
  alloc_report_.backward = a2 - a1;
  alloc_report_.optimizer = a3 - a2;
  alloc_report_.refresh = a4 - a3;
  alloc_report_.evaluation = a5 - a4;
  // The zero-allocation contract covers warm training epochs proper: plan
  // refreshes, evaluation and the observability modes are excluded (they
  // rebuild data structures by design).
  alloc_report_.steady_state =
      epoch_ > 0 && !refresh_now && !opts_.eval_every_epoch &&
      !opts_.verbose && !analysis::racecheck_enabled() &&
      !pipeline::TraceRecorder::instance().enabled() &&
      transport::active().zero_alloc_delivery();
  if (alloc_report_.steady_state && memory::track_enabled() &&
      alloc_report_.total() != 0) {
    throw std::runtime_error(
        "ADAQP_ALLOC_TRACK: steady-state epoch " + std::to_string(epoch_) +
        " allocated (forward=" + std::to_string(alloc_report_.forward) +
        " backward=" + std::to_string(alloc_report_.backward) +
        " optimizer=" + std::to_string(alloc_report_.optimizer) +
        " refresh=" + std::to_string(alloc_report_.refresh) +
        " evaluation=" + std::to_string(alloc_report_.evaluation) + "); " +
        std::string(memory::steady_state_definition()));
  }
  last_wall_.forward_s = (w1 - w0) * 1e-6;
  last_wall_.backward_s = (w2 - w1) * 1e-6;
  last_wall_.optimizer_s = (w3 - w2) * 1e-6;
  last_wall_.refresh_s = (w4 - w3) * 1e-6;
  last_wall_.evaluation_s = (w5 - w4) * 1e-6;
  obs::instruments().trainer_epochs.add(1);
  if (obs::EpochRow* row = capture_.row(epoch_)) {
    // Exchange traffic and overlap accumulated into this row during the
    // passes; the scalar epoch fields land here, all pre-allocated.
    row->epoch = epoch_;
    row->train_loss = rec.train_loss;
    row->val_acc = rec.val_acc;
    row->test_acc = rec.test_acc;
    row->sim_comm_s = rec.time.comm;
    row->sim_comp_s = rec.time.comp;
    row->sim_quant_s = rec.time.quant;
    row->sim_total_s = rec.time.total;
    row->wall = last_wall_;
    row->allocs_forward = alloc_report_.forward;
    row->allocs_backward = alloc_report_.backward;
    row->allocs_optimizer = alloc_report_.optimizer;
    row->allocs_refresh = alloc_report_.refresh;
    row->allocs_evaluation = alloc_report_.evaluation;
    row->steady_state = alloc_report_.steady_state;
  }
  // Profiler phase walls: the rollup decomposes forward+backward+optimizer
  // into critical-path categories + scheduling + serial glue. No-op unless
  // run() armed the profiler; writes pre-allocated storage only.
  capture_.profile().set_epoch_phases(epoch_, last_wall_.forward_s,
                                      last_wall_.backward_s,
                                      last_wall_.optimizer_s);
  // With a trace active, sample every registry counter/gauge once per epoch
  // so wire bytes and message counts render as counter tracks next to the
  // stage spans (trace-enabled epochs are outside the steady-state
  // contract).
  if (pipeline::TraceRecorder::instance().enabled()) {
    pipeline::TraceRecorder& rec_tr = pipeline::TraceRecorder::instance();
    rec_tr.record_registry_counters(rec_tr.now_us());
  }
  ++epoch_;
  return rec;
}

std::pair<double, double> DistTrainer::evaluate() {
  // Full-precision inference over private buffers (leaves training state —
  // notably PipeGCN's stale halos — untouched).
  std::vector<Matrix> x = features_;
  const auto plan32 = [&](int /*l*/) {
    return ExchangePlan::uniform_forward(dist_, 32);
  };
  std::vector<LayerCache> scratch(num_devices_);
  for (int l = 0; l < num_layers_; ++l) {
    exchange_halo_forward(dist_, x, plan32(l), cluster_, device_rngs_);
    std::vector<Matrix> next;
    next.reserve(num_devices_);
    for (int d = 0; d < num_devices_; ++d)
      next.emplace_back(dist_.devices[d].num_local(), model_.layer_out_dim(l));
    run_device_tasks([&](int d) {
      model_.layer(l).forward(dist_.devices[d], x[d], next[d], scratch[d],
                              device_rngs_[d], /*training=*/false);
    });
    x = std::move(next);
  }
  const Matrix logits =
      gather_from_devices(x, dist_, model_.config().out_dim);

  auto metric = [&](const std::vector<std::uint32_t>& nodes) {
    if (!dataset_.spec.multi_label) {
      std::vector<std::int32_t> labels(nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i)
        labels[i] = dataset_.labels[nodes[i]];
      return accuracy(logits, nodes, labels);
    }
    Matrix targets(nodes.size(), dataset_.num_classes());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto src = dataset_.label_matrix.row(nodes[i]);
      std::copy(src.begin(), src.end(), targets.row(i).begin());
    }
    return micro_f1(logits, nodes, targets);
  };
  return {metric(dataset_.val_nodes), metric(dataset_.test_nodes)};
}

RunResult DistTrainer::run() {
  RunResult result;
  result.method = method_name(opts_.method);
  result.model = model_.config().name();
  result.dataset = dataset_.spec.name;
  result.partition_setting = cluster_.partition_setting();

  // ADAQP_TRACE=<path>: record every pipeline stage of this run and write a
  // Chrome trace_event JSON there (open in chrome://tracing / Perfetto).
  const std::string trace_path = env::text("ADAQP_TRACE").value_or("");
  if (!trace_path.empty()) pipeline::TraceRecorder::instance().start();

  // ADAQP_METRICS=<path>: per-epoch run report (docs/OBSERVABILITY.md).
  // All capture storage is dimensioned here, before the first epoch —
  // steady-state epochs then record without allocating (test_memory gates
  // this with the variable set).
  const obs::ReportConfig metrics_cfg = obs::report_config();
  if (metrics_cfg.enabled) {
    capture_.init(opts_.epochs, num_devices_);
    const std::size_t nd = static_cast<std::size_t>(num_devices_);
    iv_exchange_.reserve(nd * nd + nd);   // pair stages + owner accumulates
    iv_compute_.reserve(nd + 1);          // central stages + fold
    // ADAQP_PROFILE (default on with metrics): critical-path profile rows
    // plus the shared DAG scratch, sized for the largest fused layer graph
    // — nd^2 pair stages, a handful of per-device stages, the fold — so
    // per-epoch capture stays allocation-free.
    if (obs::profile_enabled()) {
      const int max_stages = static_cast<int>(nd * nd + 6 * nd + 8);
      const int max_deps = max_stages * static_cast<int>(nd + 4);
      capture_.profile().init(opts_.epochs, num_layers_, num_devices_,
                              max_stages, max_deps);
    }
  }

  for (int e = 0; e < opts_.epochs; ++e) {
    EpochRecord rec = train_epoch();
    result.train_seconds += rec.time.total;
    result.avg_breakdown.accumulate(rec.time);
    result.best_val_acc = std::max(result.best_val_acc, rec.val_acc);
    if (opts_.verbose && (e % 10 == 0 || e + 1 == opts_.epochs))
      std::fprintf(stderr, "[%s] epoch %3d loss %.4f val %.4f (%.3fs sim)\n",
                   result.method.c_str(), e, rec.train_loss, rec.val_acc,
                   rec.time.total);
    result.epochs.push_back(std::move(rec));
  }
  // Drain the last epoch's still-in-flight PipeGCN deferred exchanges so
  // total_comm_bytes and the time accounting cover every exchange of the
  // run (there is no next-epoch compute left to hide the tail inside, so
  // its comm time is exposed). Identical in async and sync modes.
  if (policy_of(opts_.method).defer && !result.epochs.empty()) {
    EpochBreakdown tail;
    for (int l = 0; l < num_layers_; ++l) {
      tail.comm += join_deferred(*fwd_graphs_[l], l, /*forward=*/true);
      tail.comm += join_deferred(*bwd_graphs_[l], l, /*forward=*/false);
    }
    pipegcn_joined_comm_.assign(num_layers_, 0.0);
    if (tail.comm > 0.0) {
      tail.total = tail.comm;
      result.epochs.back().time.accumulate(tail);
      result.train_seconds += tail.total;
      result.avg_breakdown.accumulate(tail);
    }
  }
  if (!trace_path.empty()) {
    pipeline::TraceRecorder::instance().stop();
    if (!pipeline::TraceRecorder::instance().write_json(trace_path))
      std::fprintf(stderr, "[adaqp] could not write ADAQP_TRACE file %s\n",
                   trace_path.c_str());
  }
  const double n = static_cast<double>(std::max(opts_.epochs, 1));
  result.avg_breakdown.comm /= n;
  result.avg_breakdown.comp /= n;
  result.avg_breakdown.quant /= n;
  result.avg_breakdown.total /= n;
  result.assign_seconds = assign_seconds_;
  result.wall_clock_seconds = result.train_seconds + assign_seconds_;
  result.final_val_acc =
      result.epochs.empty() ? 0.0 : result.epochs.back().val_acc;
  result.final_test_acc =
      result.epochs.empty() ? 0.0 : result.epochs.back().test_acc;
  result.avg_epoch_seconds = result.train_seconds / n;
  result.throughput =
      result.avg_epoch_seconds > 0 ? 1.0 / result.avg_epoch_seconds : 0.0;
  result.total_comm_bytes = total_comm_bytes_;

  if (metrics_cfg.enabled) {
    obs::ReportMeta meta;
    meta.method = result.method;
    meta.model = result.model;
    meta.dataset = result.dataset;
    meta.partition = result.partition_setting;
    meta.devices = num_devices_;
    meta.layers = num_layers_;
    meta.threads = num_threads();
    // Host parallelism next to every overlap/speedup figure: hw threads <
    // requested threads means the schedule was oversubscribed and realized
    // overlap reflects time-slicing, not parallel hardware (machine-
    // readable form of the ROADMAP's measurement-gap caveat).
    meta.hardware_threads =
        static_cast<int>(std::thread::hardware_concurrency());
    meta.low_parallelism_host =
        meta.hardware_threads > 0 && meta.hardware_threads < meta.threads;
    meta.async = async_pipeline_;
    meta.epochs_requested = opts_.epochs;
    meta.sim_train_seconds = result.train_seconds;
    meta.assign_seconds = result.assign_seconds;
    meta.total_comm_bytes = total_comm_bytes_;
    if (!obs::write_report(capture_, meta, metrics_cfg))
      std::fprintf(stderr, "[adaqp] could not write ADAQP_METRICS report %s\n",
                   metrics_cfg.path.c_str());
  }
  return result;
}

RunResult run_training(const Dataset& dataset, const ClusterSpec& cluster,
                       Aggregator aggregator, const TrainOptions& opts,
                       std::size_t hidden_dim, const std::string& partitioner) {
  Rng rng(opts.seed * 7919 + 17);
  const auto part = make_partitioner(partitioner)
                        ->partition(dataset.graph, cluster.num_devices(), rng);
  const DistGraph dist = build_dist_graph(dataset.graph, part);

  ModelConfig mc;
  mc.aggregator = aggregator;
  mc.in_dim = dataset.spec.feature_dim;
  mc.hidden_dim = hidden_dim;
  mc.out_dim = dataset.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.5f;
  mc.layer_norm = true;

  DistTrainer trainer(dataset, dist, cluster, mc, opts);
  return trainer.run();
}

}  // namespace adaqp
