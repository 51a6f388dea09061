// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "gnn/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel_for.h"

namespace adaqp {

namespace {

constexpr std::size_t kRowGrain = 32;  ///< min rows per parallel band

/// Run fn(r) for every row of `rows` in parallel_for bands. Every caller
/// writes only row r of its outputs, so any banding is bit-identical to the
/// serial loop. Inside a pool task (every multi-device call) the region
/// runs inline as one band.
template <typename Fn>
void for_each_row(std::span<const NodeId> rows, const Fn& fn) {
  parallel_for(rows.size(), kRowGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(rows[i]);
  });
}

}  // namespace

LayerNorm::LayerNorm(std::size_t dim) : gamma(1, dim), beta(1, dim) { init(); }

void LayerNorm::init() {
  gamma.value.fill(1.0f);
  beta.value.fill(0.0f);
}

namespace {

/// One LayerNorm row of the forward.
inline void layer_norm_row(const Matrix& in, Matrix& out,
                           LayerNorm::Cache& cache, const Matrix& gamma,
                           const Matrix& beta, float epsilon, std::size_t r) {
  const std::size_t dim = in.cols();
  const auto x = in.row(r);
  double mean = 0.0;
  for (float v : x) mean += v;
  mean /= static_cast<double>(dim);
  double var = 0.0;
  for (float v : x) {
    const double d = v - mean;
    var += d * d;
  }
  var /= static_cast<double>(dim);
  const auto rstd = static_cast<float>(1.0 / std::sqrt(var + epsilon));
  cache.rstd[r] = rstd;
  auto xh = cache.normalized.row(r);
  auto y = out.row(r);
  for (std::size_t c = 0; c < dim; ++c) {
    xh[c] = (x[c] - static_cast<float>(mean)) * rstd;
    y[c] = xh[c] * gamma.data()[c] + beta.data()[c];
  }
}

/// One LayerNorm backward row of grad_in (dgamma / dbeta are a separate
/// span-order pass, see LayerNorm::backward_rows).
inline void layer_norm_backward_row(const Matrix& grad_out,
                                    const LayerNorm::Cache& cache,
                                    Matrix& grad_in, const Matrix& gamma,
                                    std::size_t r) {
  const std::size_t dim = grad_out.cols();
  const auto dy = grad_out.row(r);
  const auto xh = cache.normalized.row(r);
  auto dx = grad_in.row(r);
  double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    const double dxh = static_cast<double>(dy[c]) * gamma.data()[c];
    mean_dxhat += dxh;
    mean_dxhat_xhat += dxh * xh[c];
  }
  mean_dxhat /= static_cast<double>(dim);
  mean_dxhat_xhat /= static_cast<double>(dim);
  const float rstd = cache.rstd[r];
  for (std::size_t c = 0; c < dim; ++c) {
    const double dxh = static_cast<double>(dy[c]) * gamma.data()[c];
    dx[c] = static_cast<float>(
        rstd * (dxh - mean_dxhat - xh[c] * mean_dxhat_xhat));
  }
}

/// Columns per dγ/dβ band: one 64-byte line of each row.
constexpr std::size_t kColBand = 16;

/// Four float lanes (a GCC/Clang vector extension: one 128-bit register on
/// the base ISA). Lane-wise arithmetic is the scalar IEEE arithmetic.
using Lanes4 = float __attribute__((vector_size(16)));

inline Lanes4 load4(const float* p) {
  Lanes4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, Lanes4 v) { std::memcpy(p, &v, sizeof v); }

/// dγ/dβ of the 16 columns from c0, summed over `rows` in span order. The
/// band lives in registers for the whole walk and is stored once: bands
/// that accumulate in dgamma share cache lines with their neighbours.
inline void norm_param_band(const Matrix& grad_out, const Matrix& xhat,
                            std::span<const NodeId> rows, std::size_t c0,
                            float* dgamma, float* dbeta) {
  Lanes4 g[kColBand / 4];
  Lanes4 b[kColBand / 4];
  for (std::size_t k = 0; k < kColBand / 4; ++k) {
    g[k] = load4(dgamma + c0 + 4 * k);
    b[k] = load4(dbeta + c0 + 4 * k);
  }
  for (NodeId r : rows) {
    const float* dy = grad_out.row(r).data() + c0;
    const float* xh = xhat.row(r).data() + c0;
    for (std::size_t k = 0; k < kColBand / 4; ++k) {
      const Lanes4 d = load4(dy + 4 * k);
      g[k] += d * load4(xh + 4 * k);
      b[k] += d;
    }
  }
  for (std::size_t k = 0; k < kColBand / 4; ++k) {
    store4(dgamma + c0 + 4 * k, g[k]);
    store4(dbeta + c0 + 4 * k, b[k]);
  }
}

/// dγ/dβ of columns [c0, c1), summed over `rows` in span order in one walk
/// that accumulates in dgamma / dbeta: the whole row when no other band
/// runs, or the tail band.
inline void norm_param_cols(const Matrix& grad_out, const Matrix& xhat,
                            std::span<const NodeId> rows, std::size_t c0,
                            std::size_t c1, float* dgamma, float* dbeta) {
  float* __restrict dg = dgamma + c0;
  float* __restrict db = dbeta + c0;
  for (NodeId r : rows) {
    const float* __restrict dy = grad_out.row(r).data() + c0;
    const float* __restrict xh = xhat.row(r).data() + c0;
    for (std::size_t c = 0; c < c1 - c0; ++c) {
      dg[c] += dy[c] * xh[c];
      db[c] += dy[c];
    }
  }
}

}  // namespace

void LayerNorm::forward_rows(const Matrix& in, Matrix& out, Cache& cache,
                             std::span<const NodeId> rows) const {
  ADAQP_CHECK(gamma.value.cols() == in.cols());
  ADAQP_CHECK(out.same_shape(in));
  ADAQP_CHECK(cache.normalized.same_shape(in));
  ADAQP_CHECK(cache.rstd.size() >= in.rows());
  for_each_row(rows, [&](NodeId r) {
    layer_norm_row(in, out, cache, gamma.value, beta.value, epsilon, r);
  });
}

void LayerNorm::backward_rows(const Matrix& grad_out, const Cache& cache,
                              Matrix& grad_in, Matrix& dgamma, Matrix& dbeta,
                              std::span<const NodeId> rows) const {
  const std::size_t dim = grad_out.cols();
  ADAQP_CHECK(cache.normalized.same_shape(grad_out));
  ADAQP_CHECK(grad_in.same_shape(grad_out));
  if (dgamma.rows() != 1 || dgamma.cols() != dim) dgamma.reshape_zero(1, dim);
  if (dbeta.rows() != 1 || dbeta.cols() != dim) dbeta.reshape_zero(1, dim);
  for_each_row(rows, [&](NodeId r) {
    layer_norm_backward_row(grad_out, cache, grad_in, gamma.value, r);
  });
  // dγ += Σ_r dy⊙x̂ ; dβ += Σ_r dy in 16-column bands: each column sums its
  // rows in span order, so any banding is bit-identical to one serial pass.
  // A chunk that holds every band (1 thread, or inside a pool task) walks
  // the rows once over all columns instead.
  const std::size_t bands = (dim + kColBand - 1) / kColBand;
  float* dg = dgamma.data();
  float* db = dbeta.data();
  parallel_for(bands, 1, [&](std::size_t lo, std::size_t hi) {
    if (lo == 0 && hi == bands) {
      norm_param_cols(grad_out, cache.normalized, rows, 0, dim, dg, db);
      return;
    }
    for (std::size_t c0 = lo * kColBand; c0 < hi * kColBand; c0 += kColBand) {
      if (dim - c0 >= kColBand)
        norm_param_band(grad_out, cache.normalized, rows, c0, dg, db);
      else
        norm_param_cols(grad_out, cache.normalized, rows, c0, dim, dg, db);
    }
  });
}

void epilogue_adjoint_rows(const Matrix& grad_out, const Matrix& drop_mask,
                           const Matrix& pre_act, Matrix& dst,
                           std::span<const NodeId> rows) {
  const std::size_t dim = pre_act.cols();
  ADAQP_CHECK(grad_out.cols() == dim && drop_mask.same_shape(pre_act));
  ADAQP_CHECK(dst.same_shape(pre_act));
  for_each_row(rows, [&](NodeId r) {
    const float* __restrict dy = grad_out.row(r).data();
    const float* __restrict m = drop_mask.row(r).data();
    const float* __restrict pre = pre_act.row(r).data();
    float* __restrict out = dst.row(r).data();
    for (std::size_t c = 0; c < dim; ++c) {
      // The select as a mask: all-ones keeps dpost's bits (-0, inf and NaN
      // included), zero (pre <= 0 or NaN) gives +0. Written as a ternary it
      // compiles to a compare-and-branch per element, which mispredicts on
      // about half of the LayerNorm outputs.
      const float dpost = dy[c] * m[c];
      const std::uint32_t keep = -static_cast<std::uint32_t>(pre[c] > 0.0f);
      out[c] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(dpost) & keep);
    }
  });
}

GnnLayer::GnnLayer(const LayerConfig& config)
    : config_(config),
      weight_(config.in_dim, config.out_dim),
      weight_self_(config.aggregator == Aggregator::kSageMean ? config.in_dim
                                                              : 0,
                   config.aggregator == Aggregator::kSageMean ? config.out_dim
                                                              : 0),
      norm_(config.out_dim) {
  ADAQP_CHECK(config.in_dim > 0 && config.out_dim > 0);
}

void GnnLayer::init_weights(Rng& rng) {
  weight_.value.fill_glorot(rng);
  if (weight_self_.size() > 0) weight_self_.value.fill_glorot(rng);
  norm_.init();
}

void GnnLayer::forward(const DeviceGraph& dev, const Matrix& x_local,
                       Matrix& out, LayerCache& cache, Rng& rng,
                       bool training) const {
  forward_prepare(dev, cache, rng, training);
  std::vector<NodeId> scratch;
  forward_rows(dev, x_local, out, cache, dev.owned_span_or(scratch));
}

void GnnLayer::forward_prepare(const DeviceGraph& dev, LayerCache& cache,
                               Rng& rng, bool training) const {
  const std::size_t owned = dev.num_owned;
  if (!cache.agg_plan)
    cache.agg_plan = std::make_shared<const AggregatePlan>(  // lint:allow(hot-path-alloc) first call on a cache without a device plan
        build_aggregate_plan(dev, config_.aggregator,
                             {dev.owned_span(), dev.central_span(),
                              dev.marginal_span()}));
  ADAQP_CHECK(cache.agg_plan->agg == config_.aggregator);
  // Reshape in place: a no-op once shapes are stable, so steady-state epochs
  // never reallocate the cache. Every ensured matrix is (re)written by the
  // forward_rows calls that follow.
  const auto ensure = [](Matrix& m, std::size_t r, std::size_t c) {
    m.reshape_uninit(r, c);
  };
  ensure(cache.agg, owned, config_.in_dim);
  ensure(cache.pre_norm, owned, config_.out_dim);
  if (config_.aggregator == Aggregator::kSageMean) {
    ensure(cache.mean_nbr, owned, config_.in_dim);
    ensure(cache.self_scratch, owned, config_.out_dim);
  }
  if (config_.is_output) return;
  ensure(cache.pre_act, owned, config_.out_dim);
  ensure(cache.ln.normalized, owned, config_.out_dim);
  cache.ln.rstd.resize(owned);  // lint:allow(hot-path-alloc) capacity retained
  if (training && config_.dropout > 0.0f) {
    // Row-major over all owned rows, drawn once per epoch by dropout_mask,
    // so the device stream does not depend on how the rows are split.
    dropout_mask(owned, config_.out_dim, config_.dropout, rng,
                 cache.drop_mask);
  } else {
    ensure(cache.drop_mask, owned, config_.out_dim);
    cache.drop_mask.fill(1.0f);
  }
}

void GnnLayer::forward_rows(const DeviceGraph& dev, const Matrix& x_local,
                            Matrix& out, LayerCache& cache,
                            std::span<const NodeId> rows) const {
  if (rows.empty()) return;
  ADAQP_CHECK(x_local.rows() == dev.num_local());
  ADAQP_CHECK(x_local.cols() == config_.in_dim);
  ADAQP_CHECK(out.rows() >= dev.num_owned && out.cols() == config_.out_dim);
  ADAQP_CHECK(cache.pre_norm.rows() == dev.num_owned);

  ADAQP_CHECK(cache.agg_plan);  // set by the trainer or forward_prepare
  if (config_.aggregator != Aggregator::kSageMean) {
    aggregate_forward(dev, *cache.agg_plan, x_local, rows, cache.agg);
    gemm_rows(cache.agg, weight_.value, cache.pre_norm, rows);
  } else {
    aggregate_forward(dev, *cache.agg_plan, x_local, rows, cache.mean_nbr);
    gemm_rows(cache.mean_nbr, weight_.value, cache.pre_norm, rows);
    // Self path uses the owned rows of x (cached for dW_self).
    for_each_row(rows, [&](NodeId v) {
      const auto src = x_local.row(v);
      std::copy(src.begin(), src.end(), cache.agg.row(v).begin());
    });
    gemm_rows(cache.agg, weight_self_.value, cache.self_scratch, rows);
    for_each_row(rows, [&](NodeId v) {
      auto dst = cache.pre_norm.row(v);
      const auto src = cache.self_scratch.row(v);
      for (std::size_t c = 0; c < config_.out_dim; ++c) dst[c] += src[c];
    });
  }

  if (!config_.is_output) {
    norm_.forward_rows(cache.pre_norm, cache.pre_act, cache.ln, rows);
    // ReLU and the pre-drawn dropout mask, fused row-wise.
    for_each_row(rows, [&](NodeId v) {
      const auto src = cache.pre_act.row(v);
      const auto m = cache.drop_mask.row(v);
      auto dst = out.row(v);
      for (std::size_t c = 0; c < config_.out_dim; ++c) {
        const float a = src[c] > 0.0f ? src[c] : 0.0f;
        dst[c] = a * m[c];
      }
    });
  } else {
    for_each_row(rows, [&](NodeId v) {
      const auto src = cache.pre_norm.row(v);
      std::copy(src.begin(), src.end(), out.row(v).begin());
    });
  }
}

void GnnLayer::apply_grads(const LayerGrads& sink) {
  if (!sink.weight.empty()) weight_.grad.add_inplace(sink.weight);
  if (!sink.weight_self.empty())
    weight_self_.grad.add_inplace(sink.weight_self);
  if (!sink.gamma.empty()) norm_.gamma.grad.add_inplace(sink.gamma);
  if (!sink.beta.empty()) norm_.beta.grad.add_inplace(sink.beta);
}

namespace {

/// Reproduce the old `sink = LayerGrads{}` contract for the members a layer
/// never writes, without per-call churn: deallocate once if a previous user
/// left data behind, then stay empty (so apply_grads skips them).
inline void clear_once(Matrix& m) {
  if (!m.empty()) m = Matrix();
}

}  // namespace

void GnnLayer::backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                             const LayerCache& cache, Matrix& grad_x,
                             LayerGrads& sink, std::span<const NodeId> rows,
                             LayerBackwardScratch& s,
                             InputGrad input_grad) const {
  ADAQP_CHECK(grad_out.rows() >= dev.num_owned);
  ADAQP_CHECK(grad_out.cols() == config_.out_dim);
  ADAQP_CHECK(cache.agg_plan);
  if (rows.empty()) {
    // Old contract: an empty subset contributes nothing. Leave the sink's
    // members empty so apply_grads skips them.
    clear_once(sink.weight);
    clear_once(sink.weight_self);
    clear_once(sink.gamma);
    clear_once(sink.beta);
    return;
  }

  // Epilogue adjoint of the subset rows: the pre-drawn dropout mask and the
  // ReLU gate, fused row-wise, then LayerNorm. Rows outside the subset are
  // left uninitialized — every consumer below reads only the subset's rows.
  s.dpre_norm.reshape_uninit(dev.num_owned, config_.out_dim);
  if (!config_.is_output) {
    s.dpre_act.reshape_uninit(dev.num_owned, config_.out_dim);
    epilogue_adjoint_rows(grad_out, cache.drop_mask, cache.pre_act,
                          s.dpre_act, rows);
    sink.gamma.reshape_zero(1, config_.out_dim);
    sink.beta.reshape_zero(1, config_.out_dim);
    norm_.backward_rows(s.dpre_act, cache.ln, s.dpre_norm, sink.gamma,
                        sink.beta, rows);
  } else {
    clear_once(sink.gamma);
    clear_once(sink.beta);
    for_each_row(rows, [&](NodeId r) {
      const auto src = grad_out.row(r);
      std::copy(src.begin(), src.end(), s.dpre_norm.row(r).begin());
    });
  }

  // Dense transform backward restricted to the subset. Weight-gradient
  // partials sum the subset's rows in span order, and the aggregation
  // adjoint folds contributions to a shared destination in span order too.
  // Neighbor path: cache.mean_nbr for SAGE, cache.agg otherwise, with
  // weight_; SAGE self path: cache.agg (owned input rows), weight_self_.
  const bool sage = config_.aggregator == Aggregator::kSageMean;
  gemm_tn_rows(sage ? cache.mean_nbr : cache.agg, s.dpre_norm, sink.weight,
               rows);
  if (sage)
    gemm_tn_rows(cache.agg, s.dpre_norm, sink.weight_self, rows);
  else
    clear_once(sink.weight_self);
  if (input_grad == InputGrad::kSkip) return;

  ADAQP_CHECK(grad_x.rows() == dev.num_local());
  ADAQP_CHECK(grad_x.cols() == config_.in_dim);
  s.dagg.reshape_uninit(dev.num_owned, config_.in_dim);
  gemm_nt_rows(s.dpre_norm, weight_.value, s.dagg, rows, s.wt);
  aggregate_backward(dev, *cache.agg_plan, s.dagg, rows, grad_x);
  if (sage) {
    s.dself.reshape_uninit(dev.num_owned, config_.in_dim);
    gemm_nt_rows(s.dpre_norm, weight_self_.value, s.dself, rows, s.wt);
    for_each_row(rows, [&](NodeId r) {
      auto dst = grad_x.row(r);
      const auto src = s.dself.row(r);
      for (std::size_t c = 0; c < config_.in_dim; ++c) dst[c] += src[c];
    });
  }
}

std::vector<Param*> GnnLayer::params() {
  std::vector<Param*> out{&weight_};
  if (weight_self_.size() > 0) out.push_back(&weight_self_);  // lint:allow(hot-path-alloc) setup; trainer caches result
  if (!config_.is_output) {
    out.push_back(&norm_.gamma);  // lint:allow(hot-path-alloc) setup; trainer caches result
    out.push_back(&norm_.beta);  // lint:allow(hot-path-alloc) setup; trainer caches result
  }
  return out;
}

std::vector<const Param*> GnnLayer::params() const {
  auto mutable_params = const_cast<GnnLayer*>(this)->params();
  return {mutable_params.begin(), mutable_params.end()};
}

std::size_t GnnLayer::grad_bytes() const {
  std::size_t total = 0;
  for (const Param* p : params()) total += p->size() * sizeof(float);
  return total;
}

}  // namespace adaqp
