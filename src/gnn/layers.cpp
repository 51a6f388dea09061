// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "gnn/layers.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace adaqp {

LayerNorm::LayerNorm(std::size_t dim) : gamma(1, dim), beta(1, dim) { init(); }

void LayerNorm::init() {
  gamma.value.fill(1.0f);
  beta.value.fill(0.0f);
}

namespace {

/// One LayerNorm row — shared by the full and row-subset forwards so both
/// are bit-identical per row by construction.
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

/// One LayerNorm backward row — shared by the full and row-subset backwards
/// so both are bit-identical per row by construction. dgamma / dbeta
/// accumulate this row's contribution (caller fixes the row order).
inline void layer_norm_backward_row(const Matrix& grad_out,
                                    const LayerNorm::Cache& cache,
                                    Matrix& grad_in, Matrix& dgamma,
                                    Matrix& dbeta, const Matrix& gamma,
                                    std::size_t r) {
  const std::size_t dim = grad_out.cols();
  const auto dy = grad_out.row(r);
  const auto xh = cache.normalized.row(r);
  auto dx = grad_in.row(r);
  // dγ += Σ_r dy⊙x̂ ; dβ += Σ_r dy
  double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
  for (std::size_t c = 0; c < dim; ++c) {
    dgamma.data()[c] += dy[c] * xh[c];
    dbeta.data()[c] += dy[c];
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

}  // namespace

void LayerNorm::forward(const Matrix& in, Matrix& out, Cache& cache) const {
  const std::size_t rows = in.rows(), dim = in.cols();
  ADAQP_CHECK(gamma.value.cols() == dim);
  out.reshape_uninit(rows, dim);  // every row is written below
  cache.normalized.reshape_uninit(rows, dim);
  cache.rstd.resize(rows);  // lint:allow(hot-path-alloc) capacity retained
  for (std::size_t r = 0; r < rows; ++r)
    layer_norm_row(in, out, cache, gamma.value, beta.value, epsilon, r);
}

void LayerNorm::forward_rows(const Matrix& in, Matrix& out, Cache& cache,
                             std::span<const NodeId> rows) const {
  ADAQP_CHECK(gamma.value.cols() == in.cols());
  ADAQP_CHECK(out.same_shape(in));
  ADAQP_CHECK(cache.normalized.same_shape(in));
  ADAQP_CHECK(cache.rstd.size() >= in.rows());
  for (NodeId r : rows)
    layer_norm_row(in, out, cache, gamma.value, beta.value, epsilon, r);
}

void LayerNorm::backward(const Matrix& grad_out, const Cache& cache,
                         Matrix& grad_in) {
  backward(grad_out, cache, grad_in, gamma.grad, beta.grad);
}

void LayerNorm::backward(const Matrix& grad_out, const Cache& cache,
                         Matrix& grad_in, Matrix& dgamma,
                         Matrix& dbeta) const {
  const std::size_t rows = grad_out.rows(), dim = grad_out.cols();
  ADAQP_CHECK(cache.normalized.same_shape(grad_out));
  grad_in.reshape_uninit(rows, dim);  // every row is written below
  if (dgamma.rows() != 1 || dgamma.cols() != dim) dgamma.reshape_zero(1, dim);
  if (dbeta.rows() != 1 || dbeta.cols() != dim) dbeta.reshape_zero(1, dim);
  for (std::size_t r = 0; r < rows; ++r)
    layer_norm_backward_row(grad_out, cache, grad_in, dgamma, dbeta,
                            gamma.value, r);
}

void LayerNorm::backward_rows(const Matrix& grad_out, const Cache& cache,
                              Matrix& grad_in, Matrix& dgamma, Matrix& dbeta,
                              std::span<const NodeId> rows) const {
  const std::size_t dim = grad_out.cols();
  ADAQP_CHECK(cache.normalized.same_shape(grad_out));
  ADAQP_CHECK(grad_in.same_shape(grad_out));
  if (dgamma.rows() != 1 || dgamma.cols() != dim) dgamma.reshape_zero(1, dim);
  if (dbeta.rows() != 1 || dbeta.cols() != dim) dbeta.reshape_zero(1, dim);
  for (NodeId r : rows)
    layer_norm_backward_row(grad_out, cache, grad_in, dgamma, dbeta,
                            gamma.value, r);
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
  if (!cache.agg_plan.ready)
    cache.agg_plan = build_aggregate_plan(dev, config_.aggregator);
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
  if (config_.layer_norm) {
    ensure(cache.ln.normalized, owned, config_.out_dim);
    cache.ln.rstd.resize(owned);  // lint:allow(hot-path-alloc) capacity retained
  }
  if (training && config_.dropout > 0.0f) {
    // Row-major over all owned rows: the exact draws dropout_forward makes,
    // so pre-drawing here leaves the device stream bit-identical.
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

  ADAQP_CHECK(cache.agg_plan.ready);  // forward_prepare builds the plan
  if (config_.aggregator != Aggregator::kSageMean) {
    aggregate_forward(dev, cache.agg_plan, x_local, rows, cache.agg);
    gemm_rows(cache.agg, weight_.value, cache.pre_norm, rows);
  } else {
    aggregate_forward(dev, cache.agg_plan, x_local, rows, cache.mean_nbr);
    gemm_rows(cache.mean_nbr, weight_.value, cache.pre_norm, rows);
    // Self path uses the owned rows of x (cached for dW_self).
    for (NodeId v : rows) {
      const auto src = x_local.row(v);
      std::copy(src.begin(), src.end(), cache.agg.row(v).begin());
    }
    gemm_rows(cache.agg, weight_self_.value, cache.self_scratch, rows);
    for (NodeId v : rows) {
      auto dst = cache.pre_norm.row(v);
      const auto src = cache.self_scratch.row(v);
      for (std::size_t c = 0; c < config_.out_dim; ++c) dst[c] += src[c];
    }
  }

  if (!config_.is_output) {
    if (config_.layer_norm) {
      norm_.forward_rows(cache.pre_norm, cache.pre_act, cache.ln, rows);
    } else {
      for (NodeId v : rows) {
        const auto src = cache.pre_norm.row(v);
        std::copy(src.begin(), src.end(), cache.pre_act.row(v).begin());
      }
    }
    // ReLU and the pre-drawn dropout mask, fused row-wise (identical
    // arithmetic to relu_forward + the mask multiply of dropout_forward).
    for (NodeId v : rows) {
      const auto src = cache.pre_act.row(v);
      const auto m = cache.drop_mask.row(v);
      auto dst = out.row(v);
      for (std::size_t c = 0; c < config_.out_dim; ++c) {
        const float a = src[c] > 0.0f ? src[c] : 0.0f;
        dst[c] = a * m[c];
      }
    }
  } else {
    for (NodeId v : rows) {
      const auto src = cache.pre_norm.row(v);
      std::copy(src.begin(), src.end(), out.row(v).begin());
    }
  }
}

void GnnLayer::backward(const DeviceGraph& dev, const Matrix& grad_out,
                        const LayerCache& cache, Matrix& grad_x) {
  LayerGrads sink;
  backward(dev, grad_out, cache, grad_x, sink);
  apply_grads(sink);
}

void GnnLayer::apply_grads(const LayerGrads& sink) {
  if (!sink.weight.empty()) weight_.grad.add_inplace(sink.weight);
  if (!sink.weight_self.empty())
    weight_self_.grad.add_inplace(sink.weight_self);
  if (!sink.gamma.empty()) norm_.gamma.grad.add_inplace(sink.gamma);
  if (!sink.beta.empty()) norm_.beta.grad.add_inplace(sink.beta);
}

void GnnLayer::backward(const DeviceGraph& dev, const Matrix& grad_out,
                        const LayerCache& cache, Matrix& grad_x,
                        LayerGrads& sink) const {
  LayerBackwardScratch scratch;
  backward(dev, grad_out, cache, grad_x, sink, scratch, InputGrad::kCompute);
}

namespace {

/// Reproduce the old `sink = LayerGrads{}` contract for the members a layer
/// never writes, without per-call churn: deallocate once if a previous user
/// left data behind, then stay empty (so apply_grads skips them).
inline void clear_once(Matrix& m) {
  if (!m.empty()) m = Matrix();
}

}  // namespace

void GnnLayer::backward(const DeviceGraph& dev, const Matrix& grad_out,
                        const LayerCache& cache, Matrix& grad_x,
                        LayerGrads& sink, LayerBackwardScratch& s,
                        InputGrad input_grad) const {
  ADAQP_CHECK(grad_out.rows() >= dev.num_owned);
  ADAQP_CHECK(grad_out.cols() == config_.out_dim);
  ADAQP_CHECK(cache.agg_plan.ready);

  // Owned-row slice of the incoming gradient.
  s.dh.reshape_uninit(dev.num_owned, config_.out_dim);
  for (std::size_t r = 0; r < dev.num_owned; ++r) {
    const auto src = grad_out.row(r);
    std::copy(src.begin(), src.end(), s.dh.row(r).begin());
  }

  // Select the LayerNorm-adjoint source by pointer (a move would empty the
  // persistent scratch member and force a reallocation next call).
  const Matrix* dpre_norm = &s.dpre_norm;
  if (!config_.is_output) {
    dropout_backward(s.dh, cache.drop_mask, s.dpost_act);
    relu_backward(cache.pre_act, s.dpost_act, s.dpre_act);
    if (config_.layer_norm) {
      sink.gamma.reshape_zero(1, config_.out_dim);
      sink.beta.reshape_zero(1, config_.out_dim);
      norm_.backward(s.dpre_act, cache.ln, s.dpre_norm, sink.gamma, sink.beta);
    } else {
      clear_once(sink.gamma);
      clear_once(sink.beta);
      dpre_norm = &s.dpre_act;
    }
  } else {
    clear_once(sink.gamma);
    clear_once(sink.beta);
    dpre_norm = &s.dh;
  }

  // Dense transform backward (gemm_tn / gemm_nt overwrite their outputs,
  // reshaping in place). Neighbor path: cache.mean_nbr for SAGE, cache.agg
  // otherwise, with weight_; SAGE self path: cache.agg (owned input rows),
  // weight_self_.
  const bool sage = config_.aggregator == Aggregator::kSageMean;
  gemm_tn(sage ? cache.mean_nbr : cache.agg, *dpre_norm, sink.weight);
  if (sage)
    gemm_tn(cache.agg, *dpre_norm, sink.weight_self);
  else
    clear_once(sink.weight_self);
  if (input_grad == InputGrad::kSkip) return;

  gemm_nt(*dpre_norm, weight_.value, s.dagg, s.wt);
  grad_x.reshape_zero(dev.num_local(), config_.in_dim);
  aggregate_backward(dev, cache.agg_plan, s.dagg, grad_x);
  if (sage) {
    gemm_nt(*dpre_norm, weight_self_.value, s.dself, s.wt);
    for (std::size_t r = 0; r < dev.num_owned; ++r) {
      auto dst = grad_x.row(r);
      const auto src = s.dself.row(r);
      for (std::size_t c = 0; c < config_.in_dim; ++c) dst[c] += src[c];
    }
  }
}

void GnnLayer::backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                             const LayerCache& cache, Matrix& grad_x,
                             LayerGrads& sink,
                             std::span<const NodeId> rows) const {
  LayerBackwardScratch scratch;
  backward_rows(dev, grad_out, cache, grad_x, sink, rows, scratch);
}

void GnnLayer::backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                             const LayerCache& cache, Matrix& grad_x,
                             LayerGrads& sink, std::span<const NodeId> rows,
                             LayerBackwardScratch& s) const {
  ADAQP_CHECK(grad_out.rows() >= dev.num_owned);
  ADAQP_CHECK(grad_out.cols() == config_.out_dim);
  ADAQP_CHECK(grad_x.rows() == dev.num_local());
  ADAQP_CHECK(grad_x.cols() == config_.in_dim);
  ADAQP_CHECK(cache.agg_plan.ready);
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
  // ReLU gate, fused row-wise (identical arithmetic to dropout_backward +
  // relu_backward), then LayerNorm. Rows outside the subset are left
  // uninitialized — every consumer below reads only the subset's rows.
  s.dpre_norm.reshape_uninit(dev.num_owned, config_.out_dim);
  if (!config_.is_output) {
    s.dpre_act.reshape_uninit(dev.num_owned, config_.out_dim);
    for (NodeId r : rows) {
      const auto dy = grad_out.row(r);
      const auto m = cache.drop_mask.row(r);
      const auto pre = cache.pre_act.row(r);
      auto dst = s.dpre_act.row(r);
      for (std::size_t c = 0; c < config_.out_dim; ++c) {
        const float dpost = dy[c] * m[c];
        dst[c] = pre[c] > 0.0f ? dpost : 0.0f;
      }
    }
    if (config_.layer_norm) {
      sink.gamma.reshape_zero(1, config_.out_dim);
      sink.beta.reshape_zero(1, config_.out_dim);
      norm_.backward_rows(s.dpre_act, cache.ln, s.dpre_norm, sink.gamma,
                          sink.beta, rows);
    } else {
      clear_once(sink.gamma);
      clear_once(sink.beta);
      for (NodeId r : rows) {
        const auto src = s.dpre_act.row(r);
        std::copy(src.begin(), src.end(), s.dpre_norm.row(r).begin());
      }
    }
  } else {
    clear_once(sink.gamma);
    clear_once(sink.beta);
    for (NodeId r : rows) {
      const auto src = grad_out.row(r);
      std::copy(src.begin(), src.end(), s.dpre_norm.row(r).begin());
    }
  }

  // Dense transform backward restricted to the subset. Weight-gradient
  // partials sum the subset's rows in span order; the input-gradient scatter
  // runs the serial per-source kernel, so contributions to a shared
  // destination fold in span order too.
  s.dagg.reshape_uninit(dev.num_owned, config_.in_dim);
  if (config_.aggregator != Aggregator::kSageMean) {
    clear_once(sink.weight_self);
    gemm_tn_rows(cache.agg, s.dpre_norm, sink.weight, rows);
    gemm_nt_rows(s.dpre_norm, weight_.value, s.dagg, rows, s.wt);
    aggregate_backward(dev, cache.agg_plan, s.dagg, rows, grad_x);
  } else {
    gemm_tn_rows(cache.mean_nbr, s.dpre_norm, sink.weight, rows);
    gemm_tn_rows(cache.agg, s.dpre_norm, sink.weight_self, rows);
    gemm_nt_rows(s.dpre_norm, weight_.value, s.dagg, rows, s.wt);
    aggregate_backward(dev, cache.agg_plan, s.dagg, rows, grad_x);
    s.dself.reshape_uninit(dev.num_owned, config_.in_dim);
    gemm_nt_rows(s.dpre_norm, weight_self_.value, s.dself, rows, s.wt);
    for (NodeId r : rows) {
      auto dst = grad_x.row(r);
      const auto src = s.dself.row(r);
      for (std::size_t c = 0; c < config_.in_dim; ++c) dst[c] += src[c];
    }
  }
}

std::vector<Param*> GnnLayer::params() {
  std::vector<Param*> out{&weight_};
  if (weight_self_.size() > 0) out.push_back(&weight_self_);  // lint:allow(hot-path-alloc) setup; trainer caches result
  if (!config_.is_output && config_.layer_norm) {
    out.push_back(&norm_.gamma);  // lint:allow(hot-path-alloc) setup; trainer caches result
    out.push_back(&norm_.beta);  // lint:allow(hot-path-alloc) setup; trainer caches result
  }
  return out;
}

std::vector<const Param*> GnnLayer::params() const {
  auto mutable_params = const_cast<GnnLayer*>(this)->params();
  return {mutable_params.begin(), mutable_params.end()};
}

void GnnLayer::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t GnnLayer::grad_bytes() const {
  std::size_t total = 0;
  for (const Param* p : params()) total += p->size() * sizeof(float);
  return total;
}

}  // namespace adaqp
