// GNN layers with hand-derived analytic backward passes.
//
// A layer computes, for the owned rows of a device partition:
//   GCN:   h = Drop(ReLU(LN(Agg(x)·W)))                (hidden layers)
//   SAGE:  h = Drop(ReLU(LN(x_self·W_self + Mean(x)·W_nbr)))
// The output layer skips LN/ReLU/Drop and emits raw logits. LayerNorm is the
// affine row-wise variant (paper Appendix B lists LayerNorm as the norm
// function). All caches needed for backward live in a per-device
// LayerCache so one shared weight set can serve any number of devices.
#pragma once

#include <memory>
#include <vector>

#include "gnn/aggregate.h"
#include "tensor/matrix.h"

namespace adaqp {

class Rng;

/// A trainable parameter: weight, gradient, Adam moments.
struct Param {
  Matrix value;
  Matrix grad;
  Matrix adam_m;
  Matrix adam_v;

  explicit Param(std::size_t rows = 0, std::size_t cols = 0)
      : value(rows, cols), grad(rows, cols), adam_m(rows, cols),
        adam_v(rows, cols) {}
  std::size_t size() const { return value.size(); }
  void zero_grad() { grad.set_zero(); }
};

/// Row-wise LayerNorm with affine (gamma, beta) parameters.
struct LayerNorm {
  Param gamma;
  Param beta;
  float epsilon = 1e-5f;

  explicit LayerNorm(std::size_t dim = 0);
  void init();

  struct Cache {
    Matrix normalized;        // x̂ rows
    std::vector<float> rstd;  // 1/σ per row
  };

  /// Normalize the rows in `rows` of `in` into the matching rows of
  /// `out`/`cache` (which must be pre-sized, e.g. by
  /// GnnLayer::forward_prepare). Rows are independent, so disjoint subsets
  /// may run concurrently, and the rows of one call run in parallel_for
  /// bands.
  void forward_rows(const Matrix& in, Matrix& out, Cache& cache,
                    std::span<const NodeId> rows) const;
  /// The per-row adjoint of `rows`, in parallel_for row bands. grad_in rows
  /// outside the subset are untouched (grad_in must be pre-sized to
  /// grad_out's shape); dgamma / dbeta (resized to 1 x dim and zeroed when
  /// mis-shaped) accumulate the subset's rows in span order, in
  /// parallel_for bands of 16 columns, so per-subset partials folded in a
  /// fixed subset order are deterministic.
  void backward_rows(const Matrix& grad_out, const Cache& cache,
                     Matrix& grad_in, Matrix& dgamma, Matrix& dbeta,
                     std::span<const NodeId> rows) const;
};

/// The ReLU x dropout adjoint of the listed rows:
/// dst = pre_act > 0 ? grad_out * drop_mask : +0, element for element and
/// bit for bit (a NaN pre_act selects +0; a selected product keeps its -0,
/// inf or NaN). Rows outside `rows` are untouched; `dst` must be pre-sized
/// to pre_act's shape.
void epilogue_adjoint_rows(const Matrix& grad_out, const Matrix& drop_mask,
                           const Matrix& pre_act, Matrix& dst,
                           std::span<const NodeId> rows);

struct LayerConfig {
  Aggregator aggregator = Aggregator::kGcn;
  std::size_t in_dim = 0;
  std::size_t out_dim = 0;
  bool is_output = false;   ///< output layer: no norm/activation/dropout
  float dropout = 0.5f;
};

/// Per-device parameter-gradient contributions of one backward call. The
/// runtime refactor computes these concurrently (one sink per simulated
/// device) and GnnLayer::apply_grads folds them into the shared Param
/// gradients in ascending device order, keeping the reduction deterministic
/// at any thread count. Empty matrices mean "no contribution".
struct LayerGrads {
  Matrix weight;       // dW (neighbor path for SAGE)
  Matrix weight_self;  // SAGE only: dW_self
  Matrix gamma;        // LayerNorm dγ (1 x out_dim)
  Matrix beta;         // LayerNorm dβ (1 x out_dim)
};

/// Per-device forward cache (intermediates needed by backward). All members
/// are pre-sized by GnnLayer::forward_prepare, after which row-subset
/// forward stages fill disjoint row slices concurrently. The aggregation
/// plan belongs to the device: the trainer points every layer's cache at
/// the device's one plan before the first epoch. A cache without one gets
/// a private plan on its first forward_prepare, with the adjoints of the
/// owned, central and marginal rows.
struct LayerCache {
  Matrix agg;          // GCN: Agg(x); SAGE: owned input rows (for dW_self)
  Matrix mean_nbr;     // SAGE only: Mean(x), num_owned x in_dim
  Matrix pre_norm;     // Agg·W (+ self path), num_owned x out_dim
  LayerNorm::Cache ln;
  Matrix pre_act;      // after LN, num_owned x out_dim
  Matrix drop_mask;    // dropout multipliers (pre-drawn by forward_prepare)
  Matrix self_scratch; // SAGE only: x_self·W_self staging
  std::shared_ptr<const AggregatePlan> agg_plan;  // the device's plan
};

/// Per-(device, layer) temporaries of one backward call. Persist it across
/// epochs: every member is reshaped in place (reshape_uninit/reshape_zero),
/// so after the first epoch backward passes perform no heap allocation —
/// part of the steady-state contract (docs/ARCHITECTURE.md). Calls sharing
/// one scratch must not overlap (the trainer's marginal and central
/// backward stages of a device are serialized).
struct LayerBackwardScratch {
  Matrix dpre_act;   // ReLU adjoint staging
  Matrix dpre_norm;  // LayerNorm adjoint staging
  Matrix dagg;       // grad wrt aggregated input
  Matrix dself;      // SAGE only: grad through W_self
  Matrix wt;         // transposed weight staging for gemm_nt_rows
};

/// Whether a backward call produces the gradient wrt the layer input. The
/// input layer's is never consumed (features are not trained), so the
/// trainer skips its input-gradient GEMM and aggregation adjoint.
enum class InputGrad { kCompute, kSkip };

class GnnLayer {
 public:
  explicit GnnLayer(const LayerConfig& config);

  void init_weights(Rng& rng);

  const LayerConfig& config() const { return config_; }

  /// Compute owned rows of the output into rows [0, num_owned) of `out`
  /// (out is num_local_next x out_dim; halo rows are the *next* exchange's
  /// job and are left untouched). `training` enables dropout. Equivalent to
  /// forward_prepare followed by forward_rows over all owned rows.
  void forward(const DeviceGraph& dev, const Matrix& x_local, Matrix& out,
               LayerCache& cache, Rng& rng, bool training) const;

  /// Pre-size the forward cache and draw the dropout mask for all owned
  /// rows (row-major, one dropout_mask call).
  /// This is the only part of the forward that touches the Rng, so after it
  /// returns, forward_rows calls over disjoint row subsets may run
  /// concurrently — the pipeline computes central rows while the halo
  /// exchange is still in flight, then marginal rows after the join.
  void forward_prepare(const DeviceGraph& dev, LayerCache& cache, Rng& rng,
                       bool training) const;

  /// Compute the owned output rows in `rows` (a subset of [0, num_owned))
  /// into `out`. Requires a preceding forward_prepare on `cache`. Central
  /// rows read only owned rows of x_local; marginal rows also read halo
  /// rows, so they must wait for the forward exchange. Each row's
  /// arithmetic is bit-identical to the full forward's.
  void forward_rows(const DeviceGraph& dev, const Matrix& x_local,
                    Matrix& out, LayerCache& cache,
                    std::span<const NodeId> rows) const;

  /// Row-subset backward (the adjoint mirror of forward_rows), and the
  /// layer's only adjoint: epilogue derivative, weight-gradient partial sums
  /// and input gradient of the owned rows in `rows` only. Overwrites
  /// `sink` with this subset's parameter-gradient partials instead of
  /// touching the shared Param gradients, so per-device calls may run
  /// concurrently; callers fold sinks with apply_grads in a fixed
  /// device-then-subset order afterwards. All per-call temporaries live in
  /// `scratch` (reshaped in place), so repeated calls with stable shapes
  /// perform no heap allocation.
  ///
  /// With InputGrad::kCompute, accumulates into grad_x (pre-sized
  /// num_local x in_dim by the caller; NOT zeroed here). Central rows
  /// write only owned rows of grad_x; marginal rows also write halo rows —
  /// so the halo-gradient exchange depends only on the marginal
  /// subset, and central-row backward can run while that exchange is in
  /// flight. Subsets that share destination rows must be ordered (marginal
  /// before central in the trainer's stage graph); then any schedule is
  /// bit-identical. With InputGrad::kSkip, returns after the weight-gradient
  /// GEMMs and neither checks nor touches grad_x.
  void backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                     const LayerCache& cache, Matrix& grad_x, LayerGrads& sink,
                     std::span<const NodeId> rows,
                     LayerBackwardScratch& scratch,
                     InputGrad input_grad = InputGrad::kCompute) const;

  /// Fold one device's contributions into the shared parameter gradients.
  void apply_grads(const LayerGrads& sink);

  /// All trainable parameters (for Adam / allreduce).
  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  /// Bytes of all parameter gradients (model-gradient allreduce volume).
  std::size_t grad_bytes() const;

 private:
  LayerConfig config_;
  Param weight_;        // in_dim x out_dim (neighbor path for SAGE)
  Param weight_self_;   // SAGE only: in_dim x out_dim
  LayerNorm norm_;
};

}  // namespace adaqp
