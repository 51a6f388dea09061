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

  void forward(const Matrix& in, Matrix& out, Cache& cache) const;
  /// Row-subset forward: normalize only the rows in `rows` of `in` into the
  /// matching rows of `out`/`cache` (which must be pre-sized, e.g. by
  /// GnnLayer::forward_prepare). Per-row arithmetic is identical to
  /// forward(), so disjoint subsets compose bit-exactly and may run
  /// concurrently.
  void forward_rows(const Matrix& in, Matrix& out, Cache& cache,
                    std::span<const NodeId> rows) const;
  /// Accumulates into gamma.grad / beta.grad; writes grad_in.
  void backward(const Matrix& grad_out, const Cache& cache, Matrix& grad_in);
  /// Thread-safe variant: accumulates into caller-owned dgamma / dbeta
  /// (resized to 1 x dim and zeroed when mis-shaped) instead of the shared
  /// parameter gradients.
  void backward(const Matrix& grad_out, const Cache& cache, Matrix& grad_in,
                Matrix& dgamma, Matrix& dbeta) const;
  /// Row-subset backward: the per-row adjoint of `rows` only. grad_in rows
  /// outside the subset are untouched (grad_in must be pre-sized to
  /// grad_out's shape); dgamma / dbeta accumulate the subset's rows in span
  /// order, so per-subset partials folded in a fixed subset order are
  /// deterministic and the full ascending row list reproduces backward()
  /// bit for bit.
  void backward_rows(const Matrix& grad_out, const Cache& cache,
                     Matrix& grad_in, Matrix& dgamma, Matrix& dbeta,
                     std::span<const NodeId> rows) const;
};

struct LayerConfig {
  Aggregator aggregator = Aggregator::kGcn;
  std::size_t in_dim = 0;
  std::size_t out_dim = 0;
  bool is_output = false;   ///< output layer: no norm/activation/dropout
  bool layer_norm = true;
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
/// plan is built on the first forward_prepare and reused for every later
/// epoch (device topology and aggregator are fixed per trainer run).
struct LayerCache {
  Matrix agg;          // GCN: Agg(x); SAGE: owned input rows (for dW_self)
  Matrix mean_nbr;     // SAGE only: Mean(x), num_owned x in_dim
  Matrix pre_norm;     // Agg·W (+ self path), num_owned x out_dim
  LayerNorm::Cache ln;
  Matrix pre_act;      // after LN, num_owned x out_dim
  Matrix drop_mask;    // dropout multipliers (pre-drawn by forward_prepare)
  Matrix self_scratch; // SAGE only: x_self·W_self staging
  AggregatePlan agg_plan;  // per-edge coefficients (SIMD kernel path)
};

/// Per-(device, layer) temporaries of one backward call. Persist it across
/// epochs: every member is reshaped in place (reshape_uninit/reshape_zero),
/// so after the first epoch backward passes perform no heap allocation —
/// part of the steady-state contract (docs/ARCHITECTURE.md). Calls sharing
/// one scratch must not overlap (the trainer's marginal and central
/// backward stages of a device are serialized).
struct LayerBackwardScratch {
  Matrix dh;         // owned-row slice of grad_out (full backward only)
  Matrix dpost_act;  // dropout adjoint staging
  Matrix dpre_act;   // ReLU adjoint staging
  Matrix dpre_norm;  // LayerNorm adjoint staging
  Matrix dagg;       // grad wrt aggregated input
  Matrix dself;      // SAGE only: grad through W_self
  Matrix wt;         // transposed weight staging for gemm_nt / gemm_nt_rows
};

/// Whether a backward call produces the gradient wrt the layer input. The
/// input layer's is never consumed (features are not trained), so the
/// trainer skips its input-gradient GEMM and scatter.
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
  /// rows (row-major, exactly the stream consumption of dropout_forward).
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

  /// Backward from grad of owned output rows; accumulates weight grads and
  /// writes grad wrt the layer input for *all* local rows into grad_x
  /// (num_local x in_dim, overwritten). Serial convenience form: equivalent
  /// to the sink overload followed by apply_grads.
  void backward(const DeviceGraph& dev, const Matrix& grad_out,
                const LayerCache& cache, Matrix& grad_x);

  /// Thread-safe backward: writes this device's parameter-gradient
  /// contributions into `sink` (overwritten) instead of the shared Param
  /// gradients, so per-device backward passes can run concurrently. Callers
  /// must fold sinks with apply_grads in a fixed device order afterwards.
  void backward(const DeviceGraph& dev, const Matrix& grad_out,
                const LayerCache& cache, Matrix& grad_x,
                LayerGrads& sink) const;

  /// Steady-state variant: identical arithmetic, but all per-call
  /// temporaries live in the caller-provided `scratch` (reshaped in place),
  /// so repeated calls with stable shapes perform no heap allocation. With
  /// InputGrad::kSkip, grad_x is left untouched and only `sink` is written
  /// (bit-identical to the kCompute sink).
  void backward(const DeviceGraph& dev, const Matrix& grad_out,
                const LayerCache& cache, Matrix& grad_x, LayerGrads& sink,
                LayerBackwardScratch& scratch, InputGrad input_grad) const;

  /// Row-subset backward (the adjoint mirror of forward_rows): epilogue
  /// derivative, weight-gradient partial sums and input-gradient scatter of
  /// the owned rows in `rows` only. Accumulates into grad_x (pre-sized
  /// num_local x in_dim by the caller; NOT zeroed here) and overwrites
  /// `sink` with this subset's partials. Central rows scatter only into
  /// owned rows of grad_x; marginal rows also scatter into halo rows — so
  /// the halo-gradient exchange depends only on the marginal subset, and
  /// central-row backward can run while that exchange is in flight. Subsets
  /// that share destination rows must be ordered (marginal before central in
  /// the trainer's stage graph) and their sinks folded with apply_grads in a
  /// fixed device-then-subset order; then any schedule is bit-identical.
  /// backward_rows over the full owned list reproduces backward() bit for
  /// bit.
  void backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                     const LayerCache& cache, Matrix& grad_x, LayerGrads& sink,
                     std::span<const NodeId> rows) const;

  /// Steady-state variant of backward_rows (see the backward overload).
  void backward_rows(const DeviceGraph& dev, const Matrix& grad_out,
                     const LayerCache& cache, Matrix& grad_x, LayerGrads& sink,
                     std::span<const NodeId> rows,
                     LayerBackwardScratch& scratch) const;

  /// Fold one device's contributions into the shared parameter gradients.
  void apply_grads(const LayerGrads& sink);

  /// All trainable parameters (for Adam / allreduce).
  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  void zero_grad();

  /// Bytes of all parameter gradients (model-gradient allreduce volume).
  std::size_t grad_bytes() const;

 private:
  LayerConfig config_;
  Param weight_;        // in_dim x out_dim (neighbor path for SAGE)
  Param weight_self_;   // SAGE only: in_dim x out_dim
  LayerNorm norm_;
};

}  // namespace adaqp
