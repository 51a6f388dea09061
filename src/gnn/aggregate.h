// Neighborhood aggregation kernels on a device-local graph partition.
//
// Implements the weighted-summation form of message passing (paper Eqn. 3)
// for the two evaluated models:
//   GCN:        agg[v] = α(v,v)·x[v] + Σ_{u∈N(v)} α(u,v)·x[u],
//               α(u,v) = 1/√((d_u+1)(d_v+1)) with *global* degrees d, so the
//               distributed result is bit-comparable to centralized training.
//   SAGE-mean:  agg[v] = (1/d_v)·Σ_{u∈N(v)} x[u]  (self term handled by the
//               layer's separate W_self path).
//
// Each kernel has an adjoint used by the analytic backward pass; the adjoint
// scatters into *all* local rows (owned and halo) — halo contributions are
// the embedding-gradient messages the paper sends in the backward pass.
#pragma once

#include <span>

#include "dist/dist_graph.h"
#include "tensor/matrix.h"

namespace adaqp {

enum class Aggregator {
  kGcn,       ///< symmetric normalization 1/sqrt((d_u+1)(d_v+1)) + self term
  kSageMean,  ///< mean of neighbors; self path through a separate weight
};

/// Aggregation coefficient α(u,v) for an edge from u into v.
double aggregation_coefficient(Aggregator agg, std::uint32_t deg_u,
                               std::uint32_t deg_v);
/// Self coefficient α(v,v) (zero for SAGE-mean).
double self_coefficient(Aggregator agg, std::uint32_t deg_v);

/// Precomputed per-edge coefficients for one (device, aggregator) pair — the
/// steady-state form of the aggregation kernels. Built once (first epoch,
/// cached in LayerCache); the plan-based kernels below then run
/// allocation-free and dispatch their per-row inner loops through the SIMD
/// kernel table (scale_row / axpy / gather_axpy). Coefficients are the same
/// float casts the plan-less kernels compute per edge, so plan and plan-less
/// paths are bit-identical.
struct AggregatePlan {
  bool ready = false;
  Aggregator agg = Aggregator::kGcn;
  /// α(v,v) per owned local id (zero for SAGE-mean).
  std::vector<float> self_coeff;
  /// α(u,v) per forward CSR edge, aligned with DeviceGraph::neighbor_ids.
  std::vector<float> coeff;
};

/// Build the plan for (dev, agg).
AggregatePlan build_aggregate_plan(const DeviceGraph& dev, Aggregator agg);

/// out (num_owned x dim) = aggregate over rows of x (num_local x dim),
/// restricted to the owned rows in `rows`. Other rows of `out` are untouched.
void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       std::span<const NodeId> rows, Matrix& out);

/// Convenience: aggregate all owned rows.
void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       Matrix& out);

/// Adjoint: grad_x (num_local x dim) += Aᵀ · grad_out for the owned rows in
/// `rows` of grad_out. grad_x must be pre-sized (num_local x dim). Serial
/// scatter kernel (destination rows of different sources overlap).
void aggregate_backward(const DeviceGraph& dev, Aggregator agg,
                        const Matrix& grad_out, std::span<const NodeId> rows,
                        Matrix& grad_x);

/// Convenience: the adjoint over all owned rows of grad_out.
void aggregate_backward(const DeviceGraph& dev, Aggregator agg,
                        const Matrix& grad_out, Matrix& grad_x);

// ---- Plan-based forms (steady-state path; see AggregatePlan) ---------------

/// aggregate_forward with precomputed coefficients, inner loops through the
/// SIMD kernel table. Bit-identical to the plan-less span form.
void aggregate_forward(const DeviceGraph& dev, const AggregatePlan& plan,
                       const Matrix& x, std::span<const NodeId> rows,
                       Matrix& out);

/// Row-subset adjoint with precomputed coefficients. Parallel over bands of
/// destination rows; every band applies the sources in span order, so the
/// result is bit-identical to the plan-less span form at any thread count.
void aggregate_backward(const DeviceGraph& dev, const AggregatePlan& plan,
                        const Matrix& grad_out, std::span<const NodeId> rows,
                        Matrix& grad_x);

// ---- FLOP accounting for the cost model ------------------------------------

/// FLOPs of aggregating `rows` (2 flops per edge per channel + self path).
double aggregate_flops(const DeviceGraph& dev, std::span<const NodeId> rows,
                       std::size_t dim);

/// FLOPs of a dense transform of `rows` rows: 2·rows·in·out.
double dense_flops(std::size_t rows, std::size_t in_dim, std::size_t out_dim);

/// FLOPs of row-wise epilogue (norm + activation + dropout), ~8 per element.
double epilogue_flops(std::size_t rows, std::size_t dim);

}  // namespace adaqp
