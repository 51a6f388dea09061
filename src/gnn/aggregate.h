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
// writes halo rows as well as owned rows — halo contributions are the
// embedding-gradient messages the paper sends in the backward pass.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

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

/// The aggregation adjoint of one source row set, transposed into a
/// destination-row gather. For every local row u (owned or halo) that the
/// sources reach, entries [offsets[i], offsets[i+1]) of (src, coeff) list
/// its (source row, coefficient) pairs in the exact order the serial
/// scatter applies them: each source v in span order, first its self
/// entry, then its CSR edges in CSR order. A zero coefficient keeps its
/// entry (SAGE's self term still turns a -0 gradient into +0).
struct AggregateAdjoint {
  std::vector<NodeId> rows;  ///< the source row set, in span order: its key
  std::vector<NodeId> dst;   ///< destination rows with >= 1 entry, ascending
  std::vector<std::uint32_t> offsets;  ///< dst.size() + 1 entry offsets
  std::vector<NodeId> src;             ///< source row per entry
  std::vector<float> coeff;            ///< coefficient per entry
};

/// Precomputed coefficients for one (device, aggregator) pair — the
/// steady-state form of the aggregation kernels. The trainer builds one
/// plan per device at construction and every layer's LayerCache shares it
/// (evaluation included); the plan-based kernels below then run
/// allocation-free and dispatch their per-row inner loops through the SIMD
/// kernel table (scale_row / gather_axpy). Coefficients are the same float
/// casts the plan-less kernels compute per edge, so plan and plan-less
/// paths are bit-identical.
struct AggregatePlan {
  Aggregator agg = Aggregator::kGcn;
  /// α(v,v) per owned local id (zero for SAGE-mean).
  std::vector<float> self_coeff;
  /// α(u,v) per forward CSR edge, aligned with DeviceGraph::neighbor_ids.
  std::vector<float> coeff;
  /// One transposed adjoint per row set the backward runs over (training
  /// only; a forward-only plan has none).
  std::vector<AggregateAdjoint> adjoints;

  /// The adjoint whose row set equals `rows` element for element, or
  /// nullptr. Matched by content, so a span of another list with the same
  /// rows finds it and a rewritten list never does.
  const AggregateAdjoint* adjoint_for(std::span<const NodeId> rows) const;
};

/// Build the plan for (dev, agg), with one adjoint per distinct non-empty
/// row set of `adjoint_rows` (each a subset of the owned rows).
AggregatePlan build_aggregate_plan(
    const DeviceGraph& dev, Aggregator agg,
    std::initializer_list<std::span<const NodeId>> adjoint_rows = {});

/// out (num_owned x dim) = aggregate over rows of x (num_local x dim),
/// restricted to the owned rows in `rows`. Other rows of `out` are untouched.
void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       std::span<const NodeId> rows, Matrix& out);

/// Convenience: aggregate all owned rows.
void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       Matrix& out);

/// Adjoint: grad_x (num_local x dim) += Aᵀ · grad_out for the owned rows in
/// `rows` of grad_out. grad_x must be pre-sized (num_local x dim). The
/// serial scatter: the reference every plan-based adjoint reproduces.
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

/// Row-subset adjoint with precomputed coefficients. When the plan holds
/// the adjoint of `rows`, a parallel_for over its destination rows calls
/// gather_axpy once per row: each row sums its entries in scatter order
/// through the same unfused multiply-add, so the result is bit-identical to
/// the serial scatter at any thread count and ISA. Rows without entries are
/// not written (a central-row call leaves every halo row alone). A row set
/// without an adjoint runs the serial scatter.
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
