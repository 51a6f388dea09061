// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "gnn/aggregate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "runtime/parallel_for.h"
#include "simd/kernels.h"

namespace adaqp {

namespace {
constexpr std::size_t kRowGrain = 32;  ///< min rows per parallel band
}  // namespace

double aggregation_coefficient(Aggregator agg, std::uint32_t deg_u,
                               std::uint32_t deg_v) {
  switch (agg) {
    case Aggregator::kGcn:
      return 1.0 / std::sqrt(static_cast<double>(deg_u + 1) *
                             static_cast<double>(deg_v + 1));
    case Aggregator::kSageMean:
      return deg_v == 0 ? 0.0 : 1.0 / static_cast<double>(deg_v);
  }
  return 0.0;
}

double self_coefficient(Aggregator agg, std::uint32_t deg_v) {
  switch (agg) {
    case Aggregator::kGcn:
      return 1.0 / static_cast<double>(deg_v + 1);
    case Aggregator::kSageMean:
      return 0.0;  // SAGE handles the self path through W_self
  }
  return 0.0;
}

void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       std::span<const NodeId> rows, Matrix& out) {
  ADAQP_CHECK(x.rows() == dev.num_local());
  ADAQP_CHECK(out.rows() >= dev.num_owned && out.cols() == x.cols());
  const std::size_t dim = x.cols();
  // Each destination row is owned by exactly one index of `rows`, so bands
  // write disjoint rows and any thread count is bit-identical to serial.
  parallel_for(rows.size(), kRowGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t idx = b; idx < e; ++idx) {
      const NodeId v = rows[idx];
      ADAQP_CHECK(v < dev.num_owned);
      auto dst = out.row(v);
      const auto self_c =
          static_cast<float>(self_coefficient(agg, dev.global_degree[v]));
      const auto src_self = x.row(v);
      for (std::size_t c = 0; c < dim; ++c) dst[c] = self_c * src_self[c];
      for (NodeId u : dev.neighbors(v)) {
        const auto coeff = static_cast<float>(aggregation_coefficient(
            agg, dev.global_degree[u], dev.global_degree[v]));
        const auto src = x.row(u);
        for (std::size_t c = 0; c < dim; ++c) dst[c] += coeff * src[c];
      }
    }
  });
}

void aggregate_forward(const DeviceGraph& dev, Aggregator agg, const Matrix& x,
                       Matrix& out) {
  // Every owned row is fully overwritten below, so stale contents are fine —
  // reshape_uninit reuses the retained capacity instead of reallocating.
  out.reshape_uninit(dev.num_owned, x.cols());
  std::vector<NodeId> scratch;
  aggregate_forward(dev, agg, x, dev.owned_span_or(scratch), out);
}

namespace {

/// The adjoint of `rows` as a destination-row gather: a stable counting sort
/// of the serial scatter's (destination, source, coefficient) sequence by
/// destination.
AggregateAdjoint build_adjoint(const DeviceGraph& dev,
                               const AggregatePlan& plan,
                               std::span<const NodeId> rows) {
  AggregateAdjoint adj;
  adj.rows.assign(rows.begin(), rows.end());  // lint:allow(hot-path-alloc) plan build
  std::vector<std::uint32_t> count(dev.num_local(), 0);
  for (NodeId v : rows) {
    ADAQP_CHECK(v < dev.num_owned);
    ++count[v];
    for (NodeId u : dev.neighbors(v)) ++count[u];
  }
  const std::size_t entries = rows.size() + dev.edges_of(rows);
  ADAQP_CHECK(entries <= UINT32_MAX);
  const auto reached = static_cast<std::size_t>(std::count_if(
      count.begin(), count.end(), [](std::uint32_t c) { return c > 0; }));
  adj.dst.reserve(reached);  // lint:allow(hot-path-alloc) plan build
  adj.offsets.reserve(reached + 1);  // lint:allow(hot-path-alloc) plan build
  // count[u] becomes u's write cursor into the entry arrays.
  std::uint32_t next = 0;
  for (std::size_t u = 0; u < count.size(); ++u) {
    if (count[u] == 0) continue;
    adj.dst.push_back(static_cast<NodeId>(u));  // lint:allow(hot-path-alloc) plan build
    adj.offsets.push_back(next);  // lint:allow(hot-path-alloc) plan build
    next += std::exchange(count[u], next);
  }
  adj.offsets.push_back(next);  // lint:allow(hot-path-alloc) plan build
  adj.src.resize(entries);  // lint:allow(hot-path-alloc) plan build
  adj.coeff.resize(entries);  // lint:allow(hot-path-alloc) plan build
  const auto place = [&](NodeId u, NodeId v, float c) {
    const std::uint32_t k = count[u]++;
    adj.src[k] = v;
    adj.coeff[k] = c;
  };
  for (NodeId v : rows) {
    place(v, v, plan.self_coeff[v]);
    for (EdgeIdx e = dev.offsets[v]; e < dev.offsets[v + 1]; ++e)
      place(dev.neighbor_ids[e], v, plan.coeff[e]);
  }
  return adj;
}

}  // namespace

const AggregateAdjoint* AggregatePlan::adjoint_for(
    std::span<const NodeId> rows) const {
  for (const AggregateAdjoint& adj : adjoints)
    if (std::equal(rows.begin(), rows.end(), adj.rows.begin(),
                   adj.rows.end()))
      return &adj;
  return nullptr;
}

AggregatePlan build_aggregate_plan(
    const DeviceGraph& dev, Aggregator agg,
    std::initializer_list<std::span<const NodeId>> adjoint_rows) {
  AggregatePlan plan;
  plan.agg = agg;
  plan.self_coeff.resize(dev.num_owned);  // lint:allow(hot-path-alloc) plan build (refresh only)
  for (std::size_t v = 0; v < dev.num_owned; ++v)
    plan.self_coeff[v] =
        static_cast<float>(self_coefficient(agg, dev.global_degree[v]));
  plan.coeff.resize(dev.neighbor_ids.size());  // lint:allow(hot-path-alloc) plan build (refresh only)
  for (std::size_t v = 0; v < dev.num_owned; ++v) {
    const auto dv = dev.global_degree[v];
    for (EdgeIdx e = dev.offsets[v]; e < dev.offsets[v + 1]; ++e)
      plan.coeff[e] = static_cast<float>(aggregation_coefficient(
          agg, dev.global_degree[dev.neighbor_ids[e]], dv));
  }
  for (std::span<const NodeId> rows : adjoint_rows)
    if (!rows.empty() && plan.adjoint_for(rows) == nullptr)
      plan.adjoints.push_back(build_adjoint(dev, plan, rows));  // lint:allow(hot-path-alloc) plan build
  return plan;
}

void aggregate_forward(const DeviceGraph& dev, const AggregatePlan& plan,
                       const Matrix& x, std::span<const NodeId> rows,
                       Matrix& out) {
  ADAQP_CHECK(plan.self_coeff.size() == dev.num_owned);
  ADAQP_CHECK(x.rows() == dev.num_local());
  ADAQP_CHECK(out.rows() >= dev.num_owned && out.cols() == x.cols());
  const std::size_t dim = x.cols();
  const simd::KernelTable& kt = simd::kernels();
  parallel_for(rows.size(), kRowGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t idx = b; idx < e; ++idx) {
      const NodeId v = rows[idx];
      ADAQP_CHECK(v < dev.num_owned);
      float* dst = out.row(v).data();
      kt.scale_row(plan.self_coeff[v], x.row(v).data(), dst, dim);
      const EdgeIdx begin = dev.offsets[v];
      kt.gather_axpy(x.data(), dim, dev.neighbor_ids.data() + begin,
                     plan.coeff.data() + begin,
                     static_cast<std::size_t>(dev.offsets[v + 1] - begin),
                     dst, dim);
    }
  });
}

void aggregate_backward(const DeviceGraph& dev, const AggregatePlan& plan,
                        const Matrix& grad_out, std::span<const NodeId> rows,
                        Matrix& grad_x) {
  const AggregateAdjoint* adj = plan.adjoint_for(rows);
  if (adj == nullptr) {
    aggregate_backward(dev, plan.agg, grad_out, rows, grad_x);
    return;
  }
  ADAQP_CHECK(plan.self_coeff.size() == dev.num_owned);
  ADAQP_CHECK(grad_out.rows() >= dev.num_owned);
  ADAQP_CHECK(grad_x.rows() == dev.num_local());
  ADAQP_CHECK(grad_x.cols() == grad_out.cols());
  const std::size_t dim = grad_out.cols();
  const simd::KernelTable& kt = simd::kernels();
  // Each destination row is one index of adj->dst, so bands write disjoint
  // rows, and each row sums its sources in scatter order.
  parallel_for(adj->dst.size(), kRowGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::uint32_t begin = adj->offsets[i];
      kt.gather_axpy(grad_out.data(), dim, adj->src.data() + begin,
                     adj->coeff.data() + begin, adj->offsets[i + 1] - begin,
                     grad_x.row(adj->dst[i]).data(), dim);
    }
  });
}

void aggregate_backward(const DeviceGraph& dev, Aggregator agg,
                        const Matrix& grad_out, std::span<const NodeId> rows,
                        Matrix& grad_x) {
  ADAQP_CHECK(grad_x.rows() == dev.num_local());
  ADAQP_CHECK(grad_x.cols() == grad_out.cols());
  const std::size_t dim = grad_out.cols();
  for (NodeId v : rows) {
    ADAQP_CHECK(v < dev.num_owned);
    const auto g = grad_out.row(v);
    const auto self_c =
        static_cast<float>(self_coefficient(agg, dev.global_degree[v]));
    auto dst_self = grad_x.row(v);
    for (std::size_t c = 0; c < dim; ++c) dst_self[c] += self_c * g[c];
    for (NodeId u : dev.neighbors(v)) {
      const auto coeff = static_cast<float>(aggregation_coefficient(
          agg, dev.global_degree[u], dev.global_degree[v]));
      auto dst = grad_x.row(u);
      for (std::size_t c = 0; c < dim; ++c) dst[c] += coeff * g[c];
    }
  }
}

void aggregate_backward(const DeviceGraph& dev, Aggregator agg,
                        const Matrix& grad_out, Matrix& grad_x) {
  std::vector<NodeId> scratch;
  aggregate_backward(dev, agg, grad_out, dev.owned_span_or(scratch), grad_x);
}

double aggregate_flops(const DeviceGraph& dev, std::span<const NodeId> rows,
                       std::size_t dim) {
  const double edges = static_cast<double>(dev.edges_of(rows));
  const double nrows = static_cast<double>(rows.size());
  return 2.0 * edges * static_cast<double>(dim) +
         2.0 * nrows * static_cast<double>(dim);
}

double dense_flops(std::size_t rows, std::size_t in_dim, std::size_t out_dim) {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(in_dim) *
         static_cast<double>(out_dim);
}

double epilogue_flops(std::size_t rows, std::size_t dim) {
  return 8.0 * static_cast<double>(rows) * static_cast<double>(dim);
}

}  // namespace adaqp
