// Analytic-vs-numerical gradient checks for every layer component and the
// full model. These validate the hand-derived backward passes that replace
// PyTorch autograd (DESIGN.md §2).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/dist_graph.h"
#include "gnn/layers.h"
#include "gnn/model.h"
#include "graph/generators.h"
#include "runtime/thread_pool.h"

namespace adaqp {
namespace {

DistGraph whole_graph(const Graph& g) {
  PartitionResult part;
  part.num_parts = 1;
  part.part_of.assign(g.num_nodes(), 0);
  return build_dist_graph(g, part);
}

/// <forward(x; params), R> as a scalar probe function.
double probe(const GnnLayer& layer, const DeviceGraph& dev, const Matrix& x,
             const Matrix& r, Rng& rng) {
  Matrix out(dev.num_local(), layer.config().out_dim);
  LayerCache cache;
  const_cast<GnnLayer&>(layer).forward(dev, x, out, cache, rng,
                                       /*training=*/false);
  double acc = 0.0;
  for (std::size_t i = 0; i < dev.num_owned; ++i)
    for (std::size_t c = 0; c < layer.config().out_dim; ++c)
      acc += static_cast<double>(out.at(i, c)) * r.at(i, c);
  return acc;
}

struct LayerCase {
  Aggregator agg;
  bool is_output;  ///< hidden layers normalize, the output layer never
};

void PrintTo(const LayerCase& c, std::ostream* os) {
  *os << (c.agg == Aggregator::kGcn ? "gcn" : "sage")
      << (c.is_output ? "/out" : "/hidden");
}

class LayerGradCheck : public ::testing::TestWithParam<LayerCase> {};

TEST_P(LayerGradCheck, WeightAndInputGradientsMatchNumerics) {
  const auto param = GetParam();
  Rng rng(31);
  Graph g = erdos_renyi(14, 40, rng);
  const DistGraph dist = whole_graph(g);
  const DeviceGraph& dev = dist.devices[0];

  LayerConfig lc;
  lc.aggregator = param.agg;
  lc.in_dim = 5;
  lc.out_dim = 4;
  lc.is_output = param.is_output;
  lc.dropout = 0.0f;
  GnnLayer layer(lc);
  layer.init_weights(rng);

  Matrix x(dev.num_local(), 5);
  x.fill_uniform(rng, -1.0f, 1.0f);
  Matrix r(dev.num_owned, 4);
  r.fill_uniform(rng, -1.0f, 1.0f);

  // Analytic gradients.
  Matrix out(dev.num_local(), 4);
  LayerCache cache;
  layer.forward(dev, x, out, cache, rng, false);
  Matrix grad_out(dev.num_local(), 4);
  for (std::size_t i = 0; i < dev.num_owned; ++i)
    for (std::size_t c = 0; c < 4; ++c) grad_out.at(i, c) = r.at(i, c);
  Matrix grad_x(dev.num_local(), 5);
  LayerGrads sink;
  LayerBackwardScratch scratch;
  layer.backward_rows(dev, grad_out, cache, grad_x, sink, dev.owned_span(),
                      scratch);
  layer.apply_grads(sink);

  const float eps = 5e-3f;
  int checked = 0;
  // Weight gradients: probe a spread of entries of every parameter.
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->size(); i += std::max<std::size_t>(
             p->size() / 5, 1)) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double fp = probe(layer, dev, x, r, rng);
      p->value.data()[i] = orig - eps;
      const double fm = probe(layer, dev, x, r, rng);
      p->value.data()[i] = orig;
      const double numeric = (fp - fm) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  4e-2 * std::max(1.0, std::fabs(numeric)))
          << "param entry " << i;
      ++checked;
    }
  }
  EXPECT_GE(checked, 5);

  // Input gradients, including halo rows (none here, single device) —
  // probe a spread of x entries.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(
           x.size() / 8, 1)) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const double fp = probe(layer, dev, x, r, rng);
    x.data()[i] = orig - eps;
    const double fm = probe(layer, dev, x, r, rng);
    x.data()[i] = orig;
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(grad_x.data()[i], numeric,
                4e-2 * std::max(1.0, std::fabs(numeric)))
        << "input entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LayerGradCheck,
    ::testing::Values(LayerCase{Aggregator::kGcn, true},
                      LayerCase{Aggregator::kGcn, false},
                      LayerCase{Aggregator::kSageMean, true},
                      LayerCase{Aggregator::kSageMean, false}));

/// Fixture for the row-subset backward decomposition: a 2-device partition
/// (so marginal rows and halo gradient rows exist) plus one forward pass
/// that fills the cache backward reads.
struct BackwardRowsFixture {
  DistGraph dist;
  GnnLayer layer;
  Matrix x;
  Matrix out;
  Matrix grad_out;
  LayerCache cache;

  explicit BackwardRowsFixture(Aggregator agg, bool is_output)
      : layer([&] {
          LayerConfig lc;
          lc.aggregator = agg;
          lc.in_dim = 6;
          lc.out_dim = 5;
          lc.is_output = is_output;
          lc.dropout = 0.4f;
          return lc;
        }()) {
    Rng rng(1234);
    // A 10x10 grid split into halves: device 0 owns rows 0-4 of the grid,
    // so its grid rows 0-3 are central, grid row 4 is marginal, and grid
    // row 5 is its halo — all three row classes are non-empty.
    Graph g = grid_graph(10, 10);
    PartitionResult part;
    part.num_parts = 2;
    part.part_of.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      part.part_of[v] = v < 50 ? 0 : 1;
    dist = build_dist_graph(g, part);
    layer.init_weights(rng);
    const DeviceGraph& dev = dist.devices[0];
    EXPECT_GT(dev.central_nodes.size(), 0u);
    EXPECT_GT(dev.marginal_nodes.size(), 0u);
    EXPECT_GT(dev.num_halo, 0u);
    x = Matrix(dev.num_local(), 6);
    x.fill_uniform(rng, -1.0f, 1.0f);
    out = Matrix(dev.num_local(), 5);
    layer.forward(dev, x, out, cache, rng, /*training=*/true);
    grad_out = Matrix(dev.num_local(), 5);
    grad_out.fill_uniform(rng, -1.0f, 1.0f);
  }

  /// The whole-row adjoint: backward_rows over every owned row of device 0
  /// into a zeroed grad_x.
  void full_backward(Matrix& grad_x, LayerGrads& sink) const {
    const DeviceGraph& dev = dist.devices[0];
    grad_x = Matrix(dev.num_local(), 6);
    LayerBackwardScratch scratch;
    layer.backward_rows(dev, grad_out, cache, grad_x, sink, dev.owned_span(),
                        scratch);
  }
};

class BackwardRows : public ::testing::TestWithParam<LayerCase> {};

TEST_P(BackwardRows, MarginalPlusCentralSubsetsCoverFullBackward) {
  const auto param = GetParam();
  BackwardRowsFixture fx(param.agg, param.is_output);
  const DeviceGraph& dev = fx.dist.devices[0];

  Matrix ref_grad_x;
  LayerGrads ref_sink;
  fx.full_backward(ref_grad_x, ref_sink);

  // The trainer's decomposition: marginal-subset adjoint first (the sole
  // producer of halo gradient rows), then the central subset, per-subset
  // sinks folded afterwards.
  Matrix grad_x(dev.num_local(), 6);
  LayerGrads marginal_sink, central_sink;
  LayerBackwardScratch scratch;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, marginal_sink,
                         dev.marginal_span(), scratch);
  // Halo gradient rows are complete (and bit-identical to the whole-row
  // adjoint) before the central subset runs — the property that lets the
  // halo-gradient exchange overlap central-row backward.
  for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_EQ(grad_x.at(h, c), ref_grad_x.at(h, c)) << "halo row " << h;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, central_sink,
                         dev.central_span(), scratch);

  // Owned rows and parameter partials differ from the whole-row adjoint only
  // by float summation order.
  for (std::size_t i = 0; i < grad_x.size(); ++i)
    EXPECT_NEAR(grad_x.data()[i], ref_grad_x.data()[i],
                1e-4f * std::max(1.0f, std::fabs(ref_grad_x.data()[i])));
  Matrix folded = marginal_sink.weight;
  folded.add_inplace(central_sink.weight);
  for (std::size_t i = 0; i < folded.size(); ++i)
    EXPECT_NEAR(folded.data()[i], ref_sink.weight.data()[i],
                1e-4f * std::max(1.0f, std::fabs(ref_sink.weight.data()[i])));
}

bool same_bits(const Matrix& x, const Matrix& y) {
  // An empty matrix has a null data(), which memcmp must not receive.
  return x.same_shape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

TEST_P(BackwardRows, SkippedInputGradientKeepsParamGradsBitwise) {
  // The trainer's input layer: parameter gradients only. The sink must be
  // exactly the whole-row adjoint's, and grad_x must not be touched (nor its
  // mis-sized shape checked) at all.
  const auto param = GetParam();
  BackwardRowsFixture fx(param.agg, param.is_output);
  const DeviceGraph& dev = fx.dist.devices[0];

  Matrix ref_grad_x;
  LayerGrads ref_sink;
  fx.full_backward(ref_grad_x, ref_sink);

  Matrix grad_x(3, 2);
  grad_x.fill(-7.5f);
  const Matrix untouched = grad_x;
  LayerGrads sink;
  LayerBackwardScratch scratch;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, sink,
                         dev.owned_span(), scratch, InputGrad::kSkip);

  EXPECT_TRUE(same_bits(grad_x, untouched));
  EXPECT_TRUE(same_bits(sink.weight, ref_sink.weight));
  EXPECT_TRUE(same_bits(sink.weight_self, ref_sink.weight_self));
  EXPECT_TRUE(same_bits(sink.gamma, ref_sink.gamma));
  EXPECT_TRUE(same_bits(sink.beta, ref_sink.beta));
}

TEST(BackwardRows, EpilogueAdjointMatchesSelectAtSpecialValues) {
  // Row i of pre_act holds one special value; column j picks a (dy, mask)
  // pair whose product dpost is -0, +-inf, NaN or an ordinary number. The
  // adjoint must equal `pre > 0 ? dy * m : 0.0f` bit for bit.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> pres{0.0f, -0.0f,
                                std::numeric_limits<float>::denorm_min(),
                                kNaN, 1.0f, -1.0f};
  const std::vector<std::pair<float, float>> dy_mask{
      {-0.0f, 2.0f}, {-1.0f, 0.0f}, {3e38f, 2.0f}, {-3e38f, 2.0f},
      {kNaN, 2.0f},  {kInf, 0.0f},  {0.5f, 2.0f}};
  const std::size_t cols = dy_mask.size();

  Graph g = grid_graph(4, 4);
  const DistGraph dist = whole_graph(g);
  const DeviceGraph& dev = dist.devices[0];
  ASSERT_GE(dev.num_owned, pres.size());
  LayerConfig lc;
  lc.in_dim = 3;
  lc.out_dim = cols;
  lc.dropout = 0.5f;
  GnnLayer layer(lc);
  Rng rng(77);
  layer.init_weights(rng);
  Matrix x(dev.num_local(), 3);
  x.fill_uniform(rng, -1.0f, 1.0f);
  Matrix out(dev.num_local(), cols);
  LayerCache cache;
  layer.forward(dev, x, out, cache, rng, /*training=*/true);

  Matrix grad_out(dev.num_local(), cols);
  grad_out.fill_uniform(rng, -1.0f, 1.0f);
  for (std::size_t i = 0; i < pres.size(); ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      cache.pre_act.at(i, j) = pres[i];
      grad_out.at(i, j) = dy_mask[j].first;
      cache.drop_mask.at(i, j) = dy_mask[j].second;
    }

  Matrix grad_x(dev.num_local(), 3);
  LayerGrads sink;
  LayerBackwardScratch scratch;
  layer.backward_rows(dev, grad_out, cache, grad_x, sink, dev.owned_span(),
                      scratch);
  for (std::size_t i = 0; i < dev.num_owned; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      const float dpost = grad_out.at(i, j) * cache.drop_mask.at(i, j);
      const float want = cache.pre_act.at(i, j) > 0.0f ? dpost : 0.0f;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(scratch.dpre_act.at(i, j)),
                std::bit_cast<std::uint32_t>(want))
          << "row " << i << " col " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BackwardRows,
    ::testing::Values(LayerCase{Aggregator::kGcn, false},
                      LayerCase{Aggregator::kGcn, true},
                      LayerCase{Aggregator::kSageMean, false}));

std::vector<NodeId> all_rows(const Matrix& m) {
  std::vector<NodeId> rows(m.rows());
  std::iota(rows.begin(), rows.end(), NodeId{0});
  return rows;
}

/// LayerNorm over every row of `in`, through the row-subset entry point.
void ln_forward(const LayerNorm& ln, const Matrix& in, Matrix& out,
                LayerNorm::Cache& cache) {
  out = Matrix(in.rows(), in.cols());
  cache.normalized = Matrix(in.rows(), in.cols());
  cache.rstd.assign(in.rows(), 0.0f);
  ln.forward_rows(in, out, cache, all_rows(in));
}

TEST(LayerNorm, ForwardNormalizesRows) {
  Rng rng(41);
  LayerNorm ln(6);
  Matrix in(3, 6);
  in.fill_uniform(rng, -5.0f, 5.0f);
  Matrix out;
  LayerNorm::Cache cache;
  ln_forward(ln, in, out, cache);
  for (std::size_t r = 0; r < 3; ++r) {
    double mean = 0.0, var = 0.0;
    for (float v : out.row(r)) mean += v;
    mean /= 6.0;
    for (float v : out.row(r)) var += (v - mean) * (v - mean);
    var /= 6.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, AffineParamsApplied) {
  LayerNorm ln(2);
  ln.gamma.value.at(0, 0) = 2.0f;
  ln.beta.value.at(0, 1) = 1.0f;
  Matrix in(1, 2, {-1.0f, 1.0f});
  Matrix out;
  LayerNorm::Cache cache;
  ln_forward(ln, in, out, cache);
  // Normalized row is (-1, 1) (up to epsilon); gamma/beta apply per column.
  EXPECT_NEAR(out.at(0, 0), -2.0f, 1e-3f);
  EXPECT_NEAR(out.at(0, 1), 2.0f, 1e-3f);
}

TEST(LayerNorm, GradientMatchesNumerics) {
  Rng rng(42);
  LayerNorm ln(5);
  ln.gamma.value.fill_uniform(rng, 0.5f, 1.5f);
  ln.beta.value.fill_uniform(rng, -0.5f, 0.5f);
  Matrix in(4, 5);
  in.fill_uniform(rng, -2.0f, 2.0f);
  Matrix r(4, 5);
  r.fill_uniform(rng, -1.0f, 1.0f);

  auto scalar = [&](const Matrix& input) {
    Matrix out;
    LayerNorm::Cache cache;
    ln_forward(ln, input, out, cache);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.data()[i]) * r.data()[i];
    return acc;
  };

  Matrix out;
  LayerNorm::Cache cache;
  ln_forward(ln, in, out, cache);
  ln.gamma.zero_grad();
  ln.beta.zero_grad();
  Matrix grad_in(4, 5);
  ln.backward_rows(r, cache, grad_in, ln.gamma.grad, ln.beta.grad,
                   all_rows(r));

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < in.size(); i += 3) {
    const float orig = in.data()[i];
    in.data()[i] = orig + eps;
    const double fp = scalar(in);
    in.data()[i] = orig - eps;
    const double fm = scalar(in);
    in.data()[i] = orig;
    EXPECT_NEAR(grad_in.data()[i], (fp - fm) / (2.0 * eps), 2e-2);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    const float orig = ln.gamma.value.data()[i];
    ln.gamma.value.data()[i] = orig + eps;
    const double fp = scalar(in);
    ln.gamma.value.data()[i] = orig - eps;
    const double fm = scalar(in);
    ln.gamma.value.data()[i] = orig;
    EXPECT_NEAR(ln.gamma.grad.data()[i], (fp - fm) / (2.0 * eps), 2e-2);
  }
}

/// The serial per-row LayerNorm forward and adjoint (dγ / dβ accumulated
/// row by row inside the adjoint loop): the reference the banded kernels
/// must reproduce bit for bit.
void ln_reference_forward(const LayerNorm& ln, const Matrix& in, Matrix& out,
                          LayerNorm::Cache& cache,
                          std::span<const NodeId> rows) {
  const std::size_t dim = in.cols();
  for (NodeId r : rows) {
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
    const auto rstd = static_cast<float>(1.0 / std::sqrt(var + ln.epsilon));
    cache.rstd[r] = rstd;
    for (std::size_t c = 0; c < dim; ++c) {
      cache.normalized.at(r, c) = (x[c] - static_cast<float>(mean)) * rstd;
      out.at(r, c) = cache.normalized.at(r, c) * ln.gamma.value.at(0, c) +
                     ln.beta.value.at(0, c);
    }
  }
}

void ln_reference_backward(const LayerNorm& ln, const Matrix& grad_out,
                           const LayerNorm::Cache& cache, Matrix& grad_in,
                           Matrix& dgamma, Matrix& dbeta,
                           std::span<const NodeId> rows) {
  const std::size_t dim = grad_out.cols();
  for (NodeId r : rows) {
    const auto dy = grad_out.row(r);
    const auto xh = cache.normalized.row(r);
    double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      dgamma.at(0, c) += dy[c] * xh[c];
      dbeta.at(0, c) += dy[c];
      const double dxh = static_cast<double>(dy[c]) * ln.gamma.value.at(0, c);
      mean_dxhat += dxh;
      mean_dxhat_xhat += dxh * xh[c];
    }
    mean_dxhat /= static_cast<double>(dim);
    mean_dxhat_xhat /= static_cast<double>(dim);
    for (std::size_t c = 0; c < dim; ++c) {
      const double dxh = static_cast<double>(dy[c]) * ln.gamma.value.at(0, c);
      grad_in.at(r, c) = static_cast<float>(
          cache.rstd[r] * (dxh - mean_dxhat - xh[c] * mean_dxhat_xhat));
    }
  }
}

TEST(LayerNorm, RowsBitIdenticalAcrossThreadCounts) {
  // 600 rows of 37 columns (a vector tail); the list is every 7th row
  // ("marginal") then the others except the last 20 ("central"), so it is
  // non-ascending and leaves rows the kernels must not touch.
  constexpr std::size_t kRows = 600, kDim = 37;
  Rng rng(91);
  LayerNorm ln(kDim);
  ln.gamma.value.fill_uniform(rng, 0.5f, 1.5f);
  ln.beta.value.fill_uniform(rng, -0.5f, 0.5f);
  Matrix in(kRows, kDim);
  in.fill_uniform(rng, -3.0f, 3.0f);
  Matrix grad_out(kRows, kDim);
  grad_out.fill_uniform(rng, -2.0f, 2.0f);
  std::vector<NodeId> rows;
  for (NodeId r = 0; r < kRows; r += 7) rows.push_back(r);
  for (NodeId r = 0; r < kRows - 20; ++r)
    if (r % 7 != 0) rows.push_back(r);

  const auto fresh = [&](Matrix& out, LayerNorm::Cache& cache,
                         Matrix& grad_in, Matrix& dgamma, Matrix& dbeta) {
    out = Matrix(kRows, kDim);
    out.fill(-9.0f);
    cache.normalized = Matrix(kRows, kDim);
    cache.normalized.fill(-8.0f);
    cache.rstd.assign(kRows, -7.0f);
    grad_in = Matrix(kRows, kDim);
    grad_in.fill(-6.0f);
    dgamma = Matrix(1, kDim);
    dgamma.fill(0.25f);
    dbeta = Matrix(1, kDim);
    dbeta.fill(-0.5f);
  };
  Matrix ref_out, ref_grad_in, ref_dgamma, ref_dbeta;
  LayerNorm::Cache ref_cache;
  fresh(ref_out, ref_cache, ref_grad_in, ref_dgamma, ref_dbeta);
  ln_reference_forward(ln, in, ref_out, ref_cache, rows);
  ln_reference_backward(ln, grad_out, ref_cache, ref_grad_in, ref_dgamma,
                        ref_dbeta, rows);

  const int prev = num_threads();
  for (int threads : {1, 4, 8}) {
    set_num_threads(threads);
    Matrix out, grad_in, dgamma, dbeta;
    LayerNorm::Cache cache;
    fresh(out, cache, grad_in, dgamma, dbeta);
    ln.forward_rows(in, out, cache, rows);
    ln.backward_rows(grad_out, cache, grad_in, dgamma, dbeta, rows);
    EXPECT_TRUE(same_bits(out, ref_out)) << threads << " threads";
    EXPECT_TRUE(same_bits(cache.normalized, ref_cache.normalized))
        << threads << " threads";
    EXPECT_EQ(std::memcmp(cache.rstd.data(), ref_cache.rstd.data(),
                          kRows * sizeof(float)),
              0)
        << threads << " threads";
    EXPECT_TRUE(same_bits(grad_in, ref_grad_in)) << threads << " threads";
    EXPECT_TRUE(same_bits(dgamma, ref_dgamma)) << threads << " threads";
    EXPECT_TRUE(same_bits(dbeta, ref_dbeta)) << threads << " threads";
  }
  set_num_threads(prev);
}

// At 2 and 3 threads a parallel_for chunk holds several dγ/dβ column bands
// (70 columns: four full bands and a 6-column tail), unlike the 1-thread
// single walk and the one-band chunks at 4 and 8 threads.
TEST(LayerNorm, ParamBandsBitIdenticalWhenChunksHoldSeveralBands) {
  constexpr std::size_t kRows = 300, kDim = 70;
  Rng rng(92);
  LayerNorm ln(kDim);
  ln.gamma.value.fill_uniform(rng, 0.5f, 1.5f);
  Matrix in(kRows, kDim);
  in.fill_uniform(rng, -3.0f, 3.0f);
  Matrix grad_out(kRows, kDim);
  grad_out.fill_uniform(rng, -2.0f, 2.0f);
  std::vector<NodeId> rows;
  for (NodeId r = kRows; r-- > 0;) rows.push_back(r);

  LayerNorm::Cache cache;
  cache.normalized = Matrix(kRows, kDim);
  cache.rstd.assign(kRows, 0.0f);
  Matrix out(kRows, kDim), grad_in(kRows, kDim);
  ln.forward_rows(in, out, cache, rows);
  Matrix ref_dgamma(1, kDim), ref_dbeta(1, kDim), ref_grad_in(kRows, kDim);
  ref_dgamma.fill(0.25f);
  ref_dbeta.fill(-0.5f);
  ln_reference_backward(ln, grad_out, cache, ref_grad_in, ref_dgamma,
                        ref_dbeta, rows);

  const int prev = num_threads();
  for (int threads : {2, 3}) {
    set_num_threads(threads);
    Matrix dgamma(1, kDim), dbeta(1, kDim);
    dgamma.fill(0.25f);
    dbeta.fill(-0.5f);
    ln.backward_rows(grad_out, cache, grad_in, dgamma, dbeta, rows);
    EXPECT_TRUE(same_bits(dgamma, ref_dgamma)) << threads << " threads";
    EXPECT_TRUE(same_bits(dbeta, ref_dbeta)) << threads << " threads";
  }
  set_num_threads(prev);
}

TEST(Model, LayerDimensionChain) {
  Rng rng(43);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = 10;
  mc.hidden_dim = 8;
  mc.out_dim = 3;
  mc.num_layers = 3;
  GnnModel model(mc, rng);
  EXPECT_EQ(model.layer_in_dim(0), 10u);
  EXPECT_EQ(model.layer_out_dim(0), 8u);
  EXPECT_EQ(model.layer_in_dim(1), 8u);
  EXPECT_EQ(model.layer_out_dim(2), 3u);
  EXPECT_TRUE(model.layer(2).config().is_output);
  EXPECT_FALSE(model.layer(0).config().is_output);
}

TEST(Model, SageHasSelfWeights) {
  Rng rng(45);
  ModelConfig gcn_cfg;
  gcn_cfg.aggregator = Aggregator::kGcn;
  gcn_cfg.in_dim = 4;
  gcn_cfg.hidden_dim = 4;
  gcn_cfg.out_dim = 2;
  gcn_cfg.num_layers = 2;
  GnnModel gcn(gcn_cfg, rng);
  ModelConfig sage_cfg = gcn_cfg;
  sage_cfg.aggregator = Aggregator::kSageMean;
  GnnModel sage(sage_cfg, rng);
  EXPECT_GT(sage.params().size(), gcn.params().size());
}

}  // namespace
}  // namespace adaqp
