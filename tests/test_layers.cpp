// Analytic-vs-numerical gradient checks for every layer component and the
// full model. These validate the hand-derived backward passes that replace
// PyTorch autograd (DESIGN.md §2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "dist/dist_graph.h"
#include "gnn/layers.h"
#include "gnn/model.h"
#include "graph/generators.h"

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
  bool is_output;
  bool layer_norm;
};

void PrintTo(const LayerCase& c, std::ostream* os) {
  *os << (c.agg == Aggregator::kGcn ? "gcn" : "sage")
      << (c.is_output ? "/out" : "/hidden") << (c.layer_norm ? "/ln" : "");
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
  lc.layer_norm = param.layer_norm;
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
  layer.zero_grad();
  Matrix grad_x;
  layer.backward(dev, grad_out, cache, grad_x);

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
    ::testing::Values(LayerCase{Aggregator::kGcn, true, false},
                      LayerCase{Aggregator::kGcn, false, false},
                      LayerCase{Aggregator::kGcn, false, true},
                      LayerCase{Aggregator::kSageMean, true, false},
                      LayerCase{Aggregator::kSageMean, false, true},
                      LayerCase{Aggregator::kSum, false, true},
                      LayerCase{Aggregator::kSum, true, false}));

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
          lc.layer_norm = !is_output;
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
};

class BackwardRows : public ::testing::TestWithParam<LayerCase> {};

TEST_P(BackwardRows, FullOwnedListReproducesBackwardBitwise) {
  const auto param = GetParam();
  BackwardRowsFixture fx(param.agg, param.is_output);
  const DeviceGraph& dev = fx.dist.devices[0];

  Matrix ref_grad_x;
  LayerGrads ref_sink;
  fx.layer.backward(dev, fx.grad_out, fx.cache, ref_grad_x, ref_sink);

  Matrix grad_x(dev.num_local(), 6);
  LayerGrads sink;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, sink,
                         dev.owned_span());

  EXPECT_EQ(max_abs_diff(grad_x, ref_grad_x), 0.0f);
  EXPECT_EQ(max_abs_diff(sink.weight, ref_sink.weight), 0.0f);
  if (!ref_sink.weight_self.empty())
    EXPECT_EQ(max_abs_diff(sink.weight_self, ref_sink.weight_self), 0.0f);
  if (!ref_sink.gamma.empty()) {
    EXPECT_EQ(max_abs_diff(sink.gamma, ref_sink.gamma), 0.0f);
    EXPECT_EQ(max_abs_diff(sink.beta, ref_sink.beta), 0.0f);
  }
}

TEST_P(BackwardRows, MarginalPlusCentralSubsetsCoverFullBackward) {
  const auto param = GetParam();
  BackwardRowsFixture fx(param.agg, param.is_output);
  const DeviceGraph& dev = fx.dist.devices[0];

  Matrix ref_grad_x;
  LayerGrads ref_sink;
  fx.layer.backward(dev, fx.grad_out, fx.cache, ref_grad_x, ref_sink);

  // The trainer's decomposition: marginal-subset adjoint first (the sole
  // producer of halo gradient rows), then the central subset, per-subset
  // sinks folded afterwards.
  Matrix grad_x(dev.num_local(), 6);
  LayerGrads marginal_sink, central_sink;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, marginal_sink,
                         dev.marginal_span());
  // Halo gradient rows are complete (and bit-identical to the full
  // backward) before the central subset runs — the property that lets the
  // halo-gradient exchange overlap central-row backward.
  for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_EQ(grad_x.at(h, c), ref_grad_x.at(h, c)) << "halo row " << h;
  fx.layer.backward_rows(dev, fx.grad_out, fx.cache, grad_x, central_sink,
                         dev.central_span());

  // Owned rows and parameter partials differ from the full backward only by
  // float summation order.
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
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST_P(BackwardRows, SkippedInputGradientKeepsParamGradsBitwise) {
  // The trainer's input layer: parameter gradients only. The sink must be
  // exactly the full backward's, and grad_x must not be touched at all.
  const auto param = GetParam();
  BackwardRowsFixture fx(param.agg, param.is_output);
  const DeviceGraph& dev = fx.dist.devices[0];

  Matrix ref_grad_x;
  LayerGrads ref_sink;
  LayerBackwardScratch ref_scratch;
  fx.layer.backward(dev, fx.grad_out, fx.cache, ref_grad_x, ref_sink,
                    ref_scratch, InputGrad::kCompute);

  Matrix grad_x(3, 2);
  grad_x.fill(-7.5f);
  const Matrix untouched = grad_x;
  LayerGrads sink;
  LayerBackwardScratch scratch;
  fx.layer.backward(dev, fx.grad_out, fx.cache, grad_x, sink, scratch,
                    InputGrad::kSkip);

  EXPECT_TRUE(same_bits(grad_x, untouched));
  EXPECT_TRUE(same_bits(sink.weight, ref_sink.weight));
  EXPECT_TRUE(same_bits(sink.weight_self, ref_sink.weight_self));
  EXPECT_TRUE(same_bits(sink.gamma, ref_sink.gamma));
  EXPECT_TRUE(same_bits(sink.beta, ref_sink.beta));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BackwardRows,
    ::testing::Values(LayerCase{Aggregator::kGcn, false, true},
                      LayerCase{Aggregator::kGcn, true, false},
                      LayerCase{Aggregator::kSageMean, false, true},
                      LayerCase{Aggregator::kSum, false, true}));

TEST(LayerNorm, ForwardNormalizesRows) {
  Rng rng(41);
  LayerNorm ln(6);
  Matrix in(3, 6);
  in.fill_uniform(rng, -5.0f, 5.0f);
  Matrix out;
  LayerNorm::Cache cache;
  ln.forward(in, out, cache);
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
  ln.forward(in, out, cache);
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
    ln.forward(input, out, cache);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.data()[i]) * r.data()[i];
    return acc;
  };

  Matrix out;
  LayerNorm::Cache cache;
  ln.forward(in, out, cache);
  ln.gamma.zero_grad();
  ln.beta.zero_grad();
  Matrix grad_in;
  ln.backward(r, cache, grad_in);

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

TEST(Model, FlattenUnflattenGradsRoundTrip) {
  Rng rng(44);
  ModelConfig mc;
  mc.aggregator = Aggregator::kSageMean;
  mc.in_dim = 6;
  mc.hidden_dim = 4;
  mc.out_dim = 2;
  mc.num_layers = 2;
  GnnModel model(mc, rng);
  for (Param* p : model.params()) p->grad.fill_uniform(rng, -1.0f, 1.0f);
  const Matrix flat = model.flatten_grads();
  Matrix doubled = flat;
  doubled.scale_inplace(2.0f);
  model.unflatten_grads(doubled);
  const Matrix back = model.flatten_grads();
  EXPECT_EQ(max_abs_diff(back, doubled), 0.0f);
  EXPECT_EQ(flat.size() * sizeof(float), model.grad_bytes());
}

TEST(Model, SageHasSelfWeights) {
  Rng rng(45);
  ModelConfig gcn_cfg;
  gcn_cfg.aggregator = Aggregator::kGcn;
  gcn_cfg.in_dim = 4;
  gcn_cfg.hidden_dim = 4;
  gcn_cfg.out_dim = 2;
  gcn_cfg.num_layers = 2;
  gcn_cfg.layer_norm = false;
  GnnModel gcn(gcn_cfg, rng);
  ModelConfig sage_cfg = gcn_cfg;
  sage_cfg.aggregator = Aggregator::kSageMean;
  GnnModel sage(sage_cfg, rng);
  EXPECT_GT(sage.params().size(), gcn.params().size());
}

}  // namespace
}  // namespace adaqp
