// Tests for task losses, their gradients, and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "gnn/loss.h"
#include "runtime/thread_pool.h"

namespace adaqp {
namespace {

TEST(SoftmaxCrossEntropy, MatchesHandComputedValue) {
  // Single row, logits (0, ln 3): p = (0.25, 0.75).
  Matrix logits(1, 2, {0.0f, std::log(3.0f)});
  Matrix grad(1, 2);
  const std::vector<std::uint32_t> rows = {0};
  const std::vector<std::int32_t> labels = {1};
  const double loss = softmax_cross_entropy(logits, rows, labels, 1.0, grad);
  EXPECT_NEAR(loss, -std::log(0.75), 1e-6);
  EXPECT_NEAR(grad.at(0, 0), 0.25f, 1e-6f);
  EXPECT_NEAR(grad.at(0, 1), -0.25f, 1e-6f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifferences) {
  Rng rng(1);
  Matrix logits(4, 5);
  logits.fill_uniform(rng, -2.0f, 2.0f);
  const std::vector<std::uint32_t> rows = {0, 2, 3};
  const std::vector<std::int32_t> labels = {1, 4, 0};
  Matrix grad(4, 5);
  softmax_cross_entropy(logits, rows, labels, 3.0, grad);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 5; ++c) {
      Matrix lp = logits, lm = logits;
      lp.at(r, c) += eps;
      lm.at(r, c) -= eps;
      Matrix dummy(4, 5);
      const double fp = softmax_cross_entropy(lp, rows, labels, 3.0, dummy) / 3.0;
      dummy.set_zero();
      const double fm = softmax_cross_entropy(lm, rows, labels, 3.0, dummy) / 3.0;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(grad.at(r, c), numeric, 2e-3)
          << "logit (" << r << "," << c << ")";
    }
}

TEST(SoftmaxCrossEntropy, UntouchedRowsGetNoGradient) {
  Matrix logits(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix grad(3, 2);
  const std::vector<std::uint32_t> rows = {1};
  const std::vector<std::int32_t> labels = {0};
  softmax_cross_entropy(logits, rows, labels, 1.0, grad);
  EXPECT_EQ(grad.at(0, 0), 0.0f);
  EXPECT_EQ(grad.at(2, 1), 0.0f);
  EXPECT_NE(grad.at(1, 0), 0.0f);
}

TEST(SoftmaxCrossEntropy, NumericallyStableForLargeLogits) {
  Matrix logits(1, 3, {1000.0f, 999.0f, -1000.0f});
  Matrix grad(1, 3);
  const std::vector<std::uint32_t> rows = {0};
  const std::vector<std::int32_t> labels = {0};
  const double loss = softmax_cross_entropy(logits, rows, labels, 1.0, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_LT(loss, 1.0);
}

TEST(SoftmaxCrossEntropy, BadLabelThrows) {
  Matrix logits(1, 3);
  Matrix grad(1, 3);
  const std::vector<std::uint32_t> rows = {0};
  const std::vector<std::int32_t> labels = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, rows, labels, 1.0, grad),
               std::runtime_error);
}

/// The one-thread loop softmax_cross_entropy bands: one running sum of the
/// loss terms in row order.
double serial_softmax_cross_entropy(const Matrix& logits,
                                    const std::vector<std::uint32_t>& rows,
                                    const std::vector<std::int32_t>& labels,
                                    double normalizer, Matrix& grad) {
  const std::size_t classes = logits.cols();
  std::vector<double> p(classes);
  double loss = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto z = logits.row(rows[i]);
    const auto label = labels[i];
    double zmax = z[0];
    for (float v : z) zmax = std::max(zmax, static_cast<double>(v));
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      p[c] = std::exp(static_cast<double>(z[c]) - zmax);
      denom += p[c];
    }
    loss += -(static_cast<double>(z[label]) - zmax - std::log(denom));
    auto g = grad.row(rows[i]);
    for (std::size_t c = 0; c < classes; ++c) {
      const double soft = p[c] / denom;
      g[c] += static_cast<float>(
          (soft - (static_cast<std::int32_t>(c) == label ? 1.0 : 0.0)) /
          normalizer);
    }
  }
  return loss;
}

TEST(SoftmaxCrossEntropy, RowBandsBitIdentical) {
  // 7200 of 9000 rows, 10 classes, into a gradient that already holds
  // values (the loss adds into it).
  Rng rng(23);
  Matrix logits(9000, 10), base(9000, 10);
  logits.fill_uniform(rng, -4.0f, 4.0f);
  base.fill_uniform(rng, -1.0f, 1.0f);
  std::vector<std::uint32_t> rows;
  std::vector<std::int32_t> labels;
  for (std::uint32_t r = 0; r < 9000; ++r)
    if (r % 5 != 2) {
      rows.push_back(r);
      labels.push_back(static_cast<std::int32_t>(rng.uniform_int(10)));
    }
  Matrix want_grad = base;
  const double want =
      serial_softmax_cross_entropy(logits, rows, labels, 7200.0, want_grad);
  const int prev = num_threads();
  for (const int threads : {1, 4, 8}) {
    set_num_threads(threads);
    Matrix grad = base;
    std::vector<double> scratch;
    const double loss =
        softmax_cross_entropy(logits, rows, labels, 7200.0, grad, scratch);
    EXPECT_EQ(std::memcmp(&loss, &want, sizeof loss), 0)
        << "threads " << threads << ": " << loss << " vs " << want;
    EXPECT_EQ(std::memcmp(grad.data(), want_grad.data(),
                          grad.size() * sizeof(float)),
              0)
        << "threads " << threads;
  }
  set_num_threads(prev);
}

TEST(BceWithLogits, MatchesHandComputedValue) {
  // z = 0 → softplus = ln 2, sigmoid = 0.5.
  Matrix logits(1, 2, {0.0f, 0.0f});
  Matrix targets(1, 2, {1.0f, 0.0f});
  Matrix grad(1, 2);
  const std::vector<std::uint32_t> rows = {0};
  const double loss = bce_with_logits(logits, rows, targets, 1.0, grad);
  EXPECT_NEAR(loss, 2.0 * std::log(2.0), 1e-6);
  EXPECT_NEAR(grad.at(0, 0), -0.5f, 1e-6f);
  EXPECT_NEAR(grad.at(0, 1), 0.5f, 1e-6f);
}

TEST(BceWithLogits, GradientMatchesFiniteDifferences) {
  Rng rng(2);
  Matrix logits(3, 4);
  logits.fill_uniform(rng, -2.0f, 2.0f);
  Matrix targets(2, 4);
  for (std::size_t i = 0; i < targets.size(); ++i)
    targets.data()[i] = rng.bernoulli(0.4) ? 1.0f : 0.0f;
  const std::vector<std::uint32_t> rows = {0, 2};
  Matrix grad(3, 4);
  bce_with_logits(logits, rows, targets, 2.0, grad);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t c = 0; c < 4; ++c) {
      Matrix lp = logits, lm = logits;
      lp.at(rows[i], c) += eps;
      lm.at(rows[i], c) -= eps;
      Matrix dummy(3, 4);
      const double fp = bce_with_logits(lp, rows, targets, 2.0, dummy) / 2.0;
      dummy.set_zero();
      const double fm = bce_with_logits(lm, rows, targets, 2.0, dummy) / 2.0;
      EXPECT_NEAR(grad.at(rows[i], c), (fp - fm) / (2.0 * eps), 2e-3);
    }
}

TEST(BceWithLogits, StableForExtremeLogits) {
  Matrix logits(1, 2, {50.0f, -50.0f});
  Matrix targets(1, 2, {1.0f, 0.0f});
  Matrix grad(1, 2);
  const std::vector<std::uint32_t> rows = {0};
  const double loss = bce_with_logits(logits, rows, targets, 1.0, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(Accuracy, CountsArgmaxHits) {
  Matrix logits(3, 3, {5, 1, 1,   // argmax 0
                       0, 9, 2,   // argmax 1
                       1, 2, 3}); // argmax 2
  const std::vector<std::uint32_t> rows = {0, 1, 2};
  const std::vector<std::int32_t> labels = {0, 1, 0};
  EXPECT_DOUBLE_EQ(accuracy(logits, rows, labels), 2.0 / 3.0);
}

TEST(Accuracy, EmptyRowsIsZero) {
  Matrix logits(1, 2);
  EXPECT_DOUBLE_EQ(accuracy(logits, {}, {}), 0.0);
}

TEST(MicroF1, HandComputed) {
  // Row 0: predict {0}, truth {0,1} → tp=1, fn=1.
  // Row 1: predict {1}, truth {}    → fp=1.
  Matrix logits(2, 2, {2.0f, -1.0f, -3.0f, 4.0f});
  Matrix targets(2, 2, {1.0f, 1.0f, 0.0f, 0.0f});
  const std::vector<std::uint32_t> rows = {0, 1};
  // F1 = 2*1 / (2*1 + 1 + 1) = 0.5
  EXPECT_DOUBLE_EQ(micro_f1(logits, rows, targets), 0.5);
}

TEST(MicroF1, PerfectPrediction) {
  Matrix logits(1, 3, {5.0f, -5.0f, 5.0f});
  Matrix targets(1, 3, {1.0f, 0.0f, 1.0f});
  const std::vector<std::uint32_t> rows = {0};
  EXPECT_DOUBLE_EQ(micro_f1(logits, rows, targets), 1.0);
}

TEST(MicroF1, NoPositivesAnywhere) {
  Matrix logits(1, 2, {-1.0f, -1.0f});
  Matrix targets(1, 2);
  const std::vector<std::uint32_t> rows = {0};
  EXPECT_DOUBLE_EQ(micro_f1(logits, rows, targets), 0.0);
}

}  // namespace
}  // namespace adaqp
