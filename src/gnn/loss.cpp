// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "gnn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "runtime/parallel_for.h"

namespace adaqp {

double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::uint32_t> rows,
                             std::span<const std::int32_t> labels,
                             double normalizer, Matrix& grad) {
  std::vector<double> scratch;
  return softmax_cross_entropy(logits, rows, labels, normalizer, grad,
                               scratch);
}

double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::uint32_t> rows,
                             std::span<const std::int32_t> labels,
                             double normalizer, Matrix& grad,
                             std::vector<double>& scratch) {
  ADAQP_CHECK(rows.size() == labels.size());
  ADAQP_CHECK(grad.same_shape(logits));
  ADAQP_CHECK(normalizer > 0.0);
  // Rows go in blocks of kRowBlock, and parallel_for bands the blocks. Each
  // row writes its own gradient row and its loss term; the terms are then
  // summed serially in row order, the order of the one-thread loop, so the
  // loss keeps its bits for every thread count. `scratch` holds the terms,
  // then one class-count probability row per block (a band uses its first
  // block's).
  constexpr std::size_t kRowBlock = 256;
  const std::size_t n = rows.size();
  const std::size_t classes = logits.cols();
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  scratch.resize(n + blocks * classes);  // lint:allow(hot-path-alloc) scratch capacity retained
  double* terms = scratch.data();
  parallel_for(blocks, 1, [&](std::size_t b0, std::size_t b1) {
    double* p = terms + n + b0 * classes;
    const std::size_t i1 = std::min(b1 * kRowBlock, n);
    for (std::size_t i = b0 * kRowBlock; i < i1; ++i) {
      const auto r = rows[i];
      ADAQP_CHECK(r < logits.rows());
      const auto z = logits.row(r);
      const auto label = labels[i];
      ADAQP_CHECK_MSG(
          label >= 0 && static_cast<std::size_t>(label) < classes,
          "label " << label << " outside " << classes << " classes");
      double zmax = z[0];
      for (float v : z) zmax = std::max(zmax, static_cast<double>(v));
      double denom = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        p[c] = std::exp(static_cast<double>(z[c]) - zmax);
        denom += p[c];
      }
      terms[i] = -(static_cast<double>(z[label]) - zmax - std::log(denom));
      auto g = grad.row(r);
      for (std::size_t c = 0; c < classes; ++c) {
        const double soft = p[c] / denom;
        g[c] += static_cast<float>(
            (soft - (static_cast<std::int32_t>(c) == label ? 1.0 : 0.0)) /
            normalizer);
      }
    }
  });
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) loss += terms[i];
  return loss;
}

double bce_with_logits(const Matrix& logits,
                       std::span<const std::uint32_t> rows,
                       const Matrix& targets, double normalizer, Matrix& grad) {
  ADAQP_CHECK(targets.rows() == rows.size());
  ADAQP_CHECK(targets.cols() == logits.cols());
  ADAQP_CHECK(grad.same_shape(logits));
  ADAQP_CHECK(normalizer > 0.0);
  const std::size_t classes = logits.cols();
  double loss = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto r = rows[i];
    ADAQP_CHECK(r < logits.rows());
    const auto z = logits.row(r);
    const auto y = targets.row(i);
    auto g = grad.row(r);
    for (std::size_t c = 0; c < classes; ++c) {
      const double zc = z[c];
      // Numerically stable log(1+exp(z)) - y·z.
      const double softplus =
          zc > 0 ? zc + std::log1p(std::exp(-zc)) : std::log1p(std::exp(zc));
      loss += softplus - static_cast<double>(y[c]) * zc;
      const double sigmoid = 1.0 / (1.0 + std::exp(-zc));
      g[c] += static_cast<float>((sigmoid - y[c]) / normalizer);
    }
  }
  return loss;
}

double accuracy(const Matrix& logits, std::span<const std::uint32_t> rows,
                std::span<const std::int32_t> labels) {
  ADAQP_CHECK(rows.size() == labels.size());
  if (rows.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto z = logits.row(rows[i]);
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c)
      if (z[c] > z[best]) best = c;
    if (static_cast<std::int32_t>(best) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

double micro_f1(const Matrix& logits, std::span<const std::uint32_t> rows,
                const Matrix& targets) {
  ADAQP_CHECK(targets.rows() == rows.size());
  std::size_t tp = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto z = logits.row(rows[i]);
    const auto y = targets.row(i);
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const bool pred = z[c] > 0.0f;  // sigmoid(z) > 0.5
      const bool truth = y[c] > 0.5f;
      if (pred && truth) ++tp;
      else if (pred && !truth) ++fp;
      else if (!pred && truth) ++fn;
    }
  }
  const double denom = 2.0 * tp + fp + fn;
  return denom == 0.0 ? 0.0 : 2.0 * static_cast<double>(tp) / denom;
}

}  // namespace adaqp
