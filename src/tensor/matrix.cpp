#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "runtime/parallel_for.h"
#include "simd/kernels.h"

namespace adaqp {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  ADAQP_CHECK_MSG(data_.size() == rows_ * cols_,
                  "data size " << data_.size() << " != " << rows_ * cols_);
}

void Matrix::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::reshape_uninit(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::reshape_zero(std::size_t rows, std::size_t cols) {
  reshape_uninit(rows, cols);
  fill(0.0f);
}

void Matrix::fill_normal(Rng& rng, float mean, float stddev) {
  for (auto& v : data_)
    v = static_cast<float>(rng.normal(mean, stddev));
}

void Matrix::fill_uniform(Rng& rng, float lo, float hi) {
  for (auto& v : data_)
    v = static_cast<float>(rng.uniform(lo, hi));
}

void Matrix::fill_glorot(Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_ ? rows_ + cols_ : 1));
  fill_uniform(rng, static_cast<float>(-limit), static_cast<float>(limit));
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

double Matrix::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return acc;
}

float Matrix::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void Matrix::add_inplace(const Matrix& other) {
  ADAQP_CHECK(same_shape(other));
  // axpy with a == 1.0f: 1.0f * x is exactly x, so this matches the old
  // plain addition bit for bit.
  if (!data_.empty())
    simd::kernels().axpy(1.0f, other.data_.data(), data_.data(),
                         data_.size());
}

void Matrix::axpy_inplace(float alpha, const Matrix& other) {
  ADAQP_CHECK(same_shape(other));
  if (!data_.empty())
    simd::kernels().axpy(alpha, other.data_.data(), data_.data(),
                         data_.size());
}

void Matrix::scale_inplace(float alpha) {
  for (auto& v : data_) v *= alpha;
}

// GEMM kernels are cache-blocked over (j, k) tiles and parallelized over
// row bands of C on the runtime's thread pool; the innermost j-loop is the
// src/simd/ axpy microkernel (runtime-dispatched scalar/AVX2/AVX-512/NEON).
// Every element C[i][j] accumulates its k products in ascending-k order
// regardless of tile, band and vector-lane boundaries, and axpy is unfused
// mul-then-add on every ISA, so results are bit-identical for every thread
// count and ISA. gemm_nt transposes its (small, weight-sized) B into a
// caller-owned scratch and runs the same kernel, so it shares that order
// and those guarantees. Adequate for the matrix sizes in this library
// without pulling in a BLAS dependency.
namespace {

constexpr std::size_t kRowGrain = 8;    ///< min C rows per parallel band
constexpr std::size_t kBlockK = 128;    ///< shared-dim tile
constexpr std::size_t kBlockN = 512;    ///< output-column tile

/// bt = b^T, reshaped in place (the steady-state form: no allocation once
/// bt has held a matrix this large).
void transpose_into(const Matrix& b, Matrix& bt) {
  const std::size_t rows = b.rows(), cols = b.cols();
  bt.reshape_uninit(cols, rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      bt.data()[c * rows + r] = b.data()[r * cols + c];
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  ADAQP_CHECK_MSG(a.cols() == b.rows(), "gemm: inner dims " << a.cols()
                                                            << " vs " << b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.reshape_zero(m, n);
  const auto axpy = simd::kernels().axpy;
  parallel_for(m, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t jj = 0; jj < n; jj += kBlockN) {
      const std::size_t jhi = std::min(jj + kBlockN, n);
      for (std::size_t pp = 0; pp < k; pp += kBlockK) {
        const std::size_t phi = std::min(pp + kBlockK, k);
        for (std::size_t i = r0; i < r1; ++i) {
          const float* arow = a.data() + i * k;
          float* crow = c.data() + i * n;
          for (std::size_t p = pp; p < phi; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = b.data() + p * n;
            axpy(av, brow + jj, crow + jj, jhi - jj);
          }
        }
      }
    }
  });
}

void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c,
               std::span<const std::uint32_t> rows) {
  ADAQP_CHECK_MSG(a.cols() == b.rows(), "gemm_rows: inner dims "
                                            << a.cols() << " vs " << b.rows());
  ADAQP_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                  "gemm_rows: C must be pre-sized");
  const std::size_t k = a.cols(), n = b.cols();
  // Same (j, k) tiling and per-element k-ascending accumulation as gemm,
  // applied to the selected rows only; bands over `rows` write disjoint C
  // rows, so any thread count is bit-identical to serial.
  const auto axpy = simd::kernels().axpy;
  parallel_for(rows.size(), kRowGrain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t idx = r0; idx < r1; ++idx) {
      const std::size_t i = rows[idx];
      ADAQP_CHECK(i < a.rows());
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
      const float* arow = a.data() + i * k;
      for (std::size_t jj = 0; jj < n; jj += kBlockN) {
        const std::size_t jhi = std::min(jj + kBlockN, n);
        for (std::size_t pp = 0; pp < k; pp += kBlockK) {
          const std::size_t phi = std::min(pp + kBlockK, k);
          for (std::size_t p = pp; p < phi; ++p) {
            const float av = arow[p];
            if (av == 0.0f) continue;
            const float* brow = b.data() + p * n;
            axpy(av, brow + jj, crow + jj, jhi - jj);
          }
        }
      }
    }
  });
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  ADAQP_CHECK_MSG(a.rows() == b.rows(),
                  "gemm_tn: shared dim " << a.rows() << " vs " << b.rows());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  c.reshape_zero(m, n);
  const auto axpy = simd::kernels().axpy;
  parallel_for(m, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t jj = 0; jj < n; jj += kBlockN) {
      const std::size_t jhi = std::min(jj + kBlockN, n);
      for (std::size_t pp = 0; pp < k; pp += kBlockK) {
        const std::size_t phi = std::min(pp + kBlockK, k);
        for (std::size_t p = pp; p < phi; ++p) {
          const float* arow = a.data() + p * m;
          const float* brow = b.data() + p * n;
          for (std::size_t i = i0; i < i1; ++i) {
            const float av = arow[i];
            if (av == 0.0f) continue;
            axpy(av, brow + jj, c.data() + i * n + jj, jhi - jj);
          }
        }
      }
    }
  });
}

void gemm_tn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::span<const std::uint32_t> rows) {
  ADAQP_CHECK_MSG(a.rows() == b.rows(),
                  "gemm_tn_rows: shared dim " << a.rows() << " vs "
                                              << b.rows());
  const std::size_t m = a.cols(), n = b.cols();
  c.reshape_zero(m, n);
  for (const std::uint32_t p : rows) ADAQP_CHECK(p < a.rows());
  // Shared-dim iteration follows the span order (no k-tiling: the subset is
  // the tile), so every C element accumulates its products in `rows` order —
  // ascending-p for the full owned list, matching gemm_tn bit for bit.
  const auto axpy = simd::kernels().axpy;
  parallel_for(m, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t jj = 0; jj < n; jj += kBlockN) {
      const std::size_t jhi = std::min(jj + kBlockN, n);
      for (const std::uint32_t p : rows) {
        const float* arow = a.data() + static_cast<std::size_t>(p) * m;
        const float* brow = b.data() + static_cast<std::size_t>(p) * n;
        for (std::size_t i = i0; i < i1; ++i) {
          const float av = arow[i];
          if (av == 0.0f) continue;
          axpy(av, brow + jj, c.data() + i * n + jj, jhi - jj);
        }
      }
    }
  });
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, Matrix& bt) {
  ADAQP_CHECK_MSG(a.cols() == b.cols(),
                  "gemm_nt: shared dim " << a.cols() << " vs " << b.cols());
  transpose_into(b, bt);
  gemm(a, bt, c);
}

void gemm_nt_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::span<const std::uint32_t> rows, Matrix& bt) {
  ADAQP_CHECK_MSG(a.cols() == b.cols(), "gemm_nt_rows: shared dim "
                                            << a.cols() << " vs " << b.cols());
  transpose_into(b, bt);
  gemm_rows(a, bt, c, rows);
}

void relu_forward(const Matrix& in, Matrix& out) {
  out.reshape_uninit(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i)
    out.data()[i] = in.data()[i] > 0.0f ? in.data()[i] : 0.0f;
}

void relu_backward(const Matrix& in, const Matrix& grad_out, Matrix& grad_in) {
  ADAQP_CHECK(in.same_shape(grad_out));
  grad_in.reshape_uninit(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i)
    grad_in.data()[i] = in.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
}

void dropout_mask(std::size_t rows, std::size_t cols, float p, Rng& rng,
                  Matrix& mask) {
  ADAQP_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout p=" << p);
  mask.reshape_uninit(rows, cols);
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  for (std::size_t i = 0; i < mask.size(); ++i)
    mask.data()[i] = rng.uniform_float() < p ? 0.0f : keep_scale;
}

void dropout_forward(const Matrix& in, float p, Rng& rng, Matrix& out,
                     Matrix& mask) {
  dropout_mask(in.rows(), in.cols(), p, rng, mask);
  out.reshape_uninit(in.rows(), in.cols());
  if (p == 0.0f) {
    std::copy(in.data(), in.data() + in.size(), out.data());
    return;
  }
  for (std::size_t i = 0; i < in.size(); ++i)
    out.data()[i] = in.data()[i] * mask.data()[i];
}

void dropout_backward(const Matrix& grad_out, const Matrix& mask,
                      Matrix& grad_in) {
  ADAQP_CHECK(grad_out.same_shape(mask));
  grad_in.reshape_uninit(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    grad_in.data()[i] = grad_out.data()[i] * mask.data()[i];
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  ADAQP_CHECK(a.same_shape(b));
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace adaqp
