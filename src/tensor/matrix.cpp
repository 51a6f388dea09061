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

// GEMMs are parallelized over row bands of C on the runtime's thread pool
// and run on two register-resident slots of the src/simd/ kernel table
// (runtime-dispatched scalar/AVX2/AVX-512):
//  - gemm / gemm_rows (and gemm_nt* on their transposed B) compute each C
//    row as one gather_axpy over the rows of B, coefficients A[i,:] in
//    ascending k, onto a +0 row;
//  - gemm_tn / gemm_tn_rows compute MR-row blocks of C with outer_block,
//    walking the shared dim in span order.
// Each C element therefore adds its unfused products one at a time, in
// ascending k (or span order), starting from +0 — the scalar k-reduction —
// whatever the tile, band, vector width or thread count. The all-rows forms
// are the row-list forms with a null list, so each pair shares one body.
// Adequate for the matrix sizes in this library without a BLAS dependency.
namespace {

constexpr std::size_t kRowGrain = 8;  ///< min C rows per parallel band
constexpr std::size_t kSpanChunk = 256;  ///< gemm_tn list entries per pass

/// bt = b^T, reshaped in place (the steady-state form: no allocation once
/// bt has held a matrix this large).
void transpose_into(const Matrix& b, Matrix& bt) {
  const std::size_t rows = b.rows(), cols = b.cols();
  bt.reshape_uninit(cols, rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      bt.data()[c * rows + r] = b.data()[r * cols + c];
}

/// C[i,:] = A[i,:] * B for i = rows[t], t in [0, count), or i = t when rows
/// is null. Bands over the list write disjoint C rows.
void gemm_rows_body(const Matrix& a, const Matrix& b, Matrix& c,
                    const std::uint32_t* rows, std::size_t count) {
  const std::size_t k = a.cols(), n = b.cols();
  const auto gather_axpy = simd::kernels().gather_axpy;
  parallel_for(count, kRowGrain, [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i = rows ? rows[t] : t;
      ADAQP_CHECK(i < a.rows());
      float* crow = c.data() + i * n;
      std::fill_n(crow, n, 0.0f);
      gather_axpy(b.data(), n, nullptr, a.data() + i * k, k, crow, n);
    }
  });
}

/// C = A[rows]^T * B[rows] over the shared-dim list (null: all of A's
/// rows), one outer_block per MR-row block of C; bands own whole blocks.
/// The list is walked in chunks of kSpanChunk entries, every block of the
/// band finishing a chunk before the next, so the chunk's A and B rows are
/// read from cache by all of the band's blocks. A block's C tile is stored
/// and reloaded between chunks — an exact round trip — so each element
/// still adds its products one at a time in list order.
void gemm_tn_body(const Matrix& a, const Matrix& b, Matrix& c,
                  const std::uint32_t* rows, std::size_t count) {
  const std::size_t m = a.cols(), n = b.cols();
  c.reshape_zero(m, n);
  constexpr std::size_t mr = simd::kOuterBlockRows;
  const auto outer_block = simd::kernels().outer_block;
  parallel_for((m + mr - 1) / mr, kRowGrain / mr,
               [&](std::size_t b0, std::size_t b1) {
    for (std::size_t p0 = 0; p0 < count; p0 += kSpanChunk) {
      const std::size_t len = std::min(kSpanChunk, count - p0);
      // A null list indexes rows directly: shift the bases instead.
      const std::size_t shift = rows ? 0 : p0;
      const std::uint32_t* chunk = rows ? rows + p0 : nullptr;
      for (std::size_t blk = b0; blk < b1; ++blk) {
        const std::size_t i = blk * mr;
        outer_block(a.data() + shift * m + i, m, b.data() + shift * n, n,
                    chunk, len, c.data() + i * n, n, std::min(mr, m - i), n);
      }
    }
  });
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  ADAQP_CHECK_MSG(a.cols() == b.rows(), "gemm: inner dims " << a.cols()
                                                            << " vs " << b.rows());
  c.reshape_uninit(a.rows(), b.cols());
  gemm_rows_body(a, b, c, nullptr, a.rows());
}

void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c,
               std::span<const std::uint32_t> rows) {
  ADAQP_CHECK_MSG(a.cols() == b.rows(), "gemm_rows: inner dims "
                                            << a.cols() << " vs " << b.rows());
  ADAQP_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                  "gemm_rows: C must be pre-sized");
  gemm_rows_body(a, b, c, rows.data(), rows.size());
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  ADAQP_CHECK_MSG(a.rows() == b.rows(),
                  "gemm_tn: shared dim " << a.rows() << " vs " << b.rows());
  gemm_tn_body(a, b, c, nullptr, a.rows());
}

void gemm_tn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::span<const std::uint32_t> rows) {
  ADAQP_CHECK_MSG(a.rows() == b.rows(),
                  "gemm_tn_rows: shared dim " << a.rows() << " vs "
                                              << b.rows());
  for (const std::uint32_t p : rows) ADAQP_CHECK(p < a.rows());
  gemm_tn_body(a, b, c, rows.data(), rows.size());
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

void dropout_mask(std::size_t rows, std::size_t cols, float p, Rng& rng,
                  Matrix& mask) {
  ADAQP_CHECK_MSG(p >= 0.0f && p < 1.0f, "dropout p=" << p);
  mask.reshape_uninit(rows, cols);
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  // Element i takes the stream's i-th draw from entry. The mask splits into
  // kMaskChunk-draw chunks, and a band of chunks [c0, c1) starts from the
  // entry state jumped ahead c0 times, so every band draws exactly what the
  // serial loop would. A band that cannot fan out (inside a pool task, or
  // on one thread) is the whole mask from the entry state, with no jumps.
  // The band that ends the mask leaves the stream where the loop would.
  // Branch-free: the drop test indexes a two-entry table. A ternary here
  // compiles to a compare-and-branch that mispredicts on every other
  // element near p = 0.5. Each band draws from a local copy of the stream,
  // kept in registers.
  constexpr std::size_t kChunk = Rng::kMaskChunk;
  const float value[2] = {1.0f / (1.0f - p), 0.0f};
  float* out = mask.data();
  const std::size_t size = mask.size();
  const Rng entry = rng;
  parallel_for((size + kChunk - 1) / kChunk, 1,
               [&](std::size_t c0, std::size_t c1) {
                 Rng local = entry;
                 for (std::size_t c = 0; c < c0; ++c) local.jump_mask_chunk();
                 const std::size_t end = std::min(c1 * kChunk, size);
                 for (std::size_t i = c0 * kChunk; i < end; ++i)
                   out[i] = value[local.uniform_float() < p];
                 if (end == size) rng = local;
               });
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  ADAQP_CHECK(a.same_shape(b));
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  return m;
}

}  // namespace adaqp
