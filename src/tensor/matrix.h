// Dense row-major float matrix — the tensor type for all GNN computation.
//
// The library deliberately avoids a general tensor/autograd framework: full-
// graph GNN training touches a small, fixed set of kernels (GEMM in three
// transposition variants, sparse-dense products, row-wise elementwise ops),
// and each layer provides a hand-derived analytic backward pass that tests
// validate against numerical gradients. Rows correspond to graph nodes and
// columns to feature channels throughout the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace adaqp {

class Rng;

class Matrix {
 public:
  Matrix() = default;
  /// Construct a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);
  /// Construct from explicit data (size must equal rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // at() bounds-checks in NDEBUG-off builds; release builds keep the raw
  // indexed access (the GEMM/aggregation hot paths go through data()/row()).
  float& at(std::size_t r, std::size_t c) {
    check_indices(r, c);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    check_indices(r, c);
    return data_[r * cols_ + c];
  }

  /// Mutable / const view of row r.
  std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(float value);
  void set_zero() { fill(0.0f); }

  /// Gaussian init with given std (used for weight matrices).
  void fill_normal(Rng& rng, float mean, float stddev);
  /// Uniform init in [lo, hi).
  void fill_uniform(Rng& rng, float lo, float hi);
  /// Glorot/Xavier uniform init based on (fan_in, fan_out) = (rows, cols).
  void fill_glorot(Rng& rng);

  /// Frobenius-norm and elementwise reductions.
  double frobenius_norm() const;
  double sum() const;
  float max_abs() const;

  /// this += other (shapes must match).
  void add_inplace(const Matrix& other);
  /// this += alpha * other.
  void axpy_inplace(float alpha, const Matrix& other);
  /// this *= alpha.
  void scale_inplace(float alpha);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Re-shape to rows x cols reusing the retained capacity; contents are
  /// unspecified (stale) and must be fully overwritten by the caller. The
  /// steady-state reshape: allocates only when rows*cols exceeds every
  /// previous size of this matrix.
  void reshape_uninit(std::size_t rows, std::size_t cols);
  /// Re-shape to rows x cols and zero every element (same reuse semantics).
  void reshape_zero(std::size_t rows, std::size_t cols);

 private:
  void check_indices([[maybe_unused]] std::size_t r,
                     [[maybe_unused]] std::size_t c) const {
#ifndef NDEBUG
    ADAQP_CHECK_MSG(r < rows_ && c < cols_,
                    "Matrix::at(" << r << ", " << c << ") out of bounds for "
                                  << rows_ << "x" << cols_);
#endif
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- GEMM variants (C is overwritten) -------------------------------------
//
// Every variant computes each C element as the scalar k-reduction: unfused
// a·b products added one at a time in ascending k (or, for the row-list
// forms of gemm_tn, in list order), starting from +0 — bit-identical across
// ISAs and thread counts (matrix.cpp, simd/kernels.h). Products whose A
// element is ±0 are added like any other, and for finite B skipping them
// would give the same bits: under round-to-nearest a sum starting from +0
// is never −0 (x + y is −0 only when both are −0), and adding a ±0 product
// to any other value leaves it unchanged. Only a non-finite B (inf/NaN
// weights, an already broken run) makes a zero product NaN.

/// C = A * B             (m x k) * (k x n)
void gemm(const Matrix& a, const Matrix& b, Matrix& c);
/// Row-subset product: C[r,:] = (A * B)[r,:] for each r in `rows`; other
/// rows of C are untouched. C must be pre-sized to (A.rows x B.cols). gemm
/// is the all-rows case of the same body, so each computed row is
/// bit-identical to the corresponding row of the full product — the
/// property the pipeline's central/marginal forward split rests on.
void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c,
               std::span<const std::uint32_t> rows);
/// C = A^T * B           (k x m)^T * (k x n)
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c);
/// Row-subset transpose product: C = A[rows]^T * B[rows], i.e. the sum of
/// outer products a[r]^T · b[r] over r in `rows`, accumulated in `rows`
/// order. C is overwritten (resized to A.cols x B.cols). Each element's
/// accumulation order is the order rows appear in the span, so for the full
/// ascending row list this is bit-identical to gemm_tn — and per-subset
/// partial sums folded in a fixed subset order are deterministic at any
/// thread count (the property GnnLayer::backward_rows rests on).
void gemm_tn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::span<const std::uint32_t> rows);
/// C = A * B^T           (m x k) * (n x k)^T
/// B (a weight in this library, at most a few thousand elements) is
/// transposed into the caller-owned scratch `bt` (reshaped in place, so a
/// persistent scratch makes repeated calls allocation-free), then C = A * bt
/// runs through gemm, so each C[i][j] is the scalar k-reduction above.
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, Matrix& bt);
/// Row-subset product: C[r,:] = (A * B^T)[r,:] for each r in `rows`; other
/// rows of C are untouched. C must be pre-sized to (A.rows x B.rows). Runs
/// gemm_rows on B^T (staged in `bt` as in gemm_nt), so each computed row is
/// bit-identical to the corresponding row of gemm_nt's full product.
void gemm_nt_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::span<const std::uint32_t> rows, Matrix& bt);

// ---- Elementwise / rowwise kernels ----------------------------------------

/// Draw an inverted-dropout multiplier mask (0 with prob p, else 1/(1-p))
/// for a rows x cols matrix, consuming rng in row-major element order (no
/// draws at p = 0); p must lie in [0, 1). The mask is a pure function of
/// (rng's state at entry, shape, p), and rng ends where the element-by-
/// element loop leaves it. Bands of Rng::kMaskChunk-draw chunks fill on the
/// pool from jump-ahead states (Rng::jump_mask_chunk); inside a pool task
/// the whole mask draws inline. Masks are value-independent, so the layers
/// draw one per epoch and apply it per row subset without changing the RNG
/// stream.
void dropout_mask(std::size_t rows, std::size_t cols, float p, Rng& rng,
                  Matrix& mask);

/// Row max-abs difference between two same-shaped matrices.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace adaqp
