// Tests for the dense matrix type and GEMM/elementwise kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace adaqp {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  m.fill_uniform(rng, -2.0f, 2.0f);
  return m;
}

/// Naive triple-loop reference GEMM.
Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p)
        acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = acc;
    }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  return t;
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, ConstructFromDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::runtime_error);
}

#ifndef NDEBUG
TEST(Matrix, AtBoundsCheckedInDebugBuilds) {
  Matrix m(2, 3);
  EXPECT_THROW(m.at(2, 0), std::runtime_error);
  EXPECT_THROW(m.at(0, 3), std::runtime_error);
  const Matrix& cm = m;
  EXPECT_THROW(cm.at(5, 5), std::runtime_error);
  EXPECT_NO_THROW(m.at(1, 2));
}
#endif

TEST(Matrix, RowSpanAliasesStorage) {
  Matrix m(2, 3);
  m.row(1)[2] = 5.0f;
  EXPECT_EQ(m.at(1, 2), 5.0f);
}

TEST(Matrix, AddAndAxpyAndScale) {
  Rng rng(1);
  Matrix a = random_matrix(4, 5, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix sum = a;
  sum.add_inplace(b);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(sum.data()[i], a.data()[i] + b.data()[i]);
  Matrix ax = a;
  ax.axpy_inplace(2.5f, b);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(ax.data()[i], a.data()[i] + 2.5f * b.data()[i]);
  Matrix sc = a;
  sc.scale_inplace(-3.0f);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_FLOAT_EQ(sc.data()[i], -3.0f * a.data()[i]);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(a.add_inplace(b), std::runtime_error);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

TEST(Matrix, GlorotInitWithinLimit) {
  Rng rng(2);
  Matrix m(64, 32);
  m.fill_glorot(rng);
  const float limit = std::sqrt(6.0f / (64 + 32)) + 1e-6f;
  EXPECT_LE(m.max_abs(), limit);
  EXPECT_GT(m.max_abs(), 0.0f);
}

struct GemmShape {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  Matrix a = random_matrix(m, k, rng);
  Matrix b = random_matrix(k, n, rng);
  Matrix c;
  gemm(a, b, c);
  EXPECT_LT(max_abs_diff(c, naive_gemm(a, b)), 1e-4f);
}

TEST_P(GemmTest, TnMatchesTransposedNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 91 + n * 3);
  Matrix at = random_matrix(k, m, rng);  // A^T stored
  Matrix b = random_matrix(k, n, rng);
  Matrix c;
  gemm_tn(at, b, c);
  EXPECT_LT(max_abs_diff(c, naive_gemm(transpose(at), b)), 1e-4f);
}

TEST_P(GemmTest, NtMatchesTransposedNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 31 + k + n * 77);
  Matrix a = random_matrix(m, k, rng);
  Matrix bt = random_matrix(n, k, rng);  // B^T stored
  Matrix c, b_scratch;
  gemm_nt(a, bt, c, b_scratch);
  EXPECT_LT(max_abs_diff(c, naive_gemm(a, transpose(bt))), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmTest,
                         ::testing::Values(GemmShape{1, 1, 1},
                                           GemmShape{3, 4, 5},
                                           GemmShape{16, 8, 4},
                                           GemmShape{7, 33, 2},
                                           GemmShape{20, 20, 20},
                                           GemmShape{1, 64, 1},
                                           GemmShape{64, 1, 64}));

TEST(Gemm, InnerDimMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c;
  EXPECT_THROW(gemm(a, b, c), std::runtime_error);
}

TEST(Relu, ForwardAndBackward) {
  Matrix in(1, 4, {-1.0f, 0.0f, 2.0f, -0.5f});
  Matrix out;
  relu_forward(in, out);
  EXPECT_EQ(out.at(0, 0), 0.0f);
  EXPECT_EQ(out.at(0, 1), 0.0f);
  EXPECT_EQ(out.at(0, 2), 2.0f);
  EXPECT_EQ(out.at(0, 3), 0.0f);

  Matrix gout(1, 4, {1.0f, 1.0f, 1.0f, 1.0f});
  Matrix gin;
  relu_backward(in, gout, gin);
  EXPECT_EQ(gin.at(0, 0), 0.0f);
  EXPECT_EQ(gin.at(0, 1), 0.0f);  // derivative 0 at the kink
  EXPECT_EQ(gin.at(0, 2), 1.0f);
  EXPECT_EQ(gin.at(0, 3), 0.0f);
}

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Rng rng(3);
  Matrix in = random_matrix(5, 6, rng);
  Matrix out, mask;
  dropout_forward(in, 0.0f, rng, out, mask);
  EXPECT_EQ(max_abs_diff(in, out), 0.0f);
  for (std::size_t i = 0; i < mask.size(); ++i)
    EXPECT_EQ(mask.data()[i], 1.0f);
}

TEST(Dropout, MaskIsConsistentWithOutput) {
  Rng rng(4);
  Matrix in = random_matrix(20, 20, rng);
  Matrix out, mask;
  dropout_forward(in, 0.5f, rng, out, mask);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_FLOAT_EQ(out.data()[i], in.data()[i] * mask.data()[i]);
}

TEST(Dropout, SurvivorScaleKeepsExpectation) {
  Rng rng(5);
  Matrix in(100, 100);
  in.fill(1.0f);
  Matrix out, mask;
  dropout_forward(in, 0.3f, rng, out, mask);
  EXPECT_NEAR(out.sum() / in.size(), 1.0, 0.05);
}

TEST(Dropout, BackwardAppliesMask) {
  Rng rng(6);
  Matrix in = random_matrix(8, 8, rng);
  Matrix out, mask, gout = random_matrix(8, 8, rng), gin;
  dropout_forward(in, 0.4f, rng, out, mask);
  dropout_backward(gout, mask, gin);
  for (std::size_t i = 0; i < gin.size(); ++i)
    EXPECT_FLOAT_EQ(gin.data()[i], gout.data()[i] * mask.data()[i]);
}

TEST(Dropout, InvalidProbabilityThrows) {
  Rng rng(7);
  Matrix in(2, 2), out, mask;
  EXPECT_THROW(dropout_forward(in, 1.0f, rng, out, mask), std::runtime_error);
  EXPECT_THROW(dropout_forward(in, -0.1f, rng, out, mask), std::runtime_error);
}

}  // namespace
}  // namespace adaqp
