// Tests for the dense matrix type and GEMM/elementwise kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
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

TEST(Dropout, ZeroProbabilityIsIdentity) {
  Rng rng(3);
  Matrix mask;
  dropout_mask(5, 6, 0.0f, rng, mask);
  ASSERT_EQ(mask.rows(), 5u);
  ASSERT_EQ(mask.cols(), 6u);
  for (std::size_t i = 0; i < mask.size(); ++i)
    EXPECT_EQ(mask.data()[i], 1.0f);
}

TEST(Dropout, SurvivorScaleKeepsExpectation) {
  Rng rng(5);
  Matrix mask;
  dropout_mask(100, 100, 0.3f, rng, mask);
  EXPECT_NEAR(mask.sum() / mask.size(), 1.0, 0.05);
}

TEST(Dropout, MaskMatchesReferenceDrawOrder) {
  // One uniform_float() per element in row-major order, dropped iff u < p;
  // the caller's stream ends where the element-by-element loop leaves it.
  for (const float p : {0.1f, 0.5f, 0.9f}) {
    Rng rng(11), ref_rng(11);
    Matrix mask;
    dropout_mask(37, 29, p, rng, mask);
    const float keep = 1.0f / (1.0f - p);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      const float want = ref_rng.uniform_float() < p ? 0.0f : keep;
      ASSERT_EQ(mask.data()[i], want) << "p=" << p << " element " << i;
    }
    EXPECT_EQ(rng.next(), ref_rng.next()) << "p=" << p;
  }
}

/// Scoped global-pool override; restores the previous size on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

TEST(Dropout, MaskBitIdenticalAcrossThreadCounts) {
  // Banded masks start each band at a jump-ahead state; every thread count,
  // and the inline path inside a pool task, must give the element-by-element
  // loop's mask and leave the stream where it leaves it.
  constexpr std::size_t kChunk = Rng::kMaskChunk;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {0, 0}, {1, 1}, {1, kChunk - 1}, {kChunk, 1}, {5, 3277}, {12000, 64}};
  static_assert(5 * 3277 == kChunk + 1);
  for (const float p : {0.1f, 0.5f})
    for (const auto& [rows, cols] : shapes) {
      Rng ref(29);
      const float keep = 1.0f / (1.0f - p);
      std::vector<float> want(rows * cols);
      for (float& v : want) v = ref.uniform_float() < p ? 0.0f : keep;
      const std::uint64_t want_next = ref.next();
      const auto check = [&](const Matrix& mask, Rng& rng, const char* how) {
        ASSERT_EQ(mask.rows(), rows);
        ASSERT_EQ(mask.cols(), cols);
        EXPECT_TRUE(want.empty() ||
                    std::memcmp(mask.data(), want.data(),
                                want.size() * sizeof(float)) == 0)
            << how << " p=" << p << " " << rows << "x" << cols;
        EXPECT_EQ(rng.next(), want_next)
            << how << " p=" << p << " " << rows << "x" << cols;
      };
      for (const int threads : {1, 4, 8}) {
        ThreadCountGuard guard(threads);
        Rng rng(29);
        Matrix mask;
        dropout_mask(rows, cols, p, rng, mask);
        check(mask, rng, threads == 1 ? "t1" : threads == 4 ? "t4" : "t8");
      }
      ThreadCountGuard guard(4);
      parallel_for_each(2, [&](std::size_t task) {
        if (task != 1) return;
        EXPECT_TRUE(ThreadPool::in_worker());
        Rng rng(29);
        Matrix mask;
        dropout_mask(rows, cols, p, rng, mask);
        check(mask, rng, "in pool task");
      });
    }
}

TEST(Dropout, InvalidProbabilityThrows) {
  Rng rng(7);
  Matrix mask;
  EXPECT_THROW(dropout_mask(2, 2, 1.0f, rng, mask), std::runtime_error);
  EXPECT_THROW(dropout_mask(2, 2, -0.1f, rng, mask), std::runtime_error);
}

}  // namespace
}  // namespace adaqp
