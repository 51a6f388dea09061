// Tests for stochastic integer quantization (paper Eqn. 4/5, Theorem 1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quant/quantize.h"
#include "simd/kernels.h"

namespace adaqp {
namespace {

std::vector<float> random_vector(std::size_t n, Rng& rng, float lo = -3.0f,
                                 float hi = 3.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

TEST(BitPacking, RoundTripAllWidths) {
  for (int bits : {2, 4, 8}) {
    Rng rng(bits);
    std::vector<std::uint32_t> values(137);
    const std::uint32_t mask = (1u << bits) - 1u;
    for (auto& v : values)
      v = static_cast<std::uint32_t>(rng.uniform_int(mask + 1));
    const auto packed = pack_bits(values, bits);
    EXPECT_EQ(packed.size(), (values.size() * bits + 7) / 8);
    const auto unpacked = unpack_bits(packed, bits, values.size());
    EXPECT_EQ(unpacked, values);
  }
}

TEST(BitPacking, RejectsOutOfRangeValues) {
  const std::vector<std::uint32_t> values = {4};  // needs 3 bits
  EXPECT_THROW(pack_bits(values, 2), std::runtime_error);
}

TEST(BitPacking, RejectsTruncatedStream) {
  const std::vector<std::uint8_t> packed = {0xFF};
  EXPECT_THROW(unpack_bits(packed, 8, 2), std::runtime_error);
}

TEST(BitPacking, EmptyInput) {
  const std::vector<std::uint32_t> empty;
  EXPECT_TRUE(pack_bits(empty, 4).empty());
  EXPECT_TRUE(unpack_bits({}, 4, 0).empty());
}

TEST(WireBytes, MatchesFormula) {
  EXPECT_EQ(quantized_wire_bytes(64, 2), 64u / 4 + 8);
  EXPECT_EQ(quantized_wire_bytes(64, 4), 64u / 2 + 8);
  EXPECT_EQ(quantized_wire_bytes(64, 8), 64u + 8);
  EXPECT_EQ(quantized_wire_bytes(64, 32), 64u * 4 + 8);
  EXPECT_EQ(quantized_wire_bytes(3, 2), 1u + 8);  // rounds up to whole bytes
}

TEST(Quantize, PassthroughAt32Bits) {
  Rng rng(1);
  const auto values = random_vector(50, rng);
  const QuantizedVector qv = quantize(values, 32, rng);
  std::vector<float> out(values.size());
  dequantize(qv, out);
  EXPECT_EQ(out, values);
  EXPECT_EQ(variance_bound(qv), 0.0);
}

TEST(Quantize, ConstantVectorIsExact) {
  Rng rng(2);
  const std::vector<float> values(31, 1.75f);
  for (int bits : {2, 4, 8}) {
    const QuantizedVector qv = quantize(values, bits, rng);
    EXPECT_EQ(qv.scale, 0.0f);
    std::vector<float> out(values.size());
    dequantize(qv, out);
    for (float v : out) EXPECT_FLOAT_EQ(v, 1.75f);
  }
}

TEST(Quantize, EmptyVector) {
  Rng rng(3);
  const std::vector<float> values;
  const QuantizedVector qv = quantize(values, 4, rng);
  EXPECT_EQ(qv.dim, 0u);
  std::vector<float> out;
  EXPECT_NO_THROW(dequantize(qv, out));
}

TEST(Quantize, EndpointsAreRepresentedExactly) {
  // min maps to level 0 and max to the top level, so both are exact.
  Rng rng(4);
  const std::vector<float> values = {-5.0f, 0.1f, 0.2f, 7.0f};
  for (int bits : {2, 4, 8}) {
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> out(values.size());
    dequantize(qv, out);
    EXPECT_FLOAT_EQ(out[0], -5.0f);
    EXPECT_NEAR(out[3], 7.0f, 1e-5f);
  }
}

TEST(Quantize, ErrorBoundedByScale) {
  Rng rng(5);
  const auto values = random_vector(256, rng);
  for (int bits : {2, 4, 8}) {
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> out(values.size());
    dequantize(qv, out);
    for (std::size_t i = 0; i < values.size(); ++i)
      EXPECT_LE(std::fabs(out[i] - values[i]), qv.scale + 1e-6f)
          << "bits=" << bits << " i=" << i;
  }
}

TEST(Quantize, InvalidBitWidthThrows) {
  Rng rng(6);
  const std::vector<float> values = {1.0f};
  EXPECT_THROW(quantize(values, 3, rng), std::runtime_error);
  EXPECT_THROW(quantize(values, 16, rng), std::runtime_error);
}

TEST(Quantize, LatticeValuesExactAtMatchingWidth) {
  // Values already on the 4-bit lattice survive 4-bit quantization exactly.
  Rng rng(7);
  std::vector<float> values(16);
  for (int i = 0; i < 16; ++i) values[i] = static_cast<float>(i) / 15.0f;
  const QuantizedVector qv = quantize(values, 4, rng);
  std::vector<float> out(values.size());
  dequantize(qv, out);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(out[i], values[i], 1e-6f);
}

// ---- Theorem 1 properties, parameterized over (bits, dim) ------------------

struct QuantCase {
  int bits;
  std::size_t dim;
};

void PrintTo(const QuantCase& c, std::ostream* os) {
  *os << c.bits << "b/D" << c.dim;
}

class TheoremOneTest : public ::testing::TestWithParam<QuantCase> {};

TEST_P(TheoremOneTest, DequantizedEstimateIsUnbiased) {
  const auto [bits, dim] = GetParam();
  Rng data_rng(100 + bits * 7 + dim);
  const auto values = random_vector(dim, data_rng);
  Rng rng(999);
  const int trials = 3000;
  std::vector<double> mean(dim, 0.0);
  for (int t = 0; t < trials; ++t) {
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> out(dim);
    dequantize(qv, out);
    for (std::size_t i = 0; i < dim; ++i) mean[i] += out[i];
  }
  // E[h_hat] == h, elementwise within Monte-Carlo noise ~ S/sqrt(trials).
  const QuantizedVector probe = quantize(values, bits, rng);
  const double tolerance = 5.0 * probe.scale / std::sqrt(trials) + 1e-5;
  for (std::size_t i = 0; i < dim; ++i)
    EXPECT_NEAR(mean[i] / trials, values[i], tolerance)
        << "component " << i;
}

TEST_P(TheoremOneTest, VarianceRespectsTheoremBound) {
  const auto [bits, dim] = GetParam();
  Rng data_rng(200 + bits * 3 + dim);
  const auto values = random_vector(dim, data_rng);
  Rng rng(777);
  const int trials = 3000;
  double total_var = 0.0;
  const QuantizedVector probe = quantize(values, bits, rng);
  for (int t = 0; t < trials; ++t) {
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> out(dim);
    dequantize(qv, out);
    for (std::size_t i = 0; i < dim; ++i) {
      const double e = out[i] - values[i];
      total_var += e * e;
    }
  }
  total_var /= trials;
  // Theorem 1: Var[h_hat] = D * S^2 / 6 under the uniform-fraction
  // assumption; empirical variance must respect it up to MC slack.
  EXPECT_LE(total_var, 1.15 * variance_bound(probe) + 1e-9)
      << "empirical " << total_var << " bound " << variance_bound(probe);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TheoremOneTest,
    ::testing::Values(QuantCase{2, 8}, QuantCase{2, 64}, QuantCase{4, 8},
                      QuantCase{4, 64}, QuantCase{8, 32}, QuantCase{2, 256},
                      QuantCase{8, 256}, QuantCase{4, 1024},
                      QuantCase{2, 4096}));

// ---- Counter-based rounding draws (simd/kernels.h) --------------------------

// The reference draw over structured keys (0, 1, 2, ..., and the 32-bit
// boundaries) and random ones, rows on both sides of 2^16, and a row's
// first 1024 columns: mean within 5 standard errors of 1/2, and a 16-bin
// histogram under the chi-square bound (15 degrees of freedom, p ~ 1e-4).
TEST(RoundingDraw, ReferenceDrawIsUniform) {
  std::vector<std::uint64_t> keys = {0xFFFFFFFFull, 0x100000000ull,
                                     0xFFFFFFFFFFFFFFFFull};
  for (std::uint64_t k = 0; k < 32; ++k) keys.push_back(k);
  Rng key_rng(2024);
  for (int k = 0; k < 29; ++k) keys.push_back(key_rng.next());
  const std::uint32_t rows[] = {0u, 1u, 65536u, 0xFFFFFFFFu};
  const std::uint32_t cols = 1024;
  std::vector<double> bins(16, 0.0);
  double sum = 0.0, count = 0.0;
  for (std::uint64_t key : keys) {
    for (std::uint32_t row : rows) {
      const std::uint32_t seed = simd::rounding_seed(key, row);
      for (std::uint32_t col = 0; col < cols; ++col) {
        const float u = simd::rounding_uniform(seed, col);
        ASSERT_GE(u, 0.0f);
        ASSERT_LT(u, 1.0f);
        sum += u;
        bins[static_cast<std::size_t>(u * 16.0f)] += 1.0;
        count += 1.0;
      }
    }
  }
  EXPECT_NEAR(sum / count, 0.5, 5.0 * std::sqrt(1.0 / 12.0 / count));
  double chi2 = 0.0;
  const double expected = count / 16.0;
  for (double b : bins) chi2 += (b - expected) * (b - expected) / expected;
  EXPECT_LT(chi2, 44.3) << "16-bin chi-square over " << count << " draws";
}

// The scalar kernel rounds element i up exactly when the reference draw of
// (key, row, i) is below its fractional part: with every fraction at 1/2,
// the payload spells out which draws fell below 1/2.
TEST(RoundingDraw, ScalarKernelRoundsWithTheReferenceDraw) {
  const std::size_t n = 200;
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(i) + 0.5f;
  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::uint32_t row = 70000;
  std::vector<std::uint8_t> out(n);
  simd::scalar_kernels()->quantize_pack(8, x.data(), n, 0.0f, 1.0f, key, row,
                                        out.data());
  const std::uint32_t seed = simd::rounding_seed(key, row);
  for (std::size_t i = 0; i < n; ++i) {
    const bool up =
        simd::rounding_uniform(seed, static_cast<std::uint32_t>(i)) < 0.5f;
    EXPECT_EQ(out[i], i + (up ? 1 : 0)) << "element " << i;
  }
}

TEST(Quantize, HigherBitsLowerError) {
  Rng rng(8);
  const auto values = random_vector(512, rng);
  double err[9] = {0};
  for (int bits : {2, 4, 8}) {
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> out(values.size());
    dequantize(qv, out);
    double e = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i)
      e += std::fabs(out[i] - values[i]);
    err[bits] = e;
  }
  EXPECT_LT(err[4], err[2]);
  EXPECT_LT(err[8], err[4]);
}

}  // namespace
}  // namespace adaqp
