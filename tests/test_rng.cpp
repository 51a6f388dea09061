// Tests for the deterministic PRNG (common/rng.h).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"

namespace adaqp {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto x0 = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), x0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // Child and parent should not track each other.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, UniformFloatInUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 20000; ++i) {
    const float u = rng.uniform_float();
    ASSERT_GE(u, 0.0f);
    ASSERT_LT(u, 1.0f);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntOne) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShifted) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PowerLawWithinRange) {
  Rng rng(16);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.power_law(2.5, 100);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
  }
}

TEST(Rng, PowerLawIsHeavyTailed) {
  Rng rng(17);
  // A power law with gamma=2.0 over [1,1000] should produce some large
  // values but mostly small ones.
  int small = 0, large = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto k = rng.power_law(2.0, 1000);
    if (k <= 2) ++small;
    if (k >= 100) ++large;
  }
  EXPECT_GT(small, 10000);  // majority near the head
  EXPECT_GT(large, 10);     // tail is populated
}

TEST(Splitmix, Deterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// ---- Jump-ahead -----------------------------------------------------------

/// A GF(2) polynomial of degree <= 256: bit j%64 of word j/64 is x^j.
using Poly = std::array<std::uint64_t, 5>;

/// Inverse of an odd x modulo 2^64 by Newton's iteration.
std::uint64_t inverse_mod_2_64(std::uint64_t x) {
  std::uint64_t inv = x;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
  return inv;
}

/// Bit 0 of state word 1 before each of `count` next() calls, recovered by
/// inverting the ** scrambler (rotl(s1 * 5, 7) * 9). Unlike the output, it
/// is a linear function of the state.
std::vector<std::uint8_t> state_bits(Rng rng, std::size_t count) {
  const std::uint64_t inv9 = inverse_mod_2_64(9), inv5 = inverse_mod_2_64(5);
  std::vector<std::uint8_t> bits(count);
  for (auto& bit : bits) {
    const std::uint64_t y = rng.next() * inv9;
    bit = static_cast<std::uint8_t>((((y >> 7) | (y << 57)) * inv5) & 1u);
  }
  return bits;
}

/// Berlekamp–Massey over GF(2): the connection polynomial c (c[0] = 1) of
/// the shortest linear recurrence that generates `s`.
std::vector<std::uint8_t> berlekamp_massey(const std::vector<std::uint8_t>& s) {
  std::vector<std::uint8_t> c(s.size() + 1, 0), b(s.size() + 1, 0);
  c[0] = b[0] = 1;
  std::size_t len = 0, shift = 1;
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::uint8_t d = s[i];
    for (std::size_t j = 1; j <= len; ++j) d ^= c[j] & s[i - j];
    if (d == 0) {
      ++shift;
      continue;
    }
    const std::vector<std::uint8_t> prev = c;
    for (std::size_t j = 0; j + shift < c.size(); ++j) c[j + shift] ^= b[j];
    if (2 * len <= i) {
      len = i + 1 - len;
      b = prev;
      shift = 1;
    } else {
      ++shift;
    }
  }
  c.resize(len + 1);
  return c;
}

/// a·b mod m for a, b of degree < 256 and m of degree 256.
Poly mulmod(const Poly& a, const Poly& b, const Poly& m) {
  Poly r{};
  for (int j = 255; j >= 0; --j) {
    for (int w = 4; w > 0; --w) r[w] = (r[w] << 1) | (r[w - 1] >> 63);
    r[0] <<= 1;
    if (r[4] & 1u)
      for (int w = 0; w < 5; ++w) r[w] ^= m[w];
    if ((b[j / 64] >> (j % 64)) & 1u)
      for (int w = 0; w < 5; ++w) r[w] ^= a[w];
  }
  return r;
}

/// x^k mod m by square-and-multiply.
Poly x_pow_mod(std::uint64_t k, const Poly& m) {
  Poly result{1, 0, 0, 0, 0}, base{2, 0, 0, 0, 0};
  for (; k != 0; k >>= 1) {
    if (k & 1u) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
  }
  return result;
}

/// The characteristic polynomial of Rng's state update, from 512 output
/// bits: twice the state size, enough for Berlekamp–Massey.
Poly characteristic_polynomial() {
  const std::vector<std::uint8_t> c = berlekamp_massey(state_bits(Rng(3), 512));
  EXPECT_EQ(c.size(), 257u) << "recurrence shorter than the 256-bit state";
  Poly m{};
  for (std::size_t i = 0; i < c.size(); ++i)  // m is c reversed
    if (c[i]) m[(256 - i) / 64] |= std::uint64_t{1} << ((256 - i) % 64);
  return m;
}

TEST(Rng, ChunkJumpMatchesSerialSteps) {
  const Poly m = characteristic_polynomial();
  // The derivation reproduces xoshiro256's published 2^128 jump polynomial
  // (x^(2^128): 128 squarings of x) ...
  Poly x128{2, 0, 0, 0, 0};
  for (int i = 0; i < 128; ++i) x128 = mulmod(x128, x128, m);
  EXPECT_EQ(x128, (Poly{0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                        0xa9582618e03fc9aaull, 0x39abdc4529b1661cull, 0}));
  // ... and the shipped chunk-jump constant.
  const Poly chunk = x_pow_mod(Rng::kMaskChunk, m);
  for (int w = 0; w < 4; ++w)
    EXPECT_EQ(chunk[w], Rng::kMaskChunkJump[w]) << "word " << w;
  EXPECT_EQ(chunk[4], 0u);

  // The jump lands where kMaskChunk next() calls do, and chains.
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    Rng jumped(seed), stepped(seed);
    for (int hop = 0; hop < 2; ++hop) {
      jumped.jump_mask_chunk();
      for (std::size_t i = 0; i < Rng::kMaskChunk; ++i) stepped.next();
      Rng a = jumped, b = stepped;
      for (int i = 0; i < 8; ++i)
        ASSERT_EQ(a.next(), b.next()) << "seed " << seed << " hop " << hop;
    }
  }
}

}  // namespace
}  // namespace adaqp
