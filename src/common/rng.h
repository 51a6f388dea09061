// Deterministic pseudo-random number generation for the whole library.
//
// All stochastic components (graph generators, stochastic rounding, dropout,
// weight init) take an explicit Rng so every experiment is reproducible from
// a single seed. The engine is xoshiro256** (Blackman & Vigna), chosen for
// speed and quality; std::mt19937_64 is deliberately avoided because its
// state is large and its distributions are not stable across libstdc++
// versions. All distribution code here is self-contained.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <limits>

namespace adaqp {

/// Counter-free splittable PRNG used to seed per-object streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with self-contained, version-stable distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent child stream (for per-device / per-layer RNGs).
  Rng split() { return Rng(next() ^ 0x9e3779b97f4a7c15ull); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Draws that jump_mask_chunk() skips: dropout_mask bands its mask in
  /// chunks of this many elements.
  static constexpr std::size_t kMaskChunk = 16384;

  /// The state update is linear over GF(2), so the state k steps ahead is
  /// p(T)·s with p = x^k mod the update's characteristic polynomial
  /// (Haramoto et al., "Efficient jump ahead for F2-linear random number
  /// generators", 2008). These are p's 256 coefficients for k = kMaskChunk:
  /// bit j%64 of word j/64 for x^j. tests/test_rng.cpp re-derives them.
  static constexpr std::uint64_t kMaskChunkJump[4] = {
      0x4f20eb915e780231ull, 0x3886af219b885248ull, 0x023ecbee3f717fceull,
      0x3cec2c375bef249cull};

  /// Advance the stream by kMaskChunk next() calls, in 256 state steps.
  void jump_mask_chunk() {
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (const std::uint64_t word : kMaskChunkJump)
      for (int b = 0; b < 64; ++b) {
        const std::uint64_t take = 0 - ((word >> b) & 1u);  // all ones or 0
        for (int w = 0; w < 4; ++w) acc[w] ^= state_[w] & take;
        next();
      }
    for (int w = 0; w < 4; ++w) state_[w] = acc[w];
  }

  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1) with 24 bits of precision (fast path used by
  /// dropout masks, where one draw is needed per tensor element; each mask
  /// element is this draw at its row-major index, see jump_mask_chunk).
  float uniform_float() {
    return static_cast<float>(next() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform_int(std::uint64_t bound) {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (stateless variant; one value per call).
  double normal() {
    double u1 = uniform();
    while (u1 <= std::numeric_limits<double>::min()) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Geometric-ish power-law degree sample in [1, cap] with exponent gamma.
  std::uint64_t power_law(double gamma, std::uint64_t cap) {
    // Inverse-CDF sampling of P(k) ~ k^-gamma over continuous [1, cap].
    const double u = uniform();
    const double one_minus_g = 1.0 - gamma;
    const double a = std::pow(1.0, one_minus_g);
    const double b = std::pow(static_cast<double>(cap), one_minus_g);
    const double x = std::pow(a + u * (b - a), 1.0 / one_minus_g);
    const auto k = static_cast<std::uint64_t>(x);
    return k < 1 ? 1 : (k > cap ? cap : k);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace adaqp
