// Scalar reference kernels — the portable implementation every vector ISA
// must match bit-for-bit (wire streams byte-identical, float outputs
// bit-identical). The arithmetic here is the original quant/quantize.cpp
// hot-loop sequence, verbatim; keep it boring. It also defines the
// counter-based rounding draws (kernels.h) that every vector quantize_pack
// reproduces lane-wise. Built with -ffp-contract=off like every kernel TU
// so no platform fuses the dequant multiply-add.
#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace adaqp::simd {
namespace {

std::uint32_t mix32(std::uint32_t h) {
  h ^= h >> 16;
  h *= kRoundMul1;
  h ^= h >> 15;
  h *= kRoundMul2;
  h ^= h >> 15;
  return h;
}

}  // namespace

std::uint32_t rounding_seed(std::uint64_t key, std::uint32_t row) {
  const auto lo = static_cast<std::uint32_t>(key);
  const auto hi = static_cast<std::uint32_t>(key >> 32);
  return mix32(hi ^ mix32(lo ^ mix32(row + kRoundWeyl)));
}

float rounding_uniform(std::uint32_t seed, std::uint32_t col) {
  return static_cast<float>(mix32(seed + col * kRoundWeyl) >> 8) * 0x1.0p-24f;
}

namespace {

void row_minmax(const float* x, std::size_t n, float* lo, float* hi) {
  float l = x[0], h = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    const float v = x[i];
    if (v < l) l = v;
    if (v > h) h = v;
  }
  *lo = l;
  *hi = h;
}

void quantize_pack(int bits, const float* x, std::size_t n, float zp,
                   float scale, std::uint64_t key, std::uint32_t row,
                   std::uint8_t* out) {
  const std::uint32_t seed = rounding_seed(key, row);
  const auto levels = static_cast<float>((1u << bits) - 1u);
  const std::size_t nbytes = (n * static_cast<std::size_t>(bits) + 7) / 8;
  for (std::size_t b = 0; b < nbytes; ++b) out[b] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float xs = (x[i] - zp) / scale;
    const float fl = __builtin_floorf(xs);
    const float frac = xs - fl;
    const float u = rounding_uniform(seed, static_cast<std::uint32_t>(i));
    float r = fl + (u < frac ? 1.0f : 0.0f);
    if (r < 0.0f) r = 0.0f;
    if (r > levels) r = levels;
    const auto q = static_cast<std::uint32_t>(r);
    const std::size_t bit_pos = i * static_cast<std::size_t>(bits);
    out[bit_pos / 8] |= static_cast<std::uint8_t>(q << (bit_pos % 8));
  }
}

void unpack_dequant(int bits, const std::uint8_t* packed, std::size_t n,
                    float scale, float zp, float* out) {
  const std::uint32_t mask = (1u << bits) - 1u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit_pos = i * static_cast<std::size_t>(bits);
    const std::uint32_t q = (packed[bit_pos / 8] >> (bit_pos % 8)) & mask;
    out[i] = static_cast<float>(q) * scale + zp;
  }
}

void pack_bits_k(int bits, const std::uint32_t* values, std::size_t n,
                 std::uint8_t* out) {
  const std::size_t nbytes = (n * static_cast<std::size_t>(bits) + 7) / 8;
  for (std::size_t b = 0; b < nbytes; ++b) out[b] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit_pos = i * static_cast<std::size_t>(bits);
    out[bit_pos / 8] |= static_cast<std::uint8_t>(values[i] << (bit_pos % 8));
  }
}

void unpack_bits_k(int bits, const std::uint8_t* packed, std::size_t n,
                   std::uint32_t* out) {
  const std::uint32_t mask = (1u << bits) - 1u;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit_pos = i * static_cast<std::size_t>(bits);
    out[i] = (packed[bit_pos / 8] >> (bit_pos % 8)) & mask;
  }
}

void axpy(float a, const float* b, float* c, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) c[j] += a * b[j];
}

void scale_row(float a, const float* src, float* dst, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = a * src[j];
}

void ef_fold(const float* a, const float* b, float* dst, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = a[j] + b[j];
}

void ef_residual(const float* a, const float* b, float* dst, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = a[j] - b[j];
}

void gather_axpy(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, std::size_t n) {
  for (std::size_t k = 0; k < count; ++k) {
    const float ck = coeffs[k];
    const float* src = base + static_cast<std::size_t>(idx[k]) * stride;
    for (std::size_t j = 0; j < n; ++j) dst[j] += ck * src[j];
  }
}

const KernelTable kTable = {
    row_minmax, quantize_pack, unpack_dequant,
    pack_bits_k, unpack_bits_k, axpy,
    scale_row,  ef_fold,       ef_residual,
    gather_axpy,
};

}  // namespace

const KernelTable* scalar_kernels() { return &kTable; }

}  // namespace adaqp::simd
