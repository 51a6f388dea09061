// AVX2 kernels (8-wide float math, vectorized 2/4/8-bit packing). Compiled
// with -mavx2 -ffp-contract=off; only reached after runtime dispatch
// confirms AVX2 support. No FMA instructions are used anywhere so the
// multiply-add rounding matches the scalar reference exactly (see
// kernels.h for the full determinism contract).
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels.h"

namespace adaqp::simd {
namespace {

void row_minmax(const float* x, std::size_t n, float* lo, float* hi) {
  std::size_t i = 0;
  float l = x[0], h = x[0];
  if (n >= 8) {
    __m256 vlo = _mm256_loadu_ps(x);
    __m256 vhi = vlo;
    for (i = 8; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(x + i);
      vlo = _mm256_min_ps(vlo, v);
      vhi = _mm256_max_ps(vhi, v);
    }
    float tl[8], th[8];
    _mm256_storeu_ps(tl, vlo);
    _mm256_storeu_ps(th, vhi);
    l = tl[0];
    h = th[0];
    for (int k = 1; k < 8; ++k) {
      if (tl[k] < l) l = tl[k];
      if (th[k] > h) h = th[k];
    }
  }
  for (; i < n; ++i) {
    if (x[i] < l) l = x[i];
    if (x[i] > h) h = x[i];
  }
  *lo = l;
  *hi = h;
}

/// Rounding draws of 8 columns from their hash counters
/// h = seed + col * kRoundWeyl: the reference mix32, lane-wise.
inline __m256 uniform8(__m256i h) {
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
  h = _mm256_mullo_epi32(h, _mm256_set1_epi32(static_cast<int>(kRoundMul1)));
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 15));
  h = _mm256_mullo_epi32(h, _mm256_set1_epi32(static_cast<int>(kRoundMul2)));
  h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 15));
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8)),
                       _mm256_set1_ps(0x1.0p-24f));
}

/// Quantize 8 lanes: the scalar per-element op sequence, lane-wise.
inline __m256i quant8(__m256 v, __m256 uu, __m256 vzp, __m256 vs, __m256 vlev,
                      __m256 vone, __m256 vzero) {
  const __m256 xs = _mm256_div_ps(_mm256_sub_ps(v, vzp), vs);
  const __m256 fl = _mm256_floor_ps(xs);
  const __m256 frac = _mm256_sub_ps(xs, fl);
  const __m256 bump =
      _mm256_and_ps(_mm256_cmp_ps(uu, frac, _CMP_LT_OS), vone);
  __m256 r = _mm256_add_ps(fl, bump);
  r = _mm256_min_ps(_mm256_max_ps(r, vzero), vlev);
  return _mm256_cvttps_epi32(r);
}

/// Narrow two 8-lane u32 vectors (values <= 255) to 16 bytes in order.
inline __m128i narrow16(__m256i q0, __m256i q1) {
  __m256i p16 = _mm256_packus_epi32(q0, q1);        // a0-3 b0-3 | a4-7 b4-7
  p16 = _mm256_permute4x64_epi64(p16, 0xD8);        // a0-7 | b0-7
  const __m256i p8 = _mm256_packus_epi16(p16, p16); // a0-7 a0-7 | b0-7 b0-7
  return _mm_unpacklo_epi64(_mm256_castsi256_si128(p8),
                            _mm256_extracti128_si256(p8, 1));
}

/// Pack 16 byte-values (each < 2^bits) into ceil(16*bits/8) output bytes
/// using pairwise unsigned-byte multiply-adds (vpmaddubsw).
inline std::size_t pack16(int bits, __m128i bytes16, std::uint8_t* out) {
  switch (bits) {
    case 8:
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out), bytes16);
      return 16;
    case 4: {
      // s[2j] + 16*s[2j+1] per i16 lane, then narrow to 8 bytes.
      const __m128i m16 =
          _mm_maddubs_epi16(bytes16, _mm_set1_epi16(0x1001));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                       _mm_packus_epi16(m16, m16));
      return 8;
    }
    default: {  // 2
      const __m128i m4 = _mm_maddubs_epi16(bytes16, _mm_set1_epi16(0x0401));
      const __m128i b4 = _mm_packus_epi16(m4, m4);  // 8 pair-values
      const __m128i m16 = _mm_maddubs_epi16(b4, _mm_set1_epi16(0x1001));
      const __m128i b16 = _mm_packus_epi16(m16, m16);
      const int packed = _mm_cvtsi128_si32(b16);
      std::memcpy(out, &packed, 4);
      return 4;
    }
  }
}

void quantize_pack(int bits, const float* x, std::size_t n, float zp,
                   float scale, std::uint64_t key, std::uint32_t row,
                   std::uint8_t* out) {
  const auto levels = static_cast<float>((1u << bits) - 1u);
  const __m256 vzp = _mm256_set1_ps(zp);
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256 vzero = _mm256_setzero_ps();
  const __m256i half = _mm256_set1_epi32(static_cast<int>(8u * kRoundWeyl));
  const __m256i step = _mm256_set1_epi32(static_cast<int>(16u * kRoundWeyl));
  __m256i ctr = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(rounding_seed(key, row))),
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(kRoundWeyl))));
  const auto quant16 = [&](const float* xi) {
    const __m256i q0 = quant8(_mm256_loadu_ps(xi), uniform8(ctr), vzp, vs,
                              vlev, vone, vzero);
    const __m256i q1 =
        quant8(_mm256_loadu_ps(xi + 8), uniform8(_mm256_add_epi32(ctr, half)),
               vzp, vs, vlev, vone, vzero);
    ctr = _mm256_add_epi32(ctr, step);
    return narrow16(q0, q1);
  };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) out += pack16(bits, quant16(x + i), out);
  if (i < n) {
    // Tail: the same lanes over a zero-padded copy; bytes past n are
    // cleared before packing so the trailing pad bits stay zero.
    const std::size_t rem = n - i;
    float pad[16] = {};
    std::memcpy(pad, x + i, rem * sizeof(float));
    const __m128i live =
        _mm_cmpgt_epi8(_mm_set1_epi8(static_cast<char>(rem)),
                       _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                     13, 14, 15));
    std::uint8_t tmp[16];
    pack16(bits, _mm_and_si128(quant16(pad), live), tmp);
    std::memcpy(out, tmp, (rem * static_cast<std::size_t>(bits) + 7) / 8);
  }
}

/// Expand ceil(16*bits/8) packed bytes into 16 byte-values via variable
/// 32-bit shifts: value i of a packed u32 X is (X >> (bits*i)) & mask.
inline std::size_t expand16(int bits, const std::uint8_t* packed,
                            __m128i* bytes16) {
  switch (bits) {
    case 8:
      *bytes16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(packed));
      return 16;
    case 4: {
      std::uint32_t x0, x1;
      std::memcpy(&x0, packed, 4);
      std::memcpy(&x1, packed + 4, 4);
      const __m256i sh = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
      const __m256i mask = _mm256_set1_epi32(0x0F);
      const __m256i v0 =
          _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(
                               static_cast<int>(x0)), sh), mask);
      const __m256i v1 =
          _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(
                               static_cast<int>(x1)), sh), mask);
      *bytes16 = narrow16(v0, v1);
      return 8;
    }
    default: {  // 2
      std::uint32_t x;
      std::memcpy(&x, packed, 4);
      const __m256i lo_sh = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
      const __m256i hi_sh =
          _mm256_setr_epi32(16, 18, 20, 22, 24, 26, 28, 30);
      const __m256i mask = _mm256_set1_epi32(3);
      const __m256i bx = _mm256_set1_epi32(static_cast<int>(x));
      const __m256i v0 = _mm256_and_si256(_mm256_srlv_epi32(bx, lo_sh), mask);
      const __m256i v1 = _mm256_and_si256(_mm256_srlv_epi32(bx, hi_sh), mask);
      *bytes16 = narrow16(v0, v1);
      return 4;
    }
  }
}

void unpack_dequant(int bits, const std::uint8_t* packed, std::size_t n,
                    float scale, float zp, float* out) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vzp = _mm256_set1_ps(zp);
  std::size_t i = 0;
  __m128i bytes16;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, &bytes16);
    const __m256 q0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes16));
    const __m256 q1 = _mm256_cvtepi32_ps(
        _mm256_cvtepu8_epi32(_mm_srli_si128(bytes16, 8)));
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_mul_ps(q0, vs), vzp));
    _mm256_storeu_ps(out + i + 8,
                     _mm256_add_ps(_mm256_mul_ps(q1, vs), vzp));
    i += 16;
  }
  // `packed` already points at the first tail byte; tail bit positions are
  // relative to it (16 values always consume a whole number of bytes).
  const std::uint32_t mask = (1u << bits) - 1u;
  for (std::size_t t = 0; i + t < n; ++t) {
    const std::size_t bit_pos = t * static_cast<std::size_t>(bits);
    const std::uint32_t q = (packed[bit_pos / 8] >> (bit_pos % 8)) & mask;
    out[i + t] = static_cast<float>(q) * scale + zp;
  }
}

void pack_bits_k(int bits, const std::uint32_t* values, std::size_t n,
                 std::uint8_t* out) {
  std::size_t i = 0;
  while (i + 16 <= n) {
    const __m256i q0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i));
    const __m256i q1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + i + 8));
    out += pack16(bits, narrow16(q0, q1), out);
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    std::uint8_t s[16];
    std::memset(s, 0, sizeof(s));
    for (std::size_t t = 0; t < rem; ++t)
      s[t] = static_cast<std::uint8_t>(values[i + t]);
    const std::size_t nbytes =
        (rem * static_cast<std::size_t>(bits) + 7) / 8;
    std::uint8_t tmp[16];
    pack16(bits, _mm_loadu_si128(reinterpret_cast<const __m128i*>(s)), tmp);
    std::memcpy(out, tmp, nbytes);
  }
}

void unpack_bits_k(int bits, const std::uint8_t* packed, std::size_t n,
                   std::uint32_t* out) {
  std::size_t i = 0;
  __m128i bytes16;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, &bytes16);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_cvtepu8_epi32(bytes16));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8),
                        _mm256_cvtepu8_epi32(_mm_srli_si128(bytes16, 8)));
    i += 16;
  }
  if (i < n) {
    const std::uint32_t mask = (1u << bits) - 1u;
    for (std::size_t t = 0; t < n - i; ++t) {
      const std::size_t bit_pos = t * static_cast<std::size_t>(bits);
      out[i + t] = (packed[bit_pos / 8] >> (bit_pos % 8)) & mask;
    }
  }
}

void axpy(float a, const float* b, float* c, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 p0 = _mm256_mul_ps(va, _mm256_loadu_ps(b + j));
    const __m256 p1 = _mm256_mul_ps(va, _mm256_loadu_ps(b + j + 8));
    _mm256_storeu_ps(c + j, _mm256_add_ps(_mm256_loadu_ps(c + j), p0));
    _mm256_storeu_ps(c + j + 8,
                     _mm256_add_ps(_mm256_loadu_ps(c + j + 8), p1));
  }
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(
        c + j, _mm256_add_ps(_mm256_loadu_ps(c + j),
                             _mm256_mul_ps(va, _mm256_loadu_ps(b + j))));
  for (; j < n; ++j) c[j] += a * b[j];
}

void scale_row(float a, const float* src, float* dst, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm256_storeu_ps(dst + j, _mm256_mul_ps(va, _mm256_loadu_ps(src + j)));
    _mm256_storeu_ps(dst + j + 8,
                     _mm256_mul_ps(va, _mm256_loadu_ps(src + j + 8)));
  }
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(dst + j, _mm256_mul_ps(va, _mm256_loadu_ps(src + j)));
  for (; j < n; ++j) dst[j] = a * src[j];
}

void ef_fold(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(
        dst + j, _mm256_add_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)));
  for (; j < n; ++j) dst[j] = a[j] + b[j];
}

void ef_residual(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(
        dst + j, _mm256_sub_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j)));
  for (; j < n; ++j) dst[j] = a[j] - b[j];
}

/// Lane mask of the last vector of a tile `width` columns wide.
inline __m256i last_mask(std::size_t width) {
  const auto tail = static_cast<int>(width - 8 * ((width - 1) / 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(tail),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Every loop over a tile's vectors or rows is fully unrolled by pragma.
// Left to itself, GCC 12 keeps the store loop below rolled (its branch),
// so it addresses the accumulator array in memory and stores every
// accumulator to the stack on each reduction step.

/// Loads vector v of an NV-vector tile: the first NV-1 are full, the last
/// is masked by `last` (all lanes for a full tile); masked-off lanes read
/// as +0 without touching memory and are never stored.
template <int NV>
inline __m256 tile_load(const float* p, int v, __m256i last) {
  return v + 1 < NV ? _mm256_loadu_ps(p + 8 * v)
                    : _mm256_maskload_ps(p + 8 * v, last);
}

template <int NV>
inline void tile_store(float* p, int v, __m256i last, __m256 x) {
  if (v + 1 < NV)
    _mm256_storeu_ps(p + 8 * v, x);
  else
    _mm256_maskstore_ps(p + 8 * v, last, x);
}

/// One register-resident tile of gather_axpy: NV ymm accumulators (up to
/// 64 columns in 8) loaded once, reduced over every k in order, stored
/// once.
template <int NV>
void gather_tile(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, __m256i last) {
  __m256 acc[NV];
  #pragma GCC unroll 16
  for (int v = 0; v < NV; ++v) acc[v] = tile_load<NV>(dst, v, last);
  for (std::size_t k = 0; k < count; ++k) {
    const __m256 ck = _mm256_set1_ps(coeffs[k]);
    const float* src = base + (idx ? idx[k] : k) * stride;
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      acc[v] = _mm256_add_ps(acc[v],
                             _mm256_mul_ps(ck, tile_load<NV>(src, v, last)));
  }
  #pragma GCC unroll 16
  for (int v = 0; v < NV; ++v) tile_store<NV>(dst, v, last, acc[v]);
}

void gather_axpy(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, std::size_t n) {
  using Tile = void (*)(const float*, std::size_t, const std::uint32_t*,
                        const float*, std::size_t, float*, __m256i);
  static constexpr Tile kTiles[] = {gather_tile<1>, gather_tile<2>,
                                    gather_tile<3>, gather_tile<4>,
                                    gather_tile<5>, gather_tile<6>,
                                    gather_tile<7>, gather_tile<8>};
  for (std::size_t j = 0; j < n; j += 64) {
    const std::size_t w = n - j < 64 ? n - j : 64;
    kTiles[(w - 1) / 8](base + j, stride, idx, coeffs, count, dst + j,
                         last_mask(w));
  }
}

/// One MR x (8*NV) block of outer_block. AVX2 has 16 ymm registers, so the
/// block holds 16 columns (MR*NV = 8 accumulators at MR = 4) and leaves
/// room for the B row and the broadcast; wider blocks would spill.
template <int MR, int NV>
void outer_tile(const float* a, std::size_t lda, const float* b,
                std::size_t ldb, const std::uint32_t* rows, std::size_t count,
                float* c, std::size_t ldc, __m256i last) {
  __m256 acc[MR][NV];
  #pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      acc[r][v] = tile_load<NV>(c + r * ldc, v, last);
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t s = rows ? rows[p] : p;
    const float* arow = a + s * lda;
    const float* brow = b + s * ldb;
    __m256 bv[NV];
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) bv[v] = tile_load<NV>(brow, v, last);
    #pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const __m256 ar = _mm256_set1_ps(arow[r]);
      #pragma GCC unroll 16
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bv[v]));
    }
  }
  #pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      tile_store<NV>(c + r * ldc, v, last, acc[r][v]);
}

void outer_block(const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, const std::uint32_t* rows, std::size_t count,
                 float* c, std::size_t ldc, std::size_t mr, std::size_t n) {
  using Tile = void (*)(const float*, std::size_t, const float*, std::size_t,
                        const std::uint32_t*, std::size_t, float*,
                        std::size_t, __m256i);
  static constexpr Tile kTiles[4][2] = {{outer_tile<1, 1>, outer_tile<1, 2>},
                                        {outer_tile<2, 1>, outer_tile<2, 2>},
                                        {outer_tile<3, 1>, outer_tile<3, 2>},
                                        {outer_tile<4, 1>, outer_tile<4, 2>}};
  for (std::size_t j = 0; j < n; j += 16) {
    const std::size_t w = n - j < 16 ? n - j : 16;
    kTiles[mr - 1][(w - 1) / 8](a, lda, b + j, ldb, rows, count, c + j, ldc,
                                last_mask(w));
  }
}

const KernelTable kTable = {
    row_minmax, quantize_pack, unpack_dequant,
    pack_bits_k, unpack_bits_k, axpy,
    scale_row,  ef_fold,       ef_residual,
    gather_axpy, outer_block,  crc32_pclmul,
};

}  // namespace

const KernelTable* avx2_kernels() { return &kTable; }

// CRC-32 by carry-less multiply, after Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ" (Intel, 2009), in the reflected
// domain. Four 128-bit accumulators fold 64 bytes per step (k1k2), collapse
// into one (k3k4), which then folds 16-byte blocks; the 128-bit remainder
// reduces to 64 bits (k3k4, k5) and Barrett-reduces to 32 (mu, P). The
// sub-16-byte tail, and inputs under 64 bytes, go through the scalar
// reference, continuing from the folded value. Needs -mpclmul; the
// dispatcher only selects this table when the CPU has PCLMULQDQ.
std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed) {
  const auto scalar_crc32 = scalar_kernels()->crc32;
  if (n < 64) return scalar_crc32(p, n, seed);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // One fold step over a distance of d bits: the accumulator's low and high
  // halves times k's low and high constants (x^(d+32) and x^(d-32) mod P,
  // bit-reflected), plus the next block.
  const auto fold = [](__m128i acc, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  const std::uint8_t* end = p + (n & ~std::size_t{15});
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                          static_cast<int>(~seed)));
  __m128i x2 = load(p + 16), x3 = load(p + 32), x4 = load(p + 48);
  for (p += 64; end - p >= 64; p += 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; p != end; p += 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then Barrett reduction to the 32-bit remainder.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  const auto folded =
      static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
  return scalar_crc32(p, n & 15, ~folded);
}

}  // namespace adaqp::simd

#else  // non-x86: variant not built

#include "simd/kernels.h"

namespace adaqp::simd {
const KernelTable* avx2_kernels() { return nullptr; }
}  // namespace adaqp::simd

#endif
