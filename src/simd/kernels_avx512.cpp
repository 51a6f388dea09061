// AVX-512 kernels (16-wide float math; vpmovdb narrowing for the packer).
// Compiled with -mavx512f -mavx512bw -mavx512vl -ffp-contract=off; only
// reached after runtime dispatch confirms avx512f+bw. SSE/AVX2 helper ops
// are fine here (the host necessarily supports them). No FMA instructions
// are used, so multiply-add rounding matches the scalar reference exactly.
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
  if (n >= 16) {
    __m512 vlo = _mm512_loadu_ps(x);
    __m512 vhi = vlo;
    for (i = 16; i + 16 <= n; i += 16) {
      const __m512 v = _mm512_loadu_ps(x + i);
      vlo = _mm512_min_ps(vlo, v);
      vhi = _mm512_max_ps(vhi, v);
    }
    l = _mm512_reduce_min_ps(vlo);
    h = _mm512_reduce_max_ps(vhi);
  }
  for (; i < n; ++i) {
    if (x[i] < l) l = x[i];
    if (x[i] > h) h = x[i];
  }
  *lo = l;
  *hi = h;
}

/// Rounding draws of 16 columns from their hash counters
/// h = seed + col * kRoundWeyl: the reference mix32, lane-wise.
inline __m512 uniform16(__m512i h) {
  h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 16));
  h = _mm512_mullo_epi32(h, _mm512_set1_epi32(static_cast<int>(kRoundMul1)));
  h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 15));
  h = _mm512_mullo_epi32(h, _mm512_set1_epi32(static_cast<int>(kRoundMul2)));
  h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 15));
  return _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_srli_epi32(h, 8)),
                       _mm512_set1_ps(0x1.0p-24f));
}

/// Quantize 16 lanes: the scalar per-element op sequence, lane-wise.
/// 0x09 = round toward -inf (floor), suppress precision exceptions.
inline __m512i quant16(__m512 v, __m512 uu, __m512 vzp, __m512 vs,
                       __m512 vlev, __m512 vone, __m512 vzero) {
  const __m512 xs = _mm512_div_ps(_mm512_sub_ps(v, vzp), vs);
  const __m512 fl = _mm512_roundscale_ps(xs, 0x09);
  const __m512 frac = _mm512_sub_ps(xs, fl);
  const __mmask16 up = _mm512_cmp_ps_mask(uu, frac, _CMP_LT_OS);
  __m512 r = _mm512_mask_add_ps(fl, up, fl, vone);
  r = _mm512_min_ps(_mm512_max_ps(r, vzero), vlev);
  return _mm512_cvttps_epi32(r);
}

/// Pack 16 byte-values (each < 2^bits) into ceil(16*bits/8) output bytes
/// using pairwise unsigned-byte multiply-adds (vpmaddubsw).
inline std::size_t pack16(int bits, __m128i bytes16, std::uint8_t* out) {
  switch (bits) {
    case 8:
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out), bytes16);
      return 16;
    case 4: {
      const __m128i m16 =
          _mm_maddubs_epi16(bytes16, _mm_set1_epi16(0x1001));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out),
                       _mm_packus_epi16(m16, m16));
      return 8;
    }
    default: {  // 2
      const __m128i m4 = _mm_maddubs_epi16(bytes16, _mm_set1_epi16(0x0401));
      const __m128i b4 = _mm_packus_epi16(m4, m4);
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
  const __m512 vzp = _mm512_set1_ps(zp);
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vlev = _mm512_set1_ps(levels);
  const __m512 vone = _mm512_set1_ps(1.0f);
  const __m512 vzero = _mm512_setzero_ps();
  const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11, 12, 13, 14, 15);
  const __m512i weyl = _mm512_set1_epi32(static_cast<int>(kRoundWeyl));
  const __m512i step = _mm512_set1_epi32(static_cast<int>(16u * kRoundWeyl));
  __m512i ctr = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(rounding_seed(key, row))),
      _mm512_mullo_epi32(lane, weyl));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i q = quant16(_mm512_loadu_ps(x + i), uniform16(ctr), vzp, vs,
                              vlev, vone, vzero);
    out += pack16(bits, _mm512_cvtepi32_epi8(q), out);
    ctr = _mm512_add_epi32(ctr, step);
  }
  if (i < n) {
    // Tail: the same lanes under a load mask; lanes past n are zeroed
    // before packing so the trailing pad bits stay zero.
    const std::size_t rem = n - i;
    const auto m = static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i q = _mm512_maskz_mov_epi32(
        m, quant16(_mm512_maskz_loadu_ps(m, x + i), uniform16(ctr), vzp, vs,
                   vlev, vone, vzero));
    std::uint8_t tmp[16];
    pack16(bits, _mm512_cvtepi32_epi8(q), tmp);
    std::memcpy(out, tmp, (rem * static_cast<std::size_t>(bits) + 7) / 8);
  }
}

/// Expand one full 16-value chunk of packed data into 16 byte-values.
inline std::size_t expand16(int bits, const std::uint8_t* packed,
                            __m128i* bytes16) {
  switch (bits) {
    case 8:
      *bytes16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(packed));
      return 16;
    case 4: {
      const __m128i v = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(packed));
      const __m128i lo = _mm_and_si128(v, _mm_set1_epi8(0x0F));
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(v, 4),
                                       _mm_set1_epi8(0x0F));
      *bytes16 = _mm_unpacklo_epi8(lo, hi);
      return 8;
    }
    default: {  // 2
      std::uint32_t x;
      std::memcpy(&x, packed, 4);
      const __m512i sh = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
      const __m512i v = _mm512_and_si512(
          _mm512_srlv_epi32(_mm512_set1_epi32(static_cast<int>(x)), sh),
          _mm512_set1_epi32(3));
      *bytes16 = _mm512_cvtepi32_epi8(v);
      return 4;
    }
  }
}

void unpack_dequant(int bits, const std::uint8_t* packed, std::size_t n,
                    float scale, float zp, float* out) {
  const __m512 vs = _mm512_set1_ps(scale);
  const __m512 vzp = _mm512_set1_ps(zp);
  std::size_t i = 0;
  __m128i bytes16;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, &bytes16);
    const __m512 q = _mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes16));
    _mm512_storeu_ps(out + i, _mm512_add_ps(_mm512_mul_ps(q, vs), vzp));
    i += 16;
  }
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
    const __m512i q = _mm512_loadu_si512(values + i);
    out += pack16(bits, _mm512_cvtepi32_epi8(q), out);
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
    _mm512_storeu_si512(out + i, _mm512_cvtepu8_epi32(bytes16));
    i += 16;
  }
  const std::uint32_t mask = (1u << bits) - 1u;
  for (std::size_t t = 0; i + t < n; ++t) {
    const std::size_t bit_pos = t * static_cast<std::size_t>(bits);
    out[i + t] = (packed[bit_pos / 8] >> (bit_pos % 8)) & mask;
  }
}

void axpy(float a, const float* b, float* c, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 p = _mm512_mul_ps(va, _mm512_loadu_ps(b + j));
    _mm512_storeu_ps(c + j, _mm512_add_ps(_mm512_loadu_ps(c + j), p));
  }
  if (j < n) {
    const __mmask16 m =
        static_cast<__mmask16>((1u << (n - j)) - 1u);
    const __m512 vb = _mm512_maskz_loadu_ps(m, b + j);
    const __m512 vc = _mm512_maskz_loadu_ps(m, c + j);
    _mm512_mask_storeu_ps(c + j, m,
                          _mm512_add_ps(vc, _mm512_mul_ps(va, vb)));
  }
}

void scale_row(float a, const float* src, float* dst, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    _mm512_storeu_ps(dst + j, _mm512_mul_ps(va, _mm512_loadu_ps(src + j)));
  if (j < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - j)) - 1u);
    _mm512_mask_storeu_ps(
        dst + j, m, _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, src + j)));
  }
}

void ef_fold(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    _mm512_storeu_ps(
        dst + j, _mm512_add_ps(_mm512_loadu_ps(a + j), _mm512_loadu_ps(b + j)));
  if (j < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - j)) - 1u);
    _mm512_mask_storeu_ps(dst + j, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, a + j),
                                        _mm512_maskz_loadu_ps(m, b + j)));
  }
}

void ef_residual(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    _mm512_storeu_ps(
        dst + j, _mm512_sub_ps(_mm512_loadu_ps(a + j), _mm512_loadu_ps(b + j)));
  if (j < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - j)) - 1u);
    _mm512_mask_storeu_ps(dst + j, m,
                          _mm512_sub_ps(_mm512_maskz_loadu_ps(m, a + j),
                                        _mm512_maskz_loadu_ps(m, b + j)));
  }
}

/// Lane mask of the last vector of an NV-vector tile `width` columns wide.
inline __mmask16 last_mask(std::size_t width) {
  const std::size_t tail = width - 16 * ((width - 1) / 16);
  return static_cast<__mmask16>((1u << tail) - 1u);
}

// Every loop over a tile's vectors or rows is fully unrolled by pragma.
// Left to itself, GCC 12 keeps the store loop below rolled (its branch),
// so it addresses the accumulator array in memory and stores every
// accumulator to the stack on each reduction step.

/// Loads vector v of an NV-vector tile: the first NV-1 are full, the last
/// is masked by `last` (all lanes for a full tile); masked-off lanes read
/// as +0 and are never stored.
template <int NV>
inline __m512 tile_load(const float* p, int v, __mmask16 last) {
  return v + 1 < NV ? _mm512_loadu_ps(p + 16 * v)
                    : _mm512_maskz_loadu_ps(last, p + 16 * v);
}

template <int NV>
inline void tile_store(float* p, int v, __mmask16 last, __m512 x) {
  if (v + 1 < NV)
    _mm512_storeu_ps(p + 16 * v, x);
  else
    _mm512_mask_storeu_ps(p + 16 * v, last, x);
}

/// One register-resident tile of gather_axpy: NV zmm accumulators (up to
/// 64 columns) loaded once, reduced over every k in order, stored once.
template <int NV>
void gather_tile(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, __mmask16 last) {
  __m512 acc[NV];
  #pragma GCC unroll 16
  for (int v = 0; v < NV; ++v) acc[v] = tile_load<NV>(dst, v, last);
  for (std::size_t k = 0; k < count; ++k) {
    const __m512 ck = _mm512_set1_ps(coeffs[k]);
    const float* src = base + (idx ? idx[k] : k) * stride;
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      acc[v] = _mm512_add_ps(acc[v],
                             _mm512_mul_ps(ck, tile_load<NV>(src, v, last)));
  }
  #pragma GCC unroll 16
  for (int v = 0; v < NV; ++v) tile_store<NV>(dst, v, last, acc[v]);
}

void gather_axpy(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, std::size_t n) {
  using Tile = void (*)(const float*, std::size_t, const std::uint32_t*,
                        const float*, std::size_t, float*, __mmask16);
  static constexpr Tile kTiles[] = {gather_tile<1>, gather_tile<2>,
                                    gather_tile<3>, gather_tile<4>};
  for (std::size_t j = 0; j < n; j += 64) {
    const std::size_t w = n - j < 64 ? n - j : 64;
    kTiles[(w - 1) / 16](base + j, stride, idx, coeffs, count, dst + j,
                         last_mask(w));
  }
}

/// One MR x (16*NV) block of outer_block: MR*NV zmm accumulators (16 at
/// MR = NV = 4) held across the whole list.
template <int MR, int NV>
void outer_tile(const float* a, std::size_t lda, const float* b,
                std::size_t ldb, const std::uint32_t* rows, std::size_t count,
                float* c, std::size_t ldc, __mmask16 last) {
  __m512 acc[MR][NV];
  #pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v)
      acc[r][v] = tile_load<NV>(c + r * ldc, v, last);
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t s = rows ? rows[p] : p;
    const float* arow = a + s * lda;
    const float* brow = b + s * ldb;
    __m512 bv[NV];
    #pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) bv[v] = tile_load<NV>(brow, v, last);
    #pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const __m512 ar = _mm512_set1_ps(arow[r]);
      #pragma GCC unroll 16
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(ar, bv[v]));
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
                        std::size_t, __mmask16);
  static constexpr Tile kTiles[4][4] = {
      {outer_tile<1, 1>, outer_tile<1, 2>, outer_tile<1, 3>, outer_tile<1, 4>},
      {outer_tile<2, 1>, outer_tile<2, 2>, outer_tile<2, 3>, outer_tile<2, 4>},
      {outer_tile<3, 1>, outer_tile<3, 2>, outer_tile<3, 3>, outer_tile<3, 4>},
      {outer_tile<4, 1>, outer_tile<4, 2>, outer_tile<4, 3>, outer_tile<4, 4>}};
  for (std::size_t j = 0; j < n; j += 64) {
    const std::size_t w = n - j < 64 ? n - j : 64;
    kTiles[mr - 1][(w - 1) / 16](a, lda, b + j, ldb, rows, count, c + j, ldc,
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

const KernelTable* avx512_kernels() { return &kTable; }

}  // namespace adaqp::simd

#else  // non-x86: variant not built

#include "simd/kernels.h"

namespace adaqp::simd {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace adaqp::simd

#endif
