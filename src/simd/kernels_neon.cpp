// NEON kernels (aarch64; 4-wide float math with byte-staged packing).
// NEON is baseline on aarch64, so no -m flags and no runtime feature check
// are needed; -ffp-contract=off still matters and no vmla/vfma intrinsics
// are used (the fused forms), so multiply-add rounding matches the scalar
// reference exactly. The codec vectorizes quantize/widen through a 16-byte
// staging chunk and combines/expands bits scalar on the staging bytes
// (exact integer ops — byte-identity is unaffected).
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels.h"

namespace adaqp::simd {
namespace {

void row_minmax(const float* x, std::size_t n, float* lo, float* hi) {
  std::size_t i = 0;
  float l = x[0], h = x[0];
  if (n >= 4) {
    float32x4_t vlo = vld1q_f32(x);
    float32x4_t vhi = vlo;
    for (i = 4; i + 4 <= n; i += 4) {
      const float32x4_t v = vld1q_f32(x + i);
      vlo = vminq_f32(vlo, v);
      vhi = vmaxq_f32(vhi, v);
    }
    l = vminvq_f32(vlo);
    h = vmaxvq_f32(vhi);
  }
  for (; i < n; ++i) {
    if (x[i] < l) l = x[i];
    if (x[i] > h) h = x[i];
  }
  *lo = l;
  *hi = h;
}

/// Quantize 4 lanes: the scalar per-element op sequence, lane-wise.
/// vrndmq_f32 rounds toward -inf (floor); vcvtq_u32_f32 truncates toward
/// zero on the non-negative clamped value, matching static_cast<uint32_t>.
inline uint32x4_t quant4(float32x4_t v, float32x4_t uu, float32x4_t vzp,
                         float32x4_t vs, float32x4_t vlev, float32x4_t vone,
                         float32x4_t vzero) {
  const float32x4_t xs = vdivq_f32(vsubq_f32(v, vzp), vs);
  const float32x4_t fl = vrndmq_f32(xs);
  const float32x4_t frac = vsubq_f32(xs, fl);
  const uint32x4_t up = vcltq_f32(uu, frac);
  float32x4_t r = vaddq_f32(fl, vbslq_f32(up, vone, vzero));
  r = vminq_f32(vmaxq_f32(r, vzero), vlev);
  return vcvtq_u32_f32(r);
}

/// Scalar tail of the same sequence (identical IEEE ops, so bit-identical).
inline std::uint32_t quant1(float x, float uu, float zp, float scale,
                            float levels) {
  const float xs = (x - zp) / scale;
  const float fl = __builtin_floorf(xs);
  const float frac = xs - fl;
  float r = fl + (uu < frac ? 1.0f : 0.0f);
  if (r < 0.0f) r = 0.0f;
  if (r > levels) r = levels;
  return static_cast<std::uint32_t>(r);
}

/// Narrow four 4-lane u32 vectors (values <= 255) into 16 bytes in order.
inline uint8x16_t narrow16(uint32x4_t q0, uint32x4_t q1, uint32x4_t q2,
                           uint32x4_t q3) {
  const uint16x8_t lo = vcombine_u16(vmovn_u32(q0), vmovn_u32(q1));
  const uint16x8_t hi = vcombine_u16(vmovn_u32(q2), vmovn_u32(q3));
  return vcombine_u8(vmovn_u16(lo), vmovn_u16(hi));
}

/// Combine a 16-byte staging chunk (one quantized value per byte, already
/// < 2^bits) into packed little-endian-within-byte output. `count` values
/// are valid; the rest of the staging bytes must be zero.
inline std::size_t combine16(int bits, const std::uint8_t* s,
                             std::size_t count, std::uint8_t* out) {
  if (count > 16) __builtin_unreachable();  // s is a 16-byte staging chunk
  switch (bits) {
    case 8:
      std::memcpy(out, s, count);
      return count;
    case 4: {
      const std::size_t nbytes = (count + 1) / 2;
      for (std::size_t j = 0; j < nbytes; ++j)
        out[j] = static_cast<std::uint8_t>(s[2 * j] | (s[2 * j + 1] << 4));
      return nbytes;
    }
    default: {  // 2
      const std::size_t nbytes = (count + 3) / 4;
      for (std::size_t j = 0; j < nbytes; ++j)
        out[j] = static_cast<std::uint8_t>(s[4 * j] | (s[4 * j + 1] << 2) |
                                           (s[4 * j + 2] << 4) |
                                           (s[4 * j + 3] << 6));
      return nbytes;
    }
  }
}

/// Expand one 16-byte packed chunk into one byte per value in s[0..15].
/// `count` values are valid (count <= 16); reads ceil(count*bits/8) bytes.
inline std::size_t expand16(int bits, const std::uint8_t* packed,
                            std::size_t count, std::uint8_t* s) {
  if (count > 16) __builtin_unreachable();  // s is a 16-byte staging chunk
  switch (bits) {
    case 8:
      std::memcpy(s, packed, count);
      return count;
    case 4: {
      const std::size_t nbytes = (count + 1) / 2;
      for (std::size_t j = 0; j < nbytes; ++j) {
        s[2 * j] = packed[j] & 0x0F;
        s[2 * j + 1] = packed[j] >> 4;
      }
      return nbytes;
    }
    default: {  // 2
      const std::size_t nbytes = (count + 3) / 4;
      for (std::size_t j = 0; j < nbytes; ++j) {
        s[4 * j] = packed[j] & 3;
        s[4 * j + 1] = (packed[j] >> 2) & 3;
        s[4 * j + 2] = (packed[j] >> 4) & 3;
        s[4 * j + 3] = (packed[j] >> 6) & 3;
      }
      return nbytes;
    }
  }
}

void quantize_pack(int bits, const float* x, std::size_t n, float zp,
                   float scale, const float* u, std::uint8_t* out) {
  const auto levels = static_cast<float>((1u << bits) - 1u);
  const float32x4_t vzp = vdupq_n_f32(zp);
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vlev = vdupq_n_f32(levels);
  const float32x4_t vone = vdupq_n_f32(1.0f);
  const float32x4_t vzero = vdupq_n_f32(0.0f);
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    const uint32x4_t q0 = quant4(vld1q_f32(x + i), vld1q_f32(u + i), vzp, vs,
                                 vlev, vone, vzero);
    const uint32x4_t q1 = quant4(vld1q_f32(x + i + 4), vld1q_f32(u + i + 4),
                                 vzp, vs, vlev, vone, vzero);
    const uint32x4_t q2 = quant4(vld1q_f32(x + i + 8), vld1q_f32(u + i + 8),
                                 vzp, vs, vlev, vone, vzero);
    const uint32x4_t q3 = quant4(vld1q_f32(x + i + 12), vld1q_f32(u + i + 12),
                                 vzp, vs, vlev, vone, vzero);
    vst1q_u8(s, narrow16(q0, q1, q2, q3));
    out += combine16(bits, s, 16, out);
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    std::memset(s, 0, sizeof(s));
    for (std::size_t t = 0; t < rem; ++t)
      s[t] = static_cast<std::uint8_t>(
          quant1(x[i + t], u[i + t], zp, scale, levels));
    combine16(bits, s, rem, out);
  }
}

void unpack_dequant(int bits, const std::uint8_t* packed, std::size_t n,
                    float scale, float zp, float* out) {
  const float32x4_t vs = vdupq_n_f32(scale);
  const float32x4_t vzp = vdupq_n_f32(zp);
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, 16, s);
    const uint8x16_t bytes = vld1q_u8(s);
    const uint16x8_t lo = vmovl_u8(vget_low_u8(bytes));
    const uint16x8_t hi = vmovl_u8(vget_high_u8(bytes));
    const float32x4_t f0 = vcvtq_f32_u32(vmovl_u16(vget_low_u16(lo)));
    const float32x4_t f1 = vcvtq_f32_u32(vmovl_u16(vget_high_u16(lo)));
    const float32x4_t f2 = vcvtq_f32_u32(vmovl_u16(vget_low_u16(hi)));
    const float32x4_t f3 = vcvtq_f32_u32(vmovl_u16(vget_high_u16(hi)));
    // Explicit mul then add (not vmla) to match the unfused scalar path.
    vst1q_f32(out + i, vaddq_f32(vmulq_f32(f0, vs), vzp));
    vst1q_f32(out + i + 4, vaddq_f32(vmulq_f32(f1, vs), vzp));
    vst1q_f32(out + i + 8, vaddq_f32(vmulq_f32(f2, vs), vzp));
    vst1q_f32(out + i + 12, vaddq_f32(vmulq_f32(f3, vs), vzp));
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    expand16(bits, packed, rem, s);
    for (std::size_t t = 0; t < rem; ++t)
      out[i + t] = static_cast<float>(s[t]) * scale + zp;
  }
}

void pack_bits_k(int bits, const std::uint32_t* values, std::size_t n,
                 std::uint8_t* out) {
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    vst1q_u8(s, narrow16(vld1q_u32(values + i), vld1q_u32(values + i + 4),
                         vld1q_u32(values + i + 8),
                         vld1q_u32(values + i + 12)));
    out += combine16(bits, s, 16, out);
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    std::memset(s, 0, sizeof(s));
    for (std::size_t t = 0; t < rem; ++t)
      s[t] = static_cast<std::uint8_t>(values[i + t]);
    combine16(bits, s, rem, out);
  }
}

void unpack_bits_k(int bits, const std::uint8_t* packed, std::size_t n,
                   std::uint32_t* out) {
  std::uint8_t s[16];
  std::size_t i = 0;
  while (i + 16 <= n) {
    packed += expand16(bits, packed, 16, s);
    const uint8x16_t bytes = vld1q_u8(s);
    const uint16x8_t lo = vmovl_u8(vget_low_u8(bytes));
    const uint16x8_t hi = vmovl_u8(vget_high_u8(bytes));
    vst1q_u32(out + i, vmovl_u16(vget_low_u16(lo)));
    vst1q_u32(out + i + 4, vmovl_u16(vget_high_u16(lo)));
    vst1q_u32(out + i + 8, vmovl_u16(vget_low_u16(hi)));
    vst1q_u32(out + i + 12, vmovl_u16(vget_high_u16(hi)));
    i += 16;
  }
  if (i < n) {
    const std::size_t rem = n - i;
    expand16(bits, packed, rem, s);
    for (std::size_t t = 0; t < rem; ++t) out[i + t] = s[t];
  }
}

void axpy(float a, const float* b, float* c, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // Explicit mul then add (not vfmaq) to match the unfused scalar path.
    const float32x4_t p = vmulq_f32(va, vld1q_f32(b + j));
    vst1q_f32(c + j, vaddq_f32(vld1q_f32(c + j), p));
  }
  for (; j < n; ++j) c[j] += a * b[j];
}

void scale_row(float a, const float* src, float* dst, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    vst1q_f32(dst + j, vmulq_f32(va, vld1q_f32(src + j)));
  for (; j < n; ++j) dst[j] = a * src[j];
}

void ef_fold(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    vst1q_f32(dst + j, vaddq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  for (; j < n; ++j) dst[j] = a[j] + b[j];
}

void ef_residual(const float* a, const float* b, float* dst, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    vst1q_f32(dst + j, vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  for (; j < n; ++j) dst[j] = a[j] - b[j];
}

void gather_axpy(const float* base, std::size_t stride,
                 const std::uint32_t* idx, const float* coeffs,
                 std::size_t count, float* dst, std::size_t n) {
  // k stays a serial outer loop (the determinism contract); only the
  // feature channels j are vectorized, unfused mul-then-add per element.
  for (std::size_t k = 0; k < count; ++k) {
    const float ck = coeffs[k];
    const float* src = base + static_cast<std::size_t>(idx[k]) * stride;
    const float32x4_t vc = vdupq_n_f32(ck);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float32x4_t p = vmulq_f32(vc, vld1q_f32(src + j));
      vst1q_f32(dst + j, vaddq_f32(vld1q_f32(dst + j), p));
    }
    for (; j < n; ++j) dst[j] += ck * src[j];
  }
}

const KernelTable kTable = {
    row_minmax, quantize_pack, unpack_dequant,
    pack_bits_k, unpack_bits_k, axpy,
    scale_row,  ef_fold,       ef_residual,
    gather_axpy,
};

}  // namespace

const KernelTable* neon_kernels() { return &kTable; }

}  // namespace adaqp::simd

#else  // non-aarch64: variant not built

#include "simd/kernels.h"

namespace adaqp::simd {
const KernelTable* neon_kernels() { return nullptr; }
}  // namespace adaqp::simd

#endif
