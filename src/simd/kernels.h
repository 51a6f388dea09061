// Kernel table for the runtime-dispatched vector library.
//
// Each entry is a C-style function pointer so per-ISA translation units
// (kernels_scalar.cpp, kernels_avx2.cpp, ...) stay free of shared inline
// code: a TU compiled with -mavx2 must never contribute an inline symbol
// that a non-AVX host could end up executing, so this header is pure
// declarations. kernels() returns the table for active_isa(); every table
// sets every entry.
//
// Determinism contract (what makes ADAQP_ISA a pure performance knob):
//  - quantize_pack / unpack_dequant / pack_bits / unpack_bits produce
//    byte-identical outputs across ISAs. Quantization arithmetic is the
//    exact IEEE single-precision sequence of the scalar reference —
//    subtract, divide, floor, compare, add, clamp — which every vector ISA
//    reproduces lane-wise; the stochastic-rounding draws are 32-bit integer
//    hashes of (key, row, column), converted to float exactly; integer
//    packing is exact by nature. FMA
//    contraction is disabled in every kernel TU (no fused multiply-add
//    anywhere), so mul-then-add rounding matches the scalar path.
//  - axpy keeps per-element accumulation order: element j of the output
//    depends only on (a, b[j], c[j]), so the GEMM loops that call it per
//    k-step preserve their k-ascending per-element accumulation and stay
//    bit-identical across ISAs and thread counts.
// Inputs are assumed finite; NaN propagation is unspecified (the scalar
// path would throw from pack-range checks, vector paths clamp).
//
// Adding a kernel:
//   1. Add a function-pointer slot to KernelTable below and state its
//      determinism contract next to it — what must be bit-identical across
//      ISAs, and why it is (accumulation order, unfused mul-add, exact
//      integer packing, ...).
//   2. Implement it in kernels_scalar.cpp — the reference, required; this
//      is the behavior every other ISA must reproduce bit for bit.
//   3. Implement it in kernels_avx2.cpp and kernels_avx512.cpp (a vector
//      body over the scalar tail is enough); no table leaves a slot null.
//   4. Extend tests/test_simd.cpp's cross-ISA sweep with the new kernel
//      (byte- or bit-identity against scalar on every supported ISA).
// Kernel TUs must stay free of shared inline code (the ODR note above),
// and each TU keeps -ffp-contract=off (see CMakeLists.txt).
#pragma once

#include <cstddef>
#include <cstdint>

namespace adaqp::simd {

// ---- Counter-based stochastic-rounding draws --------------------------------
//
// The uniform that rounds element `col` of block row `row` under a block
// `key` is a pure function of the three, so it can be computed in SIMD
// lanes, in any order, and reads the same on every ISA:
//   seed = rounding_seed(key, row)                        (once per row)
//   h    = mix32(seed + col * kRoundWeyl)
//   u    = (h >> 8) * 2^-24                               (exact in float)
// mix32 is a 32-bit multiply-xorshift finalizer:
//   h ^= h >> 16; h *= kRoundMul1; h ^= h >> 15; h *= kRoundMul2; h ^= h >> 15
// It is a bijection, as are the Weyl step and the seed's mixing of `row`,
// so within one key no two elements of a row, and no two rows, share a
// counter. Only 32-bit integer mul/xor/shift (modulo 2^32) is involved;
// every quantize_pack reproduces h lane-wise from these constants.
inline constexpr std::uint32_t kRoundWeyl = 0x9E3779B9u;
inline constexpr std::uint32_t kRoundMul1 = 0x21F0AAADu;
inline constexpr std::uint32_t kRoundMul2 = 0x735A2D97u;

/// Per-row seed of the rounding draws: mixes all 64 key bits and the row.
/// Defined in the scalar reference TU; vector kernels call it once per row.
std::uint32_t rounding_seed(std::uint64_t key, std::uint32_t row);

/// The reference draw u in [0, 1) for column `col` of a row with `seed`.
float rounding_uniform(std::uint32_t seed, std::uint32_t col);

struct KernelTable {
  /// Fused min/max scan of x[0..n). Requires n > 0; writes the row minimum
  /// to *lo and maximum to *hi (callers normalize the sign of zero so the
  /// reduction order never leaks into wire metadata).
  void (*row_minmax)(const float* x, std::size_t n, float* lo, float* hi);

  /// Stochastic-round quantize (paper Eqn. 4) fused with bit-packing.
  /// bits in {2,4,8}; scale must be > 0. Element i rounds up iff
  /// rounding_uniform(rounding_seed(key, row), i) < its fractional part;
  /// the draws are computed in-kernel and never stored. Writes
  /// ceil(n*bits/8) bytes to `out`, every byte fully overwritten (trailing
  /// pad bits zero).
  void (*quantize_pack)(int bits, const float* x, std::size_t n, float zp,
                        float scale, std::uint64_t key, std::uint32_t row,
                        std::uint8_t* out);

  /// Unpack + dequantize (paper Eqn. 5): out[i] = q[i] * scale + zp,
  /// computed as an unfused multiply then add. bits in {2,4,8}; reads
  /// ceil(n*bits/8) bytes from `packed`.
  void (*unpack_dequant)(int bits, const std::uint8_t* packed, std::size_t n,
                         float scale, float zp, float* out);

  /// Pack n values (each already < 2^bits) at 2/4/8 bits per entry,
  /// little-endian within each byte. Writes ceil(n*bits/8) bytes, trailing
  /// pad bits zero. Range validation is the caller's job.
  void (*pack_bits)(int bits, const std::uint32_t* values, std::size_t n,
                    std::uint8_t* out);

  /// Unpack n entries of `bits` width from `packed` into out[0..n).
  void (*unpack_bits)(int bits, const std::uint8_t* packed, std::size_t n,
                      std::uint32_t* out);

  /// GEMM row-band microkernel: c[j] += a * b[j] for j in [0, n), each
  /// element an independent unfused multiply-add.
  void (*axpy)(float a, const float* b, float* c, std::size_t n);

  /// Aggregation self-term: dst[j] = a * src[j] for j in [0, n) — a pure
  /// overwrite, one multiply per element, so lanes are independent and the
  /// result is bit-identical across ISAs by IEEE multiplication alone.
  /// dst and src must not overlap (the aggregation output buffer is
  /// disjoint from the layer input).
  void (*scale_row)(float a, const float* src, float* dst, std::size_t n);

  /// Element-wise fold: dst[j] = a[j] + b[j] — one IEEE addition per
  /// element, no accumulation, so bit-identity across ISAs is trivial.
  /// dst may alias a (the backward owner-accumulate folds in place) but
  /// not partially overlap it.
  void (*ef_fold)(const float* a, const float* b, float* dst, std::size_t n);

  /// Element-wise residual: dst[j] = a[j] - b[j] — one IEEE subtraction
  /// per element (x - deq(q(x)) for quantization-error capture); same
  /// aliasing rule as ef_fold.
  void (*ef_residual)(const float* a, const float* b, float* dst,
                      std::size_t n);

  /// Aggregation gather band: for each k ascending in [0, count),
  /// dst[j] += coeffs[k] * base[idx[k] * stride + j] for j in [0, n).
  /// The k loop is strictly serial per element (vectorization is across j,
  /// the feature channels), so every dst element sees the identical
  /// k-ascending unfused multiply-add chain on every ISA and thread count —
  /// the same argument that keeps gemm's k-loop bit-identical. dst must not
  /// alias any gathered row.
  void (*gather_axpy)(const float* base, std::size_t stride,
                      const std::uint32_t* idx, const float* coeffs,
                      std::size_t count, float* dst, std::size_t n);
};

/// Table for active_isa(), resolved once and cached; set_isa_override()
/// invalidates the cache. Thread-safe; throws on malformed ADAQP_ISA.
const KernelTable& kernels();

// Per-ISA table factories, defined one per translation unit. Every entry of
// a returned table is set. The x86 factories return nullptr when the
// library was not built for x86; active_isa() never selects them then.
const KernelTable* scalar_kernels();  // never null
const KernelTable* avx2_kernels();
const KernelTable* avx512_kernels();

}  // namespace adaqp::simd
