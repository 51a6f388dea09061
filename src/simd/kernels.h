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
//  - Every product kernel (axpy, gather_axpy, outer_block) keeps each
//    output element's own accumulation chain: element (r, j) adds its
//    unfused a·b products one at a time, in the order the caller lists
//    them (ascending k, or span order), onto its prior value. Vector lanes
//    run across the output columns j, never across the reduction, so a
//    lane boundary, a register tile or a masked tail cannot reorder a
//    chain.
//  - Row-tile rule (gather_axpy): a tile of up to 64 output columns is
//    loaded once, held in registers for the whole reduction and stored
//    once; a wider row takes further tiles, each reducing in the same
//    order. Holding the tile changes where partial sums live, not the
//    sequence of roundings.
//  - Outer-product rule (outer_block): an MR-row block of C (64 columns on
//    AVX-512, 16 on AVX2) is held in registers while the shared-dim list is
//    walked once in order; each element still sees one add per list entry,
//    in list order.
//  Hence the GEMMs and the aggregation built on these slots are
//  bit-identical across ISAs and thread counts.
//  - crc32 is integer polynomial arithmetic over GF(2): every ISA returns
//    the standard CRC-32 value, so wire frames and their checksums do not
//    depend on which table computed them.
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

/// Row count of one outer_block call: the MR of the weight-gradient tile.
inline constexpr std::size_t kOuterBlockRows = 4;

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

  /// Row update: c[j] += a * b[j] for j in [0, n), each element an
  /// independent unfused multiply-add (Matrix::axpy_inplace).
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

  /// Register-resident row reduction — the aggregation gather, its
  /// adjoint's gather over the transposed plan and, with
  /// idx == nullptr, one GEMM row: for each k ascending in [0, count),
  /// dst[j] += coeffs[k] * base[row(k) * stride + j] for j in [0, n), where
  /// row(k) = idx[k], or k when idx is nullptr. Each dst tile of up to 64
  /// columns is loaded once, reduced over all of k in registers and stored
  /// once (the row-tile rule above); the k loop stays strictly serial per
  /// element, so every ISA computes the same unfused multiply-add chain.
  /// dst must not alias any gathered row.
  void (*gather_axpy)(const float* base, std::size_t stride,
                      const std::uint32_t* idx, const float* coeffs,
                      std::size_t count, float* dst, std::size_t n);

  /// Weight-gradient outer-product block: for each p in list order,
  /// c[r * ldc + j] += a[row(p) * lda + r] * b[row(p) * ldb + j] for r in
  /// [0, mr) and j in [0, n), where row(p) = rows[p], or p when rows is
  /// nullptr, and 1 <= mr <= kOuterBlockRows. Each column block of c is
  /// held in registers across the whole list (the outer-product rule
  /// above), so element (r, j) sums its products in list order on every
  /// ISA. c must not alias a or b.
  void (*outer_block)(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, const std::uint32_t* rows,
                      std::size_t count, float* c, std::size_t ldc,
                      std::size_t mr, std::size_t n);

  /// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of p[0..n),
  /// continuing from `seed`, the finished CRC of the bytes before p (0 for
  /// none): crc32(b, crc32(a)) == crc32(a followed by b). The value is a
  /// function of the bytes alone, so every ISA returns the same 32 bits:
  /// the scalar reference folds slice-by-8 tables; the x86 vector tables
  /// fold 64- then 16-byte blocks by carry-less multiply (PCLMULQDQ,
  /// exact GF(2) arithmetic), Barrett-reduce to 32 bits and finish the
  /// sub-16-byte tail through the scalar reference. Any alignment.
  std::uint32_t (*crc32)(const std::uint8_t* p, std::size_t n,
                         std::uint32_t seed);
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

/// The PCLMULQDQ CRC-32 body, defined in the AVX2 TU and shared by the
/// AVX-512 table (x86 builds only).
std::uint32_t crc32_pclmul(const std::uint8_t* p, std::size_t n,
                           std::uint32_t seed);

}  // namespace adaqp::simd
