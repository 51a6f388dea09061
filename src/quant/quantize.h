// Stochastic integer quantization of message vectors (paper Eqn. 4 and 5).
//
// For a message vector h with bit-width b:
//   zero-point Z = min(h),  scale S = (max(h) - min(h)) / (2^b - 1),
//   q = round_stochastic((h - Z) / S),   dequant: ĥ = q·S + Z.
// Stochastic rounding makes ĥ an unbiased estimator of h with variance
// D·S²/6 (Theorem 1); the property tests validate both facts empirically.
//
// bits == 32 means "no quantization": the float payload passes through
// unchanged, letting every trainer share one communication code path while
// Vanilla remains bit-exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace adaqp::simd {
struct KernelTable;
}  // namespace adaqp::simd

namespace adaqp {

/// Candidate bit-widths from the paper's set B = {2, 4, 8}; 32 = passthrough.
bool is_valid_bit_width(int bits);

/// Quantized form of one message vector.
struct QuantizedVector {
  int bits = 8;
  float zero_point = 0.0f;
  float scale = 0.0f;
  std::uint32_t dim = 0;
  /// Packed integer payload (or raw floats when bits == 32).
  std::vector<std::uint8_t> payload;

  /// Wire size in bytes: metadata (zp + scale) + payload.
  std::size_t wire_bytes() const { return payload.size() + 2 * sizeof(float); }
};

/// Wire size in bytes of a D-dimensional vector quantized at `bits`,
/// without materializing it. Used by the cost model and the bit-width
/// assigner's time objective.
std::size_t quantized_wire_bytes(std::size_t dim, int bits);

/// Quantize `values` with stochastic rounding (Eqn. 4). Takes one next()
/// from `rng` as the rounding key and quantizes as row 0 under it.
QuantizedVector quantize(std::span<const float> values, int bits, Rng& rng);

/// (zero-point, scale) metadata of one quantized vector.
struct QuantMeta {
  float zero_point = 0.0f;
  float scale = 0.0f;
};

/// Quantize `values` and append the packed payload to `out` in place — the
/// allocation-free form the wire codec uses to build blocks without a
/// QuantizedVector temporary (no heap allocation once `out`'s capacity has
/// warmed up). Returns the (zero-point, scale) metadata. Element j rounds
/// with the counter-based draw of (key, row, j) computed inside the kernel
/// (simd/kernels.h), so the bytes depend only on the values, the width, the
/// key and the row — not on the ISA, nor on what was quantized before.
QuantMeta quantize_append(std::span<const float> values, int bits,
                          std::uint64_t key, std::uint32_t row,
                          std::vector<std::uint8_t>& out);

/// Raw-pointer form of quantize_append for callers that size their buffer
/// once: writes the payload — quantized_wire_bytes(values.size(), bits)
/// minus the 8 metadata bytes — to `out`, every byte, through the kernel
/// table `kt` (looked up once by the caller). Same bytes and metadata as
/// quantize_append.
QuantMeta quantize_into(const simd::KernelTable& kt,
                        std::span<const float> values, int bits,
                        std::uint64_t key, std::uint32_t row,
                        std::uint8_t* out);

/// Dequantize `dim` values packed at `bits` directly from a wire payload
/// (Eqn. 5) through the kernel table `kt` (looked up once by the caller) —
/// the in-place form decode_rows uses. `payload` must hold the exact
/// payload size; validation is the caller's job.
void dequantize_payload(const simd::KernelTable& kt,
                        const std::uint8_t* payload, int bits,
                        std::size_t dim, float zero_point, float scale,
                        std::span<float> out);

/// De-quantize into `out` (Eqn. 5). out.size() must equal qv.dim.
void dequantize(const QuantizedVector& qv, std::span<float> out);

/// Theoretical variance bound of the dequantized estimate: D·S²/6.
double variance_bound(const QuantizedVector& qv);

// ---- Bit packing ------------------------------------------------------------

/// Pack `values` (each < 2^bits) at 2/4/8 bits per entry into bytes,
/// little-endian within each byte.
std::vector<std::uint8_t> pack_bits(std::span<const std::uint32_t> values,
                                    int bits);

/// Unpack `count` entries of `bits` width from `packed`.
std::vector<std::uint32_t> unpack_bits(std::span<const std::uint8_t> packed,
                                       int bits, std::size_t count);

}  // namespace adaqp
