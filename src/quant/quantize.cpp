#include "quant/quantize.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "simd/kernels.h"

// All hot loops (min/max scan, stochastic-round quantize + pack, unpack +
// dequantize, raw bit packing) dispatch through the src/simd/ kernel
// registry; the scalar table entry is the reference implementation and the
// vector variants are byte-identical by contract (see simd/kernels.h).
// The rounding draws are counter-based and computed inside quantize_pack,
// so an encode consumes no RNG stream beyond its key on any ISA.
namespace adaqp {

bool is_valid_bit_width(int bits) {
  return bits == 2 || bits == 4 || bits == 8 || bits == 32;
}

std::size_t quantized_wire_bytes(std::size_t dim, int bits) {
  ADAQP_CHECK(is_valid_bit_width(bits));
  if (bits == 32) return dim * sizeof(float) + 2 * sizeof(float);
  return (dim * static_cast<std::size_t>(bits) + 7) / 8 + 2 * sizeof(float);
}

std::vector<std::uint8_t> pack_bits(std::span<const std::uint32_t> values,
                                    int bits) {
  ADAQP_CHECK(bits == 2 || bits == 4 || bits == 8);
  const std::uint32_t mask = (1u << bits) - 1u;
  for (std::size_t i = 0; i < values.size(); ++i)
    ADAQP_CHECK_MSG(values[i] <= mask,
                    "value " << values[i] << " exceeds " << bits << "-bit range");
  std::vector<std::uint8_t> out((values.size() * bits + 7) / 8);
  if (!values.empty())
    simd::kernels().pack_bits(bits, values.data(), values.size(), out.data());
  return out;
}

std::vector<std::uint32_t> unpack_bits(std::span<const std::uint8_t> packed,
                                       int bits, std::size_t count) {
  ADAQP_CHECK(bits == 2 || bits == 4 || bits == 8);
  ADAQP_CHECK_MSG(packed.size() >= (count * bits + 7) / 8,
                  "packed stream too short: " << packed.size() << " bytes for "
                                              << count << " x " << bits << "b");
  std::vector<std::uint32_t> out(count);
  if (count > 0)
    simd::kernels().unpack_bits(bits, packed.data(), count, out.data());
  return out;
}

QuantizedVector quantize(std::span<const float> values, int bits, Rng& rng) {
  QuantizedVector qv;
  qv.bits = bits;
  qv.dim = static_cast<std::uint32_t>(values.size());
  const QuantMeta meta =
      quantize_append(values, bits, rng.next(), /*row=*/0, qv.payload);
  qv.zero_point = meta.zero_point;
  qv.scale = meta.scale;
  return qv;
}

QuantMeta quantize_append(std::span<const float> values, int bits,
                          std::uint64_t key, std::uint32_t row,
                          std::vector<std::uint8_t>& out) {
  ADAQP_CHECK(is_valid_bit_width(bits));
  const std::size_t at = out.size();
  if (bits == 32) {
    out.resize(at + values.size() * sizeof(float));
    std::memcpy(out.data() + at, values.data(), values.size() * sizeof(float));
    return {};
  }
  out.resize(at + (values.size() * static_cast<std::size_t>(bits) + 7) / 8,
             0);
  const auto& kernel = simd::kernels();
  float lo = 0.0f, hi = 0.0f;
  if (!values.empty())
    kernel.row_minmax(values.data(), values.size(), &lo, &hi);
  // Normalize the sign of zero: which of -0.0f/+0.0f a min/max reduction
  // returns depends on lane order, and the zero point goes on the wire.
  // x + 0.0f maps -0.0f to +0.0f and leaves every other value unchanged.
  lo += 0.0f;
  hi += 0.0f;
  QuantMeta meta;
  meta.zero_point = lo;
  const auto levels = static_cast<float>((1u << bits) - 1u);
  meta.scale = (hi - lo) / levels;
  if (meta.scale > 0.0f)
    kernel.quantize_pack(bits, values.data(), values.size(), meta.zero_point,
                         meta.scale, key, row, out.data() + at);
  return meta;
}

void dequantize_payload(const std::uint8_t* payload, int bits,
                        std::size_t dim, float zero_point, float scale,
                        std::span<float> out) {
  ADAQP_CHECK_MSG(out.size() == dim,
                  "dequantize into " << out.size() << " floats, dim=" << dim);
  if (bits == 32) {
    std::memcpy(out.data(), payload, dim * sizeof(float));
    return;
  }
  if (dim > 0)
    simd::kernels().unpack_dequant(bits, payload, dim, scale, zero_point,
                                   out.data());
}

void dequantize(const QuantizedVector& qv, std::span<float> out) {
  ADAQP_CHECK_MSG(out.size() == qv.dim,
                  "dequantize into " << out.size() << " floats, dim=" << qv.dim);
  if (qv.bits == 32) {
    ADAQP_CHECK_MSG(qv.payload.size() == qv.dim * sizeof(float),
                    "corrupt float payload: " << qv.payload.size() << " bytes");
  } else {
    ADAQP_CHECK_MSG(qv.payload.size() >=
                        (qv.dim * static_cast<std::size_t>(qv.bits) + 7) / 8,
                    "packed stream too short: " << qv.payload.size()
                                                << " bytes for " << qv.dim
                                                << " x " << qv.bits << "b");
  }
  dequantize_payload(qv.payload.data(), qv.bits, qv.dim, qv.zero_point,
                     qv.scale, out);
}

double variance_bound(const QuantizedVector& qv) {
  if (qv.bits == 32) return 0.0;
  const double s = qv.scale;
  return static_cast<double>(qv.dim) * s * s / 6.0;
}

}  // namespace adaqp
