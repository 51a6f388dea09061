// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "quant/message_codec.h"

#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "quant/quantize.h"

namespace adaqp {

namespace {

constexpr std::uint32_t kMagic = 0xADA9B10Cu;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);  // lint:allow(hot-path-alloc) pooled buffer, capacity retained
  std::memcpy(out.data() + at, &v, 4);
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  ADAQP_CHECK_MSG(pos + 4 <= bytes.size(), "codec: truncated u32 at " << pos);
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + pos, 4);
  pos += 4;
  return v;
}

float get_f32(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  ADAQP_CHECK_MSG(pos + 4 <= bytes.size(), "codec: truncated f32 at " << pos);
  float v;
  std::memcpy(&v, bytes.data() + pos, 4);
  pos += 4;
  return v;
}

}  // namespace

EncodedBlock encode_rows(const Matrix& src, std::span<const NodeId> rows,
                         std::span<const int> bits, Rng& rng) {
  EncodedBlock block;
  encode_rows_into(src, rows, bits, rng, block);
  return block;
}

void encode_rows_into(const Matrix& src, std::span<const NodeId> rows,
                      std::span<const int> bits, Rng& rng, EncodedBlock& out) {
  ADAQP_CHECK_MSG(rows.size() == bits.size(),
                  "rows/bits arity mismatch: " << rows.size() << " vs "
                                               << bits.size());
  const obs::Stopwatch sw;  // per-block, not per-row: two clock reads total
  const std::uint64_t key = rng.next();
  out.bytes.clear();  // keeps capacity — steady-state encodes don't allocate
  out.bytes.reserve(encoded_wire_bytes(rows.size(), src.cols(), bits));  // lint:allow(hot-path-alloc) warmup sizing; no-op when warm
  put_u32(out.bytes, kMagic);
  put_u32(out.bytes, static_cast<std::uint32_t>(rows.size()));
  put_u32(out.bytes, static_cast<std::uint32_t>(src.cols()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ADAQP_CHECK_MSG(rows[i] < src.rows(),
                    "row " << rows[i] << " out of range " << src.rows());
    out.bytes.push_back(static_cast<std::uint8_t>(bits[i]));  // lint:allow(hot-path-alloc) pooled buffer, capacity retained
    // Reserve the (zero-point, scale) slots, quantize+pack straight into
    // the block (no QuantizedVector temporary), then backfill the metadata.
    const std::size_t meta_at = out.bytes.size();
    out.bytes.resize(meta_at + 2 * sizeof(float));  // lint:allow(hot-path-alloc) pooled buffer, capacity retained
    const QuantMeta meta =
        quantize_append(src.row(rows[i]), bits[i], key,
                        static_cast<std::uint32_t>(i), out.bytes);
    std::memcpy(out.bytes.data() + meta_at, &meta.zero_point, sizeof(float));
    std::memcpy(out.bytes.data() + meta_at + sizeof(float), &meta.scale,
                sizeof(float));
  }
  const obs::Instruments& ins = obs::instruments();
  ins.codec_encode_calls.add(1);
  ins.codec_encode_bytes.add(out.bytes.size());
  ins.codec_encode_ns.add(static_cast<std::uint64_t>(sw.elapsed_us() * 1e3));
}

void decode_rows(const EncodedBlock& block, Matrix& dst,
                 std::span<const NodeId> dst_rows) {
  decode_rows(std::span<const std::uint8_t>(block.bytes), dst, dst_rows);
}

void decode_rows(std::span<const std::uint8_t> bytes, Matrix& dst,
                 std::span<const NodeId> dst_rows) {
  const obs::Stopwatch sw;
  std::size_t pos = 0;
  ADAQP_CHECK_MSG(get_u32(bytes, pos) == kMagic, "codec: bad magic");
  const std::uint32_t count = get_u32(bytes, pos);
  const std::uint32_t dim = get_u32(bytes, pos);
  ADAQP_CHECK_MSG(count == dst_rows.size(),
                  "codec: block has " << count << " rows, expected "
                                      << dst_rows.size());
  ADAQP_CHECK_MSG(dim == dst.cols(),
                  "codec: dim " << dim << " != dst cols " << dst.cols());
  for (std::size_t i = 0; i < count; ++i) {
    ADAQP_CHECK_MSG(pos < bytes.size(), "codec: truncated header for row " << i);
    const int row_bits = bytes[pos++];
    ADAQP_CHECK_MSG(is_valid_bit_width(row_bits),
                    "codec: invalid bit-width tag " << row_bits);
    const float zero_point = get_f32(bytes, pos);
    const float scale = get_f32(bytes, pos);
    const std::size_t payload =
        row_bits == 32 ? dim * sizeof(float)
                       : (static_cast<std::size_t>(dim) * row_bits + 7) / 8;
    ADAQP_CHECK_MSG(pos + payload <= bytes.size(),
                    "codec: truncated payload for row " << i);
    ADAQP_CHECK_MSG(dst_rows[i] < dst.rows(),
                    "codec: dst row " << dst_rows[i] << " out of range");
    // Unpack + dequantize straight from the wire bytes into the
    // destination row — no payload copy, vector kernel under the hood.
    dequantize_payload(bytes.data() + pos, row_bits, dim, zero_point, scale,
                       dst.row(dst_rows[i]));
    pos += payload;
  }
  ADAQP_CHECK_MSG(pos == bytes.size(),
                  "codec: " << bytes.size() - pos << " trailing bytes");
  const obs::Instruments& ins = obs::instruments();
  ins.codec_decode_calls.add(1);
  ins.codec_decode_bytes.add(bytes.size());
  ins.codec_decode_ns.add(static_cast<std::uint64_t>(sw.elapsed_us() * 1e3));
}

std::size_t encoded_wire_bytes(std::size_t num_rows, std::size_t dim,
                               std::span<const int> bits) {
  ADAQP_CHECK(bits.size() == num_rows);
  std::size_t total = 12;  // magic + count + dim
  for (int b : bits) total += 1 + quantized_wire_bytes(dim, b);
  return total;
}

}  // namespace adaqp
