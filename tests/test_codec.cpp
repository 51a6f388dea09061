// Tests for the message wire codec, including failure injection.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "quant/message_codec.h"
#include "quant/quantize.h"

namespace adaqp {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  m.fill_uniform(rng, -1.0f, 1.0f);
  return m;
}

TEST(Codec, FullPrecisionRoundTripIsExact) {
  Rng rng(1);
  Matrix src = random_matrix(10, 16, rng);
  const std::vector<NodeId> rows = {1, 3, 7, 9};
  const std::vector<int> bits(rows.size(), 32);
  const EncodedBlock block = encode_rows(src, rows, bits, rng);

  Matrix dst(12, 16);
  const std::vector<NodeId> dst_rows = {0, 2, 4, 6};
  decode_rows(block, dst, dst_rows);
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t c = 0; c < 16; ++c)
      EXPECT_EQ(dst.at(dst_rows[i], c), src.at(rows[i], c));
}

TEST(Codec, MixedBitWidthsDecodeWithinScale) {
  Rng rng(2);
  Matrix src = random_matrix(8, 32, rng);
  const std::vector<NodeId> rows = {0, 1, 2, 3};
  const std::vector<int> bits = {2, 4, 8, 32};
  const EncodedBlock block = encode_rows(src, rows, bits, rng);
  Matrix dst(8, 32);
  decode_rows(block, dst, rows);
  // Each decoded row's max error is bounded by that row's quantization step.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto qv = quantize(src.row(rows[i]), bits[i], rng);
    for (std::size_t c = 0; c < 32; ++c)
      EXPECT_LE(std::fabs(dst.at(rows[i], c) - src.at(rows[i], c)),
                qv.scale + 1e-6f);
  }
}

TEST(Codec, WireBytesMatchPrediction) {
  Rng rng(3);
  Matrix src = random_matrix(6, 24, rng);
  const std::vector<NodeId> rows = {0, 2, 4};
  const std::vector<int> bits = {2, 8, 32};
  const EncodedBlock block = encode_rows(src, rows, bits, rng);
  EXPECT_EQ(block.wire_bytes(), encoded_wire_bytes(3, 24, bits));
}

// The bit-width assigner's time objective prices transfers with
// encoded_wire_bytes() and the simulator charges the bytes encode_rows()
// actually produces; the two must agree exactly for every ragged dim and
// bit-width mix (partial trailing bytes, empty rows, 32-bit passthrough).
TEST(Codec, PredictedBytesExactForRaggedDimsAndAllBitMixes) {
  Rng rng(17);
  const std::vector<std::vector<int>> mixes = {
      {2},          {4},          {8},           {32},
      {2, 4, 8},    {8, 8, 2, 4}, {32, 2, 32, 4}, {4, 2, 2, 8, 32, 2},
  };
  for (std::size_t dim : {1ul, 2ul, 3ul, 5ul, 7ul, 9ul, 13ul, 16ul, 17ul,
                          31ul, 33ul, 64ul, 65ul, 127ul}) {
    Matrix src = random_matrix(8, dim, rng);
    for (const auto& bits : mixes) {
      std::vector<NodeId> rows(bits.size());
      for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i] = static_cast<NodeId>(i);
      const EncodedBlock block = encode_rows(src, rows, bits, rng);
      EXPECT_EQ(block.wire_bytes(),
                encoded_wire_bytes(rows.size(), dim, bits))
          << "dim=" << dim << " mix size=" << bits.size();
    }
  }
}

/// Byte range [offset, offset + size) of row i in a block encoded at `bits`.
std::pair<std::size_t, std::size_t> row_span(const std::vector<int>& bits,
                                             std::size_t dim, std::size_t i) {
  std::size_t offset = 12;  // magic + count + dim
  for (std::size_t j = 0; j < i; ++j)
    offset += 1 + quantized_wire_bytes(dim, bits[j]);
  return {offset, 1 + quantized_wire_bytes(dim, bits[i])};
}

std::vector<std::uint8_t> row_bytes(const EncodedBlock& block,
                                    const std::vector<int>& bits,
                                    std::size_t dim, std::size_t i) {
  const auto [offset, size] = row_span(bits, dim, i);
  return {block.bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          block.bytes.begin() + static_cast<std::ptrdiff_t>(offset + size)};
}

// Row i's stochastic rounding is keyed by (block key, i): its bytes (width
// tag, zero-point, scale, payload) stay the same when the other rows'
// values or widths change, and when the block ends after row i.
TEST(Codec, RowBytesDependOnlyOnTheRowAndItsPosition) {
  const std::size_t dim = 37;
  Rng data_rng(21);
  const Matrix src = random_matrix(6, dim, data_rng);
  const Matrix other = random_matrix(6, dim, data_rng);
  const std::vector<NodeId> rows = {0, 1, 2, 3, 4, 5};
  const std::vector<int> bits = {4, 2, 8, 32, 4, 2};
  const std::vector<int> other_bits = {8, 4, 2, 2, 32, 8};
  const auto encode = [&](const Matrix& m, std::span<const NodeId> r,
                          std::span<const int> b) {
    Rng rng(99);
    return encode_rows(m, r, b, rng);
  };
  const EncodedBlock base = encode(src, rows, bits);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto want = row_bytes(base, bits, dim, i);
    // Other rows' values change.
    Matrix mixed = other;
    for (std::size_t c = 0; c < dim; ++c) mixed.at(i, c) = src.at(i, c);
    EXPECT_EQ(row_bytes(encode(mixed, rows, bits), bits, dim, i), want)
        << "values, row " << i;
    // Other rows' widths change.
    std::vector<int> widths = other_bits;
    widths[i] = bits[i];
    EXPECT_EQ(row_bytes(encode(src, rows, widths), widths, dim, i), want)
        << "widths, row " << i;
    // The block ends after row i.
    const std::span<const NodeId> prefix(rows.data(), i + 1);
    const std::span<const int> prefix_bits(bits.data(), i + 1);
    const EncodedBlock cut = encode(src, prefix, prefix_bits);
    const auto [offset, size] = row_span(bits, dim, i);
    ASSERT_EQ(cut.wire_bytes(), offset + size);
    EXPECT_EQ(row_bytes(cut, bits, dim, i), want) << "prefix, row " << i;
  }
}

// One encode takes exactly one next() from the caller's stream, whatever
// the block holds: no rows, 32-bit rows only, or quantized rows.
TEST(Codec, EncodeTakesOneRngDrawPerBlock) {
  Rng data_rng(22);
  const Matrix src = random_matrix(5, 19, data_rng);
  const std::vector<NodeId> rows = {0, 1, 2, 3, 4};
  const std::vector<std::vector<int>> mixes = {
      {}, {32}, {32, 32, 32}, {2}, {4, 8, 2, 32, 4}};
  for (const auto& bits : mixes) {
    Rng rng(7), mirror(7);
    EncodedBlock block;
    encode_rows_into(src, std::span(rows.data(), bits.size()), bits, rng,
                     block);
    encode_rows_into(src, std::span(rows.data(), bits.size()), bits, rng,
                     block);
    mirror.next();
    mirror.next();
    EXPECT_EQ(rng.next(), mirror.next()) << bits.size() << " rows";
  }
}

TEST(Codec, SmallerBitsSmallerBlocks) {
  Rng rng(4);
  Matrix src = random_matrix(16, 64, rng);
  std::vector<NodeId> rows(16);
  for (NodeId i = 0; i < 16; ++i) rows[i] = i;
  std::size_t prev = SIZE_MAX;
  for (int b : {32, 8, 4, 2}) {
    const std::vector<int> bits(rows.size(), b);
    const auto block = encode_rows(src, rows, bits, rng);
    EXPECT_LT(block.wire_bytes(), prev);
    prev = block.wire_bytes();
  }
}

TEST(Codec, EmptyRowSetProducesHeaderOnly) {
  Rng rng(5);
  Matrix src = random_matrix(4, 8, rng);
  const std::vector<NodeId> rows;
  const std::vector<int> bits;
  const EncodedBlock block = encode_rows(src, rows, bits, rng);
  EXPECT_EQ(block.wire_bytes(), 12u);
  Matrix dst(4, 8);
  EXPECT_NO_THROW(decode_rows(block, dst, rows));
}

TEST(Codec, ArityMismatchThrows) {
  Rng rng(6);
  Matrix src = random_matrix(4, 8, rng);
  const std::vector<NodeId> rows = {0, 1};
  const std::vector<int> bits = {8};
  EXPECT_THROW(encode_rows(src, rows, bits, rng), std::runtime_error);
}

TEST(Codec, OutOfRangeSourceRowThrows) {
  Rng rng(7);
  Matrix src = random_matrix(4, 8, rng);
  const std::vector<NodeId> rows = {9};
  const std::vector<int> bits = {8};
  EXPECT_THROW(encode_rows(src, rows, bits, rng), std::runtime_error);
}

// ---- Failure injection ------------------------------------------------------

class CodecCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(8);
    src_ = random_matrix(6, 16, rng);
    rows_ = {0, 1, 2};
    const std::vector<int> bits = {2, 4, 8};
    block_ = encode_rows(src_, rows_, bits, rng);
  }
  Matrix src_;
  std::vector<NodeId> rows_;
  EncodedBlock block_;
};

TEST_F(CodecCorruptionTest, BadMagicRejected) {
  block_.bytes[0] ^= 0xFF;
  Matrix dst(6, 16);
  EXPECT_THROW(decode_rows(block_, dst, rows_), std::runtime_error);
}

TEST_F(CodecCorruptionTest, TruncatedPayloadRejected) {
  block_.bytes.resize(block_.bytes.size() - 3);
  Matrix dst(6, 16);
  EXPECT_THROW(decode_rows(block_, dst, rows_), std::runtime_error);
}

TEST_F(CodecCorruptionTest, TrailingGarbageRejected) {
  block_.bytes.push_back(0xAB);
  Matrix dst(6, 16);
  EXPECT_THROW(decode_rows(block_, dst, rows_), std::runtime_error);
}

TEST_F(CodecCorruptionTest, InvalidBitTagRejected) {
  // The first per-row tag byte sits right after the 12-byte header.
  block_.bytes[12] = 13;  // not a valid width
  Matrix dst(6, 16);
  EXPECT_THROW(decode_rows(block_, dst, rows_), std::runtime_error);
}

TEST_F(CodecCorruptionTest, RowCountMismatchRejected) {
  Matrix dst(6, 16);
  const std::vector<NodeId> wrong_rows = {0, 1};
  EXPECT_THROW(decode_rows(block_, dst, wrong_rows), std::runtime_error);
}

TEST_F(CodecCorruptionTest, DimMismatchRejected) {
  Matrix dst(6, 8);  // wrong width
  EXPECT_THROW(decode_rows(block_, dst, rows_), std::runtime_error);
}

TEST_F(CodecCorruptionTest, DestinationRowOutOfRangeRejected) {
  Matrix dst(2, 16);
  const std::vector<NodeId> bad = {0, 1, 5};
  EXPECT_THROW(decode_rows(block_, dst, bad), std::runtime_error);
}

}  // namespace
}  // namespace adaqp
