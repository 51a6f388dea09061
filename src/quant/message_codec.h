// Wire codec for batches of quantized message vectors.
//
// Mirrors the paper's implementation note (§5 "Implementation"): messages
// bound for one destination are grouped by assigned bit-width, each group is
// quantized at a single width, and all groups are concatenated into one byte
// array for transmission; the receiver recovers full-precision rows using
// the same ordering. Here the grouping is implicit: each vector carries a
// 1-byte width tag plus its (zero-point, scale) pair, which is the same
// per-message metadata the paper transfers.
//
// The encoded byte count is the number fed to the communication cost model,
// so codec output size == simulated wire traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace adaqp {

class Rng;

/// One encoded transfer: a self-describing byte stream of N quantized rows.
struct EncodedBlock {
  std::vector<std::uint8_t> bytes;

  std::size_t wire_bytes() const { return bytes.size(); }
};

/// Encode `rows[i]`-th row of `src` at `bits[i]` for each i.
/// bits.size() must equal rows.size(); each entry in {2,4,8,32}.
EncodedBlock encode_rows(const Matrix& src, std::span<const NodeId> rows,
                         std::span<const int> bits, Rng& rng);

/// Steady-state form of encode_rows: rebuilds `out` in place (bytes cleared,
/// capacity kept). After a warmup call at the maximal payload size (the
/// uniform 32-bit plan of epoch 0), repeated calls perform no heap
/// allocation. Byte-identical to encode_rows. Takes exactly one next() from
/// `rng` per block as the block key; row i's stochastic rounding is keyed by
/// (key, i), so its bytes do not depend on the other rows of the block.
void encode_rows_into(const Matrix& src, std::span<const NodeId> rows,
                      std::span<const int> bits, Rng& rng, EncodedBlock& out);

/// Forwarder kept for bench/e2e/e2e_bench.cpp, which still calls this
/// 6-argument form; `uniforms` is unused.
inline void encode_rows_into(const Matrix& src, std::span<const NodeId> rows,
                             std::span<const int> bits, Rng& rng,
                             std::vector<float>& /*uniforms*/,
                             EncodedBlock& out) {
  encode_rows_into(src, rows, bits, rng, out);
}

/// Decode a block into the `dst_rows[i]`-th row of `dst`, in order.
/// Throws on malformed/corrupt streams (magic, bounds, dim mismatches).
void decode_rows(const EncodedBlock& block, Matrix& dst,
                 std::span<const NodeId> dst_rows);

/// Span form of decode_rows: decodes whatever bytes the transport delivered
/// (src/transport/), which under loopback alias the sender's EncodedBlock
/// and under a wire backend are the received copy. Same strict validation.
void decode_rows(std::span<const std::uint8_t> bytes, Matrix& dst,
                 std::span<const NodeId> dst_rows);

/// Wire size that encode_rows would produce, without encoding (for the
/// assigner's time objective and for Vanilla accounting).
std::size_t encoded_wire_bytes(std::size_t num_rows, std::size_t dim,
                               std::span<const int> bits);

}  // namespace adaqp
