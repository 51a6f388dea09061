// Byte-stream plumbing shared by the wire transports (docs/TRANSPORT.md):
//
//   MemoryPipe    in-process octet pipe — the fault decorator's wire;
//   FrameReader   incremental reassembly of framed messages from arbitrary
//                 stream fragmentation, validating header + checksum — the
//                 fault decorator's reader. TcpTransport does not use it:
//                 it reads each header, then each payload straight into
//                 its Inbox slot, and verifies on the receiving thread;
//   Inbox         flat table of per-(channel, direction, pair) slots, each
//                 a FIFO of pending frames plus the buffer a recv returns.
//                 Tag matching — not stream arrival order — is what
//                 delivers frames to the exchange that asked for them, so
//                 cross-pair reordering on the wire can never change which
//                 bytes a decode sees.
//
// None of these synchronize: the owning transport serializes access (both
// wire backends keep them under one internal mutex).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "transport/frame.h"

namespace adaqp::transport {

/// Unbounded in-process byte pipe. Single-writer / single-reader under the
/// owner's lock; used by FaultInjectingTransport as its in-process wire.
class MemoryPipe {
 public:
  /// Append every byte of `data`; returns data.size().
  std::size_t write_some(std::span<const std::uint8_t> data);
  /// Read up to out.size() bytes into `out`; returns how many were read
  /// (0 when nothing is buffered).
  std::size_t read_some(std::span<std::uint8_t> out);

  std::size_t pending() const { return buf_.size() - rd_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t rd_ = 0;  ///< consumed prefix; compacted lazily
};

/// Incremental frame parser: feed() stream fragments of any size, then
/// drain complete frames with next(). Header and checksum validation throw
/// TransportError (bad magic / version / kind / CRC); a frame split across
/// any byte boundary — mid-header included — reassembles correctly.
class FrameReader {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Extract the next complete, checksum-verified frame. Returns false when
  /// more bytes are needed; on true, `header` and `payload` (cleared and
  /// refilled) describe the frame.
  bool next(FrameHeader& header, std::vector<std::uint8_t>& payload);

  std::size_t buffered() const { return buf_.size() - rd_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t rd_ = 0;
};

/// Tag-matched delivery table: one slot per (channel, direction, src, dst),
/// each holding its pending frames in arrival order. A frame is begun when
/// its header is known and filled in place, so a wire reader can receive the
/// payload straight into the buffer the decoder will read. take() hands out
/// the oldest complete frame for a tag — its raw header (for verification)
/// and its payload, which stays in the slot's `delivered` buffer until the
/// next take() of that slot, or, when the caller lets a later frame reuse
/// it, until that frame begins. Slot addresses are stable until their
/// channel is released and double as the race-checker annotation for wire
/// delivery (Transport::pair_slot). Steady state allocates nothing: a slot's
/// frame list and buffers keep their capacity.
class Inbox {
 public:
  struct Frame {
    std::uint32_t round = 0;
    bool complete = false;
    std::array<std::uint8_t, kHeaderBytes> head{};
    std::vector<std::uint8_t> bytes;  ///< payload_len bytes once complete
  };
  struct Slot {
    std::vector<Frame> frames;            ///< arrival order
    std::vector<std::uint8_t> delivered;  ///< the last take()'s payload
    std::vector<std::vector<std::uint8_t>> spares;  ///< free buffers
  };
  struct Delivery {
    std::array<std::uint8_t, kHeaderBytes> head{};
    std::span<const std::uint8_t> payload;
  };

  /// Append an incomplete frame for `header` (raw bytes `head`, which may be
  /// empty when the caller has already verified the frame) and return its
  /// slot; the frame is slot.frames.back(), its buffer sized to
  /// header.payload_len. With `reuse_delivered` the buffer is the slot's
  /// last delivered payload: the caller vouches that its reader is done.
  Slot& begin(const FrameHeader& header, std::span<const std::uint8_t> head,
              bool reuse_delivered);

  /// Mark the frame last begun in `slot` complete.
  static void finish(Slot& slot) { slot.frames.back().complete = true; }

  /// begin() + copy + finish() for a frame that is already whole.
  void push(const FrameHeader& header, std::span<const std::uint8_t> payload);

  /// Pop the oldest frame for `tag` into `out`; false when none is queued
  /// or the oldest is still being filled.
  bool take(const FrameTag& tag, Delivery& out);

  /// Ensure the tag's pair slot exists and return its address.
  const void* slot(std::uint32_t channel, std::uint8_t direction, int src,
                   int dst);

  /// Ensure the slot exists with room for one pending frame, and size its
  /// delivered buffer (the one a single-process wire reuses) for `bytes`:
  /// grown to it, or given back when more than twice as large. Its
  /// contents are dropped when it shrinks.
  void fit(std::uint32_t channel, std::uint8_t direction, int src, int dst,
           std::size_t bytes);

  /// Drop every slot of `channel`, except one whose frame is still being
  /// filled (its reader holds the slot).
  void release_channel(std::uint32_t channel);

  std::size_t slot_count() const { return slots_.size(); }

 private:
  static std::uint64_t slot_key(std::uint32_t channel, std::uint8_t direction,
                                int src, int dst) {
    return (static_cast<std::uint64_t>(channel) << 32) |
           (static_cast<std::uint64_t>(direction) << 24) |
           (static_cast<std::uint64_t>(src) << 12) |
           static_cast<std::uint64_t>(dst);
  }

  std::unordered_map<std::uint64_t, Slot> slots_;
};

}  // namespace adaqp::transport
