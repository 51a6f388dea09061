// Byte-stream plumbing shared by the wire transports (docs/TRANSPORT.md):
//
//   MemoryPipe    in-process octet pipe — the fault decorator's wire;
//   FrameReader   incremental reassembly of framed messages from arbitrary
//                 stream fragmentation, validating header + checksum;
//   Inbox         tag-matched FIFO delivery queues + the stable
//                 per-(channel, direction, pair) slot a recv moves its
//                 payload into. Tag matching — not stream arrival order —
//                 is what delivers frames to the exchange that asked for
//                 them, so cross-pair reordering on the wire can never
//                 change which bytes a decode sees.
//
// None of these synchronize: the owning transport serializes access (both
// wire backends run under one internal mutex).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <utility>
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

/// Tag-matched delivery queues. push() appends a received payload to its
/// tag's FIFO; take() pops the oldest payload for a tag, moving it into the
/// (channel, direction, src, dst) slot whose address is stable for the
/// inbox's lifetime — the span handed to the decoder stays valid until the
/// next take() of the same slot, and the slot address doubles as the
/// race-checker annotation for wire delivery (Transport::pair_slot).
class Inbox {
 public:
  void push(const FrameTag& tag, std::vector<std::uint8_t>&& payload);

  /// nullptr when nothing is queued for `tag`.
  const std::vector<std::uint8_t>* take(const FrameTag& tag);

  /// Ensure the tag's pair slot exists and return its address.
  const void* slot(std::uint32_t channel, std::uint8_t direction, int src,
                   int dst);

  bool empty() const { return queues_.empty(); }

 private:
  using TagKey = std::pair<std::uint64_t, std::uint64_t>;
  using SlotKey = std::uint64_t;

  static TagKey tag_key(const FrameTag& t) {
    return {(static_cast<std::uint64_t>(t.channel) << 32) | t.round,
            (static_cast<std::uint64_t>(t.direction) << 16) |
                (static_cast<std::uint64_t>(t.src) << 8) | t.dst};
  }
  static SlotKey slot_key(std::uint32_t channel, std::uint8_t direction,
                          int src, int dst) {
    return (static_cast<std::uint64_t>(channel) << 32) |
           (static_cast<std::uint64_t>(direction) << 24) |
           (static_cast<std::uint64_t>(src) << 12) |
           static_cast<std::uint64_t>(dst);
  }

  std::map<TagKey, std::deque<std::vector<std::uint8_t>>> queues_;
  std::map<SlotKey, std::vector<std::uint8_t>> slots_;
};

}  // namespace adaqp::transport
