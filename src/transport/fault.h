// Seeded, deterministic fault injection over any inner transport
// (docs/TRANSPORT.md, "Fault injection").
//
// Frames the inner backend would deliver in place (local_delivery) are
// instead pushed through a real framed byte pipe — MemoryPipe + FrameReader
// — with faults drawn from a per-frame schedule that is a pure function of
// (seed, tag): delivery delay, reordering across pairs (hold a frame until
// later sends, or until the receiver demands it), short-write/short-read
// splits that fragment the stream at seeded byte counts, and drops, which
// surface at the receiver as a typed TransportError timeout instead of a
// hang. Because the schedule depends only on the tag, runs are repeatable
// at any thread count — and because payload bytes are never altered and
// delivery is tag-matched, a faulted training run stays bit-identical to
// the fault-free baseline (the regression the test suite pins).
//
// Genuinely remote frames (an inner TcpTransport in a multi-process run)
// are delegated to the inner backend untouched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "transport/stream.h"
#include "transport/transport.h"

namespace adaqp::transport {

struct FaultSpec {
  std::uint64_t seed = 1;
  std::uint32_t delay_us = 0;        ///< max per-frame delivery delay
  std::uint32_t reorder = 0;         ///< max sends a frame can be held past
  std::uint32_t split = 0;           ///< max stream chunk bytes (0 = whole)
  std::uint32_t drop_permille = 0;   ///< per-frame drop probability (‰)
  std::uint32_t timeout_ms = 2000;   ///< recv deadline before TransportError

  bool any() const {
    return delay_us || reorder || split || drop_permille;
  }

  /// ADAQP_FAULT_SEED / _DELAY_US / _REORDER / _SPLIT / _DROP_PERMILLE /
  /// _TIMEOUT_MS, all strictly parsed (common/env.h).
  static FaultSpec from_env();
};

class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(std::unique_ptr<Transport> inner, FaultSpec spec);

  const char* name() const override { return name_.c_str(); }

  void send(const FrameTag& tag,
            std::span<const std::uint8_t> payload) override;
  std::span<const std::uint8_t> recv(
      const FrameTag& tag, std::span<const std::uint8_t> local) override;

  bool local_delivery(const FrameTag& tag) const override {
    return inner_->local_delivery(tag);
  }
  const void* pair_slot(std::uint32_t channel, std::uint8_t direction,
                        int src, int dst) override;
  void fit_slot(std::uint32_t channel, std::uint8_t direction, int src,
                int dst, std::size_t bytes) override {
    inner_->fit_slot(channel, direction, src, dst, bytes);
  }
  void release_channel(std::uint32_t channel) override;

  /// Decorator stats fold in the wrapped backend's: non-local tags pass
  /// straight through to the inner transport, which accounts them itself,
  /// so the union covers every delivery exactly once. Digests XOR-combine.
  TransportStats stats() const override {
    TransportStats s = Transport::stats();
    const TransportStats inner = inner_->stats();
    s.frames_delivered += inner.frames_delivered;
    s.bytes_delivered += inner.bytes_delivered;
    s.digest ^= inner.digest;
    return s;
  }
  void reset_stats() override {
    Transport::reset_stats();
    inner_->reset_stats();
  }

  const FaultSpec& spec() const { return spec_; }
  Transport& inner() { return *inner_; }

 private:
  /// The per-frame schedule, derived from (seed, tag) alone.
  struct Plan {
    bool drop = false;
    std::uint32_t delay_us = 0;
    std::uint32_t hold = 0;        ///< sends to hold past (reorder window)
    std::uint64_t chunk_seed = 0;  ///< stream for split sizes
  };
  struct Held {
    FrameTag tag;
    std::vector<std::uint8_t> frame;  ///< framed bytes, ready for the pipe
    std::uint64_t release_at = 0;     ///< send ordinal that frees it
  };
  /// One in-process wire per (channel, direction, pair): single-writer /
  /// single-reader by the exchange round contract.
  struct Stream {
    MemoryPipe pipe;
    FrameReader reader;
  };

  Plan plan_for(const FrameTag& tag) const;
  void write_split(Stream& s, std::span<const std::uint8_t> frame,
                   std::uint64_t chunk_seed);
  void release_due_locked();
  void drain_locked(const FrameTag& tag);

  std::unique_ptr<Transport> inner_;
  FaultSpec spec_;
  std::string name_;

  std::mutex mu_;
  std::map<std::uint64_t, Stream> streams_;
  Inbox inbox_;
  std::vector<Held> held_;
  std::uint64_t send_seq_ = 0;
};

}  // namespace adaqp::transport
