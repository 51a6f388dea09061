// Transport abstraction behind the halo exchange (docs/TRANSPORT.md).
//
// Every encoded halo message becomes one framed send/recv over a Transport.
// The execution model is *replicated compute, real wire*: every process (or
// the single process, today's default) runs the full deterministic N-device
// simulation, so encoded payloads and RNG streams are bit-identical
// everywhere; the transport decides which frames actually cross a byte
// stream and which are delivered in place. The receiver always decodes the
// bytes recv() returns — never the sender-side staging buffer directly — so
// swapping the backend cannot change numerics, only where the bytes
// travelled.
//
//   LoopbackTransport        (default) zero-copy in-process delivery;
//                            preserves the zero-allocation steady state.
//   TcpTransport             frames cross real non-blocking localhost
//                            sockets, one connection per directed device
//                            pair; single-process runs self-connect so
//                            plain `ADAQP_TRANSPORT=tcp ctest` exercises
//                            the full wire path.
//   FaultInjectingTransport  decorator: seeded deterministic delay /
//                            reorder / short-read/short-write splits /
//                            drop-then-timeout over any inner transport.
//
// Selection: ADAQP_TRANSPORT=loopback|tcp (strict; anything else throws),
// optionally wrapped by ADAQP_FAULT=1. See docs/ENVVARS.md for the knobs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "transport/frame.h"

namespace adaqp::transport {

/// Delivery accounting every backend maintains (relaxed atomics; safe to
/// read concurrently). `digest` is an order-independent XOR of per-frame
/// word-wise hashes (8 bytes per multiply + xor-shift step) over (round,
/// direction, src, dst, length, payload) — two runs delivered the same
/// payload multiset iff frames/bytes/digest all match, which is how the
/// tests assert loopback == tcp byte-identity end to end.
/// (The channel ordinal is excluded so back-to-back runs in one process,
/// whose channel counters keep rising, stay comparable.)
struct TransportStats {
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t digest = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;

  /// Ship `payload` toward the pair's receiver. Stage bodies call this with
  /// the locally encoded wire block; backends where this process does not
  /// own the sender treat it as a no-op (the owning replica sends it).
  virtual void send(const FrameTag& tag,
                    std::span<const std::uint8_t> payload) = 0;

  /// The bytes the receiver must decode for `tag`. `local` is this
  /// process's own encoding of the frame (the replicated-compute copy);
  /// loopback returns it zero-copy, wire backends block until the framed
  /// payload arrives and return the delivered bytes instead. The returned
  /// span stays valid until the next recv of the same (channel, pair).
  /// Throws TransportError on timeout / protocol violations.
  virtual std::span<const std::uint8_t> recv(
      const FrameTag& tag, std::span<const std::uint8_t> local) = 0;

  /// True when this backend would deliver `tag` entirely in place (recv
  /// returns `local` and no byte stream is involved). The fault decorator
  /// only injects faults into such frames — genuinely remote frames keep
  /// the inner backend's wire path.
  virtual bool local_delivery(const FrameTag& tag) const {
    (void)tag;
    return true;
  }

  /// True when steady-state send/recv perform no heap allocation — the
  /// trainer's zero-allocation contract only covers epochs run over such a
  /// transport (loopback; see memory::steady_state_definition()).
  virtual bool zero_alloc_delivery() const { return false; }

  /// Stable address of the per-(channel, direction, pair) delivery slot a
  /// wire backend moves received payloads into, or nullptr when delivery is
  /// in place (loopback). Exchange stages declare a write on this slot for
  /// the stage-graph race checker (src/analysis/), so the checker proves
  /// the encode -> deliver -> decode chain is ordered by declared deps.
  virtual const void* pair_slot(std::uint32_t channel, std::uint8_t direction,
                                int src, int dst) {
    (void)channel, (void)direction, (void)src, (void)dst;
    return nullptr;
  }

  /// Delivery accounting. Virtual so decorators can fold in the stats of
  /// the backend they wrap — a wrapped transport must account every
  /// delivery exactly once across the pair, whichever side's recv ran.
  virtual TransportStats stats() const;
  virtual void reset_stats();

 protected:
  Transport() = default;

  /// Fold one delivered frame into stats() and the transport instruments,
  /// returning `payload`; every backend's recv returns through it, outside
  /// its own lock. Allocation-free.
  std::span<const std::uint8_t> account_delivery(
      const FrameTag& tag, std::span<const std::uint8_t> payload);

 private:
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> digest_{0};
};

/// Process-wide monotonically increasing exchange-channel ordinal. Every
/// trainer layer graph claims one at construction and every one-shot
/// exchange_halo_* call claims one per call; because that order is
/// deterministic, replicated ranks derive identical channel ids without
/// negotiation.
std::uint32_t next_channel();

/// The active transport: the innermost ScopedTransport override when one is
/// installed, else the process-wide instance resolved once from the
/// environment (ADAQP_TRANSPORT / ADAQP_FAULT). Never returns null; throws
/// std::runtime_error on malformed knobs at first use.
Transport& active();

/// Build a transport from the environment without installing it (the
/// factory behind active(); exposed for tools).
std::unique_ptr<Transport> make_from_env();

/// RAII override for tests and tools: installs `t` as the active transport
/// for the guard's scope, restoring the previous one after — the same idiom
/// as pipeline::AsyncModeGuard / obs::MetricsGuard. Must not be destroyed
/// while an exchange submitted under it is still in flight.
class ScopedTransport {
 public:
  explicit ScopedTransport(std::unique_ptr<Transport> t);
  ~ScopedTransport();
  ScopedTransport(const ScopedTransport&) = delete;
  ScopedTransport& operator=(const ScopedTransport&) = delete;

  Transport& get() { return *owned_; }

 private:
  std::unique_ptr<Transport> owned_;
  Transport* prev_;
};

}  // namespace adaqp::transport
