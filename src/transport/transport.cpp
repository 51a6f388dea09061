#include "transport/transport.h"

#include <stdexcept>

#include "common/env.h"
#include "obs/metrics.h"
#include "transport/fault.h"
#include "transport/loopback.h"
#include "transport/tcp.h"

namespace adaqp::transport {

namespace {

std::atomic<std::uint32_t> g_next_channel{0};
std::atomic<Transport*> g_override{nullptr};

// One digest step: xor in a 64-bit word, multiply by the FNV prime (low
// bits -> high bits), xor-shift (high bits -> low bits). Bijective in both
// the state and the word, so any change to one input word changes the
// frame hash.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= 0x100000001B3ull;
  return h ^ (h >> 29);
}

std::uint64_t mix_bytes(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    h = mix_word(h, w);
  }
  for (; n != 0; ++p, --n) h = mix_word(h, *p);
  return h;
}

}  // namespace

TransportStats Transport::stats() const {
  TransportStats s;
  s.frames_delivered = frames_.load(std::memory_order_relaxed);
  s.bytes_delivered = bytes_.load(std::memory_order_relaxed);
  s.digest = digest_.load(std::memory_order_relaxed);
  return s;
}

void Transport::reset_stats() {
  frames_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  digest_.store(0, std::memory_order_relaxed);
}

std::span<const std::uint8_t> Transport::account_delivery(
    const FrameTag& tag, std::span<const std::uint8_t> payload) {
  // Per-frame word-wise hash over the channel-free tag, the length and the
  // payload, folded into the digest with XOR: order-independent across
  // schedules and thread counts, sensitive to any delivered byte (see
  // TransportStats).
  const std::uint64_t pair = (static_cast<std::uint64_t>(tag.direction) << 16) |
                             (static_cast<std::uint64_t>(tag.src) << 8) |
                             tag.dst;
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = mix_word(h, (pair << 32) | tag.round);
  h = mix_word(h, payload.size());
  h = mix_bytes(h, payload);
  frames_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  digest_.fetch_xor(h, std::memory_order_relaxed);
  const obs::Instruments& ins = obs::instruments();
  ins.transport_frames.add(1);
  ins.transport_bytes.add(payload.size());
  return payload;
}

std::uint32_t next_channel() {
  return g_next_channel.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<Transport> make_from_env() {
  const std::optional<std::string> kind = env::text("ADAQP_TRANSPORT");
  std::unique_ptr<Transport> t;
  if (!kind || *kind == "loopback") {
    t = std::make_unique<LoopbackTransport>();
  } else if (*kind == "tcp") {
    t = std::make_unique<TcpTransport>(TcpOptions::from_env());
  } else {
    throw std::runtime_error(
        "ADAQP_TRANSPORT must be \"loopback\" or \"tcp\", got \"" + *kind +
        "\"");
  }
  if (env::flag01("ADAQP_FAULT", false))
    t = std::make_unique<FaultInjectingTransport>(std::move(t),
                                                  FaultSpec::from_env());
  return t;
}

Transport& active() {
  if (Transport* o = g_override.load(std::memory_order_acquire)) return *o;
  // Process-lifetime singleton, resolved on first use (like the SIMD kernel
  // registry); intentionally leaked so in-flight exchanges joined during
  // static destruction can still reach it.
  static Transport* global = make_from_env().release();
  return *global;
}

ScopedTransport::ScopedTransport(std::unique_ptr<Transport> t)
    : owned_(std::move(t)),
      prev_(g_override.exchange(owned_.get(), std::memory_order_acq_rel)) {}

ScopedTransport::~ScopedTransport() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace adaqp::transport
