#include "transport/transport.h"

#include <bit>
#include <cstring>
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
std::atomic<Transport*> g_global{nullptr};  ///< set once active() built it

// One digest step: xor in a 64-bit word, multiply by the FNV prime (low
// bits -> high bits), xor-shift (high bits -> low bits). Bijective in both
// the state and the word, so any change to one input word changes the
// frame hash.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
  h ^= w;
  h *= 0x100000001B3ull;
  return h ^ (h >> 29);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big)
    w = __builtin_bswap64(w);
  return w;
}

// Four lanes, each a mix_word chain over every fourth word, so the four
// multiplies of a 32-byte step run in parallel; the lanes (seeded apart)
// then fold into `h` one mix_word each. Every step stays bijective in its
// word and every fold in its lane, so any changed payload byte still
// changes the hash. The last `len % 32` bytes go word-wise, then bytewise.
std::uint64_t mix_bytes(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  if (n >= 32) {
    std::uint64_t lane[4] = {h, h ^ 0x9E3779B97F4A7C15ull,
                             h ^ 0xC2B2AE3D27D4EB4Full,
                             h ^ 0x165667B19E3779F9ull};
    for (; n >= 32; p += 32, n -= 32)
      for (int i = 0; i < 4; ++i)
        lane[i] = mix_word(lane[i], load_le64(p + 8 * i));
    h = lane[0];
    for (int i = 1; i < 4; ++i) h = mix_word(h, lane[i]);
  }
  for (; n >= 8; p += 8, n -= 8) h = mix_word(h, load_le64(p));
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

void release_channel(std::uint32_t channel) {
  Transport* t = g_override.load(std::memory_order_acquire);
  if (!t) t = g_global.load(std::memory_order_acquire);
  if (t) t->release_channel(channel);
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
  static Transport* global = [] {
    Transport* t = make_from_env().release();
    g_global.store(t, std::memory_order_release);
    return t;
  }();
  return *global;
}

ScopedTransport::ScopedTransport(std::unique_ptr<Transport> t)
    : owned_(std::move(t)),
      prev_(g_override.exchange(owned_.get(), std::memory_order_acq_rel)) {}

ScopedTransport::~ScopedTransport() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace adaqp::transport
