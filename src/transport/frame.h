// Framed wire format for halo-exchange payloads (docs/TRANSPORT.md).
//
// The quantization codec (src/quant/message_codec.h) already produces a
// byte-stable, self-describing stream per (sender, receiver) message; the
// frame layer wraps that stream in a versioned header so it can cross a real
// byte stream (a TCP socket, an in-process pipe) and be matched back to the
// exchange that is waiting for it. Layout, little-endian, 28-byte header:
//
//   offset size field
//   0      4    magic          0xADA9F7A3
//   4      2    version        kFrameVersion (schema rev; bump on change)
//   6      1    kind           0 = data, 1 = hello (per-connection preamble)
//   7      1    direction      0 = forward, 1 = backward
//   8      4    channel        exchange identity (layer x direction lineage;
//                              allocated by transport::next_channel())
//   12     4    round          per-channel round counter (the epoch's
//                              submit ordinal of that exchange)
//   16     1    src            sender device id
//   17     1    dst            receiver device id
//   18     2    reserved       0
//   20     4    payload_len    codec bytes that follow the header
//                              (at most kMaxPayloadBytes)
//   24     4    checksum       CRC-32 (IEEE) of header[0..24) with this
//                              field zeroed, then the payload bytes
//   28     ...  payload        the codec's EncodedBlock stream, verbatim
//
// Parsing is strict: wrong magic, unknown version/kind, and checksum
// mismatches throw TransportError — a transport must never hand corrupt
// bytes to the codec (whose own magic/bounds checks are the second fence).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace adaqp::transport {

inline constexpr std::uint32_t kFrameMagic = 0xADA9F7A3u;
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kHeaderBytes = 28;
/// Largest payload a frame may declare: far above any halo message, far
/// below what a corrupt length field could ask a receiver to allocate.
inline constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

/// Typed transport failure: framing violations, checksum mismatches,
/// connect/receive timeouts (e.g. a fault-injected drop). Distinct from the
/// codec's std::runtime_error so tests can assert the failing layer.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameKind : std::uint8_t { kData = 0, kHello = 1 };

/// Identity of one frame: which exchange (channel), which round of it, and
/// which directed device pair. Channels are process-local ordinals handed
/// out by transport::next_channel() in deterministic construction order, so
/// replicated ranks agree on them without negotiation.
struct FrameTag {
  std::uint32_t channel = 0;
  std::uint32_t round = 0;
  std::uint8_t direction = 0;  ///< 0 forward, 1 backward
  std::uint8_t src = 0;
  std::uint8_t dst = 0;
};

struct FrameHeader {
  FrameKind kind = FrameKind::kData;
  FrameTag tag;
  std::uint32_t payload_len = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), seedable so the
/// header and payload can be folded in two passes:
/// crc32(b, crc32(a)) == crc32(a followed by b). Dispatched through the
/// simd::kernels() `crc32` slot (slice-by-8 tables, or PCLMULQDQ folding
/// on x86); every ISA returns the standard values.
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 0);

/// Fill the kHeaderBytes header of a frame carrying `payload`, checksum
/// included, in place: no allocation and no copy of the payload, so a
/// sender can put {out, payload} on the wire as two buffers.
/// payload_len is taken from payload.size(); a payload above
/// kMaxPayloadBytes throws TransportError.
void write_header(const FrameHeader& header,
                  std::span<const std::uint8_t> payload,
                  std::uint8_t out[kHeaderBytes]);

/// Serialize header + payload into `out` (resized; capacity reused).
void write_frame(const FrameHeader& header,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& out);

/// Parse and validate the fixed-size header prefix of `bytes` (magic,
/// version, kind, and payload_len <= kMaxPayloadBytes; the checksum is
/// validated by verify_frame once the payload is present). Throws
/// TransportError; never reads past kHeaderBytes.
FrameHeader parse_header(std::span<const std::uint8_t> bytes);

/// Validate the checksum of a complete frame given its raw header bytes and
/// payload. Throws TransportError on mismatch.
void verify_frame(std::span<const std::uint8_t> header_bytes,
                  std::span<const std::uint8_t> payload);

/// Human-readable tag for error messages: "ch12/r3 fwd d0->d2".
std::string tag_to_string(const FrameTag& tag);

}  // namespace adaqp::transport
