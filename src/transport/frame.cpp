#include "transport/frame.h"

#include <algorithm>

#include "simd/kernels.h"

namespace adaqp::transport {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v & 0xFF);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint16_t>(b[pos] | (b[pos + 1] << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         (static_cast<std::uint32_t>(b[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(b[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(b[pos + 3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  return simd::kernels().crc32(bytes.data(), bytes.size(), seed);
}

void write_header(const FrameHeader& header,
                  std::span<const std::uint8_t> payload,
                  std::uint8_t out[kHeaderBytes]) {
  if (payload.size() > kMaxPayloadBytes)
    throw TransportError("transport: frame payload length " +
                         std::to_string(payload.size()) + " exceeds " +
                         std::to_string(kMaxPayloadBytes) + " bytes");
  put_u32(out, kFrameMagic);
  put_u16(out + 4, kFrameVersion);
  out[6] = static_cast<std::uint8_t>(header.kind);
  out[7] = header.tag.direction;
  put_u32(out + 8, header.tag.channel);
  put_u32(out + 12, header.tag.round);
  out[16] = header.tag.src;
  out[17] = header.tag.dst;
  put_u16(out + 18, 0);  // reserved
  put_u32(out + 20, static_cast<std::uint32_t>(payload.size()));
  // Checksum covers the header with its own field zeroed, then the payload
  // (fold order matches verify_frame exactly).
  put_u32(out + 24, 0);
  std::uint32_t crc = crc32({out, kHeaderBytes}, 0);
  crc = crc32(payload, crc);
  put_u32(out + 24, crc);
}

void write_frame(const FrameHeader& header,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& out) {
  out.resize(kHeaderBytes + payload.size());
  write_header(header, payload, out.data());
  std::copy(payload.begin(), payload.end(), out.begin() + kHeaderBytes);
}

FrameHeader parse_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes)
    throw TransportError("transport: truncated frame header (" +
                         std::to_string(bytes.size()) + " of " +
                         std::to_string(kHeaderBytes) + " bytes)");
  if (get_u32(bytes, 0) != kFrameMagic)
    throw TransportError("transport: bad frame magic");
  const std::uint16_t version = get_u16(bytes, 4);
  if (version != kFrameVersion)
    throw TransportError("transport: unsupported frame version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFrameVersion) + ")");
  const std::uint8_t kind = bytes[6];
  if (kind > static_cast<std::uint8_t>(FrameKind::kHello))
    throw TransportError("transport: unknown frame kind " +
                         std::to_string(kind));
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind);
  h.tag.direction = bytes[7];
  h.tag.channel = get_u32(bytes, 8);
  h.tag.round = get_u32(bytes, 12);
  h.tag.src = bytes[16];
  h.tag.dst = bytes[17];
  h.payload_len = get_u32(bytes, 20);
  if (h.payload_len > kMaxPayloadBytes)
    throw TransportError("transport: frame payload length " +
                         std::to_string(h.payload_len) + " exceeds " +
                         std::to_string(kMaxPayloadBytes) + " bytes");
  return h;
}

void verify_frame(std::span<const std::uint8_t> header_bytes,
                  std::span<const std::uint8_t> payload) {
  if (header_bytes.size() != kHeaderBytes)
    throw TransportError("transport: verify_frame needs the full header");
  // Fold the header in two slices so the stored checksum field reads as
  // zero, exactly as write_frame computed it.
  static constexpr std::uint8_t kZero[4] = {0, 0, 0, 0};
  std::uint32_t crc = crc32(header_bytes.first(kHeaderBytes - 4), 0);
  crc = crc32({kZero, 4}, crc);
  crc = crc32(payload, crc);
  const std::uint32_t stored = get_u32(header_bytes, kHeaderBytes - 4);
  if (crc != stored)
    throw TransportError("transport: frame checksum mismatch for " +
                         tag_to_string(parse_header(header_bytes).tag));
}

std::string tag_to_string(const FrameTag& tag) {
  std::string s = "ch" + std::to_string(tag.channel) + "/r" +
                  std::to_string(tag.round);
  s += tag.direction == 0 ? " fwd d" : " bwd d";
  s += std::to_string(tag.src);
  s += "->d";
  s += std::to_string(tag.dst);
  return s;
}

}  // namespace adaqp::transport
