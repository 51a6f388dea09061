#include "transport/frame.h"

#include <array>

namespace adaqp::transport {

namespace {

// Slice-by-8 tables: tables[0] is the classic bytewise table; tables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight lookups fold one
// 8-byte word at a time.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
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
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = get_u32({p, 4}, 0) ^ c;
    const std::uint32_t hi = get_u32({p + 4, 4}, 0);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n != 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void write_frame(const FrameHeader& header,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>& out) {
  out.clear();
  put_u32(out, kFrameMagic);
  put_u16(out, kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(header.kind));
  out.push_back(header.tag.direction);
  put_u32(out, header.tag.channel);
  put_u32(out, header.tag.round);
  out.push_back(header.tag.src);
  out.push_back(header.tag.dst);
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  // Checksum covers the header with its own field zeroed, then the payload
  // (fold order matches verify_frame exactly).
  static constexpr std::uint8_t kZero[4] = {0, 0, 0, 0};
  std::uint32_t crc = crc32({out.data(), out.size()}, 0);
  crc = crc32({kZero, 4}, crc);
  crc = crc32(payload, crc);
  put_u32(out, crc);
  out.insert(out.end(), payload.begin(), payload.end());
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
