// The transport layer (src/transport/, docs/TRANSPORT.md): frame format
// round-trips and strict corruption rejection, byte-stream reassembly,
// tag-matched delivery under seeded faults, and the headline contract —
// training over the real TCP backend is bit-identical to loopback for every
// method, async mode and thread count (delivered-payload digest plus final
// loss/accuracy bit patterns).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "obs/metrics.h"
#include "pipeline/config.h"
#include "quant/message_codec.h"
#include "runtime/thread_pool.h"
#include "transport/fault.h"
#include "transport/loopback.h"
#include "transport/stream.h"
#include "transport/tcp.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

using pipeline::AsyncModeGuard;
using transport::FaultInjectingTransport;
using transport::FaultSpec;
using transport::FrameHeader;
using transport::FrameKind;
using transport::FrameReader;
using transport::FrameTag;
using transport::LoopbackTransport;
using transport::ScopedTransport;
using transport::TcpOptions;
using transport::TcpTransport;
using transport::TransportError;
using transport::TransportStats;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::vector<std::uint8_t> pattern_payload(std::size_t n, unsigned seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>((i * 131 + seed * 7919 + 17) & 0xFF);
  return p;
}

// ---------------------------------------------------------------------------
// Frame format
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsRaggedPayloadsThroughAnyFragmentation) {
  // Ragged sizes including empty, sub-header, around the header boundary,
  // and bulk — reassembled from chunk sizes that split mid-header and
  // mid-payload.
  const std::size_t sizes[] = {0, 1, 3, 13, 27, 28, 29, 257, 4096};
  const std::size_t chunks[] = {1, 2, 5, 13, 64, 100000};
  for (const std::size_t chunk : chunks) {
    FrameReader reader;
    std::vector<std::uint8_t> wire;
    std::vector<std::vector<std::uint8_t>> sent;
    unsigned seed = 0;
    for (const std::size_t n : sizes) {
      FrameHeader h;
      h.kind = FrameKind::kData;
      h.tag = FrameTag{7, seed + 1, static_cast<std::uint8_t>(seed & 1),
                       static_cast<std::uint8_t>(seed % 4),
                       static_cast<std::uint8_t>((seed + 1) % 4)};
      h.payload_len = static_cast<std::uint32_t>(n);
      sent.push_back(pattern_payload(n, seed));
      std::vector<std::uint8_t> frame;
      transport::write_frame(h, sent.back(), frame);
      wire.insert(wire.end(), frame.begin(), frame.end());
      ++seed;
    }
    for (std::size_t off = 0; off < wire.size(); off += chunk)
      reader.feed({wire.data() + off, std::min(chunk, wire.size() - off)});
    FrameHeader h;
    std::vector<std::uint8_t> payload;
    std::size_t i = 0;
    while (reader.next(h, payload)) {
      ASSERT_LT(i, sent.size());
      EXPECT_EQ(h.tag.channel, 7u);
      EXPECT_EQ(h.tag.round, static_cast<std::uint32_t>(i + 1));
      EXPECT_EQ(payload, sent[i]);
      ++i;
    }
    EXPECT_EQ(i, sent.size()) << "chunk=" << chunk;
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST(Frame, RejectsBadMagicVersionKindAndChecksum) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.tag = FrameTag{1, 2, 0, 0, 1};
  const std::vector<std::uint8_t> payload = pattern_payload(64, 3);
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame;
  transport::write_frame(h, payload, frame);

  {
    std::vector<std::uint8_t> bad = frame;
    bad[0] ^= 0xFF;  // magic
    EXPECT_THROW(
        transport::parse_header({bad.data(), transport::kHeaderBytes}),
        TransportError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] ^= 0xFF;  // version
    EXPECT_THROW(
        transport::parse_header({bad.data(), transport::kHeaderBytes}),
        TransportError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[6] = 0x7E;  // kind
    EXPECT_THROW(
        transport::parse_header({bad.data(), transport::kHeaderBytes}),
        TransportError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[transport::kHeaderBytes + 11] ^= 0x01;  // payload bit flip
    FrameReader reader;
    reader.feed(bad);
    FrameHeader out;
    std::vector<std::uint8_t> p;
    EXPECT_THROW(reader.next(out, p), TransportError);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[12] ^= 0x01;  // header (round) flip: checksum must catch it too
    FrameReader reader;
    reader.feed(bad);
    FrameHeader out;
    std::vector<std::uint8_t> p;
    EXPECT_THROW(reader.next(out, p), TransportError);
  }
}

TEST(Frame, TruncationIsIncompleteNotCorrupt) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.tag = FrameTag{1, 1, 0, 0, 1};
  const std::vector<std::uint8_t> payload = pattern_payload(100, 5);
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame;
  transport::write_frame(h, payload, frame);

  FrameReader reader;
  FrameHeader out;
  std::vector<std::uint8_t> p;
  // A prefix — header or payload cut short — yields "need more bytes", and
  // the eventual remainder completes the frame intact.
  reader.feed({frame.data(), transport::kHeaderBytes - 4});
  EXPECT_FALSE(reader.next(out, p));
  reader.feed({frame.data() + transport::kHeaderBytes - 4, 30});
  EXPECT_FALSE(reader.next(out, p));
  reader.feed({frame.data() + transport::kHeaderBytes + 26,
               frame.size() - transport::kHeaderBytes - 26});
  ASSERT_TRUE(reader.next(out, p));
  EXPECT_EQ(p, payload);
}

TEST(Frame, ChecksumCoversHeaderAndPayloadDeterministically) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.tag = FrameTag{3, 9, 1, 2, 0};
  const std::vector<std::uint8_t> payload = pattern_payload(33, 11);
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> a, b;
  transport::write_frame(h, payload, a);
  transport::write_frame(h, payload, b);
  EXPECT_EQ(a, b);  // byte-stable serialization
  EXPECT_NO_THROW(transport::verify_frame(
      {a.data(), transport::kHeaderBytes},
      {a.data() + transport::kHeaderBytes, payload.size()}));

  // The same frame as the bytewise-table CRC wrote it: under
  // kFrameVersion 1 the serialization, checksum included, never changes.
  static constexpr std::uint8_t kCaptured[] = {
      0xA3, 0xF7, 0xA9, 0xAD, 0x01, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x21, 0x00, 0x00, 0x00,
      0x6D, 0x5D, 0x49, 0x7F, 0x56, 0xD9, 0x5C, 0xDF, 0x62, 0xE5, 0x68, 0xEB,
      0x6E, 0xF1, 0x74, 0xF7, 0x7A, 0xFD, 0x80, 0x03, 0x86, 0x09, 0x8C, 0x0F,
      0x92, 0x15, 0x98, 0x1B, 0x9E, 0x21, 0xA4, 0x27, 0xAA, 0x2D, 0xB0, 0x33,
      0xB6};
  EXPECT_EQ(transport::kFrameVersion, 1);
  EXPECT_EQ(a, std::vector<std::uint8_t>(std::begin(kCaptured),
                                         std::end(kCaptured)));
}

// Bitwise CRC-32 straight from the IEEE definition: the reference the
// table-driven transport::crc32 must match at every length and alignment.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Frame, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(transport::crc32(
                {reinterpret_cast<const std::uint8_t*>(check.data()),
                 check.size()}),
            0xCBF43926u);
  EXPECT_EQ(transport::crc32({}), 0u);
  EXPECT_EQ(transport::crc32({}, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Frame, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buf = pattern_payload(300 + 8, 23);
  for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu})
    for (std::size_t off = 0; off < 8; ++off)
      for (std::size_t len = 0; len <= 300; ++len) {
        const std::span<const std::uint8_t> s(buf.data() + off, len);
        ASSERT_EQ(transport::crc32(s, seed), reference_crc32(s, seed))
            << "seed=" << seed << " off=" << off << " len=" << len;
      }
}

TEST(Frame, Crc32FoldsAcrossAnySplit) {
  const std::vector<std::uint8_t> buf = pattern_payload(97, 29);
  const std::uint32_t whole = transport::crc32(buf);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const std::span<const std::uint8_t> all(buf);
    EXPECT_EQ(transport::crc32(all.subspan(cut),
                               transport::crc32(all.first(cut))),
              whole)
        << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Codec span decode
// ---------------------------------------------------------------------------

TEST(Codec, SpanDecodeMatchesBlockDecodeForAllWidths) {
  Rng rng(99);
  Matrix src(6, 24);
  for (std::size_t r = 0; r < src.rows(); ++r)
    for (std::size_t c = 0; c < src.cols(); ++c)
      src.row(r)[c] = static_cast<float>(rng.normal());
  const std::vector<NodeId> rows = {0, 2, 3, 5};
  const std::vector<int> widths = {2, 4, 8, 32};
  Rng enc_rng(7);
  const EncodedBlock block = encode_rows(src, rows, widths, enc_rng);

  const std::vector<NodeId> dst_rows = {1, 0, 3, 2};
  Matrix via_block(4, 24), via_span(4, 24);
  decode_rows(block, via_block, dst_rows);
  decode_rows(std::span<const std::uint8_t>(block.bytes), via_span, dst_rows);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 24; ++c)
      EXPECT_EQ(via_block.row(r)[c], via_span.row(r)[c]);
}

// ---------------------------------------------------------------------------
// Transport backends, unit level
// ---------------------------------------------------------------------------

TEST(Loopback, DeliversInPlaceAndAccounts) {
  LoopbackTransport lo;
  const std::vector<std::uint8_t> payload = pattern_payload(50, 1);
  const FrameTag tag{4, 1, 0, 0, 2};
  lo.send(tag, payload);
  const auto got = lo.recv(tag, payload);
  EXPECT_EQ(got.data(), payload.data());  // zero-copy
  const TransportStats s = lo.stats();
  EXPECT_EQ(s.frames_delivered, 1u);
  EXPECT_EQ(s.bytes_delivered, payload.size());
  EXPECT_NE(s.digest, 0u);
  EXPECT_TRUE(lo.zero_alloc_delivery());
  EXPECT_EQ(lo.pair_slot(4, 0, 0, 2), nullptr);
}

// Digest of the frames delivered through one LoopbackTransport.
std::uint64_t loopback_digest(
    const std::vector<std::pair<FrameTag, std::vector<std::uint8_t>>>&
        frames) {
  LoopbackTransport lo;
  for (const auto& [tag, payload] : frames) lo.recv(tag, payload);
  return lo.stats().digest;
}

TEST(Digest, EverySingleBitOfAnUnalignedPayloadChangesIt) {
  const FrameTag tag{4, 1, 0, 0, 2};
  std::vector<std::uint8_t> payload = pattern_payload(67, 2);
  const std::uint64_t base = loopback_digest({{tag, payload}});
  EXPECT_NE(base, 0u);
  for (std::size_t i = 0; i < payload.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      payload[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(loopback_digest({{tag, payload}}), base)
          << "byte " << i << " bit " << bit;
      payload[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
}

TEST(Digest, CoversRoundDirectionPairAndLengthButNotChannel) {
  const FrameTag tag{4, 1, 0, 0, 2};
  const std::vector<std::uint8_t> payload = pattern_payload(67, 2);
  const std::uint64_t base = loopback_digest({{tag, payload}});
  FrameTag t = tag;
  t.round = 2;
  EXPECT_NE(loopback_digest({{t, payload}}), base);
  t = tag;
  t.direction = 1;
  EXPECT_NE(loopback_digest({{t, payload}}), base);
  t = tag;
  t.src = 1;
  EXPECT_NE(loopback_digest({{t, payload}}), base);
  t = tag;
  t.dst = 3;
  EXPECT_NE(loopback_digest({{t, payload}}), base);
  std::vector<std::uint8_t> longer = payload;
  longer.push_back(0);
  EXPECT_NE(loopback_digest({{tag, longer}}), base);
  EXPECT_NE(loopback_digest({{tag, {payload.begin(), payload.end() - 1}}}),
            base);
  t = tag;
  t.channel = 99;
  EXPECT_EQ(loopback_digest({{t, payload}}), base);
}

TEST(Digest, IsIndependentOfDeliveryOrder) {
  const FrameTag a{4, 1, 0, 0, 2}, b{5, 3, 1, 2, 0};
  const std::vector<std::uint8_t> pa = pattern_payload(67, 2),
                                  pb = pattern_payload(40, 9);
  const std::uint64_t ab = loopback_digest({{a, pa}, {b, pb}});
  EXPECT_EQ(ab, loopback_digest({{b, pb}, {a, pa}}));
  EXPECT_NE(ab, loopback_digest({{a, pa}}));
  EXPECT_NE(ab, loopback_digest({{b, pb}}));
}

TEST(Tcp, SelfConnectDeliversFramesInSendOrderPerTag) {
  const std::uint64_t rtt_before =
      obs::instruments().transport_rtt_us.count();
  TcpOptions opts;  // rank 0 of 1, ephemeral port
  TcpTransport tcp(opts);
  EXPECT_GT(tcp.listen_port(), 0);
  EXPECT_FALSE(tcp.local_delivery(FrameTag{0, 1, 0, 0, 1}));

  const FrameTag tag{9, 1, 0, 0, 1};
  std::vector<std::vector<std::uint8_t>> sent;
  for (unsigned i = 0; i < 3; ++i) {
    sent.push_back(pattern_payload(40 + 13 * i, i));
    tcp.send(tag, sent.back());
  }
  for (unsigned i = 0; i < 3; ++i) {
    const auto got = tcp.recv(tag, {});
    ASSERT_EQ(got.size(), sent[i].size());
    EXPECT_EQ(0, std::memcmp(got.data(), sent[i].data(), got.size()))
        << "same-tag frames must arrive FIFO";
  }
  const TransportStats s = tcp.stats();
  EXPECT_EQ(s.frames_delivered, 3u);
  EXPECT_GT(obs::instruments().transport_rtt_us.count(), rtt_before)
      << "dial handshake must record an RTT sample";
  // The receive slot is stable storage the race checker can annotate.
  EXPECT_NE(tcp.pair_slot(9, 0, 0, 1), nullptr);
}

TEST(Tcp, CrossPairReorderCannotMixTags) {
  TcpTransport tcp(TcpOptions{});
  const FrameTag t01{2, 1, 0, 0, 1};
  const FrameTag t10{2, 1, 0, 1, 0};
  const auto p01 = pattern_payload(65, 1);
  const auto p10 = pattern_payload(30, 2);
  tcp.send(t01, p01);
  tcp.send(t10, p10);
  // Ask for them in the opposite order: tag matching, not arrival order,
  // decides what a recv sees.
  const auto got10 = tcp.recv(t10, {});
  EXPECT_EQ(0, std::memcmp(got10.data(), p10.data(), p10.size()));
  const auto got01 = tcp.recv(t01, {});
  EXPECT_EQ(0, std::memcmp(got01.data(), p01.data(), p01.size()));
}

TEST(Tcp, ShortWritesSplitAnywhereAcrossHeaderAndPayload) {
  // max_chunk caps every sendmsg, so consecutive writes end inside the
  // header (1, 27), exactly at its end (28), one byte into the payload (29)
  // or deep in it (4096). Each frame must still arrive byte for byte. The
  // 8 MiB payload fills the socket buffer of the self-connect: the send
  // stalls, pumps its own inbound side, and counts short writes.
  const obs::Instruments& ins = obs::instruments();
  const std::uint64_t short_before = ins.transport_short_writes.value();
  for (const int chunk : {1, 27, 28, 29, 4096}) {
    TcpOptions opts;
    opts.max_chunk = chunk;
    TcpTransport tcp(opts);
    const FrameTag tag{13, 1, 0, 0, 1};
    std::vector<std::size_t> sizes = {0, 1, 65};
    // One byte per syscall would take millions of calls: the 8 MiB frame
    // runs at the widest cap only.
    if (chunk == 4096) sizes.push_back(std::size_t{8} << 20);
    std::vector<std::vector<std::uint8_t>> sent;
    for (const std::size_t n : sizes) {
      sent.push_back(pattern_payload(n, static_cast<unsigned>(n % 251)));
      tcp.send(tag, sent.back());
    }
    for (const auto& want : sent) {
      const auto got = tcp.recv(tag, {});
      ASSERT_EQ(got.size(), want.size()) << "max_chunk=" << chunk;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "max_chunk=" << chunk << " size=" << want.size();
    }
  }
  EXPECT_GT(ins.transport_short_writes.value(), short_before)
      << "the 8 MiB frame never stalled the socket";
}

/// A raw client on the listener: it speaks the frame format directly, so
/// the bytes reach TcpTransport's reader exactly as written.
class RawClient {
 public:
  explicit RawClient(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  bool write_frame(const FrameHeader& h,
                   std::span<const std::uint8_t> payload,
                   const std::function<void(std::vector<std::uint8_t>&)>&
                       corrupt) {
    std::vector<std::uint8_t> frame;
    transport::write_frame(h, payload, frame);
    corrupt(frame);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(Tcp, CorruptFrameOnTheSocketIsATypedError) {
  // Hostile bytes on a real socket: a flipped payload bit fails the
  // checksum, a wrong magic fails the header parse. Either way the waiting
  // recv throws TransportError naming the fault, well before its timeout
  // would, and nothing crashes or hangs.
  const FrameTag tag{21, 1, 0, 2, 0};
  const auto payload = pattern_payload(97, 4);
  const auto keep = [](std::vector<std::uint8_t>&) {};
  struct Case {
    const char* what;
    std::function<void(std::vector<std::uint8_t>&)> corrupt;
  };
  const Case cases[] = {
      {"checksum",
       [](std::vector<std::uint8_t>& f) {
         f[transport::kHeaderBytes + 40] ^= 0x10;
       }},
      {"magic", [](std::vector<std::uint8_t>& f) { f[1] ^= 0xFF; }},
  };
  for (const Case& c : cases) {
    TcpOptions opts;
    opts.timeout_ms = 2000;
    TcpTransport tcp(opts);
    RawClient client(tcp.listen_port());
    ASSERT_TRUE(client.connected());
    FrameHeader hello;
    hello.kind = FrameKind::kHello;
    hello.tag = FrameTag{0, 0, 0, tag.src, tag.dst};
    ASSERT_TRUE(client.write_frame(hello, {}, keep));
    FrameHeader data;
    data.kind = FrameKind::kData;
    data.tag = tag;
    ASSERT_TRUE(client.write_frame(data, payload, c.corrupt));
    try {
      tcp.recv(tag, {});
      FAIL() << c.what << ": a corrupt frame was delivered";
    } catch (const TransportError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
      EXPECT_EQ(msg.find("timed out"), std::string::npos) << msg;
    }
  }
}

TEST(Tcp, OversizedLengthIsATypedError) {
  // A header whose length field claims 0xFFFFFFFF payload bytes: the
  // receiver reads payloads straight into buffers sized from that field, so
  // it must refuse the length with a typed error instead of allocating it
  // or waiting for bytes that never come.
  TcpOptions opts;
  opts.timeout_ms = 2000;
  TcpTransport tcp(opts);
  RawClient client(tcp.listen_port());
  ASSERT_TRUE(client.connected());
  const FrameTag tag{22, 1, 0, 1, 0};
  FrameHeader hello;
  hello.kind = FrameKind::kHello;
  hello.tag = FrameTag{0, 0, 0, tag.src, tag.dst};
  ASSERT_TRUE(client.write_frame(hello, {}, [](std::vector<std::uint8_t>&) {
  }));
  FrameHeader data;
  data.kind = FrameKind::kData;
  data.tag = tag;
  ASSERT_TRUE(client.write_frame(data, {}, [](std::vector<std::uint8_t>& f) {
    for (std::size_t i = 20; i < 24; ++i) f[i] = 0xFF;  // payload_len
  }));
  try {
    tcp.recv(tag, {});
    FAIL() << "a 4 GiB length was accepted";
  } catch (const TransportError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("length"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("timed out"), std::string::npos) << msg;
  }
}

TEST(Tcp, ConcurrentReceiversEachGetTheirFrame) {
  // Eight receivers block at once, each on its own slot, while one thread
  // sends their frames in reverse order over three connections. One
  // receiver polls, the rest wait for a pump to queue their frame; a lost
  // wakeup shows as a timeout. The 4 KiB write cap keeps the sender under
  // the lock for many short sendmsg calls, pumping whenever a socket fills.
  const std::size_t sizes[] = {0,      1,      31,      4096,
                               65537, 262144, 524288, std::size_t{1} << 20};
  constexpr int kFrames = 8;
  std::vector<std::pair<FrameTag, std::vector<std::uint8_t>>> frames;
  for (int i = 0; i < kFrames; ++i) {
    const auto src = static_cast<std::uint8_t>(i % 3);
    frames.emplace_back(
        FrameTag{static_cast<std::uint32_t>(40 + i), 1,
                 static_cast<std::uint8_t>(i & 1), src,
                 static_cast<std::uint8_t>(src + 1)},
        pattern_payload(sizes[i], static_cast<unsigned>(i)));
  }
  TcpOptions opts;
  opts.max_chunk = 4096;
  opts.timeout_ms = 10000;
  TcpTransport tcp(opts);
  std::vector<std::vector<std::uint8_t>> got(kFrames);
  std::vector<std::string> errors(kFrames);
  std::vector<std::thread> receivers;
  for (int i = 0; i < kFrames; ++i)
    receivers.emplace_back([&, i] {
      try {
        const auto span = tcp.recv(frames[i].first, {});
        got[i].assign(span.begin(), span.end());
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  std::thread sender([&] {
    for (int i = kFrames - 1; i >= 0; --i)
      tcp.send(frames[i].first, frames[i].second);
  });
  sender.join();
  for (std::thread& t : receivers) t.join();
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(errors[i], "") << "receiver " << i;
    EXPECT_EQ(got[i], frames[i].second) << "receiver " << i;
  }
  LoopbackTransport lo;
  for (const auto& [tag, payload] : frames) lo.recv(tag, payload);
  const TransportStats want = lo.stats(), have = tcp.stats();
  EXPECT_EQ(have.frames_delivered, want.frames_delivered);
  EXPECT_EQ(have.bytes_delivered, want.bytes_delivered);
  EXPECT_EQ(have.digest, want.digest);
}

TEST(Tcp, MultiProcessNeedsExplicitBasePort) {
  TcpOptions opts;
  opts.rank = 0;
  opts.nprocs = 2;
  opts.base_port = 0;
  EXPECT_THROW(TcpTransport{opts}, TransportError);
}

TEST(Fault, SeededScheduleDeliversBitIdenticalPayloads) {
  FaultSpec spec;
  spec.seed = 5;
  spec.delay_us = 30;
  spec.reorder = 2;
  spec.split = 7;
  const std::uint64_t splits_before =
      obs::instruments().transport_fault_splits.value();
  FaultInjectingTransport ft(std::make_unique<LoopbackTransport>(), spec);
  EXPECT_STREQ(ft.name(), "fault+loopback");

  std::vector<std::vector<std::uint8_t>> sent;
  for (unsigned r = 1; r <= 5; ++r) {
    const FrameTag tag{11, r, 0, 1, 3};
    sent.push_back(pattern_payload(20 * r + 3, r));
    ft.send(tag, sent.back());
  }
  for (unsigned r = 1; r <= 5; ++r) {
    const FrameTag tag{11, r, 0, 1, 3};
    const auto got = ft.recv(tag, {});
    ASSERT_EQ(got.size(), sent[r - 1].size());
    EXPECT_EQ(0, std::memcmp(got.data(), sent[r - 1].data(), got.size()))
        << "round " << r << " payload corrupted by faults";
  }
  EXPECT_GT(obs::instruments().transport_fault_splits.value(), splits_before)
      << "split knob must actually fragment the stream";
  EXPECT_EQ(ft.stats().frames_delivered, 5u);
}

TEST(Fault, DropSurfacesTypedTimeoutNotHang) {
  FaultSpec spec;
  spec.seed = 1;
  spec.drop_permille = 1000;
  spec.timeout_ms = 100;
  FaultInjectingTransport ft(std::make_unique<LoopbackTransport>(), spec);
  const FrameTag tag{6, 1, 1, 0, 1};
  const auto payload = pattern_payload(32, 1);
  ft.send(tag, payload);
  try {
    ft.recv(tag, payload);
    FAIL() << "dropped frame must not be delivered";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("ch6/r1"), std::string::npos)
        << "error must name the missing frame: " << what;
  }
}

// ---------------------------------------------------------------------------
// End-to-end byte identity: loopback == tcp == faulted loopback
// ---------------------------------------------------------------------------

DatasetSpec wire_spec() {
  DatasetSpec spec;
  spec.name = "wire_small";
  spec.num_nodes = 500;
  spec.avg_degree = 8.0;
  spec.feature_dim = 12;
  spec.num_classes = 5;
  spec.intra_prob = 0.8;
  return spec;
}

struct WireRun {
  std::uint64_t loss_bits = 0;
  std::uint64_t val_bits = 0;
  std::uint64_t test_bits = 0;
  std::uint64_t comm_bytes = 0;
  TransportStats stats;
};

WireRun run_wire(const Dataset& ds, Method method, bool async, int threads,
                 std::unique_ptr<transport::Transport> tp, int epochs = 6) {
  AsyncModeGuard async_guard(async);
  ThreadCountGuard thread_guard(threads);
  ScopedTransport guard(std::move(tp));
  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 2;
  mc.dropout = 0.3f;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = epochs;
  opts.seed = 21;
  opts.reassign_period = 4;
  WireRun out;
  {
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    const RunResult r = trainer.run();
    out.loss_bits = bits_of(r.epochs.back().train_loss);
    out.val_bits = bits_of(r.final_val_acc);
    out.test_bits = bits_of(r.final_test_acc);
    out.comm_bytes = r.total_comm_bytes;
  }
  // Trainer destroyed: every deferred exchange has joined, all frames are
  // accounted. (The guard must outlive the trainer.)
  out.stats = guard.get().stats();
  return out;
}

struct WireCase {
  Method method;
  bool async;
  int threads;
};

std::string wire_case_name(const ::testing::TestParamInfo<WireCase>& info) {
  std::string n = method_name(info.param.method);
  std::erase_if(n, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
  n += info.param.async ? "_async" : "_sync";
  n += "_t" + std::to_string(info.param.threads);
  return n;
}

class WireIdentityTest : public ::testing::TestWithParam<WireCase> {};

TEST_P(WireIdentityTest, TcpIsBitIdenticalToLoopback) {
  const WireCase& c = GetParam();
  Rng rng(33);
  const Dataset ds = make_dataset(wire_spec(), rng);
  const WireRun lo = run_wire(ds, c.method, c.async, c.threads,
                              std::make_unique<LoopbackTransport>());
  const WireRun tcp = run_wire(ds, c.method, c.async, c.threads,
                               std::make_unique<TcpTransport>(TcpOptions{}));
  // The payload multiset that crossed the transport is identical...
  EXPECT_EQ(lo.stats.frames_delivered, tcp.stats.frames_delivered);
  EXPECT_EQ(lo.stats.bytes_delivered, tcp.stats.bytes_delivered);
  EXPECT_EQ(lo.stats.digest, tcp.stats.digest)
      << "delivered payloads diverged between loopback and tcp";
  EXPECT_GT(tcp.stats.frames_delivered, 0u);
  // ...and so is everything trained from it, to the last bit.
  EXPECT_EQ(lo.loss_bits, tcp.loss_bits);
  EXPECT_EQ(lo.val_bits, tcp.val_bits);
  EXPECT_EQ(lo.test_bits, tcp.test_bits);
  EXPECT_EQ(lo.comm_bytes, tcp.comm_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsModesThreads, WireIdentityTest,
    ::testing::Values(
        WireCase{Method::kVanilla, false, 1},
        WireCase{Method::kVanilla, true, 4},
        WireCase{Method::kAdaQP, false, 1},
        WireCase{Method::kAdaQP, false, 4},
        WireCase{Method::kAdaQP, true, 1},
        WireCase{Method::kAdaQP, true, 4},
        WireCase{Method::kAdaQPUniform, false, 1},
        WireCase{Method::kAdaQPUniform, true, 4},
        WireCase{Method::kPipeGCN, false, 1},
        WireCase{Method::kPipeGCN, true, 1},
        WireCase{Method::kPipeGCN, true, 4},
        WireCase{Method::kSancus, false, 1},
        WireCase{Method::kSancus, true, 4}),
    wire_case_name);

// Seeded delay / reorder / short-I/O schedules shuffle arrival, fragment
// streams and stall stages — and must change nothing: tag-matched delivery
// makes the faulted run bit-identical to the fault-free baseline. This is
// also the regression pin for two latent exchange-stage assumptions
// (submit-order delivery; decoding the sender's buffer address instead of
// the delivered bytes): under reorder+split the decoded span is a
// reassembled copy delivered out of submit order, so either regression
// breaks these expectations.
class FaultIdentityTest : public ::testing::TestWithParam<WireCase> {};

TEST_P(FaultIdentityTest, FaultedRunMatchesBaselineBitForBit) {
  const WireCase& c = GetParam();
  Rng rng(34);
  const Dataset ds = make_dataset(wire_spec(), rng);
  const WireRun base = run_wire(ds, c.method, c.async, c.threads,
                                std::make_unique<LoopbackTransport>());
  FaultSpec spec;
  spec.seed = 77;
  spec.delay_us = 40;
  spec.reorder = 3;
  spec.split = 11;
  const obs::Instruments& ins = obs::instruments();
  const std::uint64_t reorders_before = ins.transport_fault_reorders.value();
  const std::uint64_t delays_before = ins.transport_fault_delays.value();
  const WireRun faulted =
      run_wire(ds, c.method, c.async, c.threads,
               std::make_unique<FaultInjectingTransport>(
                   std::make_unique<LoopbackTransport>(), spec));
  EXPECT_GT(ins.transport_fault_reorders.value(), reorders_before)
      << "schedule injected no reorders — the test proved nothing";
  EXPECT_GT(ins.transport_fault_delays.value(), delays_before);
  EXPECT_EQ(base.stats.frames_delivered, faulted.stats.frames_delivered);
  EXPECT_EQ(base.stats.digest, faulted.stats.digest);
  EXPECT_EQ(base.loss_bits, faulted.loss_bits);
  EXPECT_EQ(base.val_bits, faulted.val_bits);
  EXPECT_EQ(base.test_bits, faulted.test_bits);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsUnderFaults, FaultIdentityTest,
    ::testing::Values(WireCase{Method::kVanilla, true, 4},
                      WireCase{Method::kAdaQP, false, 1},
                      WireCase{Method::kAdaQP, true, 4},
                      WireCase{Method::kPipeGCN, true, 4},
                      WireCase{Method::kSancus, false, 1}),
    wire_case_name);

TEST(FaultTraining, DropThenTimeoutThrowsTransportErrorNotHang) {
  Rng rng(35);
  const Dataset ds = make_dataset(wire_spec(), rng);
  FaultSpec spec;
  spec.seed = 2;
  spec.drop_permille = 1000;
  spec.timeout_ms = 150;
  EXPECT_THROW(run_wire(ds, Method::kVanilla, /*async=*/false, /*threads=*/1,
                        std::make_unique<FaultInjectingTransport>(
                            std::make_unique<LoopbackTransport>(), spec),
                        /*epochs=*/2),
               TransportError);
}

// ---------------------------------------------------------------------------
// Wire identity: every frame of an epoch carries its own tag
// ---------------------------------------------------------------------------

/// Loopback decorator that records the tag of every send.
class RecordingTransport final : public transport::Transport {
 public:
  const char* name() const override { return "recording"; }

  void send(const FrameTag& tag,
            std::span<const std::uint8_t> payload) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      sent_.push_back(tag);
    }
    inner_.send(tag, payload);
  }

  std::span<const std::uint8_t> recv(
      const FrameTag& tag, std::span<const std::uint8_t> local) override {
    return inner_.recv(tag, local);
  }

  TransportStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

  std::vector<FrameTag> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(sent_, {});
  }

 private:
  LoopbackTransport inner_;
  std::mutex mu_;
  std::vector<FrameTag> sent_;
};

/// A tag names one frame of one exchange: two frames sharing it could be
/// delivered to the wrong recv as soon as two exchanges overlap in time.
// Every exchange round of a run — layer graphs run in place, PipeGCN's
// deferred rounds (launched in one epoch, joined in the next, sharing a
// channel with their cold-epoch synchronous round), the end-of-run drain and
// the one-shot evaluation exchanges — ships under a tag no other frame of
// the run uses.
class WireTags : public ::testing::TestWithParam<Method> {};

TEST_P(WireTags, NoTagRepeatsWithinARun) {
  Rng rng(36);
  const Dataset ds = make_dataset(wire_spec(), rng);
  Rng prng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, prng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  auto owned = std::make_unique<RecordingTransport>();
  RecordingTransport& rec = *owned;
  ScopedTransport guard(std::move(owned));
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 16;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  TrainOptions opts;
  opts.method = GetParam();
  opts.epochs = 4;
  opts.reassign_period = 2;
  DistTrainer trainer(ds, dist, cluster, mc, opts);
  trainer.run();
  const std::vector<FrameTag> tags = rec.take();
  ASSERT_FALSE(tags.empty());
  std::set<std::tuple<std::uint32_t, std::uint32_t, int, int, int>> seen;
  for (const FrameTag& t : tags)
    EXPECT_TRUE(
        seen.emplace(t.channel, t.round, t.direction, t.src, t.dst).second)
        << "repeated tag {channel " << t.channel << ", round " << t.round
        << ", direction " << int{t.direction} << ", " << int{t.src} << "->"
        << int{t.dst} << "}";
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, WireTags,
    ::testing::Values(Method::kVanilla, Method::kAdaQP, Method::kAdaQPUniform,
                      Method::kPipeGCN, Method::kSancus),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string n = method_name(info.param);
      std::erase_if(n, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      });
      return n;
    });

}  // namespace
}  // namespace adaqp
