// Real-wire backend: framed halo messages over non-blocking localhost TCP
// (docs/TRANSPORT.md, "TCP backend").
//
// Devices are mapped to processes by `owner(dev) = dev % nprocs`. Every rank
// runs the full replicated N-device simulation; this backend puts a frame on
// a socket when this rank owns the sender, and makes the receiving decode
// wait for the wire bytes when this rank owns the receiver. Frames whose
// sender and receiver are both owned elsewhere are delivered in place from
// the local replica (their bytes cross the wire between the two owning
// ranks). With nprocs == 1 every frame self-connects through a real
// localhost socket, so plain `ADAQP_TRANSPORT=tcp ctest` exercises the whole
// framing / reassembly / inbox path without any orchestration.
//
// One connection per directed device pair, dialed lazily by the sender and
// opened with a hello frame. A sender builds the frame header and its
// checksum on its own stack before locking, and writes {header, payload}
// straight from its buffers. A single internal mutex serializes all socket
// work (dials, sendmsg/recv, pumping and receive-side verification), and
// the lock holder always pumps *every* readable fd before waiting, so a
// send blocked on a full socket buffer still drains inbound frames — no
// self-connect or cross-rank deadlock.
//
// Ports: with ADAQP_TP_BASE_PORT unset (0), the listener binds an ephemeral
// port — only valid single-process, but it makes concurrent `ctest -j` runs
// collision-free. Multi-process runs must set an explicit base port; rank r
// listens on base_port + r.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "transport/stream.h"
#include "transport/transport.h"

namespace adaqp::transport {

struct TcpOptions {
  int rank = 0;
  int nprocs = 1;
  int base_port = 0;       ///< 0 = ephemeral listener (single-process only)
  int timeout_ms = 20000;  ///< dial + recv deadline
  int max_chunk = 0;       ///< cap bytes per socket write (0 = no cap)

  /// ADAQP_TP_RANK / _NPROCS / _BASE_PORT / _TIMEOUT_MS / _MAX_CHUNK,
  /// strictly parsed (common/env.h).
  static TcpOptions from_env();
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpOptions opts);
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }

  void send(const FrameTag& tag,
            std::span<const std::uint8_t> payload) override;
  std::span<const std::uint8_t> recv(
      const FrameTag& tag, std::span<const std::uint8_t> local) override;

  /// In place only when neither endpoint is owned here: the frame's bytes
  /// cross the wire between two other ranks and this replica just reuses
  /// its own encoding.
  bool local_delivery(const FrameTag& tag) const override {
    return owner(tag.src) != opts_.rank && owner(tag.dst) != opts_.rank;
  }
  const void* pair_slot(std::uint32_t channel, std::uint8_t direction,
                        int src, int dst) override;

  const TcpOptions& options() const { return opts_; }
  int listen_port() const { return listen_port_; }
  int owner(int device) const { return device % opts_.nprocs; }

 private:
  struct InConn {
    int fd = -1;
    FrameReader reader;
    bool closed = false;
  };

  int ensure_out_locked(std::uint8_t src, std::uint8_t dst);
  int dial_locked(int port, std::uint8_t src, std::uint8_t dst);
  /// Write one frame, {header[0..kHeaderBytes), payload}, with sendmsg:
  /// short writes resume mid-frame, max_chunk caps each call, and a full
  /// socket buffer pumps inbound until writable or timeout_ms.
  void write_all_locked(int fd, const std::uint8_t* header,
                        std::span<const std::uint8_t> payload);
  void pump_locked();
  void throw_errno(const char* what) const;

  TcpOptions opts_;
  int listen_fd_ = -1;
  int listen_port_ = 0;

  std::mutex mu_;
  std::map<std::uint16_t, int> out_;  ///< (src<<8|dst) -> connected fd
  std::vector<InConn> in_;            ///< accepted connections
  Inbox inbox_;
};

}  // namespace adaqp::transport
