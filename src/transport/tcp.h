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
// framing / inbox path without any orchestration.
//
// One connection per directed device pair, dialed lazily by the sender and
// opened with a hello frame. A sender builds the frame header and its
// checksum on its own stack before locking, and writes {header, payload}
// straight from its buffers. The receive side copies each payload byte once:
// a connection reads a frame's 28-byte header, then its payload straight
// into a buffer of the frame's (channel, direction, pair) Inbox slot — with
// nprocs == 1, the buffer the slot's previous round was delivered from,
// since that round's decode has finished before this frame was sent. The
// receiving thread verifies the checksum and hashes the payload after it
// has released the lock.
//
// A single internal mutex serializes the socket work (dials, sendmsg/recv,
// pumping) and the inbox. Whoever holds it pumps *every* readable fd before
// waiting, so a send blocked on a full socket buffer still drains inbound
// frames — no self-connect or cross-rank deadlock. The listener, every
// accepted connection and a wake eventfd share one epoll set. A receiver
// whose frame has not arrived either waits in epoll_wait (the poller: at
// most one thread at a time, outside the lock) or on a condition variable;
// every pump that queues a frame notifies the waiters, and signals the
// eventfd when the pump ran on another thread than the poller, so no frame
// is left waiting for a poll timeout.
//
// Steady state allocates nothing with nprocs == 1 (zero_alloc_delivery).
// With more ranks a peer may send a slot's next round while this rank still
// decodes the previous one; such a frame takes a spare buffer, and the
// spare pool is not sized in advance.
//
// Ports: with ADAQP_TP_BASE_PORT unset (0), the listener binds an ephemeral
// port — only valid single-process, but it makes concurrent `ctest -j` runs
// collision-free. Multi-process runs must set an explicit base port; rank r
// listens on base_port + r.
#pragma once

#include <sys/epoll.h>

#include <array>
#include <chrono>
#include <condition_variable>
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
  /// Single-process only: there a slot's next frame arrives after its
  /// previous round's decode, so it reuses that round's buffer.
  bool zero_alloc_delivery() const override { return opts_.nprocs == 1; }
  void fit_slot(std::uint32_t channel, std::uint8_t direction, int src,
                int dst, std::size_t bytes) override;
  void release_channel(std::uint32_t channel) override;

  /// Inbox slots currently held (channels not yet released).
  std::size_t slot_count();

  const TcpOptions& options() const { return opts_; }
  int listen_port() const { return listen_port_; }
  int owner(int device) const { return device % opts_.nprocs; }

 private:
  using Clock = std::chrono::steady_clock;

  /// An accepted connection and how far its current frame has been read:
  /// the header into `head`, then the payload into `body`, the buffer
  /// Inbox::begin handed out for it.
  struct InConn {
    int fd = -1;         ///< -1 once the peer closed it (or sent garbage)
    bool hello = false;  ///< the hello frame has named the pair (src, dst)
    std::uint8_t src = 0;
    std::uint8_t dst = 0;
    std::array<std::uint8_t, kHeaderBytes> head{};
    std::size_t head_have = 0;
    Inbox::Slot* slot = nullptr;  ///< set while a payload is being read
    std::uint8_t* body = nullptr;
    std::size_t body_len = 0;
    std::size_t body_have = 0;
  };
  /// epoll keys: in_ index for a connection, else one of these.
  static constexpr std::uint64_t kListenKey = ~std::uint64_t{0};
  static constexpr std::uint64_t kWakeKey = ~std::uint64_t{1};

  int ensure_out_locked(std::uint8_t src, std::uint8_t dst);
  int dial_locked(int port, std::uint8_t src, std::uint8_t dst);
  /// Write one frame, {header[0..kHeaderBytes), payload}, with sendmsg:
  /// short writes resume mid-frame, max_chunk caps each call, and a full
  /// socket buffer pumps inbound until writable or timeout_ms.
  void write_all_locked(int fd, const std::uint8_t* header,
                        std::span<const std::uint8_t> payload);
  void watch_locked(int fd, std::uint64_t key);
  /// Accept pending connections and read every readable one; notifies
  /// waiters (and wakes a poller on another thread) when a frame completes.
  void pump_locked();
  /// Read what `c` has buffered; true when a frame completed.
  bool read_conn_locked(InConn& c);
  void close_conn_locked(InConn& c);
  /// Block until `tag`'s frame is queued, then take it into `got`.
  void await_locked(std::unique_lock<std::mutex>& lk, const FrameTag& tag,
                    Clock::time_point deadline, Inbox::Delivery& got);
  void throw_errno(const char* what) const;

  TcpOptions opts_;
  int listen_fd_ = -1;
  int listen_port_ = 0;
  int wake_fd_ = -1;   ///< eventfd: a pump on another thread wakes the poller
  int epoll_fd_ = -1;  ///< listener, wake fd and every accepted connection

  std::mutex mu_;
  std::condition_variable cv_;  ///< a frame was queued, or the poller left
  bool polling_ = false;  ///< a receiver is in epoll_wait outside mu_
  std::array<epoll_event, 64> ready_{};  ///< pump_locked's event buffer
  std::map<std::uint16_t, int> out_;  ///< (src<<8|dst) -> connected fd
  std::vector<InConn> in_;            ///< accepted connections
  Inbox inbox_;
};

}  // namespace adaqp::transport
