#include "transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace adaqp::transport {

namespace {

std::uint16_t pair_key(std::uint8_t src, std::uint8_t dst) {
  return static_cast<std::uint16_t>((src << 8) | dst);
}

sockaddr_in localhost_addr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpOptions TcpOptions::from_env() {
  TcpOptions o;
  o.rank = static_cast<int>(
      env::int_in_range("ADAQP_TP_RANK", 0, 255).value_or(0));
  o.nprocs = static_cast<int>(
      env::int_in_range("ADAQP_TP_NPROCS", 1, 64).value_or(1));
  o.base_port = static_cast<int>(
      env::int_in_range("ADAQP_TP_BASE_PORT", 0, 65535).value_or(0));
  o.timeout_ms = static_cast<int>(
      env::int_in_range("ADAQP_TP_TIMEOUT_MS", 1, 600'000L).value_or(20000));
  o.max_chunk = static_cast<int>(
      env::int_in_range("ADAQP_TP_MAX_CHUNK", 0, 1 << 20).value_or(0));
  return o;
}

TcpTransport::TcpTransport(TcpOptions opts) : opts_(opts) {
  if (opts_.rank < 0 || opts_.rank >= opts_.nprocs)
    throw TransportError("transport: ADAQP_TP_RANK must be in [0, nprocs)");
  if (opts_.nprocs > 1 && opts_.base_port == 0)
    throw TransportError(
        "transport: multi-process tcp needs an explicit ADAQP_TP_BASE_PORT "
        "(an ephemeral listener cannot be dialed by other ranks)");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int want_port =
      opts_.base_port == 0 ? 0 : opts_.base_port + opts_.rank;
  const sockaddr_in addr = localhost_addr(want_port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0)
    throw_errno("bind");
  if (::listen(listen_fd_, 128) < 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0)
    throw_errno("getsockname");
  listen_port_ = ntohs(bound.sin_port);
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const auto& [key, fd] : out_) ::close(fd);
  for (const InConn& c : in_)
    if (!c.closed && c.fd >= 0) ::close(c.fd);
}

void TcpTransport::throw_errno(const char* what) const {
  throw TransportError(std::string("transport: tcp ") + what + " failed: " +
                       std::strerror(errno));
}

int TcpTransport::dial_locked(int port, std::uint8_t src, std::uint8_t dst) {
  const obs::Instruments& ins = obs::instruments();
  const double t0 = obs::monotonic_us();
  const double deadline = t0 + static_cast<double>(opts_.timeout_ms) * 1000.0;
  const sockaddr_in addr = localhost_addr(port);
  for (;;) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      while (::poll(&pfd, 1, 1) == 0 && obs::monotonic_us() < deadline) {
        // Keep draining inbound while our connect is pending, so a peer
        // (or this process itself) blocked on us still makes progress.
        pump_locked();
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
      errno = err;
    }
    if (rc == 0) {
      set_nodelay(fd);
      ins.transport_rtt_us.record(obs::monotonic_us() - t0);
      FrameHeader hello;
      hello.kind = FrameKind::kHello;
      hello.tag = FrameTag{0, 0, 0, src, dst};
      write_frame(hello, {}, frame_buf_);
      write_all_locked(fd, frame_buf_);
      return fd;
    }
    ::close(fd);
    if (errno != ECONNREFUSED && errno != EAGAIN && errno != ETIMEDOUT)
      throw_errno("connect");
    if (obs::monotonic_us() > deadline)
      throw TransportError(
          "transport: tcp connect to 127.0.0.1:" + std::to_string(port) +
          " timed out after " + std::to_string(opts_.timeout_ms) +
          " ms (is the peer rank running?)");
    // The peer rank has not opened its listener yet (startup race): back
    // off briefly and retry.
    ins.transport_reconnects.add(1);
    pump_locked();
    pollfd lfd{listen_fd_, POLLIN, 0};
    ::poll(&lfd, 1, 2);
  }
}

int TcpTransport::ensure_out_locked(std::uint8_t src, std::uint8_t dst) {
  const std::uint16_t key = pair_key(src, dst);
  const auto it = out_.find(key);
  if (it != out_.end()) return it->second;
  const int port =
      opts_.base_port == 0 ? listen_port_ : opts_.base_port + owner(dst);
  const int fd = dial_locked(port, src, dst);
  out_.emplace(key, fd);
  return fd;
}

void TcpTransport::write_all_locked(int fd,
                                    std::span<const std::uint8_t> bytes) {
  const obs::Instruments& ins = obs::instruments();
  const double deadline =
      obs::monotonic_us() + static_cast<double>(opts_.timeout_ms) * 1000.0;
  std::size_t off = 0;
  while (off < bytes.size()) {
    std::size_t want = bytes.size() - off;
    if (opts_.max_chunk > 0)
      want = std::min(want, static_cast<std::size_t>(opts_.max_chunk));
    const ssize_t n =
        ::send(fd, bytes.data() + off, want, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      if (static_cast<std::size_t>(n) < want)
        ins.transport_short_writes.add(1);
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
      throw_errno("send");
    ins.transport_short_writes.add(1);
    // Socket buffer full. The lock holder must keep the world draining:
    // pump inbound (frees the peer — or ourselves, on a self-connect — to
    // read), then wait for writability briefly.
    pump_locked();
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, 1);
    if (obs::monotonic_us() > deadline)
      throw TransportError(
          "transport: tcp send stalled for " +
          std::to_string(opts_.timeout_ms) + " ms (peer not draining?)");
  }
}

void TcpTransport::pump_locked() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;
    set_nodelay(fd);
    InConn conn;
    conn.fd = fd;
    in_.push_back(std::move(conn));
  }
  std::uint8_t scratch[65536];
  for (InConn& c : in_) {
    if (c.closed) continue;
    for (;;) {
      const ssize_t n = ::recv(c.fd, scratch, sizeof(scratch), 0);
      if (n > 0) {
        c.reader.feed({scratch, static_cast<std::size_t>(n)});
        if (static_cast<std::size_t>(n) < sizeof(scratch)) break;
        continue;
      }
      if (n == 0) {
        // Orderly FIN: the peer is done sending. Everything it sent is
        // already queued ahead of the FIN, so this is not an error — a
        // receiver still waiting will surface a timeout with context.
        ::close(c.fd);
        c.closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == ECONNRESET) {
        ::close(c.fd);
        c.closed = true;
        break;
      }
      throw_errno("recv");
    }
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    while (c.reader.next(header, payload)) {
      if (header.kind == FrameKind::kHello) continue;
      inbox_.push(header.tag, std::move(payload));
      payload = {};
    }
  }
}

void TcpTransport::send(const FrameTag& tag,
                        std::span<const std::uint8_t> payload) {
  if (owner(tag.src) != opts_.rank) return;  // the owning replica sends it
  const obs::Instruments& ins = obs::instruments();
  FrameHeader header;
  header.kind = FrameKind::kData;
  header.tag = tag;
  header.payload_len = static_cast<std::uint32_t>(payload.size());

  std::lock_guard<std::mutex> lk(mu_);
  const int fd = ensure_out_locked(tag.src, tag.dst);
  write_frame(header, payload, frame_buf_);
  ins.transport_wire_frames.add(1);
  ins.transport_wire_bytes.add(frame_buf_.size());
  write_all_locked(fd, frame_buf_);
}

std::span<const std::uint8_t> TcpTransport::recv(
    const FrameTag& tag, std::span<const std::uint8_t> local) {
  if (owner(tag.dst) != opts_.rank) {
    // Not the receiving owner: decode this replica's own encoding in place
    // (bit-identical to the wire bytes by the determinism contract).
    return account_delivery(tag, local);
  }
  const double deadline =
      obs::monotonic_us() + static_cast<double>(opts_.timeout_ms) * 1000.0;
  std::vector<pollfd> fds;
  for (;;) {
    const std::vector<std::uint8_t>* p = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      pump_locked();
      p = inbox_.take(tag);
      if (!p) {
        fds.clear();
        fds.push_back({listen_fd_, POLLIN, 0});
        for (const InConn& c : in_)
          if (!c.closed) fds.push_back({c.fd, POLLIN, 0});
      }
    }
    if (p) return account_delivery(tag, {p->data(), p->size()});
    if (obs::monotonic_us() > deadline)
      throw TransportError("transport: tcp recv timed out after " +
                           std::to_string(opts_.timeout_ms) +
                           " ms waiting for " + tag_to_string(tag));
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 1);
  }
}

const void* TcpTransport::pair_slot(std::uint32_t channel,
                                    std::uint8_t direction, int src,
                                    int dst) {
  if (owner(dst) != opts_.rank) return nullptr;  // delivered in place here
  std::lock_guard<std::mutex> lk(mu_);
  return inbox_.slot(channel, direction, src, dst);
}

}  // namespace adaqp::transport
