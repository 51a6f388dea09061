// lint:hot-path-file — single-process TCP delivery runs through this TU in
// steady-state epochs; every growth call below is warmup- or build-time only.
#include "transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  watch_locked(listen_fd_, kListenKey);
  watch_locked(wake_fd_, kWakeKey);
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  for (const auto& [key, fd] : out_) ::close(fd);
  for (const InConn& c : in_)
    if (c.fd >= 0) ::close(c.fd);
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
      std::uint8_t head[kHeaderBytes];
      write_header(hello, {}, head);
      write_all_locked(fd, head, {});
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
                                    const std::uint8_t* header,
                                    std::span<const std::uint8_t> payload) {
  const obs::Instruments& ins = obs::instruments();
  const double deadline =
      obs::monotonic_us() + static_cast<double>(opts_.timeout_ms) * 1000.0;
  const std::size_t total = kHeaderBytes + payload.size();
  std::size_t off = 0;
  while (off < total) {
    std::size_t want = total - off;
    if (opts_.max_chunk > 0)
      want = std::min(want, static_cast<std::size_t>(opts_.max_chunk));
    // The next `want` unsent bytes of {header, payload}, as one or two
    // iovecs over the caller's buffers.
    iovec iov[2];
    std::size_t niov = 0;
    std::size_t left = want;
    if (off < kHeaderBytes) {
      const std::size_t h = std::min(left, kHeaderBytes - off);
      iov[niov++] = {const_cast<std::uint8_t*>(header + off), h};
      left -= h;
    }
    if (left > 0) {
      const std::size_t at = off > kHeaderBytes ? off - kHeaderBytes : 0;
      iov[niov++] = {const_cast<std::uint8_t*>(payload.data() + at), left};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
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

void TcpTransport::watch_locked(int fd, std::uint64_t key) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
    throw_errno("epoll_ctl");
}

void TcpTransport::pump_locked() {
  bool progress = false;
  // Waiters re-check the inbox; a poller blocked outside the lock (never
  // this thread: it clears polling_ before pumping) is woken to do so.
  const auto signal = [&] {
    if (!progress) return;
    cv_.notify_all();
    if (polling_) {
      const std::uint64_t one = 1;
      (void)!::write(wake_fd_, &one, sizeof(one));
    }
  };
  try {
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_, ready_.data(),
                                 static_cast<int>(ready_.size()), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("epoll_wait");
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t key =
            ready_[static_cast<std::size_t>(i)].data.u64;
        if (key == kWakeKey) continue;  // the poller drains it
        if (key != kListenKey) {
          if (read_conn_locked(in_[key])) progress = true;
          continue;
        }
        for (;;) {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          set_nodelay(fd);
          in_.push_back(InConn{.fd = fd});  // lint:allow(hot-path-alloc) warmup: each pair connects once
          watch_locked(fd, in_.size() - 1);
        }
      }
      if (n < static_cast<int>(ready_.size())) break;
    }
  } catch (...) {
    signal();
    throw;
  }
  signal();
}

void TcpTransport::close_conn_locked(InConn& c) {
  ::close(c.fd);  // also leaves the epoll set
  c.fd = -1;
}

bool TcpTransport::read_conn_locked(InConn& c) {
  bool queued = false;
  while (c.fd >= 0) {
    std::uint8_t* to = c.slot ? c.body + c.body_have
                              : c.head.data() + c.head_have;
    const std::size_t want =
        c.slot ? c.body_len - c.body_have : kHeaderBytes - c.head_have;
    const ssize_t n = ::recv(c.fd, to, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != ECONNRESET) throw_errno("recv");
    }
    if (n <= 0) {
      // FIN or reset: the peer is done sending. Everything it sent is
      // already queued ahead of it, so this is not an error — a receiver
      // still waiting will surface a timeout with context.
      close_conn_locked(c);
      break;
    }
    if (c.slot) {
      c.body_have += static_cast<std::size_t>(n);
      if (c.body_have < c.body_len) continue;
      Inbox::finish(*c.slot);
      c.slot = nullptr;
      queued = true;
      continue;
    }
    c.head_have += static_cast<std::size_t>(n);
    if (c.head_have < kHeaderBytes) continue;
    c.head_have = 0;
    // Magic, version, kind and length are checked here, the checksum on
    // the receiving thread once the payload is in. A stream that fails is
    // closed: nothing after the bad header can be framed.
    FrameHeader header;
    try {
      header = parse_header(c.head);
      if (header.kind == FrameKind::kHello && header.payload_len != 0)
        throw TransportError("transport: tcp hello frame declares a payload");
      if (header.kind == FrameKind::kData &&
          (!c.hello || header.tag.src != c.src || header.tag.dst != c.dst))
        throw TransportError("transport: tcp frame " +
                             tag_to_string(header.tag) +
                             " arrived on another pair's connection");
    } catch (...) {
      close_conn_locked(c);
      throw;
    }
    if (header.kind == FrameKind::kHello) {
      c.hello = true;
      c.src = header.tag.src;
      c.dst = header.tag.dst;
      continue;
    }
    Inbox::Slot& slot =
        inbox_.begin(header, c.head, /*reuse_delivered=*/opts_.nprocs == 1);
    if (header.payload_len == 0) {
      Inbox::finish(slot);
      queued = true;
      continue;
    }
    c.slot = &slot;
    c.body = slot.frames.back().bytes.data();
    c.body_len = header.payload_len;
    c.body_have = 0;
  }
  return queued;
}

void TcpTransport::send(const FrameTag& tag,
                        std::span<const std::uint8_t> payload) {
  if (owner(tag.src) != opts_.rank) return;  // the owning replica sends it
  const obs::Instruments& ins = obs::instruments();
  FrameHeader header;
  header.kind = FrameKind::kData;
  header.tag = tag;
  // The header and its checksum over the payload are built before taking
  // the lock, on this thread; the payload goes out from the caller's
  // buffer, so under mu_ only the dial, the syscalls and pumping run.
  std::uint8_t head[kHeaderBytes];
  write_header(header, payload, head);

  std::lock_guard<std::mutex> lk(mu_);
  const int fd = ensure_out_locked(tag.src, tag.dst);
  ins.transport_wire_frames.add(1);
  ins.transport_wire_bytes.add(kHeaderBytes + payload.size());
  write_all_locked(fd, head, payload);
}

std::span<const std::uint8_t> TcpTransport::recv(
    const FrameTag& tag, std::span<const std::uint8_t> local) {
  if (owner(tag.dst) != opts_.rank) {
    // Not the receiving owner: decode this replica's own encoding in place
    // (bit-identical to the wire bytes by the determinism contract).
    return account_delivery(tag, local);
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(opts_.timeout_ms);
  Inbox::Delivery got;
  {
    std::unique_lock<std::mutex> lk(mu_);
    await_locked(lk, tag, deadline, got);
  }
  // The slot's buffer is this thread's until the slot's next frame, which
  // the exchange sends only after this decode: check it off the lock.
  verify_frame(got.head, got.payload);
  return account_delivery(tag, got.payload);
}

void TcpTransport::await_locked(std::unique_lock<std::mutex>& lk,
                                const FrameTag& tag,
                                Clock::time_point deadline,
                                Inbox::Delivery& got) {
  // A poller that leaves, with its frame or with an error, hands the role
  // to the waiters.
  struct Handoff {
    std::condition_variable& cv;
    bool polled = false;
    ~Handoff() {
      if (polled) cv.notify_all();
    }
  } handoff{cv_};
  for (;;) {
    if (inbox_.take(tag, got)) return;
    pump_locked();
    if (inbox_.take(tag, got)) return;
    const Clock::time_point now = Clock::now();
    if (now >= deadline)
      throw TransportError("transport: tcp recv timed out after " +
                           std::to_string(opts_.timeout_ms) +
                           " ms waiting for " + tag_to_string(tag));
    if (polling_) {
      cv_.wait_until(lk, deadline);
      continue;
    }
    handoff.polled = true;
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
    polling_ = true;
    lk.unlock();
    // Readiness only: the pump above reads, once the lock is back.
    std::array<epoll_event, 8> ev;
    const int n =
        ::epoll_wait(epoll_fd_, ev.data(), static_cast<int>(ev.size()),
                     static_cast<int>(std::min<long long>(left, INT_MAX)));
    lk.lock();
    polling_ = false;
    for (int i = 0; i < n; ++i) {
      if (ev[static_cast<std::size_t>(i)].data.u64 != kWakeKey) continue;
      std::uint64_t count;
      (void)!::read(wake_fd_, &count, sizeof(count));
    }
  }
}

const void* TcpTransport::pair_slot(std::uint32_t channel,
                                    std::uint8_t direction, int src,
                                    int dst) {
  if (owner(dst) != opts_.rank) return nullptr;  // delivered in place here
  std::lock_guard<std::mutex> lk(mu_);
  return inbox_.slot(channel, direction, src, dst);
}

void TcpTransport::fit_slot(std::uint32_t channel, std::uint8_t direction,
                            int src, int dst, std::size_t bytes) {
  if (owner(dst) != opts_.rank) return;  // delivered in place here
  std::lock_guard<std::mutex> lk(mu_);
  inbox_.fit(channel, direction, src, dst, bytes);
}

void TcpTransport::release_channel(std::uint32_t channel) {
  std::lock_guard<std::mutex> lk(mu_);
  inbox_.release_channel(channel);
}

std::size_t TcpTransport::slot_count() {
  std::lock_guard<std::mutex> lk(mu_);
  return inbox_.slot_count();
}

}  // namespace adaqp::transport
