// lint:hot-path-file — the Inbox serves steady-state TCP delivery; every
// growth call below is warmup-only there, or on the fault decorator's path.
#include "transport/stream.h"

#include <algorithm>

namespace adaqp::transport {

// ---- MemoryPipe -----------------------------------------------------------

std::size_t MemoryPipe::write_some(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  return data.size();
}

std::size_t MemoryPipe::read_some(std::span<std::uint8_t> out) {
  const std::size_t n = std::min(out.size(), buf_.size() - rd_);
  std::copy_n(buf_.begin() + static_cast<std::ptrdiff_t>(rd_), n, out.begin());
  rd_ += n;
  if (rd_ == buf_.size()) {
    buf_.clear();
    rd_ = 0;
  } else if (rd_ > 4096 && rd_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(rd_));
    rd_ = 0;
  }
  return n;
}

// ---- FrameReader ----------------------------------------------------------

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool FrameReader::next(FrameHeader& header,
                       std::vector<std::uint8_t>& payload) {
  const std::size_t avail = buf_.size() - rd_;
  if (avail < kHeaderBytes) return false;
  const std::span<const std::uint8_t> head(buf_.data() + rd_, kHeaderBytes);
  header = parse_header(head);
  if (avail < kHeaderBytes + header.payload_len) return false;
  const std::span<const std::uint8_t> body(buf_.data() + rd_ + kHeaderBytes,
                                           header.payload_len);
  verify_frame(head, body);
  payload.assign(body.begin(), body.end());  // lint:allow(hot-path-alloc) fault decorator only
  rd_ += kHeaderBytes + header.payload_len;
  if (rd_ == buf_.size()) {
    buf_.clear();
    rd_ = 0;
  } else if (rd_ > 65536 && rd_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(rd_));
    rd_ = 0;
  }
  return true;
}

// ---- Inbox ----------------------------------------------------------------

Inbox::Slot& Inbox::begin(const FrameHeader& header,
                          std::span<const std::uint8_t> head,
                          bool reuse_delivered) {
  const FrameTag& t = header.tag;
  Slot& s = slots_[slot_key(t.channel, t.direction, t.src, t.dst)];
  Frame& f = s.frames.emplace_back();  // lint:allow(hot-path-alloc) within capacity once warm
  f.round = t.round;
  std::copy(head.begin(), head.end(), f.head.begin());
  if (reuse_delivered && s.delivered.capacity() != 0) {
    f.bytes = std::move(s.delivered);
  } else if (!s.spares.empty()) {
    f.bytes = std::move(s.spares.back());
    s.spares.pop_back();
  }
  f.bytes.resize(header.payload_len);  // lint:allow(hot-path-alloc) within the reused buffer's capacity once warm
  return s;
}

void Inbox::push(const FrameHeader& header,
                 std::span<const std::uint8_t> payload) {
  Slot& s = begin(header, {}, /*reuse_delivered=*/false);
  std::copy(payload.begin(), payload.end(), s.frames.back().bytes.begin());
  finish(s);
}

bool Inbox::take(const FrameTag& tag, Delivery& out) {
  const auto it =
      slots_.find(slot_key(tag.channel, tag.direction, tag.src, tag.dst));
  if (it == slots_.end()) return false;
  Slot& s = it->second;
  for (auto f = s.frames.begin(); f != s.frames.end(); ++f) {
    if (f->round != tag.round) continue;
    if (!f->complete) return false;  // same-tag frames stay FIFO
    // A delivered buffer no later frame reused becomes a spare.
    if (s.delivered.capacity() != 0)
      s.spares.push_back(std::move(s.delivered));  // lint:allow(hot-path-alloc) multi-process only: single-process frames reuse `delivered`
    s.delivered = std::move(f->bytes);
    out.head = f->head;
    s.frames.erase(f);
    out.payload = s.delivered;
    return true;
  }
  return false;
}

const void* Inbox::slot(std::uint32_t channel, std::uint8_t direction,
                        int src, int dst) {
  return &slots_[slot_key(channel, direction, src, dst)];
}

void Inbox::fit(std::uint32_t channel, std::uint8_t direction, int src,
               int dst, std::size_t bytes) {
  Slot& s = slots_[slot_key(channel, direction, src, dst)];
  s.frames.reserve(1);  // lint:allow(hot-path-alloc) build time
  if (s.delivered.capacity() > 2 * bytes)
    s.delivered = std::vector<std::uint8_t>();  // frees; `= {}` would not
  s.delivered.reserve(bytes);  // lint:allow(hot-path-alloc) build or refresh time
}

void Inbox::release_channel(std::uint32_t channel) {
  std::erase_if(slots_, [channel](const auto& entry) {
    const Slot& s = entry.second;
    return (entry.first >> 32) == channel &&
           (s.frames.empty() || s.frames.back().complete);
  });
}

}  // namespace adaqp::transport
