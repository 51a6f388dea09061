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
  payload.assign(body.begin(), body.end());
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

void Inbox::push(const FrameTag& tag, std::vector<std::uint8_t>&& payload) {
  queues_[tag_key(tag)].push_back(std::move(payload));
}

const std::vector<std::uint8_t>* Inbox::take(const FrameTag& tag) {
  const auto it = queues_.find(tag_key(tag));
  if (it == queues_.end()) return nullptr;
  std::vector<std::uint8_t>& slot =
      slots_[slot_key(tag.channel, tag.direction, tag.src, tag.dst)];
  slot = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  return &slot;
}

const void* Inbox::slot(std::uint32_t channel, std::uint8_t direction,
                        int src, int dst) {
  return &slots_[slot_key(channel, direction, src, dst)];
}

}  // namespace adaqp::transport
