#include "transport/fault.h"

#include <thread>

#include "common/env.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace adaqp::transport {

namespace {

std::uint64_t stream_key(const FrameTag& t) {
  return (static_cast<std::uint64_t>(t.channel) << 32) |
         (static_cast<std::uint64_t>(t.direction) << 24) |
         (static_cast<std::uint64_t>(t.src) << 12) |
         static_cast<std::uint64_t>(t.dst);
}

}  // namespace

FaultSpec FaultSpec::from_env() {
  FaultSpec spec;
  spec.seed = static_cast<std::uint64_t>(
      env::int_in_range("ADAQP_FAULT_SEED", 0, 1'000'000'000L).value_or(1));
  spec.delay_us = static_cast<std::uint32_t>(
      env::int_in_range("ADAQP_FAULT_DELAY_US", 0, 10'000'000L).value_or(0));
  spec.reorder = static_cast<std::uint32_t>(
      env::int_in_range("ADAQP_FAULT_REORDER", 0, 1024).value_or(0));
  spec.split = static_cast<std::uint32_t>(
      env::int_in_range("ADAQP_FAULT_SPLIT", 0, 1 << 20).value_or(0));
  spec.drop_permille = static_cast<std::uint32_t>(
      env::int_in_range("ADAQP_FAULT_DROP_PERMILLE", 0, 1000).value_or(0));
  spec.timeout_ms = static_cast<std::uint32_t>(
      env::int_in_range("ADAQP_FAULT_TIMEOUT_MS", 1, 600'000L)
          .value_or(2000));
  return spec;
}

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<Transport> inner, FaultSpec spec)
    : inner_(std::move(inner)), spec_(spec) {
  name_ = std::string("fault+") + inner_->name();
}

FaultInjectingTransport::Plan FaultInjectingTransport::plan_for(
    const FrameTag& tag) const {
  // A pure function of (seed, tag): identical at any thread count or
  // arrival order, so the fault schedule itself is reproducible.
  std::uint64_t state = spec_.seed;
  state ^= (static_cast<std::uint64_t>(tag.channel) << 32) | tag.round;
  state ^= (static_cast<std::uint64_t>(tag.direction) << 20) |
           (static_cast<std::uint64_t>(tag.src) << 10) |
           static_cast<std::uint64_t>(tag.dst);
  const std::uint64_t s1 = splitmix64(state);
  const std::uint64_t s2 = splitmix64(state);
  const std::uint64_t s3 = splitmix64(state);
  const std::uint64_t s4 = splitmix64(state);
  Plan plan;
  plan.drop = spec_.drop_permille != 0 && (s1 % 1000) < spec_.drop_permille;
  plan.delay_us =
      spec_.delay_us == 0
          ? 0
          : static_cast<std::uint32_t>(s2 % (spec_.delay_us + 1ull));
  plan.hold = spec_.reorder == 0
                  ? 0
                  : static_cast<std::uint32_t>(s3 % (spec_.reorder + 1ull));
  plan.chunk_seed = s4;
  return plan;
}

void FaultInjectingTransport::write_split(Stream& s,
                                          std::span<const std::uint8_t> frame,
                                          std::uint64_t chunk_seed) {
  const obs::Instruments& ins = obs::instruments();
  ins.transport_wire_frames.add(1);
  ins.transport_wire_bytes.add(frame.size());
  if (spec_.split == 0) {
    s.pipe.write_some(frame);
    return;
  }
  // Fragment the framed bytes at seeded offsets so header and payload both
  // cross chunk boundaries — the reassembly path FrameReader must handle.
  Rng chunks(chunk_seed);
  std::size_t off = 0;
  while (off < frame.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + chunks.next() % spec_.split,
                              frame.size() - off);
    s.pipe.write_some(frame.subspan(off, n));
    off += n;
    if (off < frame.size()) ins.transport_short_writes.add(1);
  }
  ins.transport_fault_splits.add(1);
}

void FaultInjectingTransport::release_due_locked() {
  std::size_t w = 0;
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i].release_at <= send_seq_) {
      write_split(streams_[stream_key(held_[i].tag)], held_[i].frame,
                  plan_for(held_[i].tag).chunk_seed);
    } else {
      if (w != i) held_[w] = std::move(held_[i]);
      ++w;
    }
  }
  held_.resize(w);
}

void FaultInjectingTransport::drain_locked(const FrameTag& tag) {
  Stream& s = streams_[stream_key(tag)];
  std::uint8_t scratch[4096];
  // Short reads: when splits are on, pull the stream in the same bounded
  // chunks, so reassembly is exercised on the read side too.
  const std::size_t cap =
      spec_.split == 0 ? sizeof(scratch)
                       : std::min<std::size_t>(spec_.split, sizeof(scratch));
  for (;;) {
    const std::size_t n = s.pipe.read_some({scratch, cap});
    if (n == 0) break;
    s.reader.feed({scratch, n});
  }
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  while (s.reader.next(header, payload)) {
    if (header.kind != FrameKind::kData)
      throw TransportError("transport: unexpected frame kind on fault pipe");
    inbox_.push(header.tag, std::move(payload));
    payload = {};
  }
}

void FaultInjectingTransport::send(const FrameTag& tag,
                                   std::span<const std::uint8_t> payload) {
  if (!inner_->local_delivery(tag)) {
    inner_->send(tag, payload);
    return;
  }
  const Plan plan = plan_for(tag);
  const obs::Instruments& ins = obs::instruments();
  if (plan.drop) {
    ins.transport_fault_drops.add(1);
    std::lock_guard<std::mutex> lk(mu_);
    ++send_seq_;
    release_due_locked();
    return;
  }
  if (plan.delay_us != 0) {
    ins.transport_fault_delays.add(1);
    const double until = obs::monotonic_us() + plan.delay_us;
    while (obs::monotonic_us() < until) std::this_thread::yield();
  }
  FrameHeader header;
  header.kind = FrameKind::kData;
  header.tag = tag;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame;
  write_frame(header, payload, frame);

  std::lock_guard<std::mutex> lk(mu_);
  ++send_seq_;
  if (plan.hold != 0) {
    ins.transport_fault_reorders.add(1);
    held_.push_back({tag, std::move(frame), send_seq_ + plan.hold});
  } else {
    write_split(streams_[stream_key(tag)], frame, plan.chunk_seed);
  }
  release_due_locked();
}

std::span<const std::uint8_t> FaultInjectingTransport::recv(
    const FrameTag& tag, std::span<const std::uint8_t> local) {
  if (!inner_->local_delivery(tag)) return inner_->recv(tag, local);
  const double deadline =
      obs::monotonic_us() + static_cast<double>(spec_.timeout_ms) * 1000.0;
  for (;;) {
    const std::vector<std::uint8_t>* p = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      drain_locked(tag);
      p = inbox_.take(tag);
      // The receiver demanding a held frame releases it immediately: the
      // reorder window is bounded by need, so holds can never deadlock a
      // schedule — only shuffle arrival order, which tag matching absorbs.
      for (std::size_t i = 0; !p && i < held_.size(); ++i) {
        const FrameTag& h = held_[i].tag;
        if (h.channel == tag.channel && h.round == tag.round &&
            h.direction == tag.direction && h.src == tag.src &&
            h.dst == tag.dst) {
          held_[i].release_at = send_seq_;
          release_due_locked();
          break;
        }
      }
    }
    if (p) return account_delivery(tag, {p->data(), p->size()});
    if (obs::monotonic_us() > deadline)
      throw TransportError(
          "transport: timed out after " + std::to_string(spec_.timeout_ms) +
          " ms waiting for " + tag_to_string(tag) +
          " (fault-injected drop?)");
    std::this_thread::yield();
  }
}

const void* FaultInjectingTransport::pair_slot(std::uint32_t channel,
                                               std::uint8_t direction,
                                               int src, int dst) {
  FrameTag probe;
  probe.channel = channel;
  probe.direction = direction;
  probe.src = static_cast<std::uint8_t>(src);
  probe.dst = static_cast<std::uint8_t>(dst);
  if (!inner_->local_delivery(probe))
    return inner_->pair_slot(channel, direction, src, dst);
  std::lock_guard<std::mutex> lk(mu_);
  return inbox_.slot(channel, direction, src, dst);
}

}  // namespace adaqp::transport
