#include "pipeline/exchange_stages.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "quant/quantize.h"
#include "simd/kernels.h"
#include "transport/transport.h"

namespace adaqp::pipeline {

namespace {

void check_plan_shape(const DistGraph& dist, const ExchangePlan& plan,
                      bool forward) {
  const int n = dist.num_devices();
  ADAQP_CHECK_MSG(static_cast<int>(plan.bits.size()) == n,
                  "plan device arity mismatch");
  for (int d = 0; d < n; ++d) {
    ADAQP_CHECK(static_cast<int>(plan.bits[d].size()) == n);
    for (int p = 0; p < n; ++p) {
      const auto& list = forward ? dist.devices[d].send_local[p]
                                 : dist.devices[d].recv_local[p];
      ADAQP_CHECK_MSG(plan.bits[d][p].size() == list.size(),
                      "plan bits[" << d << "][" << p << "] arity "
                                   << plan.bits[d][p].size() << " != "
                                   << list.size());
    }
  }
}

/// Full-precision bytes of the messages actually quantized (bits < 32);
/// 32-bit passthrough costs no kernel time.
std::size_t quantized_fp_bytes(std::span<const int> bits, std::size_t dim) {
  std::size_t rows = 0;
  for (int b : bits)
    if (b != 32) ++rows;
  return rows * dim * sizeof(float);
}

/// Split a message's wire bytes by bit-width tag (per-row tag + metadata +
/// payload; the 12-byte block header stays in the pair_bytes total only).
void accumulate_width_bytes(
    std::span<const int> bits, std::size_t dim,
    std::array<std::uint64_t, obs::kNumWidths>& out) {
  out.fill(0);
  for (const int b : bits)
    out[static_cast<std::size_t>(obs::width_index(b))] +=
        1 + quantized_wire_bytes(dim, b);
}

std::string stage_name(const char* kind, int d, int p) {
  std::string name(kind);
  name += "/d";
  name += std::to_string(d);
  if (p >= 0) {
    name += "->d";
    name += std::to_string(p);
  }
  return name;
}

// ---- Race-checker annotations (ADAQP_RACECHECK) ---------------------------
//
// Each stage declares exactly the bytes it touches: row sets of the device
// matrices (row-granular, so the checker can prove e.g. that encodes reading
// halo rows never collide with owner accumulation into owned rows) plus the
// per-pair staging slots. Built only when the checker is enabled.

using analysis::AccessList;
using analysis::BufferAccess;

constexpr auto kRead = BufferAccess::Mode::kRead;
constexpr auto kWrite = BufferAccess::Mode::kWrite;

transport::FrameTag frame_tag(const ExchangeAccounting& acct,
                              std::uint8_t direction, int d, int p) {
  return {acct.channel, acct.round, direction, static_cast<std::uint8_t>(d),
          static_cast<std::uint8_t>(p)};
}

/// The one sender body of both directions: encode `rows` of `src` at `bits`
/// with the pair's private stream into its persistent block (capacity kept
/// across rounds) and ship it. Returns the message's frame tag.
transport::FrameTag encode_and_send(const Matrix& src,
                                    const std::vector<NodeId>& rows,
                                    std::span<const int> bits,
                                    ExchangeAccounting& acct,
                                    std::uint8_t direction, int d, int p) {
  EncodedBlock& block = acct.blocks[d][p];
  encode_rows_into(src, rows, bits, acct.pair_rngs[d][p], block);
  const transport::FrameTag tag = frame_tag(acct, direction, d, p);
  transport::active().send(tag, block.bytes);
  return tag;
}

/// Race-checker annotations of one sender stage: the rows it encodes, and
/// the per-pair block, RNG stream and (wire backends only) inbox slot it
/// owns exclusively. Wire backends move the delivered payload into a stable
/// per-pair inbox slot the receiving side decodes from; declaring that
/// write covers the encode -> deliver -> decode chain.
void add_sender_slots(AccessList& out, const Matrix& src,
                      const std::vector<NodeId>& rows,
                      const std::string& rows_label, ExchangeAccounting& acct,
                      std::uint8_t direction, int d, int p,
                      const std::string& name) {
  append_rows(out, src, rows, kRead, rows_label);
  out.push_back(analysis::write_of(&acct.blocks[d][p],
                                   sizeof(acct.blocks[d][p]), name + ".block"));
  out.push_back(analysis::write_of(&acct.pair_rngs[d][p],
                                   sizeof(acct.pair_rngs[d][p]),
                                   name + ".rng"));
  if (const void* slot =
          transport::active().pair_slot(acct.channel, direction, d, p))
    out.push_back(analysis::write_of(slot, 1, name + ".wire_slot"));
}

/// Size the [sender][receiver] slot tables. Idempotent: later calls keep
/// every nested capacity (blocks, decode staging), so the steady-state
/// exchange allocates nothing.
void size_slots(ExchangeAccounting& acct, int n) {
  if (static_cast<int>(acct.blocks.size()) == n) return;
  acct.blocks.assign(n, std::vector<EncodedBlock>(n));
  acct.pair_rngs.assign(n, std::vector<Rng>(n));
  acct.acc_decoded.resize(n);
  acct.acc_seq.resize(n);
}

}  // namespace

void append_rows(AccessList& out, const Matrix& m,
                 std::span<const NodeId> rows, BufferAccess::Mode mode,
                 const std::string& label) {
  analysis::append_row_set(out, m.data(), m.cols() * sizeof(float),
                           rows.data(), rows.size(), mode, label);
}

BufferAccess row_range(const Matrix& m, std::size_t row_begin,
                       std::size_t row_end, BufferAccess::Mode mode,
                       std::string label) {
  return analysis::row_range(m.data(), m.cols() * sizeof(float), row_begin,
                             row_end, mode, std::move(label));
}

void ExchangeAccounting::warm(const DistGraph& dist, const ExchangePlan& plan,
                              bool forward, std::size_t cols) {
  const int n = dist.num_devices();
  size_slots(*this, n);
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    for (int p = 0; p < n; ++p) {
      if (p == d) continue;
      const auto& rows = forward ? dev.send_local[p] : dev.recv_local[p];
      if (rows.empty()) continue;
      const std::size_t bytes =
          encoded_wire_bytes(rows.size(), cols, plan.bits[d][p]);
      blocks[d][p].bytes.reserve(bytes);
      transport::active().fit_slot(channel, forward ? 0 : 1, d, p, bytes);
    }
  }
  if (!forward) {
    // Backward owner staging: one decode buffer + identity row list sized
    // for the owner's largest inbound message.
    for (int p = 0; p < n; ++p) {
      std::size_t max_rows = 0;
      for (int d = 0; d < n; ++d) {
        if (d == p) continue;
        max_rows = std::max(max_rows, dist.devices[p].send_local[d].size());
      }
      if (max_rows == 0) continue;
      acc_decoded[p].reshape_uninit(max_rows, cols);
      if (acc_seq[p].size() < max_rows) {
        const std::size_t old = acc_seq[p].size();
        acc_seq[p].resize(max_rows);
        for (std::size_t i = old; i < max_rows; ++i)
          acc_seq[p][i] = static_cast<NodeId>(i);
      }
    }
  }
}

void ExchangeAccounting::init(int n, std::vector<Rng>& device_rngs) {
  ++round;  // first round is 1; round 0 is reserved for hellos
  size_slots(*this, n);
  for (auto& row : blocks)
    for (auto& b : row) b.bytes.clear();
  // Per-pair streams, derived serially: one next() per device stream (in
  // ascending device order), splitmixed with the peer index. Identical for
  // every schedule, and no stage ever touches the shared device streams.
  for (int d = 0; d < n; ++d) {
    const std::uint64_t base = device_rngs[d].next();
    for (int p = 0; p < n; ++p) {
      std::uint64_t mix =
          base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(p + 1));
      pair_rngs[d][p] = Rng(splitmix64(mix));
    }
  }
}

std::vector<std::vector<int>> add_forward_exchange_stages(
    StageGraph& graph, const DistGraph& dist, std::vector<Matrix>& locals,
    const ExchangePlan& plan, ExchangeAccounting& acct) {
  const int n = dist.num_devices();
  ADAQP_CHECK(static_cast<int>(locals.size()) == n);
  check_plan_shape(dist, plan, /*forward=*/true);
  for (int d = 0; d < n; ++d)
    ADAQP_CHECK(locals[d].rows() == dist.devices[d].num_local());
  acct.warm(dist, plan, /*forward=*/true, locals.front().cols());

  std::vector<std::vector<int>> stage(n, std::vector<int>(n, -1));
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    for (int p = 0; p < n; ++p) {
      if (p == d || dev.send_local[p].empty()) continue;
      // One stage per message: encode the sender's owned rows with the
      // pair's private stream and decode straight into the receiver's halo
      // rows. Each stage writes its own halo-row slice and per-pair slots,
      // so all forward stages are mutually independent.
      const std::string name = stage_name("fwd", d, p);
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        add_sender_slots(acc, locals[d], dev.send_local[p],
                         "x[d" + std::to_string(d) + "].boundary_rows(d" +
                             std::to_string(p) + ")",
                         acct, /*direction=*/0, d, p, name);
        append_rows(acc, locals[p], dist.devices[p].recv_local[d], kWrite,
                 "x[d" + std::to_string(p) + "].halo_rows(d" +
                     std::to_string(d) + ")");
      }
      stage[d][p] = graph.add(
          name,
          [&dist, &locals, &plan, &acct, d, p] {
            if (!acct.sends(d, p)) return;
            const transport::FrameTag tag =
                encode_and_send(locals[d], dist.devices[d].send_local[p],
                                plan.bits[d][p], acct, /*direction=*/0, d, p);
            // Decode whatever the transport delivers — under loopback that
            // is the block itself, zero-copy.
            decode_rows(transport::active().recv(tag, acct.blocks[d][p].bytes),
                        locals[p], dist.devices[p].recv_local[d]);
          },
          {}, std::move(acc));
    }
  }
  return stage;
}

void add_backward_exchange_stages(StageGraph& graph, const DistGraph& dist,
                                  std::vector<Matrix>& grads,
                                  const ExchangePlan& plan,
                                  ExchangeAccounting& acct,
                                  const BackwardStageDeps& deps) {
  const int n = dist.num_devices();
  ADAQP_CHECK(static_cast<int>(grads.size()) == n);
  check_plan_shape(dist, plan, /*forward=*/false);
  for (int d = 0; d < n; ++d)
    ADAQP_CHECK(grads[d].rows() == dist.devices[d].num_local());
  acct.warm(dist, plan, /*forward=*/false, grads.front().cols());
  const auto extra_dep = [](const std::vector<int>& hook, int d) {
    return d < static_cast<int>(hook.size()) ? hook[d] : -1;
  };

  // enc[d][p]: id of the encode stage for message d -> p, or -1.
  std::vector<std::vector<int>> enc(n, std::vector<int>(n, -1));

  // Phase 1 stages — per-pair encode of the halo-row gradients bound for
  // owner p. Reads only the sender's halo rows; owners accumulate only into
  // owned rows, so encodes and accumulates of different devices commute.
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    std::vector<int> enc_deps;
    if (const int dep = extra_dep(deps.encode, d); dep >= 0)
      enc_deps.push_back(dep);
    for (int p = 0; p < n; ++p) {
      if (p == d || dev.recv_local[p].empty()) continue;
      const std::string name = stage_name("bwd-enc", d, p);
      AccessList acc;
      // The send side of the wire path; ordered against the owner's
      // recv/decode by the enc -> acc dependency below, and annotated on
      // the same slot so a schedule that broke that edge would flag.
      if (analysis::racecheck_enabled())
        add_sender_slots(acc, grads[d], dev.recv_local[p],
                         "grad[d" + std::to_string(d) + "].halo_rows(d" +
                             std::to_string(p) + ")",
                         acct, /*direction=*/1, d, p, name);
      enc[d][p] = graph.add(
          name,
          [&dist, &grads, &plan, &acct, d, p] {
            if (!acct.sends(d, p)) return;
            encode_and_send(grads[d], dist.devices[d].recv_local[p],
                            plan.bits[d][p], acct, /*direction=*/1, d, p);
          },
          enc_deps, std::move(acc));
    }
  }

  // Phase 2 stages — one per owner: decode every inbound block and fold it
  // into the owned rows in ascending sender order, the exact accumulation
  // order of a serial d-outer sweep.
  for (int p = 0; p < n; ++p) {
    std::vector<int> acc_deps;
    for (int d = 0; d < n; ++d)
      if (enc[d][p] >= 0) acc_deps.push_back(enc[d][p]);
    if (acc_deps.empty()) continue;
    if (const int dep = extra_dep(deps.accumulate, p); dep >= 0)
      acc_deps.push_back(dep);
    const std::string name = stage_name("bwd-acc", p, -1);
    AccessList acc;
    if (analysis::racecheck_enabled()) {
      for (int d = 0; d < n; ++d) {
        if (enc[d][p] < 0) continue;
        acc.push_back(analysis::read_of(&acct.blocks[d][p],
                                        sizeof(acct.blocks[d][p]),
                                        stage_name("bwd-enc", d, p) +
                                            ".block"));
        append_rows(acc, grads[p], dist.devices[p].send_local[d], kWrite,
                 "grad[d" + std::to_string(p) + "].boundary_rows(d" +
                     std::to_string(d) + ")");
        if (const void* slot = transport::active().pair_slot(
                acct.channel, /*direction=*/1, d, p))
          acc.push_back(analysis::write_of(slot, 1, name + ".wire_slot"));
      }
    }
    graph.add(
        name,
        [&dist, &grads, &acct, p, n] {
          // Persistent per-owner staging, sized by warm() for the largest
          // inbound message; the fold runs through the kernel table's
          // elementwise add.
          Matrix& decoded = acct.acc_decoded[p];
          const std::vector<NodeId>& seq = acct.acc_seq[p];
          const auto& kt = simd::kernels();
          for (int d = 0; d < n; ++d) {
            if (d == p || acct.blocks[d][p].bytes.empty()) continue;
            const auto& owner_rows = dist.devices[p].send_local[d];
            decoded.reshape_uninit(owner_rows.size(), grads[p].cols());
            const transport::FrameTag tag =
                frame_tag(acct, /*direction=*/1, d, p);
            decode_rows(transport::active().recv(tag, acct.blocks[d][p].bytes),
                        decoded, {seq.data(), owner_rows.size()});
            for (std::size_t i = 0; i < owner_rows.size(); ++i) {
              auto dst = grads[p].row(owner_rows[i]);
              kt.ef_fold(dst.data(), decoded.row(i).data(), dst.data(),
                         dst.size());
            }
          }
        },
        acc_deps, std::move(acc));
  }
}

void finalize_exchange_stats_into(const ExchangeAccounting& acct,
                                  const DistGraph& dist,
                                  const ExchangePlan& plan, std::size_t dim,
                                  const ClusterSpec& cluster,
                                  ExchangeStats& stats) {
  const int n = dist.num_devices();
  // Same-sized resizes keep the destination's capacity, so repeated
  // finalizes into the same stats object allocate nothing.
  stats.pair_bytes.resize(n);
  stats.pair_width_bytes.resize(n);
  stats.messages = 0;
  stats.quant_seconds.assign(n, 0.0);
  stats.dequant_seconds.assign(n, 0.0);
  stats.comm_seconds = 0.0;
  std::array<std::uint64_t, obs::kNumWidths> width_total{};
  // Kernel times fold in fixed (d, p) order so the receiver-indexed dequant
  // accumulation is schedule-independent.
  for (int d = 0; d < n; ++d) {
    stats.pair_bytes[d].resize(n);
    stats.pair_width_bytes[d].resize(n);
    for (int p = 0; p < n; ++p) {
      const std::size_t bytes = acct.blocks[d][p].wire_bytes();
      auto& widths = stats.pair_width_bytes[d][p];
      stats.pair_bytes[d][p] = bytes;
      if (bytes == 0) {  // masked or empty pair: no message
        widths.fill(0);
        continue;
      }
      ++stats.messages;
      const auto& bits = plan.bits[d][p];
      accumulate_width_bytes(bits, dim, widths);
      for (int w = 0; w < obs::kNumWidths; ++w)
        width_total[static_cast<std::size_t>(w)] +=
            widths[static_cast<std::size_t>(w)];
      const std::size_t fp = quantized_fp_bytes(bits, dim);
      if (fp == 0) continue;
      const double t = cluster.quant_seconds(fp);
      stats.quant_seconds[d] += t;
      stats.dequant_seconds[p] += t;
    }
  }
  if (n > 1)
    stats.comm_seconds =
        RingAllToAll(n).total_seconds(cluster, stats.pair_bytes);
  // Global instruments: one round, its message count, and wire bytes by
  // width. Purely observational — nothing reads these back.
  const obs::Instruments& ins = obs::instruments();
  ins.exchange_rounds.add(1);
  ins.exchange_messages.add(stats.messages);
  for (int w = 0; w < obs::kNumWidths; ++w)
    ins.exchange_wire_bytes[static_cast<std::size_t>(w)]->add(
        width_total[static_cast<std::size_t>(w)]);
}

}  // namespace adaqp::pipeline
