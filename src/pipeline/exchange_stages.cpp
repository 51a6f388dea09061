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
// per-pair accounting slots. Built only when the checker is enabled.

using analysis::AccessList;
using analysis::BufferAccess;

constexpr auto kRead = BufferAccess::Mode::kRead;
constexpr auto kWrite = BufferAccess::Mode::kWrite;

void add_rows(AccessList& out, const Matrix& m,
              const std::vector<NodeId>& rows, BufferAccess::Mode mode,
              const std::string& label) {
  analysis::append_row_set(out, m.data(), m.cols() * sizeof(float),
                           rows.data(), rows.size(), mode, label);
}

/// The stats/RNG/staging slots every encode stage owns exclusively.
void add_pair_slots(AccessList& out, ExchangeAccounting& acct, int d, int p,
                    const std::string& tag) {
  out.push_back(analysis::write_of(&acct.pair_bytes[d][p],
                                   sizeof(acct.pair_bytes[d][p]),
                                   tag + ".pair_bytes"));
  out.push_back(analysis::write_of(&acct.fp_bytes[d][p],
                                   sizeof(acct.fp_bytes[d][p]),
                                   tag + ".fp_bytes"));
  out.push_back(analysis::write_of(&acct.pair_width_bytes[d][p],
                                   sizeof(acct.pair_width_bytes[d][p]),
                                   tag + ".pair_width_bytes"));
  out.push_back(analysis::write_of(&acct.pair_rngs[d][p],
                                   sizeof(acct.pair_rngs[d][p]),
                                   tag + ".rng"));
}

}  // namespace

void ExchangeAccounting::init_storage(int n) {
  if (static_cast<int>(pair_bytes.size()) == n) return;
  // First init: size everything. Later inits rewrite in place, keeping
  // every nested capacity (blocks, decode staging) — the
  // steady-state exchange allocates nothing.
  pair_bytes.assign(n, std::vector<std::size_t>(n, 0));
  fp_bytes.assign(n, std::vector<std::size_t>(n, 0));
  pair_width_bytes.assign(
      n, std::vector<std::array<std::uint64_t, obs::kNumWidths>>(
             n, std::array<std::uint64_t, obs::kNumWidths>{}));
  blocks.assign(n, std::vector<EncodedBlock>(n));
  pair_rngs.assign(n, std::vector<Rng>(n));
  acc_decoded.resize(n);
  acc_seq.resize(n);
}

void ExchangeAccounting::warm(const DistGraph& dist, const ExchangePlan& plan,
                              bool forward, std::size_t cols) {
  const int n = dist.num_devices();
  init_storage(n);
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    for (int p = 0; p < n; ++p) {
      if (p == d) continue;
      const auto& rows = forward ? dev.send_local[p] : dev.recv_local[p];
      if (rows.empty()) continue;
      blocks[d][p].bytes.reserve(
          encoded_wire_bytes(rows.size(), cols, plan.bits[d][p]));
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
  if (static_cast<int>(pair_bytes.size()) != n) {
    init_storage(n);
  } else {
    for (auto& row : pair_bytes) std::fill(row.begin(), row.end(), 0);
    for (auto& row : fp_bytes) std::fill(row.begin(), row.end(), 0);
    for (auto& row : pair_width_bytes)
      for (auto& slot : row) slot.fill(0);
    for (auto& row : blocks)
      for (auto& b : row) b.bytes.clear();
  }
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

PairStages add_forward_exchange_stages(StageGraph& graph,
                                       const DistGraph& dist,
                                       std::vector<Matrix>& locals,
                                       const ExchangePlan& plan,
                                       ExchangeAccounting& acct) {
  const int n = dist.num_devices();
  ADAQP_CHECK(static_cast<int>(locals.size()) == n);
  check_plan_shape(dist, plan, /*forward=*/true);
  for (int d = 0; d < n; ++d)
    ADAQP_CHECK(locals[d].rows() == dist.devices[d].num_local());

  PairStages out;
  out.stage.assign(n, std::vector<int>(n, -1));
  for (int d = 0; d < n; ++d) {
    const DeviceGraph& dev = dist.devices[d];
    for (int p = 0; p < n; ++p) {
      if (p == d || dev.send_local[p].empty()) continue;
      // One stage per message: encode the sender's owned rows with the
      // pair's private stream and decode straight into the receiver's halo
      // rows. Each stage writes its own halo-row slice and stats slots, so
      // all forward stages are mutually independent.
      const std::string name = stage_name("fwd", d, p);
      AccessList acc;
      if (analysis::racecheck_enabled()) {
        add_rows(acc, locals[d], dev.send_local[p], kRead,
                 "x[d" + std::to_string(d) + "].boundary_rows(d" +
                     std::to_string(p) + ")");
        add_rows(acc, locals[p], dist.devices[p].recv_local[d], kWrite,
                 "x[d" + std::to_string(p) + "].halo_rows(d" +
                     std::to_string(d) + ")");
        acc.push_back(analysis::write_of(&acct.blocks[d][p],
                                         sizeof(acct.blocks[d][p]),
                                         name + ".block"));
        add_pair_slots(acc, acct, d, p, name);
        // Wire backends move the delivered payload into a stable per-pair
        // inbox slot this stage then decodes from; declare that write so
        // the checker covers the encode -> deliver -> decode chain.
        if (const void* slot = transport::active().pair_slot(
                acct.channel, /*direction=*/0, d, p))
          acc.push_back(analysis::write_of(slot, 1, name + ".wire_slot"));
      }
      out.stage[d][p] = graph.add(
          name,
          [&dist, &locals, &plan, &acct, d, p] {
            if (!acct.sends(d, p)) return;
            const DeviceGraph& sender = dist.devices[d];
            const auto& bits = plan.bits[d][p];
            // Persistent per-pair staging: block bytes keep their
            // warmed-up capacity across rounds.
            encode_rows_into(locals[d], sender.send_local[p], bits,
                             acct.pair_rngs[d][p], acct.blocks[d][p]);
            acct.pair_bytes[d][p] = acct.blocks[d][p].wire_bytes();
            acct.fp_bytes[d][p] =
                quantized_fp_bytes(bits, locals[d].cols());
            accumulate_width_bytes(bits, locals[d].cols(),
                                   acct.pair_width_bytes[d][p]);
            // Ship the encoded block and decode whatever the transport
            // delivers — under loopback that is the block itself, zero-copy.
            transport::Transport& tp = transport::active();
            const transport::FrameTag tag{acct.channel, acct.round,
                                          /*direction=*/0,
                                          static_cast<std::uint8_t>(d),
                                          static_cast<std::uint8_t>(p)};
            tp.send(tag, acct.blocks[d][p].bytes);
            decode_rows(tp.recv(tag, acct.blocks[d][p].bytes), locals[p],
                        dist.devices[p].recv_local[d]);
          },
          {}, std::move(acc));
    }
  }
  return out;
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
      if (analysis::racecheck_enabled()) {
        add_rows(acc, grads[d], dev.recv_local[p], kRead,
                 "grad[d" + std::to_string(d) + "].halo_rows(d" +
                     std::to_string(p) + ")");
        acc.push_back(analysis::write_of(&acct.blocks[d][p],
                                         sizeof(acct.blocks[d][p]),
                                         name + ".block"));
        add_pair_slots(acc, acct, d, p, name);
        // The send side of the wire path; ordered against the owner's
        // recv/decode by the enc -> acc dependency below, and annotated on
        // the same slot so a schedule that broke that edge would flag.
        if (const void* slot = transport::active().pair_slot(
                acct.channel, /*direction=*/1, d, p))
          acc.push_back(analysis::write_of(slot, 1, name + ".wire_slot"));
      }
      enc[d][p] = graph.add(
          name,
          [&dist, &grads, &plan, &acct, d, p] {
            if (!acct.sends(d, p)) return;
            const DeviceGraph& sender = dist.devices[d];
            const auto& bits = plan.bits[d][p];
            encode_rows_into(grads[d], sender.recv_local[p], bits,
                             acct.pair_rngs[d][p], acct.blocks[d][p]);
            acct.pair_bytes[d][p] = acct.blocks[d][p].wire_bytes();
            acct.fp_bytes[d][p] =
                quantized_fp_bytes(bits, grads[d].cols());
            accumulate_width_bytes(bits, grads[d].cols(),
                                   acct.pair_width_bytes[d][p]);
            const transport::FrameTag tag{acct.channel, acct.round,
                                          /*direction=*/1,
                                          static_cast<std::uint8_t>(d),
                                          static_cast<std::uint8_t>(p)};
            transport::active().send(tag, acct.blocks[d][p].bytes);
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
        add_rows(acc, grads[p], dist.devices[p].send_local[d], kWrite,
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
          // Persistent per-owner staging (capacity kept across rounds); the
          // fold runs through the kernel table's elementwise add.
          Matrix& decoded = acct.acc_decoded[p];
          std::vector<NodeId>& seq = acct.acc_seq[p];
          const auto& kt = simd::kernels();
          for (int d = 0; d < n; ++d) {
            if (d == p || acct.blocks[d][p].bytes.empty()) continue;
            const auto& owner_rows = dist.devices[p].send_local[d];
            decoded.reshape_uninit(owner_rows.size(), grads[p].cols());
            if (seq.size() < owner_rows.size()) {
              const std::size_t old = seq.size();
              seq.resize(owner_rows.size());
              for (std::size_t i = old; i < seq.size(); ++i)
                seq[i] = static_cast<NodeId>(i);
            }
            const transport::FrameTag tag{acct.channel, acct.round,
                                          /*direction=*/1,
                                          static_cast<std::uint8_t>(d),
                                          static_cast<std::uint8_t>(p)};
            decode_rows(
                transport::active().recv(tag, acct.blocks[d][p].bytes),
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

  // Phase 3 stages — zero each device's halo rows once its own encodes (and
  // any extra halo-row reader hooked in via deps.zero) are done: their
  // contribution has been shipped.
  for (int d = 0; d < n; ++d) {
    std::vector<int> zero_deps;
    for (int p = 0; p < n; ++p)
      if (enc[d][p] >= 0) zero_deps.push_back(enc[d][p]);
    if (const int dep = extra_dep(deps.zero, d); dep >= 0)
      zero_deps.push_back(dep);
    const DeviceGraph& dev = dist.devices[d];
    if (dev.num_halo == 0) continue;
    AccessList acc;
    if (analysis::racecheck_enabled())
      acc.push_back(analysis::row_range(
          grads[d].data(), grads[d].cols() * sizeof(float), dev.num_owned,
          dev.num_local(), kWrite,
          "grad[d" + std::to_string(d) + "].halo_rows"));
    graph.add(
        stage_name("bwd-zero", d, -1),
        [&dist, &grads, d] {
          const DeviceGraph& device = dist.devices[d];
          for (std::size_t h = device.num_owned; h < device.num_local(); ++h) {
            auto row = grads[d].row(h);
            std::fill(row.begin(), row.end(), 0.0f);
          }
        },
        zero_deps, std::move(acc));
  }
}

ExchangeStats finalize_exchange_stats(const ExchangeAccounting& acct,
                                      const DistGraph& dist,
                                      const ClusterSpec& cluster) {
  ExchangeStats stats;
  finalize_exchange_stats_into(acct, dist, cluster, stats);
  return stats;
}

void finalize_exchange_stats_into(const ExchangeAccounting& acct,
                                  const DistGraph& dist,
                                  const ClusterSpec& cluster,
                                  ExchangeStats& stats) {
  const int n = dist.num_devices();
  // Same-shaped copy-assigns reuse the destination's capacity, so repeated
  // finalizes into the same stats object allocate nothing.
  stats.pair_bytes = acct.pair_bytes;
  stats.pair_width_bytes = acct.pair_width_bytes;
  stats.messages = 0;
  stats.quant_seconds.assign(n, 0.0);
  stats.dequant_seconds.assign(n, 0.0);
  stats.comm_seconds = 0.0;
  // Kernel times fold in fixed (d, p) order so the receiver-indexed dequant
  // accumulation is schedule-independent.
  for (int d = 0; d < n; ++d)
    for (int p = 0; p < n; ++p) {
      if (acct.fp_bytes[d][p] == 0) continue;
      const double t = cluster.quant_seconds(acct.fp_bytes[d][p]);
      stats.quant_seconds[d] += t;
      stats.dequant_seconds[p] += t;
    }
  if (n > 1)
    stats.comm_seconds =
        RingAllToAll(n).total_seconds(cluster, stats.pair_bytes);
  // Global instruments: one round, its message count, and wire bytes by
  // width. Purely observational — nothing reads these back.
  const obs::Instruments& ins = obs::instruments();
  std::array<std::uint64_t, obs::kNumWidths> width_total{};
  for (int d = 0; d < n; ++d)
    for (int p = 0; p < n; ++p) {
      if (acct.pair_bytes[d][p] == 0) continue;
      ++stats.messages;
      for (int w = 0; w < obs::kNumWidths; ++w)
        width_total[static_cast<std::size_t>(w)] +=
            acct.pair_width_bytes[d][p][static_cast<std::size_t>(w)];
    }
  ins.exchange_rounds.add(1);
  ins.exchange_messages.add(stats.messages);
  for (int w = 0; w < obs::kNumWidths; ++w)
    ins.exchange_wire_bytes[static_cast<std::size_t>(w)]->add(
        width_total[static_cast<std::size_t>(w)]);
}

}  // namespace adaqp::pipeline
