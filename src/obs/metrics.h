// Process-wide metrics registry: the always-on half of the observability
// subsystem (docs/OBSERVABILITY.md).
//
// Design contract, in priority order:
//
//  1. **Never perturbs numerics.** Instruments are written, never read, by
//     hot-path code — no recorded value feeds back into training, so the
//     bit-determinism contract (docs/DETERMINISM.md) is trivially upheld
//     with metrics on or off.
//  2. **Zero allocations at steady state.** Every instrument the hot paths
//     touch is pre-registered in `instruments()` (a function-local static
//     built on first use, i.e. during warmup at the latest); recording is
//     a relaxed atomic bump into fixed storage. The steady-state gate in
//     test_memory runs with `ADAQP_METRICS` set to prove it.
//  3. **Race-free by construction.** Counters/gauges are single atomics;
//     histogram buckets are fixed arrays of atomics. Concurrent recording
//     from pool workers needs no locks; CI runs a racecheck and a TSan
//     pass with metrics enabled.
//
// Registration (`Registry::counter()` etc.) takes a mutex and may
// allocate — it is meant for startup, not for hot loops. Instruments live
// in deques so their addresses stay stable for the lifetime of the
// process; `snapshot()` (export time only) copies values out in
// registration order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace adaqp::obs {

/// Monotonic event/byte counter. All operations are relaxed: counts are
/// observational and never synchronize anything.
class Counter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (e.g. queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: upper bounds are set at registration (at most
/// kMaxBounds), plus an implicit overflow bucket. record() is a linear
/// scan over <= 16 doubles and one relaxed increment — no allocation, no
/// locks. sum_ uses a CAS loop (atomic<double> has no fetch_add pre-C++20
/// on all our toolchains).
class Histogram {
 public:
  static constexpr std::size_t kMaxBounds = 16;

  explicit Histogram(std::span<const double> upper_bounds);

  void record(double v);

  std::size_t num_bounds() const { return num_bounds_; }
  double bound(std::size_t i) const { return bounds_[i]; }
  /// Count in bucket i (i == num_bounds() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::size_t num_bounds_ = 0;
  std::array<double, kMaxBounds> bounds_{};
  std::array<std::atomic<std::uint64_t>, kMaxBounds + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Name-keyed instrument registry. Lookups are idempotent: asking for an
/// existing name returns the same instrument (a histogram's bounds are
/// fixed by the first registration). Instrument addresses are stable
/// forever — hold references, not names, in hot code.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  struct HistogramSnapshot {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size()+1, overflow last
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };
  /// Copy of every instrument in registration order. Allocates — export
  /// and test use only.
  Snapshot snapshot() const;

  /// Zero every registered instrument (tests).
  void reset_values();

 private:
  Registry();
  ~Registry();
  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Wire bit-widths. Indices into per-width counter arrays everywhere in the
// subsystem (reports, ExchangeStats extensions, instruments()).
// ---------------------------------------------------------------------------

inline constexpr int kNumWidths = 4;
inline constexpr std::array<int, kNumWidths> kWireWidths{2, 4, 8, 32};

/// Map a codec bit-width {2,4,8,32} to its slot; anything unexpected lands
/// in the 32-bit slot (the codec only emits these four tags).
constexpr int width_index(int bits) {
  switch (bits) {
    case 2: return 0;
    case 4: return 1;
    case 8: return 2;
    default: return 3;
  }
}

// ---------------------------------------------------------------------------
// The pre-registered instrument catalog. First call registers everything
// (allocates, once); hot paths then bump through stable references. The
// catalog is documented in docs/OBSERVABILITY.md — keep the two in sync.
// ---------------------------------------------------------------------------

struct Instruments {
  Counter& trainer_epochs;            ///< train_epoch() completions

  Counter& codec_encode_calls;        ///< message blocks encoded
  Counter& codec_encode_bytes;        ///< wire bytes produced
  Counter& codec_encode_ns;           ///< wall ns spent encoding
  Counter& codec_decode_calls;
  Counter& codec_decode_bytes;
  Counter& codec_decode_ns;

  Counter& exchange_rounds;           ///< finalized exchange rounds
  Counter& exchange_messages;         ///< non-empty pair blocks moved
  /// Wire bytes by width tag (index = width_index(bits)); excludes the
  /// 12-byte block header, which is in pair-byte totals only.
  std::array<Counter*, kNumWidths> exchange_wire_bytes;
  Histogram& exchange_submit_to_join_us;  ///< async submit() -> wait() latency

  Counter& pipeline_stages;           ///< stage-graph stages executed
  Counter& pool_tasks;                ///< batched pool tasks executed
  Counter& pool_detached_tasks;       ///< detached pool tasks executed
  Gauge& pool_detached_depth;         ///< current detached-queue depth

  Counter& assigner_solves;           ///< bit-assignment solves
  /// Rows assigned per candidate width {2,4,8} across all solves.
  std::array<Counter*, 3> assigner_bits;
  Histogram& assigner_solve_us;       ///< per-solve wall time

  Counter& transport_frames;          ///< frames delivered to receivers
  Counter& transport_bytes;           ///< delivered payload bytes
  Counter& transport_wire_frames;     ///< frames that crossed a byte stream
  Counter& transport_wire_bytes;      ///< framed bytes written to streams
  Counter& transport_short_writes;    ///< partial stream writes observed
  Counter& transport_reconnects;      ///< tcp dial retries (refused/again)
  Histogram& transport_rtt_us;        ///< tcp per-pair connect handshake time
  Counter& transport_fault_delays;    ///< fault-injected delivery delays
  Counter& transport_fault_reorders;  ///< fault-injected frame holds
  Counter& transport_fault_splits;    ///< fault-injected frame fragmentations
  Counter& transport_fault_drops;     ///< fault-injected frame drops
};

/// The process-wide catalog. First call registers every instrument.
const Instruments& instruments();

// ---------------------------------------------------------------------------
// Run-report configuration (ADAQP_METRICS).
// ---------------------------------------------------------------------------

struct ReportConfig {
  bool enabled = false;
  std::string path;
};

/// Resolve the active configuration: the in-process override wins, else the
/// environment. `ADAQP_METRICS` names the output path of the JSON report
/// (unset/empty = disabled).
ReportConfig report_config();

/// Install (or with nullopt, clear) the in-process override; returns the
/// previous override so guards can nest. Tests use this instead of setenv.
std::optional<ReportConfig> set_report_override(
    std::optional<ReportConfig> cfg);

/// RAII override for tests: enables a report at `path` (or force-disables
/// reporting) for the guard's scope, restoring the previous override after.
class MetricsGuard {
 public:
  explicit MetricsGuard(std::string path);
  /// Force-disabled for the scope (shadows any environment setting).
  MetricsGuard();
  ~MetricsGuard();
  MetricsGuard(const MetricsGuard&) = delete;
  MetricsGuard& operator=(const MetricsGuard&) = delete;

 private:
  std::optional<ReportConfig> prev_;
};

}  // namespace adaqp::obs
