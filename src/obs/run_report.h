// Per-epoch run reports: the shutdown-export half of the observability
// subsystem (docs/OBSERVABILITY.md).
//
// `RunCapture` is a fixed-capacity recorder the trainer owns. It is
// dimensioned once at the top of `DistTrainer::run()` (epochs x devices),
// before the first epoch — every later write lands in pre-allocated
// storage, so capture is active through steady-state epochs without
// violating the zero-allocation contract (test_memory gates this with
// `ADAQP_METRICS` set). Rows hold plain doubles/ints written by the
// training thread only; nothing here is read back by the hot path, so
// capture cannot perturb bit-determinism.
//
// `write_report()` runs once at the end of `run()` and is allowed to
// allocate freely. The JSON schema is versioned (`adaqp-metrics-v1`) and
// validated by `tools/metrics_schema_check.cpp`; `tools/profile_report.cpp`
// summarizes its profile section.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/stopwatch.h"

namespace adaqp::obs {

/// Append `s` to `out` with JSON string escaping: `"` and `\` are
/// backslash-escaped, control characters < 0x20 use the named short forms
/// (\b \t \n \f \r) or \u00XX. Bytes >= 0x20 pass through (UTF-8 safe).
void json_escape(std::string_view s, std::string& out);
std::string json_escaped(std::string_view s);

/// Measured wall seconds of one epoch's phases, stamped by train_epoch at
/// the same points as the allocation report. Always filled (cheap), so
/// model seconds (`sim_*`, core/timing.h) and measured seconds sit side by
/// side in the report.
struct PhaseWall {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double optimizer_s = 0.0;
  double refresh_s = 0.0;
  double evaluation_s = 0.0;
  double total() const {
    return forward_s + backward_s + optimizer_s + refresh_s + evaluation_s;
  }
};

/// Everything the report records about one epoch.
struct EpochRow {
  int epoch = 0;

  double train_loss = 0.0;
  double val_acc = 0.0;
  double test_acc = 0.0;

  // Model time under the ClusterSpec (core/timing.h), from EpochBreakdown.
  double sim_comm_s = 0.0;
  double sim_comp_s = 0.0;
  double sim_quant_s = 0.0;
  double sim_total_s = 0.0;

  PhaseWall wall;  // measured time, same phase boundaries

  // Heap allocations per phase (memory/alloc_track.h counters).
  std::uint64_t allocs_forward = 0;
  std::uint64_t allocs_backward = 0;
  std::uint64_t allocs_optimizer = 0;
  std::uint64_t allocs_refresh = 0;
  std::uint64_t allocs_evaluation = 0;
  bool steady_state = false;  ///< epoch claimed by the zero-alloc contract

  // Training-path exchange traffic (evaluation traffic is excluded; it is
  // visible in the global codec/exchange counters instead).
  std::uint64_t messages = 0;  ///< non-empty pair blocks moved
  std::array<std::uint64_t, kNumWidths> wire_bytes{};  ///< header-less, by width

  // Realized exchange||compute concurrency: the sum of the epoch's profiled
  // segments (obs/profile.h), so zero with ADAQP_PROFILE=0. Methods without
  // compute stages in their layer graphs have zero compute_busy_s, and so
  // zero efficiency().
  OverlapAccum fwd_overlap;
  OverlapAccum bwd_overlap;
};

/// Fixed-capacity per-epoch recorder. All storage is allocated by init();
/// row() and add_pair() never allocate. Epochs at or beyond capacity are
/// dropped (row() returns nullptr) rather than grown.
class RunCapture {
 public:
  /// Dimension for `max_epochs` rows over a `devices`-partition run and
  /// enable capture. Allocates; call outside steady-state epochs only.
  void init(int max_epochs, int devices);

  bool enabled() const { return enabled_; }
  int devices() const { return devices_; }
  /// Highest epoch index written + 1.
  int captured_epochs() const { return captured_; }

  /// Mutable row for `epoch`, or nullptr when capture is disabled or the
  /// epoch is out of capacity. Never allocates.
  EpochRow* row(int epoch);
  const EpochRow& row_at(int epoch) const { return rows_[epoch]; }

  /// Fold one src->dst pair block into the per-pair ledgers of `epoch`.
  /// `width_bytes` excludes the 12-byte block header; `total_bytes` is the
  /// full wire block. Never allocates.
  void add_pair(int epoch, int src, int dst,
                const std::array<std::uint64_t, kNumWidths>& width_bytes,
                std::uint64_t total_bytes);

  std::uint64_t pair_total_bytes(int epoch, int src, int dst) const;
  std::uint64_t pair_messages(int epoch, int src, int dst) const;
  std::uint64_t pair_width_bytes(int epoch, int src, int dst, int w) const;

  /// Critical-path profile rows (obs/profile.h). Dimensioned by its own
  /// init() from DistTrainer::run() when ADAQP_PROFILE is armed; stays
  /// disabled (and skipped by the report writer) otherwise.
  ProfileCapture& profile() { return profile_; }
  const ProfileCapture& profile() const { return profile_; }

 private:
  std::size_t pair_slot(int epoch, int src, int dst) const {
    return (static_cast<std::size_t>(epoch) * devices_ + src) * devices_ + dst;
  }

  bool enabled_ = false;
  int capacity_ = 0;
  int devices_ = 0;
  int captured_ = 0;
  std::vector<EpochRow> rows_;
  std::vector<std::uint64_t> pair_total_;  // [epoch][src][dst]
  std::vector<std::uint64_t> pair_msgs_;   // [epoch][src][dst]
  std::vector<std::uint64_t> pair_width_;  // [epoch][src][dst][width]
  ProfileCapture profile_;
};

/// Run-level header of the report.
struct ReportMeta {
  std::string method;
  std::string model;
  std::string dataset;
  std::string partition;
  int devices = 0;
  int layers = 0;
  int threads = 1;
  /// std::thread::hardware_concurrency() of the host, recorded next to
  /// every overlap/speedup figure so a 1-core CI runner's numbers are
  /// machine-readably suspect (ROADMAP's measurement-gap caveat).
  int hardware_threads = 0;
  /// True when hardware_threads < threads: overlap efficiency and speedup
  /// figures from this run reflect oversubscription, not real parallelism.
  bool low_parallelism_host = false;
  bool async = false;
  int epochs_requested = 0;
  double sim_train_seconds = 0.0;
  double assign_seconds = 0.0;
  std::uint64_t total_comm_bytes = 0;
};

inline constexpr std::string_view kReportSchema = "adaqp-metrics-v1";

/// Write the JSON report (including a full registry snapshot) to cfg.path. Returns false if the file could not be opened.
/// Allocates freely — shutdown path only.
bool write_report(const RunCapture& capture, const ReportMeta& meta,
                  const ReportConfig& cfg);

}  // namespace adaqp::obs
