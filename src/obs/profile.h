// Critical-path profiler: the explanation half of the observability
// subsystem (docs/OBSERVABILITY.md, "Critical-path profiler").
//
// PR 8 made the repo *measure* an epoch (phase walls, wire bytes, realized
// overlap efficiency); this layer *explains* it. From the stage begin/end
// timestamps every StageGraph already stamps (two clock reads per stage,
// always on) plus the declared dependency edges, the profiler reconstructs
// each executed graph segment as a weighted DAG and runs the classic
// critical-path method over it: earliest/latest finish per stage, per-stage
// self-time and slack, the longest weighted dependency chain (the critical
// path), and an attribution of that chain to semantic categories — central
// compute, marginal compute, encode, wire, decode, gradient fold. From the
// same DAG it computes what-if projections: the zero-wire-cost bound, the
// infinite-thread bound (the critical path itself — no schedule can beat
// it), and per-category sensitivity ("the epoch shrinks X seconds if encode
// were free"), so a future perf PR can be scoped against a predicted win
// before any code is written.
//
// House invariants, same as the rest of src/obs/:
//  1. Write-only from the training path: nothing here feeds back into
//     numerics, so profiling on vs. off is bit-identical for every method
//     (tests/test_profile.cpp pins all five across async x threads).
//  2. Zero allocations at steady state: ProfileCapture::init() dimensions
//     every row, the DAG scratch and the interval scratch once, at the top
//     of DistTrainer::run(); per-epoch capture then only writes
//     pre-allocated storage (gated with the profiler armed in
//     tests/test_profile.cpp).
//  3. One source of realized overlap: each segment's OverlapAccum (the
//     obs/stopwatch.h interval arithmetic over its exchange and compute
//     stages) is summed, in execution order, into EpochRow's per-direction
//     OverlapAccum — the row holds no figure of its own, so with
//     ADAQP_PROFILE=0 it carries zero overlap (exact agreement is asserted
//     in tests).
//
// Stage classification is by name, using the repo's stage naming scheme
// (pipeline/exchange_stages.cpp, core/trainer.cpp): "fwd/dX->dY" fused
// exchange stages, "bwd-enc/dX->dY" / "bwd-acc/dX" backward wire stages,
// "L{l}/central|marginal/d{d}" compute stages, "L{l}b/fold".
// Fused exchange stages cover encode+wire+decode inside one measured span;
// their span is split across the three categories in proportion to the
// cost model's quantize : comm : dequantize seconds for that layer-epoch
// (ExchangeStats), which is the same model the paper's Fig. 10a uses.
//
// The profile is emitted as the versioned `adaqp-profile-v1` section of the
// ADAQP_METRICS run report (run_report.cpp; validated by
// tools/metrics_schema_check) and compared across runs by
// tools/profile_report — the repo's perf-regression gate. ADAQP_PROFILE=0
// disables capture (docs/ENVVARS.md); default is on whenever a metrics
// report is enabled.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stopwatch.h"

namespace adaqp::obs {

// ---------------------------------------------------------------------------
// Stage categories
// ---------------------------------------------------------------------------

/// Semantic attribution buckets for stage time. kCatOther absorbs stages
/// with no wire/compute meaning (range traces); the epoch rollup
/// additionally reports optimizer / scheduling / serial components that are
/// not stage categories (EpochProfile).
enum ProfileCategory : int {
  kCatCentral = 0,   ///< central-row compute (hides under the wire)
  kCatMarginal,      ///< marginal-row compute (on the critical path by design)
  kCatEncode,        ///< quantize + pack
  kCatWire,          ///< modeled transfer share of exchange stages
  kCatDecode,        ///< unpack + dequantize (+ owner-side accumulate)
  kCatFold,          ///< shared parameter-gradient fold
  kCatOther,         ///< range traces, unrecognized stages
  kNumProfileCategories
};

/// Stable JSON/report key per category ("central", "marginal", ...).
const char* profile_category_key(int category);

/// Classified identity of one stage, parsed from its name.
struct StageClass {
  int category = kCatOther;  ///< primary bucket (exchange stages: see split)
  bool fused_forward = false;   ///< "fwd/dX->dY": encode+wire+decode in one
  bool fused_backward = false;  ///< "bwd-enc/dX->dY": encode+wire in one
  int src = -1;  ///< sender device for pair stages, else -1
  int dst = -1;  ///< receiver device for pair stages, else -1
};

/// Parse a stage name into its category and (for wire stages) device pair.
/// Pure and allocation-free; understands the repo's stage naming scheme and
/// files anything else under kCatOther.
StageClass classify_stage(std::string_view name);

/// True for the stages of an exchange: the fused forward pair stages, the
/// backward sender stages and the owner-side accumulate.
inline bool is_exchange(const StageClass& cls) {
  return cls.fused_forward || cls.fused_backward ||
         cls.category == kCatDecode;
}

// ---------------------------------------------------------------------------
// Per-segment results
// ---------------------------------------------------------------------------

/// Upper bound on critical-path stage names remembered per segment (the
/// fused layer graphs are far smaller; synthetic test DAGs too).
inline constexpr int kMaxCpStages = 64;

/// Critical-path profile of one executed StageGraph segment (one layer,
/// one direction, one epoch). All fixed-size; rows live in storage
/// pre-allocated by ProfileCapture::init().
struct SegmentProfile {
  int layer = -1;
  bool forward = true;
  int stages = 0;          ///< stages captured
  int cp_stages = 0;       ///< stages on the critical path
  double makespan_s = 0.0; ///< max end − min begin (measured wall of the run)
  double cp_s = 0.0;       ///< longest weighted dependency chain
  double busy_s = 0.0;     ///< Σ stage self-times (the 1-thread bound)
  double slack_s = 0.0;    ///< Σ per-stage slack (latest − earliest finish)
  double zero_wire_cp_s = 0.0;  ///< critical path with wire weights zeroed
  /// Critical-path seconds attributed per category (Σ == cp_s).
  std::array<double, kNumProfileCategories> category_s{};
  /// cp_s − critical path recomputed with category c's weights zeroed:
  /// the seconds this segment shrinks if category c were free.
  std::array<double, kNumProfileCategories> sensitivity_s{};
  /// Realized exchange||compute concurrency of this segment; the epoch
  /// row's per-direction OverlapAccum is the sum of these.
  OverlapAccum overlap;
  /// Names of the critical-path stages in execution order, truncated at
  /// kMaxCpStages. Pointers into the owning StageGraph's stable Node
  /// storage — valid for the graph's (= the run's) lifetime.
  std::array<const std::string*, kMaxCpStages> cp_names{};
};

// ---------------------------------------------------------------------------
// Reusable DAG scratch
// ---------------------------------------------------------------------------

/// Fixed-capacity DAG builder + critical-path solver, reused for every
/// segment of every epoch. reserve() once (allowed to allocate); after
/// that, clear()/add_stage()/add_dep()/compute() never allocate. Dependency
/// ids must reference earlier stages (StageGraph's own acyclicity rule), so
/// ascending id order is a valid topological order and the CPM passes are
/// two linear sweeps.
class ProfileDag {
 public:
  /// Dimension the scratch: at most `max_stages` stages and `max_deps`
  /// total dependency edges per segment. Allocates; init-time only.
  void reserve(int max_stages, int max_deps);

  void clear();

  /// Add a stage with its measured timestamps (µs, monotonic_us() clock).
  /// `name` may outlive the profile (graph-owned) or be null (tests).
  /// Classification is by name; weight = end − begin. Returns the stage id,
  /// or -1 when capacity is exhausted (the segment is then truncated —
  /// callers size reserve() so this never happens in real runs).
  int add_stage(const std::string* name, std::string_view name_view,
                double begin_us, double end_us);

  /// Declare that `stage` depends on `dep` (dep < stage). Edges beyond
  /// capacity are dropped (counted, reported as truncated).
  void add_dep(int stage, int dep);

  /// Model-time split of fused exchange stages for this segment:
  /// quantize : comm : dequantize seconds (ExchangeStats). Fractions are
  /// normalized internally; all-zero means fused spans land fully on wire.
  void set_exchange_model(double quant_s, double comm_s, double dequant_s);

  int size() const { return static_cast<int>(count_); }
  bool truncated() const { return truncated_; }

  /// Run the critical-path method and fill `out`. `pair_s` (optional) is a
  /// devices x devices row-major matrix accumulating measured exchange
  /// seconds per (src, dst) pair. Allocation-free.
  void compute(SegmentProfile& out, double* pair_s = nullptr,
               int devices = 0);

 private:
  struct Stage {
    const std::string* name;
    double begin_us, end_us;
    StageClass cls;
    /// Seconds of this stage's span per category (fused stages split).
    std::array<double, kNumProfileCategories> weight_s;
    double weight() const {
      double w = 0.0;
      for (const double v : weight_s) w += v;
      return w;
    }
  };

  double longest_path_without(int category) const;

  std::vector<Stage> stages_;
  std::vector<std::vector<int>> deps_;    ///< per-stage dep lists (reserved)
  std::vector<double> earliest_f_;        ///< CPM forward pass (seconds)
  std::vector<double> latest_f_;          ///< CPM backward pass
  std::vector<int> cp_pred_;              ///< longest-path predecessor
  mutable std::vector<double> path_;      ///< what-if longest-path scratch
  std::vector<Interval> iv_exchange_;     ///< overlap scratch
  std::vector<Interval> iv_compute_;
  std::size_t count_ = 0;
  std::size_t dep_count_ = 0;
  std::size_t dep_capacity_ = 0;
  bool truncated_ = false;
  double enc_frac_ = 0.0, wire_frac_ = 1.0, dec_frac_ = 0.0;
  double bwd_enc_frac_ = 0.0, bwd_wire_frac_ = 1.0;
};

// ---------------------------------------------------------------------------
// Per-run capture
// ---------------------------------------------------------------------------

/// Epoch-level rollup, derived from the stored segments plus the trainer's
/// phase walls. Computed on demand (epoch_rollup()); cheap, allocation-free,
/// and used by both the report writer and tests.
struct EpochProfile {
  double attributed_wall_s = 0.0;  ///< forward + backward + optimizer walls
  double cp_s = 0.0;               ///< Σ segment critical paths
  double busy_s = 0.0;             ///< Σ segment stage self-times
  double slack_s = 0.0;            ///< Σ segment slack
  /// Stage categories (Σ segment attribution) plus the three non-stage
  /// components; all kNumProfileCategories + optimizer + scheduling +
  /// serial sum to attributed_wall_s exactly (by construction).
  std::array<double, kNumProfileCategories> category_s{};
  double optimizer_s = 0.0;   ///< optimizer phase wall (not a stage)
  double scheduling_s = 0.0;  ///< Σ (segment makespan − segment cp): queueing
  double serial_s = 0.0;      ///< fwd+bwd wall not covered by any segment
  /// What-if projections (seconds for the whole attributed epoch).
  double zero_wire_s = 0.0;        ///< wire weights zeroed on every segment
  double infinite_thread_s = 0.0;  ///< cp + optimizer + serial (no queueing)
  std::array<double, kNumProfileCategories> sensitivity_s{};
};

inline constexpr std::string_view kProfileSchema = "adaqp-profile-v1";

/// Fixed-capacity per-run profile recorder, owned by RunCapture. init()
/// allocates everything (top of DistTrainer::run()); segment capture and
/// phase stamping never allocate.
class ProfileCapture {
 public:
  /// Dimension for `max_epochs` x (`layers` x 2 directions) segments over a
  /// `devices`-partition run, with DAG scratch for `max_stages` stages and
  /// `max_deps` edges per segment. Enables capture.
  void init(int max_epochs, int layers, int devices, int max_stages,
            int max_deps);

  bool enabled() const { return enabled_; }
  int layers() const { return layers_; }
  int devices() const { return devices_; }
  /// Highest epoch index with a captured segment or phases, + 1.
  int captured_epochs() const { return captured_; }

  /// The shared DAG scratch (cleared by the caller per segment).
  ProfileDag& dag() { return dag_; }

  /// Mutable segment row, or nullptr when disabled / out of capacity.
  SegmentProfile* segment(int epoch, int layer, bool forward);
  const SegmentProfile& segment_at(int epoch, int layer, bool forward) const;

  /// Per-pair measured exchange seconds of one epoch (devices x devices,
  /// row-major src-major), or nullptr when disabled / out of capacity.
  double* pair_seconds(int epoch);
  double pair_seconds_at(int epoch, int src, int dst) const;

  /// Stamp the epoch's phase walls (train_epoch, once per epoch).
  void set_epoch_phases(int epoch, double forward_s, double backward_s,
                        double optimizer_s);

  /// Roll the epoch's segments + phases up into the attribution and
  /// what-if summary. Allocation-free; zeroes when the epoch is empty.
  EpochProfile epoch_rollup(int epoch) const;

 private:
  std::size_t seg_slot(int epoch, int layer, bool forward) const {
    return (static_cast<std::size_t>(epoch) * layers_ + layer) * 2 +
           (forward ? 0 : 1);
  }

  bool enabled_ = false;
  int capacity_ = 0;
  int layers_ = 0;
  int devices_ = 0;
  int captured_ = 0;
  ProfileDag dag_;
  std::vector<SegmentProfile> segments_;  ///< [epoch][layer][direction]
  std::vector<double> pair_s_;            ///< [epoch][src][dst]
  std::vector<double> phase_fwd_s_, phase_bwd_s_, phase_opt_s_;
};

// ---------------------------------------------------------------------------
// ADAQP_PROFILE knob
// ---------------------------------------------------------------------------

/// Whether profile capture is armed: the in-process override wins, else the
/// strict ADAQP_PROFILE flag (default on). Profile rows only exist when the
/// metrics report is also enabled — this knob opts *out* of the profile
/// section without giving up the rest of the report.
bool profile_enabled();

/// Install (or clear) the in-process override; returns the previous value.
std::optional<bool> set_profile_override(std::optional<bool> enabled);

/// RAII override for tests (avoids setenv).
class ProfileGuard {
 public:
  explicit ProfileGuard(bool enabled);
  ~ProfileGuard();
  ProfileGuard(const ProfileGuard&) = delete;
  ProfileGuard& operator=(const ProfileGuard&) = delete;

 private:
  std::optional<bool> prev_;
};

}  // namespace adaqp::obs
