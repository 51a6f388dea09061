#include "obs/profile.h"

#include <algorithm>
#include <cstddef>

#include "common/env.h"

namespace adaqp::obs {

namespace {

constexpr const char* kCategoryKeys[kNumProfileCategories] = {
    "central", "marginal", "encode", "wire", "decode", "fold", "other"};

constexpr double kUsToS = 1e-6;

/// Parse a non-negative integer at `pos`; returns -1 when no digit.
int parse_int(std::string_view s, std::size_t& pos) {
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return -1;
  int v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + (s[pos] - '0');
    ++pos;
  }
  return v;
}

/// Parse the "d{X}" / "d{X}->d{Y}" suffix after the final '/'.
void parse_pair(std::string_view name, StageClass& cls) {
  const std::size_t slash = name.rfind('/');
  if (slash == std::string_view::npos) return;
  std::size_t pos = slash + 1;
  if (pos >= name.size() || name[pos] != 'd') return;
  ++pos;
  const int first = parse_int(name, pos);
  if (first < 0) return;
  if (name.compare(pos, 3, "->d") == 0) {
    pos += 3;
    const int second = parse_int(name, pos);
    if (second < 0) return;
    cls.src = first;
    cls.dst = second;
  } else {
    // Single-device suffix: bwd-acc runs on the receiving owner.
    cls.dst = first;
  }
}

}  // namespace

const char* profile_category_key(int category) {
  if (category < 0 || category >= kNumProfileCategories) return "other";
  return kCategoryKeys[category];
}

StageClass classify_stage(std::string_view name) {
  StageClass cls;
  const auto starts = [&](std::string_view prefix) {
    return name.size() >= prefix.size() &&
           name.compare(0, prefix.size(), prefix) == 0;
  };
  if (starts("fwd/")) {
    // Fused forward exchange: encode + modeled wire + decode in one span.
    cls.category = kCatWire;
    cls.fused_forward = true;
    parse_pair(name, cls);
  } else if (starts("bwd-enc/")) {
    // Fused backward sender: encode + modeled wire in one span.
    cls.category = kCatWire;
    cls.fused_backward = true;
    parse_pair(name, cls);
  } else if (starts("bwd-acc/")) {
    // Owner-side dequantize + accumulate.
    cls.category = kCatDecode;
    parse_pair(name, cls);
  } else if (starts("bwd-zero/")) {
    cls.category = kCatOther;
  } else if (name.find("/central") != std::string_view::npos) {
    cls.category = kCatCentral;
  } else if (name.find("/marginal") != std::string_view::npos) {
    cls.category = kCatMarginal;
  } else if (name.find("/fold") != std::string_view::npos) {
    cls.category = kCatFold;
  } else if (name.find("/trace") != std::string_view::npos) {
    cls.category = kCatOther;
  }
  return cls;
}

// ---------------------------------------------------------------------------
// ProfileDag
// ---------------------------------------------------------------------------

void ProfileDag::reserve(int max_stages, int max_deps) {
  const auto n = static_cast<std::size_t>(std::max(max_stages, 1));
  stages_.clear();
  stages_.reserve(n);
  deps_.resize(n);
  // Dep lists grow on first capture of each graph shape (warmup epoch, not
  // steady); a modest per-stage reserve keeps even that rare. The total-edge
  // cap is enforced in add_dep.
  for (auto& d : deps_) {
    d.clear();
    d.reserve(8);
  }
  dep_capacity_ = static_cast<std::size_t>(std::max(max_deps, 1));
  earliest_f_.resize(n);
  latest_f_.resize(n);
  cp_pred_.resize(n);
  path_.resize(n);
  iv_exchange_.clear();
  iv_exchange_.reserve(n);
  iv_compute_.clear();
  iv_compute_.reserve(n);
  count_ = 0;
  dep_count_ = 0;
  truncated_ = false;
}

void ProfileDag::clear() {
  for (std::size_t i = 0; i < count_; ++i) deps_[i].clear();
  count_ = 0;
  dep_count_ = 0;
  truncated_ = false;
  enc_frac_ = 0.0;
  wire_frac_ = 1.0;
  dec_frac_ = 0.0;
  bwd_enc_frac_ = 0.0;
  bwd_wire_frac_ = 1.0;
}

int ProfileDag::add_stage(const std::string* name, std::string_view name_view,
                          double begin_us, double end_us) {
  if (count_ >= stages_.capacity() || count_ >= deps_.size()) {
    truncated_ = true;
    return -1;
  }
  if (stages_.size() <= count_) stages_.emplace_back();
  Stage& st = stages_[count_];
  st.name = name;
  st.begin_us = begin_us;
  st.end_us = std::max(end_us, begin_us);
  st.cls = classify_stage(name_view);
  st.weight_s.fill(0.0);
  return static_cast<int>(count_++);
}

void ProfileDag::add_dep(int stage, int dep) {
  if (stage < 0 || dep < 0 || dep >= stage ||
      static_cast<std::size_t>(stage) >= count_) {
    return;
  }
  if (dep_count_ >= dep_capacity_) {
    truncated_ = true;
    return;
  }
  deps_[static_cast<std::size_t>(stage)].push_back(dep);
  ++dep_count_;
}

void ProfileDag::set_exchange_model(double quant_s, double comm_s,
                                    double dequant_s) {
  const double q = std::max(quant_s, 0.0);
  const double c = std::max(comm_s, 0.0);
  const double d = std::max(dequant_s, 0.0);
  const double fwd_total = q + c + d;
  if (fwd_total > 0.0) {
    enc_frac_ = q / fwd_total;
    wire_frac_ = c / fwd_total;
    dec_frac_ = d / fwd_total;
  } else {
    enc_frac_ = dec_frac_ = 0.0;
    wire_frac_ = 1.0;
  }
  const double bwd_total = q + c;
  if (bwd_total > 0.0) {
    bwd_enc_frac_ = q / bwd_total;
    bwd_wire_frac_ = c / bwd_total;
  } else {
    bwd_enc_frac_ = 0.0;
    bwd_wire_frac_ = 1.0;
  }
}

double ProfileDag::longest_path_without(int category) const {
  double best = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    double w = stages_[i].weight() - stages_[i].weight_s[category];
    double start = 0.0;
    for (const int dep : deps_[i]) {
      start = std::max(start, path_[static_cast<std::size_t>(dep)]);
    }
    path_[i] = start + w;
    best = std::max(best, path_[i]);
  }
  return best;
}

void ProfileDag::compute(SegmentProfile& out, double* pair_s, int devices) {
  out.stages = static_cast<int>(count_);
  out.cp_stages = 0;
  out.makespan_s = out.cp_s = out.busy_s = out.slack_s = 0.0;
  out.zero_wire_cp_s = 0.0;
  out.category_s.fill(0.0);
  out.sensitivity_s.fill(0.0);
  out.overlap = OverlapAccum{};
  out.cp_names.fill(nullptr);
  if (count_ == 0) return;

  // Split each stage's measured span across categories. Fused exchange
  // stages use the cost model's quantize : comm : dequantize proportions
  // for this layer-epoch (set_exchange_model); plain stages land whole on
  // their classified category.
  double min_begin = stages_[0].begin_us;
  double max_end = stages_[0].end_us;
  std::array<bool, kNumProfileCategories> present{};
  for (std::size_t i = 0; i < count_; ++i) {
    Stage& st = stages_[i];
    const double span = (st.end_us - st.begin_us) * kUsToS;
    st.weight_s.fill(0.0);
    if (st.cls.fused_forward) {
      st.weight_s[kCatEncode] = span * enc_frac_;
      st.weight_s[kCatWire] = span * wire_frac_;
      st.weight_s[kCatDecode] = span * dec_frac_;
    } else if (st.cls.fused_backward) {
      st.weight_s[kCatEncode] = span * bwd_enc_frac_;
      st.weight_s[kCatWire] = span * bwd_wire_frac_;
    } else {
      st.weight_s[st.cls.category] = span;
    }
    for (int c = 0; c < kNumProfileCategories; ++c) {
      if (st.weight_s[c] > 0.0) present[static_cast<std::size_t>(c)] = true;
    }
    min_begin = std::min(min_begin, st.begin_us);
    max_end = std::max(max_end, st.end_us);
    out.busy_s += span;
  }
  out.makespan_s = (max_end - min_begin) * kUsToS;

  // CPM forward pass over declared dependencies (ascending id is a valid
  // topological order — StageGraph only accepts deps on earlier stages).
  std::size_t cp_end = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    double start = 0.0;
    int pred = -1;
    for (const int dep : deps_[i]) {
      const double ef = earliest_f_[static_cast<std::size_t>(dep)];
      if (ef > start) {
        start = ef;
        pred = dep;
      }
    }
    earliest_f_[i] = start + stages_[i].weight();
    cp_pred_[i] = pred;
    if (earliest_f_[i] > earliest_f_[cp_end]) cp_end = i;
  }
  out.cp_s = earliest_f_[cp_end];

  // CPM backward pass: latest finish without delaying the critical path.
  for (std::size_t i = 0; i < count_; ++i) latest_f_[i] = out.cp_s;
  for (std::size_t j = count_; j-- > 0;) {
    const double ls = latest_f_[j] - stages_[j].weight();
    for (const int dep : deps_[j]) {
      auto& lf = latest_f_[static_cast<std::size_t>(dep)];
      lf = std::min(lf, ls);
    }
  }
  for (std::size_t i = 0; i < count_; ++i) {
    out.slack_s += std::max(0.0, latest_f_[i] - earliest_f_[i]);
  }

  // Walk the critical path backwards from its terminal stage, attributing
  // each stage's weight to its categories (so Σ category_s == cp_s), then
  // record the names in execution order.
  int cursor = static_cast<int>(cp_end);
  int cp_len = 0;
  while (cursor >= 0) {
    const Stage& st = stages_[static_cast<std::size_t>(cursor)];
    for (int c = 0; c < kNumProfileCategories; ++c) {
      out.category_s[static_cast<std::size_t>(c)] +=
          st.weight_s[static_cast<std::size_t>(c)];
    }
    ++cp_len;
    cursor = cp_pred_[static_cast<std::size_t>(cursor)];
  }
  out.cp_stages = cp_len;
  const int kept = std::min(cp_len, kMaxCpStages);
  cursor = static_cast<int>(cp_end);
  for (int slot = cp_len - 1; cursor >= 0; --slot) {
    if (slot < kMaxCpStages) {
      out.cp_names[static_cast<std::size_t>(slot)] =
          stages_[static_cast<std::size_t>(cursor)].name;
    }
    cursor = cp_pred_[static_cast<std::size_t>(cursor)];
  }
  (void)kept;

  // What-if projections from the same DAG: the critical path recomputed
  // with one category's weights removed. Only categories present in the
  // segment are re-solved; the rest have zero sensitivity by definition.
  for (int c = 0; c < kNumProfileCategories; ++c) {
    if (!present[static_cast<std::size_t>(c)]) continue;
    const double without = longest_path_without(c);
    out.sensitivity_s[static_cast<std::size_t>(c)] =
        std::max(0.0, out.cp_s - without);
    if (c == kCatWire) out.zero_wire_cp_s = without;
  }
  if (!present[kCatWire]) out.zero_wire_cp_s = out.cp_s;

  // Realized exchange || compute concurrency over the same stage sets the
  // trainer feeds EpochRow's OverlapAccum (exchange = pair stages + owner
  // accumulate; compute = central + fold), through the same interval
  // arithmetic — the two reports cannot drift.
  iv_exchange_.clear();
  iv_compute_.clear();
  for (std::size_t i = 0; i < count_; ++i) {
    const Stage& st = stages_[i];
    if (st.end_us <= st.begin_us) continue;
    const bool exchange =
        st.cls.fused_forward || st.cls.fused_backward ||
        (st.cls.category == kCatDecode);
    const bool compute =
        st.cls.category == kCatCentral || st.cls.category == kCatFold;
    if (exchange) iv_exchange_.push_back({st.begin_us, st.end_us});
    if (compute) iv_compute_.push_back({st.begin_us, st.end_us});
    if (pair_s != nullptr && devices > 0 && st.cls.dst >= 0 &&
        st.cls.dst < devices) {
      // Pair stages land at [src][dst]; the owner-side accumulate (no
      // sender in its name) lands on the receiver's diagonal.
      const int src = (st.cls.src >= 0 && st.cls.src < devices) ? st.cls.src
                                                                : st.cls.dst;
      pair_s[static_cast<std::size_t>(src) * devices + st.cls.dst] +=
          (st.end_us - st.begin_us) * kUsToS;
    }
  }
  accumulate_overlap(iv_exchange_, iv_compute_, out.overlap);
}

// ---------------------------------------------------------------------------
// ProfileCapture
// ---------------------------------------------------------------------------

void ProfileCapture::init(int max_epochs, int layers, int devices,
                          int max_stages, int max_deps) {
  capacity_ = std::max(max_epochs, 0);
  layers_ = std::max(layers, 1);
  devices_ = std::max(devices, 1);
  captured_ = 0;
  const std::size_t segs = static_cast<std::size_t>(capacity_) * layers_ * 2;
  segments_.assign(segs, SegmentProfile{});
  pair_s_.assign(static_cast<std::size_t>(capacity_) * devices_ * devices_,
                 0.0);
  phase_fwd_s_.assign(static_cast<std::size_t>(capacity_), 0.0);
  phase_bwd_s_.assign(static_cast<std::size_t>(capacity_), 0.0);
  phase_opt_s_.assign(static_cast<std::size_t>(capacity_), 0.0);
  dag_.reserve(max_stages, max_deps);
  enabled_ = capacity_ > 0;
}

SegmentProfile* ProfileCapture::segment(int epoch, int layer, bool forward) {
  if (!enabled_ || epoch < 0 || epoch >= capacity_ || layer < 0 ||
      layer >= layers_) {
    return nullptr;
  }
  captured_ = std::max(captured_, epoch + 1);
  return &segments_[seg_slot(epoch, layer, forward)];
}

const SegmentProfile& ProfileCapture::segment_at(int epoch, int layer,
                                                 bool forward) const {
  static const SegmentProfile kEmpty{};
  if (epoch < 0 || epoch >= capacity_ || layer < 0 || layer >= layers_) {
    return kEmpty;
  }
  return segments_[seg_slot(epoch, layer, forward)];
}

double* ProfileCapture::pair_seconds(int epoch) {
  if (!enabled_ || epoch < 0 || epoch >= capacity_) return nullptr;
  return &pair_s_[static_cast<std::size_t>(epoch) * devices_ * devices_];
}

double ProfileCapture::pair_seconds_at(int epoch, int src, int dst) const {
  if (epoch < 0 || epoch >= capacity_ || src < 0 || src >= devices_ ||
      dst < 0 || dst >= devices_) {
    return 0.0;
  }
  return pair_s_[(static_cast<std::size_t>(epoch) * devices_ + src) *
                     devices_ +
                 dst];
}

void ProfileCapture::set_epoch_phases(int epoch, double forward_s,
                                      double backward_s, double optimizer_s) {
  if (!enabled_ || epoch < 0 || epoch >= capacity_) return;
  phase_fwd_s_[static_cast<std::size_t>(epoch)] = forward_s;
  phase_bwd_s_[static_cast<std::size_t>(epoch)] = backward_s;
  phase_opt_s_[static_cast<std::size_t>(epoch)] = optimizer_s;
  captured_ = std::max(captured_, epoch + 1);
}

EpochProfile ProfileCapture::epoch_rollup(int epoch) const {
  EpochProfile out;
  if (epoch < 0 || epoch >= capacity_) return out;
  double makespan_sum = 0.0;
  double zero_wire_cp_sum = 0.0;
  for (int layer = 0; layer < layers_; ++layer) {
    for (int dir = 0; dir < 2; ++dir) {
      const SegmentProfile& seg = segments_[seg_slot(epoch, layer, dir == 0)];
      if (seg.stages == 0) continue;
      out.cp_s += seg.cp_s;
      out.busy_s += seg.busy_s;
      out.slack_s += seg.slack_s;
      makespan_sum += seg.makespan_s;
      zero_wire_cp_sum += seg.zero_wire_cp_s;
      for (int c = 0; c < kNumProfileCategories; ++c) {
        out.category_s[static_cast<std::size_t>(c)] +=
            seg.category_s[static_cast<std::size_t>(c)];
        out.sensitivity_s[static_cast<std::size_t>(c)] +=
            seg.sensitivity_s[static_cast<std::size_t>(c)];
      }
    }
  }
  const double fwd = phase_fwd_s_[static_cast<std::size_t>(epoch)];
  const double bwd = phase_bwd_s_[static_cast<std::size_t>(epoch)];
  out.optimizer_s = phase_opt_s_[static_cast<std::size_t>(epoch)];
  out.attributed_wall_s = fwd + bwd + out.optimizer_s;
  // Decompose the forward+backward wall into: critical-path categories
  // (Σ category_s == cp_s), scheduling (segment makespan beyond its
  // critical path: queueing + worker wakeup), and serial glue (wall not
  // covered by any profiled segment: graph reset, whole-row compute outside
  // the layer graphs, refresh work). Clamp residue flows between the two
  // derived terms so the decomposition sums to the attributed wall exactly
  // whenever timestamps are sane.
  out.scheduling_s = makespan_sum - out.cp_s;
  out.serial_s = (fwd + bwd) - makespan_sum;
  if (out.serial_s < 0.0) {
    out.scheduling_s += out.serial_s;
    out.serial_s = 0.0;
  }
  if (out.scheduling_s < 0.0) {
    out.serial_s = std::max(0.0, out.serial_s + out.scheduling_s);
    out.scheduling_s = 0.0;
  }
  // What-if projections for the whole epoch: both bounds assume perfect
  // scheduling (the measured queueing disappears with the contention).
  out.infinite_thread_s = out.cp_s + out.optimizer_s + out.serial_s;
  out.zero_wire_s = zero_wire_cp_sum + out.optimizer_s + out.serial_s;
  return out;
}

// ---------------------------------------------------------------------------
// ADAQP_PROFILE knob
// ---------------------------------------------------------------------------

namespace {
std::optional<bool>& profile_override() {
  static std::optional<bool> value;
  return value;
}
}  // namespace

bool profile_enabled() {
  if (profile_override().has_value()) return *profile_override();
  return env::flag01("ADAQP_PROFILE", true);
}

std::optional<bool> set_profile_override(std::optional<bool> enabled) {
  std::optional<bool> prev = profile_override();
  profile_override() = enabled;
  return prev;
}

ProfileGuard::ProfileGuard(bool enabled)
    : prev_(set_profile_override(enabled)) {}

ProfileGuard::~ProfileGuard() { set_profile_override(prev_); }

}  // namespace adaqp::obs
