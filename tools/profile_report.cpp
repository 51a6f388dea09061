// Perf-regression gate over adaqp-profile-v1 critical-path profiles
// (docs/OBSERVABILITY.md, "Regression gate").
//
//   ./profile_report <current.json> [baseline.json]
//
// Both files are ADAQP_METRICS run reports (schema adaqp-metrics-v1).
//
// Prints a top-down attribution of the current profile (epoch-mean over warm
// epochs) with the critical path of its dominant segment, then — given a
// baseline — the comparison: attributed-wall growth in percent and
// per-category share growth in percentage points, against fixed thresholds
// (kMaxWallRegressPct, kMaxShareRegressPp). Exit 0 within thresholds, or
// when the current report has no profile section (ADAQP_PROFILE=0); 1 on a
// regression; 2 on usage/parse errors and on a baseline that is not a
// metrics report with a profile section.
//
// Dependency-free on purpose (tools/json_mini.h, like metrics_schema_check):
// the gate must not link the library it judges.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "json_mini.h"

namespace {

using jsonmini::Parser;
using jsonmini::Value;
using jsonmini::ValuePtr;

// Attribution keys of the profile section: stage categories first (the
// obs::profile_category_key order), then the non-stage components.
const char* const kAttributionKeys[] = {
    "central_s", "marginal_s", "encode_s",    "wire_s",       "decode_s",
    "fold_s",    "other_s",    "optimizer_s", "scheduling_s", "serial_s"};

// Regression thresholds: growth of the epoch-mean attributed wall, in
// percent, and of any category's share of it, in percentage points.
constexpr double kMaxWallRegressPct = 50.0;
constexpr double kMaxShareRegressPp = 15.0;

/// Epoch-mean profile summary of one metrics report — the unit of
/// comparison.
struct ProfileSummary {
  double attributed_wall_s = 0.0;
  std::map<std::string, double> attribution_s;
  double zero_wire_s = 0.0;
  double infinite_thread_s = 0.0;
  double critical_path_s = 0.0;
  int epochs = 0;
  std::string label;  ///< where this summary came from (for messages)
};

double num_or(const Value& obj, const char* key, double fallback) {
  if (obj.type != Value::kObject) return fallback;
  const auto it = obj.object.find(key);
  if (it == obj.object.end() || it->second->type != Value::kNumber)
    return fallback;
  return it->second->number;
}

const Value* member(const Value& obj, const char* key) {
  if (obj.type != Value::kObject) return nullptr;
  const auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : it->second.get();
}

ValuePtr parse_file(const std::string& path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return nullptr;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  try {
    Parser parser(text);
    return parser.parse();
  } catch (const std::exception& e) {
    error = path + ": " + e.what();
    return nullptr;
  }
}

/// Mean profile over warm epochs (epoch > 0) of a metrics report; falls
/// back to all epochs when the profile only captured one. Returns
/// epochs == 0 when the report has no usable profile section.
ProfileSummary summarize_metrics_report(const Value& root,
                                        const std::string& label) {
  ProfileSummary sum;
  sum.label = label;
  const Value* profile = member(root, "profile");
  const Value* epochs = profile ? member(*profile, "epochs") : nullptr;
  if (epochs == nullptr || epochs->type != Value::kArray ||
      epochs->array.empty())
    return sum;
  const bool skip_warmup = epochs->array.size() > 1;
  for (const ValuePtr& ep : epochs->array) {
    if (skip_warmup && num_or(*ep, "epoch", 0.0) < 0.5) continue;
    sum.attributed_wall_s += num_or(*ep, "attributed_wall_s", 0.0);
    sum.critical_path_s += num_or(*ep, "critical_path_s", 0.0);
    if (const Value* attr = member(*ep, "attribution"))
      for (const char* k : kAttributionKeys)
        sum.attribution_s[k] += num_or(*attr, k, 0.0);
    if (const Value* what_if = member(*ep, "what_if")) {
      sum.zero_wire_s += num_or(*what_if, "zero_wire_s", 0.0);
      sum.infinite_thread_s += num_or(*what_if, "infinite_thread_s", 0.0);
    }
    ++sum.epochs;
  }
  if (sum.epochs > 1) {
    const double n = sum.epochs;
    sum.attributed_wall_s /= n;
    sum.critical_path_s /= n;
    sum.zero_wire_s /= n;
    sum.infinite_thread_s /= n;
    for (auto& [k, v] : sum.attribution_s) v /= n;
  }
  return sum;
}

void print_summary(const ProfileSummary& sum, const Value& root) {
  std::printf("profile_report: %s\n", sum.label.c_str());
  const Value* method = member(root, "method");
  const double threads = num_or(root, "threads", 0.0);
  const double hw = num_or(root, "hardware_threads", 0.0);
  std::printf("  method=%s threads=%.0f hardware_threads=%.0f%s\n",
              method != nullptr && method->type == Value::kString
                  ? method->str.c_str()
                  : "?",
              threads, hw,
              (hw > 0 && hw < threads)
                  ? "  [LOW-PARALLELISM HOST: overlap figures reflect "
                    "time-slicing]"
                  : "");
  std::printf("  epoch-mean attributed wall: %.6f s over %d epoch(s)\n",
              sum.attributed_wall_s, sum.epochs);
  std::printf("  top-down attribution:\n");
  // Largest-first so the answer to "where does the epoch go?" is line one.
  std::vector<std::pair<double, std::string>> ranked;
  ranked.reserve(sum.attribution_s.size());
  for (const auto& [k, v] : sum.attribution_s) ranked.emplace_back(v, k);
  std::sort(ranked.rbegin(), ranked.rend());
  for (const auto& [v, k] : ranked) {
    if (v <= 0.0) continue;
    std::printf(
        "    %-14s %.6f s  (%5.1f%%)\n", k.c_str(), v,
        sum.attributed_wall_s > 0.0 ? 100.0 * v / sum.attributed_wall_s : 0.0);
  }
  std::printf(
      "  critical path: %.6f s  what-if zero-wire: %.6f s  "
      "what-if infinite-threads: %.6f s\n",
      sum.critical_path_s, sum.zero_wire_s, sum.infinite_thread_s);
  if (sum.attributed_wall_s > 0.0) {
    std::printf(
        "    -> zero wire cost shrinks the epoch by %.1f%%, perfect "
        "scheduling by %.1f%%\n",
        100.0 * (1.0 - sum.zero_wire_s / sum.attributed_wall_s),
        100.0 * (1.0 - sum.infinite_thread_s / sum.attributed_wall_s));
  }

  // Critical path of the dominant segment of the last profiled epoch: the
  // stage chain a perf PR has to shorten first.
  const Value* profile = member(root, "profile");
  const Value* epochs = profile ? member(*profile, "epochs") : nullptr;
  if (epochs == nullptr || epochs->type != Value::kArray ||
      epochs->array.empty())
    return;
  const Value* segments = member(*epochs->array.back(), "segments");
  if (segments == nullptr || segments->type != Value::kArray) return;
  const Value* dominant = nullptr;
  double dominant_cp = -1.0;
  for (const ValuePtr& seg : segments->array) {
    const double cp = num_or(*seg, "critical_path_s", 0.0);
    if (cp > dominant_cp) {
      dominant_cp = cp;
      dominant = seg.get();
    }
  }
  if (dominant == nullptr) return;
  const Value* dir = member(*dominant, "direction");
  std::printf("  dominant segment: layer %.0f %s, critical path %.6f s:\n",
              num_or(*dominant, "layer", -1.0),
              dir != nullptr && dir->type == Value::kString ? dir->str.c_str()
                                                           : "?",
              dominant_cp);
  if (const Value* path = member(*dominant, "critical_path");
      path != nullptr && path->type == Value::kArray) {
    std::printf("    ");
    for (std::size_t i = 0; i < path->array.size(); ++i) {
      if (path->array[i]->type != Value::kString) continue;
      std::printf("%s%s", i == 0 ? "" : " -> ", path->array[i]->str.c_str());
    }
    std::printf("\n");
  }
}

int compare(const ProfileSummary& cur, const ProfileSummary& base) {
  std::printf("profile_report: baseline %s (%d epoch(s), wall %.6f s)\n",
              base.label.c_str(), base.epochs, base.attributed_wall_s);
  int regressions = 0;
  if (base.attributed_wall_s > 0.0) {
    const double pct = 100.0 *
                       (cur.attributed_wall_s - base.attributed_wall_s) /
                       base.attributed_wall_s;
    const bool bad = pct > kMaxWallRegressPct;
    std::printf("  attributed wall: %+.1f%% (threshold +%.1f%%)%s\n", pct,
                kMaxWallRegressPct, bad ? "  REGRESSION" : "");
    regressions += bad ? 1 : 0;
  }
  for (const char* k : kAttributionKeys) {
    const auto cur_it = cur.attribution_s.find(k);
    const auto base_it = base.attribution_s.find(k);
    const double cur_share =
        cur.attributed_wall_s > 0.0 && cur_it != cur.attribution_s.end()
            ? 100.0 * cur_it->second / cur.attributed_wall_s
            : 0.0;
    const double base_share =
        base.attributed_wall_s > 0.0 && base_it != base.attribution_s.end()
            ? 100.0 * base_it->second / base.attributed_wall_s
            : 0.0;
    const double pp = cur_share - base_share;
    if (cur_share < 0.05 && base_share < 0.05) continue;
    const bool bad = pp > kMaxShareRegressPp;
    std::printf(
        "  %-14s share %5.1f%% -> %5.1f%% (%+.1f pp, threshold +%.1f pp)%s\n",
        k, base_share, cur_share, pp, kMaxShareRegressPp,
        bad ? "  REGRESSION" : "");
    regressions += bad ? 1 : 0;
  }
  if (regressions == 0) {
    std::printf("profile_report: PASS (no regression past thresholds)\n");
    return 0;
  }
  std::printf("profile_report: %d regression(s) past thresholds\n",
              regressions);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: profile_report <current.json> [baseline.json]\n");
    return 2;
  }
  const std::string current_path = argv[1];
  std::string error;
  const ValuePtr current = parse_file(current_path, error);
  if (current == nullptr) {
    std::fprintf(stderr, "profile_report: %s\n", error.c_str());
    return 2;
  }
  const ProfileSummary cur = summarize_metrics_report(*current, current_path);
  if (cur.epochs == 0) {
    std::printf(
        "profile_report: %s has no profile section (ADAQP_PROFILE=0 or "
        "pre-profile report) — nothing to gate\n",
        current_path.c_str());
    return 0;
  }
  print_summary(cur, *current);

  if (argc < 3) return 0;
  const std::string baseline_path = argv[2];
  const ValuePtr baseline = parse_file(baseline_path, error);
  if (baseline == nullptr) {
    std::fprintf(stderr, "profile_report: %s\n", error.c_str());
    return 2;
  }
  // A baseline that cannot be compared is an error, not a pass: a gate
  // that silently compares nothing looks exactly like one that passed.
  const Value* schema = member(*baseline, "schema");
  const ProfileSummary base =
      schema != nullptr && schema->type == Value::kString &&
              schema->str == "adaqp-metrics-v1"
          ? summarize_metrics_report(*baseline, baseline_path)
          : ProfileSummary{};
  if (base.epochs == 0) {
    std::fprintf(stderr,
                 "profile_report: baseline %s is not an adaqp-metrics-v1 "
                 "report with a profile section\n",
                 baseline_path.c_str());
    return 2;
  }
  return compare(cur, base);
}
