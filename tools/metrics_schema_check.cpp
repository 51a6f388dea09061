// Validates an ADAQP_METRICS JSON run report against the adaqp-metrics-v1
// schema (src/obs/run_report.h), including the optional adaqp-profile-v1
// critical-path section (src/obs/profile.h). Self-contained: the shared
// minimal JSON parser (tools/json_mini.h) plus structural assertions — no
// library dependency, so the checker cannot inherit a serializer bug from
// the code it validates.
//
//   ./metrics_schema_check <report.json>
//
// Exit 0 with a one-line summary when the report is schema-valid; exit 1
// with the first violation otherwise. Unknown schema versions — of the
// report or of the profile section — are violations, not warnings.
// CI runs this on every report it uploads; ctest on a quickstart report.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "json_mini.h"

namespace {

using jsonmini::Parser;
using jsonmini::Value;

// ---------------------------------------------------------------------------
// Schema assertions
// ---------------------------------------------------------------------------

[[noreturn]] void violation(const std::string& what) {
  throw std::runtime_error("schema violation: " + what);
}

const Value& field(const Value& obj, const std::string& key,
                   const std::string& where) {
  if (obj.type != Value::kObject) violation(where + " is not an object");
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) violation(where + " is missing \"" + key + "\"");
  return *it->second;
}

double num_field(const Value& obj, const std::string& key,
                 const std::string& where) {
  const Value& v = field(obj, key, where);
  // Serializer writes null for non-finite doubles; accept it as a number
  // slot (the value is unusable but the shape is valid).
  if (v.type == Value::kNull) return 0.0;
  if (v.type != Value::kNumber)
    violation(where + "." + key + " is not a number");
  return v.number;
}

void require_keys(const Value& obj, std::initializer_list<const char*> keys,
                  const std::string& where) {
  for (const char* k : keys) (void)field(obj, k, where);
}

const char* const kWidthKeys[] = {"b2", "b4", "b8", "b32"};

// Stage categories of the profile attribution, matching
// obs::profile_category_key order; "_s" suffixed in the report.
const char* const kCategoryKeys[] = {"central_s", "marginal_s", "encode_s",
                                     "wire_s",    "decode_s",   "fold_s",
                                     "other_s"};

void check_width_object(const Value& v, const std::string& where) {
  if (v.type != Value::kObject) violation(where + " is not an object");
  for (const char* k : kWidthKeys) num_field(v, k, where);
  if (v.object.size() != 4) violation(where + " must have exactly 4 widths");
}

void check_overlap(const Value& v, const std::string& where) {
  require_keys(v, {"exchange_busy_s", "compute_busy_s", "overlap_s"}, where);
  num_field(v, "exchange_busy_s", where);
  num_field(v, "compute_busy_s", where);
  num_field(v, "overlap_s", where);
  const double eff = num_field(v, "efficiency", where);
  if (eff < 0.0 || eff > 1.0 + 1e-9)
    violation(where + ".efficiency out of [0, 1]: " + std::to_string(eff));
}

void check_epoch(const Value& e, int index) {
  const std::string where = "epochs[" + std::to_string(index) + "]";
  num_field(e, "epoch", where);
  num_field(e, "train_loss", where);

  const Value& sim = field(e, "sim", where);
  for (const char* k : {"comm_s", "comp_s", "quant_s", "total_s"})
    num_field(sim, k, where + ".sim");

  const Value& wall = field(e, "wall", where);
  for (const char* k : {"forward_s", "backward_s", "optimizer_s", "refresh_s",
                        "evaluation_s", "total_s"})
    if (num_field(wall, k, where + ".wall") < 0.0)
      violation(where + ".wall." + k + " is negative");

  const Value& allocs = field(e, "allocs", where);
  for (const char* k :
       {"forward", "backward", "optimizer", "refresh", "evaluation"})
    num_field(allocs, k, where + ".allocs");
  if (field(allocs, "steady_state", where + ".allocs").type != Value::kBool)
    violation(where + ".allocs.steady_state is not a bool");

  const Value& exchange = field(e, "exchange", where);
  num_field(exchange, "messages", where + ".exchange");
  check_width_object(field(exchange, "wire_bytes", where + ".exchange"),
                     where + ".exchange.wire_bytes");

  const Value& overlap = field(e, "overlap", where);
  check_overlap(field(overlap, "forward", where + ".overlap"),
                where + ".overlap.forward");
  check_overlap(field(overlap, "backward", where + ".overlap"),
                where + ".overlap.backward");

  const Value& pairs = field(e, "pairs", where);
  if (pairs.type != Value::kArray) violation(where + ".pairs is not an array");
  for (std::size_t p = 0; p < pairs.array.size(); ++p) {
    const Value& pair = *pairs.array[p];
    const std::string pw = where + ".pairs[" + std::to_string(p) + "]";
    num_field(pair, "src", pw);
    num_field(pair, "dst", pw);
    num_field(pair, "messages", pw);
    num_field(pair, "bytes", pw);
    check_width_object(field(pair, "by_width", pw), pw + ".by_width");
  }
}

// ---------------------------------------------------------------------------
// adaqp-profile-v1 section
// ---------------------------------------------------------------------------

void check_category_object(const Value& v, const std::string& where) {
  if (v.type != Value::kObject) violation(where + " is not an object");
  for (const char* k : kCategoryKeys)
    if (num_field(v, k, where) < 0.0)
      violation(where + "." + k + " is negative");
}

void check_profile_epoch(const Value& e, int index) {
  const std::string where = "profile.epochs[" + std::to_string(index) + "]";
  num_field(e, "epoch", where);
  const double wall = num_field(e, "attributed_wall_s", where);
  const double cp = num_field(e, "critical_path_s", where);
  const double busy = num_field(e, "busy_s", where);
  num_field(e, "slack_s", where);
  if (cp < 0.0) violation(where + ".critical_path_s is negative");
  // The critical path is the longest chain through the stages, so it can
  // never exceed running every stage serially (+ slop for rounding).
  if (cp > busy * (1.0 + 1e-6) + 1e-9)
    violation(where + ".critical_path_s exceeds busy_s");

  // The attribution must decompose the attributed wall: stage categories
  // plus optimizer, scheduling and serial glue, within float tolerance.
  const Value& attr = field(e, "attribution", where);
  double total = 0.0;
  for (const char* k : kCategoryKeys)
    total += num_field(attr, k, where + ".attribution");
  for (const char* k : {"optimizer_s", "scheduling_s", "serial_s"}) {
    const double v = num_field(attr, k, where + ".attribution");
    if (v < 0.0) violation(where + ".attribution." + k + " is negative");
    total += v;
  }
  const double tol = 1e-6 + 0.01 * wall;
  if (wall > 0.0 && (total < wall - tol || total > wall + tol))
    violation(where + ".attribution does not sum to attributed_wall_s (" +
              std::to_string(total) + " vs " + std::to_string(wall) + ")");

  const Value& what_if = field(e, "what_if", where);
  const double zero_wire = num_field(what_if, "zero_wire_s", where);
  const double inf_thread = num_field(what_if, "infinite_thread_s", where);
  if (zero_wire < 0.0 || inf_thread < 0.0)
    violation(where + ".what_if bounds are negative");
  // Both are lower bounds on the attributed wall (modulo clock jitter, so
  // the attribution tolerance applies).
  if (wall > 0.0 && inf_thread > wall + tol)
    violation(where + ".what_if.infinite_thread_s exceeds attributed wall");
  if (zero_wire > inf_thread * (1.0 + 1e-6) + 1e-9)
    violation(where + ".what_if.zero_wire_s exceeds infinite_thread_s");
  check_category_object(field(what_if, "sensitivity", where + ".what_if"),
                        where + ".what_if.sensitivity");

  const Value& segments = field(e, "segments", where);
  if (segments.type != Value::kArray)
    violation(where + ".segments is not an array");
  for (std::size_t s = 0; s < segments.array.size(); ++s) {
    const Value& seg = *segments.array[s];
    const std::string sw = where + ".segments[" + std::to_string(s) + "]";
    num_field(seg, "layer", sw);
    const Value& dir = field(seg, "direction", sw);
    if (dir.type != Value::kString ||
        (dir.str != "forward" && dir.str != "backward"))
      violation(sw + ".direction is not \"forward\"/\"backward\"");
    const double stages = num_field(seg, "stages", sw);
    const double cp_stages = num_field(seg, "critical_path_stages", sw);
    if (cp_stages > stages)
      violation(sw + ".critical_path_stages exceeds stages");
    const double seg_cp = num_field(seg, "critical_path_s", sw);
    const double seg_busy = num_field(seg, "busy_s", sw);
    num_field(seg, "makespan_s", sw);
    num_field(seg, "slack_s", sw);
    const double seg_zero_wire = num_field(seg, "zero_wire_critical_path_s", sw);
    if (seg_cp > seg_busy * (1.0 + 1e-6) + 1e-9)
      violation(sw + ".critical_path_s exceeds busy_s");
    if (seg_zero_wire > seg_cp * (1.0 + 1e-6) + 1e-9)
      violation(sw + ".zero_wire_critical_path_s exceeds critical_path_s");
    check_overlap(field(seg, "overlap", sw), sw + ".overlap");
    // Σ categories over the segment's critical path == its length.
    const Value& cats = field(seg, "categories", sw);
    check_category_object(cats, sw + ".categories");
    double cat_total = 0.0;
    for (const char* k : kCategoryKeys)
      cat_total += num_field(cats, k, sw + ".categories");
    const double seg_tol = 1e-9 + 1e-6 * seg_cp;
    if (cat_total < seg_cp - seg_tol || cat_total > seg_cp + seg_tol)
      violation(sw + ".categories do not sum to critical_path_s");
    check_category_object(field(seg, "sensitivity", sw), sw + ".sensitivity");
    const Value& path = field(seg, "critical_path", sw);
    if (path.type != Value::kArray)
      violation(sw + ".critical_path is not an array");
    for (const auto& name : path.array)
      if (name->type != Value::kString)
        violation(sw + ".critical_path entries must be strings");
  }

  const Value& pairs = field(e, "pair_exchange_s", where);
  if (pairs.type != Value::kArray)
    violation(where + ".pair_exchange_s is not an array");
  for (std::size_t p = 0; p < pairs.array.size(); ++p) {
    const Value& pair = *pairs.array[p];
    const std::string pw =
        where + ".pair_exchange_s[" + std::to_string(p) + "]";
    num_field(pair, "src", pw);
    num_field(pair, "dst", pw);
    if (num_field(pair, "seconds", pw) < 0.0)
      violation(pw + ".seconds is negative");
  }
}

int check_profile(const Value& profile) {
  const Value& schema = field(profile, "schema", "profile");
  if (schema.type != Value::kString || schema.str != "adaqp-profile-v1")
    violation("profile.schema is not \"adaqp-profile-v1\"");
  if (field(profile, "enabled", "profile").type != Value::kBool)
    violation("profile.enabled is not a bool");
  const Value& epochs = field(profile, "epochs", "profile");
  if (epochs.type != Value::kArray)
    violation("profile.epochs is not an array");
  for (std::size_t i = 0; i < epochs.array.size(); ++i)
    check_profile_epoch(*epochs.array[i], static_cast<int>(i));
  return static_cast<int>(epochs.array.size());
}

struct Summary {
  int epochs = 0;
  double wire_bytes = 0.0;
  double messages = 0.0;
  int profile_epochs = -1;  ///< -1 = no profile section
};

Summary check_report(const Value& root) {
  if (root.type != Value::kObject) violation("top level is not an object");
  const Value& schema = field(root, "schema", "report");
  if (schema.type != Value::kString || schema.str != "adaqp-metrics-v1")
    violation("schema is not \"adaqp-metrics-v1\"");
  for (const char* k : {"method", "model", "dataset", "partition"})
    if (field(root, k, "report").type != Value::kString)
      violation(std::string("report.") + k + " is not a string");
  for (const char* k : {"devices", "layers", "threads", "hardware_threads",
                        "epochs_requested", "epochs_captured",
                        "sim_train_seconds", "assign_seconds",
                        "total_comm_bytes"})
    num_field(root, k, "report");
  for (const char* k : {"async", "low_parallelism_host"})
    if (field(root, k, "report").type != Value::kBool)
      violation(std::string("report.") + k + " is not a bool");
  // The warning flag must be consistent with the recorded host parallelism.
  const double hw = num_field(root, "hardware_threads", "report");
  const double threads = num_field(root, "threads", "report");
  const bool low = field(root, "low_parallelism_host", "report").boolean;
  if (low != (hw > 0 && hw < threads))
    violation("low_parallelism_host inconsistent with hardware_threads");

  const Value& epochs = field(root, "epochs", "report");
  if (epochs.type != Value::kArray) violation("report.epochs is not an array");
  if (epochs.array.empty()) violation("report.epochs is empty");
  if (static_cast<int>(epochs.array.size()) !=
      static_cast<int>(num_field(root, "epochs_captured", "report")))
    violation("epochs_captured does not match epochs array length");

  Summary sum;
  for (std::size_t i = 0; i < epochs.array.size(); ++i) {
    check_epoch(*epochs.array[i], static_cast<int>(i));
    const Value& ex = field(*epochs.array[i], "exchange", "epoch");
    sum.messages += num_field(ex, "messages", "epoch.exchange");
    const Value& wb = field(ex, "wire_bytes", "epoch.exchange");
    for (const char* k : kWidthKeys)
      sum.wire_bytes += num_field(wb, k, "epoch.exchange.wire_bytes");
  }
  sum.epochs = static_cast<int>(epochs.array.size());

  // Profile section is optional (ADAQP_PROFILE=0 omits it) but strictly
  // versioned when present.
  if (const auto it = root.object.find("profile"); it != root.object.end())
    sum.profile_epochs = check_profile(*it->second);

  for (const char* k : {"counters", "gauges", "histograms"})
    if (field(root, k, "report").type != Value::kObject)
      violation(std::string("report.") + k + " is not an object");
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <report.json>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "metrics_schema_check: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  try {
    Parser parser(text);
    const Summary sum = check_report(*parser.parse());
    if (sum.profile_epochs >= 0)
      std::printf(
          "metrics_schema_check: OK %s (%d epochs, %.0f messages, %.0f wire "
          "bytes, profile: %d epochs)\n",
          argv[1], sum.epochs, sum.messages, sum.wire_bytes,
          sum.profile_epochs);
    else
      std::printf(
          "metrics_schema_check: OK %s (%d epochs, %.0f messages, %.0f wire "
          "bytes, no profile section)\n",
          argv[1], sum.epochs, sum.messages, sum.wire_bytes);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_schema_check: %s: %s\n", argv[1], e.what());
    return 1;
  }
}
