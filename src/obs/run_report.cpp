#include "obs/run_report.h"

#include <cstdio>
#include <utility>

namespace adaqp::obs {

// ---------------------------------------------------------------------------
// JSON string escaping (shared with pipeline/trace.cpp)
// ---------------------------------------------------------------------------

void json_escape(std::string_view s, std::string& out) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\f': out += "\\f"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape(s, out);
  return out;
}

// ---------------------------------------------------------------------------
// RunCapture
// ---------------------------------------------------------------------------

void RunCapture::init(int max_epochs, int devices) {
  capacity_ = max_epochs > 0 ? max_epochs : 0;
  devices_ = devices > 0 ? devices : 0;
  captured_ = 0;
  enabled_ = true;
  rows_.assign(static_cast<std::size_t>(capacity_), EpochRow{});
  const std::size_t pairs =
      static_cast<std::size_t>(capacity_) * devices_ * devices_;
  pair_total_.assign(pairs, 0);
  pair_msgs_.assign(pairs, 0);
  pair_width_.assign(pairs * kNumWidths, 0);
}

EpochRow* RunCapture::row(int epoch) {
  if (!enabled_ || epoch < 0 || epoch >= capacity_) return nullptr;
  if (epoch + 1 > captured_) captured_ = epoch + 1;
  return &rows_[static_cast<std::size_t>(epoch)];
}

void RunCapture::add_pair(
    int epoch, int src, int dst,
    const std::array<std::uint64_t, kNumWidths>& width_bytes,
    std::uint64_t total_bytes) {
  if (!enabled_ || epoch < 0 || epoch >= capacity_) return;
  const std::size_t slot = pair_slot(epoch, src, dst);
  pair_total_[slot] += total_bytes;
  pair_msgs_[slot] += 1;
  for (int w = 0; w < kNumWidths; ++w)
    pair_width_[slot * kNumWidths + w] += width_bytes[static_cast<std::size_t>(w)];
}

std::uint64_t RunCapture::pair_total_bytes(int epoch, int src, int dst) const {
  return pair_total_[pair_slot(epoch, src, dst)];
}

std::uint64_t RunCapture::pair_messages(int epoch, int src, int dst) const {
  return pair_msgs_[pair_slot(epoch, src, dst)];
}

std::uint64_t RunCapture::pair_width_bytes(int epoch, int src, int dst,
                                           int w) const {
  return pair_width_[pair_slot(epoch, src, dst) * kNumWidths + w];
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kWidthKeys[kNumWidths] = {"b2", "b4", "b8", "b32"};

void append_num(std::string& out, double v) {
  // NaN/inf are not valid JSON: report them as null.
  if (!(v == v) || v > 1e300 || v < -1e300) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_kv(std::string& out, const char* key, double v, bool comma = true) {
  out += '"';
  out += key;
  out += "\": ";
  append_num(out, v);
  if (comma) out += ", ";
}

void append_overlap(std::string& out, const OverlapAccum& o) {
  out += "{";
  append_kv(out, "exchange_busy_s", o.exchange_busy_s);
  append_kv(out, "compute_busy_s", o.compute_busy_s);
  append_kv(out, "overlap_s", o.overlap_s);
  append_kv(out, "efficiency", o.efficiency(), /*comma=*/false);
  out += "}";
}

void append_width_object(std::string& out,
                         const std::array<std::uint64_t, kNumWidths>& v) {
  out += "{";
  for (int w = 0; w < kNumWidths; ++w) {
    if (w) out += ", ";
    out += '"';
    out += kWidthKeys[w];
    out += "\": ";
    append_u64(out, v[static_cast<std::size_t>(w)]);
  }
  out += "}";
}

void append_category_object(
    std::string& out, const std::array<double, kNumProfileCategories>& v) {
  out += "{";
  for (int c = 0; c < kNumProfileCategories; ++c) {
    if (c) out += ", ";
    out += '"';
    out += profile_category_key(c);
    out += "_s\": ";
    append_num(out, v[static_cast<std::size_t>(c)]);
  }
  out += "}";
}

// The versioned adaqp-profile-v1 section: per-epoch critical-path
// attribution, what-if projections and per-segment detail, rendered from
// the ProfileCapture rows (docs/OBSERVABILITY.md, "Critical-path
// profiler"; validated by tools/metrics_schema_check, consumed by
// tools/profile_report).
void append_profile(std::string& out, const RunCapture& cap) {
  const ProfileCapture& prof = cap.profile();
  out += "  \"profile\": {\"schema\": \"";
  out += kProfileSchema;
  out += "\", \"enabled\": true,\n  \"epochs\": [\n";
  for (int e = 0; e < prof.captured_epochs(); ++e) {
    const EpochProfile ep = prof.epoch_rollup(e);
    out += "    {\"epoch\": ";
    append_i64(out, e);
    out += ", ";
    append_kv(out, "attributed_wall_s", ep.attributed_wall_s);
    append_kv(out, "critical_path_s", ep.cp_s);
    append_kv(out, "busy_s", ep.busy_s);
    append_kv(out, "slack_s", ep.slack_s, /*comma=*/false);
    out += ", \"attribution\": {";
    for (int c = 0; c < kNumProfileCategories; ++c) {
      out += '"';
      out += profile_category_key(c);
      out += "_s\": ";
      append_num(out, ep.category_s[static_cast<std::size_t>(c)]);
      out += ", ";
    }
    append_kv(out, "optimizer_s", ep.optimizer_s);
    append_kv(out, "scheduling_s", ep.scheduling_s);
    append_kv(out, "serial_s", ep.serial_s, /*comma=*/false);
    out += "}, \"what_if\": {";
    append_kv(out, "zero_wire_s", ep.zero_wire_s);
    append_kv(out, "infinite_thread_s", ep.infinite_thread_s, false);
    out += ", \"sensitivity\": ";
    append_category_object(out, ep.sensitivity_s);
    out += "}, \"segments\": [";
    bool first_seg = true;
    for (int l = 0; l < prof.layers(); ++l) {
      for (int dir = 0; dir < 2; ++dir) {
        const bool forward = dir == 0;
        const SegmentProfile& seg = prof.segment_at(e, l, forward);
        if (seg.stages == 0) continue;
        if (!first_seg) out += ", ";
        first_seg = false;
        out += "{\"layer\": ";
        append_i64(out, l);
        out += forward ? ", \"direction\": \"forward\", "
                       : ", \"direction\": \"backward\", ";
        out += "\"stages\": ";
        append_i64(out, seg.stages);
        out += ", \"critical_path_stages\": ";
        append_i64(out, seg.cp_stages);
        out += ", ";
        append_kv(out, "makespan_s", seg.makespan_s);
        append_kv(out, "critical_path_s", seg.cp_s);
        append_kv(out, "busy_s", seg.busy_s);
        append_kv(out, "slack_s", seg.slack_s);
        append_kv(out, "zero_wire_critical_path_s", seg.zero_wire_cp_s,
                  /*comma=*/false);
        out += ", \"overlap\": ";
        append_overlap(out, seg.overlap);
        out += ", \"categories\": ";
        append_category_object(out, seg.category_s);
        out += ", \"sensitivity\": ";
        append_category_object(out, seg.sensitivity_s);
        out += ", \"critical_path\": [";
        const int named = seg.cp_stages < kMaxCpStages ? seg.cp_stages
                                                       : kMaxCpStages;
        for (int i = 0; i < named; ++i) {
          const std::string* name = seg.cp_names[static_cast<std::size_t>(i)];
          if (i) out += ", ";
          out += '"';
          if (name != nullptr) json_escape(*name, out);
          out += '"';
        }
        out += "]}";
      }
    }
    out += "], \"pair_exchange_s\": [";
    bool first_pair = true;
    for (int s = 0; s < prof.devices(); ++s) {
      for (int d = 0; d < prof.devices(); ++d) {
        const double secs = prof.pair_seconds_at(e, s, d);
        if (secs <= 0.0) continue;
        if (!first_pair) out += ", ";
        first_pair = false;
        out += "{\"src\": ";
        append_i64(out, s);
        out += ", \"dst\": ";
        append_i64(out, d);
        out += ", \"seconds\": ";
        append_num(out, secs);
        out += "}";
      }
    }
    out += "]}";
    if (e + 1 < prof.captured_epochs()) out += ",";
    out += "\n";
  }
  out += "  ]},\n";
}

std::string render_json(const RunCapture& cap, const ReportMeta& meta) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\n";
  out += "  \"schema\": \"";
  out += kReportSchema;
  out += "\",\n";
  const auto append_meta = [&out](const char* key, const std::string& v) {
    out += "  \"";
    out += key;
    out += "\": \"";
    json_escape(v, out);
    out += "\",\n";
  };
  append_meta("method", meta.method);
  append_meta("model", meta.model);
  append_meta("dataset", meta.dataset);
  append_meta("partition", meta.partition);
  out += "  \"devices\": ";
  append_i64(out, meta.devices);
  out += ",\n  \"layers\": ";
  append_i64(out, meta.layers);
  out += ",\n  \"threads\": ";
  append_i64(out, meta.threads);
  out += ",\n  \"hardware_threads\": ";
  append_i64(out, meta.hardware_threads);
  out += ",\n  \"low_parallelism_host\": ";
  out += meta.low_parallelism_host ? "true" : "false";
  out += ",\n  \"async\": ";
  out += meta.async ? "true" : "false";
  out += ",\n  \"epochs_requested\": ";
  append_i64(out, meta.epochs_requested);
  out += ",\n  \"epochs_captured\": ";
  append_i64(out, cap.captured_epochs());
  out += ",\n  \"sim_train_seconds\": ";
  append_num(out, meta.sim_train_seconds);
  out += ",\n  \"assign_seconds\": ";
  append_num(out, meta.assign_seconds);
  out += ",\n  \"total_comm_bytes\": ";
  append_u64(out, meta.total_comm_bytes);
  out += ",\n  \"epochs\": [\n";
  for (int e = 0; e < cap.captured_epochs(); ++e) {
    const EpochRow& r = cap.row_at(e);
    out += "    {\"epoch\": ";
    append_i64(out, r.epoch);
    out += ", ";
    append_kv(out, "train_loss", r.train_loss);
    append_kv(out, "val_acc", r.val_acc);
    append_kv(out, "test_acc", r.test_acc);
    out += "\"sim\": {";
    append_kv(out, "comm_s", r.sim_comm_s);
    append_kv(out, "comp_s", r.sim_comp_s);
    append_kv(out, "quant_s", r.sim_quant_s);
    append_kv(out, "total_s", r.sim_total_s, false);
    out += "}, \"wall\": {";
    append_kv(out, "forward_s", r.wall.forward_s);
    append_kv(out, "backward_s", r.wall.backward_s);
    append_kv(out, "optimizer_s", r.wall.optimizer_s);
    append_kv(out, "refresh_s", r.wall.refresh_s);
    append_kv(out, "evaluation_s", r.wall.evaluation_s);
    append_kv(out, "total_s", r.wall.total(), false);
    out += "}, \"allocs\": {\"forward\": ";
    append_u64(out, r.allocs_forward);
    out += ", \"backward\": ";
    append_u64(out, r.allocs_backward);
    out += ", \"optimizer\": ";
    append_u64(out, r.allocs_optimizer);
    out += ", \"refresh\": ";
    append_u64(out, r.allocs_refresh);
    out += ", \"evaluation\": ";
    append_u64(out, r.allocs_evaluation);
    out += ", \"steady_state\": ";
    out += r.steady_state ? "true" : "false";
    out += "}, \"exchange\": {\"messages\": ";
    append_u64(out, r.messages);
    out += ", \"wire_bytes\": ";
    append_width_object(out, r.wire_bytes);
    out += "}, \"overlap\": {\"forward\": ";
    append_overlap(out, r.fwd_overlap);
    out += ", \"backward\": ";
    append_overlap(out, r.bwd_overlap);
    out += "}, \"pairs\": [";
    bool first_pair = true;
    for (int s = 0; s < cap.devices(); ++s) {
      for (int d = 0; d < cap.devices(); ++d) {
        if (cap.pair_messages(e, s, d) == 0) continue;
        if (!first_pair) out += ", ";
        first_pair = false;
        out += "{\"src\": ";
        append_i64(out, s);
        out += ", \"dst\": ";
        append_i64(out, d);
        out += ", \"messages\": ";
        append_u64(out, cap.pair_messages(e, s, d));
        out += ", \"bytes\": ";
        append_u64(out, cap.pair_total_bytes(e, s, d));
        out += ", \"by_width\": {";
        for (int w = 0; w < kNumWidths; ++w) {
          if (w) out += ", ";
          out += '"';
          out += kWidthKeys[w];
          out += "\": ";
          append_u64(out, cap.pair_width_bytes(e, s, d, w));
        }
        out += "}}";
      }
    }
    out += "]}";
    if (e + 1 < cap.captured_epochs()) out += ",";
    out += "\n";
  }
  out += "  ],\n";

  if (cap.profile().enabled()) append_profile(out, cap);

  const Registry::Snapshot snap = Registry::instance().snapshot();
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    json_escape(snap.counters[i].first, out);
    out += "\": ";
    append_u64(out, snap.counters[i].second);
  }
  out += "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    json_escape(snap.gauges[i].first, out);
    out += "\": ";
    append_i64(out, snap.gauges[i].second);
  }
  out += "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    if (i) out += ", ";
    out += '"';
    json_escape(h.name, out);
    out += "\": {\"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_num(out, h.sum);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b) out += ", ";
      out += "{\"le\": ";
      if (b < h.bounds.size())
        append_num(out, h.bounds[b]);
      else
        out += "\"inf\"";
      out += ", \"count\": ";
      append_u64(out, h.counts[b]);
      out += "}";
    }
    out += "]}";
  }
  out += "}\n}\n";
  return out;
}

}  // namespace

bool write_report(const RunCapture& capture, const ReportMeta& meta,
                  const ReportConfig& cfg) {
  if (!cfg.enabled || cfg.path.empty()) return false;
  const std::string body = render_json(capture, meta);
  std::FILE* f = std::fopen(cfg.path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace adaqp::obs
