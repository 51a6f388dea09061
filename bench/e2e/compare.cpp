// Compares two sets of end-to-end benchmark results against the bounds in
// BENCHMARK.json (bench/e2e/README.md, "Comparing runs").
//
//   e2e_compare BENCHMARK.json A.json[,A2.json...] B.json[,B2.json...]
//
// Each side is one or more result files written by run.sh; a side's samples
// of a metric are that metric's values across its files. For every workload
// and every end-to-end metric of BENCHMARK.json, one row gives each side's
// median and quartiles, B's change against A in the metric's good direction,
// the bound, and a verdict:
//   unresolved  either side's quartile spread, as a share of its median,
//               exceeds the bound
//   worse       B's median is worse than A's by more than the bound
//   better      B's median is better than A's by more than the bound
//   same        otherwise
// Exit status: 0 when no row is `worse`, 1 otherwise, 2 on bad input.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "json_mini.h"
#include "stats.h"

namespace {

using jsonmini::ValuePtr;

ValuePtr load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  try {
    return jsonmini::Parser(body).parse();
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

const ValuePtr& field(const ValuePtr& obj, const std::string& key,
                      const std::string& where) {
  const auto it = obj->object.find(key);
  if (it == obj->object.end())
    throw std::runtime_error(where + ": missing \"" + key + "\"");
  return it->second;
}

/// workload -> metric -> samples, pooled over the comma-separated files.
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

Samples load_side(const std::string& files) {
  Samples out;
  std::stringstream list(files);
  for (std::string path; std::getline(list, path, ',');) {
    const ValuePtr root = load(path);
    for (const ValuePtr& w : field(root, "workloads", path)->array) {
      auto& metrics = out[field(w, "workload", path)->str];
      for (const auto& [name, m] : field(w, "metrics", path)->object) {
        const ValuePtr& v = field(m, "value", path);
        if (v->type == jsonmini::Value::kNumber)
          metrics[name].push_back(v->number);
      }
    }
  }
  return out;
}

struct Bound {
  std::string name;
  bool higher_is_better;
  double bound;
};

std::vector<Bound> load_bounds(const std::string& path) {
  std::vector<Bound> out;
  const ValuePtr root = load(path);
  for (const ValuePtr& m : field(root, "end_to_end", path)->array)
    out.push_back({field(m, "name", path)->str,
                   field(m, "better", path)->str == "higher",
                   field(m, "bound", path)->number});
  return out;
}

double spread(const std::array<double, 3>& q) {
  return q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: e2e_compare BENCHMARK.json A.json[,A2.json...] "
                 "B.json[,B2.json...]\n");
    return 2;
  }
  try {
    const std::vector<Bound> bounds = load_bounds(argv[1]);
    const Samples a = load_side(argv[2]);
    const Samples b = load_side(argv[3]);

    std::printf("%-14s %-17s %-31s %-31s %8s %6s  %s\n", "workload", "metric",
                "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
                "verdict");
    int worse = 0, rows = 0;
    std::map<std::string, int> verdicts;
    for (const auto& [workload, a_metrics] : a) {
      const auto bw = b.find(workload);
      if (bw == b.end()) continue;
      for (const Bound& bound : bounds) {
        const auto av = a_metrics.find(bound.name);
        const auto bv = bw->second.find(bound.name);
        if (av == a_metrics.end() || bv == bw->second.end()) continue;
        const auto qa = e2e::quartiles(av->second);
        const auto qb = e2e::quartiles(bv->second);
        // Relative change of the medians, positive when B is better.
        double change = qa[1] != 0.0 ? (qb[1] - qa[1]) / std::fabs(qa[1])
                                     : (qb[1] == qa[1] ? 0.0 : INFINITY);
        if (!bound.higher_is_better) change = 0.0 - change;
        const char* verdict = "same";
        if (spread(qa) > bound.bound || spread(qb) > bound.bound)
          verdict = "unresolved";
        else if (change < -bound.bound)
          verdict = "worse";
        else if (change > bound.bound)
          verdict = "better";
        ++verdicts[verdict];
        ++rows;
        if (std::string(verdict) == "worse") ++worse;
        char sa[64], sb[64];
        std::snprintf(sa, sizeof(sa), "%.5g [%.5g, %.5g]", qa[1], qa[0], qa[2]);
        std::snprintf(sb, sizeof(sb), "%.5g [%.5g, %.5g]", qb[1], qb[0], qb[2]);
        std::printf("%-14s %-17s %-31s %-31s %+7.2f%% %5.1f%%  %s\n",
                    workload.c_str(), bound.name.c_str(), sa, sb,
                    100.0 * change, 100.0 * bound.bound, verdict);
      }
    }
    std::printf("%d rows:", rows);
    for (const auto& [verdict, count] : verdicts)
      std::printf(" %s %d", verdict.c_str(), count);
    std::printf("\n");
    if (rows == 0) {
      std::fprintf(stderr, "e2e_compare: no workload and metric in common\n");
      return 2;
    }
    return worse == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_compare: %s\n", e.what());
    return 2;
  }
}
