// Measured end-to-end benchmark (bench/e2e/README.md). Runs one
// workload in this process, from outside the library, through its public
// API, and prints the workload's metrics.
//
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out FILE]
//
// Runs from the repository root (run.sh does): it reads the metric lists
// from BENCHMARK.json there and writes its traced-run artifacts, the metrics
// report and the Chrome trace of its own spans, to build-e2e/artifacts/.
//
// Inputs: each workload trains on one fixed graph draw (kGraphSeed), as the
// paper trains on fixed datasets. --seed permutes its node ids and seeds the
// partitioner and the trainer (initial weights, dropout, stochastic
// rounding). A different generator seed would change the task itself: the
// class centroids are a handful of random draws, and the converged loss
// moves by about 15% between them.
//
// Phases, in order:
//   1. set-up, three times: make_dataset + relabeling, partition,
//      build_dist_graph, transport + DistTrainer constructor, two cold
//      epochs. The last repetition's objects are kept.
//   2. the untraced window: a fixed number of warm train_epoch() calls in a
//      closed loop (the next epoch starts when the previous one returns),
//      each timed here. The count fills about --seconds on a 4-core host and
//      does not depend on the measured speed, so loss and accuracy are
//      always taken after the same number of steps. All end-to-end metrics
//      come from this window.
//   3. (--trace 1) the traced run: a fresh trainer runs 2 + 40 epochs
//      through DistTrainer::run() with the metrics report and the
//      critical-path profiler armed; its losses must equal the untraced ones
//      bit for bit.
//   4. (--trace 1) isolated calls into single layers at the workload's
//      shapes: median of at least 50 calls each.
//
// Every metric is printed as `<workload> <metric> <value> <unit>`. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), as listed in BENCHMARK.json. Exit status is 0 only when every
// epoch and every correctness check succeeded.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/trainer.h"
#include "gnn/aggregate.h"
#include "json_mini.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/stopwatch.h"
#include "partition/partitioner.h"
#include "pipeline/config.h"
#include "pipeline/stage_graph.h"
#include "quant/message_codec.h"
#include "runtime/parallel_for.h"
#include "simd/isa.h"
#include "stats.h"
#include "transport/loopback.h"
#include "transport/tcp.h"

namespace {

using namespace adaqp;

// ---------------------------------------------------------------------------
// Workloads (why each exists: README.md, "Workloads")
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Method method;
  const char* dataset;
  int machines;
  int devices_per_machine;
  Aggregator aggregator;
  bool tcp;
  /// Typical warm-epoch wall time on a 4-core x86-64 host. It only converts
  /// --seconds into a fixed warm-epoch count.
  double nominal_epoch_ms;
};

constexpr Workload kWorkloads[] = {
    {"adaqp-tcp", Method::kAdaQP, "products_sim", 2, 2, Aggregator::kGcn,
     true, 80.0},
    {"vanilla-tcp", Method::kVanilla, "products_sim", 2, 2, Aggregator::kGcn,
     true, 200.0},
    {"pipegcn-tcp", Method::kPipeGCN, "products_sim", 2, 2, Aggregator::kGcn,
     true, 160.0},
    {"adaqp-24dev", Method::kAdaQP, "amazon_sim", 6, 4,
     Aggregator::kSageMean, false, 120.0},
    {"single-device", Method::kVanilla, "products_sim", 1, 1,
     Aggregator::kGcn, false, 80.0},
};

constexpr int kThreads = 4;         // = nproc of the reference host
constexpr std::uint64_t kGraphSeed = 1;  // generator seed of every graph
constexpr int kGraphScale = 3;      // node count x3 over the dataset spec
constexpr int kHiddenDim = 64;
constexpr int kSetupReps = 3;
constexpr int kColdEpochs = 2;
constexpr int kMinWarmEpochs = 100;  // p90 keeps >= 10 samples beyond it
constexpr int kTracedWarmEpochs = 40;
constexpr int kSmokeWarmEpochs = 5;
constexpr int kIsolatedCalls = 50;
constexpr int kReassignPeriod = 25;
// final_train_loss averages this many last warm epochs: one epoch's loss
// carries its own dropout mask.
constexpr int kLossWindow = 25;
// Short enough that the smoke window (epochs 2..6) contains a refresh, so
// smoke mode exercises the assigner metrics too.
constexpr int kSmokeReassignPeriod = 5;

bool quantizing(const Workload& w) { return w.method == Method::kAdaQP; }

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = true;
  bool smoke = false;
  std::string out;
};

constexpr const char* kBenchmarkJson = "BENCHMARK.json";
constexpr const char* kArtifactsDir = "build-e2e/artifacts";

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out FILE]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after " + std::string(arg));
    const std::string val = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        for (const Workload& w : kWorkloads)
          if (val == w.name) o.workload = &w;
        if (!o.workload) usage("unknown workload '" + val + "'");
      } else if (arg == "--seed") {
        o.seed = std::stoull(val, &used);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(val, &used);
        if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("bad --seconds");
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (arg == "--out") {
        o.out = val;
      } else {
        usage("unknown option " + std::string(arg));
      }
      if (used != 0 && used != val.size()) usage("bad number '" + val + "'");
    } catch (const std::logic_error&) {
      usage("bad number '" + val + "'");
    }
  }
  if (!o.workload) usage("--workload is required");
  return o;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans
// ---------------------------------------------------------------------------

/// Spans e2e_bench records around each call into a layer (every set-up
/// call, every epoch, every batch of isolated calls), with the span that
/// caused each. Kept in memory, written as a Chrome trace when the run ends.
/// Spans inside the library are not recorded here.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(8192); }

  /// Opens a span under the current one. The clock is read after the
  /// push, so growing the log never lands inside a timed span.
  int open(std::string name) {
    spans_.push_back({std::move(name), 0.0, 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    spans_.back().begin_us = obs::monotonic_us();
    return current_;
  }

  /// Closes span `id` and returns its duration in milliseconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = obs::monotonic_us();
    current_ = s.parent;
    return (s.end_us - s.begin_us) * 1e-3;
  }

  bool write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \""
          << obs::json_escaped(s.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.begin_us
          << ", \"dur\": " << (s.end_us - s.begin_us)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double begin_us;
    double end_us;
    int parent;
  };
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Span over a scope; close_seconds() ends it early and returns its length.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() {
    if (open_) log_.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double close_seconds() {
    open_ = false;
    return log_.close(id_) * 1e-3;
  }

 private:
  SpanLog& log_;
  int id_;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// Library counters (obs::instruments()), read before and after a window
// ---------------------------------------------------------------------------

struct Counters {
  std::uint64_t encode_calls = 0, encode_ns = 0, decode_ns = 0;
  std::uint64_t messages = 0, stages = 0;
  std::uint64_t pool_tasks = 0, detached_tasks = 0;
  std::uint64_t solves = 0, solve_count = 0;
  double solve_us = 0.0;
  std::array<std::uint64_t, 3> bits{};
  std::uint64_t frames = 0, socket_bytes = 0, short_writes = 0;
  std::uint64_t submit_join_count = 0;
  double submit_join_us = 0.0;

  static Counters read() {
    const obs::Instruments& ins = obs::instruments();
    Counters c;
    c.encode_calls = ins.codec_encode_calls.value();
    c.encode_ns = ins.codec_encode_ns.value();
    c.decode_ns = ins.codec_decode_ns.value();
    c.messages = ins.exchange_messages.value();
    c.stages = ins.pipeline_stages.value();
    c.pool_tasks = ins.pool_tasks.value();
    c.detached_tasks = ins.pool_detached_tasks.value();
    c.solves = ins.assigner_solves.value();
    c.solve_count = ins.assigner_solve_us.count();
    c.solve_us = ins.assigner_solve_us.sum();
    for (std::size_t i = 0; i < c.bits.size(); ++i)
      c.bits[i] = ins.assigner_bits[i]->value();
    c.frames = ins.transport_frames.value();
    c.socket_bytes = ins.transport_wire_bytes.value();
    c.short_writes = ins.transport_short_writes.value();
    c.submit_join_count = ins.exchange_submit_to_join_us.count();
    c.submit_join_us = ins.exchange_submit_to_join_us.sum();
    return c;
  }

  /// Change since `before`.
  Counters since(const Counters& b) const {
    Counters d;
    d.encode_calls = encode_calls - b.encode_calls;
    d.encode_ns = encode_ns - b.encode_ns;
    d.decode_ns = decode_ns - b.decode_ns;
    d.messages = messages - b.messages;
    d.stages = stages - b.stages;
    d.pool_tasks = pool_tasks - b.pool_tasks;
    d.detached_tasks = detached_tasks - b.detached_tasks;
    d.solves = solves - b.solves;
    d.solve_count = solve_count - b.solve_count;
    d.solve_us = solve_us - b.solve_us;
    for (std::size_t i = 0; i < bits.size(); ++i)
      d.bits[i] = bits[i] - b.bits[i];
    d.frames = frames - b.frames;
    d.socket_bytes = socket_bytes - b.socket_bytes;
    d.short_writes = short_writes - b.short_writes;
    d.submit_join_count = submit_join_count - b.submit_join_count;
    d.submit_join_us = submit_join_us - b.submit_join_us;
    return d;
  }
};

// ---------------------------------------------------------------------------
// Metrics and checks
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Epoch and check accounting behind `attempted`, `failed` and error_rate.
struct Tally {
  int attempted = 0;
  int failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", what.c_str());
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b,
                   std::size_t n) {
  if (a.size() < n || b.size() < n) return false;
  for (std::size_t i = 0; i < n; ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Peak resident set (VmHWM) of this process in bytes, 0 if unreadable.
double peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  return 0.0;
}

/// Median over `calls` timed calls of fn(), in microseconds, after warm-up.
template <typename Fn>
double median_call_us(int calls, Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const double t0 = obs::monotonic_us();
    fn();
    us.push_back(obs::monotonic_us() - t0);
  }
  return e2e::median(std::move(us));
}

// ---------------------------------------------------------------------------
// One set-up of the workload
// ---------------------------------------------------------------------------

/// Everything a trainer borrows, declared so that the trainer is destroyed
/// first and the transport it sends through last.
struct Instance {
  std::unique_ptr<transport::ScopedTransport> transport;
  Dataset dataset;
  DistGraph dist;
  ClusterSpec cluster;
  ModelConfig model;
  std::unique_ptr<DistTrainer> trainer;
};

struct SetupTimes {
  double make_dataset_s = 0.0;
  double partition_s = 0.0;
  double build_s = 0.0;
  double trainer_init_s = 0.0;
  double cold_epoch_s = 0.0;
  double total() const {
    return make_dataset_s + partition_s + build_s + trainer_init_s +
           cold_epoch_s;
  }
};

TrainOptions train_options(const Workload& w, const Options& o, int epochs) {
  TrainOptions t;
  t.method = w.method;
  t.epochs = epochs;
  t.reassign_period = o.smoke ? kSmokeReassignPeriod : kReassignPeriod;
  t.eval_every_epoch = false;
  t.seed = o.seed;
  return t;
}

/// TCP workloads use the default single-process options: one localhost
/// connection per directed device pair, opened on first send.
std::unique_ptr<transport::Transport> new_transport(const Workload& w) {
  if (w.tcp)
    return std::make_unique<transport::TcpTransport>(transport::TcpOptions{});
  return std::make_unique<transport::LoopbackTransport>();
}

/// `base` with its node ids permuted by `rng`. Feature rows, labels and the
/// split move with their nodes, so the task is the same; the node order the
/// library sees, and with it partition and memory layout, is new.
Dataset relabeled(const Dataset& base, Rng& rng) {
  const std::size_t n = base.num_nodes();
  std::vector<NodeId> order(n);  // order[new id] = old id
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  std::vector<std::uint32_t> new_id(n);
  for (std::size_t k = 0; k < n; ++k)
    new_id[order[k]] = static_cast<std::uint32_t>(k);

  Dataset ds;
  ds.spec = base.spec;
  ds.graph = induced_subgraph(base.graph, order);
  ds.features = Matrix(n, base.features.cols());
  ds.labels.resize(n);
  const bool multi = base.spec.multi_label;
  if (multi) ds.label_matrix = Matrix(n, base.label_matrix.cols());
  for (std::size_t k = 0; k < n; ++k) {
    std::ranges::copy(base.features.row(order[k]), ds.features.row(k).begin());
    if (multi)
      std::ranges::copy(base.label_matrix.row(order[k]),
                        ds.label_matrix.row(k).begin());
    ds.labels[k] = base.labels[order[k]];
  }
  const auto remap = [&](const std::vector<std::uint32_t>& nodes) {
    std::vector<std::uint32_t> out;
    out.reserve(nodes.size());
    for (const std::uint32_t v : nodes) out.push_back(new_id[v]);
    return out;
  };
  ds.train_nodes = remap(base.train_nodes);
  ds.val_nodes = remap(base.val_nodes);
  ds.test_nodes = remap(base.test_nodes);
  return ds;
}

/// Builds one instance and runs its cold epochs; appends the cold losses.
std::unique_ptr<Instance> set_up(const Workload& w, const Options& o,
                                 SpanLog& spans, SetupTimes& times,
                                 std::vector<double>& cold_losses) {
  auto inst = std::make_unique<Instance>();
  ScopedSpan all(spans, "setup");
  DatasetSpec spec = dataset_spec(w.dataset);
  if (!o.smoke) spec.num_nodes *= kGraphScale;
  {
    ScopedSpan s(spans, "data.make_dataset");
    Rng graph_rng(kGraphSeed);
    Rng rng(o.seed);
    inst->dataset = relabeled(make_dataset(spec, graph_rng), rng);
    times.make_dataset_s = s.close_seconds();
  }
  inst->cluster = ClusterSpec::machines(w.machines, w.devices_per_machine);
  PartitionResult part;
  {
    ScopedSpan s(spans, "partition.partition");
    Rng rng(o.seed);
    part = make_partitioner("multilevel")
               ->partition(inst->dataset.graph, inst->cluster.num_devices(),
                           rng);
    times.partition_s = s.close_seconds();
  }
  {
    ScopedSpan s(spans, "dist.build_dist_graph");
    inst->dist = build_dist_graph(inst->dataset.graph, part);
    times.build_s = s.close_seconds();
  }
  inst->model.aggregator = w.aggregator;
  inst->model.in_dim = inst->dataset.spec.feature_dim;
  inst->model.hidden_dim = kHiddenDim;
  inst->model.out_dim = inst->dataset.num_classes();
  inst->model.num_layers = 3;
  inst->model.dropout = 0.5f;
  {
    ScopedSpan s(spans, "core.trainer_init");
    inst->transport =
        std::make_unique<transport::ScopedTransport>(new_transport(w));
    inst->trainer = std::make_unique<DistTrainer>(
        inst->dataset, inst->dist, inst->cluster, inst->model,
        train_options(w, o, kColdEpochs));
    times.trainer_init_s = s.close_seconds();
  }
  {
    ScopedSpan s(spans, "core.cold_epochs");
    for (int e = 0; e < kColdEpochs; ++e) {
      ScopedSpan epoch(spans, "cold_epoch");
      cold_losses.push_back(inst->trainer->train_epoch().train_loss);
    }
    times.cold_epoch_s = s.close_seconds();
  }
  return inst;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Run {
 public:
  explicit Run(const Options& o) : o_(o), w_(*o.workload) {}

  /// Runs every phase; an exception (e.g. a TransportError) fails the rest
  /// of the workload instead of ending the process.
  void execute() {
    const int planned = kSetupReps * kColdEpochs + warm_epochs() +
                        (o_.trace ? kColdEpochs + traced_warm_epochs() : 0);
    tally_.attempted += planned;
    try {
      setup_phase();
      untraced_phase();
      if (o_.trace) {
        traced_phase();
        isolated_phase();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: %s aborted: %s\n", w_.name, e.what());
      aborted_ = true;
    }
    tally_.failed += planned - ok_epochs_;
    inst_.reset();
  }

  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  Tally& tally() { return tally_; }
  bool aborted() const { return aborted_; }
  const std::vector<double>& epoch_ms() const { return epoch_ms_; }
  const std::vector<double>& setup_s() const { return setup_s_; }
  const SpanLog& spans() const { return spans_; }
  std::string trace_path() const { return artifact("trace.json"); }

 private:
  int warm_epochs() const {
    if (o_.smoke) return kSmokeWarmEpochs;
    const double n = o_.seconds * 1000.0 / w_.nominal_epoch_ms;
    return std::max(kMinWarmEpochs, static_cast<int>(std::lround(n)));
  }

  int traced_warm_epochs() const {
    return o_.smoke ? kSmokeWarmEpochs : kTracedWarmEpochs;
  }

  std::string artifact(const char* suffix) const {
    return std::string(kArtifactsDir) + "/" + w_.name + "-seed" +
           std::to_string(o_.seed) +
           (o_.smoke ? "-smoke." : ".") + suffix;
  }

  /// Records one finished epoch's loss; a non-finite loss fails the epoch.
  void epoch_done(double loss) {
    if (std::isfinite(loss))
      ++ok_epochs_;
    else
      std::fprintf(stderr, "e2e_bench: non-finite loss %g\n", loss);
  }

  void setup_phase() {
    std::vector<SetupTimes> reps;
    std::vector<std::vector<double>> cold(kSetupReps);
    for (int r = 0; r < kSetupReps; ++r) {
      inst_.reset();  // the previous repetition's transport scope ends first
      SetupTimes t;
      inst_ = set_up(w_, o_, spans_, t, cold[static_cast<std::size_t>(r)]);
      for (const double loss : cold[static_cast<std::size_t>(r)])
        epoch_done(loss);
      reps.push_back(t);
    }
    losses_ = cold.back();
    bool same = true;
    for (const auto& c : cold)
      same = same && bit_identical(c, cold[0], kColdEpochs);
    tally_.check(same, "cold-epoch losses differ across set-up repetitions");

    const auto med = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : reps) v.push_back(t.*field);
      return e2e::median(std::move(v));
    };
    for (const SetupTimes& t : reps) setup_s_.push_back(t.total());
    setup_median_s_ = e2e::median(setup_s_);
    add("data.make_dataset_s", med(&SetupTimes::make_dataset_s), "s");
    add("partition.partition_s", med(&SetupTimes::partition_s), "s");
    add("dist.build_s", med(&SetupTimes::build_s), "s");
    add("core.trainer_init_s", med(&SetupTimes::trainer_init_s), "s");
    add("core.cold_epoch_s", med(&SetupTimes::cold_epoch_s), "s");

    const Graph& g = inst_->dataset.graph;
    const std::size_t edges =
        std::max<std::size_t>(g.num_undirected_edges(), 1);
    add("partition.cut_edge_share",
        static_cast<double>(edge_cut(g, inst_->dist.partition.part_of)) /
            static_cast<double>(edges),
        "share");
    double owned = 0.0, marginal = 0.0;
    for (const DeviceGraph& dev : inst_->dist.devices) {
      owned += static_cast<double>(dev.num_owned);
      marginal += static_cast<double>(dev.marginal_nodes.size());
    }
    add("dist.marginal_row_share", marginal / std::max(owned, 1.0), "share");
  }

  void untraced_phase() {
    DistTrainer& trainer = *inst_->trainer;
    const obs::Instruments& ins = obs::instruments();
    const int warm = warm_epochs();
    const bool loopback = !w_.tcp;
    std::vector<double> fwd_ms, bwd_ms, opt_ms, wall_ms, model_ms, refresh_ms;
    for (auto* v : {&epoch_ms_, &fwd_ms, &bwd_ms, &opt_ms, &wall_ms, &model_ms})
      v->reserve(static_cast<std::size_t>(warm));
    std::uint64_t warm_allocs = 0;
    int steady_epochs = 0;
    bool steady_alloc_free = true;

    const Counters c0 = Counters::read();
    const std::size_t bytes0 = trainer.total_comm_bytes();
    ScopedSpan window(spans_, "untraced_window");
    for (int i = 0; i < warm; ++i) {
      const std::uint64_t solves0 = ins.assigner_solves.value();
      const int span = spans_.open("epoch");
      const EpochRecord rec = trainer.train_epoch();
      epoch_ms_.push_back(spans_.close(span));
      epoch_done(rec.train_loss);
      losses_.push_back(rec.train_loss);

      const obs::PhaseWall& wall = trainer.last_wall_report();
      fwd_ms.push_back(wall.forward_s * 1e3);
      bwd_ms.push_back(wall.backward_s * 1e3);
      opt_ms.push_back(wall.optimizer_s * 1e3);
      wall_ms.push_back(wall.total() * 1e3);
      model_ms.push_back(rec.time.total * 1e3);
      if (ins.assigner_solves.value() != solves0)
        refresh_ms.push_back(wall.refresh_s * 1e3);
      const EpochAllocReport& alloc = trainer.last_alloc_report();
      warm_allocs += alloc.forward + alloc.backward + alloc.optimizer;
      if (alloc.steady_state) {
        ++steady_epochs;
        steady_alloc_free = steady_alloc_free && alloc.total() == 0;
      }
    }
    window.close_seconds();
    const Counters d = Counters::read().since(c0);
    const double n = warm;
    untraced_wall_p50_ms_ = e2e::median(wall_ms);

    double window_s = 0.0;
    for (const double ms : epoch_ms_) window_s += ms * 1e-3;
    const double wire_mb =
        static_cast<double>(trainer.total_comm_bytes() - bytes0) / 1e6 / n;
    double test_acc = 0.0;
    {
      ScopedSpan s(spans_, "core.evaluate");
      test_acc = trainer.evaluate().second;
    }

    // End-to-end metrics.
    add("epoch_ms_p50", e2e::quantile(epoch_ms_, 0.5), "ms");
    add("epoch_ms_p90", e2e::quantile(epoch_ms_, 0.9), "ms");
    add("epochs_per_s", n / window_s, "1/s");
    add("setup_s", setup_median_s_, "s");
    add("peak_rss_mb", peak_rss_bytes() / 1e6, "MB");
    add("wire_mb_per_epoch", wire_mb, "MB");
    const auto tail = std::min<std::ptrdiff_t>(kLossWindow, warm);
    add("final_train_loss",
        e2e::mean(std::vector<double>(losses_.end() - tail, losses_.end())),
        "nats");
    add("test_acc", test_acc, "share");
    add("warm_epochs", n, "count");

    // Per-layer metrics of the untraced window.
    add("core.forward_ms_p50", e2e::median(fwd_ms), "ms");
    add("core.backward_ms_p50", e2e::median(bwd_ms), "ms");
    add("core.optimizer_ms_p50", e2e::median(opt_ms), "ms");
    const double refreshes = static_cast<double>(refresh_ms.size());
    add("assign.refresh_ms_mean", e2e::mean(refresh_ms), "ms");
    add("assign.solves_per_refresh",
        refreshes > 0 ? static_cast<double>(d.solves) / refreshes : 0.0,
        "count");
    add("assign.solve_ms_mean",
        d.solve_count ? d.solve_us / 1e3 / static_cast<double>(d.solve_count)
                      : 0.0,
        "ms");
    const double assigned =
        static_cast<double>(d.bits[0] + d.bits[1] + d.bits[2]);
    const char* share_names[] = {"assign.share_b2", "assign.share_b4",
                                 "assign.share_b8"};
    for (std::size_t i = 0; i < 3; ++i)
      add(share_names[i],
          assigned > 0 ? static_cast<double>(d.bits[i]) / assigned : 0.0,
          "share");
    add("quant.encode_calls_per_epoch",
        static_cast<double>(d.encode_calls) / n, "count");
    add("quant.encode_ms_per_epoch",
        static_cast<double>(d.encode_ns) / 1e6 / n, "ms");
    add("quant.decode_ms_per_epoch",
        static_cast<double>(d.decode_ns) / 1e6 / n, "ms");
    add("pipeline.stages_per_epoch", static_cast<double>(d.stages) / n,
        "count");
    add("pipeline.messages_per_epoch", static_cast<double>(d.messages) / n,
        "count");
    add("pipeline.submit_to_join_ms_mean",
        d.submit_join_count ? d.submit_join_us / 1e3 /
                                  static_cast<double>(d.submit_join_count)
                            : 0.0,
        "ms");
    add("runtime.pool_tasks_per_epoch", static_cast<double>(d.pool_tasks) / n,
        "count");
    add("runtime.detached_tasks_per_epoch",
        static_cast<double>(d.detached_tasks) / n, "count");
    add("transport.frames_per_epoch", static_cast<double>(d.frames) / n,
        "count");
    add("transport.socket_mb_per_epoch",
        static_cast<double>(d.socket_bytes) / 1e6 / n, "MB");
    add("transport.short_writes_per_epoch",
        static_cast<double>(d.short_writes) / n, "count");
    add("memory.warm_allocs_per_epoch", static_cast<double>(warm_allocs) / n,
        "count");
    add("comm.model_epoch_ms", e2e::median(model_ms), "ms");

    // Bypass invariants and the zero-allocation steady state.
    if (loopback) {
      tally_.check(steady_epochs > 0 && steady_alloc_free,
                   "a steady warm epoch allocated on a loopback workload");
      tally_.check(d.socket_bytes == 0,
                   "a loopback workload put bytes on a socket");
    }
    if (inst_->cluster.num_devices() == 1)
      tally_.check(d.encode_calls == 0 && d.stages == 0 && d.frames == 0,
                   "single-device ran codec calls, stages or frames");
    if (!quantizing(w_))
      tally_.check(d.solves == 0, "a non-AdaQP workload ran assigner solves");
  }

  void traced_phase() {
    inst_->trainer.reset();  // joins any in-flight exchange of the window
    const int epochs = kColdEpochs + traced_warm_epochs();
    DistTrainer traced(inst_->dataset, inst_->dist, inst_->cluster,
                       inst_->model, train_options(w_, o_, epochs));
    const std::string report = artifact("metrics.json");
    RunResult result;
    {
      obs::MetricsGuard metrics(report);
      obs::ProfileGuard profile(true);
      ScopedSpan s(spans_, "core.run_traced");
      result = traced.run();
    }
    std::vector<double> traced_losses;
    for (const EpochRecord& rec : result.epochs) {
      epoch_done(rec.train_loss);
      traced_losses.push_back(rec.train_loss);
    }
    tally_.check(bit_identical(traced_losses, losses_,
                               static_cast<std::size_t>(epochs)),
                 "traced losses differ from the untraced run's");

    const obs::RunCapture& cap = traced.run_capture();
    std::vector<double> wall, cp, zero_wire, inf_thread, serial, scheduling;
    std::vector<double> fwd_eff, bwd_eff;
    std::array<std::vector<double>, obs::kNumProfileCategories> cat;
    for (int e = kColdEpochs; e < cap.captured_epochs(); ++e) {
      const obs::EpochProfile p = cap.profile().epoch_rollup(e);
      const obs::EpochRow& row = cap.row_at(e);
      wall.push_back(row.wall.total() * 1e3);
      cp.push_back(p.cp_s * 1e3);
      zero_wire.push_back(p.zero_wire_s * 1e3);
      inf_thread.push_back(p.infinite_thread_s * 1e3);
      serial.push_back(p.serial_s * 1e3);
      scheduling.push_back(p.scheduling_s * 1e3);
      for (int c = 0; c < obs::kNumProfileCategories; ++c)
        cat[static_cast<std::size_t>(c)].push_back(
            p.category_s[static_cast<std::size_t>(c)] * 1e3);
      fwd_eff.push_back(row.fwd_overlap.efficiency());
      bwd_eff.push_back(row.bwd_overlap.efficiency());
    }
    const auto cat_ms = [&](obs::ProfileCategory c) {
      return e2e::median(cat[static_cast<std::size_t>(c)]);
    };
    add("gnn.central_cp_ms", cat_ms(obs::kCatCentral), "ms");
    add("gnn.marginal_cp_ms", cat_ms(obs::kCatMarginal), "ms");
    add("quant.encode_cp_ms", cat_ms(obs::kCatEncode), "ms");
    add("transport.wire_cp_ms", cat_ms(obs::kCatWire), "ms");
    add("quant.decode_cp_ms", cat_ms(obs::kCatDecode), "ms");
    add("core.fold_cp_ms", cat_ms(obs::kCatFold), "ms");
    add("pipeline.other_cp_ms", cat_ms(obs::kCatOther), "ms");
    add("core.serial_ms", e2e::median(serial), "ms");
    add("runtime.scheduling_ms", e2e::median(scheduling), "ms");
    add("pipeline.critical_path_ms", e2e::median(cp), "ms");
    add("pipeline.zero_wire_ms", e2e::median(zero_wire), "ms");
    add("pipeline.infinite_thread_ms", e2e::median(inf_thread), "ms");
    add("pipeline.fwd_overlap_eff", e2e::median(fwd_eff), "share");
    add("pipeline.bwd_overlap_eff", e2e::median(bwd_eff), "share");
    add("obs.trace_overhead_share",
        e2e::median(wall) / untraced_wall_p50_ms_ - 1.0, "share");
  }

  void isolated_phase() {
    ScopedSpan all(spans_, "isolated");
    const DeviceGraph& dev = inst_->dist.devices[0];
    Rng rng(o_.seed);

    {  // Stage scheduler: 256 empty stages, launch + wait.
      ScopedSpan s(spans_, "pipeline.stage_graph");
      constexpr int kStages = 256;
      pipeline::StageGraph graph;
      for (int i = 0; i < kStages; ++i)
        graph.add("empty/" + std::to_string(i), [] {});
      bool first = true;
      const double us = median_call_us(kIsolatedCalls, [&] {
        if (!first) graph.reset();
        first = false;
        graph.launch();
        graph.wait();
      });
      add("pipeline.stage_us", us / kStages, "us");
    }
    {  // Pool dispatch: one empty task per device.
      ScopedSpan s(spans_, "runtime.parallel_for_each");
      const auto devices =
          static_cast<std::size_t>(inst_->cluster.num_devices());
      const double us = median_call_us(kIsolatedCalls * 20, [&] {
        parallel_for_each(devices, [](std::size_t) {});
      });
      add("runtime.parallel_for_us", us, "us");
    }
    {  // One 64 KiB frame through the workload's transport.
      ScopedSpan s(spans_, "transport.roundtrip");
      transport::Transport& tp = transport::active();
      std::vector<std::uint8_t> payload(64 * 1024);
      for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(rng.next());
      const int n = inst_->cluster.num_devices();
      transport::FrameTag tag{transport::next_channel(), 0, 0, 0,
                              static_cast<std::uint8_t>(n > 1 ? 1 : 0)};
      bool intact = true;
      const double us = median_call_us(kIsolatedCalls, [&] {
        ++tag.round;
        tp.send(tag, payload);
        const auto got = tp.recv(tag, payload);
        intact = intact && got.size() == payload.size() &&
                 std::memcmp(got.data(), payload.data(), payload.size()) == 0;
      });
      add("transport.roundtrip_us_64k", us, "us");
      tally_.check(intact, "a 64 KiB frame arrived altered");
    }
    {  // Codec: device 0's largest send set at the workload's wire width.
      ScopedSpan s(spans_, "quant.encode_rows_into");
      std::size_t peer = 0;
      for (std::size_t p = 1; p < dev.send_local.size(); ++p)
        if (dev.send_local[p].size() > dev.send_local[peer].size()) peer = p;
      const std::vector<NodeId> none;
      const std::vector<NodeId>& rows =
          dev.send_local.empty() ? none : dev.send_local[peer];
      double ns_per_byte = 0.0;
      if (!rows.empty()) {
        Matrix x(dev.num_local(), kHiddenDim);
        x.fill_uniform(rng, -1.0f, 1.0f);
        const std::vector<int> bits(rows.size(), quantizing(w_) ? 4 : 32);
        std::vector<float> uniforms;
        EncodedBlock block;
        const double us = median_call_us(kIsolatedCalls, [&] {
          encode_rows_into(x, rows, bits, rng, uniforms, block);
        });
        const std::size_t fp_bytes = rows.size() * kHiddenDim * sizeof(float);
        ns_per_byte = us * 1e3 / static_cast<double>(fp_bytes);
      }
      add("quant.encode_ns_per_byte", ns_per_byte, "ns/B");
    }
    {  // Aggregation over device 0's owned rows at the hidden width.
      ScopedSpan s(spans_, "gnn.aggregate_forward");
      Matrix x(dev.num_local(), kHiddenDim);
      x.fill_uniform(rng, -1.0f, 1.0f);
      Matrix out(dev.num_owned, kHiddenDim);
      const AggregatePlan plan = build_aggregate_plan(dev, w_.aggregator);
      const double us = median_call_us(kIsolatedCalls, [&] {
        aggregate_forward(dev, plan, x, dev.owned_span(), out);
      });
      add("gnn.aggregate_ms", us * 1e-3, "ms");
    }
    {  // Dense transform: device-0 rows x input width x hidden width.
      ScopedSpan s(spans_, "tensor.gemm");
      const std::size_t k = inst_->model.in_dim;
      Matrix a(dev.num_owned, k), b(k, kHiddenDim);
      Matrix c(dev.num_owned, kHiddenDim);
      a.fill_uniform(rng, -1.0f, 1.0f);
      b.fill_uniform(rng, -1.0f, 1.0f);
      const double us = median_call_us(kIsolatedCalls, [&] { gemm(a, b, c); });
      const double flops =
          2.0 * static_cast<double>(dev.num_owned) * k * kHiddenDim;
      add("tensor.gemm_gflops", flops / (us * 1e-6) / 1e9, "GFLOP/s");
    }
  }

  const Options& o_;
  const Workload& w_;
  SpanLog spans_;
  Tally tally_;
  int ok_epochs_ = 0;
  bool aborted_ = false;
  std::unique_ptr<Instance> inst_;
  std::vector<double> losses_;  ///< cold (kept set-up) + untraced warm
  std::vector<double> epoch_ms_;
  std::vector<double> setup_s_;
  double setup_median_s_ = 0.0;
  double untraced_wall_p50_ms_ = 0.0;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// JSON number with every digit; non-finite values become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metric(const Metric& m) {
  return "{\"value\": " + json_number(m.value) + ", \"unit\": \"" +
         obs::json_escaped(m.unit) + "\"}";
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + json_number(v[i]);
  return s + "]";
}

/// BENCHMARK.json's metric list for this mode ({name, unit} per entry).
std::vector<std::pair<std::string, std::string>> listed_metrics(
    bool per_layer) {
  const std::string path = kBenchmarkJson;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const jsonmini::ValuePtr root = jsonmini::Parser(body).parse();
  const auto it = root->object.find(per_layer ? "per_layer" : "end_to_end");
  if (it == root->object.end())
    throw std::runtime_error(path + " has no metric list");
  std::vector<std::pair<std::string, std::string>> out;
  for (const jsonmini::ValuePtr& m : it->second->array)
    out.emplace_back(m->object.at("name")->str, m->object.at("unit")->str);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  if (o.trace) {
    std::error_code ec;
    std::filesystem::create_directories(kArtifactsDir, ec);
  }
  set_num_threads(kThreads);
  pipeline::AsyncModeGuard async(true);

  Run run(o);
  run.execute();
  Tally& tally = run.tally();

  if (o.trace && !run.spans().write_chrome_trace(run.trace_path()))
    tally.check(false, "could not write " + run.trace_path());

  std::string line;
  try {
    for (const auto& [name, unit] : listed_metrics(o.trace)) {
      const auto it = std::find_if(
          run.metrics().begin(), run.metrics().end(),
          [&](const Metric& m) { return m.name == name; });
      const bool found = it != run.metrics().end() && it->unit == unit;
      if (!run.aborted())
        tally.check(found, "metric " + name + " [" + unit + "] not produced");
      if (found) line += (line.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                         json_metric(*it);
    }
  } catch (const std::exception& e) {
    tally.check(false, e.what());
  }
  run.add("error_rate",
          static_cast<double>(tally.failed) / std::max(tally.attempted, 1),
          "share");
  for (const Metric& m : run.metrics())
    std::printf("%s %s %.6g %s\n", o.workload->name, m.name.c_str(), m.value,
                m.unit.c_str());

  if (!o.out.empty()) {
    std::ofstream out(o.out);
    out << "{\"workload\": \"" << o.workload->name << "\", \"seed\": " << o.seed
        << ", \"smoke\": " << (o.smoke ? "true" : "false")
        << ", \"isa\": \"" << simd::isa_name(simd::active_isa())
        << "\", \"correct\": " << (tally.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ",\n \"metrics\": {";
    for (std::size_t i = 0; i < run.metrics().size(); ++i)
      out << (i ? ",\n  " : "\n  ") << "\"" << run.metrics()[i].name
          << "\": " << json_metric(run.metrics()[i]);
    out << "},\n \"samples\": {\"epoch_ms\": " << json_array(run.epoch_ms())
        << ", \"setup_s\": " << json_array(run.setup_s()) << "}}\n";
    if (!out)
      std::fprintf(stderr, "e2e_bench: could not write %s\n", o.out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, line.c_str());
  return tally.failed == 0 ? 0 : 1;
}
