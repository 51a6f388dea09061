#include "obs/metrics.h"

#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/env.h"

namespace adaqp::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::span<const double> upper_bounds) {
  if (upper_bounds.size() > kMaxBounds)
    throw std::runtime_error("obs::Histogram: too many buckets");
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    if (i > 0 && upper_bounds[i] <= upper_bounds[i - 1])
      throw std::runtime_error(
          "obs::Histogram: bounds must be strictly increasing");
    bounds_[i] = upper_bounds[i];
  }
  num_bounds_ = upper_bounds.size();
}

void Histogram::record(double v) {
  std::size_t i = 0;
  while (i < num_bounds_ && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Impl {
  enum Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    Counter* c = nullptr;
    Gauge* g = nullptr;
    Histogram* h = nullptr;
  };

  std::mutex mu;
  // Deques: instrument addresses must survive later registrations.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::vector<Entry> entries;                       // registration order
  std::map<std::string, std::size_t, std::less<>> index;
};

Registry::Registry() : impl_(new Impl) {}
Registry::~Registry() { delete impl_; }

Registry& Registry::instance() {
  // Leaked singleton: instruments are bumped from pool workers that may
  // outlive static destruction order.
  static Registry* reg = new Registry;
  return *reg;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (auto it = impl_->index.find(name); it != impl_->index.end()) {
    const Impl::Entry& e = impl_->entries[it->second];
    if (e.kind != Impl::kCounter)
      throw std::runtime_error("obs::Registry: \"" + std::string(name) +
                               "\" already registered with another type");
    return *e.c;
  }
  impl_->counters.emplace_back();
  Impl::Entry e;
  e.name = std::string(name);
  e.kind = Impl::kCounter;
  e.c = &impl_->counters.back();
  impl_->index.emplace(e.name, impl_->entries.size());
  impl_->entries.push_back(std::move(e));
  return *impl_->entries.back().c;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (auto it = impl_->index.find(name); it != impl_->index.end()) {
    const Impl::Entry& e = impl_->entries[it->second];
    if (e.kind != Impl::kGauge)
      throw std::runtime_error("obs::Registry: \"" + std::string(name) +
                               "\" already registered with another type");
    return *e.g;
  }
  impl_->gauges.emplace_back();
  Impl::Entry e;
  e.name = std::string(name);
  e.kind = Impl::kGauge;
  e.g = &impl_->gauges.back();
  impl_->index.emplace(e.name, impl_->entries.size());
  impl_->entries.push_back(std::move(e));
  return *impl_->entries.back().g;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (auto it = impl_->index.find(name); it != impl_->index.end()) {
    const Impl::Entry& e = impl_->entries[it->second];
    if (e.kind != Impl::kHistogram)
      throw std::runtime_error("obs::Registry: \"" + std::string(name) +
                               "\" already registered with another type");
    return *e.h;
  }
  impl_->histograms.emplace_back(bounds);
  Impl::Entry e;
  e.name = std::string(name);
  e.kind = Impl::kHistogram;
  e.h = &impl_->histograms.back();
  impl_->index.emplace(e.name, impl_->entries.size());
  impl_->entries.push_back(std::move(e));
  return *impl_->entries.back().h;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  Snapshot snap;
  for (const Impl::Entry& e : impl_->entries) {
    switch (e.kind) {
      case Impl::kCounter:
        snap.counters.emplace_back(e.name, e.c->value());
        break;
      case Impl::kGauge:
        snap.gauges.emplace_back(e.name, e.g->value());
        break;
      case Impl::kHistogram: {
        HistogramSnapshot h;
        h.name = e.name;
        h.count = e.h->count();
        h.sum = e.h->sum();
        for (std::size_t i = 0; i < e.h->num_bounds(); ++i)
          h.bounds.push_back(e.h->bound(i));
        for (std::size_t i = 0; i <= e.h->num_bounds(); ++i)
          h.counts.push_back(e.h->bucket_count(i));
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (const Impl::Entry& e : impl_->entries) {
    switch (e.kind) {
      case Impl::kCounter: e.c->reset(); break;
      case Impl::kGauge: e.g->reset(); break;
      case Impl::kHistogram: e.h->reset(); break;
    }
  }
}

// ---------------------------------------------------------------------------
// Instrument catalog
// ---------------------------------------------------------------------------

const Instruments& instruments() {
  static const Instruments* ins = [] {
    Registry& r = Registry::instance();
    // µs bounds; exchanges join in sub-ms on small graphs, solves can take
    // longer on large partitions — overflow buckets catch the tail.
    static constexpr double kJoinBounds[] = {50.0,    100.0,   250.0,  500.0,
                                             1000.0,  2500.0,  5000.0, 10000.0,
                                             25000.0, 50000.0, 100000.0,
                                             250000.0};
    static constexpr double kSolveBounds[] = {100.0,   250.0,   500.0,
                                              1000.0,  2500.0,  5000.0,
                                              10000.0, 25000.0, 50000.0,
                                              100000.0};
    // Localhost connect + hello handshakes land in tens to hundreds of µs;
    // retry storms during multi-process startup can reach seconds.
    static constexpr double kRttBounds[] = {50.0,     100.0,    250.0,
                                            500.0,    1000.0,   2500.0,
                                            5000.0,   10000.0,  50000.0,
                                            100000.0, 500000.0, 1000000.0};
    return new Instruments{
        r.counter("trainer.epochs"),
        r.counter("codec.encode_calls"),
        r.counter("codec.encode_bytes"),
        r.counter("codec.encode_ns"),
        r.counter("codec.decode_calls"),
        r.counter("codec.decode_bytes"),
        r.counter("codec.decode_ns"),
        r.counter("exchange.rounds"),
        r.counter("exchange.messages"),
        {&r.counter("exchange.wire_bytes.b2"),
         &r.counter("exchange.wire_bytes.b4"),
         &r.counter("exchange.wire_bytes.b8"),
         &r.counter("exchange.wire_bytes.b32")},
        r.histogram("exchange.submit_to_join_us", kJoinBounds),
        r.counter("pipeline.stages"),
        r.counter("pool.tasks"),
        r.counter("pool.detached_tasks"),
        r.gauge("pool.detached_depth"),
        r.counter("assigner.solves"),
        {&r.counter("assigner.bits.b2"), &r.counter("assigner.bits.b4"),
         &r.counter("assigner.bits.b8")},
        r.histogram("assigner.solve_us", kSolveBounds),
        r.counter("transport.frames"),
        r.counter("transport.bytes"),
        r.counter("transport.wire_frames"),
        r.counter("transport.wire_bytes"),
        r.counter("transport.short_writes"),
        r.counter("transport.reconnects"),
        r.histogram("transport.rtt_us", kRttBounds),
        r.counter("transport.fault.delays"),
        r.counter("transport.fault.reorders"),
        r.counter("transport.fault.splits"),
        r.counter("transport.fault.drops"),
    };
  }();
  return *ins;
}

// ---------------------------------------------------------------------------
// Report configuration
// ---------------------------------------------------------------------------

namespace {

std::mutex g_override_mu;
std::optional<ReportConfig> g_override;  // guarded by g_override_mu

}  // namespace

ReportConfig report_config() {
  {
    std::lock_guard<std::mutex> lk(g_override_mu);
    if (g_override) return *g_override;
  }
  ReportConfig cfg;
  if (const auto path = env::text("ADAQP_METRICS")) {
    cfg.enabled = true;
    cfg.path = *path;
  }
  return cfg;
}

std::optional<ReportConfig> set_report_override(
    std::optional<ReportConfig> cfg) {
  std::lock_guard<std::mutex> lk(g_override_mu);
  std::optional<ReportConfig> prev = std::move(g_override);
  g_override = std::move(cfg);
  return prev;
}

MetricsGuard::MetricsGuard(std::string path) {
  ReportConfig cfg;
  cfg.enabled = true;
  cfg.path = std::move(path);
  prev_ = set_report_override(std::move(cfg));
}

MetricsGuard::MetricsGuard() {
  prev_ = set_report_override(ReportConfig{});  // enabled = false
}

MetricsGuard::~MetricsGuard() { set_report_override(std::move(prev_)); }

}  // namespace adaqp::obs
