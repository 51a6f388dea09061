// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "pipeline/stage_graph.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"

namespace adaqp::pipeline {

void Event::set() {
  // The notify must stay under the lock: an Event dies with its StageGraph
  // as soon as a waiter observes done_, and every observation path (done(),
  // the wait() predicate) acquires mu_ — so a waiter can only destroy this
  // object after set() has released mu_, i.e. after notify_all() returned.
  // Notifying after unlock reintroduces a destroy-while-broadcast race on
  // the condvar (found by TSan; pinned by SanitizerRegression tests).
  std::lock_guard<std::mutex> lk(mu_);
  done_ = true;
  cv_.notify_all();
}

bool Event::done() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

void Event::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  done_ = false;
}

void Event::wait() {
  ThreadPool& pool = global_pool();
  for (;;) {
    if (done()) return;
    if (pool.try_run_one_detached()) continue;
    // Queue dry: the remaining work is running on workers (or a dependent
    // will be enqueued when it finishes). Block until set(), waking
    // periodically to re-help in case new stages were submitted between the
    // empty check and this wait.
    std::unique_lock<std::mutex> lk(mu_);
    if (done_) return;
    cv_.wait_for(lk, std::chrono::milliseconds(5), [&] { return done_; });
  }
}

int StageGraph::add(std::string name, StageFn fn,
                    const std::vector<int>& deps) {
  return add(std::move(name), std::move(fn), deps, {});
}

int StageGraph::add(std::string name, StageFn fn, const std::vector<int>& deps,
                    analysis::AccessList accesses) {
  ADAQP_CHECK_MSG(!launched_, "StageGraph::add after launch");
  const int id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();  // lint:allow(hot-path-alloc) graph build
  Node& node = nodes_.back();
  node.name = std::move(name);
  node.fn = std::move(fn);
  node.accesses = std::move(accesses);
  node.pending = 0;
  for (int dep : deps) {
    ADAQP_CHECK_MSG(dep >= 0 && dep < id,
                    "stage \"" << node.name << "\" dependency " << dep
                               << " must reference an earlier stage");
    Node& parent = nodes_[dep];
    parent.dependents.push_back(id);  // lint:allow(hot-path-alloc) graph build
    // Which finisher collects a dependent depends on finish order, so every
    // node's ready staging is sized for all of its dependents here, at build
    // time: no run allocates, not even the first one of a graph whose first
    // run lands in a later epoch (PipeGCN's deferred backward exchanges).
    parent.ready_scratch.reserve(parent.dependents.capacity());  // lint:allow(hot-path-alloc) graph build
    ++node.pending;
  }
  if (deps.empty()) sources_.push_back(id);  // lint:allow(hot-path-alloc) graph build
  node.deps = deps;
  return id;
}

void StageGraph::maybe_racecheck() const {
  if (!analysis::racecheck_enabled()) return;
  std::vector<analysis::StageAccessRecord> records;
  records.reserve(nodes_.size());  // lint:allow(hot-path-alloc) racecheck mode only
  for (const Node& node : nodes_)
    records.push_back({node.name, node.deps, node.accesses});  // lint:allow(hot-path-alloc) racecheck mode only
  // Records to the process-wide registry and throws on violations — before
  // any stage has run, so a declared race never executes under the checker.
  analysis::record_and_enforce(
      analysis::check_stage_dag(std::move(records), label_));
}

Event& StageGraph::stage_done(int id) {
  ADAQP_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  return nodes_[id].done;
}

double StageGraph::stage_begin_us(int id) const {
  ADAQP_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  return nodes_[id].begin_us;
}

double StageGraph::stage_end_us(int id) const {
  ADAQP_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  return nodes_[id].end_us;
}

const std::string& StageGraph::stage_name(int id) const {
  ADAQP_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  return nodes_[id].name;
}

const std::vector<int>& StageGraph::stage_deps(int id) const {
  ADAQP_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  return nodes_[id].deps;
}

void StageGraph::run_stage(std::size_t id) {
  Node& node = nodes_[id];
  // Timestamps are stamped before finish_stage(): once the stage's Event is
  // set the owner may read them (the Event mutex publishes the writes).
  node.begin_us = obs::monotonic_us();
  {
    TraceSpan span(node.name, "stage");
    bool skip;
    {
      std::lock_guard<std::mutex> lk(mu_);
      skip = error_ != nullptr;  // a failed stage poisons the rest
    }
    if (!skip) {
      try {
        node.fn();
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }
  node.end_us = obs::monotonic_us();
  obs::instruments().pipeline_stages.add(1);
  finish_stage(id);
}

void StageGraph::finish_stage(std::size_t id) {
  Node& node = nodes_[id];
  node.done.set();
  // Per-node staging: only this node's (single, per run) finisher touches
  // it, and its capacity persists across reset() — no per-stage allocation.
  std::vector<int>& ready = node.ready_scratch;
  ready.clear();
  bool all_finished = false;
  bool async = false;
  bool have_ready = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int dep : node.dependents) {
      if (--nodes_[dep].pending == 0) ready.push_back(dep);  // lint:allow(hot-path-alloc) capacity reserved by add()
    }
    all_finished = --remaining_ == 0;
    // Snapshot under the lock: once we release mu_ without being the final
    // finisher, a concurrent finish_stage can complete the graph and the
    // owner may destroy it — from here on `this` (including `ready`, which
    // lives in the node) is only touched if all_finished (we gate
    // all_done_, so the owner can't be done waiting) or if ready is
    // non-empty (those stages are counted in remaining_ and cannot finish
    // before we submit them, so the graph stays alive). have_ready must
    // therefore be taken here, not read from the member afterwards.
    async = async_mode_;
    have_ready = !ready.empty();
  }
  if (async && have_ready) {
    ThreadPool& pool = global_pool();
    for (int id_ready : ready)
      pool.submit([this, id_ready] {
        run_stage(static_cast<std::size_t>(id_ready));
      });
  }
  // In serial mode dependents are reached by the ascending-id sweep (deps
  // always point backwards), so nothing is submitted.
  if (all_finished) all_done_.set();
}

void StageGraph::reset() {
  ADAQP_CHECK_MSG(!launched_ || all_done_.done(),
                  "StageGraph::reset while a run is in flight");
  for (Node& node : nodes_) {
    node.pending = static_cast<int>(node.deps.size());
    node.done.reset();
  }
  error_ = nullptr;
  remaining_ = 0;
  all_done_.reset();
  launched_ = false;
  async_mode_ = false;
}

void StageGraph::launch() {
  ADAQP_CHECK_MSG(!launched_, "StageGraph launched twice (reset() to re-run)");
  maybe_racecheck();
  launched_ = true;
  async_mode_ = true;
  remaining_ = nodes_.size();
  if (nodes_.empty()) {
    all_done_.set();
    return;
  }
  // A source finishing mid-loop may submit dependents concurrently, which
  // is fine: sources have no dependencies, so finish_stage never enqueues
  // them, and only pending==0 transitions enqueue anything else.
  ThreadPool& pool = global_pool();
  for (const int id : sources_)
    pool.submit([this, id] { run_stage(static_cast<std::size_t>(id)); });
}

void StageGraph::wait() {
  ADAQP_CHECK_MSG(launched_, "StageGraph::wait without launch");
  all_done_.wait();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void StageGraph::run_serial() {
  ADAQP_CHECK_MSG(!launched_, "StageGraph::run_serial after launch");
  maybe_racecheck();
  launched_ = true;
  async_mode_ = false;
  remaining_ = nodes_.size();
  if (nodes_.empty()) {
    all_done_.set();
    return;
  }
  for (std::size_t id = 0; id < nodes_.size(); ++id) run_stage(id);
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void StageGraph::run(bool async) {
  if (async) {
    launch();
    wait();
  } else {
    run_serial();
  }
}

}  // namespace adaqp::pipeline
