// Async stage scheduler on top of the runtime thread pool.
//
// A StageGraph is a DAG of named stages (closures) with explicit
// dependencies. launch() submits every dependency-free stage to the thread
// pool's detached queue and returns immediately; as stages finish they
// unblock their dependents, which are submitted in turn. wait() joins the
// whole graph — the waiting thread *helps* drain the detached queue, so a
// graph completes even on a 1-thread pool (where it degrades gracefully to
// inline execution). run_serial() executes the same stages inline in
// ascending id order — the deterministic reference schedule the
// ADAQP_ASYNC=0 escape hatch and the bit-exactness tests compare against.
//
// Determinism contract (the same one src/runtime/ established for
// parallel_for): the scheduler only ever chooses *which thread* runs a
// stage and *when*, never what a stage computes. Stages must write disjoint
// locations, keep any accumulation order internal to a single stage, and
// use private RNG streams (see the per-pair streams in
// pipeline/exchange_stages.h) — then every schedule, async or serial, at any
// ADAQP_THREADS value, is bit-identical. tests/test_pipeline.cpp enforces
// this end to end through DistTrainer.
//
// Every stage executes inside a TraceSpan, so an enabled TraceRecorder
// yields a Chrome trace where overlap between exchange and compute stages
// is directly visible.
//
// Lifecycle (build once, run many):
//   1. add() every stage; dependency ids must point at already-added
//      stages, which keeps the graph acyclic by construction.
//   2. Either launch() once and then wait() exactly once (async), or
//      run_serial() once (the reference schedule) — the run(async) helper
//      picks between the two.
//   3. Stage closures may outlive launch() until wait() returns: every
//      buffer they capture by reference must stay alive and untouched (by
//      anyone else) for that whole window. This is what lets a graph stay
//      in flight across an iteration boundary (PipeGCN's deferred
//      exchanges) as long as the owner joins before the buffers are reused.
//   4. After a run has fully finished, reset() re-arms the graph for
//      another run with the same stages — the steady-state path: the
//      trainer builds each per-layer graph once (warmup) and re-runs it
//      every epoch with zero heap allocation. Stage closures must therefore
//      read their per-epoch inputs through stable references (members,
//      persistent scratch), never captured copies of per-epoch values.
//   5. wait() rethrows the first stage exception; dependents of a failed
//      stage are poisoned (never run). The destructor does NOT join — the
//      owner must wait() a launched graph before destroying it (the
//      trainer's per-layer graphs join a still-deferred round defensively).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/race_checker.h"

namespace adaqp::pipeline {

/// One-shot completion handle (re-armable via reset()). set() is sticky;
/// wait() helps the thread pool drain detached stages while unfulfilled, so
/// waiting on an event from the submitting thread can never deadlock the
/// scheduler.
class Event {
 public:
  void set();
  bool done() const;
  void wait();
  /// Re-arm a fulfilled event. The caller must guarantee no thread is
  /// concurrently waiting on or setting it (StageGraph::reset()'s
  /// quiescence requirement).
  void reset();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// DAG of stages executed on the global thread pool.
class StageGraph {
 public:
  using StageFn = std::function<void()>;

  StageGraph() = default;
  StageGraph(const StageGraph&) = delete;
  StageGraph& operator=(const StageGraph&) = delete;

  /// Add a stage. Dependencies must reference previously added stages
  /// (ids < the new stage's id), which keeps the graph acyclic by
  /// construction and makes ascending-id a valid serial schedule.
  /// Returns the stage id.
  int add(std::string name, StageFn fn, const std::vector<int>& deps = {});

  /// Same, with declared buffer accesses for the race checker (see
  /// analysis/race_checker.h). Under ADAQP_RACECHECK=1, launch() /
  /// run_serial() verify that every conflicting access pair is ordered by
  /// the declared dependencies *before* any stage runs, and throw with a
  /// violation report otherwise. Stages added without accesses are opaque
  /// to the checker.
  int add(std::string name, StageFn fn, const std::vector<int>& deps,
          analysis::AccessList accesses);

  /// Label used for racecheck reports (default "stage-graph").
  void set_label(std::string label) { label_ = std::move(label); }

  std::size_t size() const { return nodes_.size(); }

  /// Completion handle of one stage (valid until the graph is destroyed).
  Event& stage_done(int id);

  /// Monotonic timestamps (obs::monotonic_us()) stamped around the last
  /// execution of a stage. Always on (two clock reads per stage) — this is
  /// what lets the trainer compute realized overlap efficiency without a
  /// full trace. Valid only after the run has completed (wait() returned /
  /// run_serial() done), which also provides the happens-before edge for
  /// reading them; values are wall-clock and therefore nondeterministic,
  /// observational only.
  double stage_begin_us(int id) const;
  double stage_end_us(int id) const;

  /// Stage identity for the critical-path profiler (src/obs/profile.h):
  /// the name and declared dependency edges of a stage. References stay
  /// valid for the graph's lifetime (nodes live in a deque), which is how
  /// profile rows can keep name pointers instead of copies.
  const std::string& stage_name(int id) const;
  const std::vector<int>& stage_deps(int id) const;

  /// Submit all ready stages to the pool and return immediately. Call at
  /// most once per armed graph; follow with wait().
  void launch();

  /// Block until every stage has finished (helping to run queued stages),
  /// then rethrow the first stage exception, if any.
  void wait();

  /// Run every stage inline, in ascending id order (the reference
  /// schedule). Rethrows the first stage exception. Mutually exclusive
  /// with launch().
  void run_serial();

  /// launch() + wait() when `async`, else run_serial().
  void run(bool async);

  /// Re-arm a fully finished graph for another run with the same stages.
  /// Requires the previous run to have completed (wait() returned /
  /// run_serial() done). Allocation-free: pending counts, events and the
  /// error slot are rewound in place. add() stays usable only before the
  /// first launch.
  void reset();

  /// True once launch()/run_serial() has been called on the current arming.
  bool launched() const { return launched_; }

 private:
  struct Node {
    std::string name;
    StageFn fn;
    std::vector<int> deps;  ///< kept for the race checker + reset()
    std::vector<int> dependents;
    analysis::AccessList accesses;
    int pending = 0;  ///< unfinished dependencies; guarded by mu_
    Event done;
    double begin_us = 0.0;  ///< stamped by the executing thread; read after
    double end_us = 0.0;    ///< the run joins (see stage_begin_us())
    std::vector<int> ready_scratch;  ///< finish_stage staging, sized by add()
  };

  void run_stage(std::size_t id);
  void finish_stage(std::size_t id);
  /// Racecheck hook: no-op unless racecheck_enabled(); otherwise checks the
  /// declared DAG + accesses and throws before any stage has run.
  void maybe_racecheck() const;

  // Nodes are stored in a deque so Node addresses (and their Events) stay
  // stable as stages are added.
  std::deque<Node> nodes_;
  std::mutex mu_;                 ///< guards pending counts / error / count
  std::size_t remaining_ = 0;
  std::exception_ptr error_;
  Event all_done_;
  std::string label_ = "stage-graph";
  std::vector<int> sources_;  ///< dependency-free stages, in id order
  bool launched_ = false;
  bool async_mode_ = false;
};

}  // namespace adaqp::pipeline
