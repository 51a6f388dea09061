// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "runtime/thread_pool.h"

#include "common/env.h"
#include "obs/metrics.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace adaqp {

namespace {

thread_local bool t_in_pool_task = false;

/// RAII marker so nested parallel regions collapse to inline execution on
/// both workers and the participating caller thread.
struct InTaskScope {
  bool prev;
  InTaskScope() : prev(t_in_pool_task) { t_in_pool_task = true; }
  ~InTaskScope() { t_in_pool_task = prev; }
};

}  // namespace

struct ThreadPool::Impl {
  /// The one reusable parallel-region slot. A new batch may only be
  /// installed once the previous one has fully quiesced (remaining == 0 and
  /// inside == 0), which is what makes reuse safe without per-batch heap
  /// allocation: a straggler worker that woke for an old epoch and is still
  /// inside work_on_batch() holds `inside`, so fn/ctx/next_ticket are never
  /// repurposed under it — its ticket fetches simply run dry.
  struct Batch {
    RawTask fn = nullptr;
    void* ctx = nullptr;
    std::size_t total = 0;
    std::atomic<std::size_t> next_ticket{0};
    std::size_t remaining = 0;  ///< unfinished tasks; guarded by Impl::mu
    std::size_t inside = 0;     ///< threads in work_on_batch; guarded by mu
    std::exception_ptr error;   ///< first task exception; guarded by mu
  };

  std::mutex mu;
  std::condition_variable cv_work;  ///< workers wait here for a new batch
  std::condition_variable cv_done;  ///< callers wait here for completion

  Batch batch;              ///< reusable slot (see above)
  std::uint64_t epoch = 0;  ///< bumped per submission (wake filter)
  bool stop = false;

  /// Detached tasks (pipeline stages). FIFO ring buffer guarded by mu,
  /// pre-sized at pool construction so steady-state submit/pop cycles never
  /// touch the heap — growth beyond the initial capacity doubles (order
  /// preserved) but would happen on whichever thread submits, possibly a
  /// worker mid-epoch, so the initial size is chosen far above any real
  /// stage fan-out. Batches take priority so parallel_for latency is
  /// unaffected by queued stages.
  std::vector<std::function<void()>> detached =
      std::vector<std::function<void()>>(256);
  std::size_t detached_head = 0;
  std::size_t detached_count = 0;

  std::vector<std::thread> workers;

  void push_detached_locked(std::function<void()>&& fn) {
    if (detached_count == detached.size()) {
      const std::size_t cap = detached.empty() ? 16 : detached.size() * 2;
      std::vector<std::function<void()>> grown(cap);
      for (std::size_t i = 0; i < detached_count; ++i)
        grown[i] = std::move(detached[(detached_head + i) % detached.size()]);
      detached = std::move(grown);
      detached_head = 0;
    }
    detached[(detached_head + detached_count) % detached.size()] =
        std::move(fn);
    ++detached_count;
    obs::instruments().pool_detached_depth.set(
        static_cast<std::int64_t>(detached_count));
  }

  /// Claim and run tasks until the slot's ticket counter runs dry; account
  /// the finished count and wake the caller when the batch completes. The
  /// caller must have incremented batch.inside under mu *before* entry
  /// (that publication order is what keeps fn/ctx readable without mu).
  void work_on_batch() {
    InTaskScope scope;
    const RawTask fn = batch.fn;
    void* const ctx = batch.ctx;
    const std::size_t total = batch.total;
    std::size_t done_here = 0;
    for (;;) {
      const std::size_t i =
          batch.next_ticket.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      try {
        fn(i, ctx);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!batch.error) batch.error = std::current_exception();
      }
      ++done_here;
    }
    if (done_here > 0) obs::instruments().pool_tasks.add(done_here);
    {
      std::lock_guard<std::mutex> lk(mu);
      --batch.inside;
      if (done_here > 0) batch.remaining -= done_here;
      if (batch.remaining == 0 || batch.inside == 0) cv_done.notify_all();
    }
  }

  /// Pop one detached task; empty function when the queue is dry.
  std::function<void()> pop_detached() {
    std::lock_guard<std::mutex> lk(mu);
    if (detached_count == 0) return {};
    std::function<void()> fn = std::move(detached[detached_head]);
    detached[detached_head] = nullptr;  // drop any residual target
    detached_head = (detached_head + 1) % detached.size();
    --detached_count;
    obs::instruments().pool_detached_depth.set(
        static_cast<std::int64_t>(detached_count));
    return fn;
  }

  void worker_loop() {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      bool participate = false;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] {
          return stop || epoch != seen_epoch || detached_count != 0;
        });
        if (stop) return;
        if (epoch != seen_epoch) {
          seen_epoch = epoch;
          ++batch.inside;  // published under mu before touching the slot
          participate = true;
        }
      }
      if (participate) work_on_batch();
      // Drain detached tasks, yielding to a newly submitted batch between
      // tasks — batch priority holds during the drain, not only at the
      // wait predicate.
      for (;;) {
        {
          std::lock_guard<std::mutex> lk(mu);
          if (stop || epoch != seen_epoch) break;
        }
        if (!run_one_detached()) break;
      }
    }
  }

  /// Run one detached task inline if any is queued. Detached tasks must
  /// handle their own errors (StageGraph captures them per stage); an
  /// exception escaping one would otherwise kill the worker thread, so it
  /// is swallowed here as a last resort.
  bool run_one_detached() {
    auto fn = pop_detached();
    if (!fn) return false;
    InTaskScope scope;
    try {
      fn();
    } catch (...) {
    }
    obs::instruments().pool_detached_tasks.add(1);
    return true;
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl), num_threads_(num_threads < 1 ? 1 : num_threads) {  // lint:allow(hot-path-alloc) ctor
  impl_->workers.reserve(static_cast<std::size_t>(num_threads_ - 1));  // lint:allow(hot-path-alloc) ctor
  for (int t = 1; t < num_threads_; ++t)
    impl_->workers.emplace_back([im = impl_] { im->worker_loop(); });  // lint:allow(hot-path-alloc) ctor
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

bool ThreadPool::in_worker() { return t_in_pool_task; }

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->push_detached_locked(std::move(fn));
  }
  impl_->cv_work.notify_all();
}

bool ThreadPool::try_run_one_detached() { return impl_->run_one_detached(); }

void ThreadPool::run(std::size_t num_tasks, RawTask fn, void* ctx) {
  if (num_tasks == 0) return;
  if (num_threads_ <= 1 || num_tasks == 1 || in_worker()) {
    // Inline path: exceptions propagate directly; a nested call never
    // touches the pool state, so outer batches are unaffected. Not counted
    // in pool_tasks, which counts only tasks claimed from the batch slot.
    for (std::size_t i = 0; i < num_tasks; ++i) fn(i, ctx);
    return;
  }
  Impl* im = impl_;
  {
    std::unique_lock<std::mutex> lk(im->mu);
    // Wait for full quiescence of the previous batch before reusing the
    // slot — stragglers from an old epoch may still be inside (ticket-dry;
    // see Impl::Batch).
    im->cv_done.wait(lk, [&] {
      return im->batch.remaining == 0 && im->batch.inside == 0;
    });
    im->batch.fn = fn;
    im->batch.ctx = ctx;
    im->batch.total = num_tasks;
    im->batch.next_ticket.store(0, std::memory_order_relaxed);
    im->batch.remaining = num_tasks;
    im->batch.inside = 1;  // the caller participates
    im->batch.error = nullptr;
    ++im->epoch;
  }
  im->cv_work.notify_all();
  im->work_on_batch();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(im->mu);
    im->cv_done.wait(lk, [&] { return im->batch.remaining == 0; });
    error = im->batch.error;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& task) {
  run(
      num_tasks,
      [](std::size_t i, void* ctx) {
        (*static_cast<const std::function<void(std::size_t)>*>(ctx))(i);
      },
      const_cast<void*>(static_cast<const void*>(&task)));
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_fast{nullptr};  ///< lock-free lookup path

}  // namespace

int configured_threads() {
  // Strict parse (docs/ENVVARS.md): a malformed ADAQP_THREADS throws rather
  // than silently running on the hardware default; parsed values clamp to
  // [1, 256].
  if (const auto v = env::int_in_range("ADAQP_THREADS", 1, 256))
    return static_cast<int>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool& global_pool() {
  if (ThreadPool* p = g_pool_fast.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(configured_threads());  // lint:allow(hot-path-alloc) one-time pool creation
    g_pool_fast.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

int num_threads() { return global_pool().num_threads(); }

void set_num_threads(int n) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool_fast.store(nullptr, std::memory_order_release);
  g_pool.reset();  // joins the old workers before the new pool exists
  g_pool = std::make_unique<ThreadPool>(n < 1 ? 1 : n);  // lint:allow(hot-path-alloc) pool rebuild, never mid-epoch
  g_pool_fast.store(g_pool.get(), std::memory_order_release);
}

}  // namespace adaqp
