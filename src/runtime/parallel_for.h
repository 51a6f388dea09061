// Data-parallel loop primitives on top of the thread pool.
//
// parallel_for splits an index range into at most num_threads() contiguous
// chunks. Chunk boundaries are a pure function of (n, grain, thread count),
// and every kernel built on it keeps per-element arithmetic independent of
// the banding (disjoint writes, fixed per-element accumulation order), so
// results are bit-identical for every thread count. Nested regions run
// inline on the calling worker.
//
// Both loops dispatch through ThreadPool's raw function-pointer form with a
// stack-allocated context, so entering a parallel region performs no heap
// allocation — part of the steady-state contract (docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "runtime/thread_pool.h"

namespace adaqp {

/// Run body(begin, end) over a static partition of [0, n) with at least
/// `grain` indices per chunk. body must treat each index independently.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  if (ThreadPool::in_worker()) {  // nested region: inline, skip pool lookup
    body(static_cast<std::size_t>(0), n);
    return;
  }
  if (grain == 0) grain = 1;
  ThreadPool& pool = global_pool();
  const std::size_t max_chunks = static_cast<std::size_t>(pool.num_threads());
  const std::size_t chunks = std::min(max_chunks, (n + grain - 1) / grain);
  if (chunks <= 1) {
    body(static_cast<std::size_t>(0), n);
    return;
  }
  using BodyT = std::remove_reference_t<Body>;
  struct Ctx {
    BodyT* body;
    std::size_t base;
    std::size_t rem;
  } ctx{std::addressof(body), n / chunks, n % chunks};
  pool.run(
      chunks,
      [](std::size_t c, void* p) {
        Ctx& cx = *static_cast<Ctx*>(p);
        const std::size_t begin = c * cx.base + std::min(c, cx.rem);
        const std::size_t end = begin + cx.base + (c < cx.rem ? 1 : 0);
        (*cx.body)(begin, end);
      },
      &ctx);
}

/// Run body(i) as one pool task per index — the per-device task form used by
/// the trainer and the halo-exchange phases.
template <typename Body>
void parallel_for_each(std::size_t n, Body&& body) {
  if (n == 0) return;
  if (n == 1 || ThreadPool::in_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool& pool = global_pool();
  if (pool.num_threads() <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  using BodyT = std::remove_reference_t<Body>;
  pool.run(
      n, [](std::size_t i, void* p) { (*static_cast<BodyT*>(p))(i); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace adaqp
