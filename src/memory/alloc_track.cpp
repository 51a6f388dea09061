#include "memory/alloc_track.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/env.h"

namespace {

constinit std::atomic<std::uint64_t> g_allocs{0};

/// Allocate `size` bytes (never 0) or return nullptr. All replaced operator
/// new forms funnel through here / through aligned_alloc_counted, so the
/// counters see every heap allocation regardless of which form fired.
void* alloc_counted(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* aligned_alloc_counted(std::size_t size, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

/// Standard retry loop for the throwing forms: give the installed
/// new-handler a chance to free memory before giving up.
template <typename Alloc>
void* alloc_or_throw(Alloc alloc) {
  for (;;) {
    if (void* p = alloc()) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

namespace adaqp::memory {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

bool track_enabled() {
  static const bool on = env::flag01("ADAQP_ALLOC_TRACK", false);
  return on;
}

const char* steady_state_definition() {
  return "steady-state epoch = any epoch after the first that does not run "
         "a bit-width plan refresh, with evaluation, ADAQP_TRACE, "
         "ADAQP_RACECHECK and verbose reporting off, over a zero-allocation "
         "transport (loopback, or single-process tcp, whose receive slots "
         "reuse their buffers; multi-process tcp takes spare buffers for "
         "frames a peer sends ahead)";
}

}  // namespace adaqp::memory

// ---- Replaced global allocation functions ----------------------------------
//
// Every form is replaced so nothing escapes the count: plain, array,
// nothrow, aligned, and the matching sized/aligned deletes (which only pair
// std::free with the malloc underneath). Allocation goes through
// std::malloc, so sanitizer runs still intercept the underlying allocation
// (ASan/TSan wrap malloc, not just operator new).

void* operator new(std::size_t size) {
  return alloc_or_throw([size] { return alloc_counted(size); });
}

void* operator new[](std::size_t size) {
  return alloc_or_throw([size] { return alloc_counted(size); });
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counted(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_counted(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_or_throw([size, align] {
    return aligned_alloc_counted(size, static_cast<std::size_t>(align));
  });
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_or_throw([size, align] {
    return aligned_alloc_counted(size, static_cast<std::size_t>(align));
  });
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return aligned_alloc_counted(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return aligned_alloc_counted(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
