#include "pipeline/config.h"

#include <atomic>

#include "common/env.h"

namespace adaqp::pipeline {

namespace {

/// -1 = no override (consult the environment), 0 = sync, 1 = async.
std::atomic<int> g_override{-1};

}  // namespace

bool async_enabled() {
  const int ov = g_override.load(std::memory_order_acquire);
  if (ov >= 0) return ov != 0;
  // 0 = serial reference schedule, 1 = async stage scheduler (the default);
  // anything else throws via the strict shared parser.
  return env::flag01("ADAQP_ASYNC", true);
}

void set_async_override(int mode) {
  g_override.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                   std::memory_order_release);
}

AsyncModeGuard::AsyncModeGuard(bool async)
    : prev_(g_override.load(std::memory_order_acquire)) {
  set_async_override(async ? 1 : 0);
}

AsyncModeGuard::~AsyncModeGuard() { set_async_override(prev_); }

}  // namespace adaqp::pipeline
