// Pipeline configuration: the ADAQP_ASYNC escape hatch.
//
// ADAQP_ASYNC=1 (the default) launches every trainer layer graph on the
// async stage scheduler (src/pipeline/stage_graph.h), so exchange stages
// overlap whatever compute stages the method's policy adds (AdaQP's
// central-subgraph compute) on the runtime thread pool. ADAQP_ASYNC=0 runs
// the same graphs with run_serial(), the reference schedule, useful for
// bisecting and as the baseline for the overlap bench. The two modes are
// bit-identical by construction; tests/test_pipeline.cpp enforces it for
// every trainer method.
//
// Parsing is strict, alongside the ADAQP_THREADS handling in src/runtime/:
// any value other than "0" or "1" raises std::runtime_error with a clear
// message rather than silently picking a default.
#pragma once

namespace adaqp::pipeline {

/// True when the async stage scheduler should be used. Reads ADAQP_ASYNC on
/// every call (unset -> true); an override installed via set_async_override
/// wins. Throws std::runtime_error on values other than "0"/"1".
bool async_enabled();

/// Force the mode for the current process (tests, benches, in-process
/// sweeps): 0 = sync, 1 = async, -1 = clear the override (back to the env).
void set_async_override(int mode);

/// Scoped override; restores the previous override state on destruction.
class AsyncModeGuard {
 public:
  explicit AsyncModeGuard(bool async);
  ~AsyncModeGuard();
  AsyncModeGuard(const AsyncModeGuard&) = delete;
  AsyncModeGuard& operator=(const AsyncModeGuard&) = delete;

 private:
  int prev_;
};

}  // namespace adaqp::pipeline
