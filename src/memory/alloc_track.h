// Heap-allocation tracking — the instrument behind the zero-allocation
// steady-state invariant (docs/ARCHITECTURE.md, "Memory subsystem").
//
// Linking alloc_track.cpp into a binary replaces the global operator
// new/delete (every form) with thin counting wrappers over std::malloc /
// std::free. The counter is always on — one relaxed atomic increment per
// allocation, noise next to the allocation itself — so alloc_count() can be
// sampled around any region to measure its heap traffic. The TU is part of
// the adaqp static library and is pulled into a binary whenever anything it
// links references these symbols (DistTrainer always does), at which point
// the replacement is program-wide, as the C++ standard specifies for
// replaced allocation functions.
//
// ADAQP_ALLOC_TRACK=1 does not change what is counted; it arms the
// *assertion*: DistTrainer::train_epoch() then throws std::runtime_error
// with a per-phase breakdown if a qualifying steady-state epoch (see
// steady_state_definition() below) performs any heap allocation.
// bench/bench_alloc_steady_state.cpp drives the same check as a CI gate.
#pragma once

#include <cstdint>

namespace adaqp::memory {

/// Total global operator-new calls (all forms) since process start.
std::uint64_t alloc_count();

/// ADAQP_ALLOC_TRACK=1 (strict parse, cached on first call). Controls the
/// steady-state assertion, not the counting.
bool track_enabled();

/// The steady-state contract, for error messages and docs: an epoch counts
/// as steady state when it is not the warmup epoch (epoch 0), does not run
/// a bit-width plan refresh, and runs with evaluation, tracing, racecheck
/// and verbose reporting off.
const char* steady_state_definition();

}  // namespace adaqp::memory
