// Strict environment-variable parsing — the single front door for every
// ADAQP_* runtime knob.
//
// The library's configuration contract (docs/ENVVARS.md) is that a malformed
// value raises std::runtime_error with a message naming the variable, the
// accepted values and the offending text, instead of silently picking a
// default — a typo'd knob must never run a misconfigured experiment. Before
// this header existed each consumer hand-rolled its own std::getenv + parse;
// now they all call these helpers, and tools/lint/ enforces that std::getenv
// appears nowhere else in the library (rule `env-via-helpers`), so a new knob
// cannot quietly opt out of strictness.
//
// Consumers:
//   ADAQP_THREADS    src/runtime/thread_pool.cpp   env::int_in_range
//   ADAQP_ASYNC      src/pipeline/config.cpp       env::flag01
//   ADAQP_ISA        src/simd/dispatch.cpp         env::text
//   ADAQP_TRACE      src/core/trainer.cpp          env::text
//   ADAQP_RACECHECK  src/analysis/race_checker.cpp env::flag01
//   ADAQP_RACECHECK_REPORT  src/analysis/          env::text
//   ADAQP_ALLOC_TRACK  src/memory/alloc_track.cpp  env::flag01
//   ADAQP_METRICS    src/obs/metrics.cpp           env::text
//   ADAQP_PROFILE    src/obs/profile.cpp           env::flag01
//   ADAQP_TRANSPORT  src/transport/transport.cpp   env::text
//   ADAQP_TP_RANK / _NPROCS / _BASE_PORT / _TIMEOUT_MS / _MAX_CHUNK
//                    src/transport/tcp.cpp         env::int_in_range
//   ADAQP_FAULT      src/transport/transport.cpp   env::flag01
//   ADAQP_FAULT_SEED / _DELAY_US / _REORDER / _SPLIT / _DROP_PERMILLE /
//   _TIMEOUT_MS      src/transport/fault.cpp       env::int_in_range
#pragma once

#include <optional>
#include <string>

namespace adaqp::env {

/// Raw lookup. Returns nullptr when unset. This wrapper (its implementation
/// in env.cpp) is the only place in the library that calls std::getenv;
/// everything else goes through the typed helpers below.
const char* raw(const char* name);

/// The variable's value as a string; nullopt when unset or empty. No
/// validation — for free-form values (file paths, ISA names validated by
/// their consumer).
std::optional<std::string> text(const char* name);

/// Strict boolean knob: unset/empty -> `def`; "0" -> false; "1" -> true;
/// anything else throws std::runtime_error naming the variable.
bool flag01(const char* name, bool def);

/// Strict integer knob: unset/empty -> nullopt. The whole value must parse
/// as a base-10 integer (no trailing text), else std::runtime_error naming
/// the variable and the accepted range. Parsed values are clamped to
/// [lo, hi].
std::optional<long> int_in_range(const char* name, long lo, long hi);

}  // namespace adaqp::env
