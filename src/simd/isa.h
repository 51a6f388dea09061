// Runtime ISA selection for the vector kernel library (src/simd/).
//
// The library ships one reference (scalar) implementation of every kernel
// plus AVX2 / AVX-512 variants on x86-64, each compiled in its own
// translation unit with the matching -m flags. Other architectures run the
// scalar reference, which by the contract below gives the same bits. Which
// variant runs is decided once at runtime:
//
//   1. an in-process override installed via set_isa_override() (tests,
//      benches and in-process sweeps), else
//   2. the ADAQP_ISA environment variable, else
//   3. cpuid detection of the best ISA the host supports.
//
// ADAQP_ISA parsing is strict, alongside ADAQP_ASYNC and ADAQP_THREADS:
// accepted values are "scalar", "avx2", "avx512" and "native" (= detected
// best); anything else throws std::runtime_error, as does requesting an ISA
// the host cannot execute. Every kernel variant is
// wire-compatible by contract: codec streams are byte-identical and compute
// kernels bit-identical across ISAs, so switching ISAs never changes
// results, only throughput (tests/test_simd.cpp enforces this).
#pragma once

#include <string_view>
#include <vector>

namespace adaqp::simd {

/// Kernel instruction-set variants, ordered weakest to strongest. kScalar
/// is the portable reference and always available.
enum class Isa {
  kScalar = 0,
  kAvx2,
  kAvx512,
};

/// Lower-case canonical name ("scalar", "avx2", ...), as accepted by
/// ADAQP_ISA.
const char* isa_name(Isa isa);

/// Strict parse of an ADAQP_ISA value. Throws std::runtime_error on
/// anything but the canonical names or "native" (which resolves to
/// detected_isa()).
Isa parse_isa(std::string_view value);

/// Best ISA the host CPU can execute, via cpuid (kScalar off x86).
Isa detected_isa();

/// True when the host can execute `isa`'s instructions.
bool isa_supported(Isa isa);

/// Every host-supported ISA, weakest first (always starts with kScalar).
/// Benches and tests sweep this list.
std::vector<Isa> supported_isas();

/// ISA the kernel registry dispatches to: override > ADAQP_ISA > detected.
/// Throws std::runtime_error on a malformed ADAQP_ISA value or on a request
/// for an unsupported ISA.
Isa active_isa();

/// Force the dispatched ISA for the current process (pass kScalar..kAvx512),
/// or clear the override with clear_isa_override(). Throws if `isa` is not
/// supported by the host. Takes effect on the next kernels() call; must not
/// race with in-flight kernel work.
void set_isa_override(Isa isa);
void clear_isa_override();

/// Scoped ISA override; restores the previous override state on
/// destruction. The sweep primitive used by tests and bench_quant_kernels.
class IsaGuard {
 public:
  explicit IsaGuard(Isa isa);
  ~IsaGuard();
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  bool had_override_;
  Isa prev_;
};

}  // namespace adaqp::simd
