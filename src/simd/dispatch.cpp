// ISA resolution and the kernel registry (see isa.h / kernels.h).
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/env.h"
#include "simd/isa.h"
#include "simd/kernels.h"

namespace adaqp::simd {

namespace {

/// -1 = no override, else static_cast<int>(Isa).
std::atomic<int> g_override{-1};

/// Cached table for the currently active ISA. Cleared (nullptr) by
/// set/clear_isa_override so the next kernels() call re-resolves.
std::atomic<const KernelTable*> g_active_table{nullptr};

/// The scalar, AVX2 and AVX-512 tables set every entry, so the table of any
/// supported ISA dispatches as is.
const KernelTable* raw_table(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return scalar_kernels();
    case Isa::kAvx2: return avx2_kernels();
    case Isa::kAvx512: return avx512_kernels();
  }
  return nullptr;
}

[[noreturn]] void throw_unsupported(Isa isa) {
  std::ostringstream msg;
  msg << "ADAQP_ISA: \"" << isa_name(isa)
      << "\" is not supported by this CPU (detected best: "
      << isa_name(detected_isa()) << ")";
  throw std::runtime_error(msg.str());
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "unknown";
}

Isa parse_isa(std::string_view value) {
  if (value == "scalar") return Isa::kScalar;
  if (value == "avx2") return Isa::kAvx2;
  if (value == "avx512") return Isa::kAvx512;
  if (value == "native") return detected_isa();
  std::ostringstream msg;
  msg << "ADAQP_ISA must be one of scalar|avx2|avx512|native; "
         "got \""
      << std::string(value) << "\"";
  throw std::runtime_error(msg.str());
}

Isa detected_isa() {
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2})
    if (isa_supported(isa)) return isa;
  return Isa::kScalar;
}

bool isa_supported(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // Both vector tables run the PCLMULQDQ CRC-32 body (kernels.h).
  switch (isa) {
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("pclmul");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("pclmul");
    default: return false;
  }
#else
  return false;
#endif
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (isa_supported(isa)) out.push_back(isa);
  return out;
}

Isa active_isa() {
  const int ov = g_override.load(std::memory_order_acquire);
  if (ov >= 0) return static_cast<Isa>(ov);
  const auto value = env::text("ADAQP_ISA");
  if (!value) return detected_isa();
  const Isa isa = parse_isa(*value);
  if (!isa_supported(isa)) throw_unsupported(isa);
  return isa;
}

void set_isa_override(Isa isa) {
  if (!isa_supported(isa)) throw_unsupported(isa);
  g_override.store(static_cast<int>(isa), std::memory_order_release);
  g_active_table.store(nullptr, std::memory_order_release);
}

void clear_isa_override() {
  g_override.store(-1, std::memory_order_release);
  g_active_table.store(nullptr, std::memory_order_release);
}

IsaGuard::IsaGuard(Isa isa) {
  const int ov = g_override.load(std::memory_order_acquire);
  had_override_ = ov >= 0;
  prev_ = had_override_ ? static_cast<Isa>(ov) : Isa::kScalar;
  set_isa_override(isa);
}

IsaGuard::~IsaGuard() {
  if (had_override_) set_isa_override(prev_);
  else clear_isa_override();
}

const KernelTable& kernels() {
  const KernelTable* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = raw_table(active_isa());
    g_active_table.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace adaqp::simd
