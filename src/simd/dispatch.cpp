// ISA resolution and the kernel registry (see isa.h / kernels.h).
#include <atomic>
#include <mutex>
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

/// Cached merged table for the currently active ISA. Cleared (nullptr) by
/// set/clear_isa_override so the next kernels() call re-resolves.
std::atomic<const KernelTable*> g_active_table{nullptr};
std::mutex g_resolve_mutex;

/// Merged tables (ISA entries backfilled with scalar), built on demand;
/// one slot per Isa enumerator.
constexpr std::size_t kNumIsas = static_cast<std::size_t>(Isa::kNeon) + 1;
KernelTable g_merged[kNumIsas];

const KernelTable* raw_table(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return scalar_kernels();
    case Isa::kAvx2: return avx2_kernels();
    case Isa::kAvx512: return avx512_kernels();
    case Isa::kNeon: return neon_kernels();
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

/// Build the dispatch table for `isa`: every null entry falls back to the
/// scalar reference, so a stub ISA (NEON today) still runs correctly.
const KernelTable* merged_table(Isa isa) {
  // The bound check is redundant (one slot per enumerator) but keeps GCC's
  // array-bounds analysis quiet about the enum-indexed subscript.
  const auto idx = static_cast<std::size_t>(isa);
  KernelTable& merged = g_merged[idx < kNumIsas ? idx : 0];
  const KernelTable* scalar = scalar_kernels();
  const KernelTable* native = raw_table(isa);
  merged = *scalar;
  if (native != nullptr) {
    if (native->row_minmax) merged.row_minmax = native->row_minmax;
    if (native->quantize_pack) merged.quantize_pack = native->quantize_pack;
    if (native->unpack_dequant) merged.unpack_dequant = native->unpack_dequant;
    if (native->pack_bits) merged.pack_bits = native->pack_bits;
    if (native->unpack_bits) merged.unpack_bits = native->unpack_bits;
    if (native->axpy) merged.axpy = native->axpy;
    if (native->scale_row) merged.scale_row = native->scale_row;
    if (native->ef_fold) merged.ef_fold = native->ef_fold;
    if (native->ef_residual) merged.ef_residual = native->ef_residual;
    if (native->gather_axpy) merged.gather_axpy = native->gather_axpy;
  }
  return &merged;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

Isa parse_isa(std::string_view value) {
  if (value == "scalar") return Isa::kScalar;
  if (value == "avx2") return Isa::kAvx2;
  if (value == "avx512") return Isa::kAvx512;
  if (value == "neon") return Isa::kNeon;
  if (value == "native") return detected_isa();
  std::ostringstream msg;
  msg << "ADAQP_ISA must be one of scalar|avx2|avx512|neon|native; "
         "got \""
      << std::string(value) << "\"";
  throw std::runtime_error(msg.str());
}

Isa detected_isa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw"))
    return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  return Isa::kScalar;
#elif defined(__aarch64__)
  return Isa::kNeon;  // NEON is baseline on aarch64
#else
  return Isa::kScalar;
#endif
}

bool isa_supported(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kAvx2: return __builtin_cpu_supports("avx2");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw");
    default: return false;
  }
#elif defined(__aarch64__)
  return isa == Isa::kNeon;
#else
  return false;
#endif
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon})
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
  if (table != nullptr) return *table;
  std::lock_guard<std::mutex> lock(g_resolve_mutex);
  table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = merged_table(active_isa());
    g_active_table.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace adaqp::simd
