// Microbenchmarks of the aggregation / error-feedback kernel-matrix entries
// (google-benchmark): scale_row (aggregation self-term), gather_axpy (the
// CSR-band neighbor gather behind aggregate_forward and its adjoint), and
// the ef_fold / ef_residual pair the error-feedback state machine runs per
// boundary message. Swept over every SIMD ISA the host supports, selected
// per benchmark with an IsaGuard exactly as ADAQP_ISA would. Tracks the
// kernel-matrix speedup target: >= 2x scalar throughput on AVX2-capable
// hardware (recorded into BENCH_runtime.json by scripts/bench.sh).
//
// BM_Gemm/<variant>/<isa>/<rows>x<in>x<out> times the dense transforms of
// one GNN layer over `rows` nodes, reported in FLOP/s (2·rows·in·out per
// call): nn = forward X·W, nt = input gradient dY·Wᵀ, tn = weight gradient
// Xᵀ·dY, nt_rows = the input gradient over the full owned-row span. The
// GEMMs run on the runtime pool, so rates are per wall second at
// ADAQP_THREADS threads; ADAQP_THREADS=1 gives per-core figures.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "tensor/matrix.h"

namespace {

using namespace adaqp;
using simd::Isa;
using simd::IsaGuard;

std::vector<float> make_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

void BM_ScaleRow(benchmark::State& state, Isa isa, std::size_t n) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().scale_row;
  const auto src = make_values(n, 21);
  std::vector<float> dst(n);
  for (auto _ : state) {
    kernel(0.731f, src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float));
}

void BM_EfFold(benchmark::State& state, Isa isa, std::size_t n) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().ef_fold;
  const auto a = make_values(n, 22);
  const auto b = make_values(n, 23);
  std::vector<float> dst(n);
  for (auto _ : state) {
    kernel(a.data(), b.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float));
}

void BM_EfResidual(benchmark::State& state, Isa isa, std::size_t n) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().ef_residual;
  const auto a = make_values(n, 24);
  const auto b = make_values(n, 25);
  std::vector<float> dst(n);
  for (auto _ : state) {
    kernel(a.data(), b.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(float));
}

void BM_GatherAxpy(benchmark::State& state, Isa isa, std::size_t degree,
                   std::size_t dim) {
  IsaGuard guard(isa);
  const auto kernel = simd::kernels().gather_axpy;
  // A realistic aggregation band: `degree` neighbor rows gathered from a
  // feature pool into one output row of `dim` channels.
  const std::size_t pool = 512;
  const auto base = make_values(pool * dim, 26);
  Rng rng(27);
  std::vector<std::uint32_t> idx(degree);
  std::vector<float> coeffs(degree);
  for (std::size_t k = 0; k < degree; ++k) {
    idx[k] = static_cast<std::uint32_t>(rng.uniform_int(pool));
    coeffs[k] = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  std::vector<float> dst(dim, 0.0f);
  for (auto _ : state) {
    kernel(base.data(), dim, idx.data(), coeffs.data(), degree, dst.data(),
           dim);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          degree * dim * sizeof(float));
}

enum class GemmVariant { kNn, kNt, kTn, kNtRows };

Matrix make_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1.0f, 1.0f);
  return m;
}

void BM_Gemm(benchmark::State& state, Isa isa, GemmVariant variant,
             std::size_t rows, std::size_t in, std::size_t out) {
  IsaGuard guard(isa);
  const Matrix x = make_matrix(rows, in, 31);    // layer input
  const Matrix w = make_matrix(in, out, 32);     // weight
  const Matrix dy = make_matrix(rows, out, 33);  // output gradient
  std::vector<std::uint32_t> all_rows(rows);
  for (std::size_t i = 0; i < rows; ++i)
    all_rows[i] = static_cast<std::uint32_t>(i);
  Matrix c(variant == GemmVariant::kNtRows ? rows : 0,
           variant == GemmVariant::kNtRows ? in : 0);
  Matrix scratch;
  for (auto _ : state) {
    switch (variant) {
      case GemmVariant::kNn: gemm(x, w, c); break;
      case GemmVariant::kNt: gemm_nt(dy, w, c, scratch); break;
      case GemmVariant::kTn: gemm_tn(x, dy, c); break;
      case GemmVariant::kNtRows:
        gemm_nt_rows(dy, w, c, all_rows, scratch);
        break;
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(rows * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

}  // namespace

// Registered (not macro-declared) so every case can sweep the host's
// supported ISA list discovered at runtime. Benchmark names carry the ISA
// so `--benchmark_filter=avx2` or `=scalar` isolates one variant.
int main(int argc, char** argv) {
  for (Isa isa : adaqp::simd::supported_isas()) {
    const std::string tag = adaqp::simd::isa_name(isa);
    for (std::size_t n : {64ul, 1024ul, 16384ul}) {
      const std::string sz = "/n" + std::to_string(n);
      benchmark::RegisterBenchmark(("BM_ScaleRow/" + tag + sz).c_str(),
                                   BM_ScaleRow, isa, n);
      benchmark::RegisterBenchmark(("BM_EfFold/" + tag + sz).c_str(),
                                   BM_EfFold, isa, n);
      benchmark::RegisterBenchmark(("BM_EfResidual/" + tag + sz).c_str(),
                                   BM_EfResidual, isa, n);
    }
    for (std::size_t degree : {8ul, 32ul})
      for (std::size_t dim : {64ul, 256ul})
        benchmark::RegisterBenchmark(
            ("BM_GatherAxpy/" + tag + "/deg" + std::to_string(degree) +
             "/dim" + std::to_string(dim))
                .c_str(),
            BM_GatherAxpy, isa, degree, dim);
    const std::pair<const char*, GemmVariant> variants[] = {
        {"nn", GemmVariant::kNn},
        {"nt", GemmVariant::kNt},
        {"tn", GemmVariant::kTn},
        {"nt_rows", GemmVariant::kNtRows}};
    const struct { std::size_t rows, in, out; } shapes[] = {{3000, 64, 64},
                                                            {12000, 32, 64}};
    for (const auto& [name, variant] : variants)
      for (const auto& sh : shapes)
        benchmark::RegisterBenchmark(
            ("BM_Gemm/" + std::string(name) + "/" + tag + "/" +
             std::to_string(sh.rows) + "x" + std::to_string(sh.in) + "x" +
             std::to_string(sh.out))
                .c_str(),
            BM_Gemm, isa, variant, sh.rows, sh.in, sh.out)
            ->UseRealTime();  // pool threads do the work: rate by wall time
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
