// Microbenchmarks of the aggregation / element-wise kernel-matrix entries
// (google-benchmark): scale_row (aggregation self-term), gather_axpy (the
// neighbor gather behind aggregate_forward and its adjoint),
// ef_fold (the backward owner-accumulate folds each decoded boundary
// gradient row with it) and ef_residual (x - deq(q(x)), the kernel for
// encode-time error capture). Swept over every SIMD ISA the host supports,
// selected per benchmark with an IsaGuard exactly as ADAQP_ISA would. Tracks
// the kernel-matrix speedup target: >= 2x scalar throughput on AVX2-capable
// hardware.
//
// BM_Gemm/<variant>/<isa>/<rows>x<in>x<out> times the dense transforms of
// one GNN layer over `rows` nodes, reported in FLOP/s (2·rows·in·out per
// call): nn = forward X·W, nt = input gradient dY·Wᵀ, tn = weight gradient
// Xᵀ·dY; rows, nt_rows and tn_rows are the same three products over the
// full owned-row span, the row-list forms training runs. The
// GEMMs run on the runtime pool, so rates are per wall second at
// ADAQP_THREADS threads; ADAQP_THREADS=1 gives per-core figures.
//
// BM_LayerNorm/{fwd,bwd}/<rows>x<dim>/t<N> and
// BM_EpilogueAdjoint/<rows>x<dim>/t<N> time a hidden layer's per-row glue
// over every row on an N-thread pool: the LayerNorm forward, its adjoint
// (with the span-order dγ/dβ pass) and the ReLU x dropout adjoint.
// BM_DropoutMask/<rows>x<dim>/t<N> draws one p = 0.5 dropout mask (bands
// start at jump-ahead states), and BM_SoftmaxCE/<rows>x<classes>/t<N> runs
// the banded softmax cross-entropy over every row. That code is compiled
// for the base ISA, so these carry no ISA sweep.
//
// BM_Aggregate/{fwd,bwd}/<rows>x64/t<N> runs the plan-based aggregation of
// GCN over the whole products_sim x3 graph on one device (the
// single-device workload's plan) at width 64: the forward gather, and the
// adjoint, gathered over the plan's transposed owned-row entries.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "dist/dist_graph.h"
#include "gnn/aggregate.h"
#include "gnn/layers.h"
#include "gnn/loss.h"
#include "runtime/thread_pool.h"
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

enum class GemmVariant { kNn, kNt, kTn, kRows, kNtRows, kTnRows };

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
  Matrix c;  // gemm_rows and gemm_nt_rows write into a pre-sized C
  if (variant == GemmVariant::kRows) c = Matrix(rows, out);
  if (variant == GemmVariant::kNtRows) c = Matrix(rows, in);
  Matrix scratch;
  for (auto _ : state) {
    switch (variant) {
      case GemmVariant::kNn: gemm(x, w, c); break;
      case GemmVariant::kNt: gemm_nt(dy, w, c, scratch); break;
      case GemmVariant::kTn: gemm_tn(x, dy, c); break;
      case GemmVariant::kRows: gemm_rows(x, w, c, all_rows); break;
      case GemmVariant::kNtRows:
        gemm_nt_rows(dy, w, c, all_rows, scratch);
        break;
      case GemmVariant::kTnRows: gemm_tn_rows(x, dy, c, all_rows); break;
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(rows * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// Global pool size for one benchmark; restores the previous size.
class PoolThreads {
 public:
  explicit PoolThreads(int n) : prev_(num_threads()) { set_num_threads(n); }
  ~PoolThreads() { set_num_threads(prev_); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;

 private:
  int prev_;
};

std::vector<NodeId> iota_rows(std::size_t rows) {
  std::vector<NodeId> out(rows);
  for (std::size_t i = 0; i < rows; ++i) out[i] = static_cast<NodeId>(i);
  return out;
}

void BM_LayerNorm(benchmark::State& state, bool backward, std::size_t rows,
                  std::size_t dim, int threads) {
  PoolThreads pool(threads);
  LayerNorm ln(dim);
  const Matrix in = make_matrix(rows, dim, 41);
  const Matrix dy = make_matrix(rows, dim, 42);
  const std::vector<NodeId> all = iota_rows(rows);
  Matrix out(rows, dim), grad_in(rows, dim), dgamma(1, dim), dbeta(1, dim);
  LayerNorm::Cache cache;
  cache.normalized = Matrix(rows, dim);
  cache.rstd.assign(rows, 0.0f);
  ln.forward_rows(in, out, cache, all);
  for (auto _ : state) {
    if (backward) {
      ln.backward_rows(dy, cache, grad_in, dgamma, dbeta, all);
      benchmark::DoNotOptimize(grad_in.data());
    } else {
      ln.forward_rows(in, out, cache, all);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows);
}

void BM_EpilogueAdjoint(benchmark::State& state, std::size_t rows,
                        std::size_t dim, int threads) {
  PoolThreads pool(threads);
  const Matrix dy = make_matrix(rows, dim, 43);
  const Matrix pre = make_matrix(rows, dim, 44);  // about half positive
  Rng rng(45);
  Matrix mask;
  dropout_mask(rows, dim, 0.5f, rng, mask);
  const std::vector<NodeId> all = iota_rows(rows);
  Matrix dst(rows, dim);
  for (auto _ : state) {
    epilogue_adjoint_rows(dy, mask, pre, dst, all);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows);
}

void BM_DropoutMask(benchmark::State& state, std::size_t rows,
                    std::size_t dim, int threads) {
  PoolThreads pool(threads);
  Rng rng(46);
  Matrix mask;
  dropout_mask(rows, dim, 0.5f, rng, mask);
  for (auto _ : state) {
    dropout_mask(rows, dim, 0.5f, rng, mask);
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * dim);
}

void BM_SoftmaxCE(benchmark::State& state, std::size_t rows,
                  std::size_t classes, int threads) {
  PoolThreads pool(threads);
  const Matrix logits = make_matrix(rows, classes, 47);
  Rng rng(48);
  std::vector<std::int32_t> labels(rows);
  for (auto& label : labels)
    label = static_cast<std::int32_t>(rng.uniform_int(classes));
  const std::vector<NodeId> all = iota_rows(rows);
  Matrix grad(rows, classes);
  std::vector<double> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_cross_entropy(
        logits, all, labels, static_cast<double>(rows), grad, scratch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows);
}

/// One device holding all of products_sim x3 (graph seed 1).
const DeviceGraph& products_device() {
  static const DistGraph dist = [] {
    DatasetSpec spec = dataset_spec("products_sim");
    spec.num_nodes *= 3;
    Rng rng(1);
    const Dataset ds = make_dataset(spec, rng);
    PartitionResult part;
    part.part_of.assign(ds.num_nodes(), 0);
    part.num_parts = 1;
    return build_dist_graph(ds.graph, part);
  }();
  return dist.devices[0];
}

void BM_Aggregate(benchmark::State& state, bool backward, std::size_t dim,
                  int threads) {
  PoolThreads pool(threads);
  const DeviceGraph& dev = products_device();
  const AggregatePlan plan =
      build_aggregate_plan(dev, Aggregator::kGcn, {dev.owned_span()});
  const Matrix x = make_matrix(dev.num_local(), dim, 49);
  const Matrix dy = make_matrix(dev.num_owned, dim, 50);
  Matrix out(backward ? dev.num_local() : dev.num_owned, dim);
  for (auto _ : state) {
    if (backward)
      aggregate_backward(dev, plan, dy, dev.owned_span(), out);
    else
      aggregate_forward(dev, plan, x, dev.owned_span(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (dev.total_edges() + dev.num_owned));
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
        {"rows", GemmVariant::kRows},
        {"nt_rows", GemmVariant::kNtRows},
        {"tn_rows", GemmVariant::kTnRows}};
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
  for (int threads : {1, 4}) {
    const std::string shape = "/12000x64/t" + std::to_string(threads);
    for (const auto& [name, backward] :
         {std::pair{"fwd", false}, std::pair{"bwd", true}})
      benchmark::RegisterBenchmark(
          ("BM_LayerNorm/" + std::string(name) + shape).c_str(), BM_LayerNorm,
          backward, 12000, 64, threads)
          ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_EpilogueAdjoint" + shape).c_str(),
                                 BM_EpilogueAdjoint, 12000, 64, threads)
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_DropoutMask" + shape).c_str(),
                                 BM_DropoutMask, 12000, 64, threads)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_SoftmaxCE/7200x10/t" + std::to_string(threads)).c_str(),
        BM_SoftmaxCE, 7200, 10, threads)
        ->UseRealTime();
  }
  const std::string agg_rows =
      "/" + std::to_string(products_device().num_owned) + "x64/t";
  for (int threads : {1, 4})
    for (const auto& [name, backward] :
         {std::pair{"fwd", false}, std::pair{"bwd", true}})
      benchmark::RegisterBenchmark(
          ("BM_Aggregate/" + std::string(name) + agg_rows +
           std::to_string(threads))
              .c_str(),
          BM_Aggregate, backward, 64, threads)
          ->UseRealTime();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
