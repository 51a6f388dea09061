// Microbenchmarks of the quantization substrate (google-benchmark): the
// CUDA-kernel analogues of paper §3.2 — quantize, de-quantize, bit packing
// and the message codec — swept over every SIMD ISA the host supports
// (scalar reference vs the src/simd/ vector kernels, selected per benchmark
// with an IsaGuard exactly as ADAQP_ISA would). Supports the claim that
// q/dq overhead is small relative to the communication it saves (§5.4) and
// tracks the vector kernels' speedup target: >= 2x encode+decode throughput
// on AVX2-capable hardware at b in {2,4,8} vs ADAQP_ISA=scalar.
// BM_WireChecksum rows report the per-byte cost of the two checksums every
// exchanged byte pays: the frame CRC-32 (twice per wire byte) and the
// delivery digest (LoopbackTransport::recv is the digest and nothing else).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "quant/message_codec.h"
#include "quant/quantize.h"
#include "simd/isa.h"
#include "tensor/matrix.h"
#include "transport/frame.h"
#include "transport/loopback.h"

namespace {

using namespace adaqp;
using simd::Isa;
using simd::IsaGuard;

std::vector<float> make_values(std::size_t n) {
  Rng rng(7);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

void BM_Quantize(benchmark::State& state, Isa isa, int bits, std::size_t n) {
  IsaGuard guard(isa);
  const auto values = make_values(n);
  Rng rng(11);
  for (auto _ : state) {
    auto qv = quantize(values, bits, rng);
    benchmark::DoNotOptimize(qv.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          values.size() * sizeof(float));
}

void BM_Dequantize(benchmark::State& state, Isa isa, int bits,
                   std::size_t n) {
  IsaGuard guard(isa);
  const auto values = make_values(n);
  Rng rng(12);
  const auto qv = quantize(values, bits, rng);
  std::vector<float> out(values.size());
  for (auto _ : state) {
    dequantize(qv, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          values.size() * sizeof(float));
}

void BM_PackBits(benchmark::State& state, Isa isa, int bits) {
  IsaGuard guard(isa);
  Rng rng(13);
  std::vector<std::uint32_t> values(4096);
  for (auto& v : values)
    v = static_cast<std::uint32_t>(rng.uniform_int(1u << bits));
  for (auto _ : state) {
    auto packed = pack_bits(values, bits);
    benchmark::DoNotOptimize(packed.data());
  }
}

void BM_CodecEncode(benchmark::State& state, Isa isa, int bits) {
  IsaGuard guard(isa);
  const std::size_t rows = 256, dim = 64;
  Rng rng(14);
  Matrix src(rows, dim);
  src.fill_uniform(rng, -1.0f, 1.0f);
  std::vector<NodeId> idx(rows);
  for (NodeId i = 0; i < rows; ++i) idx[i] = i;
  const std::vector<int> widths(rows, bits);
  for (auto _ : state) {
    auto block = encode_rows(src, idx, widths, rng);
    benchmark::DoNotOptimize(block.bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * dim * sizeof(float));
}

void BM_CodecRoundTrip(benchmark::State& state, Isa isa, int bits) {
  IsaGuard guard(isa);
  const std::size_t rows = 256, dim = 64;
  Rng rng(15);
  Matrix src(rows, dim), dst(rows, dim);
  src.fill_uniform(rng, -1.0f, 1.0f);
  std::vector<NodeId> idx(rows);
  for (NodeId i = 0; i < rows; ++i) idx[i] = i;
  const std::vector<int> widths(rows, bits);
  for (auto _ : state) {
    auto block = encode_rows(src, idx, widths, rng);
    decode_rows(block, dst, idx);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * dim * sizeof(float) * 2);
}

std::vector<std::uint8_t> make_bytes(std::size_t n) {
  Rng rng(16);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  return v;
}

void BM_WireChecksumCrc32(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(transport::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_WireChecksumLoopbackDeliver(benchmark::State& state) {
  const auto bytes = make_bytes(static_cast<std::size_t>(state.range(0)));
  transport::LoopbackTransport lo;
  const transport::FrameTag tag{1, 1, 0, 0, 1};
  for (auto _ : state)
    benchmark::DoNotOptimize(lo.recv(tag, bytes).data());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

}  // namespace

// Registered (not macro-declared) so every case can sweep the host's
// supported ISA list discovered at runtime. Benchmark names carry the ISA
// so `--benchmark_filter=avx2` or `=scalar` isolates one variant.
int main(int argc, char** argv) {
  for (Isa isa : adaqp::simd::supported_isas()) {
    const std::string tag = adaqp::simd::isa_name(isa);
    for (int bits : {2, 4, 8}) {
      const std::string b = "/b" + std::to_string(bits);
      for (std::size_t n : {64ul, 1024ul})
        benchmark::RegisterBenchmark(
            ("BM_Quantize/" + tag + b + "/n" + std::to_string(n)).c_str(),
            BM_Quantize, isa, bits, n);
      benchmark::RegisterBenchmark(
          ("BM_Dequantize/" + tag + b + "/n1024").c_str(), BM_Dequantize,
          isa, bits, 1024ul);
      benchmark::RegisterBenchmark(("BM_PackBits/" + tag + b).c_str(),
                                   BM_PackBits, isa, bits);
      benchmark::RegisterBenchmark(("BM_CodecEncode/" + tag + b).c_str(),
                                   BM_CodecEncode, isa, bits);
      benchmark::RegisterBenchmark(("BM_CodecRoundTrip/" + tag + b).c_str(),
                                   BM_CodecRoundTrip, isa, bits);
    }
    // 32-bit passthrough: ISA-independent memcpy, one registration each.
    benchmark::RegisterBenchmark(("BM_CodecEncode/" + tag + "/b32").c_str(),
                                 BM_CodecEncode, isa, 32);
  }
  // Checksums are ISA-independent: one registration each.
  for (auto* b :
       {benchmark::RegisterBenchmark("BM_WireChecksum/Crc32",
                                     BM_WireChecksumCrc32),
        benchmark::RegisterBenchmark("BM_WireChecksum/LoopbackDeliver",
                                     BM_WireChecksumLoopbackDeliver)})
    b->Arg(4096)->Arg(65536)->Arg(262144);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
