// The src/simd/ contract: ADAQP_ISA is a pure performance knob.
//  - Dispatch: strict ADAQP_ISA parsing (reject garbage, reject ISAs the
//    host can't run), override/guard mechanics, scalar always available.
//  - Codec byte-identity: encoded wire streams are byte-identical across
//    every host-supported ISA for ragged dims and all bit-width mixes, and
//    decode produces bit-identical floats.
//  - Round-trip property tests at every dispatched ISA; corrupt/truncated
//    streams still throw under the vector unpack path.
//  - GEMM kernels bit-identical across ISAs on ragged shapes, and gemm_nt
//    bit-identical to a scalar k-reduction (signed zeros and subnormals
//    included) at every ISA and thread count.
//  - Full training runs (all five methods) bit-identical across ISAs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "data/datasets.h"
#include "dist/dist_graph.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "quant/message_codec.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "tensor/matrix.h"

namespace adaqp {
namespace {

using simd::Isa;
using simd::IsaGuard;

std::vector<Isa> vector_isas() {
  std::vector<Isa> out;
  for (Isa isa : simd::supported_isas())
    if (isa != Isa::kScalar) out.push_back(isa);
  return out;
}

// ---- Dispatch & strict parsing --------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
  const auto all = simd::supported_isas();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Isa::kScalar);
  EXPECT_TRUE(simd::isa_supported(simd::detected_isa()));
}

TEST(SimdDispatch, ParseAcceptsCanonicalNamesOnly) {
  EXPECT_EQ(simd::parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(simd::parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(simd::parse_isa("avx512"), Isa::kAvx512);
  EXPECT_EQ(simd::parse_isa("neon"), Isa::kNeon);
  EXPECT_EQ(simd::parse_isa("native"), simd::detected_isa());
  for (const char* bad :
       {"", "AVX2", "avx-512", "sse42", "sse4.2", "best", "1", "0"})
    EXPECT_THROW(simd::parse_isa(bad), std::runtime_error) << bad;
}

TEST(SimdDispatch, MalformedEnvValueRejected) {
  // active_isa() consults ADAQP_ISA only when no override is installed.
  ASSERT_EQ(setenv("ADAQP_ISA", "turbo9000", 1), 0);
  EXPECT_THROW(simd::active_isa(), std::runtime_error);
  ASSERT_EQ(setenv("ADAQP_ISA", "scalar", 1), 0);
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  ASSERT_EQ(unsetenv("ADAQP_ISA"), 0);
  EXPECT_EQ(simd::active_isa(), simd::detected_isa());
}

TEST(SimdDispatch, UnsupportedIsaRequestRejected) {
#if defined(__x86_64__) || defined(__i386__)
  const Isa foreign = Isa::kNeon;  // never executable on x86
#else
  const Isa foreign = Isa::kAvx2;
#endif
  ASSERT_FALSE(simd::isa_supported(foreign));
  EXPECT_THROW(simd::set_isa_override(foreign), std::runtime_error);
  ASSERT_EQ(setenv("ADAQP_ISA", isa_name(foreign), 1), 0);
  EXPECT_THROW(simd::active_isa(), std::runtime_error);
  ASSERT_EQ(unsetenv("ADAQP_ISA"), 0);
}

TEST(SimdDispatch, GuardInstallsAndRestores) {
  const Isa before = simd::active_isa();
  {
    IsaGuard guard(Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
    {
      IsaGuard inner(simd::detected_isa());
      EXPECT_EQ(simd::active_isa(), simd::detected_isa());
    }
    EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

// ---- Bit packing across ISAs ----------------------------------------------

TEST(SimdPack, PackUnpackMatchesScalarAtEverySizeAndWidth) {
  Rng rng(41);
  for (int bits : {2, 4, 8}) {
    for (std::size_t n : {0ul, 1ul, 3ul, 7ul, 15ul, 16ul, 17ul, 31ul, 33ul,
                          64ul, 100ul, 257ul}) {
      std::vector<std::uint32_t> values(n);
      for (auto& v : values)
        v = static_cast<std::uint32_t>(rng.uniform_int(1u << bits));
      std::vector<std::uint8_t> ref;
      std::vector<std::uint32_t> ref_unpacked;
      {
        IsaGuard guard(Isa::kScalar);
        ref = pack_bits(values, bits);
        ref_unpacked = unpack_bits(ref, bits, n);
      }
      ASSERT_EQ(ref_unpacked, values) << "scalar round trip b=" << bits;
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        EXPECT_EQ(pack_bits(values, bits), ref)
            << isa_name(isa) << " pack b=" << bits << " n=" << n;
        EXPECT_EQ(unpack_bits(ref, bits, n), values)
            << isa_name(isa) << " unpack b=" << bits << " n=" << n;
      }
    }
  }
}

TEST(SimdPack, OutOfRangeValueStillThrowsOnVectorPath) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const std::vector<std::uint32_t> bad = {1, 2, 4};  // 4 overflows 2 bits
    EXPECT_THROW(pack_bits(bad, 2), std::runtime_error) << isa_name(isa);
  }
}

// ---- Quantize / dequantize across ISAs ------------------------------------

TEST(SimdQuantize, PayloadAndMetadataByteIdenticalAcrossIsas) {
  for (int bits : {2, 4, 8}) {
    for (std::size_t n : {1ul, 5ul, 16ul, 23ul, 64ul, 129ul, 1000ul}) {
      Rng data_rng(7 * n + static_cast<std::size_t>(bits));
      std::vector<float> values(n);
      for (auto& v : values)
        v = static_cast<float>(data_rng.uniform(-3.0, 3.0));
      QuantizedVector ref;
      {
        IsaGuard guard(Isa::kScalar);
        Rng rng(1234);
        ref = quantize(values, bits, rng);
      }
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        Rng rng(1234);  // same stream: draws are ISA-independent
        const QuantizedVector qv = quantize(values, bits, rng);
        // Bit-level equality, including the metadata that goes on the wire.
        EXPECT_EQ(qv.payload, ref.payload)
            << isa_name(isa) << " b=" << bits << " n=" << n;
        EXPECT_EQ(qv.zero_point, ref.zero_point) << isa_name(isa);
        EXPECT_EQ(qv.scale, ref.scale) << isa_name(isa);
      }
    }
  }
}

TEST(SimdQuantize, DequantizeBitIdenticalAcrossIsas) {
  Rng data_rng(99);
  std::vector<float> values(517);
  for (auto& v : values) v = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  for (int bits : {2, 4, 8}) {
    Rng rng(55);
    const QuantizedVector qv = quantize(values, bits, rng);
    std::vector<float> ref(values.size());
    {
      IsaGuard guard(Isa::kScalar);
      dequantize(qv, ref);
    }
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      std::vector<float> out(values.size());
      dequantize(qv, out);
      EXPECT_EQ(out, ref) << isa_name(isa) << " b=" << bits;
    }
  }
}

TEST(SimdQuantize, RoundTripPropertyAtEveryIsa) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    Rng rng(17);
    for (int bits : {2, 4, 8}) {
      std::vector<float> values(201);
      for (auto& v : values) v = static_cast<float>(rng.uniform(-2.0, 2.0));
      const QuantizedVector qv = quantize(values, bits, rng);
      std::vector<float> out(values.size());
      dequantize(qv, out);
      // |x̂ - x| <= S: stochastic rounding moves at most one level.
      for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_LE(std::abs(out[i] - values[i]), qv.scale + 1e-6f)
            << isa_name(isa) << " b=" << bits << " i=" << i;
    }
    // Constant vectors quantize to scale 0 and decode exactly.
    const std::vector<float> flat(37, 1.5f);
    Rng flat_rng(3);
    const QuantizedVector qv = quantize(flat, 4, flat_rng);
    EXPECT_EQ(qv.scale, 0.0f);
    std::vector<float> out(flat.size());
    dequantize(qv, out);
    for (float v : out) EXPECT_EQ(v, 1.5f) << isa_name(isa);
  }
}

// ---- Codec across ISAs -----------------------------------------------------

/// Ragged shapes x bit mixes, encoded at each ISA with identical RNG state:
/// the wire stream must be byte-identical to the scalar encoding, and the
/// decode bit-identical.
TEST(SimdCodec, WireStreamByteIdenticalAcrossIsas) {
  for (std::size_t dim : {1ul, 7ul, 16ul, 33ul, 64ul, 111ul}) {
    Rng mrng(dim);
    Matrix src(9, dim);
    src.fill_uniform(mrng, -2.0f, 2.0f);
    const std::vector<NodeId> rows = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<int> bits = {2, 4, 8, 32, 2, 8, 4, 32, 2};
    EncodedBlock ref;
    Matrix ref_dst(9, dim);
    {
      IsaGuard guard(Isa::kScalar);
      Rng rng(2024);
      ref = encode_rows(src, rows, bits, rng);
      decode_rows(ref, ref_dst, rows);
    }
    EXPECT_EQ(ref.wire_bytes(), encoded_wire_bytes(rows.size(), dim, bits));
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      Rng rng(2024);
      const EncodedBlock block = encode_rows(src, rows, bits, rng);
      EXPECT_EQ(block.bytes, ref.bytes) << isa_name(isa) << " dim=" << dim;
      Matrix dst(9, dim);
      decode_rows(block, dst, rows);
      EXPECT_EQ(max_abs_diff(dst, ref_dst), 0.0f)
          << isa_name(isa) << " dim=" << dim;
    }
  }
}

/// Corrupt / truncated streams must throw under the vector unpack path too
/// (the decode validation lives in front of the kernels).
TEST(SimdCodec, CorruptStreamsRejectedUnderVectorDecode) {
  for (Isa isa : vector_isas()) {
    IsaGuard guard(isa);
    Rng rng(8);
    Matrix src(6, 40);
    src.fill_uniform(rng, -1.0f, 1.0f);
    const std::vector<NodeId> rows = {0, 1, 2};
    const std::vector<int> bits = {2, 4, 8};
    const EncodedBlock good = encode_rows(src, rows, bits, rng);
    Matrix dst(6, 40);

    EncodedBlock bad_magic = good;
    bad_magic.bytes[0] ^= 0xFF;
    EXPECT_THROW(decode_rows(bad_magic, dst, rows), std::runtime_error);

    EncodedBlock truncated = good;
    truncated.bytes.resize(truncated.bytes.size() - 3);
    EXPECT_THROW(decode_rows(truncated, dst, rows), std::runtime_error);

    EncodedBlock trailing = good;
    trailing.bytes.push_back(0xCD);
    EXPECT_THROW(decode_rows(trailing, dst, rows), std::runtime_error);

    EncodedBlock bad_tag = good;
    bad_tag.bytes[12] = 3;  // not a valid bit-width
    EXPECT_THROW(decode_rows(bad_tag, dst, rows), std::runtime_error);
  }
}

// ---- GEMM across ISAs ------------------------------------------------------

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  m.fill_uniform(rng, -1.0f, 1.0f);
  return m;
}

/// Bit-for-bit equality: unlike max_abs_diff == 0, this sees a -0/+0 flip.
bool same_bits(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Scoped global-pool override; restores the previous size on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

TEST(SimdGemm, AllVariantsBitIdenticalAcrossIsas) {
  Rng rng(5);
  // Ragged shapes straddle every vector width and tail case.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {32, 64, 16}, {50, 23, 130}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix at = random_matrix(s.k, s.m, rng);
    const Matrix bt = random_matrix(s.n, s.k, rng);
    std::vector<std::uint32_t> subset;
    for (std::size_t i = 0; i < s.m; i += 2)
      subset.push_back(static_cast<std::uint32_t>(i));

    Matrix ref_nn, ref_tn, ref_nt, ref_rows(s.m, s.n), scratch;
    {
      IsaGuard guard(Isa::kScalar);
      gemm(a, b, ref_nn);
      gemm_tn(at, b, ref_tn);
      gemm_nt(a, bt, ref_nt, scratch);
      gemm_rows(a, b, ref_rows, subset);
    }
    for (Isa isa : vector_isas()) {
      IsaGuard guard(isa);
      Matrix c_nn, c_tn, c_nt, c_rows(s.m, s.n);
      gemm(a, b, c_nn);
      gemm_tn(at, b, c_tn);
      gemm_nt(a, bt, c_nt, scratch);
      gemm_rows(a, b, c_rows, subset);
      EXPECT_TRUE(same_bits(c_nn, ref_nn))
          << isa_name(isa) << " nn " << s.m << "x" << s.k << "x" << s.n;
      EXPECT_TRUE(same_bits(c_tn, ref_tn)) << isa_name(isa) << " tn";
      EXPECT_TRUE(same_bits(c_nt, ref_nt)) << isa_name(isa) << " nt";
      EXPECT_TRUE(same_bits(c_rows, ref_rows)) << isa_name(isa) << " rows";
    }
  }
}

/// The scalar k-reduction gemm_nt used to run: each C[i][j] starts from +0
/// and adds the unfused products a[i][p] * b[j][p] in ascending p, zero
/// products included. `volatile` keeps the compiler from contracting the
/// multiply-add into an FMA on targets that have one.
Matrix scalar_nt_reference(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        volatile float prod = a.at(i, p) * b.at(j, p);
        acc += prod;
      }
      c.at(i, j) = acc;
    }
  return c;
}

/// A gradient-like A salted with exact +0, -0 and (negative) subnormals,
/// plus one all-zero row and one row of only -0 and negative subnormals —
/// rows whose exact sums are zero, where a -0 result would show.
Matrix signed_zero_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m = random_matrix(r, c, rng);
  const float specials[] = {0.0f, -0.0f, 1e-40f, -1e-40f, -3e-45f};
  for (std::size_t i = 0; i < m.size(); ++i)
    if (i % 3 == 0) m.data()[i] = specials[(i / 3) % 5];
  for (std::size_t p = 0; p < c; ++p) {
    m.at(0, p) = p % 2 ? -0.0f : 0.0f;
    if (r > 1) m.at(1, p) = p % 2 ? -0.0f : -1e-40f;
  }
  return m;
}

TEST(SimdGemm, NtMatchesScalarKReductionBitForBit) {
  Rng rng(41);
  const std::size_t m = 37;  // several 8-row parallel bands plus a tail
  for (const std::size_t k : {5ul, 130ul}) {  // 130 crosses the 128 k-tile
    for (const std::size_t n : {10ul, 64ul}) {
      const Matrix a = signed_zero_matrix(m, k, rng);
      const Matrix b = random_matrix(n, k, rng);
      const Matrix want = scalar_nt_reference(a, b);
      std::vector<std::uint32_t> subset;
      for (std::size_t i = 0; i < m; i += 3)
        subset.push_back(static_cast<std::uint32_t>(i));
      for (Isa isa : simd::supported_isas()) {
        IsaGuard isa_guard(isa);
        for (const int threads : {1, 4, 8}) {
          ThreadCountGuard thread_guard(threads);
          const std::string where = std::string(isa_name(isa)) +
                                    " t=" + std::to_string(threads) +
                                    " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n);
          Matrix c, scratch;
          gemm_nt(a, b, c, scratch);
          EXPECT_TRUE(same_bits(c, want)) << where;

          // Row subset: selected rows match the reference, the others keep
          // their prior contents.
          Matrix rows_c(m, n);
          rows_c.fill(7.0f);
          gemm_nt_rows(a, b, rows_c, subset, scratch);
          Matrix rows_want(m, n);
          rows_want.fill(7.0f);
          for (const std::uint32_t i : subset)
            std::memcpy(rows_want.row(i).data(), want.row(i).data(),
                        n * sizeof(float));
          EXPECT_TRUE(same_bits(rows_c, rows_want)) << where << " rows";
        }
      }
    }
  }
}

TEST(SimdGemm, AxpyKernelHandlesRaggedTails) {
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const auto axpy = simd::kernels().axpy;
    for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 15ul,
                          16ul, 17ul, 31ul, 100ul}) {
      Rng rng(n + 1);
      std::vector<float> b(n), c(n), ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        ref[i] = c[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      const float a = 0.37f;
      if (n > 0) axpy(a, b.data(), c.data(), n);
      for (std::size_t i = 0; i < n; ++i) ref[i] += a * b[i];
      EXPECT_EQ(c, ref) << isa_name(isa) << " n=" << n;
    }
  }
}

// ---- Aggregation & error-feedback kernels ---------------------------------

/// The new kernel-matrix entries (scale_row, ef_fold, ef_residual,
/// gather_axpy) must be bit-identical to the scalar reference on every
/// host-supported ISA at ragged sizes straddling all vector widths.
TEST(SimdAggregate, NewKernelsBitIdenticalAcrossIsasOnRaggedTails) {
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33,
                               63, 64, 65, 100, 130};
  for (Isa isa : simd::supported_isas()) {
    IsaGuard guard(isa);
    const auto& kt = simd::kernels();
    for (std::size_t n : sizes) {
      Rng rng(n + 99);
      std::vector<float> a(n), b(n), dst(n), ref(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
        b[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
      }
      const float s = 0.731f;
      if (n > 0) {
        kt.scale_row(s, a.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = s * a[i];
        EXPECT_EQ(dst, ref) << isa_name(isa) << " scale_row n=" << n;

        kt.ef_fold(a.data(), b.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] + b[i];
        EXPECT_EQ(dst, ref) << isa_name(isa) << " ef_fold n=" << n;

        // In-place fold (dst aliases a), the trainer's residual-add form.
        std::vector<float> inplace = a;
        kt.ef_fold(inplace.data(), b.data(), inplace.data(), n);
        EXPECT_EQ(inplace, ref) << isa_name(isa) << " ef_fold alias n=" << n;

        kt.ef_residual(a.data(), b.data(), dst.data(), n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = a[i] - b[i];
        EXPECT_EQ(dst, ref) << isa_name(isa) << " ef_residual n=" << n;
      }
    }
  }
}

TEST(SimdAggregate, GatherAxpyMatchesScalarKLoopAtEveryIsa) {
  // A small row pool gathered in a fixed k-ascending order: every dst
  // element must see the identical unfused multiply-add chain on every ISA.
  const std::size_t kRows = 13, kStride = 37;
  Rng rng(7);
  std::vector<float> base(kRows * kStride);
  for (float& v : base) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (std::size_t n : {1ul, 3ul, 8ul, 16ul, 17ul, 37ul}) {
    for (std::size_t count : {0ul, 1ul, 2ul, 5ul, 13ul}) {
      std::vector<std::uint32_t> idx(count);
      std::vector<float> coeffs(count);
      for (std::size_t k = 0; k < count; ++k) {
        idx[k] = static_cast<std::uint32_t>((k * 5 + 3) % kRows);
        coeffs[k] = static_cast<float>(rng.uniform(0.1, 1.5));
      }
      std::vector<float> ref(n, 0.25f);
      {
        IsaGuard guard(Isa::kScalar);
        simd::kernels().gather_axpy(base.data(), kStride, idx.data(),
                                    coeffs.data(), count, ref.data(), n);
      }
      for (Isa isa : vector_isas()) {
        IsaGuard guard(isa);
        std::vector<float> dst(n, 0.25f);
        simd::kernels().gather_axpy(base.data(), kStride, idx.data(),
                                    coeffs.data(), count, dst.data(), n);
        EXPECT_EQ(dst, ref)
            << isa_name(isa) << " n=" << n << " count=" << count;
      }
    }
  }
}

// ---- Full training runs across ISAs ---------------------------------------

class SimdTrainerEquality : public ::testing::TestWithParam<Method> {};

TEST_P(SimdTrainerEquality, FullRunBitIdenticalAcrossIsasAndThreads) {
  const Method method = GetParam();
  DatasetSpec spec;
  spec.name = "simd_tiny";
  spec.num_nodes = 220;
  spec.avg_degree = 7.0;
  spec.feature_dim = 11;
  spec.num_classes = 4;
  spec.intra_prob = 0.8;
  Rng rng(271);
  const Dataset ds = make_dataset(spec, rng);
  Rng part_rng(31);
  const auto part =
      make_partitioner("multilevel")->partition(ds.graph, 4, part_rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);

  auto run = [&](Isa isa, int threads) {
    IsaGuard isa_guard(isa);
    ThreadCountGuard thread_guard(threads);
    const ClusterSpec cluster = ClusterSpec::machines(2, 2);
    ModelConfig mc;
    mc.aggregator = Aggregator::kGcn;
    mc.in_dim = ds.spec.feature_dim;
    mc.hidden_dim = 12;
    mc.out_dim = ds.spec.num_classes;
    mc.num_layers = 2;
    mc.dropout = 0.4f;
    TrainOptions opts;
    opts.method = method;
    opts.epochs = 4;
    opts.seed = 7;
    opts.reassign_period = 2;
    opts.eval_every_epoch = true;
    DistTrainer trainer(ds, dist, cluster, mc, opts);
    return trainer.run();
  };

  const RunResult ref = run(Isa::kScalar, 1);
  ASSERT_EQ(ref.epochs.size(), 4u);
  std::vector<std::pair<Isa, int>> configs;
  for (Isa isa : vector_isas()) configs.emplace_back(isa, 1);
  configs.emplace_back(simd::detected_isa(), 4);  // ISA x threads cross-check
  for (const auto& [isa, threads] : configs) {
    const RunResult got = run(isa, threads);
    ASSERT_EQ(got.epochs.size(), ref.epochs.size());
    for (std::size_t e = 0; e < ref.epochs.size(); ++e) {
      EXPECT_EQ(got.epochs[e].train_loss, ref.epochs[e].train_loss)
          << isa_name(isa) << " t=" << threads << " epoch " << e;
      EXPECT_EQ(got.epochs[e].val_acc, ref.epochs[e].val_acc)
          << isa_name(isa) << " t=" << threads << " epoch " << e;
    }
    EXPECT_EQ(got.total_comm_bytes, ref.total_comm_bytes)
        << isa_name(isa) << " t=" << threads;
    EXPECT_EQ(got.final_test_acc, ref.final_test_acc)
        << isa_name(isa) << " t=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SimdTrainerEquality,
                         ::testing::Values(Method::kVanilla, Method::kAdaQP,
                                           Method::kAdaQPUniform,
                                           Method::kPipeGCN,
                                           Method::kSancus));

}  // namespace
}  // namespace adaqp
