// Tests for the quantized halo exchange and allreduce.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "dist/halo_exchange.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "pipeline/exchange_stages.h"
#include "quant/message_codec.h"
#include "quant/quantize.h"
#include "transport/tcp.h"
#include "transport/transport.h"

namespace adaqp {
namespace {

struct Fixture {
  Graph graph;
  DistGraph dist;
  ClusterSpec cluster;
  std::vector<Rng> rngs;

  explicit Fixture(int devices, std::uint64_t seed = 11) {
    Rng rng(seed);
    graph = erdos_renyi(160, 800, rng);
    const auto part = FennelPartitioner().partition(graph, devices, rng);
    dist = build_dist_graph(graph, part);
    cluster = ClusterSpec::machines(1, devices);
    for (int d = 0; d < devices; ++d) rngs.emplace_back(seed + 100 + d);
  }

  std::vector<Matrix> random_locals(std::size_t dim, Rng& rng) const {
    Matrix global(graph.num_nodes(), dim);
    global.fill_uniform(rng, -2.0f, 2.0f);
    return scatter_to_devices(global, dist);
  }
};

TEST(HaloForward, FullPrecisionEqualsDirectCopy) {
  Fixture f(4);
  Rng rng(1);
  Matrix global(f.graph.num_nodes(), 9);
  global.fill_uniform(rng, -3.0f, 3.0f);
  auto locals = scatter_to_devices(global, f.dist);
  const auto plan = ExchangePlan::uniform_forward(f.dist, 32);
  exchange_halo_forward(f.dist, locals, plan, f.cluster, f.rngs);
  for (const auto& dev : f.dist.devices) {
    for (std::size_t i = 0; i < dev.num_local(); ++i) {
      const auto got = locals[dev.device].row(i);
      const auto want = global.row(dev.global_of_local[i]);
      for (std::size_t c = 0; c < 9; ++c)
        ASSERT_EQ(got[c], want[c]) << "dev " << dev.device << " row " << i;
    }
  }
}

TEST(HaloForward, QuantizedErrorWithinPerRowScale) {
  Fixture f(3);
  Rng rng(2);
  Matrix global(f.graph.num_nodes(), 16);
  global.fill_uniform(rng, -1.0f, 1.0f);
  auto locals = scatter_to_devices(global, f.dist);
  const auto plan = ExchangePlan::uniform_forward(f.dist, 4);
  exchange_halo_forward(f.dist, locals, plan, f.cluster, f.rngs);
  Rng probe(3);
  for (const auto& dev : f.dist.devices) {
    for (std::size_t i = dev.num_owned; i < dev.num_local(); ++i) {
      const auto want = global.row(dev.global_of_local[i]);
      const auto qv = quantize(want, 4, probe);
      const auto got = locals[dev.device].row(i);
      for (std::size_t c = 0; c < 16; ++c)
        ASSERT_LE(std::fabs(got[c] - want[c]), qv.scale + 1e-6f);
    }
  }
}

TEST(HaloForward, StatsAccountTraffic) {
  Fixture f(4);
  Rng rng(4);
  auto locals = f.random_locals(8, rng);
  const auto plan = ExchangePlan::uniform_forward(f.dist, 8);
  const auto stats =
      exchange_halo_forward(f.dist, locals, plan, f.cluster, f.rngs);
  ASSERT_EQ(stats.pair_bytes.size(), 4u);
  EXPECT_EQ(stats.pair_bytes[0][0], 0u);
  EXPECT_GT(stats.total_bytes(), 0u);
  EXPECT_GT(stats.comm_seconds, 0.0);
  EXPECT_GT(stats.max_quant_seconds(), 0.0);
  EXPECT_GT(stats.max_dequant_seconds(), 0.0);
  // Pair bytes must equal codec prediction.
  for (int d = 0; d < 4; ++d)
    for (int p = 0; p < 4; ++p) {
      if (d == p || f.dist.devices[d].send_local[p].empty()) {
        EXPECT_EQ(stats.pair_bytes[d][p], 0u);
        continue;
      }
      const std::vector<int> bits(f.dist.devices[d].send_local[p].size(), 8);
      EXPECT_EQ(stats.pair_bytes[d][p],
                encoded_wire_bytes(bits.size(), 8, bits));
    }
}

TEST(HaloForward, NoQuantCostAtFullPrecision) {
  Fixture f(3);
  Rng rng(5);
  auto locals = f.random_locals(8, rng);
  const auto plan = ExchangePlan::uniform_forward(f.dist, 32);
  const auto stats =
      exchange_halo_forward(f.dist, locals, plan, f.cluster, f.rngs);
  EXPECT_EQ(stats.max_quant_seconds(), 0.0);
  EXPECT_EQ(stats.max_dequant_seconds(), 0.0);
}

TEST(HaloForward, MaskedMixedWidthRoundAccounting) {
  // One forward round built directly from the stage builder, with a send
  // mask and a plan mixing every width: the derived per-pair figures must
  // match what each pair actually sent.
  Fixture f(4);
  Rng rng(9);
  const std::size_t dim = 6;
  auto locals = f.random_locals(dim, rng);
  constexpr float kPoison = -7.0f;
  for (const auto& dev : f.dist.devices)
    for (std::size_t h = dev.num_owned; h < dev.num_local(); ++h) {
      auto row = locals[dev.device].row(h);
      std::fill(row.begin(), row.end(), kPoison);
    }
  ExchangePlan plan = ExchangePlan::uniform_forward(f.dist, 32);
  const int widths[] = {2, 4, 8, 32};
  for (int d = 0; d < 4; ++d)
    for (int p = 0; p < 4; ++p)
      for (std::size_t i = 0; i < plan.bits[d][p].size(); ++i)
        plan.bits[d][p][i] = widths[(static_cast<std::size_t>(d + p) + i) % 4];
  pipeline::ExchangeAccounting acct;
  acct.channel = transport::next_channel();
  acct.active.assign(4, std::vector<std::uint8_t>(4, 1));
  const auto masked = [](int d, int p) { return p == (d + 1) % 4; };
  for (int d = 0; d < 4; ++d)
    for (int p = 0; p < 4; ++p)
      if (masked(d, p)) acct.active[d][p] = 0;
  acct.init(4, f.rngs);
  pipeline::StageGraph graph;
  pipeline::add_forward_exchange_stages(graph, f.dist, locals, plan, acct);
  graph.run(/*async=*/false);
  ExchangeStats stats;
  pipeline::finalize_exchange_stats_into(acct, f.dist, plan, dim, f.cluster,
                                         stats);

  int masked_pairs = 0;
  std::uint64_t messages = 0;
  std::vector<double> quant(4, 0.0), dequant(4, 0.0);
  for (int d = 0; d < 4; ++d)
    for (int p = 0; p < 4; ++p) {
      const auto& rows = f.dist.devices[d].send_local[p];
      const auto& widths_of_pair = stats.pair_width_bytes[d][p];
      std::uint64_t width_sum = 0;
      for (const std::uint64_t b : widths_of_pair) width_sum += b;
      if (d == p || rows.empty() || masked(d, p)) {
        EXPECT_EQ(stats.pair_bytes[d][p], 0u) << d << "->" << p;
        EXPECT_EQ(width_sum, 0u) << d << "->" << p;
        if (d == p || rows.empty()) continue;
        ++masked_pairs;
        for (const NodeId h : f.dist.devices[p].recv_local[d])
          for (const float v : locals[p].row(h))
            ASSERT_EQ(v, kPoison) << "masked " << d << "->" << p;
        continue;
      }
      ++messages;
      const auto& bits = plan.bits[d][p];
      EXPECT_EQ(stats.pair_bytes[d][p],
                encoded_wire_bytes(rows.size(), dim, bits));
      EXPECT_EQ(width_sum + 12, stats.pair_bytes[d][p]) << d << "->" << p;
      std::size_t quantized_rows = 0;
      for (const int b : bits)
        if (b != 32) ++quantized_rows;
      const double t =
          f.cluster.quant_seconds(quantized_rows * dim * sizeof(float));
      quant[d] += t;
      dequant[p] += t;
    }
  ASSERT_GT(masked_pairs, 0);
  ASSERT_GT(messages, 0u);
  EXPECT_EQ(stats.messages, messages);
  for (int d = 0; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(stats.quant_seconds[d], quant[d]) << "device " << d;
    EXPECT_DOUBLE_EQ(stats.dequant_seconds[d], dequant[d]) << "device " << d;
  }
}

TEST(HaloForward, OneShotExchangesReleaseTheirWireSlots) {
  // Every one-shot exchange claims a fresh channel; a wire backend's
  // per-(channel, direction, pair) slots must go when the exchange ends,
  // or a long run of one-shot calls grows them without bound.
  Fixture f(4);
  Rng rng(4);
  auto owned = std::make_unique<transport::TcpTransport>(
      transport::TcpOptions{});
  transport::TcpTransport& tcp = *owned;
  transport::ScopedTransport guard(std::move(owned));
  auto locals = f.random_locals(8, rng);
  const auto fwd = ExchangePlan::uniform_forward(f.dist, 32);
  const auto bwd = ExchangePlan::uniform_backward(f.dist, 8);
  exchange_halo_forward(f.dist, locals, fwd, f.cluster, f.rngs);
  ASSERT_GT(tcp.stats().frames_delivered, 0u);
  const std::size_t after_first = tcp.slot_count();
  for (int i = 1; i < 50; ++i) {
    if (i % 2)
      exchange_halo_backward(f.dist, locals, bwd, f.cluster, f.rngs);
    else
      exchange_halo_forward(f.dist, locals, fwd, f.cluster, f.rngs);
    ASSERT_EQ(tcp.slot_count(), after_first) << "exchange " << i;
  }
}

TEST(HaloBackward, AccumulatesIntoOwners) {
  Fixture f(3);
  Rng rng(6);
  const std::size_t dim = 5;
  // Ground truth: per global node, the sum of halo-row values that every
  // device accumulated for it, plus the owner's own row.
  std::vector<Matrix> grads;
  Matrix expected(f.graph.num_nodes(), dim);
  for (const auto& dev : f.dist.devices) {
    Matrix g(dev.num_local(), dim);
    g.fill_uniform(rng, -1.0f, 1.0f);
    grads.push_back(g);
  }
  for (const auto& dev : f.dist.devices)
    for (std::size_t i = 0; i < dev.num_local(); ++i) {
      const auto src = grads[dev.device].row(i);
      // Owned rows contribute once; halo rows are remote contributions.
      if (i < dev.num_owned || true) {
        auto dst = expected.row(dev.global_of_local[i]);
        for (std::size_t c = 0; c < dim; ++c) dst[c] += src[c];
      }
    }

  const auto plan = ExchangePlan::uniform_backward(f.dist, 32);
  exchange_halo_backward(f.dist, grads, plan, f.cluster, f.rngs);

  for (const auto& dev : f.dist.devices) {
    for (std::size_t i = 0; i < dev.num_owned; ++i) {
      const auto got = grads[dev.device].row(i);
      const auto want = expected.row(dev.global_of_local[i]);
      for (std::size_t c = 0; c < dim; ++c)
        ASSERT_NEAR(got[c], want[c], 1e-5f)
            << "dev " << dev.device << " owned row " << i;
    }
  }
}

TEST(HaloBackward, QuantizedAccumulationStaysUnbiased) {
  // Average of many 2-bit backward exchanges converges to the exact sum.
  Fixture f(2);
  Rng rng(7);
  const std::size_t dim = 4;
  std::vector<Matrix> base;
  for (const auto& dev : f.dist.devices) {
    Matrix g(dev.num_local(), dim);
    g.fill_uniform(rng, -1.0f, 1.0f);
    base.push_back(g);
  }
  // Exact reference via 32-bit exchange.
  auto exact = base;
  const auto plan32 = ExchangePlan::uniform_backward(f.dist, 32);
  exchange_halo_backward(f.dist, exact, plan32, f.cluster, f.rngs);

  const int trials = 400;
  std::vector<Matrix> mean;
  for (const auto& dev : f.dist.devices)
    mean.emplace_back(dev.num_local(), dim);
  const auto plan2 = ExchangePlan::uniform_backward(f.dist, 2);
  for (int t = 0; t < trials; ++t) {
    auto copy = base;
    exchange_halo_backward(f.dist, copy, plan2, f.cluster, f.rngs);
    for (std::size_t d = 0; d < copy.size(); ++d)
      mean[d].add_inplace(copy[d]);
  }
  for (std::size_t d = 0; d < mean.size(); ++d) {
    mean[d].scale_inplace(1.0f / trials);
    const auto& dev = f.dist.devices[d];
    for (std::size_t i = 0; i < dev.num_owned; ++i)
      for (std::size_t c = 0; c < dim; ++c)
        EXPECT_NEAR(mean[d].at(i, c), exact[d].at(i, c), 0.08f);
  }
}

TEST(Allreduce, SumsAndReplicates) {
  ClusterSpec cluster = ClusterSpec::machines(2, 2);
  Rng rng(8);
  std::vector<Matrix> per_device;
  Matrix expected(3, 4);
  for (int d = 0; d < 4; ++d) {
    Matrix m(3, 4);
    m.fill_uniform(rng, -1.0f, 1.0f);
    expected.add_inplace(m);
    per_device.push_back(std::move(m));
  }
  const double secs = allreduce_sum(per_device, cluster);
  EXPECT_GT(secs, 0.0);
  for (const auto& m : per_device) EXPECT_EQ(max_abs_diff(m, expected), 0.0f);
}

TEST(Allreduce, SingleDeviceIsFree) {
  ClusterSpec cluster = ClusterSpec::machines(1, 1);
  std::vector<Matrix> one{Matrix(2, 2)};
  EXPECT_EQ(allreduce_sum(one, cluster), 0.0);
}

TEST(ExchangePlan, UniformShapesMatchMaps) {
  Fixture f(3);
  const auto fwd = ExchangePlan::uniform_forward(f.dist, 4);
  const auto bwd = ExchangePlan::uniform_backward(f.dist, 2);
  for (int d = 0; d < 3; ++d)
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(fwd.bits[d][p].size(), f.dist.devices[d].send_local[p].size());
      EXPECT_EQ(bwd.bits[d][p].size(), f.dist.devices[d].recv_local[p].size());
    }
}

TEST(ExchangePlan, InvalidWidthThrows) {
  Fixture f(2);
  EXPECT_THROW(ExchangePlan::uniform_forward(f.dist, 5), std::runtime_error);
}

}  // namespace
}  // namespace adaqp
