// Demonstrates the adaptive bit-width assigner in isolation: how the
// bi-objective solve trades gradient variance against straggler time as λ
// sweeps from pure-time (0) to pure-variance (1), and how the minimax term
// squeezes straggler pairs while giving fast intra-machine pairs full width.
#include <cstdio>
#include <map>

#include "assign/bit_assigner.h"
#include "common/rng.h"
#include "common/table.h"
#include "data/datasets.h"
#include "partition/partitioner.h"

using namespace adaqp;

int main() {
  const Dataset ds = make_dataset("products_sim", 42);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  Rng rng(7919 + 17);
  const auto part = make_partitioner("multilevel")->partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  std::printf("partitioned %s into 4: edge cut %zu, remote ratio %.2f\n\n",
              ds.spec.name.c_str(), edge_cut(ds.graph, part.part_of),
              dist.remote_neighbor_ratio());

  // Trace ranges straight from the features (what the Assigner does with
  // layer-0 inputs during training).
  const auto locals = scatter_to_devices(ds.features, dist);
  std::vector<std::vector<float>> ranges(locals.size());
  for (std::size_t d = 0; d < locals.size(); ++d)
    row_ranges_of_into(locals[d], ranges[d]);

  Table table({"lambda", "2-bit", "4-bit", "8-bit", "avg bits", "variance",
               "straggler Z (us)", "solve (ms)"});
  for (double lam : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    AssignerOptions opts;
    opts.group_size = 64;
    opts.lambda = lam;
    AssignReport report;
    const ExchangePlan plan =
        assign_bit_widths(dist, cluster, Aggregator::kGcn, Direction::kForward,
                          ranges, ds.spec.feature_dim, opts, &report);
    std::map<int, int> hist;
    double sum = 0.0;
    int count = 0;
    for (const auto& pd : plan.bits)
      for (const auto& pp : pd)
        for (int b : pp) {
          hist[b]++;
          sum += b;
          ++count;
        }
    table.add_row({Table::fmt(lam, 2), std::to_string(hist[2]),
                   std::to_string(hist[4]), std::to_string(hist[8]),
                   Table::fmt(sum / count, 2),
                   Table::fmt(report.total_variance, 4),
                   Table::fmt(report.total_z * 1e6, 1),
                   Table::fmt(report.solve_wall_seconds * 1e3, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nReading the table: λ=0 minimizes the per-round straggler time (the\n"
      "slow inter-machine pairs drop to 2 bits; fast intra-machine pairs\n"
      "keep 8 bits for free), λ=1 minimizes quantization variance (all 8),\n"
      "and intermediate λ trades one for the other — paper Eqn. 12.\n");
  return 0;
}
