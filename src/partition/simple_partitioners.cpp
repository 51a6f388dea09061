#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "partition/partitioner.h"

namespace adaqp {

std::vector<std::size_t> PartitionResult::part_sizes() const {
  std::vector<std::size_t> sizes(num_parts, 0);
  for (int p : part_of) sizes[p]++;
  return sizes;
}

double PartitionResult::balance_factor() const {
  if (part_of.empty() || num_parts == 0) return 1.0;
  const auto sizes = part_sizes();
  const double ideal =
      static_cast<double>(part_of.size()) / static_cast<double>(num_parts);
  const auto max_size = *std::max_element(sizes.begin(), sizes.end());
  return static_cast<double>(max_size) / ideal;
}

void validate_partition(const Graph& g, const PartitionResult& result) {
  ADAQP_CHECK_MSG(result.num_parts >= 1, "num_parts must be >= 1");
  ADAQP_CHECK_MSG(result.part_of.size() == g.num_nodes(),
                  "partition covers " << result.part_of.size() << " of "
                                      << g.num_nodes() << " nodes");
  for (int p : result.part_of)
    ADAQP_CHECK_MSG(p >= 0 && p < result.num_parts, "part id " << p
                        << " outside [0," << result.num_parts << ")");
}

PartitionResult RandomPartitioner::partition(const Graph& g, int num_parts,
                                             Rng& rng) const {
  ADAQP_CHECK(num_parts >= 1);
  PartitionResult out;
  out.num_parts = num_parts;
  out.part_of.resize(g.num_nodes());
  // Balanced random: shuffle node ids, deal them round-robin.
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  for (std::size_t i = 0; i < order.size(); ++i)
    out.part_of[order[i]] = static_cast<int>(i % num_parts);
  return out;
}

PartitionResult RangePartitioner::partition(const Graph& g, int num_parts,
                                            Rng& /*rng*/) const {
  ADAQP_CHECK(num_parts >= 1);
  PartitionResult out;
  out.num_parts = num_parts;
  out.part_of.resize(g.num_nodes());
  const std::size_t n = g.num_nodes();
  for (std::size_t v = 0; v < n; ++v)
    out.part_of[v] = static_cast<int>(v * static_cast<std::size_t>(num_parts) / n);
  return out;
}

PartitionResult FennelPartitioner::partition(const Graph& g, int num_parts,
                                             Rng& rng) const {
  ADAQP_CHECK(num_parts >= 1);
  const std::size_t n = g.num_nodes();
  PartitionResult out;
  out.num_parts = num_parts;
  out.part_of.assign(n, -1);
  if (n == 0) return out;

  const double m = static_cast<double>(g.num_undirected_edges());
  // Fennel's alpha = m * (k^(gamma-1)) / n^gamma, standard setting.
  const double alpha = (m > 0 ? m : 1.0) *
                       std::pow(static_cast<double>(num_parts), gamma_ - 1.0) /
                       std::pow(static_cast<double>(n), gamma_);
  const double cap = slack_ * static_cast<double>(n) / num_parts;

  std::vector<std::size_t> load(num_parts, 0);
  std::vector<double> score(num_parts);
  // Random stream order decorrelates from generator layout.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);

  std::vector<int> nbr_count(num_parts);
  for (NodeId v : order) {
    std::fill(nbr_count.begin(), nbr_count.end(), 0);
    for (NodeId u : g.neighbors(v))
      if (out.part_of[u] >= 0) nbr_count[out.part_of[u]]++;
    int best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < num_parts; ++p) {
      if (static_cast<double>(load[p]) + 1.0 > cap) continue;
      const double penalty =
          alpha * gamma_ * std::pow(static_cast<double>(load[p]), gamma_ - 1.0);
      score[p] = static_cast<double>(nbr_count[p]) - penalty;
      if (score[p] > best_score) {
        best_score = score[p];
        best = p;
      }
    }
    if (best < 0) {
      // All parts at capacity cap (can happen with tight slack): least loaded.
      best = static_cast<int>(
          std::min_element(load.begin(), load.end()) - load.begin());
    }
    out.part_of[v] = best;
    load[best]++;
  }
  return out;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "random") return std::make_unique<RandomPartitioner>();
  if (name == "range") return std::make_unique<RangePartitioner>();
  if (name == "fennel") return std::make_unique<FennelPartitioner>();
  if (name == "multilevel") return std::make_unique<MultilevelPartitioner>();
  ADAQP_CHECK_MSG(false, "unknown partitioner '" << name << "'");
  return nullptr;
}

}  // namespace adaqp
