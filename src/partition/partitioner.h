// Graph partitioning — the library's substitute for METIS.
//
// The paper partitions each input graph with METIS before training; partition
// quality drives both the remote-neighbor ratio (Table 1) and the skew of
// pairwise communication volumes (Fig. 2). We provide a multilevel
// partitioner with the same architecture as METIS (heavy-edge-matching
// coarsening → greedy initial partition → boundary refinement), which every
// trainer, bench and example uses. Fennel (streaming), Range and Random stay
// as cheaper fixtures with distinct cut shapes: tests use them where a
// partition's exact layout matters more than its quality, and
// examples/partition_explorer compares all four.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace adaqp {

class Rng;

struct PartitionResult {
  std::vector<int> part_of;  ///< part id per node, in [0, num_parts)
  int num_parts = 0;

  std::vector<std::size_t> part_sizes() const;
  /// max part size / ideal part size (1.0 == perfectly balanced).
  double balance_factor() const;
};

/// Validates that `result` is a proper partition of `g` into k parts.
void validate_partition(const Graph& g, const PartitionResult& result);

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual PartitionResult partition(const Graph& g, int num_parts,
                                    Rng& rng) const = 0;
  virtual std::string name() const = 0;
};

/// Uniform random assignment (worst-case cut; ablation baseline).
class RandomPartitioner final : public Partitioner {
 public:
  PartitionResult partition(const Graph& g, int num_parts,
                            Rng& rng) const override;
  std::string name() const override { return "random"; }
};

/// Contiguous index ranges (exploits generator locality; cheap baseline).
class RangePartitioner final : public Partitioner {
 public:
  PartitionResult partition(const Graph& g, int num_parts,
                            Rng& rng) const override;
  std::string name() const override { return "range"; }
};

/// Fennel one-pass streaming partitioner (Tsourakakis et al.):
/// greedily place each node to maximize (intra-part neighbors) minus a
/// superlinear load penalty.
class FennelPartitioner final : public Partitioner {
 public:
  /// gamma > 1 controls the load-penalty exponent; slack bounds part size at
  /// slack * ideal.
  explicit FennelPartitioner(double gamma = 1.5, double slack = 1.10)
      : gamma_(gamma), slack_(slack) {}
  PartitionResult partition(const Graph& g, int num_parts,
                            Rng& rng) const override;
  std::string name() const override { return "fennel"; }

 private:
  double gamma_;
  double slack_;
};

/// METIS-style multilevel partitioner:
///  1. coarsen by heavy-edge matching until the graph is small,
///  2. partition the coarsest graph by greedy region growing,
///  3. project back, refining with greedy boundary moves (FM-style) under a
///     balance constraint at every level.
class MultilevelPartitioner final : public Partitioner {
 public:
  struct Options {
    std::size_t coarsen_until = 256;  ///< stop coarsening below this size
    int refine_passes = 6;            ///< boundary-refinement sweeps per level
    double max_imbalance = 1.05;      ///< allowed max-part/ideal ratio
  };
  MultilevelPartitioner() : opts_(Options{}) {}
  explicit MultilevelPartitioner(const Options& opts) : opts_(opts) {}
  PartitionResult partition(const Graph& g, int num_parts,
                            Rng& rng) const override;
  std::string name() const override { return "multilevel"; }

 private:
  Options opts_;
};

/// Factory by name ("random" | "range" | "fennel" | "multilevel").
std::unique_ptr<Partitioner> make_partitioner(const std::string& name);

}  // namespace adaqp
