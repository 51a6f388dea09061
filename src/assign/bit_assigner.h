// Adaptive bit-width assignment (paper §3.3 and §4.2).
//
// For every ring-all2all round of a layer's forward or backward pass, choose
// a bit-width b_g ∈ {2,4,8} per *message group* minimizing the scalarized
// bi-objective (paper Eqn. 12):
//
//     min_b  λ · Σ_g β_g / (2^{b_g} − 1)²  +  (1 − λ) · Z
//     s.t.   θ_i · Σ_{g ∈ pair i} Dsum_g · b_g + γ_i ≤ Z      ∀ pairs i
//
// where β_g aggregates each member message's variance coefficient
// β_k = (Σ_{v∈N_T(k)} α²_{k,v}) · D_k · (max h_k − min h_k)² / 6 (Theorem 3).
//
// Solver (GUROBI substitute, see DESIGN.md): the ring schedule makes rounds
// disjoint, so the problem decomposes per round. For a fixed straggler bound
// Z each pair solves an independent multiple-choice knapsack: minimize
// variance subject to Σ Dsum_g·b_g ≤ (Z−γ_i)/θ_i. Because the variance
// decrease per added bit-weight is strictly diminishing (0→ convex choice
// curve), greedy upgrade by marginal ratio solves the LP relaxation exactly
// and is within one group of the integer optimum; a parametric sweep over
// candidate Z values then scalarizes the bi-objective. Tests cross-check the
// solver against exhaustive enumeration on small instances.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cluster.h"
#include "dist/dist_graph.h"
#include "dist/halo_exchange.h"
#include "gnn/aggregate.h"

namespace adaqp {

/// One group of messages on one device pair sharing a bit-width choice.
struct MessageGroup {
  double beta_sum = 0.0;      ///< Σ β_k over member messages
  std::size_t dim_sum = 0;    ///< Σ D_k (time-objective weight per bit)
};

/// All data of one ring round: the (send) pairs active in that round.
struct RoundProblem {
  struct Pair {
    int src = 0;
    int dst = 0;
    double theta = 0.0;
    double gamma = 0.0;
    std::vector<MessageGroup> groups;
  };
  std::vector<Pair> pairs;
};

struct RoundSolution {
  /// bits[pair][group] ∈ {2,4,8}, aligned with RoundProblem::pairs/groups.
  std::vector<std::vector<int>> bits;
  double variance = 0.0;   ///< Σ β_g/(2^b−1)²
  double z = 0.0;          ///< realized straggler time bound
  double objective = 0.0;  ///< λ·variance + (1−λ)·z
};

/// Parametric + greedy-MCKP solver described above.
RoundSolution solve_round(const RoundProblem& problem, double lambda);

/// Exhaustive reference solver (exponential; tests only).
RoundSolution solve_round_bruteforce(const RoundProblem& problem,
                                     double lambda);

/// Which message list a plan aligns with (see ExchangePlan).
enum class Direction { kForward, kBackward };

struct AssignerOptions {
  std::size_t group_size = 64;  ///< messages per group (paper Appendix B)
  double lambda = 0.5;          ///< variance-vs-time weight (paper default)
};

/// Statistics and overhead of one assignment solve.
struct AssignReport {
  double solve_wall_seconds = 0.0;     ///< measured CPU time of the solver
  double sim_gather_scatter_seconds = 0.0;  ///< simulated trace gather/scatter
  double total_variance = 0.0;
  double total_z = 0.0;
  double total_objective = 0.0;  ///< Σ over rounds of the scalarized optimum
  std::size_t num_groups = 0;
};

/// Per-message variance coefficients (Σ α² · D · range²/6) for the messages
/// device d sends to each peer, aligned with send_local (forward) or
/// recv_local (backward). `ranges[d]` must hold per-local-row (max−min)
/// of the matrix being communicated on device d.
std::vector<std::vector<std::vector<double>>> message_betas(
    const DistGraph& dist, Aggregator agg, Direction dir,
    const std::vector<std::vector<float>>& row_ranges, std::size_t dim);

/// Per-local-row (max − min) of a matrix (the traced numerical range),
/// written into `out` reusing its capacity, so repeated range traces
/// allocate nothing once the shapes have stabilized (the steady-state
/// contract, docs/ARCHITECTURE.md).
void row_ranges_of_into(const Matrix& m, std::vector<float>& out);

/// Build an exchange plan for one layer/direction by solving every ring
/// round's bi-objective problem.
ExchangePlan assign_bit_widths(const DistGraph& dist,
                               const ClusterSpec& cluster, Aggregator agg,
                               Direction dir,
                               const std::vector<std::vector<float>>& row_ranges,
                               std::size_t dim, const AssignerOptions& opts,
                               AssignReport* report = nullptr);

/// Uniform random sampling of bit-widths from {2,4,8} per message — the
/// baseline scheme of paper Table 6.
ExchangePlan sample_uniform_plan(const DistGraph& dist, Direction dir,
                                 Rng& rng);

}  // namespace adaqp
