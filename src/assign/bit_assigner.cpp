#include "assign/bit_assigner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "quant/quantize.h"
#include "runtime/parallel_for.h"

namespace adaqp {

namespace {

constexpr int kBitChoices[] = {2, 4, 8};

double variance_factor(int bits) {
  const double levels = static_cast<double>((1u << bits) - 1u);
  return 1.0 / (levels * levels);
}

/// One upgrade step of one group: 2→4 or 4→8 bits.
struct UpgradeStep {
  double ratio;  ///< variance reduction per unit of added weight
  std::uint32_t group;
  int to_bits;
  double dweight;
};

/// A pair's upgrade steps in greedy order (descending ratio). The order does
/// not depend on the budget, so solve_round builds it once per pair and
/// reuses it for every candidate Z.
std::vector<UpgradeStep> upgrade_steps(
    const std::vector<MessageGroup>& groups) {
  std::vector<UpgradeStep> steps;
  steps.reserve(groups.size() * 2);
  for (std::uint32_t i = 0; i < groups.size(); ++i) {
    const double beta = groups[i].beta_sum;
    const double dim = static_cast<double>(groups[i].dim_sum);
    if (dim == 0.0) continue;
    const double dvar24 = beta * (variance_factor(2) - variance_factor(4));
    const double dvar48 = beta * (variance_factor(4) - variance_factor(8));
    steps.push_back({dvar24 / (2.0 * dim), i, 4, 2.0 * dim});
    steps.push_back({dvar48 / (4.0 * dim), i, 8, 4.0 * dim});
  }
  // Stable sort so that equal-ratio steps keep insertion order (2→4 was
  // inserted before 4→8 per group), preserving the upgrade-chain invariant
  // even for zero-β groups.
  std::stable_sort(steps.begin(), steps.end(),
                   [](const UpgradeStep& a, const UpgradeStep& b) {
                     return a.ratio > b.ratio;
                   });
  return steps;
}

/// Σ 2·Dsum_g: the weight of the all-2-bit assignment.
double base_weight(const std::vector<MessageGroup>& groups) {
  double weight = 0.0;
  for (const auto& g : groups) weight += 2.0 * static_cast<double>(g.dim_sum);
  return weight;
}

/// Greedy MCKP: minimize Σ β_g·varfac(b_g) subject to Σ Dsum_g·b_g ≤ budget.
/// Starts everything at 2 bits and applies `steps` (upgrade_steps' order);
/// the marginal ratios are strictly diminishing per group, so this is the
/// exact LP-relaxation optimum rounded down to an integral solution. When
/// even the all-2-bit weight exceeds the budget the all-2 assignment stands
/// (Z candidates below the all-2-bit straggler time are pruned by the
/// caller). Writes `bits` and returns the assignment's variance.
double solve_knapsack(const std::vector<MessageGroup>& groups,
                      const std::vector<UpgradeStep>& steps, double weight,
                      double budget, std::vector<int>& bits) {
  bits.assign(groups.size(), 2);
  // Relative slack absorbs rounding when the budget equals an assignment's
  // exact weight (e.g. the all-8 candidate of the straggler pair).
  const double budget_slack = budget * 1e-12 + 1e-9;
  for (const auto& s : steps) {
    // A 4→8 step only applies after the matching 2→4 step; the ratio order
    // guarantees that because dvar24/2D > dvar48/4D for every group.
    if (bits[s.group] != s.to_bits - s.to_bits / 2) continue;
    if (weight + s.dweight > budget + budget_slack) continue;
    bits[s.group] = s.to_bits;
    weight += s.dweight;
  }
  double variance = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i)
    variance += groups[i].beta_sum * variance_factor(bits[i]);
  return variance;
}

double pair_time(const RoundProblem::Pair& pair, const std::vector<int>& bits) {
  double weight = 0.0;
  for (std::size_t g = 0; g < pair.groups.size(); ++g)
    weight += static_cast<double>(pair.groups[g].dim_sum) * bits[g];
  return pair.theta * weight + pair.gamma;
}

}  // namespace

namespace {

/// Normalization ranges for the two objectives. Raw variance (graph-scale
/// dependent) and raw seconds live on incomparable scales, so the weighted
/// sum scalarization (paper Eqn. 12) is applied to each objective rescaled
/// to [0,1] over its achievable range: λ=1 → pure variance minimization
/// (all 8-bit), λ=0 → pure straggler-time minimization (all 2-bit), matching
/// the endpoints of the paper's sensitivity study (Fig. 11).
struct ObjectiveScale {
  double var_min = 0.0, var_max = 0.0;  // all-8 / all-2 assignments
  double z_floor = 0.0, z_ceil = 0.0;   // all-2 / all-8 straggler times

  double scalarize(double lambda, double variance, double z) const {
    const double vspan = std::max(var_max - var_min, 1e-30);
    const double zspan = std::max(z_ceil - z_floor, 1e-30);
    return lambda * (variance - var_min) / vspan +
           (1.0 - lambda) * (z - z_floor) / zspan;
  }
};

ObjectiveScale objective_scale(const RoundProblem& problem) {
  ObjectiveScale s;
  for (const auto& pair : problem.pairs) {
    double w = 0.0;
    for (const auto& g : pair.groups) {
      w += static_cast<double>(g.dim_sum);
      s.var_max += g.beta_sum * variance_factor(2);
      s.var_min += g.beta_sum * variance_factor(8);
    }
    s.z_floor = std::max(s.z_floor, pair.theta * 2.0 * w + pair.gamma);
    s.z_ceil = std::max(s.z_ceil, pair.theta * 8.0 * w + pair.gamma);
  }
  return s;
}

}  // namespace

RoundSolution solve_round(const RoundProblem& problem, double lambda) {
  ADAQP_CHECK(lambda >= 0.0 && lambda <= 1.0);
  RoundSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  if (problem.pairs.empty()) {
    best.objective = 0.0;
    return best;
  }

  // Candidate Z values: for every pair, the times of its all-2, all-4 and
  // all-8 assignments, plus a refinement grid between the global feasibility
  // floor (max of all-2 times) and ceiling (max of all-8 times).
  const ObjectiveScale scale = objective_scale(problem);
  std::vector<double> candidates;
  for (const auto& pair : problem.pairs) {
    double w = 0.0;
    for (const auto& g : pair.groups) w += static_cast<double>(g.dim_sum);
    candidates.insert(candidates.end(),
                      {pair.theta * 2.0 * w + pair.gamma,
                       pair.theta * 4.0 * w + pair.gamma,
                       pair.theta * 8.0 * w + pair.gamma});
  }
  constexpr int kGrid = 33;
  for (int i = 0; i <= kGrid; ++i)
    candidates.push_back(scale.z_floor + (scale.z_ceil - scale.z_floor) *
                                             static_cast<double>(i) / kGrid);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const std::size_t num_pairs = problem.pairs.size();
  std::vector<std::vector<UpgradeStep>> steps(num_pairs);
  std::vector<double> weights(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    steps[p] = upgrade_steps(problem.pairs[p].groups);
    weights[p] = base_weight(problem.pairs[p].groups);
  }
  // `sol` and `best` trade bit buffers on every improvement, so the loop
  // allocates nothing once both have held a full solution.
  RoundSolution sol;
  for (double z : candidates) {
    if (z + 1e-15 < scale.z_floor) continue;  // infeasible even at 2 bits
    sol.bits.resize(num_pairs);
    sol.variance = 0.0;
    double realized_z = 0.0;
    for (std::size_t p = 0; p < num_pairs; ++p) {
      const auto& pair = problem.pairs[p];
      const double budget =
          pair.theta > 0.0 ? (z - pair.gamma) / pair.theta
                           : std::numeric_limits<double>::infinity();
      sol.variance += solve_knapsack(pair.groups, steps[p], weights[p],
                                     budget, sol.bits[p]);
      realized_z = std::max(realized_z, pair_time(pair, sol.bits[p]));
    }
    sol.z = realized_z;
    sol.objective = scale.scalarize(lambda, sol.variance, sol.z);
    if (sol.objective < best.objective) std::swap(best, sol);
  }
  return best;
}

RoundSolution solve_round_bruteforce(const RoundProblem& problem,
                                     double lambda) {
  // Enumerate every assignment; pairs are independent only through Z, so the
  // full cross product is required. Tests keep total group count ≤ ~8.
  std::size_t total_groups = 0;
  for (const auto& pair : problem.pairs) total_groups += pair.groups.size();
  ADAQP_CHECK_MSG(total_groups <= 12, "brute force limited to 12 groups");

  RoundSolution best;
  best.objective = std::numeric_limits<double>::infinity();
  std::vector<int> flat(total_groups, 0);  // indices into kBitChoices
  const ObjectiveScale scale = objective_scale(problem);

  auto evaluate = [&]() {
    RoundSolution sol;
    sol.bits.resize(problem.pairs.size());
    std::size_t at = 0;
    double z = 0.0, var = 0.0;
    for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
      const auto& pair = problem.pairs[p];
      sol.bits[p].resize(pair.groups.size());
      for (std::size_t g = 0; g < pair.groups.size(); ++g) {
        sol.bits[p][g] = kBitChoices[flat[at++]];
        var += pair.groups[g].beta_sum * variance_factor(sol.bits[p][g]);
      }
      z = std::max(z, pair_time(pair, sol.bits[p]));
    }
    sol.variance = var;
    sol.z = z;
    sol.objective = scale.scalarize(lambda, var, z);
    if (sol.objective < best.objective) best = std::move(sol);
  };

  // Odometer over 3^total_groups assignments.
  while (true) {
    evaluate();
    std::size_t i = 0;
    while (i < total_groups && flat[i] == 2) flat[i++] = 0;
    if (i == total_groups) break;
    flat[i]++;
  }
  if (total_groups == 0) evaluate();
  return best;
}

void row_ranges_of_into(const Matrix& m, std::vector<float>& ranges) {
  ranges.assign(m.rows(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    if (row.empty()) continue;
    float lo = row[0], hi = row[0];
    for (float v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    ranges[r] = hi - lo;
  }
}

std::vector<std::vector<std::vector<double>>> message_betas(
    const DistGraph& dist, Aggregator agg, Direction dir,
    const std::vector<std::vector<float>>& row_ranges, std::size_t dim) {
  const int n = dist.num_devices();
  ADAQP_CHECK(static_cast<int>(row_ranges.size()) == n);
  for (int d = 0; d < n; ++d) {
    // A range per local row, traced in the epoch the refresh runs; a
    // missing trace must not read out of bounds.
    ADAQP_CHECK_MSG(row_ranges[d].size() == dist.devices[d].num_local(),
                    "message_betas: device " << d << " has "
                                             << row_ranges[d].size()
                                             << " traced ranges for "
                                             << dist.devices[d].num_local()
                                             << " local rows");
  }

  // One task per device; device d writes only betas[d].
  std::vector<std::vector<std::vector<double>>> betas(n);
  parallel_for_each(static_cast<std::size_t>(n), [&](std::size_t di) {
    const int d = static_cast<int>(di);
    const DeviceGraph& dev = dist.devices[d];
    const auto beta = [&](double alpha_sq, NodeId row) {
      const double range = row_ranges[d][row];
      return alpha_sq * static_cast<double>(dim) * static_cast<double>(range) *
             range / 6.0;
    };
    betas[d].resize(n);
    if (dir == Direction::kForward) {
      // Message k → peer p: k is an owned node; its aggregation targets on p
      // are exactly its halo neighbors owned by p (graph symmetry). One walk
      // per owned node fills alpha_sq[k·n + p] = Σ α²(k→u) over those u, each
      // entry summed in neighbor order.
      std::vector<double> alpha_sq(dev.num_owned * static_cast<std::size_t>(n),
                                   0.0);
      for (std::size_t k = 0; k < dev.num_owned; ++k) {
        for (NodeId u : dev.neighbors(static_cast<NodeId>(k))) {
          if (u < dev.num_owned) continue;  // local target
          const int p = dist.partition.part_of[dev.global_of_local[u]];
          // α(k → u) as used when u aggregates k.
          const double a = aggregation_coefficient(agg, dev.global_degree[k],
                                                   dev.global_degree[u]);
          alpha_sq[k * n + p] += a * a;
        }
      }
      for (int p = 0; p < n; ++p) {
        const auto& sends = dev.send_local[p];
        betas[d][p].resize(sends.size());
        for (std::size_t i = 0; i < sends.size(); ++i)
          betas[d][p][i] = beta(alpha_sq[sends[i] * n + p], sends[i]);
      }
    } else {
      // Backward message: gradient of halo node v sent back to owner p; the
      // owner scatters it to v's neighbors owned here... rather, the variance
      // enters through this device's owned nodes u that aggregated v — the
      // α²(v→u) sum over owned u (Theorem 3's error term, symmetric role).
      std::vector<double> alpha_sq_halo(dev.num_local(), 0.0);
      for (std::size_t u = 0; u < dev.num_owned; ++u) {
        for (NodeId v : dev.neighbors(static_cast<NodeId>(u))) {
          if (v < dev.num_owned) continue;
          const double a = aggregation_coefficient(
              agg, dev.global_degree[v],
              dev.global_degree[u]);
          alpha_sq_halo[v] += a * a;
        }
      }
      for (int p = 0; p < n; ++p) {
        const auto& recvs = dev.recv_local[p];
        betas[d][p].resize(recvs.size());
        for (std::size_t i = 0; i < recvs.size(); ++i)
          betas[d][p][i] = beta(alpha_sq_halo[recvs[i]], recvs[i]);
      }
    }
  });
  return betas;
}

ExchangePlan assign_bit_widths(const DistGraph& dist,
                               const ClusterSpec& cluster, Aggregator agg,
                               Direction dir,
                               const std::vector<std::vector<float>>& row_ranges,
                               std::size_t dim, const AssignerOptions& opts,
                               AssignReport* report) {
  const obs::Stopwatch solve_watch;
  const int n = dist.num_devices();
  ADAQP_CHECK(opts.group_size >= 1);

  const auto betas = message_betas(dist, agg, dir, row_ranges, dim);

  // Initialize plan with all-8-bit defaults (overwritten below).
  ExchangePlan plan = dir == Direction::kForward
                          ? ExchangePlan::uniform_forward(dist, 8)
                          : ExchangePlan::uniform_backward(dist, 8);

  // The ring schedule gives every (src, dst) pair to exactly one round, so
  // each round is built, solved and written back into the plan as one pool
  // task. Its report terms land in its own slot and are summed below in
  // round order, as a sequential solve would; a round with no pairs keeps
  // +0.0 terms, whose addition changes no sum.
  struct RoundTotals {
    double variance = 0.0, z = 0.0, objective = 0.0;
    std::size_t num_groups = 0;
  };
  const RingAllToAll ring(n);
  std::vector<RoundTotals> totals(
      static_cast<std::size_t>(std::max(ring.num_rounds(), 0)));
  parallel_for_each(totals.size(), [&](std::size_t r) {
    const int round = static_cast<int>(r) + 1;
    RoundProblem problem;
    // Per problem pair, its messages in β order: group g holds positions
    // [g·group_size, (g+1)·group_size) of it.
    std::vector<std::vector<std::uint32_t>> orders;
    for (int src = 0; src < n; ++src) {
      const int dst = ring.send_peer(src, round);
      const auto& list = dir == Direction::kForward
                             ? dist.devices[src].send_local[dst]
                             : dist.devices[src].recv_local[dst];
      if (list.empty()) continue;
      const auto& b = betas[src][dst];
      // Order messages by β (paper: sort by β then chunk into groups).
      std::vector<std::uint32_t> order(list.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
        return b[x] > b[y];
      });
      RoundProblem::Pair pair;
      pair.src = src;
      pair.dst = dst;
      const LinkParams link = cluster.link(src, dst);
      // θ in seconds per (dim·bit): bits→bytes is /8.
      pair.theta = link.theta / 8.0;
      pair.gamma = link.gamma;
      for (std::size_t at = 0; at < order.size(); at += opts.group_size) {
        MessageGroup group;
        for (std::size_t i = at;
             i < std::min(order.size(), at + opts.group_size); ++i) {
          group.beta_sum += b[order[i]];
          group.dim_sum += dim;
        }
        pair.groups.push_back(group);
      }
      totals[r].num_groups += pair.groups.size();
      problem.pairs.push_back(std::move(pair));
      orders.push_back(std::move(order));
    }
    if (problem.pairs.empty()) return;

    const RoundSolution sol = solve_round(problem, opts.lambda);
    totals[r].variance = sol.variance;
    totals[r].z = sol.z;
    totals[r].objective = sol.objective;
    for (std::size_t p = 0; p < orders.size(); ++p) {
      auto& bits = plan.bits[problem.pairs[p].src][problem.pairs[p].dst];
      for (std::size_t i = 0; i < orders[p].size(); ++i)
        bits[orders[p][i]] = sol.bits[p][i / opts.group_size];
    }
  });

  AssignReport rep;
  for (const RoundTotals& t : totals) {
    rep.num_groups += t.num_groups;
    rep.total_variance += t.variance;
    rep.total_z += t.z;
    rep.total_objective += t.objective;
  }

  // Observability: solve count/latency and the realized bit-width
  // distribution — recorded whether or not the caller asked for a report.
  {
    const obs::Instruments& ins = obs::instruments();
    ins.assigner_solves.add(1);
    ins.assigner_solve_us.record(solve_watch.elapsed_us());
    std::array<std::uint64_t, 3> dist_by_width{};
    for (const auto& per_device : plan.bits)
      for (const auto& per_peer : per_device)
        for (const int b : per_peer) {
          const int w = obs::width_index(b);
          if (w < 3) ++dist_by_width[static_cast<std::size_t>(w)];
        }
    for (int w = 0; w < 3; ++w)
      ins.assigner_bits[static_cast<std::size_t>(w)]->add(
          dist_by_width[static_cast<std::size_t>(w)]);
  }

  if (report) {
    rep.solve_wall_seconds = solve_watch.elapsed_seconds();
    // Simulated master gather/scatter of traced β data (paper Fig. 6):
    // every worker ships one double per message to rank 0 and receives one
    // byte (the bit choice) back.
    std::size_t traced_bytes = 0;
    for (int d = 1; d < n; ++d)
      for (int p = 0; p < n; ++p)
        traced_bytes += betas[d][p].size() * (sizeof(double) + 1);
    rep.sim_gather_scatter_seconds =
        cluster.transfer_seconds(1 % std::max(n, 2), 0, traced_bytes);
    *report = rep;
  }
  return plan;
}

ExchangePlan sample_uniform_plan(const DistGraph& dist, Direction dir,
                                 Rng& rng) {
  ExchangePlan plan = dir == Direction::kForward
                          ? ExchangePlan::uniform_forward(dist, 8)
                          : ExchangePlan::uniform_backward(dist, 8);
  for (auto& per_device : plan.bits)
    for (auto& per_peer : per_device)
      for (int& b : per_peer) b = kBitChoices[rng.uniform_int(3)];
  return plan;
}

}  // namespace adaqp
