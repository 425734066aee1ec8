// Cross-validation of the Sec. VI-A reduction: solving the auxiliary graph
// EXACTLY (subset-DP directed Steiner) must yield the same optimal cost as
// the brute-force TMEDB state-space search. Together with
// dts_equivalence_test this pins down the whole chain
//   TMEDB on continuous time == TMEDB on DTS == MEMT on the aux graph.
#include <gtest/gtest.h>

#include "core/aux_graph.hpp"
#include "core/brute_force.hpp"
#include "graph/steiner.hpp"
#include "oracle/graph_oracle.hpp"
#include "support/math.hpp"
#include "trace/generators.hpp"

namespace tveg::core {
namespace {

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

TEST(ReductionOptimality, ExactSteinerOnAuxEqualsBruteForce) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 5;
    cfg.slot = 30;
    cfg.horizon = 150;
    cfg.p = 0.3;
    cfg.min_distance = 1.0;
    cfg.max_distance = 4.0;
    cfg.seed = seed;
    const Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
                    {.model = channel::ChannelModel::kStep});
    const TmedbInstance inst{&tveg, 0, 150.0};
    const auto dts = tveg.build_dts();

    const BruteForceResult opt = brute_force_optimal(inst);

    const AuxGraph aux(inst, dts);
    const auto tree = oracle::exact_steiner(aux.digraph(), aux.source_vertex(),
                                            aux.terminals());

    ASSERT_EQ(opt.feasible, tree.feasible) << "seed " << seed;
    if (!opt.feasible) continue;
    EXPECT_NEAR(opt.cost, tree.cost, 1e-9) << "seed " << seed;

    // The exact tree reconstructs into an optimal, feasible SCHEDULE.
    const Schedule optimal_schedule = aux.extract_schedule(tree);
    EXPECT_NEAR(optimal_schedule.total_cost(), opt.cost, 1e-9)
        << "seed " << seed;
    EXPECT_TRUE(check_feasibility(inst, optimal_schedule).feasible)
        << "seed " << seed;
    ++compared;
  }
  EXPECT_GE(compared, 4);  // enough feasible instances actually compared
}

TEST(ReductionOptimality, HeuristicsBracketedByExact) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 6;
    cfg.slot = 25;
    cfg.horizon = 125;
    cfg.p = 0.35;
    cfg.seed = seed;
    const Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
                    {.model = channel::ChannelModel::kStep});
    const TmedbInstance inst{&tveg, 0, 125.0};
    const auto dts = tveg.build_dts();
    const AuxGraph aux(inst, dts);
    graph::SteinerSolver solver(aux.digraph());

    const auto exact = oracle::exact_steiner(aux.digraph(), aux.source_vertex(),
                                             aux.terminals());
    if (!exact.feasible) continue;
    const auto spt = solver.shortest_path_heuristic(aux.source_vertex(),
                                                    aux.terminals());
    const auto greedy =
        solver.recursive_greedy(aux.source_vertex(), aux.terminals(), 2);
    EXPECT_LE(exact.cost, spt.cost + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.cost, greedy.cost + 1e-9) << "seed " << seed;
    // Level-2 recursive greedy on these tiny instances stays within the
    // paper's approximation regime by a wide margin (factor O(√N) ≈ 2.4).
    EXPECT_LE(greedy.cost, exact.cost * 3.0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tveg::core
