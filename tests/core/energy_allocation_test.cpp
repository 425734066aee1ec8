#include "core/energy_allocation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/eedcb.hpp"
#include "core/fr.hpp"
#include "support/math.hpp"
#include "trace/generators.hpp"

namespace tveg::core {
namespace {

channel::RadioParams test_radio() {
  channel::RadioParams r;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

Tveg line_rayleigh() {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({1, 2, 0.0, 100.0, 1.0});
  return Tveg(t, test_radio(), {.model = channel::ChannelModel::kRayleigh});
}

TEST(AllocateEnergy, SingleHopChainMatchesEpsilonCosts) {
  const Tveg tveg = line_rayleigh();
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(0, 10.0, 1.0);
  backbone.add(1, 20.0, 1.0);
  const AllocationOutcome out = allocate_energy(inst, backbone);
  ASSERT_TRUE(out.feasible);
  // Each receiver covered exactly once → each w equals the ε-cost.
  const double expected = tveg.radio().rayleigh_beta(1.0) / std::log(1 / 0.99);
  ASSERT_EQ(out.schedule.size(), 2u);
  for (const auto& tx : out.schedule.transmissions())
    EXPECT_NEAR(tx.cost, expected, expected * 1e-6);
  EXPECT_TRUE(check_feasibility(inst, out.schedule).feasible);
}

TEST(AllocateEnergy, OverlappingCoverageIsCheaperThanIndependent) {
  // Both 1 and 2 hear the source AND each other: the solver can split the
  // failure budget.
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({0, 2, 0.0, 100.0, 1.0});
  t.add({1, 2, 0.0, 100.0, 1.0});
  const Tveg tveg(t, test_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(0, 10.0, 1.0);
  backbone.add(1, 20.0, 1.0);
  backbone.add(2, 30.0, 1.0);
  const AllocationOutcome out = allocate_energy(inst, backbone);
  ASSERT_TRUE(out.feasible);
  EXPECT_TRUE(check_feasibility(inst, out.schedule).feasible);
  // Strictly cheaper than serving each node independently at ε.
  const double eps_cost =
      tveg.radio().rayleigh_beta(1.0) / std::log(1 / 0.99);
  EXPECT_LT(out.schedule.total_cost(), 3 * eps_cost);
}

TEST(AllocateEnergy, RejectsBackboneWithUnreachableNode) {
  const Tveg tveg = line_rayleigh();
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(0, 10.0, 1.0);  // node 2 is never reached
  const AllocationOutcome out = allocate_energy(inst, backbone);
  EXPECT_FALSE(out.feasible);
}

TEST(AllocateEnergy, RejectsCircularSameTimeBackbone) {
  trace::ContactTrace t(3, 100.0);
  t.add({1, 2, 0.0, 100.0, 1.0});
  t.add({0, 1, 50.0, 100.0, 1.0});
  const Tveg tveg(t, test_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(1, 10.0, 1.0);  // 1 uninformed: only 2 could inform it, at
  backbone.add(2, 10.0, 1.0);  // the same instant, and vice versa
  const AllocationOutcome out = allocate_energy(inst, backbone);
  EXPECT_FALSE(out.feasible);
}

TEST(AllocateEnergy, AcceptsSameTimeCascadeInCausalOrder) {
  const Tveg tveg = line_rayleigh();
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(0, 10.0, 1.0);
  backbone.add(1, 10.0, 1.0);  // legal non-stop journey at τ = 0
  const AllocationOutcome out = allocate_energy(inst, backbone);
  ASSERT_TRUE(out.feasible);
  EXPECT_TRUE(check_feasibility(inst, out.schedule).feasible);
}

TEST(AllocateEnergy, EmptyBackboneOnlyFeasibleForSingleton) {
  const Tveg tveg = line_rayleigh();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const AllocationOutcome out = allocate_energy(inst, Schedule{});
  EXPECT_FALSE(out.feasible);
}

TEST(AllocateEnergy, AugmentedLagrangianSolverAlsoFeasible) {
  const Tveg tveg = line_rayleigh();
  const TmedbInstance inst{&tveg, 0, 100.0};
  Schedule backbone;
  backbone.add(0, 10.0, 1.0);
  backbone.add(1, 20.0, 1.0);
  const AllocationOutcome cd = allocate_energy(
      inst, backbone, {.solver = AllocationSolver::kCoordinateDescent});
  const AllocationOutcome al = allocate_energy(
      inst, backbone, {.solver = AllocationSolver::kAugmentedLagrangian});
  ASSERT_TRUE(cd.feasible);
  ASSERT_TRUE(al.feasible);
  EXPECT_TRUE(check_feasibility(inst, al.schedule).feasible);
  // Within 10% of each other on this simple chain.
  EXPECT_NEAR(al.schedule.total_cost(), cd.schedule.total_cost(),
              0.1 * cd.schedule.total_cost());
}

TEST(FrEedcb, EndToEndFeasibleUnderFading) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 10;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.5;
  cfg.seed = 6;
  const Tveg tveg(trace::generate_haggle_like(cfg), test_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const FrResult r = run_fr_eedcb(inst);
  ASSERT_TRUE(r.feasible());
  const auto report = check_feasibility(inst, r.schedule());
  EXPECT_TRUE(report.feasible) << report.reason;
  EXPECT_GT(r.allocation.constraint_count, 0u);
}

TEST(FrBaseline, EndToEndFeasibleUnderFading) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 10;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.5;
  cfg.seed = 6;
  const Tveg tveg(trace::generate_haggle_like(cfg), test_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const FrResult greedy = run_fr_baseline(inst, tveg.build_dts(),
                                          {.rule = BaselineRule::kGreedy});
  ASSERT_TRUE(greedy.feasible());
  EXPECT_TRUE(check_feasibility(inst, greedy.schedule()).feasible);

  const FrResult rnd = run_fr_baseline(
      inst, tveg.build_dts(), {.rule = BaselineRule::kRandom, .seed = 2});
  ASSERT_TRUE(rnd.feasible());
  EXPECT_TRUE(check_feasibility(inst, rnd.schedule()).feasible);
}

}  // namespace
}  // namespace tveg::core
