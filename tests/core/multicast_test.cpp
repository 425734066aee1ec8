// Multicast generalization: TmedbInstance::targets restricts condition (ii)
// to a terminal subset. The MEMT problem the paper reduces to is natively
// multicast, so the whole EEDCB/FR-EEDCB pipeline supports it.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/brute_force.hpp"
#include "core/eedcb.hpp"
#include "core/fr.hpp"
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

/// Star: source 0; node 1 near (d=1), node 2 far (d=3).
Tveg star() {
  trace::ContactTrace t(3, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({0, 2, 0.0, 10.0, 3.0});
  return Tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
}

TEST(Multicast, SubsetIsCheaperThanBroadcast) {
  const Tveg tveg = star();
  TmedbInstance multicast{&tveg, 0, 10.0};
  multicast.targets = {1};  // only the near node matters
  const auto r = run_eedcb(multicast);
  ASSERT_TRUE(r.covered_all);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 1.0);  // not 9

  TmedbInstance broadcast{&tveg, 0, 10.0};
  const auto rb = run_eedcb(broadcast);
  ASSERT_TRUE(rb.covered_all);
  EXPECT_DOUBLE_EQ(rb.schedule.total_cost(), 9.0);
}

TEST(Multicast, FeasibilityIgnoresNonTargets) {
  const Tveg tveg = star();
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {1};
  Schedule s;
  s.add(0, 1.0, 1.0);  // reaches 1 only
  const auto report = check_feasibility(inst, s);
  EXPECT_TRUE(report.feasible) << report.reason;
  // The same schedule fails the broadcast version.
  TmedbInstance broadcast{&tveg, 0, 10.0};
  EXPECT_FALSE(check_feasibility(broadcast, s).feasible);
}

TEST(Multicast, NonTargetServesAsRelay) {
  // Source 0 reaches target 2 only through non-target 1.
  trace::ContactTrace t(3, 20.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({1, 2, 10.0, 20.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  TmedbInstance inst{&tveg, 0, 20.0};
  inst.targets = {2};
  const auto r = run_eedcb(inst);
  ASSERT_TRUE(r.covered_all);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule.transmissions()[0].relay, 0);
  EXPECT_EQ(r.schedule.transmissions()[1].relay, 1);
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Multicast, BruteForceAgreesOnSubsetGoal) {
  const Tveg tveg = star();
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {1};
  const auto r = brute_force_optimal(inst);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
}

TEST(Multicast, FrPipelineAllocatesForTargetsOnly) {
  trace::ContactTrace t(3, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({0, 2, 0.0, 10.0, 3.0});
  const Tveg tveg(t, unit_radio(),
                  {.model = channel::ChannelModel::kRayleigh});
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {1};
  const auto r = run_fr_eedcb(inst);
  ASSERT_TRUE(r.feasible());
  EXPECT_TRUE(check_feasibility(inst, r.schedule()).feasible);
  // Serving only the near node is far cheaper than ε-covering the far one.
  const double near_eps_cost =
      tveg.radio().rayleigh_beta(1.0) / std::log(1 / 0.99);
  EXPECT_LE(r.schedule().total_cost(), near_eps_cost * 1.01);
}

TEST(Multicast, BaselinesRejectTargetSubsets) {
  const Tveg tveg = star();
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {1};
  EXPECT_THROW(run_baseline(inst, tveg.build_dts(),
                            {.rule = BaselineRule::kGreedy}),
               std::invalid_argument);
}

TEST(Multicast, TargetValidation) {
  const Tveg tveg = star();
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {7};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace tveg::core
