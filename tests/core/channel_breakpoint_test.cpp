// Channel variation *within* a contact (DESIGN.md, interpretive decision
// 5): when a pair stays connected but its distance changes, the breakpoint
// must enter the DTS so the scheduler can react — e.g. wait for the pair to
// get closer and transmit cheaper.
#include <gtest/gtest.h>

#include "core/eedcb.hpp"
#include "oracle/dts_points.hpp"
#include "support/math.hpp"

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

/// 0 and 1 are continuously connected on [0, 100), but far (d = 5) until
/// t = 50 and close (d = 1) afterwards: abutting contacts with different
/// distances merge into one presence interval with a channel breakpoint.
Tveg approaching_pair() {
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 0.0, 50.0, 5.0});
  t.add({0, 1, 50.0, 100.0, 1.0});
  return Tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
}

TEST(ChannelBreakpoint, PresenceMergesButWeightChanges) {
  const Tveg tveg = approaching_pair();
  // One merged presence interval...
  EXPECT_EQ(tveg.graph().presence(0, 1).size(), 1u);
  // ...but the edge weight drops at the breakpoint (25 = 5², 1 = 1²).
  EXPECT_DOUBLE_EQ(tveg.edge_weight(0, 1, 25.0), 25.0);
  EXPECT_DOUBLE_EQ(tveg.edge_weight(0, 1, 60.0), 1.0);
}

TEST(ChannelBreakpoint, BreakpointEntersDts) {
  const Tveg tveg = approaching_pair();
  const auto dts = tveg.build_dts();
  EXPECT_TRUE(oracle::dts_has_point(dts, 0, 50.0));
  EXPECT_TRUE(oracle::dts_has_point(dts, 1, 50.0));
}

TEST(ChannelBreakpoint, EedcbWaitsForTheCheapMoment) {
  const Tveg tveg = approaching_pair();
  const TmedbInstance loose{&tveg, 0, 100.0};
  const auto r = run_eedcb(loose);
  ASSERT_TRUE(r.covered_all);
  ASSERT_EQ(r.schedule.size(), 1u);
  // With time to spare, transmit after t = 50 at cost 1 instead of 25.
  EXPECT_GE(r.schedule.transmissions()[0].time, 50.0);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 1.0);
}

TEST(ChannelBreakpoint, TightDeadlineForcesTheExpensiveMoment) {
  const Tveg tveg = approaching_pair();
  const TmedbInstance tight{&tveg, 0, 30.0};
  const auto r = run_eedcb(tight);
  ASSERT_TRUE(r.covered_all);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 25.0);
  EXPECT_TRUE(check_feasibility(tight, r.schedule).feasible);
}

TEST(ChannelBreakpoint, FeasibilityUsesTimeCorrectWeights) {
  const Tveg tveg = approaching_pair();
  const TmedbInstance inst{&tveg, 0, 100.0};
  // Cost 1 at t = 25 (still far) does NOT inform node 1...
  Schedule cheap_too_early;
  cheap_too_early.add(0, 25.0, 1.0);
  EXPECT_FALSE(check_feasibility(inst, cheap_too_early).feasible);
  // ...but the same cost at t = 60 (close) does.
  Schedule cheap_later;
  cheap_later.add(0, 60.0, 1.0);
  EXPECT_TRUE(check_feasibility(inst, cheap_later).feasible);
}

}  // namespace
}  // namespace tveg::core
