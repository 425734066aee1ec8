#include "core/tveg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/dts_points.hpp"
#include "support/math.hpp"

namespace tveg::core {
namespace {

channel::RadioParams test_radio() {
  channel::RadioParams r;
  r.noise_density = 4.32e-21;
  r.decoding_threshold_db = 25.9;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

trace::ContactTrace test_trace() {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 50.0, 2.0});
  t.add({0, 1, 60.0, 90.0, 4.0});  // same pair, farther later
  t.add({1, 2, 20.0, 80.0, 3.0});
  t.sort();
  return t;
}

TEST(Tveg, DistanceProfileFollowsContacts) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  // A step ED function's threshold is the radio's cost at the distance the
  // profile holds at t.
  const channel::RadioParams radio = test_radio();
  const auto cost_at = [&](NodeId a, NodeId b, Time t) {
    return tveg.ed_function(a, b, t)->min_cost_for(0.5);
  };
  EXPECT_DOUBLE_EQ(cost_at(0, 1, 10.0), radio.step_min_cost(2.0));
  EXPECT_DOUBLE_EQ(cost_at(0, 1, 70.0), radio.step_min_cost(4.0));
  EXPECT_DOUBLE_EQ(cost_at(1, 2, 30.0), radio.step_min_cost(3.0));
  EXPECT_THROW(tveg.ed_function(0, 2, 30.0), std::invalid_argument);
}

TEST(Tveg, StepFailureProbabilityIsBinary) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  const Cost w = tveg.radio().step_min_cost(2.0);
  EXPECT_DOUBLE_EQ(tveg.failure_probability(0, 1, 10.0, w), 0.0);
  EXPECT_DOUBLE_EQ(tveg.failure_probability(0, 1, 10.0, w * 0.99), 1.0);
}

TEST(Tveg, FailureIsOneWhenNotAdjacent) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  // Property 3.1(iii): edge absent → φ = 1 regardless of cost.
  EXPECT_DOUBLE_EQ(tveg.failure_probability(0, 1, 55.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(tveg.failure_probability(0, 2, 10.0, 1.0), 1.0);
}

TEST(Tveg, RayleighFailureMatchesFormula) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kRayleigh});
  const double beta = tveg.radio().rayleigh_beta(2.0);
  const Cost w = beta * 3.0;
  EXPECT_NEAR(tveg.failure_probability(0, 1, 10.0, w),
              1.0 - std::exp(-1.0 / 3.0), 1e-12);
}

TEST(Tveg, EdgeWeightStepIsMinimumDecodableCost) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  EXPECT_NEAR(tveg.edge_weight(0, 1, 10.0), tveg.radio().step_min_cost(2.0),
              1e-30);
  EXPECT_TRUE(std::isinf(tveg.edge_weight(0, 1, 55.0)));
}

TEST(Tveg, EdgeWeightRayleighIsEpsilonCost) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kRayleigh});
  const double beta = tveg.radio().rayleigh_beta(2.0);
  EXPECT_NEAR(tveg.edge_weight(0, 1, 10.0), beta / std::log(1 / 0.99), 1e-25);
  // Fading ε-cost is ~100× the step cost at ε = 0.01.
  Tveg step(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  EXPECT_GT(tveg.edge_weight(0, 1, 10.0), 90 * step.edge_weight(0, 1, 10.0));
}

TEST(Tveg, DiscreteCostSetSortedAscending) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  const auto dcs = tveg.discrete_cost_set(1, 30.0);
  ASSERT_EQ(dcs.size(), 2u);  // neighbors 0 (d=2) and 2 (d=3)
  EXPECT_EQ(dcs[0].neighbor, 0);
  EXPECT_EQ(dcs[1].neighbor, 2);
  EXPECT_LT(dcs[0].cost, dcs[1].cost);
}

TEST(Tveg, DiscreteCostSetEmptyWhenIsolated) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  EXPECT_TRUE(tveg.discrete_cost_set(2, 90.0).empty());
}

TEST(Tveg, ChannelBreakpointsAtProfileChanges) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  const auto bp = tveg.channel_breakpoints();
  ASSERT_EQ(bp.size(), 3u);
  // Edge 0-1 changes distance at t = 60 → breakpoint on nodes 0 and 1.
  EXPECT_EQ(bp[0], (std::vector<Time>{60.0}));
  EXPECT_EQ(bp[1], (std::vector<Time>{60.0}));
  EXPECT_TRUE(bp[2].empty());
}

TEST(Tveg, BuildDtsIncludesChannelBreakpoints) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  const auto dts = tveg.build_dts();
  EXPECT_TRUE(oracle::dts_has_point(dts, 0, 60.0));
  EXPECT_TRUE(oracle::dts_has_point(dts, 1, 60.0));
}

TEST(Tveg, NakagamiAndRicianModelsMaterialize) {
  Tveg nak(test_trace(), test_radio(),
           {.model = channel::ChannelModel::kNakagami,
            .tau = 0.0,
            .nakagami_m = 2.0});
  Tveg ric(test_trace(), test_radio(),
           {.model = channel::ChannelModel::kRician,
            .tau = 0.0,
            .rician_k = 3.0});
  const double pn = nak.failure_probability(0, 1, 10.0, 1e-15);
  const double pr = ric.failure_probability(0, 1, 10.0, 1e-15);
  EXPECT_GT(pn, 0.0);
  EXPECT_LT(pn, 1.0);
  EXPECT_GT(pr, 0.0);
  EXPECT_LT(pr, 1.0);
}

TEST(Tveg, EdFunctionRequiresAdjacency) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep});
  EXPECT_THROW(tveg.ed_function(0, 1, 55.0), std::invalid_argument);
}

TEST(Tveg, LatencyShrinksAdjacency) {
  Tveg tveg(test_trace(), test_radio(),
            {.model = channel::ChannelModel::kStep, .tau = 5.0});
  EXPECT_DOUBLE_EQ(tveg.latency(), 5.0);
  EXPECT_TRUE(tveg.graph().adjacent(0, 1, 44.0));
  EXPECT_FALSE(tveg.graph().adjacent(0, 1, 46.0));  // 46+5 > 50
}

}  // namespace
}  // namespace tveg::core
