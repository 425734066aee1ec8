#include "core/baselines.hpp"

#include <gtest/gtest.h>

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

Tveg haggle_step_tveg(NodeId nodes = 12, std::uint64_t seed = 3) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.5;
  cfg.seed = seed;
  return Tveg(trace::generate_haggle_like(cfg), test_radio(),
              {.model = channel::ChannelModel::kStep});
}

TEST(Greed, ProducesFeasibleSchedule) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  BaselineOptions opt;
  opt.rule = BaselineRule::kGreedy;
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(), opt);
  ASSERT_TRUE(r.covered_all);
  const auto report = check_feasibility(inst, r.schedule);
  EXPECT_TRUE(report.feasible) << report.reason;
}

TEST(Rand, ProducesFeasibleSchedule) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  BaselineOptions opt;
  opt.rule = BaselineRule::kRandom;
  opt.seed = 17;
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(), opt);
  ASSERT_TRUE(r.covered_all);
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Rand, DeterministicPerSeed) {
  const Tveg tveg = haggle_step_tveg();
  const TmedbInstance inst{&tveg, 0, 5000.0};
  const auto dts = tveg.build_dts();
  BaselineOptions opt;
  opt.rule = BaselineRule::kRandom;
  opt.seed = 5;
  const auto a = run_baseline(inst, dts, opt);
  const auto b = run_baseline(inst, dts, opt);
  EXPECT_EQ(a.schedule.transmissions(), b.schedule.transmissions());
}

TEST(Greed, PicksWidestCoverageFirst) {
  // Source 0 adjacent to 1, 2, 3; node 4 reachable only through 3.
  trace::ContactTrace t(5, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({0, 2, 0.0, 100.0, 2.0});
  t.add({0, 3, 0.0, 100.0, 3.0});
  t.add({3, 4, 0.0, 100.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(),
                                         {.rule = BaselineRule::kGreedy});
  ASSERT_TRUE(r.covered_all);
  // First action: source covers all three neighbors at the cost of the
  // farthest (minimal sufficient DCS level), then 3 relays to 4.
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule.transmissions()[0].relay, 0);
  EXPECT_NEAR(r.schedule.transmissions()[0].cost,
              tveg.radio().step_min_cost(3.0), 1e-30);
  EXPECT_EQ(r.schedule.transmissions()[1].relay, 3);
}

TEST(Greed, WaitsForLaterContacts) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(),
                                         {.rule = BaselineRule::kGreedy});
  ASSERT_TRUE(r.covered_all);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_GE(r.schedule.transmissions()[1].time, 50.0);
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Greed, RespectsDeadline) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 40.0};  // node 2's contact is too late
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(),
                                         {.rule = BaselineRule::kGreedy});
  EXPECT_FALSE(r.covered_all);
  for (const auto& tx : r.schedule.transmissions())
    EXPECT_LE(tx.time, 40.0);
}

TEST(Baselines, GreedNeverCostlierThanRandOnAverage) {
  // Averaged over sources and seeds, GREED ≤ RAND (the paper's ordering).
  double greed_total = 0, rand_total = 0;
  int runs = 0;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    const Tveg tveg = haggle_step_tveg(12, seed);
    const auto dts = tveg.build_dts();
    for (NodeId src : {0, 5}) {
      const TmedbInstance inst{&tveg, src, 5500.0};
      const auto g =
          run_baseline(inst, dts, {.rule = BaselineRule::kGreedy});
      const auto r = run_baseline(
          inst, dts, {.rule = BaselineRule::kRandom, .seed = seed});
      if (!g.covered_all || !r.covered_all) continue;
      greed_total += g.schedule.total_cost();
      rand_total += r.schedule.total_cost();
      ++runs;
    }
  }
  ASSERT_GT(runs, 2);
  EXPECT_LE(greed_total, rand_total * 1.05);
}

TEST(Baselines, SourceOnlyInstanceTrivial) {
  trace::ContactTrace t(2, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 10.0};
  const SchedulerResult r = run_baseline(inst, tveg.build_dts(),
                                         {.rule = BaselineRule::kGreedy});
  ASSERT_TRUE(r.covered_all);
  EXPECT_EQ(r.schedule.size(), 1u);
}

}  // namespace
}  // namespace tveg::core
