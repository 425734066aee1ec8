#include "core/bip.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/brute_force.hpp"
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

TEST(Bip, SingleHopStarUsesIncrementalLevels) {
  trace::ContactTrace t(4, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({0, 2, 0.0, 10.0, 2.0});
  t.add({0, 3, 0.0, 10.0, 3.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 10.0};
  const auto r = run_bip(inst, tveg.build_dts());
  ASSERT_TRUE(r.covered_all);
  // Increments 1, then 4−1, then 9−4 — one transmission at the top level.
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 9.0);
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Bip, PrefersCheapRelayOverPowerRaise) {
  // Raising 0's power to reach 2 directly costs 9 − 1 = 8; relaying via 1
  // costs 1. BIP must relay.
  trace::ContactTrace t(3, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({0, 2, 0.0, 10.0, 3.0});
  t.add({1, 2, 0.0, 10.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 10.0};
  const auto r = run_bip(inst, tveg.build_dts());
  ASSERT_TRUE(r.covered_all);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 2.0);  // 0→1 (1) + 1→2 (1)
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Bip, WaitsForLaterContacts) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto r = run_bip(inst, tveg.build_dts());
  ASSERT_TRUE(r.covered_all);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_GE(r.schedule.transmissions()[1].time, 50.0);
  EXPECT_TRUE(check_feasibility(inst, r.schedule).feasible);
}

TEST(Bip, RespectsDeadline) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 40.0};
  const auto r = run_bip(inst, tveg.build_dts());
  EXPECT_FALSE(r.covered_all);
  for (const auto& tx : r.schedule.transmissions())
    EXPECT_LE(tx.time, 40.0 + 1e-9);
}

TEST(Bip, FeasibleAndBoundedOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 7;
    cfg.slot = 25;
    cfg.horizon = 175;
    cfg.p = 0.3;
    cfg.seed = seed;
    const Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
                    {.model = channel::ChannelModel::kStep});
    const TmedbInstance inst{&tveg, 0, 175.0};
    const auto opt = brute_force_optimal(inst);
    const auto bip = run_bip(inst, tveg.build_dts());
    ASSERT_EQ(bip.covered_all, opt.feasible) << "seed " << seed;
    if (!opt.feasible) continue;
    EXPECT_TRUE(check_feasibility(inst, bip.schedule).feasible)
        << "seed " << seed;
    EXPECT_GE(bip.schedule.total_cost(), opt.cost - 1e-9) << "seed " << seed;
  }
}

TEST(Bip, BroadcastOnly) {
  trace::ContactTrace t(2, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  TmedbInstance inst{&tveg, 0, 10.0};
  inst.targets = {1};
  EXPECT_THROW(run_bip(inst, tveg.build_dts()), std::invalid_argument);
}

}  // namespace
}  // namespace tveg::core
