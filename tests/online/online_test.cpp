#include "online/driver.hpp"

#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "core/energy_allocation.hpp"
#include "support/math.hpp"
#include "trace/generators.hpp"

namespace tveg::online {
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

/// 0 meets 1 alone early; later 0 meets 1, 2, 3 simultaneously.
/// One online run over the instance's own DTS.
core::SchedulerResult run_own_dts(const core::TmedbInstance& inst,
                                  Policy& policy,
                                  const OnlineOptions& options = {}) {
  return run_online(inst, inst.tveg->build_dts(), policy, options);
}

core::Tveg staged_star() {
  trace::ContactTrace t(4, 100.0);
  t.add({0, 1, 0.0, 20.0, 2.0});
  t.add({0, 1, 50.0, 90.0, 2.0});
  t.add({0, 2, 50.0, 90.0, 2.0});
  t.add({0, 3, 50.0, 90.0, 2.0});
  return core::Tveg(t, unit_radio(),
                    {.model = channel::ChannelModel::kStep});
}

TEST(Epidemic, TransmitsAtFirstOpportunity) {
  const core::Tveg tveg = staged_star();
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  EpidemicPolicy policy;
  const auto r = run_own_dts(inst, policy);
  ASSERT_TRUE(r.covered_all);
  // Epidemic pays twice: once for node 1 at t = 0, once for 2&3 at t = 50.
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_DOUBLE_EQ(r.schedule.transmissions()[0].time, 0.0);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 8.0);  // 4 + 4
  EXPECT_TRUE(core::check_feasibility(inst, r.schedule).feasible);
}

TEST(DeadlineAware, WaitsForTheGoodOpportunity) {
  const core::Tveg tveg = staged_star();
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  DeadlineAwarePolicy policy(/*min_targets=*/2, /*urgency=*/0.1);
  const auto r = run_own_dts(inst, policy);
  ASSERT_TRUE(r.covered_all);
  // Skips the single-target contact at t = 0; one broadcast at t = 50
  // covers all three — beating epidemic's energy.
  ASSERT_EQ(r.schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(r.schedule.transmissions()[0].time, 50.0);
  EXPECT_DOUBLE_EQ(r.schedule.total_cost(), 4.0);
}

TEST(DeadlineAware, PanicsWhenUrgent) {
  // Only the early single-target contact exists before the deadline: the
  // urgency window must force the transmission despite min_targets = 2.
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 80.0, 100.0, 2.0});
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  DeadlineAwarePolicy policy(/*min_targets=*/2, /*urgency=*/0.3);
  const auto r = run_own_dts(inst, policy);
  ASSERT_TRUE(r.covered_all);  // 80 s is inside the 30% urgency window
}

TEST(Gossip, SeededAndDeliversInsideUrgencyWindow) {
  const core::Tveg tveg = staged_star();
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  // Urgency 0.5: the t = 50 opportunity falls inside the panic window, so
  // delivery is guaranteed regardless of the coin flips.
  GossipPolicy policy(0.5, /*urgency=*/0.5);
  const auto a = run_own_dts(inst, policy, {.seed = 3});
  const auto b = run_own_dts(inst, policy, {.seed = 3});
  EXPECT_EQ(a.schedule.transmissions(), b.schedule.transmissions());
  EXPECT_TRUE(a.covered_all);
}

TEST(Gossip, MayMissWithoutFutureKnowledge) {
  // With a narrow urgency window whose span contains no opportunity, a
  // declined coin flip is unrecoverable — the inherent online penalty.
  const core::Tveg tveg = staged_star();
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  GossipPolicy policy(0.5, /*urgency=*/0.05);
  bool missed = false;
  for (std::uint64_t seed = 1; seed <= 20 && !missed; ++seed)
    missed = !run_own_dts(inst, policy, {.seed = seed}).covered_all;
  EXPECT_TRUE(missed);
}

TEST(DeadlineAware, FullUrgencyEqualsEpidemic) {
  const core::Tveg tveg = staged_star();
  const core::TmedbInstance inst{&tveg, 0, 100.0};
  EpidemicPolicy epidemic;
  DeadlineAwarePolicy always(/*min_targets=*/5, /*urgency=*/1.0);
  const auto a = run_own_dts(inst, epidemic);
  const auto b = run_own_dts(inst, always);
  EXPECT_EQ(a.schedule.transmissions(), b.schedule.transmissions());
}

TEST(Online, NeverBeatsTheOfflineOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 6;
    cfg.slot = 25;
    cfg.horizon = 150;
    cfg.p = 0.35;
    cfg.seed = seed;
    const core::Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
                          {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance inst{&tveg, 0, 150.0};
    const auto opt = brute_force_optimal(inst);
    // Epidemic transmits at every opportunity, so it covers exactly what is
    // temporally reachable: coverage must match offline feasibility.
    EpidemicPolicy epidemic;
    {
      const auto r = run_own_dts(inst, epidemic);
      ASSERT_EQ(r.covered_all, opt.feasible) << "seed " << seed;
      if (opt.feasible) {
        EXPECT_GE(r.schedule.total_cost(), opt.cost - 1e-9) << "seed " << seed;
        EXPECT_TRUE(core::check_feasibility(inst, r.schedule).feasible)
            << "seed " << seed;
      }
    }
    // Deadline-aware may miss coverage (the online penalty), but when it
    // covers, it is feasible and no cheaper than the optimum.
    DeadlineAwarePolicy aware(2);
    {
      const auto r = run_own_dts(inst, aware);
      if (opt.feasible && r.covered_all) {
        EXPECT_GE(r.schedule.total_cost(), opt.cost - 1e-9) << "seed " << seed;
        EXPECT_TRUE(core::check_feasibility(inst, r.schedule).feasible)
            << "seed " << seed;
      }
      if (!opt.feasible) {
        EXPECT_FALSE(r.covered_all) << "seed " << seed;
      }
    }
  }
}

TEST(Online, SameTimeCascadeWorks) {
  // 0-1 and 1-2 live simultaneously; with τ = 0 epidemic relays through 1
  // within the same event time.
  trace::ContactTrace t(3, 50.0);
  t.add({0, 1, 0.0, 50.0, 1.0});
  t.add({1, 2, 0.0, 50.0, 1.0});
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 50.0};
  EpidemicPolicy policy;
  const auto r = run_own_dts(inst, policy);
  ASSERT_TRUE(r.covered_all);
  EXPECT_DOUBLE_EQ(r.schedule.latest_finish(0.0), 0.0);  // all at t = 0
}

TEST(Online, ComposesWithNlpAllocation) {
  // "Online FR": run an online backbone under fading weights, then let the
  // NLP choose the powers — the same composition FR-GREED uses.
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 10;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 500;
  cfg.pair_probability = 0.6;
  cfg.seed = 12;
  auto radio = unit_radio();
  radio.noise_density = 4.32e-21;
  radio.decoding_threshold_db = 25.9;
  const core::Tveg tveg(trace::generate_haggle_like(cfg), radio,
                        {.model = channel::ChannelModel::kRayleigh});
  const core::TmedbInstance inst{&tveg, 0, 5000.0};
  EpidemicPolicy policy;
  const auto backbone = run_own_dts(inst, policy);
  ASSERT_TRUE(backbone.covered_all);
  const auto alloc = allocate_energy(inst, backbone.schedule);
  ASSERT_TRUE(alloc.feasible);
  EXPECT_TRUE(core::check_feasibility(inst, alloc.schedule).feasible);
}

TEST(Online, RejectsMulticastInstances) {
  const core::Tveg tveg = staged_star();
  core::TmedbInstance inst{&tveg, 0, 100.0};
  inst.targets = {1};
  EpidemicPolicy policy;
  EXPECT_THROW(run_own_dts(inst, policy), std::invalid_argument);
}

}  // namespace
}  // namespace tveg::online
