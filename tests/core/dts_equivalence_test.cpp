// Executable validation of the paper's Sec. V theory: restricting TMEDB to
// the discrete time set loses nothing (Theorem 5.2), because any feasible
// schedule can be shifted to earliest transmission times (ET-law,
// Prop. 5.1) without changing cost or feasibility.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/brute_force.hpp"
#include "core/eedcb.hpp"
#include "oracle/dts_points.hpp"
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

Tveg random_step_tveg(std::uint64_t seed, NodeId nodes = 5) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 25;
  cfg.horizon = 150;
  cfg.p = 0.35;
  cfg.min_distance = 1.0;
  cfg.max_distance = 4.0;
  cfg.seed = seed;
  return Tveg(trace::generate_snapshots(cfg), unit_radio(),
              {.model = channel::ChannelModel::kStep});
}

/// Theorem 5.2, empirical form: the optimum restricted to DTS time points
/// equals the optimum over a much finer candidate grid. (The optimum over
/// ALL continuous times is not enumerable, but any violation of the theorem
/// would show up as a cheaper schedule on the refinement.)
TEST(DtsEquivalence, OptimumOnDtsEqualsOptimumOnRefinedGrid) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Tveg tveg = random_step_tveg(seed);
    const TmedbInstance inst{&tveg, 0, 150.0};
    const auto dts = tveg.build_dts();

    const BruteForceResult on_dts =
        brute_force_optimal(inst, dts.global_points());

    // Refinement: DTS points plus a uniform grid of 150 extra candidates.
    std::vector<Time> refined = dts.global_points();
    for (int i = 0; i < 150; ++i) refined.push_back(i * 1.0);
    const BruteForceResult on_refined = brute_force_optimal(inst, refined);

    ASSERT_EQ(on_dts.feasible, on_refined.feasible) << "seed " << seed;
    if (!on_dts.feasible) continue;
    EXPECT_NEAR(on_dts.cost, on_refined.cost, 1e-9) << "seed " << seed;
  }
}

/// A mid-interval grid strictly between DTS points can't beat the DTS even
/// on a deliberately adversarial instance with staggered contacts.
TEST(DtsEquivalence, MidIntervalTimesGiveNoAdvantage) {
  trace::ContactTrace t(4, 100.0);
  t.add({0, 1, 10.0, 30.0, 1.0});
  t.add({0, 2, 20.0, 50.0, 2.0});
  t.add({1, 3, 25.0, 60.0, 1.5});
  t.add({2, 3, 55.0, 90.0, 1.0});
  const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();

  const BruteForceResult on_dts =
      brute_force_optimal(inst, dts.global_points());
  std::vector<Time> dense;
  for (double x = 0; x <= 100.0; x += 0.5) dense.push_back(x);
  const BruteForceResult on_dense = brute_force_optimal(inst, dense);

  ASSERT_TRUE(on_dts.feasible);
  ASSERT_TRUE(on_dense.feasible);
  EXPECT_NEAR(on_dts.cost, on_dense.cost, 1e-9);
}

/// ET-law (Prop. 5.1): pushing any transmission of a feasible schedule to
/// the start of its DTS interval (not earlier than the relay's informed
/// time) preserves feasibility and cost.
TEST(EtLaw, ShiftToIntervalStartPreservesFeasibility) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Tveg tveg = random_step_tveg(seed);
    const TmedbInstance inst{&tveg, 0, 150.0};
    const SchedulerResult r = run_eedcb(inst);
    if (!r.covered_all) continue;
    ASSERT_TRUE(check_feasibility(inst, r.schedule).feasible);

    // Perturb: move every transmission later within its adjacency interval
    // (still before the interval's end and before any contact change), then
    // shift back per ET-law. Both steps must preserve feasibility; the
    // ET-law shift restores the original cost.
    const auto dts = tveg.build_dts();
    Schedule perturbed;
    for (const Transmission& tx : r.schedule.transmissions()) {
      const auto& pts = dts.points(tx.relay);
      auto it = std::upper_bound(pts.begin(), pts.end(), tx.time + 1e-9);
      const Time interval_end = it == pts.end() ? tveg.horizon() : *it;
      // Nudge 10% into the interval (bounded by the deadline).
      const Time nudged = std::min(
          tx.time + 0.1 * (interval_end - tx.time), inst.deadline);
      perturbed.add(tx.relay, nudged, tx.cost);
    }
    // ET-law shift: move each transmission back to its interval start.
    Schedule shifted;
    for (const Transmission& tx : perturbed.transmissions()) {
      const auto& pts = dts.points(tx.relay);
      auto it = std::upper_bound(pts.begin(), pts.end(), tx.time + 1e-9);
      ASSERT_NE(it, pts.begin());
      shifted.add(tx.relay, *(it - 1), tx.cost);
    }
    const auto report = check_feasibility(inst, shifted);
    EXPECT_TRUE(report.feasible) << "seed " << seed << ": " << report.reason;
    EXPECT_DOUBLE_EQ(shifted.total_cost(), r.schedule.total_cost());
  }
}

/// The aux-graph pipeline (EEDCB) only schedules at DTS points — the
/// structural property Sec. VI-A relies on.
TEST(DtsEquivalence, EedcbSchedulesOnDtsPointsOnly) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tveg tveg = random_step_tveg(seed, 6);
    const TmedbInstance inst{&tveg, 0, 150.0};
    const auto dts = tveg.build_dts();
    const SchedulerResult r = run_eedcb(inst, dts);
    for (const Transmission& tx : r.schedule.transmissions())
      EXPECT_TRUE(oracle::dts_has_point(dts, tx.relay, tx.time))
          << "seed " << seed << " relay " << tx.relay << " t " << tx.time;
  }
}

}  // namespace
}  // namespace tveg::core
