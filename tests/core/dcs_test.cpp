// Property 6.1 and Proposition 6.1 as executable checks: discrete cost sets
// capture everything a transmission can do — any cost rounds down to a DCS
// element without changing the informed set.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines.hpp"
#include "core/schedule.hpp"
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

/// Star: source 0 with neighbors at distances 1, 2, 3 (costs 1, 4, 9).
Tveg star() {
  trace::ContactTrace t(4, 10.0);
  t.add({0, 1, 0.0, 10.0, 1.0});
  t.add({0, 2, 0.0, 10.0, 2.0});
  t.add({0, 3, 0.0, 10.0, 3.0});
  return Tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
}

/// Nodes informed by a single broadcast from `relay` at cost w.
std::vector<NodeId> informed_by(const Tveg& tveg, NodeId relay, Cost w) {
  const TmedbInstance inst{&tveg, relay, 10.0};
  Schedule s;
  s.add(relay, 1.0, w);
  const auto p = uninformed_probabilities(inst, s, 10.0);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < tveg.node_count(); ++v)
    if (p[static_cast<std::size_t>(v)] <= 0.01) out.push_back(v);
  return out;
}

TEST(Dcs, BroadcastNatureLevelKInformsPrefix) {
  const Tveg tveg = star();
  const auto dcs = tveg.discrete_cost_set(0, 1.0);
  ASSERT_EQ(dcs.size(), 3u);
  // Property 6.1(i): paying level k informs neighbors 1..k.
  EXPECT_EQ(informed_by(tveg, 0, dcs[0].cost), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(informed_by(tveg, 0, dcs[1].cost),
            (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(informed_by(tveg, 0, dcs[2].cost),
            (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dcs, IntermediateCostEquivalentToLevelBelow) {
  const Tveg tveg = star();
  const auto dcs = tveg.discrete_cost_set(0, 1.0);
  // Property 6.1(ii): any w ∈ [w_k, w_{k+1}) informs the same set as w_k.
  for (std::size_t k = 0; k + 1 < dcs.size(); ++k) {
    const Cost mid = 0.5 * (dcs[k].cost + dcs[k + 1].cost);
    EXPECT_EQ(informed_by(tveg, 0, mid), informed_by(tveg, 0, dcs[k].cost));
  }
  // Above the top level nothing changes either.
  EXPECT_EQ(informed_by(tveg, 0, dcs.back().cost * 10),
            informed_by(tveg, 0, dcs.back().cost));
}

TEST(Dcs, RoundingScheduleDownToDcsPreservesFeasibility) {
  // Proposition 6.1 on whole schedules over random temporal graphs.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 7;
    cfg.slot = 25;
    cfg.horizon = 150;
    cfg.p = 0.35;
    cfg.seed = seed;
    const Tveg tveg(trace::generate_snapshots(cfg), unit_radio(),
                    {.model = channel::ChannelModel::kStep});
    const TmedbInstance inst{&tveg, 0, 150.0};
    const auto base = run_baseline(inst, tveg.build_dts(),
                                   {.rule = BaselineRule::kGreedy});
    if (!base.covered_all) continue;

    // Inflate every cost off the DCS, then round back down to the largest
    // DCS element not exceeding it.
    Schedule inflated, rounded;
    for (const Transmission& tx : base.schedule.transmissions()) {
      const Cost off_dcs = tx.cost * 1.37;
      inflated.add(tx.relay, tx.time, off_dcs);
      const auto dcs = tveg.discrete_cost_set(tx.relay, tx.time);
      Cost down = 0;
      for (const DcsEntry& e : dcs)
        if (e.cost <= off_dcs) down = std::max(down, e.cost);
      ASSERT_GT(down, 0.0);
      rounded.add(tx.relay, tx.time, down);
    }
    ASSERT_TRUE(check_feasibility(inst, inflated).feasible) << "seed " << seed;
    EXPECT_TRUE(check_feasibility(inst, rounded).feasible) << "seed " << seed;
    EXPECT_LE(rounded.total_cost(), inflated.total_cost());
  }
}

TEST(Dcs, CostsFollowDistanceOrdering) {
  const Tveg tveg = star();
  const auto dcs = tveg.discrete_cost_set(0, 1.0);
  ASSERT_EQ(dcs.size(), 3u);
  EXPECT_DOUBLE_EQ(dcs[0].cost, 1.0);
  EXPECT_DOUBLE_EQ(dcs[1].cost, 4.0);
  EXPECT_DOUBLE_EQ(dcs[2].cost, 9.0);
}

}  // namespace
}  // namespace tveg::core
