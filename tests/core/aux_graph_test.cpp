#include "core/aux_graph.hpp"

#include <gtest/gtest.h>

#include "graph/steiner.hpp"
#include "oracle/graph_oracle.hpp"
#include "support/math.hpp"

namespace tveg::core {
namespace {

channel::RadioParams test_radio() {
  channel::RadioParams r;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

/// Source 0; 1 near (d=1), 2 far (d=3); both contacts live the whole span.
Tveg star_tveg() {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({0, 2, 0.0, 100.0, 3.0});
  return Tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
}

TEST(AuxGraph, StructureCounts) {
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);
  EXPECT_GT(aux.vertex_count(), 0u);
  EXPECT_GT(aux.arc_count(), 0u);
  EXPECT_EQ(aux.terminals().size(), 3u);
  EXPECT_NE(aux.source_vertex(), graph::kNoVertex);
}

TEST(AuxGraph, SteinerSolutionUsesBroadcastAdvantage) {
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);

  graph::SteinerSolver solver(aux.digraph());
  const auto tree =
      solver.recursive_greedy(aux.source_vertex(), aux.terminals(), 2);
  ASSERT_TRUE(tree.feasible);
  const Schedule s = aux.extract_schedule(tree);

  // One transmission at the far cost informs both 1 and 2.
  ASSERT_EQ(s.size(), 1u);
  EXPECT_NEAR(s.total_cost(), tveg.radio().step_min_cost(3.0), 1e-30);
  EXPECT_TRUE(check_feasibility(inst, s).feasible);
}

TEST(AuxGraph, AblationWithoutPowerExpansionPaysPerReceiverInTheTree) {
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph with(inst, dts, {.power_expansion = true});
  const AuxGraph without(inst, dts, {.power_expansion = false});

  // Exact optima isolate the modeling difference from greedy noise.
  const auto tree_with = oracle::exact_steiner(
      with.digraph(), with.source_vertex(), with.terminals());
  const auto tree_without = oracle::exact_steiner(
      without.digraph(), without.source_vertex(), without.terminals());
  ASSERT_TRUE(tree_with.feasible);
  ASSERT_TRUE(tree_without.feasible);

  // The optimizer's objective degrades: per-receiver arcs pay near + far
  // instead of just far. (Schedule extraction coalesces same-relay-same-time
  // transmissions, which can win back some of the loss physically — the
  // ablation bench reports both numbers.)
  const Cost near = tveg.radio().step_min_cost(1.0);
  const Cost far = tveg.radio().step_min_cost(3.0);
  EXPECT_NEAR(tree_with.cost, far, far * 1e-9);
  EXPECT_NEAR(tree_without.cost, near + far, far * 1e-9);
}

TEST(AuxGraph, DeadlineClipsVertices) {
  const Tveg tveg = star_tveg();
  const auto dts = tveg.build_dts();
  const TmedbInstance full{&tveg, 0, 100.0};
  const TmedbInstance tight{&tveg, 0, 10.0};
  const AuxGraph aux_full(full, dts);
  const AuxGraph aux_tight(tight, dts);
  EXPECT_LE(aux_tight.vertex_count(), aux_full.vertex_count());
}

TEST(AuxGraph, TemporalStructureForcesWaiting) {
  // 0 meets 1 early; 1 meets 2 only later: the Steiner solution must place
  // 1's transmission inside the later contact.
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);

  graph::SteinerSolver solver(aux.digraph());
  const auto tree =
      solver.recursive_greedy(aux.source_vertex(), aux.terminals(), 2);
  ASSERT_TRUE(tree.feasible);
  const Schedule s = aux.extract_schedule(tree);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.transmissions()[0].relay, 0);
  EXPECT_LT(s.transmissions()[0].time, 20.0);
  EXPECT_EQ(s.transmissions()[1].relay, 1);
  EXPECT_GE(s.transmissions()[1].time, 50.0);
  EXPECT_TRUE(check_feasibility(inst, s).feasible);
}

TEST(AuxGraph, InfeasibleWhenDeadlineTooTight) {
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 20.0, 1.0});
  t.add({1, 2, 50.0, 80.0, 1.0});
  const Tveg tveg(t, test_radio(), {.model = channel::ChannelModel::kStep});
  const TmedbInstance inst{&tveg, 0, 30.0};  // node 2 unreachable by 30
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);
  graph::SteinerSolver solver(aux.digraph());
  const auto tree =
      solver.recursive_greedy(aux.source_vertex(), aux.terminals(), 2);
  EXPECT_FALSE(tree.feasible);
}

TEST(AuxGraph, LatencyShiftsReceiverVertices) {
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 0.0, 50.0, 1.0});
  const Tveg tveg(t, test_radio(),
                  {.model = channel::ChannelModel::kStep, .tau = 5.0});
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);
  graph::SteinerSolver solver(aux.digraph());
  const auto tree = solver.shortest_path_heuristic(aux.source_vertex(),
                                                   aux.terminals());
  ASSERT_TRUE(tree.feasible);
  const Schedule s = aux.extract_schedule(tree);
  ASSERT_EQ(s.size(), 1u);
  // Transmission must start early enough to complete within the contact.
  EXPECT_LE(s.transmissions()[0].time + 5.0, 50.0 + 1e-9);
  EXPECT_TRUE(check_feasibility(inst, s).feasible);
}

TEST(AuxGraph, VertexIdCodecIsArithmetic) {
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);
  // u vertices are node-major and contiguous: u_{i,0} follows node i-1's
  // DTS points up to the deadline, and everything at or above
  // first_power_vertex() is a power vertex.
  graph::VertexId expected = 0;
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(aux.source_vertex_for(i), expected);
    for (const Time t : dts.points(i))
      if (t <= inst.deadline) ++expected;
  }
  EXPECT_EQ(aux.first_power_vertex(), expected);
  EXPECT_LE(static_cast<std::size_t>(aux.first_power_vertex()) +
                aux.live_power_vertex_count(),
            aux.vertex_count());
}

TEST(AuxGraph, ExtractScheduleDecodesPowerVerticesArithmetically) {
  // Pin the decode path directly: a hand-built "tree" containing exactly
  // one transmit arc (into a power vertex) plus chain/deliver arcs must
  // yield the same schedule as the full solver round-trip — the before/
  // after identity for the flat-id rewrite of extract_schedule.
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);

  graph::SteinerSolver solver(aux.digraph());
  const auto tree =
      solver.recursive_greedy(aux.source_vertex(), aux.terminals(), 2);
  ASSERT_TRUE(tree.feasible);
  const Schedule full = aux.extract_schedule(tree);
  ASSERT_EQ(full.size(), 1u);

  // Re-extract from a reordered copy with the non-power arcs stripped:
  // only arcs entering vertices >= first_power_vertex() may contribute.
  graph::SteinerResult transmit_only;
  for (const auto& arc : tree.arcs)
    if (arc.to >= aux.first_power_vertex()) transmit_only.arcs.push_back(arc);
  ASSERT_GE(transmit_only.arcs.size(), 1u);
  const Schedule decoded = aux.extract_schedule(transmit_only);
  ASSERT_EQ(decoded.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(decoded.transmissions()[i].relay, full.transmissions()[i].relay);
    EXPECT_DOUBLE_EQ(decoded.transmissions()[i].time,
                     full.transmissions()[i].time);
    EXPECT_DOUBLE_EQ(decoded.transmissions()[i].cost,
                     full.transmissions()[i].cost);
  }
}

TEST(AuxGraph, DigraphIsFrozenAtConstructionEnd) {
  const Tveg tveg = star_tveg();
  const TmedbInstance inst{&tveg, 0, 100.0};
  const auto dts = tveg.build_dts();
  const AuxGraph aux(inst, dts);
  EXPECT_TRUE(aux.digraph().frozen());
}

}  // namespace
}  // namespace tveg::core
