#include "tvg/dts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "oracle/dts_points.hpp"

namespace tveg {
namespace {

using oracle::dts_has_point;

TimeVaryingGraph line_graph(Time tau) {
  TimeVaryingGraph g(4, 20.0, tau);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 2, 5.0, 15.0);
  g.add_contact(2, 3, 12.0, 20.0);
  return g;
}

TEST(Dts, ContainsAdjacentPartitionPoints) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  // Node 1's adjacent partition: contact boundaries minus tau.
  EXPECT_TRUE(dts_has_point(dts, 1, 0.0));
  EXPECT_TRUE(dts_has_point(dts, 1, 5.0));
  EXPECT_TRUE(dts_has_point(dts, 1, 9.0));
  EXPECT_TRUE(dts_has_point(dts, 1, 14.0));
}

TEST(Dts, TauPropagationCreatesCascadePoints) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  // 0 may transmit at 0 → 1 informed at 1 → 1 may transmit at... the 1-2
  // contact opens later, but 1 is adjacent to 0 at 1 → 0 gains point 2.
  EXPECT_TRUE(dts_has_point(dts, 1, 1.0));  // 0's point 0 + τ
  EXPECT_TRUE(dts_has_point(dts, 0, 1.0));  // 1's point 0 (shared contact) + τ
  // 1 transmits at 5 (contact 1-2 opens) → 2 gains 6; 2-3 closed then, but
  // 2 is adjacent to 1 at 6 → 1 gains 7.
  EXPECT_TRUE(dts_has_point(dts, 2, 6.0));
  EXPECT_TRUE(dts_has_point(dts, 1, 7.0));
}

TEST(Dts, ZeroLatencySharesPointsAcrossComponent) {
  const auto g = line_graph(0.0);
  const auto dts = DiscreteTimeSet::build(g);
  // With τ = 0 the contact-open point of 1-2 (t = 5) propagates to node 0
  // (adjacent to 1 at 5) without creating new offsets.
  EXPECT_TRUE(dts_has_point(dts, 0, 5.0));
}

TEST(Dts, PointsAreSortedAndBounded) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& pts = dts.points(v);
    EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
    EXPECT_GE(pts.front(), 0.0);
    EXPECT_LE(pts.back(), g.horizon());
    EXPECT_TRUE(dts_has_point(dts, v, 0.0));
  }
  EXPECT_FALSE(dts.truncated());
}

TEST(Dts, ExtraPointsAreIncludedAndPropagated) {
  const auto g = line_graph(1.0);
  DtsOptions options;
  options.extra_points.assign(4, {});
  options.extra_points[0] = {2.5};  // e.g. a channel breakpoint on node 0
  const auto dts = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(dts_has_point(dts, 0, 2.5));
  // 0 adjacent to 1 at 2.5 → 2.5 + τ
  EXPECT_TRUE(dts_has_point(dts, 1, 3.5));
}

TEST(Dts, ExtraPointsArityChecked) {
  const auto g = line_graph(1.0);
  DtsOptions options;
  options.extra_points.assign(2, {});  // wrong: 4 nodes
  EXPECT_THROW(DiscreteTimeSet::build(g, options), std::invalid_argument);
}

TEST(Dts, TruncationFlag) {
  const auto g = line_graph(0.5);
  DtsOptions options;
  options.max_points_per_node = 3;
  const auto dts = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(dts.truncated());
  for (NodeId v = 0; v < 4; ++v) EXPECT_LE(dts.points(v).size(), 3u);
}

TEST(Dts, TruncationKeepsEarliestPoints) {
  // One contact and τ = 1: the +τ cascade gives both nodes 0, 1, ..., 10,
  // next to the seeds 9 (contact end - τ) and 20 (the horizon).
  TimeVaryingGraph g(2, 20.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  const auto full = DiscreteTimeSet::build(g);
  ASSERT_FALSE(full.truncated());
  ASSERT_EQ(full.points(0).size(), 12u);
  DtsOptions options;
  options.max_points_per_node = 4;
  const auto capped = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(capped.truncated());
  // The cap keeps each node's earliest points, later seeds included.
  for (NodeId v = 0; v < 2; ++v) {
    const auto& pts = full.points(v);
    EXPECT_EQ(capped.points(v), std::vector<Time>(pts.begin(), pts.begin() + 4));
  }
}

TEST(Dts, CappedCascadeStaysBounded) {
  // Six nodes in contact all along with τ = 0.01: uncapped, the +τ cascade
  // would give every node a point every τ, 1e5 points each.
  constexpr NodeId kNodes = 6;
  constexpr std::size_t kCap = 100;
  TimeVaryingGraph g(kNodes, 1000.0, 0.01);
  for (NodeId a = 0; a < kNodes; ++a)
    for (NodeId b = a + 1; b < kNodes; ++b) g.add_contact(a, b, 0.0, 1000.0);
  DtsOptions options;
  options.max_points_per_node = kCap;
  obs::Counter& steps = obs::MetricsRegistry::global().counter(
      obs::keys::kDtsClosureSteps);
  const std::uint64_t before = steps.value();
  const auto dts = DiscreteTimeSet::build(g, options);
  EXPECT_TRUE(dts.truncated());
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_EQ(dts.points(v).size(), kCap);
    EXPECT_LT(dts.points(v).back(), 1.0);  // the earliest τ-steps only
  }
  // Every pop is a seed (3 per node) or a push by an appended point, and an
  // appended point pushes one event per neighbour.
  const std::uint64_t bound = kNodes * (3 + kCap * (kNodes - 1));
  EXPECT_LE(steps.value() - before, bound);
}

TEST(Dts, GlobalPointsSortedUnique) {
  const auto g = line_graph(1.0);
  const auto dts = DiscreteTimeSet::build(g);
  const auto pts = dts.global_points();
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GT(pts[i] - pts[i - 1], 1e-10);
  EXPECT_LE(pts.size(), dts.total_points());
}

TEST(Dts, IsolatedNodeHasTrivialPartition) {
  TimeVaryingGraph g(3, 10.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  const auto dts = DiscreteTimeSet::build(g);
  // Node 2 never meets anyone: only the span endpoints.
  EXPECT_EQ(dts.points(2).size(), 2u);
}

}  // namespace
}  // namespace tveg
