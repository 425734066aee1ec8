#include "tvg/time_varying_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/math.hpp"

namespace tveg {
namespace {

/// 4-node line TVG with staggered contacts:
///   0-1 on [0, 10), 1-2 on [5, 15), 2-3 on [12, 20).
TimeVaryingGraph line_graph(Time tau = 1.0) {
  TimeVaryingGraph g(4, 20.0, tau);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 2, 5.0, 15.0);
  g.add_contact(2, 3, 12.0, 20.0);
  return g;
}

TEST(TimeVaryingGraph, BasicConstruction) {
  const auto g = line_graph();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_DOUBLE_EQ(g.horizon(), 20.0);
  EXPECT_DOUBLE_EQ(g.latency(), 1.0);
}

TEST(TimeVaryingGraph, RejectsInvalidContacts) {
  TimeVaryingGraph g(3, 10.0, 0.0);
  EXPECT_THROW(g.add_contact(0, 0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(g.add_contact(0, 5, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(g.add_contact(0, 1, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(g.add_contact(0, 1, 1.0, 12.0), std::invalid_argument);
}

TEST(TimeVaryingGraph, PresenceIsSymmetric) {
  const auto g = line_graph();
  EXPECT_TRUE(g.presence(0, 1).covers_closed(5.0, 5.0));
  EXPECT_TRUE(g.presence(1, 0).covers_closed(5.0, 5.0));
  EXPECT_FALSE(g.presence(0, 1).covers_closed(10.0, 10.0));
  EXPECT_FALSE(g.presence(0, 2).covers_closed(5.0, 5.0));  // no edge
}

TEST(TimeVaryingGraph, AdjacencyRequiresFullTraversalWindow) {
  const auto g = line_graph(1.0);
  EXPECT_TRUE(g.adjacent(0, 1, 0.0));
  EXPECT_TRUE(g.adjacent(0, 1, 9.0));   // finishes exactly at contact end
  EXPECT_FALSE(g.adjacent(0, 1, 9.5));  // would finish at 10.5
}

TEST(TimeVaryingGraph, AdjacencyAtZeroLatencyMatchesPresence) {
  const auto g = line_graph(0.0);
  EXPECT_TRUE(g.adjacent(0, 1, 9.99));
  EXPECT_FALSE(g.adjacent(0, 1, 10.0));
}

TEST(TimeVaryingGraph, NeighborsAt) {
  const auto g = line_graph(1.0);
  EXPECT_EQ(g.neighbors_at(1, 6.0), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(g.neighbors_at(1, 12.0), (std::vector<NodeId>{2}));
  EXPECT_TRUE(g.neighbors_at(3, 0.0).empty());
}

TEST(TimeVaryingGraph, NextValidStart) {
  const auto g = line_graph(1.0);
  EXPECT_DOUBLE_EQ(g.next_valid_start(0, 1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(g.next_valid_start(2, 3, 0.0), 12.0);
  EXPECT_DOUBLE_EQ(g.next_valid_start(0, 1, 8.5), 8.5);
  EXPECT_TRUE(std::isinf(g.next_valid_start(0, 1, 9.5)));
}

TEST(TimeVaryingGraph, EdgeIdLookup) {
  const auto g = line_graph();
  EXPECT_NE(g.edge_id(0, 1), static_cast<std::size_t>(-1));
  EXPECT_EQ(g.edge_id(0, 1), g.edge_id(1, 0));
  EXPECT_EQ(g.edge_id(0, 3), static_cast<std::size_t>(-1));
}

TEST(TimeVaryingGraph, AdjacentPartitionCombinesPairs) {
  const auto g = line_graph(1.0);
  const Partition p = g.adjacent_partition(1);
  // From 0-1: 0, 9. From 1-2: 5, 14. Plus span ends.
  EXPECT_EQ(p.points(), (std::vector<Time>{0.0, 5.0, 9.0, 14.0, 20.0}));
}

TEST(TimeVaryingGraph, EarliestArrivalChainsThroughTime) {
  const auto g = line_graph(1.0);
  const ArrivalInfo info = g.earliest_arrival(0, 0.0);
  EXPECT_DOUBLE_EQ(info.arrival[0], 0.0);
  EXPECT_DOUBLE_EQ(info.arrival[1], 1.0);   // 0→1 departs at 0
  EXPECT_DOUBLE_EQ(info.arrival[2], 6.0);   // 1→2 departs at 5
  EXPECT_DOUBLE_EQ(info.arrival[3], 13.0);  // 2→3 departs at 12
}

TEST(TimeVaryingGraph, EarliestArrivalRespectsStartTime) {
  const auto g = line_graph(1.0);
  const ArrivalInfo info = g.earliest_arrival(0, 9.5);
  // 0-1 contact closes for tau=1 transmissions after 9.0 — unreachable.
  EXPECT_TRUE(std::isinf(info.arrival[1]));
}

TEST(TimeVaryingGraph, EarliestArrivalBackwardInTimeImpossible) {
  const auto g = line_graph(1.0);
  // From node 3 at t=0: 2-3 opens at 12, but 1-2 closes at 15 (still open)
  // and 0-1 closes at 10 < 13 — node 0 unreachable (temporal asymmetry).
  const ArrivalInfo info = g.earliest_arrival(3, 0.0);
  EXPECT_DOUBLE_EQ(info.arrival[2], 13.0);
  EXPECT_DOUBLE_EQ(info.arrival[1], 14.0);
  EXPECT_TRUE(std::isinf(info.arrival[0]));
}

TEST(TimeVaryingGraph, ExtractJourneyIsTimeRespecting) {
  const auto g = line_graph(1.0);
  const ArrivalInfo info = g.earliest_arrival(0, 0.0);
  const Journey j = g.extract_journey(info, 3);
  ASSERT_EQ(j.hops.size(), 3u);
  EXPECT_EQ(j.hops[0].from, 0);
  EXPECT_EQ(j.hops[2].to, 3);
  for (std::size_t l = 1; l < j.hops.size(); ++l)
    EXPECT_GE(j.hops[l].depart, j.hops[l - 1].depart + g.latency());
  EXPECT_DOUBLE_EQ(j.hops.front().depart, 0.0);
  EXPECT_DOUBLE_EQ(j.hops.back().depart + g.latency(), 13.0);
}

TEST(TimeVaryingGraph, ExtractJourneyOfSourceIsEmpty) {
  const auto g = line_graph(1.0);
  const ArrivalInfo info = g.earliest_arrival(0, 0.0);
  EXPECT_TRUE(g.extract_journey(info, 0).empty());
}

TEST(TimeVaryingGraph, ReachableSetRespectsDeadline) {
  const auto g = line_graph(1.0);
  EXPECT_EQ(g.reachable_set(0, 0.0, 6.0), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(g.reachable_set(0, 0.0, 20.0), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(g.reachable_set(0, 0.0, 0.5), (std::vector<NodeId>{0}));
}

TEST(TimeVaryingGraph, OverlappingContactsMerge) {
  TimeVaryingGraph g(2, 10.0, 0.0);
  g.add_contact(0, 1, 1.0, 3.0);
  g.add_contact(0, 1, 2.0, 5.0);
  EXPECT_EQ(g.presence(0, 1).size(), 1u);
  EXPECT_TRUE(g.adjacent(0, 1, 4.0));
}

}  // namespace
}  // namespace tveg
