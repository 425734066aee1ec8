#include "tvg/journeys.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/math.hpp"

namespace tveg {
namespace {

/// Diamond: 0-1-3 fast path (2 hops), 0-3 direct contact later (1 hop, but
/// arrives last). Latency 1.
///   0-1 on [0, 10), 1-3 on [2, 12), 0-3 on [20, 30), 0-2 on [0, 5).
TimeVaryingGraph diamond() {
  TimeVaryingGraph g(4, 40.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 3, 2.0, 12.0);
  g.add_contact(0, 3, 20.0, 30.0);
  g.add_contact(0, 2, 0.0, 5.0);
  return g;
}

TEST(LatestDepartures, BackwardChain) {
  // 0-1 on [0,10), 1-2 on [5,15); deliver to 2 by 12, τ = 1.
  TimeVaryingGraph g(3, 20.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 2, 5.0, 15.0);
  const auto latest = latest_departures(g, 2, 12.0);
  EXPECT_DOUBLE_EQ(latest[2], 12.0);
  // 1 must transmit by 11 (arrive 12): last valid start is 11.
  EXPECT_DOUBLE_EQ(latest[1], 11.0);
  // 0 must hand to 1 while 0-1 lives: last start 9 (arrive 10 <= 11).
  EXPECT_DOUBLE_EQ(latest[0], 9.0);
}

TEST(LatestDepartures, TightDeadlinePropagates) {
  TimeVaryingGraph g(3, 20.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  g.add_contact(1, 2, 5.0, 15.0);
  const auto latest = latest_departures(g, 2, 6.5);
  EXPECT_DOUBLE_EQ(latest[1], 5.5);  // arrive by 6.5 via contact from 5
  EXPECT_DOUBLE_EQ(latest[0], 4.5);
}

TEST(LatestDepartures, UnreachableIsMinusInfinity) {
  TimeVaryingGraph g(3, 20.0, 1.0);
  g.add_contact(0, 1, 0.0, 10.0);
  const auto latest = latest_departures(g, 2, 20.0);
  EXPECT_TRUE(std::isinf(latest[0]));
  EXPECT_LT(latest[0], 0);
}

TEST(LatestDepartures, ConsistentWithEarliestArrival) {
  // Wherever latest[v] >= t, a journey v→dst meeting the deadline must
  // exist from t — checked via forward search.
  const auto g = diamond();
  const Time deadline = 25.0;
  const auto latest = latest_departures(g, 3, deadline);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (latest[v] == -support::kInf) continue;
    const ArrivalInfo fwd = g.earliest_arrival(v, latest[v]);
    EXPECT_LE(fwd.arrival[3], deadline + 1e-9) << "node " << v;
  }
}

}  // namespace
}  // namespace tveg
