#include "tvg/interval_set.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/math.hpp"

namespace tveg {
namespace {

/// ρ(e, t): point membership is a zero-length transmission window at t.
bool present_at(const IntervalSet& s, Time t) { return s.covers_closed(t, t); }

/// Total measure of the set.
Time measure(const IntervalSet& s) {
  Time sum = 0;
  for (const Interval& iv : s.intervals()) sum += iv.length();
  return sum;
}

TEST(IntervalSet, EmptyByDefault) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(present_at(s, 0.0));
  EXPECT_DOUBLE_EQ(measure(s), 0.0);
}

TEST(IntervalSet, AddAndContainsHalfOpen) {
  IntervalSet s;
  s.add(1.0, 3.0);
  EXPECT_TRUE(present_at(s, 1.0));
  EXPECT_TRUE(present_at(s, 2.9));
  EXPECT_FALSE(present_at(s, 3.0));  // half-open right end
  EXPECT_FALSE(present_at(s, 0.999));
}

TEST(IntervalSet, MergesOverlapping) {
  IntervalSet s;
  s.add(1.0, 3.0);
  s.add(2.0, 5.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.intervals()[0].start, 1.0);
  EXPECT_DOUBLE_EQ(s.intervals()[0].end, 5.0);
}

TEST(IntervalSet, MergesTouching) {
  IntervalSet s;
  s.add(1.0, 2.0);
  s.add(2.0, 3.0);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(measure(s), 2.0);
}

TEST(IntervalSet, KeepsDisjoint) {
  IntervalSet s;
  s.add(1.0, 2.0);
  s.add(3.0, 4.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(measure(s), 2.0);
}

TEST(IntervalSet, RejectsEmptyInterval) {
  IntervalSet s;
  EXPECT_THROW(s.add(2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(s.add(3.0, 1.0), std::invalid_argument);
}

TEST(IntervalSet, CoversClosedIncludesRightEndpoint) {
  IntervalSet s;
  s.add(1.0, 3.0);
  EXPECT_TRUE(s.covers_closed(1.0, 3.0));  // a transmission may end at 3.0
  EXPECT_TRUE(s.covers_closed(2.0, 2.5));
  EXPECT_FALSE(s.covers_closed(0.5, 2.0));
  EXPECT_FALSE(s.covers_closed(2.0, 3.1));
}

TEST(IntervalSet, CoversClosedAcrossGap) {
  IntervalSet s;
  s.add(0.0, 1.0);
  s.add(2.0, 3.0);
  EXPECT_FALSE(s.covers_closed(0.5, 2.5));
}

TEST(IntervalSet, Unite) {
  IntervalSet a, b;
  a.add(0.0, 2.0);
  b.add(1.0, 3.0);
  b.add(5.0, 6.0);
  IntervalSet u = a;
  for (const Interval& iv : b.intervals()) u.add(iv.start, iv.end);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_DOUBLE_EQ(measure(u), 4.0);
}

TEST(IntervalSet, Intersect) {
  IntervalSet a, b;
  a.add(0.0, 5.0);
  a.add(7.0, 9.0);
  b.add(3.0, 8.0);
  const IntervalSet i = a.intersect(b);
  ASSERT_EQ(i.size(), 2u);
  EXPECT_DOUBLE_EQ(i.intervals()[0].start, 3.0);
  EXPECT_DOUBLE_EQ(i.intervals()[0].end, 5.0);
  EXPECT_DOUBLE_EQ(i.intervals()[1].start, 7.0);
  EXPECT_DOUBLE_EQ(i.intervals()[1].end, 8.0);
}

TEST(IntervalSet, IntersectDisjointIsEmpty) {
  IntervalSet a, b;
  a.add(0.0, 1.0);
  b.add(2.0, 3.0);
  EXPECT_TRUE(a.intersect(b).empty());
}

}  // namespace
}  // namespace tveg
