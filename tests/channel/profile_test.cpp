#include "channel/profile.hpp"

#include <gtest/gtest.h>

namespace tveg::channel {
namespace {

TEST(Profile, PiecewiseLookup) {
  PiecewiseConstantProfile p;
  p.add(0.0, 1.0);
  p.add(5.0, 2.0);
  p.add(10.0, 3.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.at(4.999), 1.0);
  EXPECT_DOUBLE_EQ(p.at(5.0), 2.0);
  EXPECT_DOUBLE_EQ(p.at(9.0), 2.0);
  EXPECT_DOUBLE_EQ(p.at(100.0), 3.0);
}

TEST(Profile, QueryBeforeFirstSampleReturnsFirstValue) {
  PiecewiseConstantProfile p;
  p.add(5.0, 7.0);
  EXPECT_DOUBLE_EQ(p.at(0.0), 7.0);
}

TEST(Profile, RequiresIncreasingTimes) {
  PiecewiseConstantProfile p;
  p.add(1.0, 1.0);
  EXPECT_THROW(p.add(1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(p.add(0.5, 2.0), std::invalid_argument);
}

TEST(Profile, EmptyQueriesThrow) {
  PiecewiseConstantProfile p;
  EXPECT_TRUE(p.empty());
  EXPECT_THROW(p.at(0.0), std::invalid_argument);
}

TEST(Profile, BreakpointsExcludeFirstSample) {
  PiecewiseConstantProfile p;
  p.add(0.0, 1.0);
  p.add(3.0, 2.0);
  p.add(7.0, 3.0);
  EXPECT_EQ(p.breakpoints(), (std::vector<Time>{3.0, 7.0}));
}

}  // namespace
}  // namespace tveg::channel
