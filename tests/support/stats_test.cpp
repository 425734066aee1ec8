#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tveg::support {
namespace {

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStat, EmptyThrowsOnMean) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.max(), std::invalid_argument);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (double x : {4.0, 1.0, 3.0, 2.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 1.0);
}

TEST(SampleSet, Mean) {
  SampleSet s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.quantile(0.5), std::invalid_argument);
}

TEST(SampleSet, QuantileRejectsOutOfRange) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
}

TEST(Histogram, CcdfMonotone) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i / 100.0);
  const auto ccdf = h.ccdf();
  EXPECT_DOUBLE_EQ(ccdf.front(), 1.0);
  for (std::size_t i = 1; i < ccdf.size(); ++i) EXPECT_LE(ccdf[i], ccdf[i - 1]);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tveg::support
