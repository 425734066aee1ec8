#include "tvg/partition.hpp"

#include <gtest/gtest.h>

namespace tveg {
namespace {

TEST(Partition, TrivialHasEndpoints) {
  Partition p(10.0);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p.points().front(), 0.0);
  EXPECT_DOUBLE_EQ(p.points().back(), 10.0);
}

TEST(Partition, ConstructionSortsAndDedups) {
  Partition p(10.0, {5.0, 2.0, 5.0 + 1e-12, 8.0});
  ASSERT_EQ(p.size(), 5u);  // 0, 2, 5, 8, 10
  EXPECT_DOUBLE_EQ(p.points()[1], 2.0);
  EXPECT_DOUBLE_EQ(p.points()[2], 5.0);
}

TEST(Partition, DropsOutOfRangePoints) {
  Partition p(10.0, {-5.0, 3.0, 15.0});
  ASSERT_EQ(p.size(), 3u);  // 0, 3, 10
}

TEST(Partition, RejectsBadConstruction) {
  EXPECT_THROW(Partition(0.0), std::invalid_argument);
  EXPECT_THROW(Partition(-5.0), std::invalid_argument);
}

}  // namespace
}  // namespace tveg
