#include "trace/contact_trace.hpp"

#include <gtest/gtest.h>

#include "prop/shrink.hpp"

namespace tveg::trace {
namespace {

ContactTrace small_trace() {
  ContactTrace t(4, 100.0);
  t.add({0, 1, 0.0, 10.0, 2.0});
  t.add({1, 2, 20.0, 40.0, 3.0});
  t.add({1, 2, 60.0, 80.0, 5.0});
  t.add({2, 3, 50.0, 90.0, 1.5});
  t.sort();
  return t;
}

TEST(ContactTrace, NormalizesEndpointOrder) {
  ContactTrace t(3, 10.0);
  t.add({2, 0, 1.0, 2.0, 1.0});
  EXPECT_EQ(t.contacts()[0].a, 0);
  EXPECT_EQ(t.contacts()[0].b, 2);
}

TEST(ContactTrace, Validation) {
  ContactTrace t(3, 10.0);
  EXPECT_THROW(t.add({0, 0, 1.0, 2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(t.add({0, 5, 1.0, 2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(t.add({0, 1, 2.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(t.add({0, 1, 1.0, 20.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(t.add({0, 1, 1.0, 2.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ContactTrace(1, 10.0), std::invalid_argument);
}

TEST(ContactTrace, SortOrdersByStart) {
  ContactTrace t(3, 10.0);
  t.add({0, 1, 5.0, 6.0, 1.0});
  t.add({1, 2, 1.0, 2.0, 1.0});
  t.sort();
  EXPECT_DOUBLE_EQ(t.contacts()[0].start, 1.0);
}

TEST(ContactTrace, WindowClipsAndShifts) {
  const auto t = small_trace();
  const auto w = t.window(30.0, 70.0);
  EXPECT_DOUBLE_EQ(w.horizon(), 40.0);
  // Contact [20,40) clips to [30,40) → shifted [0,10).
  EXPECT_DOUBLE_EQ(w.contacts()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(w.contacts()[0].end, 10.0);
  // Contact [0,10) falls outside entirely.
  for (const auto& c : w.contacts()) {
    EXPECT_GE(c.start, 0.0);
    EXPECT_LE(c.end, 40.0);
  }
  EXPECT_EQ(w.contact_count(), 3u);
}

TEST(ContactTrace, WindowValidation) {
  const auto t = small_trace();
  EXPECT_THROW(t.window(50.0, 40.0), std::invalid_argument);
  EXPECT_THROW(t.window(-1.0, 40.0), std::invalid_argument);
}

TEST(ContactTrace, HeadNodesFiltersContacts) {
  const auto t = small_trace();
  const auto h = prop::head_nodes(t, 3);
  EXPECT_EQ(h.node_count(), 3);
  for (const auto& c : h.contacts()) {
    EXPECT_LT(c.a, 3);
    EXPECT_LT(c.b, 3);
  }
  EXPECT_EQ(h.contact_count(), 3u);  // drops the 2-3 contact
}

TEST(ContactTrace, ToGraphPreservesPresence) {
  const auto t = small_trace();
  const auto g = t.to_graph(0.0);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_TRUE(g.presence(0, 1).covers_closed(5.0, 5.0));
  EXPECT_FALSE(g.presence(0, 1).covers_closed(15.0, 15.0));
  EXPECT_TRUE(g.presence(1, 2).covers_closed(70.0, 70.0));
}

TEST(ContactTrace, InterContactTimes) {
  const auto t = small_trace();
  const auto gaps = t.inter_contact_times();
  // Only pair (1,2) meets twice: gap = 60 - 40 = 20.
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_DOUBLE_EQ(gaps[0], 20.0);
}

TEST(ContactTrace, AverageDegree) {
  const auto t = small_trace();
  EXPECT_DOUBLE_EQ(t.average_degree(5.0), 0.5);   // one live contact / 4 nodes
  EXPECT_DOUBLE_EQ(t.average_degree(70.0), 1.0);  // two live contacts
  EXPECT_DOUBLE_EQ(t.average_degree(95.0), 0.0);
}

TEST(ContactTrace, PairCount) {
  EXPECT_EQ(small_trace().pair_count(), 3u);
}

}  // namespace
}  // namespace tveg::trace
