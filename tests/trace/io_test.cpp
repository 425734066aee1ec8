#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace tveg::trace {
namespace {

TEST(TraceIo, RoundTrip) {
  ContactTrace t(3, 50.0);
  t.add({0, 1, 1.0, 2.5, 3.25});
  t.add({1, 2, 10.0, 20.0, 7.0});
  t.sort();

  std::stringstream ss;
  write_trace(ss, t);
  const ContactTrace back = parse_trace(ss).take_or_throw();

  EXPECT_EQ(back.node_count(), 3);
  EXPECT_DOUBLE_EQ(back.horizon(), 50.0);
  ASSERT_EQ(back.contact_count(), 2u);
  EXPECT_EQ(back.contacts(), t.contacts());
}

TEST(TraceIo, ReadsHeaderlessCrawdadFormat) {
  std::stringstream ss("0 1 5 10\n1 2 8 12\n");
  const ContactTrace t = parse_trace(ss, {3, 20.0, 4.0}).take_or_throw();
  EXPECT_EQ(t.node_count(), 3);
  EXPECT_DOUBLE_EQ(t.horizon(), 20.0);
  ASSERT_EQ(t.contact_count(), 2u);
  EXPECT_DOUBLE_EQ(t.contacts()[0].distance, 4.0);  // default applied
}

TEST(TraceIo, InfersNodesAndHorizonWhenAbsent) {
  std::stringstream ss("0 1 5 10\n2 3 8 12\n");
  const ContactTrace t = parse_trace(ss).take_or_throw();
  EXPECT_EQ(t.node_count(), 4);
  EXPECT_DOUBLE_EQ(t.horizon(), 12.0);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n0 1 5 10 2.5\n");
  const ContactTrace t = parse_trace(ss).take_or_throw();
  ASSERT_EQ(t.contact_count(), 1u);
  EXPECT_DOUBLE_EQ(t.contacts()[0].distance, 2.5);
}

TEST(TraceIo, ClipsContactsBeyondDeclaredHorizon) {
  std::stringstream ss("# tveg-trace nodes=2 horizon=8\n0 1 5 10\n");
  const ContactTrace t = parse_trace(ss).take_or_throw();
  ASSERT_EQ(t.contact_count(), 1u);
  EXPECT_DOUBLE_EQ(t.contacts()[0].end, 8.0);
}

TEST(TraceIo, MalformedLineThrows) {
  std::stringstream ss("0 1 oops 10\n");
  EXPECT_THROW(parse_trace(ss).take_or_throw(), std::invalid_argument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path.trace"),
               std::invalid_argument);
}

TEST(TraceIo, ParseReportsLineNumbers) {
  std::stringstream ss("# comment\n0 1 5 10\n0 1 bogus 30\n");
  const auto result = parse_trace(ss);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, support::ErrorCode::kParse);
  EXPECT_EQ(result.error().line, 3);
}

TEST(TraceIo, ParseRejectsOutOfRangeNodeIds) {
  // The pre-Result parser silently *dropped* contacts whose endpoints fell
  // outside the declared node count; now they are a structured error.
  std::stringstream ss("# tveg-trace nodes=2 horizon=20\n0 4 5 10\n");
  const auto result = parse_trace(ss);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, support::ErrorCode::kInvalidInput);
  EXPECT_EQ(result.error().line, 2);
}

TEST(TraceIo, ParseRejectsOverlappingPairIntervals) {
  std::stringstream ss("0 1 0 10\n1 0 8 12\n");
  const auto result = parse_trace(ss);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, support::ErrorCode::kInvalidInput);
  EXPECT_EQ(result.error().line, 2);
}

TEST(TraceIo, TouchingPairIntervalsAreLegal) {
  std::stringstream ss("0 1 0 10\n0 1 10 15\n");
  const auto result = parse_trace(ss);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().contact_count(), 2u);
}

TEST(TraceIo, ParseSucceedsOnWellFormedInput) {
  std::stringstream ss("# tveg-trace nodes=3 horizon=50\n0 1 5 10 2.0\n");
  const auto result = parse_trace(ss);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().node_count(), 3);
}

TEST(TraceIo, FileRoundTrip) {
  ContactTrace t(2, 10.0);
  t.add({0, 1, 1.0, 2.0, 1.5});
  const std::string path = ::testing::TempDir() + "/tveg_io_test.trace";
  write_trace_file(path, t);
  const ContactTrace back = read_trace_file(path);
  EXPECT_EQ(back.contacts(), t.contacts());
}

}  // namespace
}  // namespace tveg::trace
