// Thread-aware span ring: recording semantics, nesting, reset, drop
// accounting and the disabled-path contract. Export-level structure is
// covered by perfetto_test.cpp.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "oracle/json_reader.hpp"

namespace tveg::obs {
namespace {

using oracle::JsonValue;
using oracle::read_json;
using oracle::validate_chrome_trace;

/// Ring records dropped since the guard's registry reset; only valid after a
/// chrome_trace() export, which syncs the tveg.obs.span_drops counter.
std::uint64_t exported_drops() {
  return MetricsRegistry::global().counter(keys::kObsSpanDrops).value();
}

struct SpanTracingGuard {
  SpanTracingGuard() {
    MetricsRegistry::global().reset();
    span_reset();
    set_span_tracing(true);
  }
  ~SpanTracingGuard() {
    set_span_tracing(false);
    span_reset();
  }
};

std::vector<const JsonValue*> events_of(const JsonValue& doc,
                                        const std::string& ph) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& e : doc.find("traceEvents")->items())
    if (e.find("ph")->as_string() == ph) out.push_back(&e);
  return out;
}

TEST(Span, DisabledRecordsNothing) {
  span_reset();
  set_span_tracing(false);
  { ScopedSpan span("ignored"); }
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_TRUE(events_of(doc, "B").empty());
  EXPECT_TRUE(events_of(doc, "X").empty());
}

TEST(Span, ScopedSpanProducesMatchedPair) {
  SpanTracingGuard guard;
  { ScopedSpan span("unit_phase"); }
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_EQ(validate_chrome_trace(doc), "");
  const auto begins = events_of(doc, "B");
  const auto ends = events_of(doc, "E");
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(begins[0]->find("name")->as_string(), "unit_phase");
  EXPECT_EQ(begins[0]->find("tid")->as_number(),
            ends[0]->find("tid")->as_number());
  EXPECT_LE(begins[0]->find("ts")->as_number(),
            ends[0]->find("ts")->as_number());
}

TEST(Span, NestedSpansExportInStackOrder) {
  SpanTracingGuard guard;
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
  }
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_EQ(validate_chrome_trace(doc), "");
  // Emission order on one track must be B(outer) B(inner) E(inner) E(outer).
  std::vector<std::string> order;
  for (const JsonValue& e : doc.find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "B" || ph == "E")
      order.push_back(ph + ":" + e.find("name")->as_string());
  }
  const std::vector<std::string> expected = {"B:outer", "B:inner", "E:inner",
                                             "E:outer"};
  EXPECT_EQ(order, expected);
}

TEST(Span, QueueWaitBecomesCompleteEventOnQueueTrack) {
  SpanTracingGuard guard;
  const std::uint64_t t0 = now_epoch_ns();
  span_queue_wait(t0, t0 + 1500);
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_EQ(validate_chrome_trace(doc), "");
  const auto xs = events_of(doc, "X");
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0]->find("name")->as_string(), "queue_wait");
  EXPECT_GE(xs[0]->find("tid")->as_number(), 1000.0);
  EXPECT_GE(xs[0]->find("dur")->as_number(), 0.0);
}

TEST(Span, ResetClearsRecordsAndDrops) {
  SpanTracingGuard guard;
  { ScopedSpan span("before_reset"); }
  span_reset();
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_TRUE(events_of(doc, "B").empty());
  EXPECT_EQ(exported_drops(), 0u);
}

TEST(Span, RingOverflowDropsOldestAndCounts) {
  SpanTracingGuard guard;
  // Well past any plausible ring capacity; the export must stay valid (a
  // dropped parent degrades nesting, never produces unmatched pairs).
  constexpr std::size_t kSpans = 1u << 16;
  for (std::size_t i = 0; i < kSpans; ++i) { ScopedSpan span("flood"); }
  const JsonValue doc = read_json(chrome_trace());
  EXPECT_GT(exported_drops(), 0u);
  EXPECT_EQ(validate_chrome_trace(doc), "");
  EXPECT_LT(events_of(doc, "B").size(), kSpans);
}

TEST(Span, ThreadNameShowsUpAsMetadata) {
  SpanTracingGuard guard;
  set_current_thread_name("span-test-main");
  { ScopedSpan span("named"); }
  const JsonValue doc = read_json(chrome_trace());
  bool found = false;
  for (const JsonValue& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "M") continue;
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->find("name") != nullptr &&
        args->find("name")->as_string() == "span-test-main")
      found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace tveg::obs
