// MetricsRegistry: counter/gauge semantics, histogram percentiles, and
// lossless concurrent updates through the ThreadPool.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "support/thread_pool.hpp"

namespace tveg::obs {
namespace {

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, ExactCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.min()));
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, QuantilesAreBucketAccurate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  // Geometric buckets give ~9% relative resolution; allow 15%.
  EXPECT_NEAR(s.p50, 500.0, 75.0);
  EXPECT_NEAR(s.p90, 900.0, 135.0);
  EXPECT_NEAR(s.p99, 990.0, 150.0);
  // Quantiles clamp to the exact observed range.
  EXPECT_GE(s.p50, 1.0);
  EXPECT_LE(s.p99, 1000.0);
}

TEST(Histogram, QuantilesMonotone) {
  Histogram h;
  for (int i = 0; i < 500; ++i) h.observe(std::pow(1.1, i % 40));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_GE(s.p50, s.min);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p95, s.p90);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_GE(s.max, s.p99);
}

TEST(Histogram, NonPositiveAndNanGoToUnderflowBucket) {
  Histogram h;
  h.observe(0.0);
  h.observe(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, SnapshotMatchesAccessors) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.observe(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, h.count());
  EXPECT_DOUBLE_EQ(s.sum, h.sum());
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST(MetricsRegistry, LookupsReturnStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("tveg.test.counter");
  Counter& b = registry.counter("tveg.test.counter");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  Gauge& g = registry.gauge("tveg.test.gauge");
  EXPECT_EQ(&g, &registry.gauge("tveg.test.gauge"));
  Histogram& h = registry.histogram("tveg.test.hist");
  EXPECT_EQ(&h, &registry.histogram("tveg.test.hist"));
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.counter("tveg.b").add(2);
  registry.counter("tveg.a").add(1);
  registry.gauge("tveg.g").set(3.5);
  const MetricsRegistry::Snapshot s = registry.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "tveg.a");
  EXPECT_EQ(s.counters[0].second, 1u);
  EXPECT_EQ(s.counters[1].first, "tveg.b");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 3.5);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.counter("tveg.r.c");
  Histogram& h = registry.histogram("tveg.r.h");
  c.add(5);
  h.observe(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&c, &registry.counter("tveg.r.c"));
}

TEST(MetricsConcurrency, ParallelForLosesNoIncrements) {
  MetricsRegistry registry;
  Counter& c = registry.counter("tveg.conc.counter");
  Histogram& h = registry.histogram("tveg.conc.hist");
  constexpr std::size_t kN = 20000;
  support::ThreadPool pool(4);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    c.add(1);
    h.observe(static_cast<double>(i % 64 + 1));
  });
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(h.count(), kN);
}

TEST(MetricsConcurrency, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  support::ThreadPool pool(4);
  pool.parallel_for(0, 256, [&](std::size_t i) {
    registry.counter("tveg.reg." + std::to_string(i % 8)).add(1);
  });
  std::uint64_t total = 0;
  for (const auto& [name, value] : registry.snapshot().counters) total += value;
  EXPECT_EQ(total, 256u);
}

}  // namespace
}  // namespace tveg::obs
