// Satellite (a): the overhead budget. Span tracing is compiled into every
// hot path (cache lookups, MC trials, pool tasks), so the *disabled* cost —
// one relaxed atomic load plus a branch per ScopedSpan — must stay
// negligible: the instrumented spans of a representative solve, priced at
// the measured per-disabled-span cost, must add up to <= 2% of that solve's
// wall time, and the per-span cost itself must stay under an absolute bound.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "core/eedcb.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "oracle/json_reader.hpp"
#include "trace/generators.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TVEG_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TVEG_SANITIZED 1
#endif
#endif
#ifndef TVEG_SANITIZED
#define TVEG_SANITIZED 0
#endif

namespace tveg::obs {
namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

core::SchedulerResult run_solve(const core::TmedbInstance& inst,
                                const DiscreteTimeSet& dts) {
  return core::run_eedcb(inst, dts, {});
}

TEST(Overhead, DisabledSpansCostAtMostTwoPercentOfASolve) {
  if (TVEG_SANITIZED)
    GTEST_SKIP() << "sanitizer instrumentation distorts the timing budget";

  set_span_tracing(false);
  set_enabled(false);
  span_reset();
  MetricsRegistry::global().reset();

  trace::SnapshotConfig cfg;
  cfg.nodes = 14;
  cfg.slot = 20;
  cfg.horizon = 400;
  cfg.p = 0.3;
  cfg.seed = 7;
  const trace::ContactTrace t = trace::generate_snapshots(cfg);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const core::TmedbInstance inst{&tveg, 0, 400.0};
  const DiscreteTimeSet dts = tveg.build_dts();

  // 1. Count how many spans this solve actually opens (records + drops);
  //    queue waits do not occur serially, so B events + drops cover it.
  set_span_tracing(true);
  run_solve(inst, dts);
  // The export syncs tveg.obs.span_drops, zeroed above, to the rings' drops.
  const oracle::JsonValue trace_doc = oracle::read_json(chrome_trace());
  std::uint64_t spans =
      MetricsRegistry::global().counter(keys::kObsSpanDrops).value();
  const oracle::JsonValue* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const oracle::JsonValue& e : events->items())
    if (e.find("ph")->as_string() == "B") ++spans;
  set_span_tracing(false);
  span_reset();
  ASSERT_GT(spans, 0u) << "the solve exercises no instrumented spans";

  // 2. Per-disabled-span cost, amortized over a tight loop. Warm up once so
  //    lazy statics are priced out.
  constexpr std::uint64_t kProbe = 2'000'000;
  { ScopedSpan warm("overhead_probe"); }
  const auto probe_start = Clock::now();
  for (std::uint64_t i = 0; i < kProbe; ++i) {
    ScopedSpan span("overhead_probe");
  }
  const double per_span_ns =
      ns_between(probe_start, Clock::now()) / static_cast<double>(kProbe);

  // 3. The solve's wall time with everything disabled (best of 3, to shrug
  //    off scheduler noise on shared CI hardware).
  double solve_ns = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    run_solve(inst, dts);
    solve_ns = std::min(solve_ns, ns_between(start, Clock::now()));
  }

  const double overhead_ns = per_span_ns * static_cast<double>(spans);
  const double fraction = overhead_ns / solve_ns;
  RecordProperty("per_span_ns", std::to_string(per_span_ns));
  RecordProperty("spans_per_solve", std::to_string(spans));
  RecordProperty("overhead_fraction", std::to_string(fraction));

  // The budget: disabled instrumentation must be invisible. 50 ns per span
  // is ~an order of magnitude above what a load+branch should cost, and the
  // aggregate must stay within the 2% bar the issue sets.
  EXPECT_LT(per_span_ns, 50.0);
  EXPECT_LT(fraction, 0.02)
      << "disabled spans cost " << overhead_ns / 1e6 << " ms against a "
      << solve_ns / 1e6 << " ms solve (" << spans << " spans at "
      << per_span_ns << " ns)";
}

}  // namespace
}  // namespace tveg::obs
