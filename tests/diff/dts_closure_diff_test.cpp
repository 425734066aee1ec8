// Differential suite for the time-ordered DTS sweep (tvg/dts.hpp): every
// node's point vector must be BYTE-identical (memcmp) to the closure the
// independent certifier derives from the contact list alone
// (certify::dts_closure, a FIFO worklist). Covered: generated traces at
// τ = 0 (the component spread) and τ = 7.5 (the +τ cascade), with channel
// breakpoints and without them, and hand-built traces where a propagated
// point lands within the dedup tolerance just below a seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/tveg.hpp"
#include "sim/experiment.hpp"
#include "support/rng.hpp"
#include "tools/certify/certify.hpp"
#include "trace/generators.hpp"
#include "tvg/dts.hpp"

namespace tveg {
namespace {

constexpr Time kTaus[] = {0.0, 7.5};

core::Tveg make_tveg(const trace::ContactTrace& trace, Time tau) {
  return core::Tveg(trace, sim::paper_radio(),
                    {.model = channel::ChannelModel::kStep, .tau = tau});
}

std::vector<std::vector<Time>> certifier_closure(
    const trace::ContactTrace& trace, Time tau) {
  certify::Options opt;
  opt.tau = tau;
  bool truncated = false;
  auto closure = certify::dts_closure(trace, opt, truncated);
  EXPECT_FALSE(truncated);
  return closure;
}

void expect_identical(const DiscreteTimeSet& dts,
                      const std::vector<std::vector<Time>>& oracle,
                      const std::string& what) {
  ASSERT_FALSE(dts.truncated()) << what;
  ASSERT_EQ(static_cast<std::size_t>(dts.node_count()), oracle.size()) << what;
  for (NodeId v = 0; v < dts.node_count(); ++v) {
    const auto& got = dts.points(v);
    const auto& want = oracle[static_cast<std::size_t>(v)];
    ASSERT_EQ(got.size(), want.size()) << what << " node " << v;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(Time)),
              0)
        << what << " node " << v;
  }
}

/// Tveg::build_dts seeds channel breakpoints, exactly as the certifier does.
void expect_build_matches_certifier(const trace::ContactTrace& trace,
                                    const std::string& what) {
  for (Time tau : kTaus) {
    const std::string label = what + " tau=" + std::to_string(tau);
    expect_identical(make_tveg(trace, tau).build_dts(),
                     certifier_closure(trace, tau), label);
  }
}

TEST(DtsClosureDiff, SnapshotTracesWithBreakpoints) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    trace::SnapshotConfig cfg;
    cfg.nodes = 7;
    cfg.slot = 20;
    cfg.horizon = 300;
    cfg.p = 0.3;
    cfg.seed = seed;
    expect_build_matches_certifier(trace::generate_snapshots(cfg),
                                   "snapshots seed " + std::to_string(seed));
  }
}

TEST(DtsClosureDiff, HaggleLikeTracesWithBreakpoints) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    trace::HaggleLikeConfig cfg;
    cfg.nodes = 8;
    cfg.horizon = 2500;
    cfg.activation_ramp_end = 500;
    cfg.seed = seed;
    expect_build_matches_certifier(trace::generate_haggle_like(cfg),
                                   "haggle-like seed " + std::to_string(seed));
  }
}

/// One contact per pair: every distance profile has a single sample, so no
/// channel breakpoints exist and the closure is the adjacency one alone.
TEST(DtsClosureDiff, SingleContactTracesWithoutBreakpoints) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng rng(seed);
    const NodeId n = 8;
    trace::ContactTrace trace(n, 400.0);
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = a + 1; b < n; ++b) {
        if (!rng.bernoulli(0.45)) continue;
        const Time start = rng.uniform(0.0, 300.0);
        trace.add({a, b, start, start + rng.uniform(5.0, 100.0), 2.0});
      }
    for (Time tau : kTaus) {
      const std::string what = "single-contact seed " + std::to_string(seed) +
                               " tau=" + std::to_string(tau);
      const core::Tveg tveg = make_tveg(trace, tau);
      for (const auto& bps : tveg.channel_breakpoints())
        ASSERT_TRUE(bps.empty()) << what;
      expect_identical(DiscreteTimeSet::build(tveg.graph()),
                       certifier_closure(trace, tau), what);
    }
  }
}

/// Tolerance clusters: a +τ point (τ = 7.5) or a τ = 0 spread lands on
/// node 1 at 7.5, 5e-10 below node 1's own seed (the 1-2 contact opening).
/// The worklist inserts every seed before it propagates, so the seed is the
/// point the cluster keeps; the sweep must keep it too. No other clusters
/// form in these traces.
TEST(DtsClosureDiff, SeedWinsItsToleranceCluster) {
  const Time seed = 7.5 + 5e-10;
  trace::ContactTrace cascade(3, 100.0);
  cascade.add({0, 1, 0.0, 10.0, 1.0});  // 0 reaches 1 at 0 + τ = 7.5
  cascade.add({1, 2, seed, 60.0, 1.0});
  trace::ContactTrace spread(4, 100.0);
  spread.add({0, 1, 0.0, 50.0, 1.0});
  spread.add({0, 3, 7.5, 40.0, 1.0});  // 0's seed 7.5 spreads to 1
  spread.add({1, 2, seed, 60.0, 1.0});
  for (const auto& [trace, tau] :
       {std::pair{cascade, 7.5}, std::pair{spread, 0.0}}) {
    const std::string what = "cluster tau=" + std::to_string(tau);
    const DiscreteTimeSet dts = make_tveg(trace, tau).build_dts();
    const auto& pts = dts.points(1);
    EXPECT_EQ(std::count(pts.begin(), pts.end(), seed), 1) << what;
    EXPECT_EQ(std::count(pts.begin(), pts.end(), 7.5), 0) << what;
    expect_identical(dts, certifier_closure(trace, tau), what);
  }
}

}  // namespace
}  // namespace tveg
