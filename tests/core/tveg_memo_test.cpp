// Tveg memo-table property tests: memoized queries must be
// indistinguishable — bit for bit — from the memoization-free Tveg, under
// random interleaved lookups and under concurrent readers (the TSan tier
// runs the stress test instrumented).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "core/tveg.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::core {
namespace {

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

trace::ContactTrace random_trace(std::uint64_t seed) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 10;
  cfg.horizon = 200;
  cfg.p = 0.3;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

Tveg::Options model_options(channel::ChannelModel model) {
  Tveg::Options o;
  o.model = model;
  return o;
}

/// Randomized interleaved lookups against a memo-free twin, across all four
/// channel models (Nakagami/Rician exercise the bisection-backed min-cost).
TEST(TvegMemo, MatchesMemoFreeReferenceExactly) {
  for (const auto model :
       {channel::ChannelModel::kStep, channel::ChannelModel::kRayleigh,
        channel::ChannelModel::kNakagami, channel::ChannelModel::kRician}) {
    const trace::ContactTrace t = random_trace(7);
    const Tveg reference(t, unit_radio(), model_options(model));
    Tveg memoized(t, unit_radio(), model_options(model));
    memoized.memoize();
    ASSERT_FALSE(reference.memoized());
    ASSERT_TRUE(memoized.memoized());

    support::Rng rng(42);
    const auto n = reference.node_count();
    for (int q = 0; q < 2000; ++q) {
      const auto a = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      const auto b = static_cast<NodeId>(rng.uniform_int(
          static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      const Time time = rng.uniform(0.0, 200.0);
      // Exact equality, not near-equality: the memo must be filled by the
      // identical materialization code path.
      ASSERT_EQ(reference.edge_weight(a, b, time),
                memoized.edge_weight(a, b, time))
          << "model " << static_cast<int>(model) << " pair " << a << "," << b
          << " t=" << time;
      const Cost w = rng.uniform(0.0, 10.0);
      ASSERT_EQ(reference.failure_probability(a, b, time, w),
                memoized.failure_probability(a, b, time, w));
    }
  }
}

/// The discrete cost sets (the aux-graph input) must agree as well — they
/// aggregate many edge weights and feed the schedule directly.
TEST(TvegMemo, DiscreteCostSetsMatch) {
  const trace::ContactTrace t = random_trace(11);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg memoized(t, unit_radio(),
                model_options(channel::ChannelModel::kRayleigh));
  memoized.memoize();

  for (NodeId i = 0; i < reference.node_count(); ++i)
    for (Time time : {0.0, 25.0, 99.5, 150.0, 199.0}) {
      const auto ref = reference.discrete_cost_set(i, time);
      const auto got = memoized.discrete_cost_set(i, time);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(ref[k].cost, got[k].cost);
        EXPECT_EQ(ref[k].neighbor, got[k].neighbor);
      }
    }
}

/// Concurrent readers hammering one memo table must agree with the serial
/// reference. The TSan CI tier runs this instrumented.
TEST(TvegMemo, ConcurrentReadersStress) {
  const trace::ContactTrace t = random_trace(13);
  const Tveg reference(t, unit_radio(),
                       model_options(channel::ChannelModel::kRayleigh));
  Tveg memoized(t, unit_radio(),
                model_options(channel::ChannelModel::kRayleigh));
  memoized.memoize();

  // Deterministic query set, precomputed serial answers.
  struct Query {
    NodeId a;
    NodeId b;
    Time t;
    Cost expected;
  };
  std::vector<Query> queries;
  support::Rng rng(99);
  const auto n = reference.node_count();
  for (int q = 0; q < 4000; ++q) {
    const auto a = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (a == b) continue;
    const Time time = rng.uniform(0.0, 200.0);
    queries.push_back({a, b, time, reference.edge_weight(a, b, time)});
  }

  support::ThreadPool workers(8);
  std::vector<char> ok(queries.size(), 0);
  workers.parallel_for(0, queries.size(), [&](std::size_t i) {
    const Query& q = queries[i];
    ok[i] = memoized.edge_weight(q.a, q.b, q.t) == q.expected ? 1 : 0;
  });
  for (std::size_t i = 0; i < queries.size(); ++i)
    ASSERT_TRUE(ok[i]) << "query " << i;
}

/// memoize() records one build and one entry per (pair, distinct contact
/// start) — the distance-profile segments — and a second call is a no-op.
TEST(TvegMemo, StatsAccounting) {
  const trace::ContactTrace t = random_trace(1);
  std::set<std::tuple<NodeId, NodeId, Time>> segments;
  for (const trace::Contact& c : t.contacts())
    segments.emplace(std::min(c.a, c.b), std::max(c.a, c.b), c.start);
  ASSERT_FALSE(segments.empty());

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& builds = registry.counter(obs::keys::kCacheBuilds);
  obs::Counter& entries = registry.counter(obs::keys::kCacheEntries);
  const std::uint64_t builds_before = builds.value();
  const std::uint64_t entries_before = entries.value();

  Tveg memoized(t, unit_radio(), model_options(channel::ChannelModel::kStep));
  memoized.memoize();
  memoized.memoize();
  EXPECT_EQ(builds.value() - builds_before, 1u);
  EXPECT_EQ(entries.value() - entries_before, segments.size());
}

}  // namespace
}  // namespace tveg::core
