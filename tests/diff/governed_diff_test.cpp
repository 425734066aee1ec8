// Differential suite for the budgeted batch (DESIGN.md "Resource
// governance"): with unlimited budgets, fault::robust_solve_many and
// core::solve_many must both be pure reordering-free batchers — schedules
// BYTE-identical to per-request run_eedcb, transmission lists under exact
// double equality, same serialized text — across seeded random TVEGs, with
// and without memo + pool, and with a poisoned request planted mid-batch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/eedcb.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/degrade.hpp"
#include "support/math.hpp"
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

trace::ContactTrace random_trace(std::uint64_t seed, int nodes) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.25 + 0.05 * static_cast<double>(seed % 4);
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

support::ThreadPool& pool() {
  static support::ThreadPool p(8);
  return p;
}

void expect_identical(const Schedule& oracle, const Schedule& candidate,
                      std::uint64_t seed) {
  ASSERT_EQ(oracle.transmissions().size(), candidate.transmissions().size())
      << "seed " << seed;
  EXPECT_TRUE(oracle.transmissions() == candidate.transmissions())
      << "seed " << seed << ": transmission lists differ";
  std::ostringstream a;
  std::ostringstream b;
  write_schedule(a, oracle);
  write_schedule(b, candidate);
  EXPECT_EQ(a.str(), b.str()) << "seed " << seed
                              << ": serialized schedules differ";
}

std::vector<SolveRequest> mixed_panel(int nodes) {
  std::vector<SolveRequest> requests;
  for (NodeId s = 0; s < nodes; ++s)
    requests.push_back({.source = s, .deadline = 200.0});
  for (NodeId s = 0; s < nodes; s += 2)
    requests.push_back({.source = s, .deadline = 120.0});
  requests.push_back({.source = 0, .deadline = 200.0, .targets = {1, 2}});
  return requests;
}

/// Unlimited budgets: the batch paths must replicate per-request run_eedcb
/// byte for byte, serial and pooled + cached, with or without the ladder.
TEST(GovernedDiff, UnlimitedBudgetsMatchSolveManyByteForByte) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    const Tveg serial(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    Tveg cached(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    cached.memoize();

    const std::vector<SolveRequest> requests = mixed_panel(nodes);
    const auto batch_serial = solve_many(serial, requests, {});

    EedcbOptions pooled_opt;
    pooled_opt.pool = &pool();
    const auto batch_pooled = solve_many(cached, requests, pooled_opt);
    const auto robust_serial =
        fault::robust_solve_many(serial, serial.build_dts(), requests, {});

    ASSERT_EQ(batch_serial.size(), requests.size());
    ASSERT_EQ(batch_pooled.size(), requests.size());
    ASSERT_EQ(robust_serial.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(batch_serial[i].ok()) << "seed " << seed << " request " << i;
      ASSERT_TRUE(batch_pooled[i].ok()) << "seed " << seed << " request " << i;
      ASSERT_TRUE(robust_serial[i].ok())
          << "seed " << seed << " request " << i;
      EXPECT_FALSE(robust_serial[i].value().degraded());
      const Schedule oracle =
          run_eedcb(to_instance(serial, requests[i]), EedcbOptions{}).schedule;
      expect_identical(oracle, batch_serial[i].value().schedule, seed);
      expect_identical(oracle, batch_pooled[i].value().schedule, seed);
      expect_identical(oracle, robust_serial[i].value().result.schedule,
                       seed);
    }
  }
}

/// One poisoned request planted mid-batch: every other request's schedule
/// must still be byte-identical to a baseline that never saw the poison.
TEST(GovernedDiff, PoisonedRequestLeavesEveryOtherScheduleIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    const Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});

    std::vector<SolveRequest> requests = mixed_panel(nodes);
    const auto baseline = solve_many(tveg, requests, {});

    // Plant a request whose source does not exist in the middle of the
    // 200-deadline group.
    const std::size_t poison_at = 3;
    requests.insert(requests.begin() + static_cast<std::ptrdiff_t>(poison_at),
                    {.source = static_cast<NodeId>(nodes + 50),
                     .deadline = 200.0});

    const auto poisoned = solve_many(tveg, requests, {});
    ASSERT_EQ(poisoned.size(), requests.size());
    std::size_t baseline_index = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (i == poison_at) {
        ASSERT_FALSE(poisoned[i].ok()) << "seed " << seed;
        EXPECT_EQ(poisoned[i].error().code, support::ErrorCode::kInternal);
        continue;
      }
      ASSERT_TRUE(poisoned[i].ok()) << "seed " << seed << " request " << i;
      ASSERT_TRUE(baseline[baseline_index].ok()) << "seed " << seed;
      expect_identical(baseline[baseline_index].value().schedule,
                       poisoned[i].value().schedule, seed);
      ++baseline_index;
    }
  }
}

}  // namespace
}  // namespace tveg::core
