// Cancellation-storm stress (run instrumented by the TSan tier, see
// scripts/ci.sh): many solve_many batches racing external per-request
// cancels at seeded random points must never leak a pool task, touch freed
// state, or corrupt an uncancelled solve — the control request stays
// byte-identical to the serial oracle throughout the storm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/eedcb.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::sim {
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

trace::ContactTrace storm_trace(std::uint64_t seed) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

std::string serialized(const core::Schedule& schedule) {
  std::ostringstream out;
  core::write_schedule(out, schedule);
  return out.str();
}

/// Rounds of batches; in each round a harness thread fires every request's
/// CancelSource (its SolveRequest::cancel) after a seeded random number of
/// observed polls (including 0 — cancel-before-start — and "never" — the
/// control case).
TEST(CancelStorm, RacingCancelsNeverCorruptOrWedge) {
  const trace::ContactTrace t = storm_trace(9);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();
  support::ThreadPool pool(4);

  // Serial oracle for the control request.
  const core::TmedbInstance control_inst{&tveg, 0, 200.0};
  const auto oracle = core::run_eedcb(control_inst, dts, {});
  const std::string oracle_text = serialized(oracle.schedule);

  support::Rng rng(20260808);
  for (int round = 0; round < 8; ++round) {
    std::vector<core::SolveRequest> requests;
    for (NodeId s = 0; s < 6; ++s)
      requests.push_back({.source = s, .deadline = 200.0});
    // Request 0 is the control: its source is never fired.
    std::vector<support::CancelSource> cancels(requests.size());
    std::vector<std::uint64_t> fire_at(requests.size());
    for (std::size_t r = 1; r < requests.size(); ++r) {
      fire_at[r] = rng.uniform_int(2000);
      requests[r].cancel = cancels[r].token();
    }

    core::EedcbOptions options;
    options.pool = &pool;

    std::atomic<bool> done{false};
    std::vector<std::thread> firers;
    for (std::size_t r = 1; r < requests.size(); ++r) {
      firers.emplace_back([&, r] {
        while (cancels[r].polls() < fire_at[r] && !done.load()) {
          std::this_thread::yield();
        }
        cancels[r].request_cancel();
      });
    }

    const auto batch = core::solve_many(tveg, dts, requests, options);
    done.store(true);
    for (auto& thread : firers) thread.join();

    ASSERT_EQ(batch.size(), requests.size()) << "round " << round;
    // The control request survived the storm byte-identically.
    ASSERT_TRUE(batch[0].ok()) << "round " << round;
    EXPECT_EQ(serialized(batch[0].value().schedule), oracle_text)
        << "round " << round;
    // Every other outcome is a clean schedule or a clean cancellation —
    // nothing else can come out of a cancel race.
    for (std::size_t r = 1; r < requests.size(); ++r) {
      if (batch[r].ok()) continue;
      EXPECT_EQ(batch[r].error().code, support::ErrorCode::kCancelled)
          << "round " << round << " request " << r << ": "
          << batch[r].error().to_string();
    }
    // No leaked pool task: the pool drains to fully reusable every round.
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(0, 500, [&](std::size_t) { ++ran; });
    ASSERT_EQ(ran.load(), 500u) << "round " << round;
  }
}

/// Concurrent batches from several caller threads over one shared TVEG and
/// DTS, each request carrying its own cancel token — exercises the shared
/// read-only state and per-request budgets across threads under TSan.
TEST(CancelStorm, ConcurrentBatchesStayIsolated) {
  const trace::ContactTrace t = storm_trace(13);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  constexpr int kBatches = 3;
  std::vector<std::vector<core::SolveOutcome>> results(kBatches);
  std::vector<std::thread> runners;
  for (int b = 0; b < kBatches; ++b) {
    runners.emplace_back([&, b] {
      const support::CancelSource never_fired;
      std::vector<core::SolveRequest> requests;
      for (NodeId s = 0; s < 4; ++s) {
        requests.push_back({.source = s, .deadline = 200.0});
        requests.back().cancel = never_fired.token();
      }
      results[static_cast<std::size_t>(b)] =
          core::solve_many(tveg, dts, requests, {});
    });
  }
  for (auto& thread : runners) thread.join();

  const std::string expected =
      serialized(core::run_eedcb(core::TmedbInstance{&tveg, 0, 200.0}, dts, {})
                     .schedule);
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_EQ(results[static_cast<std::size_t>(b)].size(), 4u);
    ASSERT_TRUE(results[static_cast<std::size_t>(b)][0].ok());
    EXPECT_EQ(
        serialized(results[static_cast<std::size_t>(b)][0].value().schedule),
        expected);
  }
}

}  // namespace
}  // namespace tveg::sim
