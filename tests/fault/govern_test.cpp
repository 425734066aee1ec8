// Per-request budgets on the one batch path: core::solve_many isolates
// every request in its own Result slot (timeouts, cancels and poisoned
// instances cost exactly that slot), and fault::robust_solve_many hands the
// timed-out slots to the fallback ladder. Also pins the bounded-cancel
// acceptance — a mid-solve cancellation returns within a fixed poll-count
// bound without wedging the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "core/solve_many.hpp"
#include "fault/degrade.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::fault {
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

trace::ContactTrace sample_trace(std::uint64_t seed = 1, int nodes = 8,
                                 Time horizon = 200) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 20;
  cfg.horizon = horizon;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

std::string serialized(const core::Schedule& schedule) {
  std::ostringstream out;
  core::write_schedule(out, schedule);
  return out.str();
}

std::uint64_t counter(const char* key) {
  return obs::MetricsRegistry::global().counter(key).value();
}

/// A request for `source` at deadline 200 with the given time budget.
core::SolveRequest request(NodeId source, double time_budget_ms = -1) {
  core::SolveRequest r;
  r.source = source;
  r.deadline = 200.0;
  r.time_budget_ms = time_budget_ms;
  return r;
}

TEST(Govern, CleanBatchIsByteIdenticalToUngoverned) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 8; ++s)
    requests.push_back({.source = s, .deadline = 200.0});
  requests.push_back({.source = 0, .deadline = 120.0});

  const auto robust = robust_solve_many(tveg, dts, requests, {});
  ASSERT_EQ(robust.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(robust[i].ok()) << "request " << i;
    EXPECT_EQ(robust[i].value().rung, SolverRung::kEedcb);
    EXPECT_FALSE(robust[i].value().degraded());
    const auto oracle =
        core::run_eedcb(core::to_instance(tveg, requests[i]), dts, {});
    EXPECT_EQ(serialized(robust[i].value().result.schedule),
              serialized(oracle.schedule))
        << "request " << i;
  }
}

TEST(Govern, PoisonedRequestCostsExactlyItsOwnSlot) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  // Source 100 does not exist: the solve throws deep inside the pipeline,
  // and the batch turns that into the request's own error slot.
  const std::vector<core::SolveRequest> poisoned = {request(0), request(100),
                                                    request(1)};
  const auto batch = core::solve_many(tveg, dts, poisoned, {});
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(batch[0].ok());
  ASSERT_FALSE(batch[1].ok());
  EXPECT_EQ(batch[1].error().code, support::ErrorCode::kInternal);
  ASSERT_TRUE(batch[2].ok());

  // The survivors are byte-identical to a baseline that never saw the
  // poison, and the ladder does not paper over the invalid request.
  const auto baseline =
      core::solve_many(tveg, dts, {poisoned[0], poisoned[2]}, {});
  EXPECT_EQ(serialized(batch[0].value().schedule),
            serialized(baseline[0].value().schedule));
  EXPECT_EQ(serialized(batch[2].value().schedule),
            serialized(baseline[1].value().schedule));
  const auto robust = robust_solve_many(tveg, dts, poisoned, {});
  ASSERT_FALSE(robust[1].ok());
  EXPECT_EQ(robust[1].error().code, support::ErrorCode::kInternal);
}

TEST(Govern, ZeroBudgetSlotsAreTimeoutsNotThrows) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});

  // The dts-building overload, for coverage of both entry points.
  const auto batch =
      core::solve_many(tveg, {request(0, /*time_budget_ms=*/0), request(1)});
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_FALSE(batch[0].ok());
  EXPECT_EQ(batch[0].error().code, support::ErrorCode::kTimeout);
  EXPECT_TRUE(batch[1].ok()) << "a timeout must not leak into the next slot";
}

TEST(Govern, ZeroBudgetDegradesEveryRequestToGreed) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  std::vector<core::SolveRequest> requests;
  for (NodeId s = 0; s < 4; ++s) requests.push_back(request(s, 0));

  const auto robust = robust_solve_many(tveg, dts, requests, {});
  for (std::size_t i = 0; i < robust.size(); ++i) {
    ASSERT_TRUE(robust[i].ok()) << "request " << i;
    const RobustSolveResult& r = robust[i].value();
    EXPECT_EQ(r.rung, SolverRung::kGreed) << "request " << i;
    ASSERT_TRUE(r.degraded()) << "request " << i;
    EXPECT_EQ(r.descents.front().code, support::ErrorCode::kTimeout);
    const core::TmedbInstance inst{&tveg, requests[i].source, 200.0};
    EXPECT_TRUE(core::check_feasibility(inst, r.result.schedule).feasible)
        << "request " << i;
  }
}

TEST(Govern, TimeoutIsCountedAsALadderDescent) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  const std::uint64_t descents = counter(obs::keys::kFaultSolveDescents);
  const std::uint64_t timeouts = counter(obs::keys::kFaultSolveTimeouts);
  const std::uint64_t degraded = counter(obs::keys::kFaultSolveDegraded);
  const auto robust =
      robust_solve_many(tveg, dts, {request(0, 0), request(1), request(2, 0)});
  ASSERT_EQ(robust.size(), 3u);
  EXPECT_EQ(counter(obs::keys::kFaultSolveDescents) - descents, 2u);
  EXPECT_EQ(counter(obs::keys::kFaultSolveTimeouts) - timeouts, 2u);
  EXPECT_EQ(counter(obs::keys::kFaultSolveDegraded) - degraded, 2u);
}

TEST(Govern, CancelledRequestIsNeverDegraded) {
  // Cancellation is "stop", not "try cheaper": a fired token wins over an
  // expired budget, and the ladder does not turn it into a GREED schedule.
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  const support::CancelSource fired;
  fired.request_cancel();
  core::SolveRequest cancelled = request(0, 0);
  cancelled.cancel = fired.token();
  const auto robust =
      robust_solve_many(tveg, dts, {cancelled, request(1)}, {});
  ASSERT_EQ(robust.size(), 2u);
  ASSERT_FALSE(robust[0].ok());
  EXPECT_EQ(robust[0].error().code, support::ErrorCode::kCancelled);
  ASSERT_TRUE(robust[1].ok());
  EXPECT_FALSE(robust[1].value().degraded());
}

TEST(Govern, RequestFieldsOverrideTheBatchBudget) {
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  // The batch budget is already spent: a request that sets neither field
  // runs under it, one with its own time budget replaces its deadline, and
  // one with only a token of its own keeps the batch's deadline.
  core::EedcbOptions options;
  options.budget = support::Deadline::after_ms(0);
  const support::CancelSource source;
  core::SolveRequest token_only = request(2);
  token_only.cancel = source.token();
  const auto batch = core::solve_many(
      tveg, dts, {request(0), request(1, 60000), token_only}, options);
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_FALSE(batch[0].ok());
  EXPECT_EQ(batch[0].error().code, support::ErrorCode::kTimeout);
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(serialized(batch[1].value().schedule),
            serialized(core::run_eedcb(core::TmedbInstance{&tveg, 1, 200.0},
                                       dts, {})
                           .schedule));
  ASSERT_FALSE(batch[2].ok());
  EXPECT_EQ(batch[2].error().code, support::ErrorCode::kTimeout);
}

TEST(Govern, FailedAuxBuildIsRetriedByTheNextRequest) {
  // The group's aux graph is built by its first live request under that
  // request's budget: a cancelled first request fails the build, the next
  // one builds it again, and the third reuses it.
  const trace::ContactTrace t = sample_trace();
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();

  const support::CancelSource fired;
  fired.request_cancel();
  core::SolveRequest first = request(0);
  first.cancel = fired.token();
  const std::uint64_t reuses = counter(obs::keys::kBatchAuxReuses);
  const auto batch =
      core::solve_many(tveg, dts, {first, request(1), request(2)}, {});
  EXPECT_EQ(counter(obs::keys::kBatchAuxReuses) - reuses, 1u);
  ASSERT_FALSE(batch[0].ok());
  EXPECT_EQ(batch[0].error().code, support::ErrorCode::kCancelled);
  for (std::size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(batch[i].ok()) << "request " << i;
    const auto oracle = core::run_eedcb(
        core::TmedbInstance{&tveg, static_cast<NodeId>(i), 200.0}, dts, {});
    EXPECT_EQ(serialized(batch[i].value().schedule),
              serialized(oracle.schedule))
        << "request " << i;
  }
}

TEST(Govern, MidSolveCancelReturnsWithinAFixedPollBound) {
  // Fire a request's CancelSource once its solve is mid-pipeline (the poll
  // count proves it is polling), then assert the cancelled slot lands
  // within a fixed number of further polls and the pool is immediately
  // reusable. The instance is sized so an uncancelled solve runs ~100k
  // polls (tens of ms), which leaves a preempted firer thread ample time.
  const trace::ContactTrace t = sample_trace(3, /*nodes=*/24, /*horizon=*/800);
  const core::Tveg tveg(t, unit_radio(),
                        {.model = channel::ChannelModel::kStep});
  const DiscreteTimeSet dts = tveg.build_dts();
  support::ThreadPool pool(4);

  core::EedcbOptions options;
  options.method = core::SteinerMethod::kRecursiveGreedy;
  options.steiner_level = 2;
  options.pool = &pool;

  const support::CancelSource cancel;
  std::atomic<bool> firer_ready{false};
  std::atomic<bool> solve_done{false};
  std::atomic<std::uint64_t> polls_at_cancel{0};
  std::thread firer([&] {
    // Wait for the solve to prove it is alive (a few hundred budget polls),
    // then cancel. Bail out if the solve somehow finishes first.
    firer_ready.store(true);
    while (cancel.polls() < 300 && !solve_done.load()) {
      std::this_thread::yield();
    }
    polls_at_cancel.store(cancel.polls());
    cancel.request_cancel();
  });
  // The solve starts only once the firer is already watching the count.
  while (!firer_ready.load()) std::this_thread::yield();

  core::SolveRequest req{.source = 0, .deadline = 800.0};
  req.cancel = cancel.token();
  const auto batch = core::solve_many(tveg, dts, {req}, options);
  solve_done.store(true);
  firer.join();

  ASSERT_EQ(batch.size(), 1u);
  ASSERT_FALSE(batch[0].ok())
      << "the solve finished before the cancel landed — grow the instance";
  EXPECT_EQ(batch[0].error().code, support::ErrorCode::kCancelled);

  // The fixed bound: once the cancel is visible every poller throws on its
  // next poll, so the tail is a handful of in-flight polls per thread —
  // 4096 is orders of magnitude below the full solve's poll count.
  EXPECT_LE(cancel.polls() - polls_at_cancel.load(), 4096u);

  // No pool task is still running: a fresh loop completes, and a clean
  // (short-deadline) solve on the same pool succeeds.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1000u);
  const auto clean =
      core::solve_many(tveg, dts, {{.source = 0, .deadline = 200.0}}, options);
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean[0].ok());
}

}  // namespace
}  // namespace tveg::fault
