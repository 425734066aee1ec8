#include "fault/degrade.hpp"

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/baselines.hpp"
#include "core/bip.hpp"
#include "core/eedcb.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tveg::fault {

using support::Error;
using support::ErrorCode;

const char* rung_name(SolverRung rung) {
  switch (rung) {
    case SolverRung::kEedcb: return "eedcb";
    case SolverRung::kBip: return "bip";
    case SolverRung::kGreed: return "greed";
  }
  return "?";
}

namespace {

core::SchedulerResult run_rung(SolverRung rung,
                               const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options,
                               const support::Budget& budget) {
  switch (rung) {
    case SolverRung::kEedcb: {
      core::EedcbOptions eedcb = options.eedcb;
      eedcb.budget = budget;
      return core::run_eedcb(instance, dts, eedcb);
    }
    case SolverRung::kBip: {
      core::BipOptions bip;
      bip.budget = budget;
      return core::run_bip(instance, dts, bip);
    }
    case SolverRung::kGreed: {
      // GREED itself never polls, so the token is read once, up front.
      budget.cancel.check("greed");
      core::BaselineOptions greed;
      greed.rule = core::BaselineRule::kGreedy;
      return core::run_baseline(instance, dts, greed);
    }
  }
  throw std::logic_error("unknown rung");
}

void count_descent(const Error& error) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& descents = registry.counter(obs::keys::kFaultSolveDescents);
  static obs::Counter& timeouts = registry.counter(obs::keys::kFaultSolveTimeouts);
  descents.add(1);
  if (error.code == ErrorCode::kTimeout) timeouts.add(1);
}

obs::Counter& degraded_counter() {
  static obs::Counter& degraded =
      obs::MetricsRegistry::global().counter(obs::keys::kFaultSolveDegraded);
  return degraded;
}

}  // namespace

RobustSolveResult robust_solve(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options) {
  obs::TraceSpan span("robust_solve");
  instance.validate();
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& solves = registry.counter(obs::keys::kFaultSolveAttempts);
  solves.add(1);

  // One budget for the whole ladder: a rung that burns the clock leaves
  // less for the next, and the final rung ignores what is left of the
  // deadline (but still honors the cancel token — cancellation is "stop",
  // not "try cheaper", and propagates as CancelledError).
  const support::Deadline deadline = options.budget_ms < 0
                                         ? support::Deadline()
                                         : support::Deadline::after_ms(
                                               options.budget_ms);
  const support::Budget budget(deadline, options.cancel);
  const support::Budget last_budget(support::Deadline(), options.cancel);

  using obs::FlightEventKind;
  obs::flight_recorder().record(FlightEventKind::kSolveStart,
                                static_cast<std::uint64_t>(options.start),
                                static_cast<std::uint64_t>(
                                    options.budget_ms < 0 ? 0
                                                          : options.budget_ms));

  static obs::Counter& skips = registry.counter(obs::keys::kFaultSolveRungSkips);

  RobustSolveResult out;
  SolverRung rung = options.start;
  for (;;) {
    const bool last = rung == SolverRung::kGreed;
    // Short-circuit a rung whose budget is already spent: entering it would
    // only burn scheduler setup (DTS walks, aux-graph allocation) before the
    // first poll threw anyway. The descent record is identical to the one a
    // first-poll timeout would have produced, so ladder observers (tests,
    // flight dumps) see the same shape either way — plus a rung_skipped
    // marker saying no solver work ran at all.
    if (!last && deadline.expired()) {
      obs::flight_recorder().record(FlightEventKind::kDeadlineExpired,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
      obs::flight_recorder().record(FlightEventKind::kRungSkipped,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
      skips.add(1);
      Error skipped{ErrorCode::kTimeout,
                    std::string(rung_name(rung)) +
                        " skipped: ladder budget already expired",
                    -1};
      count_descent(skipped);
      obs::flight_recorder().record(
          FlightEventKind::kRungDemoted, static_cast<std::uint64_t>(rung),
          static_cast<std::uint64_t>(skipped.code), rung_name(rung));
      obs::flight_dump("fallback-ladder demotion");
      out.descents.push_back(std::move(skipped));
      rung = rung == SolverRung::kEedcb ? SolverRung::kBip : SolverRung::kGreed;
      continue;
    }
    obs::flight_recorder().record(FlightEventKind::kRungStart,
                                  static_cast<std::uint64_t>(rung), 0,
                                  rung_name(rung));
    Error descent{ErrorCode::kInternal, "", -1};
    try {
      out.result = run_rung(rung, instance, dts, options,
                            last ? last_budget : budget);
      if (out.result.covered_all || last) {
        out.rung = rung;
        obs::flight_recorder().record(FlightEventKind::kRungSelected,
                                      static_cast<std::uint64_t>(rung),
                                      out.descents.size(), rung_name(rung));
        if (out.degraded()) degraded_counter().add(1);
        return out;
      }
      descent = {ErrorCode::kInfeasible,
                 std::string(rung_name(rung)) +
                     " left nodes uncovered within the deadline",
                 -1};
    } catch (const support::CancelledError&) {
      throw;  // cancellation aborts the ladder, it never descends
    } catch (const support::TimeoutError& e) {
      descent = {ErrorCode::kTimeout, e.what(), -1};
      obs::flight_recorder().record(FlightEventKind::kDeadlineExpired,
                                    static_cast<std::uint64_t>(rung), 0,
                                    rung_name(rung));
    } catch (const std::exception& e) {
      descent = {ErrorCode::kInternal,
                 std::string(rung_name(rung)) + " threw: " + e.what(), -1};
    }
    count_descent(descent);
    obs::flight_recorder().record(
        FlightEventKind::kRungDemoted, static_cast<std::uint64_t>(rung),
        static_cast<std::uint64_t>(descent.code), rung_name(rung));
    // A demotion is exactly the "what just happened?" moment the recorder
    // exists for: dump the ring before the next rung overwrites context.
    obs::flight_dump("fallback-ladder demotion");
    out.descents.push_back(std::move(descent));
    rung = rung == SolverRung::kEedcb ? SolverRung::kBip : SolverRung::kGreed;
  }
}

RobustFrResult robust_solve_fr(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options,
                               const core::AllocationOptions& alloc) {
  RobustFrResult out;
  out.backbone = robust_solve(instance, dts, options);
  out.allocation =
      core::allocate_energy(instance, out.backbone.result.schedule, alloc);
  return out;
}

std::vector<support::Result<RobustSolveResult>> robust_solve_many(
    const core::Tveg& tveg, const DiscreteTimeSet& dts,
    const std::vector<core::SolveRequest>& requests,
    const core::EedcbOptions& options) {
  std::vector<core::SolveOutcome> solved =
      core::solve_many(tveg, dts, requests, options);
  std::vector<support::Result<RobustSolveResult>> out;
  out.reserve(solved.size());
  for (std::size_t r = 0; r < solved.size(); ++r) {
    if (solved[r].ok()) {
      RobustSolveResult clean;
      clean.result = std::move(solved[r]).value();
      out.emplace_back(std::move(clean));
      continue;
    }
    const Error& error = solved[r].error();
    if (error.code != ErrorCode::kTimeout) {
      out.emplace_back(error);
      continue;
    }
    count_descent(error);
    RobustSolveOptions ladder;
    ladder.start = SolverRung::kGreed;
    ladder.cancel = requests[r].cancel.valid() ? requests[r].cancel
                                               : options.budget.cancel;
    try {
      RobustSolveResult degraded =
          robust_solve(core::to_instance(tveg, requests[r]), dts, ladder);
      degraded.descents.insert(degraded.descents.begin(), error);
      degraded_counter().add(1);
      out.emplace_back(std::move(degraded));
    } catch (const support::CancelledError& e) {
      out.emplace_back(Error{ErrorCode::kCancelled, e.what(), -1});
    } catch (const std::exception& e) {
      out.emplace_back(Error{ErrorCode::kInternal, e.what(), -1});
    }
  }
  return out;
}

}  // namespace tveg::fault
