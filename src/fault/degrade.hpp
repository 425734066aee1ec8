// Graceful solver degradation (robustness subsystem, layer 2).
//
// Production broadcast scheduling cannot answer "the solver blew its time
// budget" with a crash or an empty hand: something must transmit. The
// fallback ladder runs the requested scheduler under a wall-clock budget
// and, when it times out (or throws, or fails to cover), descends to
// structurally simpler rungs:
//
//     EEDCB  (Steiner pipeline, best energy, slowest)
//       ↓ timeout / error / uncovered
//     BIP    (incremental-power heuristic, mid energy, faster)
//       ↓ timeout / error / uncovered
//     GREED  (one greedy sweep, costliest, effectively never fails)
//
// The final rung always runs without a deadline and always returns a
// schedule — some schedule beats no schedule. Coverage at the bottom is
// best-effort: a timed-out rung leaves nothing behind, so when GREED's
// heuristic covers less than EEDCB would have with more budget, that
// shortfall is visible in result.covered_all (and counted as a descent
// when an earlier rung failed for it). Results are tagged with the rung
// that produced them and every descent is counted in the obs registry
// under tveg.fault.solve.*.
//
// robust_solve_many is the batched entry: one core::solve_many batch whose
// timed-out slots land on the ladder's final rung.
#pragma once

#include <vector>

#include "core/energy_allocation.hpp"
#include "core/fr.hpp"
#include "core/solve_many.hpp"
#include "support/budget.hpp"
#include "support/result.hpp"
#include "tvg/dts.hpp"

namespace tveg::fault {

/// The ladder's rungs, best-first.
enum class SolverRung { kEedcb, kBip, kGreed };

const char* rung_name(SolverRung rung);

/// Options for one robust solve.
struct RobustSolveOptions {
  /// Wall-clock budget for the whole ladder in ms; < 0 = unlimited. The
  /// final rung ignores what is left of it (it must produce a schedule).
  double budget_ms = -1;
  /// First rung to try (lower rungs are already their own fallback).
  SolverRung start = SolverRung::kEedcb;
  /// Optional cancel token observed by every rung *including* the final
  /// one: a fired token makes robust_solve throw support::CancelledError
  /// instead of descending — cancellation means "stop", not "try cheaper".
  /// Default: never cancelled.
  support::CancelToken cancel;
  core::EedcbOptions eedcb;
};

/// A robust solve outcome: the schedule, the rung that produced it, and the
/// structured errors of every rung that was abandoned on the way down.
struct RobustSolveResult {
  core::SchedulerResult result;
  SolverRung rung = SolverRung::kEedcb;
  /// Why higher rungs were abandoned (kTimeout / kInternal / kInfeasible),
  /// in descent order; empty when the first rung succeeded.
  std::vector<support::Error> descents;

  bool degraded() const { return !descents.empty(); }
};

/// Runs the ladder on `instance` over `dts`. Never throws for timeouts or
/// rung failures (those are recorded in `descents`); only programming
/// errors (invalid instance) still propagate.
RobustSolveResult robust_solve(const core::TmedbInstance& instance,
                               const DiscreteTimeSet& dts,
                               const RobustSolveOptions& options = {});

/// FR variant: backbone ladder on the (fading) instance followed by NLP
/// energy allocation with bounded retry (see AllocationOptions::max_retries).
struct RobustFrResult {
  RobustSolveResult backbone;
  core::AllocationOutcome allocation;
  const core::Schedule& schedule() const { return allocation.schedule; }
  bool feasible() const {
    return backbone.result.covered_all && allocation.feasible;
  }
};

RobustFrResult robust_solve_fr(
    const core::TmedbInstance& instance, const DiscreteTimeSet& dts,
    const RobustSolveOptions& options = {},
    const core::AllocationOptions& allocation_options = {});

/// Batched ladder: solves `requests` with core::solve_many under `options`,
/// then hands every slot that timed out to robust_solve from GREED with the
/// request's cancel token. A degraded slot's descents are the timeout
/// followed by the ladder's own; cancelled and invalid requests keep their
/// solve_many error. Outcomes are in request order.
std::vector<support::Result<RobustSolveResult>> robust_solve_many(
    const core::Tveg& tveg, const DiscreteTimeSet& dts,
    const std::vector<core::SolveRequest>& requests,
    const core::EedcbOptions& options = {});

}  // namespace tveg::fault
