// Batched EEDCB solving for scenario sweeps.
//
// A sweep (benchmark panel, Monte-Carlo study, CLI batch) solves many
// instances over ONE TVEG that differ only in source / deadline / targets /
// ε / budget. Solving them independently rebuilds the DTS and the auxiliary
// graph from scratch each time, although both depend only on (TVEG, dts
// options, deadline). solve_many() amortizes them: one DTS for the whole
// batch, one auxiliary graph + SteinerSolver per distinct deadline (the
// solver keeps the graph's SCC order and its workspaces, not its shortest-
// path trees, across the requests of the group). Results are byte-identical
// to calling run_eedcb once per request — the shared tail is the same
// run_eedcb_on_aux code path (tests/diff pins this).
//
// Every request is isolated: it runs under its own support::Budget and
// gets its own support::Result slot, so a timeout, a cancellation or an
// invalid instance costs the batch exactly that slot. The fallback ladder
// for timed-out slots sits one layer up (fault::robust_solve_many).
#pragma once

#include <vector>

#include "core/eedcb.hpp"
#include "core/schedule.hpp"
#include "core/tveg.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"

namespace tveg::core {

/// One instance of a batch; fields mirror TmedbInstance minus the TVEG,
/// plus the request's own time budget and cancel token.
struct SolveRequest {
  NodeId source = 0;
  Time deadline = 0;
  /// Acceptable failure rate ε; <= 0 defers to the TVEG radio's ε.
  double epsilon = -1;
  /// Cost budget; < 0 means no budget.
  Cost budget = -1;
  /// Terminal set; empty = broadcast.
  std::vector<NodeId> targets;
  /// Wall-clock budget in ms, started when the batch reaches this request;
  /// < 0 keeps the deadline of the batch's options.budget.
  double time_budget_ms = -1;
  /// Cancels this request alone; an invalid (default) token keeps the
  /// batch's options.budget token.
  support::CancelToken cancel;
};

/// The TmedbInstance a request denotes over `tveg` (what run_eedcb would be
/// handed for the equivalent one-shot solve).
TmedbInstance to_instance(const Tveg& tveg, const SolveRequest& request);

/// One batch slot: the schedule, or why the request produced none
/// (kTimeout, kCancelled, or kInternal for an invalid instance).
using SolveOutcome = support::Result<SchedulerResult>;

/// Solves every request over one shared DTS, grouping requests with equal
/// deadlines onto one auxiliary graph and Steiner solver. Outcomes are in
/// request order; a clean slot is byte-identical to a per-request run_eedcb
/// call with the same options. Never throws for one request's failure.
std::vector<SolveOutcome> solve_many(const Tveg& tveg,
                                     const std::vector<SolveRequest>& requests,
                                     const EedcbOptions& options = {});

/// As above over a caller-provided DTS (lets a workbench that already built
/// one skip the rebuild).
std::vector<SolveOutcome> solve_many(const Tveg& tveg,
                                     const DiscreteTimeSet& dts,
                                     const std::vector<SolveRequest>& requests,
                                     const EedcbOptions& options = {});

}  // namespace tveg::core
