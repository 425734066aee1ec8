// Single manifest of every observability key the tree may emit.
//
// Every `tveg.<subsystem>.<name>` counter/gauge/histogram key and every
// flight-recorder event name lives here as a named constant; call sites
// reference the constant, never a string literal. `tveg-analyze`
// (src/tools/analyze/) enforces the closure cross-TU: any `tveg.*` string
// literal in src/ outside this file must match a manifest entry (exact
// match, or prefix match against a `*Prefix` constant for the dynamic
// families), every `FlightEventKind::k<Name>` used anywhere must have its
// snake_case name in kFlightEventNames, and manifest entries nothing
// references fail the build as dead keys. A typo'd key therefore cannot
// silently vanish from dashboards — it fails `scripts/ci.sh`'s lint stage.
//
// Naming: constant `k<Subsystem><Name>` for key `tveg.<subsystem>.<name>`;
// dynamic families (per-worker, per-phase, per-fault-kind) get a
// `...Prefix` constant whose value is the literal prefix call sites
// concatenate onto.
#pragma once

namespace tveg::obs::keys {

// -- support/thread_pool ----------------------------------------------------
inline constexpr char kPoolWorkers[] = "tveg.pool.workers";
inline constexpr char kPoolTasks[] = "tveg.pool.tasks";
inline constexpr char kPoolQueueWaitUs[] = "tveg.pool.queue_wait_us";
inline constexpr char kPoolUncaughtExceptions[] =
    "tveg.pool.uncaught_exceptions";
/// Per-worker busy time: `tveg.pool.worker<N>.busy_us`.
inline constexpr char kPoolWorkerPrefix[] = "tveg.pool.worker";

// -- obs itself -------------------------------------------------------------
/// Per-phase duration histograms: `tveg.obs.phase_ms.<phase>`.
inline constexpr char kPhaseMsPrefix[] = "tveg.obs.phase_ms.";
inline constexpr char kObsSpanDrops[] = "tveg.obs.span_drops";
inline constexpr char kObsFlightDumps[] = "tveg.obs.flight_dumps";
inline constexpr char kObsFlightDumpErrors[] = "tveg.obs.flight_dump_errors";

// -- tvg/dts ----------------------------------------------------------------
inline constexpr char kDtsBuilds[] = "tveg.dts.builds";
inline constexpr char kDtsPoints[] = "tveg.dts.points";
/// DTS sweep work: heap pops plus the points the τ = 0 DFS appends.
inline constexpr char kDtsClosureSteps[] = "tveg.dts.closure_steps";
inline constexpr char kDtsTruncations[] = "tveg.dts.truncations";

// -- core/aux_graph ---------------------------------------------------------
inline constexpr char kAuxBuilds[] = "tveg.aux.builds";
inline constexpr char kAuxPowerVertices[] = "tveg.aux.power_vertices";
inline constexpr char kAuxLastVertices[] = "tveg.aux.last_vertices";
inline constexpr char kAuxLastArcs[] = "tveg.aux.last_arcs";

// -- graph/digraph ----------------------------------------------------------
inline constexpr char kGraphFreezes[] = "tveg.graph.freezes";
inline constexpr char kGraphFrozenArcs[] = "tveg.graph.frozen_arcs";

// -- graph/steiner ----------------------------------------------------------
inline constexpr char kSteinerQueries[] = "tveg.steiner.queries";
/// Forward Dijkstras: each query's root run plus one early-stopped run per
/// level-1 bunch; a repeated query repeats them (no tree is cached).
inline constexpr char kSteinerDijkstraRuns[] = "tveg.steiner.dijkstra_runs";
/// Dijkstra settles (a bunch counts those before its stop) plus
/// terminal-sweep vertex visits.
inline constexpr char kSteinerNodesExpanded[] = "tveg.steiner.nodes_expanded";
/// Dijkstra distance improvements plus lowered sweep matrix entries.
inline constexpr char kSteinerRelaxations[] = "tveg.steiner.relaxations";

// -- parallel phases --------------------------------------------------------
inline constexpr char kParallelAuxDcsTasks[] = "tveg.parallel.aux_dcs_tasks";

// -- core/prune -------------------------------------------------------------
inline constexpr char kPruneRuns[] = "tveg.prune.runs";
inline constexpr char kPruneRounds[] = "tveg.prune.rounds";
inline constexpr char kPruneFeasibilityChecks[] =
    "tveg.prune.feasibility_checks";
inline constexpr char kPruneRemoved[] = "tveg.prune.removed";
inline constexpr char kPruneLevelReductions[] = "tveg.prune.level_reductions";

// -- core/fr ----------------------------------------------------------------
inline constexpr char kFrRuns[] = "tveg.fr.runs";
inline constexpr char kFrRounds[] = "tveg.fr.rounds";
inline constexpr char kFrRemovals[] = "tveg.fr.removals";
inline constexpr char kFrReallocations[] = "tveg.fr.reallocations";

// -- core/energy_allocation + nlp -------------------------------------------
inline constexpr char kNlpAllocations[] = "tveg.nlp.allocations";
inline constexpr char kNlpConstraints[] = "tveg.nlp.constraints";
inline constexpr char kNlpSolverPasses[] = "tveg.nlp.solver_passes";
inline constexpr char kNlpInfeasible[] = "tveg.nlp.infeasible";
inline constexpr char kNlpRetries[] = "tveg.nlp.retries";
inline constexpr char kNlpRetrySuccesses[] = "tveg.nlp.retry_successes";
inline constexpr char kNlpAlSolves[] = "tveg.nlp.al.solves";
inline constexpr char kNlpAlOuterIterations[] = "tveg.nlp.al.outer_iterations";
inline constexpr char kNlpAlInnerIterations[] = "tveg.nlp.al.inner_iterations";
inline constexpr char kNlpAlFinalViolation[] = "tveg.nlp.al.final_violation";

// -- core/tveg memo table ---------------------------------------------------
inline constexpr char kCacheBuilds[] = "tveg.cache.builds";
inline constexpr char kCacheEntries[] = "tveg.cache.entries";

// -- core/solve_many --------------------------------------------------------
inline constexpr char kBatchSolves[] = "tveg.batch.solves";
inline constexpr char kBatchRequests[] = "tveg.batch.requests";
inline constexpr char kBatchAuxReuses[] = "tveg.batch.aux_reuses";

// -- sim/monte_carlo --------------------------------------------------------
inline constexpr char kMcRuns[] = "tveg.mc.runs";
inline constexpr char kMcTrials[] = "tveg.mc.trials";
inline constexpr char kMcChannelDraws[] = "tveg.mc.channel_draws";
inline constexpr char kMcLastDrawsPerSec[] = "tveg.mc.last_draws_per_sec";

// -- fault ------------------------------------------------------------------
/// Per-kind injection counters: `tveg.fault.injected.<kind>`.
inline constexpr char kFaultInjectedPrefix[] = "tveg.fault.injected.";
inline constexpr char kFaultInjectedTxFailure[] =
    "tveg.fault.injected.tx_failure";
inline constexpr char kFaultPlansApplied[] = "tveg.fault.plans_applied";
inline constexpr char kFaultSolveAttempts[] = "tveg.fault.solve.attempts";
inline constexpr char kFaultSolveDescents[] = "tveg.fault.solve.descents";
inline constexpr char kFaultSolveTimeouts[] = "tveg.fault.solve.timeouts";
inline constexpr char kFaultSolveDegraded[] = "tveg.fault.solve.degraded";
inline constexpr char kFaultSolveRungSkips[] = "tveg.fault.solve.rung_skips";
inline constexpr char kFaultRepairPasses[] = "tveg.fault.repair.passes";
inline constexpr char kFaultRepairDiverged[] = "tveg.fault.repair.diverged";
inline constexpr char kFaultRepairPatchTransmissions[] =
    "tveg.fault.repair.patch_transmissions";
inline constexpr char kFaultRepairNodesRecovered[] =
    "tveg.fault.repair.nodes_recovered";

// -- flight-recorder event names --------------------------------------------
// Must stay in lockstep with FlightEventKind / flight_event_kind_name
// (obs/flight_recorder.*): tveg-analyze maps every `FlightEventKind::kX`
// use to snake_case and requires it to appear here, and flags entries that
// no longer correspond to a used kind.
inline constexpr const char* kFlightEventNames[] = {
    "solve_start",       "rung_start",       "rung_demoted",
    "rung_selected",     "deadline_expired", "fault_injected",
    "repair_divergence", "repair_patched",   "rung_skipped",
    "note",
};

}  // namespace tveg::obs::keys
