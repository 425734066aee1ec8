#include "fault/govern.hpp"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "core/aux_graph.hpp"
#include "graph/steiner.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cancel.hpp"
#include "support/deadline.hpp"
#include "support/watchdog.hpp"

namespace tveg::fault {

using support::Error;
using support::ErrorCode;

namespace {

struct GovernCounters {
  obs::Counter& requests;
  obs::Counter& ok;
  obs::Counter& degraded;
  obs::Counter& cancelled;
  obs::Counter& errors;
  obs::Counter& shed;

  static GovernCounters& get() {
    auto& registry = obs::MetricsRegistry::global();
    static GovernCounters c{
        registry.counter(obs::keys::kGovernRequests),
        registry.counter(obs::keys::kGovernOk),
        registry.counter(obs::keys::kGovernDegraded),
        registry.counter(obs::keys::kGovernCancelled),
        registry.counter(obs::keys::kGovernErrors),
        registry.counter(obs::keys::kGovernShed),
    };
    return c;
  }
};

/// The GREED tail of the ladder for a request whose primary attempt is gone
/// (budget blown or admission-shed): always yields a schedule unless the
/// instance itself is poisoned.
void shed_to_greed(const core::TmedbInstance& instance,
                   const DiscreteTimeSet& dts, const GovernOptions& options,
                   Error why, GovernedSolve& out) {
  out.descents.push_back(std::move(why));
  if (options.shed_policy == ShedPolicy::kError) {
    out.outcome = out.descents.back();
    GovernCounters::get().errors.add(1);
    return;
  }
  try {
    RobustSolveOptions ladder;
    ladder.start = SolverRung::kGreed;
    ladder.eedcb = options.eedcb;
    RobustSolveResult r = robust_solve(instance, dts, ladder);
    for (Error& e : r.descents) out.descents.push_back(std::move(e));
    out.rung = r.rung;
    out.outcome = std::move(r.result);
    GovernCounters::get().degraded.add(1);
  } catch (const std::exception& e) {
    out.outcome = Error{ErrorCode::kInternal,
                        std::string("shed rung threw: ") + e.what(), -1};
    GovernCounters::get().errors.add(1);
  }
}

}  // namespace

std::vector<GovernedSolve> solve_many_governed(
    const core::Tveg& tveg, const std::vector<core::SolveRequest>& requests,
    const GovernOptions& options) {
  const DiscreteTimeSet dts = tveg.build_dts(options.eedcb.dts);
  return solve_many_governed(tveg, dts, requests, options);
}

std::vector<GovernedSolve> solve_many_governed(
    const core::Tveg& tveg, const DiscreteTimeSet& dts,
    const std::vector<core::SolveRequest>& requests,
    const GovernOptions& options) {
  return solve_many_governed(tveg, dts, requests, options, {});
}

std::vector<GovernedSolve> solve_many_governed(
    const core::Tveg& tveg, const DiscreteTimeSet& dts,
    const std::vector<core::SolveRequest>& requests,
    const GovernOptions& options,
    const std::vector<support::CancelSource>& cancels) {
  obs::TraceSpan span("solve_many_governed");
  std::vector<GovernedSolve> results(requests.size());
  if (requests.empty()) return results;
  GovernCounters& counters = GovernCounters::get();
  counters.requests.add(requests.size());

  // One watchdog serves the batch; each request registers only for the
  // duration of its own budgeted attempt.
  std::optional<support::Watchdog> watchdog;
  if (options.stall_ms > 0)
    watchdog.emplace(support::Watchdog::Options{options.stall_ms, 0});

  // Same grouping as core::solve_many — by deadline, exact equality, in
  // first-appearance order — so un-governed requests reuse aux graphs and
  // Dijkstra-tree caches in the identical sequence and their schedules stay
  // byte-identical to the ungoverned batch.
  struct Group {
    Time deadline;
    std::vector<std::size_t> indices;
  };
  std::vector<Group> groups;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    Group* group = nullptr;
    for (Group& g : groups)
      if (g.deadline == requests[r].deadline) {
        group = &g;
        break;
      }
    if (group == nullptr) {
      groups.push_back({requests[r].deadline, {}});
      group = &groups.back();
    }
    group->indices.push_back(r);
  }

  std::size_t attempted = 0;  // admission control, in processing order
  for (const Group& group : groups) {
    // Lazily built: the first request of the group that survives admission
    // pays for the build under ITS budget, so an aux-graph timeout is that
    // request's failure, and the next request simply retries the build.
    std::optional<core::AuxGraph> aux;
    std::optional<graph::SteinerSolver> solver;

    for (std::size_t r : group.indices) {
      GovernedSolve& out = results[r];
      const core::TmedbInstance instance =
          core::to_instance(tveg, requests[r]);

      if (options.max_inflight > 0 && attempted >= options.max_inflight) {
        out.shed = true;
        counters.shed.add(1);
        obs::flight_recorder().record(obs::FlightEventKind::kRequestShed,
                                      r, attempted, "max_inflight");
        shed_to_greed(instance, dts, options,
                      Error{ErrorCode::kTimeout,
                            "request shed: admission bound reached", -1},
                      out);
        continue;
      }
      ++attempted;

      // Fresh per-request budget: deadline starts now, and the cancel source
      // is private unless the test seam supplied one.
      const support::CancelSource source =
          r < cancels.size() ? cancels[r] : support::CancelSource();
      const support::Deadline deadline =
          options.request_budget_ms < 0
              ? support::Deadline()
              : support::Deadline::after_ms(options.request_budget_ms);
      const support::Budget budget(deadline, source.token());

      std::optional<support::Watchdog::Scope> watch;
      if (watchdog.has_value()) watch.emplace(*watchdog, source);

      try {
        if (!aux.has_value()) {
          aux.emplace(instance, dts,
                      core::AuxGraph::Options{
                          .power_expansion = options.eedcb.power_expansion,
                          .pool = options.eedcb.pool,
                          .budget = budget});
          solver.emplace(aux->digraph());
        }
        core::EedcbOptions per = options.eedcb;
        per.budget = budget;
        out.outcome = core::run_eedcb_on_aux(instance, dts, *aux, *solver,
                                             per);
        out.rung = SolverRung::kEedcb;
        counters.ok.add(1);
      } catch (const support::CancelledError& e) {
        out.outcome = Error{ErrorCode::kCancelled, e.what(), -1};
        counters.cancelled.add(1);
      } catch (const support::TimeoutError& e) {
        watch.reset();  // the shed rung runs unbudgeted; don't stall on it
        shed_to_greed(instance, dts, options,
                      Error{ErrorCode::kTimeout, e.what(), -1}, out);
      } catch (const std::exception& e) {
        // A poisoned request (invalid source, malformed targets, …) costs
        // exactly its own slot; a degrade attempt would re-validate and
        // throw again, so return the failure directly.
        out.outcome = Error{ErrorCode::kInternal, e.what(), -1};
        counters.errors.add(1);
      }
    }
  }
  return results;
}

}  // namespace tveg::fault
