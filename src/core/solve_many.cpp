#include "core/solve_many.hpp"

#include <cstddef>
#include <exception>
#include <optional>

#include "core/aux_graph.hpp"
#include "graph/steiner.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"

namespace tveg::core {

using support::Error;
using support::ErrorCode;

TmedbInstance to_instance(const Tveg& tveg, const SolveRequest& request) {
  TmedbInstance instance;
  instance.tveg = &tveg;
  instance.source = request.source;
  instance.deadline = request.deadline;
  instance.epsilon = request.epsilon;
  instance.budget = request.budget;
  instance.targets = request.targets;
  return instance;
}

namespace {

/// The request's budget: its own deadline (started now) and token where it
/// sets them, the batch's otherwise.
support::Budget request_budget(const SolveRequest& request,
                               const support::Budget& batch) {
  return support::Budget(
      request.time_budget_ms < 0
          ? batch.deadline
          : support::Deadline::after_ms(request.time_budget_ms),
      request.cancel.valid() ? request.cancel : batch.cancel);
}

}  // namespace

std::vector<SolveOutcome> solve_many(const Tveg& tveg,
                                     const std::vector<SolveRequest>& requests,
                                     const EedcbOptions& options) {
  // One DTS serves the whole batch: it depends only on the TVEG and the
  // dts options, never on source/deadline/targets.
  const DiscreteTimeSet dts = tveg.build_dts(options.dts);
  return solve_many(tveg, dts, requests, options);
}

std::vector<SolveOutcome> solve_many(const Tveg& tveg,
                                     const DiscreteTimeSet& dts,
                                     const std::vector<SolveRequest>& requests,
                                     const EedcbOptions& options) {
  obs::TraceSpan span("solve_many");
  std::vector<SolveOutcome> results(requests.size(), Error{});
  if (requests.empty()) return results;

  // Group request indices by deadline (exact equality — sweeps repeat the
  // same double), in first-appearance order for determinism.
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

  std::size_t reused = 0;
  for (const Group& group : groups) {
    // One aux graph + solver per deadline; the graph is source-independent
    // (AuxGraph::source_vertex_for), and the solver keeps only the graph's
    // SCC order and its leased Dijkstra workspaces between requests of the
    // group, so each request's result is what a fresh solver would return.
    // Built lazily: the first request to get this far pays for the build
    // under its own budget, so a failed build is that request's error and
    // the next request retries it.
    std::optional<AuxGraph> aux;
    std::optional<graph::SteinerSolver> solver;
    for (std::size_t r : group.indices) {
      const TmedbInstance instance = to_instance(tveg, requests[r]);
      EedcbOptions per = options;
      per.budget = request_budget(requests[r], options.budget);
      try {
        if (aux.has_value()) {
          ++reused;
        } else {
          aux.emplace(instance, dts,
                      AuxGraph::Options{.power_expansion = per.power_expansion,
                                        .pool = per.pool,
                                        .budget = per.budget});
          solver.emplace(aux->digraph());
        }
        results[r] = run_eedcb_on_aux(instance, dts, *aux, *solver, per);
      } catch (const support::CancelledError& e) {
        results[r] = Error{ErrorCode::kCancelled, e.what(), -1};
      } catch (const support::TimeoutError& e) {
        results[r] = Error{ErrorCode::kTimeout, e.what(), -1};
      } catch (const std::exception& e) {
        results[r] = Error{ErrorCode::kInternal, e.what(), -1};
      }
    }
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& batches = registry.counter(obs::keys::kBatchSolves);
  static obs::Counter& batch_requests =
      registry.counter(obs::keys::kBatchRequests);
  static obs::Counter& aux_reuses = registry.counter(obs::keys::kBatchAuxReuses);
  batches.add(1);
  batch_requests.add(requests.size());
  aux_reuses.add(reused);
  return results;
}

}  // namespace tveg::core
