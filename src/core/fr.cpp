#include "core/fr.hpp"

#include <algorithm>
#include <numeric>

#include "graph/steiner.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tveg::core {

namespace {

/// NLP-aware backbone refinement: repeatedly drop the transmission whose
/// removal (after re-running the allocation) lowers the total cost most.
void refine_backbone(const TmedbInstance& instance,
                     const AllocationOptions& allocation_options,
                     const FrOptions& fr_options, FrResult& result) {
  if (!result.allocation.feasible) return;
  obs::TraceSpan span("fr_refine");
  Schedule backbone = result.backbone.schedule;

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& rounds_metric = registry.counter(obs::keys::kFrRounds);
  static obs::Counter& removals_metric = registry.counter(obs::keys::kFrRemovals);
  static obs::Counter& reallocs_metric =
      registry.counter(obs::keys::kFrReallocations);

  for (std::size_t round = 0; round < fr_options.max_refine_rounds; ++round) {
    rounds_metric.add(1);
    bool improved = false;
    // Candidates in descending allocated-cost order: expensive
    // transmissions are the likeliest wins.
    const auto& allocated = result.allocation.schedule.transmissions();
    std::vector<std::size_t> order(allocated.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return allocated[a].cost > allocated[b].cost;
    });

    for (std::size_t k : order) {
      const auto& txs = backbone.transmissions();
      if (k >= txs.size()) continue;  // earlier removals shrank the backbone
      Schedule candidate;
      for (std::size_t m = 0; m < txs.size(); ++m)
        if (m != k) candidate.add(txs[m]);
      const AllocationOutcome out =
          allocate_energy(instance, candidate, allocation_options);
      reallocs_metric.add(1);
      if (out.feasible && out.schedule.total_cost() <
                              result.allocation.schedule.total_cost()) {
        backbone = candidate;
        result.allocation = out;
        improved = true;
        removals_metric.add(1);
        break;  // re-rank against the new allocation
      }
    }
    if (!improved) break;
  }
  result.backbone.schedule = backbone;
}

}  // namespace

FrResult run_fr_eedcb(const TmedbInstance& instance,
                      const EedcbOptions& eedcb_options,
                      const AllocationOptions& allocation_options,
                      const FrOptions& fr_options) {
  const DiscreteTimeSet dts = instance.tveg->build_dts(eedcb_options.dts);
  return run_fr_eedcb(instance, dts, eedcb_options, allocation_options,
                      fr_options);
}

FrResult run_fr_eedcb(const TmedbInstance& instance,
                      const DiscreteTimeSet& dts,
                      const EedcbOptions& eedcb_options,
                      const AllocationOptions& allocation_options,
                      const FrOptions& fr_options) {
  static obs::Counter& runs_metric =
      obs::MetricsRegistry::global().counter(obs::keys::kFrRuns);
  runs_metric.add(1);

  // Both attempts solve on one aux graph. Each gets its own solver: a
  // shared one would hand the second attempt the first one's cached trees,
  // and its work counters would no longer describe its own solve.
  double aux_ms = 0;
  const AuxGraph aux = build_eedcb_aux(instance, dts, eedcb_options, aux_ms);

  // ε-cost pruning is disabled for the fading backbone: the NLP's objective
  // rewards coverage overlap that the prune pass would strip (see FrOptions).
  auto attempt = [&](SteinerMethod method) {
    EedcbOptions backbone_options = eedcb_options;
    backbone_options.prune = false;
    backbone_options.method = method;
    FrResult result;
    graph::SteinerSolver solver(aux.digraph());
    result.backbone =
        run_eedcb_on_aux(instance, dts, aux, solver, backbone_options);
    result.backbone.stats.aux_build_ms = aux_ms;
    result.allocation = allocate_energy(instance, result.backbone.schedule,
                                        allocation_options);
    if (fr_options.refine_backbone)
      refine_backbone(instance, allocation_options, fr_options, result);
    return result;
  };

  FrResult best = attempt(eedcb_options.method);
  if (fr_options.multi_start) {
    const SteinerMethod other =
        eedcb_options.method == SteinerMethod::kRecursiveGreedy
            ? SteinerMethod::kShortestPath
            : SteinerMethod::kRecursiveGreedy;
    FrResult alt = attempt(other);
    const bool alt_wins =
        alt.feasible() &&
        (!best.feasible() || alt.allocation.schedule.total_cost() <
                                 best.allocation.schedule.total_cost());
    if (alt_wins) best = std::move(alt);
  }
  return best;
}

FrResult run_fr_baseline(const TmedbInstance& instance,
                         const DiscreteTimeSet& dts,
                         const BaselineOptions& baseline_options,
                         const AllocationOptions& allocation_options) {
  FrResult result;
  result.backbone = run_baseline(instance, dts, baseline_options);
  result.allocation =
      allocate_energy(instance, result.backbone.schedule, allocation_options);
  return result;
}

}  // namespace tveg::core
