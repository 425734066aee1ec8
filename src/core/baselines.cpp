#include "core/baselines.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::core {

using support::kInf;

namespace {

constexpr double kTimeTol = 1e-9;

/// One candidate transmission slot: relay i at DTS point t with its
/// discrete cost set, precomputed once per run.
struct Slot {
  NodeId relay;
  Time time;
  std::vector<DcsEntry> dcs;
};

/// A concrete action: slot index + what it would newly inform and at what
/// (minimal sufficient) cost.
struct Action {
  std::size_t slot;
  std::size_t new_targets;
  Cost cost;
};

}  // namespace

SchedulerResult run_baseline(const TmedbInstance& instance,
                             const DiscreteTimeSet& dts,
                             const BaselineOptions& options) {
  instance.validate();
  TVEG_REQUIRE(instance.targets.empty(),
               "GREED/RAND are broadcast-only (the paper defines them so); "
               "use EEDCB/FR-EEDCB for multicast instances");
  const Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const auto n = static_cast<std::size_t>(tveg.node_count());

  support::Rng rng(options.seed);

  // Precompute all transmission slots within the deadline.
  std::vector<Slot> slots;
  for (NodeId i = 0; i < tveg.node_count(); ++i) {
    for (Time t : dts.points(i)) {
      if (t + tau > instance.deadline + kTimeTol) break;
      auto dcs = tveg.discrete_cost_set(i, t);
      if (!dcs.empty()) slots.push_back({i, t, std::move(dcs)});
    }
  }

  // informed_time[i]: when i (will) hold the packet; +inf = not scheduled.
  std::vector<Time> informed_time(n, kInf);
  informed_time[static_cast<std::size_t>(instance.source)] = 0;
  std::size_t uninformed = n - 1;

  SchedulerResult result;
  result.stats.dts_points = dts.total_points();

  while (uninformed > 0) {
    // Enumerate currently valid actions: relay informed by the slot time,
    // at least one uninformed adjacent node.
    std::vector<Action> actions;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const Slot& slot = slots[s];
      if (informed_time[static_cast<std::size_t>(slot.relay)] >
          slot.time + kTimeTol)
        continue;
      std::size_t targets = 0;
      Cost cost = 0;
      for (const DcsEntry& entry : slot.dcs) {
        if (informed_time[static_cast<std::size_t>(entry.neighbor)] < kInf)
          continue;
        ++targets;
        cost = std::max(cost, entry.cost);  // minimal sufficient DCS level
      }
      if (targets > 0) actions.push_back({s, targets, cost});
    }
    if (actions.empty()) break;

    std::size_t pick = 0;
    if (options.rule == BaselineRule::kRandom) {
      pick = rng.index(actions.size());
    } else {
      for (std::size_t a = 1; a < actions.size(); ++a) {
        const Action& best = actions[pick];
        const Action& cand = actions[a];
        const Slot& best_slot = slots[best.slot];
        const Slot& cand_slot = slots[cand.slot];
        const auto best_key =
            std::tuple(-static_cast<std::ptrdiff_t>(best.new_targets),
                       best.cost, best_slot.time, best_slot.relay);
        const auto cand_key =
            std::tuple(-static_cast<std::ptrdiff_t>(cand.new_targets),
                       cand.cost, cand_slot.time, cand_slot.relay);
        if (cand_key < best_key) pick = a;
      }
    }

    const Action& chosen = actions[pick];
    const Slot& slot = slots[chosen.slot];
    result.schedule.add(slot.relay, slot.time, chosen.cost);
    for (const DcsEntry& entry : slot.dcs) {
      if (entry.cost > chosen.cost + chosen.cost * 1e-12) break;
      auto& it = informed_time[static_cast<std::size_t>(entry.neighbor)];
      if (it == kInf) {
        it = slot.time + tau;
        --uninformed;
      } else {
        // Already-informed neighbors within range get the packet again at
        // no extra cost (broadcast nature) — possibly earlier than their
        // previously scheduled arrival.
        it = std::min(it, slot.time + tau);
      }
    }
  }

  result.covered_all = uninformed == 0;
  return result;
}

}  // namespace tveg::core
