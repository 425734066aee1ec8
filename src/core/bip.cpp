#include "core/bip.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::core {

using support::kInf;

namespace {

constexpr double kTimeTol = 1e-9;

/// One transmission slot (relay at one of its DTS times) with its DCS.
struct Slot {
  NodeId relay;
  Time time;
  std::vector<DcsEntry> dcs;
  /// Index of the currently-paid DCS level; -1 = slot unused so far.
  int paid_level = -1;

  Cost paid_cost() const {
    return paid_level < 0 ? 0 : dcs[static_cast<std::size_t>(paid_level)].cost;
  }
};

}  // namespace

SchedulerResult run_bip(const TmedbInstance& instance,
                        const DiscreteTimeSet& dts, const BipOptions& options) {
  instance.validate();
  options.budget.check("bip");
  TVEG_REQUIRE(instance.targets.empty(), "temporal BIP is broadcast-only");
  const Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const auto n = static_cast<std::size_t>(tveg.node_count());

  // Precompute all slots within the deadline.
  std::vector<Slot> slots;
  for (NodeId i = 0; i < tveg.node_count(); ++i) {
    for (Time t : dts.points(i)) {
      if (t + tau > instance.deadline + kTimeTol) break;
      auto dcs = tveg.discrete_cost_set(i, t);
      if (!dcs.empty()) slots.push_back({i, t, std::move(dcs), -1});
    }
  }

  std::vector<Time> informed_time(n, kInf);
  informed_time[static_cast<std::size_t>(instance.source)] = 0;
  std::size_t uninformed = n - 1;

  SchedulerResult result;
  result.stats.dts_points = dts.total_points();

  while (uninformed > 0) {
    options.budget.check("bip");
    // Find the cheapest incremental move: raise slot s to level l (>
    // paid_level) such that at least one new node is covered. A fresh slot
    // is the paid_level = -1 case of the same scan.
    double best_increment = kInf;
    std::size_t best_slot = 0;
    int best_level = -1;

    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (informed_time[static_cast<std::size_t>(slot.relay)] >
          slot.time + kTimeTol)
        continue;  // relay does not hold the packet at this slot's time
      for (int l = slot.paid_level + 1;
           l < static_cast<int>(slot.dcs.size()); ++l) {
        const DcsEntry& entry = slot.dcs[static_cast<std::size_t>(l)];
        if (informed_time[static_cast<std::size_t>(entry.neighbor)] < kInf)
          continue;  // level adds no new node yet — keep raising
        const double increment = entry.cost - slot.paid_cost();
        if (increment < best_increment) {
          best_increment = increment;
          best_slot = s;
          best_level = l;
        }
        break;  // higher levels only cost more for this first new node
      }
    }

    if (best_level < 0) break;  // nothing reachable anymore

    Slot& slot = slots[best_slot];
    slot.paid_level = best_level;
    // The paid level covers every neighbor at or below it.
    for (int l = 0; l <= best_level; ++l) {
      const DcsEntry& entry = slot.dcs[static_cast<std::size_t>(l)];
      auto& it = informed_time[static_cast<std::size_t>(entry.neighbor)];
      if (it == kInf) {
        it = slot.time + tau;
        --uninformed;
      } else {
        it = std::min(it, slot.time + tau);
      }
    }
  }

  for (const Slot& slot : slots)
    if (slot.paid_level >= 0)
      result.schedule.add(slot.relay, slot.time, slot.paid_cost());
  result.covered_all = uninformed == 0;
  return result;
}

}  // namespace tveg::core
