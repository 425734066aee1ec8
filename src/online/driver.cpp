#include "online/driver.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::online {

using support::kInf;

namespace {
constexpr double kTimeTol = 1e-9;
}

core::SchedulerResult run_online(const core::TmedbInstance& instance,
                                 const DiscreteTimeSet& dts, Policy& policy,
                                 const OnlineOptions& options) {
  const auto n = static_cast<std::size_t>(instance.tveg->node_count());
  std::vector<Time> informed_time(n, kInf);
  informed_time[static_cast<std::size_t>(instance.source)] = 0;
  return run_online_from(instance, dts, policy, std::move(informed_time), 0,
                         options);
}

core::SchedulerResult run_online_from(const core::TmedbInstance& instance,
                                      const DiscreteTimeSet& dts,
                                      Policy& policy,
                                      std::vector<Time> informed_time,
                                      Time start_time,
                                      const OnlineOptions& options) {
  instance.validate();
  TVEG_REQUIRE(instance.targets.empty(), "online driver is broadcast-only");
  const core::Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const auto n = static_cast<std::size_t>(tveg.node_count());
  TVEG_REQUIRE(informed_time.size() == n,
               "informed_time must have one entry per node");

  policy.reset();
  support::Rng rng(options.seed);

  std::size_t uninformed_count = 0;
  for (Time t : informed_time)
    if (t == kInf) ++uninformed_count;

  core::SchedulerResult result;
  result.stats.dts_points = dts.total_points();

  for (Time t : dts.global_points()) {
    if (uninformed_count == 0) break;
    if (t + kTimeTol < start_time) continue;
    if (t + tau > instance.deadline + kTimeTol) break;

    // Same-time cascade: a node informed at this instant (τ = 0) may get
    // its own opportunity within the same event time.
    bool progress = true;
    while (progress && uninformed_count > 0) {
      progress = false;
      for (NodeId i = 0; i < tveg.node_count(); ++i) {
        if (informed_time[static_cast<std::size_t>(i)] > t + kTimeTol)
          continue;  // not holding the packet yet

        const auto dcs = tveg.discrete_cost_set(i, t);
        std::vector<core::DcsEntry> uninformed;
        for (const core::DcsEntry& e : dcs)
          if (informed_time[static_cast<std::size_t>(e.neighbor)] == kInf)
            uninformed.push_back(e);
        if (uninformed.empty()) continue;

        const Observation obs{i, t, instance.deadline, uninformed,
                              dcs.size()};
        const std::size_t want =
            std::min(policy.coverage(obs, rng), uninformed.size());
        if (want == 0) continue;

        // Cover the `want` cheapest uninformed neighbors: pay the minimal
        // sufficient DCS level (the want-th uninformed entry's cost).
        const Cost cost = uninformed[want - 1].cost;
        result.schedule.add(i, t, cost);
        for (std::size_t m = 0; m < uninformed.size(); ++m) {
          if (uninformed[m].cost > cost + cost * 1e-12) break;
          informed_time[static_cast<std::size_t>(uninformed[m].neighbor)] =
              t + tau;
          --uninformed_count;
        }
        progress = true;
      }
    }
  }

  result.covered_all = uninformed_count == 0;
  return result;
}

}  // namespace tveg::online
