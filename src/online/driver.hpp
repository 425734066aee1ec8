// Online broadcast driver: replays the TVEG's event timeline and offers
// each informed node a transmission opportunity at every event time,
// consulting a Policy (which sees only the present). Produces the same
// SchedulerResult the offline schedulers do, so the whole evaluation stack
// (feasibility checking, NLP allocation, Monte-Carlo delivery) composes.
#pragma once

#include "core/eedcb.hpp"
#include "online/policy.hpp"
#include "tvg/dts.hpp"

namespace tveg::online {

/// Options for one online run.
struct OnlineOptions {
  /// RNG seed (gossip draws).
  std::uint64_t seed = 1;
};

/// Runs `policy` over the event timeline of a caller-provided DTS. The policy
/// is reset first. Broadcast-only (multicast target subsets are an offline
/// notion).
core::SchedulerResult run_online(const core::TmedbInstance& instance,
                                 const DiscreteTimeSet& dts, Policy& policy,
                                 const OnlineOptions& options = {});

/// Resumes a broadcast mid-flight: `informed_time[v]` is when v came to
/// hold the packet (+inf = uninformed), and the driver offers opportunities
/// only at event times >= `start_time`. This is the re-solve primitive of
/// the schedule-repair engine (fault/repair.hpp): after a fault invalidates
/// part of a schedule, the already-informed set keeps disseminating from
/// the failure time instead of the whole broadcast failing.
core::SchedulerResult run_online_from(const core::TmedbInstance& instance,
                                      const DiscreteTimeSet& dts,
                                      Policy& policy,
                                      std::vector<Time> informed_time,
                                      Time start_time,
                                      const OnlineOptions& options = {});

}  // namespace tveg::online
