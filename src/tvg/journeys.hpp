// Latest departures, the backward counterpart of the *foremost* journeys
// TimeVaryingGraph::earliest_arrival provides (Bui-Xuan, Ferreira & Jarry;
// surveyed by Casteigts et al., the paper's TVG framework): how long one may
// wait and still deliver. An analysis tool over TVGs; the TMEDB schedulers
// do not depend on it, but the deadline-planning example does.
#pragma once

#include <vector>

#include "tvg/time_varying_graph.hpp"

namespace tveg {

/// latest[v]: the latest time v may still be holding the packet and yet
/// deliver it to `dst` by `deadline` (reverse max-Dijkstra); -inf when v
/// cannot deliver at all, `deadline` for dst itself.
std::vector<Time> latest_departures(const TimeVaryingGraph& g, NodeId dst,
                                    Time deadline);

}  // namespace tveg
