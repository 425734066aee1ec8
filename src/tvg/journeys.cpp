#include "tvg/journeys.hpp"

#include <queue>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg {

using support::kInf;

std::vector<Time> latest_departures(const TimeVaryingGraph& g, NodeId dst,
                                    Time deadline) {
  const auto n = static_cast<std::size_t>(g.node_count());
  TVEG_REQUIRE(dst >= 0 && static_cast<std::size_t>(dst) < n,
               "destination out of range");
  TVEG_REQUIRE(deadline > 0 && deadline <= g.horizon(),
               "deadline out of range");

  std::vector<Time> latest(n, -kInf);
  latest[static_cast<std::size_t>(dst)] = deadline;

  // Max-Dijkstra backwards in time: pop the node with the LARGEST holding
  // deadline; relax each neighbor u — u may forward to v no later than the
  // last valid start whose arrival meets v's deadline.
  using Entry = std::pair<Time, NodeId>;
  std::priority_queue<Entry> pq;
  pq.emplace(deadline, dst);
  while (!pq.empty()) {
    const auto [lt, v] = pq.top();
    pq.pop();
    if (lt < latest[static_cast<std::size_t>(v)]) continue;  // stale
    for (std::size_t e : g.incident_edges(v)) {
      const auto [a, b] = g.edge_nodes(e);
      const NodeId u = a == v ? b : a;
      const Time start = g.last_valid_start(u, v, lt);
      if (start == -kInf) continue;
      if (start > latest[static_cast<std::size_t>(u)]) {
        latest[static_cast<std::size_t>(u)] = start;
        pq.emplace(start, u);
      }
    }
  }
  return latest;
}

}  // namespace tveg
