#include "tvg/time_varying_graph.hpp"

#include <algorithm>
#include <queue>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg {

TimeVaryingGraph::TimeVaryingGraph(NodeId n, Time horizon, Time tau)
    : n_(n), horizon_(horizon), tau_(tau), incident_(static_cast<std::size_t>(n)) {
  TVEG_REQUIRE(n > 0, "graph needs at least one node");
  TVEG_REQUIRE(horizon > 0, "horizon must be positive");
  TVEG_REQUIRE(tau >= 0, "latency must be non-negative");
  TVEG_REQUIRE(tau < horizon, "latency must be smaller than the horizon");
}

void TimeVaryingGraph::check_node(NodeId v) const {
  TVEG_REQUIRE(v >= 0 && v < n_, "node id out of range");
}

std::uint64_t TimeVaryingGraph::pair_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::size_t TimeVaryingGraph::edge_index(NodeId a, NodeId b) const {
  auto it = edge_lookup_.find(pair_key(a, b));
  return it == edge_lookup_.end() ? npos : it->second;
}

void TimeVaryingGraph::add_contact(NodeId a, NodeId b, Time start, Time end) {
  check_node(a);
  check_node(b);
  TVEG_REQUIRE(a != b, "self-contacts are not allowed");
  TVEG_REQUIRE(start < end, "contact must have positive duration");
  TVEG_REQUIRE(start >= 0 && end <= horizon_, "contact outside the time span");
  if (a > b) std::swap(a, b);
  std::size_t e = edge_index(a, b);
  if (e == npos) {
    e = edges_.size();
    edges_.push_back({a, b, IntervalSet{}});
    edge_lookup_.emplace(pair_key(a, b), e);
    incident_[static_cast<std::size_t>(a)].push_back(e);
    incident_[static_cast<std::size_t>(b)].push_back(e);
  }
  edges_[e].presence.add(start, end);
}

std::pair<NodeId, NodeId> TimeVaryingGraph::edge_nodes(std::size_t e) const {
  TVEG_REQUIRE(e < edges_.size(), "edge index out of range");
  return {edges_[e].a, edges_[e].b};
}

const IntervalSet& TimeVaryingGraph::edge_presence(std::size_t e) const {
  TVEG_REQUIRE(e < edges_.size(), "edge index out of range");
  return edges_[e].presence;
}

const std::vector<std::size_t>& TimeVaryingGraph::incident_edges(NodeId i) const {
  check_node(i);
  return incident_[static_cast<std::size_t>(i)];
}

std::size_t TimeVaryingGraph::edge_id(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  return edge_index(a, b);
}

const IntervalSet& TimeVaryingGraph::presence(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const std::size_t e = edge_index(a, b);
  return e == npos ? empty_set_ : edges_[e].presence;
}

bool TimeVaryingGraph::adjacent(NodeId a, NodeId b, Time t) const {
  if (t < 0 || t + tau_ > horizon_) return false;
  return presence(a, b).covers_closed(t, t + tau_);
}

std::vector<NodeId> TimeVaryingGraph::neighbors_at(NodeId i, Time t) const {
  check_node(i);
  std::vector<NodeId> out;
  for (std::size_t e : incident_[static_cast<std::size_t>(i)]) {
    const Edge& edge = edges_[e];
    const NodeId other = edge.a == i ? edge.b : edge.a;
    if (adjacent(i, other, t)) out.push_back(other);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Time TimeVaryingGraph::next_valid_start(NodeId a, NodeId b, Time t) const {
  const IntervalSet& pres = presence(a, b);
  if (t < 0) t = 0;
  for (const Interval& iv : pres.intervals()) {
    if (iv.end < t + tau_) continue;  // transmission cannot finish inside
    const Time cand = std::max(t, iv.start);
    if (cand + tau_ <= iv.end && cand + tau_ <= horizon_) return cand;
  }
  return support::kInf;
}

Time TimeVaryingGraph::last_valid_start(NodeId a, NodeId b,
                                        Time latest_arrival) const {
  const IntervalSet& pres = presence(a, b);
  const auto& ivs = pres.intervals();
  const Time limit = std::min(latest_arrival, horizon_);
  for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) {
    if (it->start + tau_ > limit) continue;  // opens too late
    const Time cand = std::min(it->end, limit) - tau_;
    if (cand >= it->start) return cand;
  }
  return -support::kInf;
}

Partition TimeVaryingGraph::adjacent_partition(NodeId i,
                                               double tolerance) const {
  check_node(i);
  std::vector<Time> pts;
  for (std::size_t e : incident_[static_cast<std::size_t>(i)]) {
    const Edge& edge = edges_[e];
    for (const Interval& iv : edge.presence.intervals()) {
      if (iv.end - iv.start < tau_) continue;
      pts.push_back(iv.start);
      pts.push_back(iv.end - tau_);
    }
  }
  return Partition(horizon_, std::move(pts), tolerance);
}

ArrivalInfo TimeVaryingGraph::earliest_arrival(NodeId src, Time t0) const {
  check_node(src);
  TVEG_REQUIRE(t0 >= 0 && t0 <= horizon_, "start time outside the time span");

  ArrivalInfo info;
  info.arrival.assign(static_cast<std::size_t>(n_), support::kInf);
  info.parent.assign(static_cast<std::size_t>(n_), kNoNode);
  info.depart.assign(static_cast<std::size_t>(n_), support::kInf);
  info.arrival[static_cast<std::size_t>(src)] = t0;

  using Entry = std::pair<Time, NodeId>;  // (arrival, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.emplace(t0, src);

  while (!pq.empty()) {
    const auto [at, u] = pq.top();
    pq.pop();
    if (at > info.arrival[static_cast<std::size_t>(u)]) continue;  // stale
    for (std::size_t e : incident_[static_cast<std::size_t>(u)]) {
      const Edge& edge = edges_[e];
      const NodeId v = edge.a == u ? edge.b : edge.a;
      const Time start = next_valid_start(u, v, at);
      if (start == support::kInf) continue;
      const Time arr = start + tau_;
      if (arr < info.arrival[static_cast<std::size_t>(v)]) {
        info.arrival[static_cast<std::size_t>(v)] = arr;
        info.parent[static_cast<std::size_t>(v)] = u;
        info.depart[static_cast<std::size_t>(v)] = start;
        pq.emplace(arr, v);
      }
    }
  }
  return info;
}

Journey TimeVaryingGraph::extract_journey(const ArrivalInfo& info,
                                          NodeId dst) const {
  check_node(dst);
  Journey j;
  NodeId cur = dst;
  while (info.parent[static_cast<std::size_t>(cur)] != kNoNode) {
    const NodeId p = info.parent[static_cast<std::size_t>(cur)];
    j.hops.push_back({p, cur, info.depart[static_cast<std::size_t>(cur)]});
    cur = p;
  }
  std::reverse(j.hops.begin(), j.hops.end());
  return j;
}

std::vector<NodeId> TimeVaryingGraph::reachable_set(NodeId src, Time t0,
                                                    Time deadline) const {
  const ArrivalInfo info = earliest_arrival(src, t0);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n_; ++v)
    if (info.arrival[static_cast<std::size_t>(v)] <= deadline)
      out.push_back(v);
  return out;
}

}  // namespace tveg
