#include "tvg/dts.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"

namespace tveg {

DiscreteTimeSet DiscreteTimeSet::build(const TimeVaryingGraph& g,
                                       const DtsOptions& options) {
  obs::TraceSpan span("dts_build");
  const auto n = static_cast<std::size_t>(g.node_count());
  TVEG_REQUIRE(options.extra_points.empty() || options.extra_points.size() == n,
               "extra_points must be empty or have one entry per node");
  const double tol = options.tolerance;
  const Time tau = g.latency();

  DiscreteTimeSet dts;
  dts.tol_ = tol;
  dts.points_.assign(n, {});

  // Seeds: adjacent partitions (Eq. 9) plus caller-supplied event points,
  // sorted and deduplicated per node. Every seed enters the time-ordered
  // event heap.
  using Event = std::pair<Time, NodeId>;
  std::vector<std::vector<Time>> seeds(n);
  std::vector<Event> events;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const Partition adj = g.adjacent_partition(v, tol);
    std::vector<Time> raw = adj.points();
    if (!options.extra_points.empty())
      raw.insert(raw.end(), options.extra_points[vi].begin(),
                 options.extra_points[vi].end());
    std::sort(raw.begin(), raw.end());
    for (Time t : raw)
      if (seeds[vi].empty() || t - seeds[vi].back() > tol)
        seeds[vi].push_back(t);
    for (Time t : seeds[vi]) events.emplace_back(t, v);
  }
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap(
      std::greater<>{}, std::move(events));
  std::vector<std::size_t> next_seed(n, 0);  // v's first seed not yet popped

  // Points arrive in time order, so a node's new point only has to clear
  // its last point. A seed always wins its tolerance cluster: a point just
  // below a pending seed of the node is dropped. The cap keeps each node's
  // earliest points.
  auto try_append = [&](NodeId v, Time t) {
    const auto vi = static_cast<std::size_t>(v);
    auto& pts = dts.points_[vi];
    if (!pts.empty() && t - pts.back() <= tol) return false;
    const auto& s = seeds[vi];
    std::size_t& k = next_seed[vi];
    while (k < s.size() && s[k] <= t) ++k;
    if (k < s.size() && s[k] - t <= tol) return false;
    if (pts.size() >= options.max_points_per_node) {
      dts.truncated_ = true;
      return false;
    }
    pts.push_back(t);
    return true;
  };

  // Per-edge cursor over the presence intervals: pops are time-ordered, so
  // it only moves forward. Live at t means ρ_τ(e, t) (covers_closed).
  std::vector<std::size_t> cursor(g.edge_count(), 0);
  auto live = [&](std::size_t e, Time t) {
    const auto& ivs = g.edge_presence(e).intervals();
    std::size_t& c = cursor[e];
    while (c < ivs.size() && ivs[c].end <= t) ++c;
    return c < ivs.size() && ivs[c].start <= t && t + tau <= ivs[c].end;
  };
  auto other = [&](std::size_t e, NodeId v) {
    const auto [a, b] = g.edge_nodes(e);
    return a == v ? b : a;
  };

  // Closure under +τ propagation (Def. 5.2): if v may transmit at t and u
  // is adjacent, u's status may change at t + τ and u may transmit then.
  // With τ = 0 that spreads t over v's whole live component at once.
  std::size_t steps = 0;
  std::vector<NodeId> stack;
  while (!heap.empty()) {
    const auto [t, v] = heap.top();
    heap.pop();
    ++steps;
    if (!try_append(v, t) || t + tau > g.horizon()) continue;
    if (tau > 0) {
      for (std::size_t e : g.incident_edges(v))
        if (live(e, t)) heap.emplace(t + tau, other(e, v));
      continue;
    }
    stack.push_back(v);
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      for (std::size_t e : g.incident_edges(x)) {
        if (!live(e, t)) continue;
        const NodeId u = other(e, x);
        if (!try_append(u, t)) continue;
        ++steps;
        stack.push_back(u);
      }
    }
  }

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter(obs::keys::kDtsBuilds);
  static obs::Counter& points = registry.counter(obs::keys::kDtsPoints);
  static obs::Counter& closure = registry.counter(obs::keys::kDtsClosureSteps);
  static obs::Counter& truncations = registry.counter(obs::keys::kDtsTruncations);
  builds.add(1);
  points.add(dts.total_points());
  closure.add(steps);
  if (dts.truncated_) truncations.add(1);
  return dts;
}

const std::vector<Time>& DiscreteTimeSet::points(NodeId i) const {
  TVEG_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < points_.size(),
               "node id out of range");
  return points_[static_cast<std::size_t>(i)];
}

std::size_t DiscreteTimeSet::total_points() const {
  std::size_t total = 0;
  for (const auto& pts : points_) total += pts.size();
  return total;
}

std::vector<Time> DiscreteTimeSet::global_points() const {
  std::vector<Time> all;
  all.reserve(total_points());
  for (const auto& pts : points_) all.insert(all.end(), pts.begin(), pts.end());
  std::sort(all.begin(), all.end());
  std::vector<Time> out;
  out.reserve(all.size());
  for (Time t : all)
    if (out.empty() || t - out.back() > tol_) out.push_back(t);
  return out;
}

}  // namespace tveg
