#include "trace/contact_trace.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/assert.hpp"

namespace tveg::trace {

ContactTrace::ContactTrace(NodeId node_count, Time horizon)
    : node_count_(node_count), horizon_(horizon) {
  TVEG_REQUIRE(node_count > 1, "a trace needs at least two nodes");
  TVEG_REQUIRE(horizon > 0, "horizon must be positive");
}

void ContactTrace::add(Contact c) {
  TVEG_REQUIRE(c.a >= 0 && c.a < node_count_ && c.b >= 0 && c.b < node_count_,
               "contact node out of range");
  TVEG_REQUIRE(c.a != c.b, "self-contact");
  TVEG_REQUIRE(c.start < c.end, "contact must have positive duration");
  TVEG_REQUIRE(c.start >= 0 && c.end <= horizon_, "contact outside horizon");
  TVEG_REQUIRE(c.distance > 0, "contact distance must be positive");
  if (c.a > c.b) std::swap(c.a, c.b);
  contacts_.push_back(c);
}

void ContactTrace::sort() {
  std::sort(contacts_.begin(), contacts_.end(),
            [](const Contact& x, const Contact& y) {
              return std::tie(x.start, x.a, x.b, x.end) <
                     std::tie(y.start, y.a, y.b, y.end);
            });
}

ContactTrace ContactTrace::window(Time lo, Time hi) const {
  TVEG_REQUIRE(lo >= 0 && hi <= horizon_ && lo < hi, "invalid window");
  ContactTrace out(node_count_, hi - lo);
  for (const Contact& c : contacts_) {
    const Time s = std::max(c.start, lo);
    const Time e = std::min(c.end, hi);
    if (s < e) out.add({c.a, c.b, s - lo, e - lo, c.distance});
  }
  out.sort();
  return out;
}

TimeVaryingGraph ContactTrace::to_graph(Time tau) const {
  TimeVaryingGraph g(node_count_, horizon_, tau);
  for (const Contact& c : contacts_) g.add_contact(c.a, c.b, c.start, c.end);
  return g;
}

std::vector<Time> ContactTrace::inter_contact_times() const {
  std::map<std::pair<NodeId, NodeId>, std::vector<std::pair<Time, Time>>>
      per_pair;
  for (const Contact& c : contacts_)
    per_pair[{c.a, c.b}].push_back({c.start, c.end});

  std::vector<Time> gaps;
  for (auto& [pair, meets] : per_pair) {
    std::sort(meets.begin(), meets.end());
    for (std::size_t i = 1; i < meets.size(); ++i) {
      const Time gap = meets[i].first - meets[i - 1].second;
      if (gap > 0) gaps.push_back(gap);
    }
  }
  return gaps;
}

double ContactTrace::average_degree(Time t) const {
  std::size_t live = 0;
  for (const Contact& c : contacts_)
    if (c.start <= t && t < c.end) ++live;
  // Each live contact contributes degree 1 to each endpoint. Overlapping
  // contacts of the same pair were normalized away by generators; real
  // traces may double-count, which matches how degree is usually reported.
  return 2.0 * static_cast<double>(live) / static_cast<double>(node_count_);
}

std::size_t ContactTrace::pair_count() const {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(contacts_.size());
  for (const Contact& c : contacts_) pairs.push_back({c.a, c.b});
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs.size();
}

}  // namespace tveg::trace
