#include "core/tveg.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::core {

using channel::ChannelModel;
using support::kInf;

Tveg::Tveg(const trace::ContactTrace& trace, channel::RadioParams radio,
           Options options)
    : graph_(trace.to_graph(options.tau)),
      radio_(radio),
      options_(options) {
  radio_.validate();
  TVEG_REQUIRE(options_.tau >= 0, "latency must be non-negative");

  // Distance profiles: one sample per contact start, per edge. Contacts of a
  // pair are disjoint in generated traces; overlapping duplicates keep the
  // first sample at a given time.
  distance_.resize(graph_.edge_count());
  std::map<std::size_t, std::map<Time, double>> samples;
  for (const trace::Contact& c : trace.contacts()) {
    // to_graph registered the edge, so lookup must succeed.
    const std::size_t e = edge_of(c.a, c.b);
    TVEG_ASSERT(e != npos);
    samples[e].emplace(c.start, c.distance);
  }
  for (auto& [e, profile_samples] : samples)
    for (const auto& [t, d] : profile_samples) distance_[e].add(t, d);
}

std::size_t Tveg::edge_of(NodeId a, NodeId b) const {
  return graph_.edge_id(a, b);
}

std::unique_ptr<channel::EdFunction> Tveg::ed_function(NodeId a, NodeId b,
                                                       Time t) const {
  TVEG_REQUIRE(graph_.adjacent(a, b, t), "pair not adjacent at t");
  return materialize_ed(distance_[edge_of(a, b)].at(t));
}

std::unique_ptr<channel::EdFunction> Tveg::materialize_ed(
    double distance) const {
  switch (options_.model) {
    case ChannelModel::kStep:
      return std::make_unique<channel::StepEdFunction>(
          radio_.step_min_cost(distance));
    case ChannelModel::kRayleigh:
      return std::make_unique<channel::RayleighEdFunction>(
          radio_.rayleigh_beta(distance));
    case ChannelModel::kNakagami:
      return std::make_unique<channel::NakagamiEdFunction>(
          options_.nakagami_m, radio_.rayleigh_beta(distance));
    case ChannelModel::kRician:
      return std::make_unique<channel::RicianEdFunction>(
          options_.rician_k, radio_.rayleigh_beta(distance));
  }
  TVEG_ASSERT_MSG(false, "unknown channel model");
  return nullptr;
}

double Tveg::failure_probability(NodeId a, NodeId b, Time t, Cost w) const {
  if (!graph_.adjacent(a, b, t)) return 1.0;  // Property 3.1(iii)
  if (memoized())
    return memo_entry(edge_of(a, b), t).ed->failure_probability(w);
  return ed_function(a, b, t)->failure_probability(w);
}

Cost Tveg::edge_weight(NodeId a, NodeId b, Time t) const {
  if (!graph_.adjacent(a, b, t)) return kInf;
  if (memoized()) return memo_entry(edge_of(a, b), t).weight;
  return ed_function(a, b, t)->min_cost_for(radio_.epsilon);
}

void Tveg::memoize() {
  if (memoized()) return;
  obs::ScopedSpan span("ed_memo_fill");
  memo_offset_.reserve(distance_.size());
  for (const channel::PiecewiseConstantProfile& profile : distance_) {
    memo_offset_.push_back(memo_.size());
    // Segment k holds the profile's k-th sample value, exactly what at(t)
    // returns for every t in the segment — so each entry is the one the
    // memo-free path would materialize there.
    for (std::size_t k = 0; k < profile.size(); ++k) {
      MemoEntry entry;
      entry.ed = materialize_ed(profile.value(k));
      entry.weight = entry.ed->min_cost_for(radio_.epsilon);
      memo_.push_back(std::move(entry));
    }
  }
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter(obs::keys::kCacheBuilds);
  static obs::Counter& entries = registry.counter(obs::keys::kCacheEntries);
  builds.add(1);
  entries.add(memo_.size());
}

std::vector<DcsEntry> Tveg::discrete_cost_set(NodeId i, Time t) const {
  std::vector<DcsEntry> dcs;
  for (NodeId j : graph_.neighbors_at(i, t)) {
    const Cost w = edge_weight(i, j, t);
    if (w < kInf) dcs.push_back({w, j});
  }
  std::sort(dcs.begin(), dcs.end(), [](const DcsEntry& a, const DcsEntry& b) {
    return a.cost < b.cost;
  });
  return dcs;
}

std::vector<std::vector<Time>> Tveg::channel_breakpoints() const {
  std::vector<std::vector<Time>> per_node(
      static_cast<std::size_t>(graph_.node_count()));
  for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
    const auto [a, b] = graph_.edge_nodes(e);
    for (Time t : distance_[e].breakpoints()) {
      per_node[static_cast<std::size_t>(a)].push_back(t);
      per_node[static_cast<std::size_t>(b)].push_back(t);
    }
  }
  return per_node;
}

DiscreteTimeSet Tveg::build_dts(DtsOptions options) const {
  auto breakpoints = channel_breakpoints();
  if (options.extra_points.empty()) {
    options.extra_points = std::move(breakpoints);
  } else {
    TVEG_REQUIRE(options.extra_points.size() == breakpoints.size(),
                 "extra_points must have one entry per node");
    for (std::size_t i = 0; i < breakpoints.size(); ++i)
      options.extra_points[i].insert(options.extra_points[i].end(),
                                     breakpoints[i].begin(),
                                     breakpoints[i].end());
  }
  return DiscreteTimeSet::build(graph_, options);
}

}  // namespace tveg::core
