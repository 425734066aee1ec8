#include "core/aux_graph.hpp"

#include <algorithm>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::core {

namespace {
constexpr double kTimeTol = 1e-9;
}

AuxGraph::AuxGraph(const TmedbInstance& instance, const DiscreteTimeSet& dts)
    : AuxGraph(instance, dts, Options{}) {}

AuxGraph::AuxGraph(const TmedbInstance& instance, const DiscreteTimeSet& dts,
                   Options options) {
  obs::TraceSpan span("aux_graph");
  instance.validate();
  const Tveg& tveg = *instance.tveg;
  const Time tau = tveg.latency();
  const auto n = static_cast<std::size_t>(tveg.node_count());
  TVEG_REQUIRE(static_cast<std::size_t>(dts.node_count()) == n,
               "DTS node count mismatch");

  // Clip each node's DTS to the deadline. The flat offsets are the vertex-id
  // codec: u_{i,l} = point_offset_[i] + l, so ids exist as soon as the clip
  // pass finishes — no per-node vertex tables.
  point_offset_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t count = 0;
    for (Time t : dts.points(static_cast<NodeId>(i))) {
      if (t > instance.deadline + kTimeTol) break;
      point_times_.push_back(t);
      ++count;
    }
    TVEG_ASSERT_MSG(count > 0, "node has no DTS point before T");
    point_offset_[i + 1] = point_offset_[i] + count;
  }
  first_power_ = static_cast<graph::VertexId>(point_offset_[n]);
  g_.reset(first_power_);

  source_ = source_vertex_for(instance.source);
  terminals_ = terminals_for(instance);

  // Transmission structure. The discrete cost sets (the expensive part: one
  // ED-function materialization plus min-cost query per neighbor) are
  // precomputed into indexed slots — optionally on the pool — and the graph
  // itself is built in a second, serial pass, so vertex ids (hence extracted
  // schedules) are identical whether or not a pool is supplied.
  struct Slot {
    std::size_t i;
    std::size_t l;
    Time t;
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < point_count_raw(i); ++l) {
      const Time t = point_times_[point_offset_[i] + l];
      if (t + tau > instance.deadline + kTimeTol) break;
      slots.push_back({i, l, t});
    }
  }
  std::vector<std::vector<DcsEntry>> dcs_by_slot(slots.size());
  const auto fill = [&](std::size_t s) {
    obs::ScopedSpan fill_span("aux_dcs_fill");
    dcs_by_slot[s] =
        tveg.discrete_cost_set(static_cast<NodeId>(slots[s].i), slots[s].t);
  };
  if (options.pool != nullptr && slots.size() > 1) {
    options.pool->parallel_for(0, slots.size(), [&](std::size_t s) {
      options.budget.check("aux_dcs");
      fill(s);
    }, options.budget.cancel);
    static obs::Counter& par_tasks =
        obs::MetricsRegistry::global().counter(obs::keys::kParallelAuxDcsTasks);
    par_tasks.add(slots.size());
  } else {
    support::Budget::Poller poller(options.budget, "aux_dcs", /*stride=*/16);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      poller.poll();
      fill(s);
    }
  }

  // Receiver precompute + exact arc census. One lower_bound per (slot,
  // neighbor) pair — the assembly pass below reuses the resolved vertices
  // instead of re-searching per (level, member) pair — and the census lets
  // the staging arena be sized in a single allocation before any arc lands.
  std::vector<graph::VertexId> rv_flat;
  std::vector<std::size_t> rv_off(slots.size() + 1, 0);
  std::size_t arc_total = point_offset_[n] - n;  // chain arcs: Σ (cnt_i − 1)
  std::size_t power_total = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    rv_off[s] = rv_flat.size();
    const std::vector<DcsEntry>& dcs = dcs_by_slot[s];
    const Time t = slots[s].t;
    for (const DcsEntry& entry : dcs) {
      const auto j = static_cast<std::size_t>(entry.neighbor);
      const auto jb = point_times_.begin() +
                      static_cast<std::ptrdiff_t>(point_offset_[j]);
      const auto je = point_times_.begin() +
                      static_cast<std::ptrdiff_t>(point_offset_[j + 1]);
      const auto it = std::lower_bound(jb, je, t + tau - kTimeTol);
      rv_flat.push_back(it == je ? graph::kNoVertex
                                 : static_cast<graph::VertexId>(
                                       it - point_times_.begin()));
    }
    const graph::VertexId* rv = rv_flat.data() + rv_off[s];
    if (options.power_expansion) {
      std::size_t valid_prefix = 0;
      for (std::size_t k = 0; k < dcs.size(); ++k) {
        if (rv[k] != graph::kNoVertex) ++valid_prefix;
        arc_total += valid_prefix + (valid_prefix > 0 ? 1 : 0);
      }
      power_total += dcs.size();
    } else {
      for (std::size_t k = 0; k < dcs.size(); ++k)
        if (rv[k] != graph::kNoVertex) {
          arc_total += 2;
          ++power_total;
        }
    }
  }
  rv_off[slots.size()] = rv_flat.size();
  g_.reserve_arcs(arc_total);
  power_info_.reserve(power_total);

  // Chain arcs u_{i,l} → u_{i,l+1}: once informed, stay informed. (Each u
  // vertex has at most one chain arc and it precedes the vertex's transmit
  // arcs, exactly as in the historical interleaved build.)
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t l = 0; l + 1 < point_count_raw(i); ++l) {
      const auto u = static_cast<graph::VertexId>(point_offset_[i] + l);
      g_.add_arc(u, u + 1, 0.0);
    }

  for (std::size_t s = 0; s < slots.size(); ++s) {
    const std::size_t i = slots[s].i;
    const std::size_t l = slots[s].l;
    const Time t = slots[s].t;
    const std::vector<DcsEntry>& dcs = dcs_by_slot[s];
    if (dcs.empty()) continue;
    const graph::VertexId* rv = rv_flat.data() + rv_off[s];
    const auto u = static_cast<graph::VertexId>(point_offset_[i] + l);

    if (options.power_expansion) {
      // One power vertex per DCS level; level k reaches levels 0..k.
      for (std::size_t k = 0; k < dcs.size(); ++k) {
        bool any_receiver = false;
        const graph::VertexId x = g_.add_vertex();
        for (std::size_t m = 0; m <= k; ++m) {
          if (rv[m] == graph::kNoVertex) continue;
          g_.add_arc(x, rv[m], 0.0);
          any_receiver = true;
        }
        power_info_.push_back(any_receiver
                                  ? PowerInfo{static_cast<NodeId>(i), t,
                                              dcs[k].cost}
                                  : PowerInfo{});  // dead slot, never decoded
        if (!any_receiver) continue;  // x stays isolated, harmless
        g_.add_arc(u, x, dcs[k].cost);
        ++live_power_;
      }
    } else {
      // Ablation: per-receiver singleton "levels" — no broadcast advantage.
      for (std::size_t k = 0; k < dcs.size(); ++k) {
        if (rv[k] == graph::kNoVertex) continue;
        const graph::VertexId x = g_.add_vertex();
        g_.add_arc(u, x, dcs[k].cost);
        g_.add_arc(x, rv[k], 0.0);
        power_info_.push_back(
            PowerInfo{static_cast<NodeId>(i), t, dcs[k].cost});
        ++live_power_;
      }
    }
  }
  g_.freeze();

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter(obs::keys::kAuxBuilds);
  static obs::Counter& power_vertices =
      registry.counter(obs::keys::kAuxPowerVertices);
  static obs::Gauge& vertices = registry.gauge(obs::keys::kAuxLastVertices);
  static obs::Gauge& arcs = registry.gauge(obs::keys::kAuxLastArcs);
  builds.add(1);
  power_vertices.add(live_power_);
  vertices.set(static_cast<double>(vertex_count()));
  arcs.set(static_cast<double>(arc_count()));
}

graph::VertexId AuxGraph::source_vertex_for(NodeId s) const {
  const auto i = static_cast<std::size_t>(s);
  TVEG_REQUIRE(i < point_offset_.size() - 1, "source node out of range");
  TVEG_REQUIRE(point_count_raw(i) > 0 &&
                   point_times_[point_offset_[i]] <= kTimeTol,
               "source DTS must start at time 0");
  return static_cast<graph::VertexId>(point_offset_[i]);
}

std::vector<graph::VertexId> AuxGraph::terminals_for(
    const TmedbInstance& instance) const {
  TVEG_REQUIRE(static_cast<std::size_t>(instance.tveg->node_count()) ==
                   point_offset_.size() - 1,
               "instance does not match this auxiliary graph");
  std::vector<graph::VertexId> out;
  for (NodeId t : instance.effective_targets())
    out.push_back(static_cast<graph::VertexId>(
        point_offset_[static_cast<std::size_t>(t) + 1] - 1));
  return out;
}

Schedule AuxGraph::extract_schedule(const graph::SteinerResult& tree) const {
  Schedule schedule;
  // Power vertices decode arithmetically: any arc head >= first_power_ is a
  // transmit arc into power vertex (head − first_power_) — no map lookups.
  for (const auto& arc : tree.arcs) {
    if (arc.to < first_power_) continue;  // chain or deliver arc
    const PowerInfo& info =
        power_info_[static_cast<std::size_t>(arc.to - first_power_)];
    schedule.add(info.relay, info.time, info.cost);
  }
  schedule.coalesce();
  return schedule;
}

}  // namespace tveg::core
