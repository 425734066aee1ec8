#include "graph/digraph.hpp"

#include <algorithm>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

Digraph::Digraph(VertexId n) : vertices_(n) {
  TVEG_REQUIRE(n >= 0, "vertex count must be non-negative");
}

VertexId Digraph::add_vertex() {
  TVEG_REQUIRE(!frozen_, "cannot add vertices to a frozen graph");
  return vertices_++;
}

void Digraph::check_vertex(VertexId v) const {
  TVEG_REQUIRE(v >= 0 && v < vertices_, "vertex id out of range");
}

void Digraph::add_arc(VertexId from, VertexId to, double weight) {
  TVEG_REQUIRE(!frozen_, "cannot add arcs to a frozen graph");
  check_vertex(from);
  check_vertex(to);
  TVEG_REQUIRE(weight >= 0, "arc weight must be non-negative");
  staged_from_.push_back(from);
  staged_.push_back({to, weight});
}

void Digraph::reserve_arcs(std::size_t arcs) {
  staged_from_.reserve(arcs);
  staged_.reserve(arcs);
}

void Digraph::freeze() {
  if (frozen_) return;
  const auto n = static_cast<std::size_t>(vertices_);
  const std::size_t m = staged_.size();
  offsets_.assign(n + 1, 0);
  for (const VertexId from : staged_from_)
    ++offsets_[static_cast<std::size_t>(from) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  arcs_.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    arcs_[cursor_[static_cast<std::size_t>(staged_from_[i])]++] = staged_[i];
  staged_from_.clear();
  staged_from_.shrink_to_fit();
  staged_.clear();
  staged_.shrink_to_fit();
  frozen_ = true;
  obs::MetricsRegistry::global().counter(obs::keys::kGraphFreezes).add(1);
  obs::MetricsRegistry::global()
      .counter(obs::keys::kGraphFrozenArcs)
      .add(static_cast<std::int64_t>(m));
}

void Digraph::reset(VertexId n) {
  TVEG_REQUIRE(n >= 0, "vertex count must be non-negative");
  vertices_ = n;
  frozen_ = false;
  staged_from_.clear();
  staged_.clear();
  offsets_.clear();
  arcs_.clear();
}

void Digraph::ensure_frozen() const {
  // Lazy freeze keeps the historical "build then query" call sites working
  // unchanged; logically const (the arc set is unaffected), hence the cast.
  // Not safe to race — callers sharing a graph across threads freeze first.
  if (!frozen_) const_cast<Digraph*>(this)->freeze();
}

std::span<const Arc> Digraph::out(VertexId v) const {
  check_vertex(v);
  ensure_frozen();
  const auto i = static_cast<std::size_t>(v);
  return {arcs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

void dijkstra_scratch(const Digraph& g, VertexId src, DijkstraWorkspace& ws) {
  dijkstra_scratch_nearest(g, src, ws, {}, 0, nullptr);
}

void dijkstra_scratch_nearest(
    const Digraph& g, VertexId src, DijkstraWorkspace& ws,
    std::span<const std::int32_t> target, std::size_t want,
    std::vector<std::pair<double, std::int32_t>>* found) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  TVEG_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < n,
               "source vertex out of range");
  TVEG_REQUIRE(target.empty() || (target.size() == n && found != nullptr),
               "targets need one entry per vertex and a found list");
  ws.begin(n);
  if (found != nullptr) found->clear();
  // Distance of the want-th found target; popping past it ends the run.
  double stop_above = support::kInf;
  // The relaxation test reads an unmarked (stale) slot as +inf.
  auto& heap = ws.heap_;
  heap.clear();
  const auto s = static_cast<std::size_t>(src);
  ws.dist_[s] = 0;
  ws.parent_[s] = kNoVertex;
  ws.mark_[s] = ws.epoch_;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (d > ws.dist_[static_cast<std::size_t>(u)]) continue;
    if (d > stop_above) break;
    ++ws.settled_;
    if (!target.empty() && target[static_cast<std::size_t>(u)] >= 0) {
      found->emplace_back(d, target[static_cast<std::size_t>(u)]);
      if (found->size() == want) stop_above = d;
    }
    for (const Arc& a : g.out(u)) {
      const auto t = static_cast<std::size_t>(a.to);
      const double nd = d + a.weight;
      if (nd < (ws.mark_[t] == ws.epoch_ ? ws.dist_[t] : support::kInf)) {
        ws.dist_[t] = nd;
        ws.parent_[t] = u;
        ws.mark_[t] = ws.epoch_;
        heap.emplace_back(nd, a.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        ++ws.relaxations_;
      }
    }
  }
}

}  // namespace tveg::graph
