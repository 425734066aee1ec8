#include "graph/terminal_sweep.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

SccOrder scc_order(const Digraph& g) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  constexpr auto kUnvisited = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<VertexId> stack;  // vertices of the not-yet-emitted SCCs
  struct Frame {
    VertexId v;
    std::size_t next_arc;
  };
  std::vector<Frame> calls;  // the DFS path
  std::uint32_t counter = 0;

  SccOrder order;
  order.vertices.reserve(n);
  order.offsets.push_back(0);

  const auto open = [&](VertexId v) {
    const auto i = static_cast<std::size_t>(v);
    index[i] = low[i] = counter++;
    stack.push_back(v);
    on_stack[i] = 1;
    calls.push_back({v, 0});
  };
  for (VertexId root = 0; root < g.vertex_count(); ++root) {
    if (index[static_cast<std::size_t>(root)] != kUnvisited) continue;
    open(root);
    while (!calls.empty()) {
      Frame& top = calls.back();
      const auto v = static_cast<std::size_t>(top.v);
      const std::span<const Arc> arcs = g.out(top.v);
      if (top.next_arc < arcs.size()) {
        const VertexId w = arcs[top.next_arc++].to;
        const auto wi = static_cast<std::size_t>(w);
        if (index[wi] == kUnvisited)
          open(w);  // invalidates `top`
        else if (on_stack[wi])
          low[v] = std::min(low[v], index[wi]);
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const auto parent = static_cast<std::size_t>(calls.back().v);
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] != index[v]) continue;
      // v roots an SCC: everything above it on the stack belongs to it, and
      // every SCC it reaches has already been emitted.
      VertexId w = kNoVertex;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[static_cast<std::size_t>(w)] = 0;
        order.vertices.push_back(w);
      } while (static_cast<std::size_t>(w) != v);
      order.offsets.push_back(order.vertices.size());
    }
  }
  return order;
}

TerminalSweepWork distances_to_terminals(const Digraph& g,
                                         const SccOrder& order,
                                         std::span<const VertexId> terminals,
                                         const support::Budget& budget,
                                         std::vector<double>& dist) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  TVEG_REQUIRE(order.vertices.size() == n,
               "SCC order does not cover the graph");
  const std::size_t kTerms = terminals.size();
  dist.assign(n * kTerms, support::kInf);
  for (std::size_t k = 0; k < kTerms; ++k) {
    const VertexId t = terminals[k];
    TVEG_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < n,
                 "terminal vertex out of range");
    dist[static_cast<std::size_t>(t) * kTerms + k] = 0;
  }

  TerminalSweepWork work;
  if (kTerms == 0) return work;
  support::Budget::Poller poller(budget, "steiner_terminal_sweep");
  for (std::size_t c = 0; c < order.component_count(); ++c) {
    const std::span<const VertexId> members(
        order.vertices.data() + order.offsets[c],
        order.offsets[c + 1] - order.offsets[c]);
    // A single vertex needs one pass: a self-loop never lowers its own row.
    const bool cyclic = members.size() > 1;
    std::size_t before = 0;
    do {
      before = work.improvements;
      for (const VertexId u : members) {
        poller.poll();
        ++work.visits;
        double* row_u = dist.data() + static_cast<std::size_t>(u) * kTerms;
        for (const Arc& a : g.out(u)) {
          const double* row_v =
              dist.data() + static_cast<std::size_t>(a.to) * kTerms;
          for (std::size_t k = 0; k < kTerms; ++k) {
            // Same operand order as Dijkstra's d + w on the transpose.
            const double d = row_v[k] + a.weight;
            if (d < row_u[k]) {
              row_u[k] = d;
              ++work.improvements;
            }
          }
        }
      }
    } while (cyclic && work.improvements != before);
  }
  return work;
}

}  // namespace tveg::graph
