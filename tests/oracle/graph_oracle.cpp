#include "oracle/graph_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::oracle {

using graph::Arc;
using graph::Digraph;
using graph::kNoVertex;
using graph::SteinerResult;
using graph::VertexId;
using support::kInf;

ShortestPaths dijkstra(const Digraph& g, VertexId src) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  TVEG_REQUIRE(src >= 0 && static_cast<std::size_t>(src) < n,
               "source vertex out of range");
  ShortestPaths sp;
  sp.dist.assign(n, kInf);
  sp.parent.assign(n, kNoVertex);
  sp.dist[static_cast<std::size_t>(src)] = 0;
  std::vector<std::pair<double, VertexId>> heap{{0.0, src}};
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (d > sp.dist[static_cast<std::size_t>(u)]) continue;
    ++sp.settled;
    for (const Arc& a : g.out(u)) {
      const auto t = static_cast<std::size_t>(a.to);
      const double nd = d + a.weight;
      if (nd < sp.dist[t]) {
        sp.dist[t] = nd;
        sp.parent[t] = u;
        heap.emplace_back(nd, a.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        ++sp.relaxations;
      }
    }
  }
  return sp;
}

SteinerResult exact_steiner(const Digraph& g, VertexId root,
                            const std::vector<VertexId>& terminals) {
  std::vector<VertexId> terms;
  std::unordered_set<VertexId> seen;
  for (VertexId t : terminals)
    if (t != root && seen.insert(t).second) terms.push_back(t);
  const std::size_t k = terms.size();
  TVEG_REQUIRE(k <= 16, "exact solver limited to 16 terminals");
  const auto n = static_cast<std::size_t>(g.vertex_count());
  TVEG_REQUIRE(n <= 1500, "exact solver limited to 1500 vertices "
                          "(quadratic distance/parent storage)");

  SteinerResult r;
  if (k == 0) {
    r.feasible = true;
    return r;
  }

  // Full single-source trees from every vertex: distances for the DP plus
  // parents for arc reconstruction.
  std::vector<ShortestPaths> sp(n);
  for (std::size_t v = 0; v < n; ++v)
    sp[v] = dijkstra(g, static_cast<VertexId>(v));
  auto dist = [&](std::size_t v, std::size_t u) { return sp[v].dist[u]; };

  const std::size_t full = (std::size_t{1} << k) - 1;
  // dp[S][v]: min arborescence cost rooted at v covering terminal subset S.
  // graft_u[S][v]: the vertex the split/base happens at (reached from v by
  // a shortest path). split_a[S][u]: the subset A of the split at u
  // (0 = singleton base case, path straight to the terminal).
  std::vector<std::vector<double>> dp(full + 1, std::vector<double>(n, kInf));
  std::vector<std::vector<VertexId>> graft_u(
      full + 1, std::vector<VertexId>(n, kNoVertex));
  std::vector<std::vector<std::uint32_t>> split_a(
      full + 1, std::vector<std::uint32_t>(n, 0));

  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t S = std::size_t{1} << i;
    for (std::size_t v = 0; v < n; ++v) {
      dp[S][v] = dist(v, static_cast<std::size_t>(terms[i]));
      graft_u[S][v] = static_cast<VertexId>(v);  // base: path v → terminal
    }
  }

  std::vector<double> merged(n);
  std::vector<std::uint32_t> merged_a(n);
  for (std::size_t S = 1; S <= full; ++S) {
    if ((S & (S - 1)) == 0) continue;  // singletons are the base case
    // Split step: best partition of S at the same root.
    for (std::size_t v = 0; v < n; ++v) {
      double best = kInf;
      std::uint32_t best_a = 0;
      for (std::size_t A = (S - 1) & S; A > (S ^ A); A = (A - 1) & S) {
        const std::size_t B = S ^ A;
        if (dp[A][v] < kInf && dp[B][v] < kInf && dp[A][v] + dp[B][v] < best) {
          best = dp[A][v] + dp[B][v];
          best_a = static_cast<std::uint32_t>(A);
        }
      }
      merged[v] = best;
      merged_a[v] = best_a;
    }
    // Graft step: reach the split vertex u from v by a shortest path.
    for (std::size_t v = 0; v < n; ++v) {
      double best = merged[v];
      std::size_t best_u = v;
      for (std::size_t u = 0; u < n; ++u) {
        if (merged[u] == kInf || dist(v, u) == kInf) continue;
        if (dist(v, u) + merged[u] < best) {
          best = dist(v, u) + merged[u];
          best_u = u;
        }
      }
      dp[S][v] = best;
      graft_u[S][v] = static_cast<VertexId>(best_u);
      split_a[S][v] = merged_a[best_u];
    }
  }

  const double opt = dp[full][static_cast<std::size_t>(root)];
  if (opt == kInf) return r;  // infeasible, empty result

  // Reconstruct: realize dp[S][v] recursively as a set of arcs.
  std::map<std::pair<VertexId, VertexId>, double> arcs;
  const auto add_path = [&](const ShortestPaths& from, VertexId dst) {
    for (VertexId cur = dst; from.parent[static_cast<std::size_t>(cur)] !=
                             kNoVertex;) {
      const VertexId p = from.parent[static_cast<std::size_t>(cur)];
      arcs.emplace(std::pair{p, cur},
                   from.dist[static_cast<std::size_t>(cur)] -
                       from.dist[static_cast<std::size_t>(p)]);
      cur = p;
    }
  };
  struct Frame {
    std::size_t S;
    std::size_t v;
  };
  std::vector<Frame> stack{{full, static_cast<std::size_t>(root)}};
  while (!stack.empty()) {
    const auto [S, v] = stack.back();
    stack.pop_back();
    TVEG_ASSERT(graft_u[S][v] != kNoVertex);
    const auto u = static_cast<std::size_t>(graft_u[S][v]);
    add_path(sp[v], static_cast<VertexId>(u));
    if ((S & (S - 1)) == 0) {
      // Singleton: shortest path u → terminal.
      std::size_t i = 0;
      while (!(S & (std::size_t{1} << i))) ++i;
      add_path(sp[u], terms[i]);
    } else {
      const std::size_t A = split_a[S][v];
      TVEG_ASSERT(A != 0 && (A & S) == A);
      stack.push_back({A, u});
      stack.push_back({S ^ A, u});
    }
  }

  // Cleanup: shortest paths from the root inside the reconstructed arcs,
  // keeping only the arcs on a path to a terminal. Never raises the cost.
  Digraph sub(g.vertex_count());
  for (const auto& [key, w] : arcs) sub.add_arc(key.first, key.second, w);
  const ShortestPaths tree = dijkstra(sub, root);
  r.feasible = true;
  std::set<std::pair<VertexId, VertexId>> kept;
  for (VertexId t : terminals) {
    if (tree.dist[static_cast<std::size_t>(t)] == kInf) {
      r.feasible = false;
      continue;
    }
    for (VertexId cur = t; tree.parent[static_cast<std::size_t>(cur)] !=
                           kNoVertex;) {
      const VertexId p = tree.parent[static_cast<std::size_t>(cur)];
      if (kept.insert({p, cur}).second) {
        const double w = tree.dist[static_cast<std::size_t>(cur)] -
                         tree.dist[static_cast<std::size_t>(p)];
        r.arcs.push_back({p, cur, w});
        r.cost += w;
      }
      cur = p;
    }
  }
  TVEG_ASSERT_MSG(r.feasible, "exact reconstruction lost a terminal");
  // Shared arcs can only make the realized tree cheaper than the DP value,
  // and no tree beats the optimum — so they must agree.
  TVEG_ASSERT_MSG(r.cost <= opt + 1e-9 * (1 + opt), "cost above DP optimum");
  return r;
}

bool steiner_tree_valid(const Digraph& g, const SteinerResult& r,
                        VertexId root, const std::vector<VertexId>& terminals) {
  Digraph sub(g.vertex_count());
  for (const auto& arc : r.arcs) {
    const auto out = g.out(arc.from);
    if (std::none_of(out.begin(), out.end(), [&](const Arc& a) {
          return a.to == arc.to && a.weight <= arc.weight + 1e-9;
        }))
      return false;
    sub.add_arc(arc.from, arc.to, arc.weight);
  }
  const ShortestPaths sp = dijkstra(sub, root);
  return std::all_of(terminals.begin(), terminals.end(), [&](VertexId t) {
    return sp.dist[static_cast<std::size_t>(t)] != kInf;
  });
}

}  // namespace tveg::oracle
