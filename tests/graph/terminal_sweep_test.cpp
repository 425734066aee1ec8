#include "graph/terminal_sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/steiner.hpp"
#include "oracle/random.hpp"
#include "support/cancel.hpp"
#include "support/deadline.hpp"
#include "support/rng.hpp"

namespace tveg::graph {
namespace {

/// reach[u][v]: v is reachable from u (u reaches itself).
std::vector<std::vector<char>> reachability(const Digraph& g) {
  const auto n = static_cast<std::size_t>(g.vertex_count());
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<VertexId> todo{static_cast<VertexId>(s)};
    reach[s][s] = 1;
    while (!todo.empty()) {
      const VertexId u = todo.back();
      todo.pop_back();
      for (const Arc& a : g.out(u))
        if (!reach[s][static_cast<std::size_t>(a.to)]) {
          reach[s][static_cast<std::size_t>(a.to)] = 1;
          todo.push_back(a.to);
        }
    }
  }
  return reach;
}

/// A chain 0 → 1 → … → n-1 with unit weights; terminal n-1.
Digraph chain(VertexId n) {
  Digraph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.add_arc(v, v + 1, 1.0);
  g.freeze();
  return g;
}

TEST(SccOrder, ComponentsAreMutuallyReachableAndSinksFirst) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    support::Rng rng(seed);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return oracle::uniform_in(rng, lo, hi);
    };
    const auto n = static_cast<VertexId>(pick(1, 40));
    Digraph g(n);
    const auto arcs = pick(0, 3 * static_cast<std::int64_t>(n));
    for (std::int64_t i = 0; i < arcs; ++i)
      g.add_arc(static_cast<VertexId>(pick(0, n - 1)),
                static_cast<VertexId>(pick(0, n - 1)), 1.0);
    g.freeze();

    const SccOrder order = scc_order(g);
    ASSERT_EQ(order.vertices.size(), static_cast<std::size_t>(n));
    std::vector<std::size_t> comp(static_cast<std::size_t>(n), n + 1u);
    for (std::size_t c = 0; c < order.component_count(); ++c)
      for (std::size_t i = order.offsets[c]; i < order.offsets[c + 1]; ++i)
        comp[static_cast<std::size_t>(order.vertices[i])] = c;
    const auto reach = reachability(g);
    for (VertexId u = 0; u < n; ++u) {
      const auto ui = static_cast<std::size_t>(u);
      ASSERT_LE(comp[ui], order.component_count()) << "seed " << seed;
      for (const Arc& a : g.out(u))
        EXPECT_LE(comp[static_cast<std::size_t>(a.to)], comp[ui])
            << "seed " << seed << ": arc " << u << "→" << a.to
            << " enters a later component";
      for (VertexId v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        EXPECT_EQ(comp[ui] == comp[vi], reach[ui][vi] && reach[vi][ui])
            << "seed " << seed << ": vertices " << u << ", " << v;
      }
    }
  }
}

TEST(TerminalSweep, ChainDistancesAndWork) {
  const Digraph g = chain(5);
  std::vector<double> dist;
  const std::vector<VertexId> terminals{4, 2};
  const TerminalSweepWork work =
      distances_to_terminals(g, scc_order(g), terminals, {}, dist);
  ASSERT_EQ(dist.size(), 10u);
  for (std::size_t u = 0; u < 5; ++u) {
    EXPECT_DOUBLE_EQ(dist[u * 2], 4.0 - static_cast<double>(u));
    if (u <= 2)
      EXPECT_DOUBLE_EQ(dist[u * 2 + 1], 2.0 - static_cast<double>(u));
    else
      EXPECT_TRUE(std::isinf(dist[u * 2 + 1]));
  }
  // A DAG is visited once per vertex; 4 + 2 entries are lowered.
  EXPECT_EQ(work.visits, 5u);
  EXPECT_EQ(work.improvements, 6u);
}

TEST(TerminalSweep, NoTerminalsDoesNoWork) {
  const Digraph g = chain(4);
  std::vector<double> dist{1.0};
  const TerminalSweepWork work =
      distances_to_terminals(g, scc_order(g), {}, {}, dist);
  EXPECT_TRUE(dist.empty());
  EXPECT_EQ(work.visits, 0u);
}

TEST(TerminalSweep, CancelledBudgetThrows) {
  const Digraph g = chain(8);
  const support::CancelSource cancel;
  cancel.request_cancel();
  std::vector<double> dist;
  const std::vector<VertexId> terminals{7};
  EXPECT_THROW(distances_to_terminals(g, scc_order(g), terminals,
                                      {support::Deadline{}, cancel.token()},
                                      dist),
               support::CancelledError);
}

TEST(TerminalSweep, ZeroBudgetThrows) {
  // Longer than one poller stride, so the strided clock read happens.
  const Digraph g = chain(500);
  std::vector<double> dist;
  const std::vector<VertexId> terminals{499};
  EXPECT_THROW(distances_to_terminals(g, scc_order(g), terminals,
                                      support::Deadline::after_ms(0), dist),
               support::TimeoutError);
}

/// Level-2 greedy reads the sweep, not reverse Dijkstras: its Dijkstra runs
/// are the forward ones — the root's full tree plus one early-stopped run
/// per level-1 bunch — and a repeated query on one solver repeats them (no
/// tree is cached; only the SCC order is).
TEST(TerminalSweep, GreedyCountsSweepWorkAndNoDijkstra) {
  Digraph g(6);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 0.0);
  g.add_arc(2, 1, 0.0);  // a two-vertex SCC
  g.add_arc(1, 3, 2.0);
  g.add_arc(2, 4, 2.0);
  g.add_arc(0, 5, 7.0);
  SteinerSolver solver(g);
  const std::vector<VertexId> terminals{3, 4, 5};
  const SteinerResult first = solver.recursive_greedy(0, terminals, 2);
  const SteinerSolver::QueryStats cold = solver.last_query_stats();
  const SteinerResult again = solver.recursive_greedy(0, terminals, 2);
  const SteinerSolver::QueryStats warm = solver.last_query_stats();
  EXPECT_TRUE(first.feasible);
  EXPECT_DOUBLE_EQ(again.cost, first.cost);
  // Root 0's full run, the bunch from 1 covering {3, 4} (density 2.5), then
  // the bunch from 0 covering 5.
  EXPECT_EQ(cold.dijkstra_runs, 3u);
  EXPECT_EQ(warm.dijkstra_runs, 3u);
  // 4 singleton visits + 3 passes over the SCC {1, 2}, visited 2 then 1:
  // 2 learns dist to 3 only in the second pass, the third confirms. Then 6
  // settles for the root run, 4 for the bunch from 1 (it stops with the
  // heap empty) and 6 for the bunch from 0 (5 is the last vertex settled).
  EXPECT_EQ(warm.nodes_expanded, 10u + 6u + 4u + 6u);
  EXPECT_EQ(cold.nodes_expanded, warm.nodes_expanded);
  EXPECT_GT(warm.relaxations, 0u);
  EXPECT_EQ(cold.relaxations, warm.relaxations);

  // Level 1 reads only forward trees: no sweep work, one bunch run. Its
  // want-th terminal 3 settles at distance 3; 4, tied at 3, still settles,
  // and the run stops before settling 5 at 7.
  const SteinerResult near = solver.recursive_greedy(0, {3}, 1);
  EXPECT_TRUE(near.feasible);
  EXPECT_EQ(solver.last_query_stats().dijkstra_runs, 1u);
  EXPECT_EQ(solver.last_query_stats().nodes_expanded, 5u);
}

}  // namespace
}  // namespace tveg::graph
