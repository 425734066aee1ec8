#include "graph/steiner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "oracle/graph_oracle.hpp"

namespace tveg::graph {
namespace {

/// Broadcast star: root 0, power vertex 1 costs 10 and reaches all three
/// terminals for free; individual power vertices cost 6 each. Optimal tree
/// costs 10 (share the broadcast), per-terminal shortest paths cost 18.
struct BroadcastStar {
  Digraph g{Digraph(8)};
  VertexId root = 0;
  std::vector<VertexId> terminals{2, 3, 4};

  BroadcastStar() {
    g.add_arc(0, 1, 10.0);  // shared power vertex
    g.add_arc(1, 2, 0.0);
    g.add_arc(1, 3, 0.0);
    g.add_arc(1, 4, 0.0);
    // Individual power vertices 5, 6, 7 (cheaper per terminal).
    g.add_arc(0, 5, 6.0);
    g.add_arc(5, 2, 0.0);
    g.add_arc(0, 6, 6.0);
    g.add_arc(6, 3, 0.0);
    g.add_arc(0, 7, 6.0);
    g.add_arc(7, 4, 0.0);
  }
};

TEST(SteinerSpt, TakesPerTerminalShortestPaths) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.shortest_path_heuristic(s.root, s.terminals);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(oracle::steiner_tree_valid(s.g, r, s.root, s.terminals));
  // SPT pays each terminal's 6 — this is exactly the heuristic's blind spot.
  EXPECT_DOUBLE_EQ(r.cost, 18.0);
}

TEST(SteinerGreedyLevel2, FindsSharedBroadcastVertex) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const SteinerResult r = solver.recursive_greedy(s.root, s.terminals, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(oracle::steiner_tree_valid(s.g, r, s.root, s.terminals));
  // Density of the shared vertex is 10/3 < 6 → the greedy must pick it.
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
}

/// A level-1 bunch with want = 1 whose two uncovered terminals tie at
/// distance 5. Terminal index 0 is vertex 2 and index 1 is vertex 1, so
/// Dijkstra settles index 1 first (heap ties pop the lower vertex id). The
/// run must still settle the tied vertex 2 before stopping, so the bunch's
/// (distance, terminal index) order picks index 0.
TEST(SteinerBunch, TiedTerminalsSettleAndLowerIndexWins) {
  Digraph g(4);
  g.add_arc(0, 1, 5.0);
  g.add_arc(0, 2, 5.0);
  g.add_arc(0, 3, 9.0);
  g.freeze();
  const std::vector<std::int32_t> target{-1, 1, 0, -1};
  DijkstraWorkspace ws;
  std::vector<std::pair<double, std::int32_t>> found;
  dijkstra_scratch_nearest(g, 0, ws, target, 1, &found);
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].second, 1);  // settle order: vertex 1 first
  EXPECT_EQ(found[1].second, 0);
  EXPECT_EQ(ws.settled(), 3u);  // 0, 1, 2; the pop of 3 at 9 stops the run
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found.front().second, 0);

  // The level-2 solve runs that bunch twice from the root (each covers one
  // terminal at density 5): 4 sweep visits, 4 root settles, 3 + 3 bunch
  // settles.
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(0, {2, 1}, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  EXPECT_EQ(solver.last_query_stats().dijkstra_runs, 3u);
  EXPECT_EQ(solver.last_query_stats().nodes_expanded, 4u + 4u + 3u + 3u);
}

/// The density scan's row bound must be sound. Hub 1 costs 10 to reach and
/// reaches both terminals at 1 each: density (10 + 1 + 1) / 2 = 6. The root
/// reaches each terminal directly at 8, so the earlier vertex 0 holds the
/// incumbent 8 when the scan reaches vertex 1. The unsound cut
/// dist(root→u) + row_min(u) = 11 >= 8 would skip the hub; row_min(u) +
/// dist(root→u) / k' = 6 <= 8 must not.
TEST(SteinerGreedyLevel2, DensityCutKeepsLaterCheaperHub) {
  Digraph g(4);
  g.add_arc(0, 2, 8.0);
  g.add_arc(0, 3, 8.0);
  g.add_arc(0, 1, 10.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(1, 3, 1.0);
  SteinerSolver solver(g);
  const std::vector<VertexId> terminals{2, 3};
  const SteinerResult r = solver.recursive_greedy(0, terminals, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(oracle::steiner_tree_valid(g, r, 0, terminals));
  EXPECT_DOUBLE_EQ(r.cost, 12.0);  // 0→1→{2, 3}, not 8 + 8
  ASSERT_EQ(r.arcs.size(), 3u);
  EXPECT_TRUE(std::any_of(r.arcs.begin(), r.arcs.end(), [](const auto& a) {
    return a.from == 0 && a.to == 1;
  }));
}

TEST(SteinerExact, MatchesKnownOptimum) {
  BroadcastStar s;
  const SteinerResult r = oracle::exact_steiner(s.g, s.root, s.terminals);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 10.0);
  // The exact solver reconstructs a concrete, valid arborescence.
  EXPECT_FALSE(r.arcs.empty());
  EXPECT_TRUE(oracle::steiner_tree_valid(s.g, r, s.root, s.terminals));
}

TEST(SteinerExact, ReconstructedArcsSumToCost) {
  BroadcastStar s;
  const SteinerResult r = oracle::exact_steiner(s.g, s.root, s.terminals);
  double sum = 0;
  for (const auto& arc : r.arcs) sum += arc.weight;
  EXPECT_NEAR(sum, r.cost, 1e-12);
}

TEST(SteinerExact, ReconstructionValidOnRandomGraphs) {
  for (unsigned seed = 30; seed <= 36; ++seed) {
    Digraph g(14);
    unsigned state = seed * 2654435761u;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return state;
    };
    for (VertexId u = 0; u < 14; ++u)
      for (VertexId v = 0; v < 14; ++v)
        if (u != v && next() % 100 < 25)
          g.add_arc(u, v, 1.0 + static_cast<double>(next() % 50) / 5.0);
    const std::vector<VertexId> terminals{4, 9, 13};
    const SteinerResult r = oracle::exact_steiner(g, 0, terminals);
    if (!r.feasible) continue;
    EXPECT_TRUE(oracle::steiner_tree_valid(g, r, 0, terminals))
        << "seed " << seed;
    double sum = 0;
    for (const auto& arc : r.arcs) sum += arc.weight;
    EXPECT_NEAR(sum, r.cost, 1e-9) << "seed " << seed;
  }
}

TEST(SteinerGreedyLevel2, NeverWorseThanLevel1OnStar) {
  BroadcastStar s;
  SteinerSolver solver(s.g);
  const double c1 = solver.recursive_greedy(s.root, s.terminals, 1).cost;
  const double c2 = solver.recursive_greedy(s.root, s.terminals, 2).cost;
  EXPECT_LE(c2, c1 + 1e-9);
}

TEST(Steiner, SingleTerminalIsShortestPath) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(0, 2, 5.0);
  SteinerSolver solver(g);
  for (int level : {1, 2}) {
    const SteinerResult r = solver.recursive_greedy(0, {2}, level);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, 2.0) << "level " << level;
  }
  EXPECT_DOUBLE_EQ(solver.shortest_path_heuristic(0, {2}).cost, 2.0);
  EXPECT_DOUBLE_EQ(oracle::exact_steiner(g, 0, {2}).cost, 2.0);
}

TEST(Steiner, RootAsTerminalIsFree) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  SteinerSolver solver(g);
  const SteinerResult r = solver.recursive_greedy(0, {0}, 2);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(Steiner, UnreachableTerminalReportsInfeasible) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);  // vertex 2 unreachable
  SteinerSolver solver(g);
  EXPECT_FALSE(solver.shortest_path_heuristic(0, {1, 2}).feasible);
  EXPECT_FALSE(solver.recursive_greedy(0, {1, 2}, 2).feasible);
  EXPECT_FALSE(oracle::exact_steiner(g, 0, {1, 2}).feasible);
}

TEST(Steiner, SharedTrunkCountedOnce) {
  // root → trunk (cost 10) → two branches (cost 1 each).
  Digraph g(4);
  g.add_arc(0, 1, 10.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(1, 3, 1.0);
  SteinerSolver solver(g);
  for (int level : {1, 2}) {
    const SteinerResult r = solver.recursive_greedy(0, {2, 3}, level);
    EXPECT_DOUBLE_EQ(r.cost, 12.0) << "level " << level;
  }
  EXPECT_DOUBLE_EQ(solver.shortest_path_heuristic(0, {2, 3}).cost, 12.0);
  EXPECT_DOUBLE_EQ(oracle::exact_steiner(g, 0, {2, 3}).cost, 12.0);
}

TEST(Steiner, ExactBeatsOrMatchesHeuristicsRandomGraphs) {
  // Property check over several seeded random DAG-ish graphs.
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const VertexId n = 12;
    Digraph g(n);
    // Deterministic pseudo-random arcs.
    unsigned state = seed * 2654435761u;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 17;
      state ^= state << 5;
      return state;
    };
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (u != v && next() % 100 < 30)
          g.add_arc(u, v, 1.0 + static_cast<double>(next() % 100) / 10.0);

    std::vector<VertexId> terminals{3, 7, 11};
    SteinerSolver solver(g);
    const SteinerResult exact = oracle::exact_steiner(g, 0, terminals);
    const SteinerResult spt = solver.shortest_path_heuristic(0, terminals);
    const SteinerResult g1 = solver.recursive_greedy(0, terminals, 1);
    const SteinerResult g2 = solver.recursive_greedy(0, terminals, 2);
    ASSERT_EQ(exact.feasible, spt.feasible) << "seed " << seed;
    if (!exact.feasible) continue;
    EXPECT_LE(exact.cost, spt.cost + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.cost, g1.cost + 1e-9) << "seed " << seed;
    EXPECT_LE(exact.cost, g2.cost + 1e-9) << "seed " << seed;
    EXPECT_TRUE(oracle::steiner_tree_valid(g, spt, 0, terminals));
    EXPECT_TRUE(oracle::steiner_tree_valid(g, g1, 0, terminals));
    EXPECT_TRUE(oracle::steiner_tree_valid(g, g2, 0, terminals));
  }
}

TEST(Steiner, ValidateRejectsFabricatedTree) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);
  SteinerResult fake;
  fake.arcs.push_back({0, 2, 1.0});  // arc not in graph
  fake.cost = 1.0;
  fake.feasible = true;
  EXPECT_FALSE(oracle::steiner_tree_valid(g, fake, 0, {2}));
}

TEST(Steiner, ExactRejectsTooManyTerminals) {
  Digraph g(20);
  std::vector<VertexId> terminals;
  for (VertexId v = 1; v < 19; ++v) terminals.push_back(v);
  EXPECT_THROW(oracle::exact_steiner(g, 0, terminals), std::invalid_argument);
}

}  // namespace
}  // namespace tveg::graph
