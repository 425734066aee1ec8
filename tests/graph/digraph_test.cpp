#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "oracle/graph_oracle.hpp"

namespace tveg::graph {
namespace {

/// Vertex sequence src..dst in ws's last tree; empty if dst was not reached.
std::vector<VertexId> path_to(const DijkstraWorkspace& ws, VertexId dst) {
  if (std::isinf(ws.dist(dst))) return {};
  std::vector<VertexId> path{dst};
  while (ws.parent(path.back()) != kNoVertex)
    path.push_back(ws.parent(path.back()));
  std::reverse(path.begin(), path.end());
  return path;
}

TEST(Digraph, ConstructionAndGrowth) {
  Digraph g(3);
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.add_vertex(), 3);
  EXPECT_EQ(g.vertex_count(), 4);
  EXPECT_EQ(g.arc_count(), 0u);
}

TEST(Digraph, ArcsAreDirected) {
  Digraph g(2);
  g.add_arc(0, 1, 5.0);
  EXPECT_EQ(g.out(0).size(), 1u);
  EXPECT_TRUE(g.out(1).empty());
  EXPECT_EQ(g.arc_count(), 1u);
}

TEST(Digraph, RejectsNegativeWeightAndBadVertices) {
  Digraph g(2);
  EXPECT_THROW(g.add_arc(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(g.add_arc(0, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(g.out(9), std::invalid_argument);
}

TEST(Dijkstra, ShortestDistances) {
  Digraph g(5);
  g.add_arc(0, 1, 1.0);
  g.add_arc(0, 2, 4.0);
  g.add_arc(1, 2, 2.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(1, 3, 6.0);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  EXPECT_DOUBLE_EQ(ws.dist(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 1.0);
  EXPECT_DOUBLE_EQ(ws.dist(2), 3.0);
  EXPECT_DOUBLE_EQ(ws.dist(3), 4.0);
  EXPECT_TRUE(std::isinf(ws.dist(4)));
}

TEST(Dijkstra, ZeroWeightArcs) {
  Digraph g(3);
  g.add_arc(0, 1, 0.0);
  g.add_arc(1, 2, 0.0);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  EXPECT_DOUBLE_EQ(ws.dist(2), 0.0);
}

TEST(Dijkstra, ExtractPath) {
  Digraph g(4);
  g.add_arc(0, 1, 1.0);
  g.add_arc(1, 2, 1.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(0, 3, 10.0);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  EXPECT_EQ(path_to(ws, 3), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(path_to(ws, 0), (std::vector<VertexId>{0}));
}

TEST(Dijkstra, UnreachablePathEmpty) {
  Digraph g(2);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  EXPECT_TRUE(path_to(ws, 1).empty());
}

TEST(Dijkstra, ParallelArcsTakeCheapest) {
  Digraph g(2);
  g.add_arc(0, 1, 5.0);
  g.add_arc(0, 1, 2.0);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  EXPECT_DOUBLE_EQ(ws.dist(1), 2.0);
}

TEST(Digraph, FreezeCompactsAndIsIdempotent) {
  Digraph g(3);
  g.add_arc(0, 2, 1.0);
  g.add_arc(0, 1, 2.0);
  g.add_arc(2, 0, 3.0);
  EXPECT_FALSE(g.frozen());
  g.freeze();
  EXPECT_TRUE(g.frozen());
  g.freeze();  // idempotent
  EXPECT_EQ(g.arc_count(), 3u);
  // Per-vertex insertion order survives the counting-sort scatter.
  ASSERT_EQ(g.out(0).size(), 2u);
  EXPECT_EQ(g.out(0)[0].to, 2);
  EXPECT_EQ(g.out(0)[1].to, 1);
  ASSERT_EQ(g.out(2).size(), 1u);
  EXPECT_EQ(g.out(2)[0].to, 0);
}

TEST(Digraph, MutationAfterFreezeThrows) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  g.freeze();
  EXPECT_THROW(g.add_arc(1, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_vertex(), std::invalid_argument);
  // out-of-range checks still precede the frozen-state accessors
  EXPECT_THROW(g.out(9), std::invalid_argument);
}

TEST(Digraph, TraversalFreezesLazily) {
  Digraph g(2);
  g.add_arc(0, 1, 1.0);
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.out(0).size(), 1u);  // first access freezes
  EXPECT_TRUE(g.frozen());
}

TEST(Digraph, ResetReturnsToBuildingState) {
  Digraph g(3);
  g.add_arc(0, 1, 1.0);
  g.freeze();
  g.reset(2);
  EXPECT_FALSE(g.frozen());
  EXPECT_EQ(g.vertex_count(), 2);
  EXPECT_EQ(g.arc_count(), 0u);
  g.add_arc(1, 0, 4.0);
  g.freeze();
  ASSERT_EQ(g.out(1).size(), 1u);
  EXPECT_DOUBLE_EQ(g.out(1)[0].weight, 4.0);
  EXPECT_TRUE(g.out(0).empty());
}

TEST(DijkstraWorkspace, ReuseIsByteIdentical) {
  Digraph g(5);
  g.add_arc(0, 1, 1.0);
  g.add_arc(0, 2, 4.0);
  g.add_arc(1, 2, 2.0);
  g.add_arc(2, 3, 1.0);
  g.add_arc(1, 3, 6.0);
  const oracle::ShortestPaths fresh = oracle::dijkstra(g, 0);
  DijkstraWorkspace ws;
  for (int round = 0; round < 3; ++round) {
    dijkstra_scratch(g, 0, ws);
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      EXPECT_EQ(ws.dist(v), fresh.dist[i]) << "round " << round;
      EXPECT_EQ(ws.parent(v), fresh.parent[i]) << "round " << round;
    }
    EXPECT_EQ(ws.settled(), fresh.settled) << "round " << round;
    EXPECT_EQ(ws.relaxations(), fresh.relaxations) << "round " << round;
  }
}

TEST(DijkstraWorkspace, ScratchResultsMatchOwnedResults) {
  Digraph g(4);
  g.add_arc(0, 1, 1.5);
  g.add_arc(1, 2, 0.5);
  const oracle::ShortestPaths sp = oracle::dijkstra(g, 0);
  DijkstraWorkspace ws;
  dijkstra_scratch(g, 0, ws);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_DOUBLE_EQ(ws.dist(v), sp.dist[static_cast<std::size_t>(v)]);
    EXPECT_EQ(ws.parent(v), sp.parent[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(ws.settled(), sp.settled);
  EXPECT_EQ(ws.relaxations(), sp.relaxations);
}

TEST(DijkstraWorkspace, EpochRolloverNeverAliasesStaleState) {
  // Run once from source 0, then force the epoch counter to the wraparound
  // boundary and run from source 3 on a different graph shape: state marked
  // in earlier epochs must read as unreached, not leak through the wrap.
  Digraph a(4);
  a.add_arc(0, 1, 1.0);
  a.add_arc(1, 2, 1.0);
  DijkstraWorkspace ws;
  dijkstra_scratch(a, 0, ws);
  EXPECT_DOUBLE_EQ(ws.dist(2), 2.0);

  ws.force_epoch_for_test(0xffffffffu);  // next begin() wraps to epoch 1
  Digraph b(4);
  b.add_arc(3, 2, 5.0);
  dijkstra_scratch(b, 3, ws);
  EXPECT_EQ(ws.epoch_for_test(), 1u);
  EXPECT_DOUBLE_EQ(ws.dist(3), 0.0);
  EXPECT_DOUBLE_EQ(ws.dist(2), 5.0);
  // Vertices only reached in the pre-wrap run: stale, not aliased. (Their
  // marks were written at earlier epochs, which a wrapped counter could
  // collide with if begin() did not clear on wrap.)
  EXPECT_TRUE(std::isinf(ws.dist(0)));
  EXPECT_TRUE(std::isinf(ws.dist(1)));
  EXPECT_EQ(ws.parent(0), kNoVertex);
  EXPECT_EQ(ws.parent(1), kNoVertex);
}

}  // namespace
}  // namespace tveg::graph
