// Reference shortest paths and Steiner trees for tests.
//
// The shipped solvers run on reusable, epoch-marked workspaces with early
// stops and a pooled density scan; these oracles are the plain textbook
// versions they are compared against: an owned-array Dijkstra and an exact
// Dreyfus–Wagner subset DP, both serial and allocation-heavy by design.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "graph/steiner.hpp"

namespace tveg::oracle {

/// Single-source shortest paths with owned arrays.
struct ShortestPaths {
  std::vector<double> dist;             ///< +inf when unreachable
  std::vector<graph::VertexId> parent;  ///< kNoVertex for source/unreachable
  std::size_t settled = 0;              ///< queue pops that expanded a vertex
  std::size_t relaxations = 0;          ///< successful distance improvements
};

/// Dijkstra from src with the same heap discipline as
/// graph::dijkstra_scratch, so pops, parents and counts match it exactly.
ShortestPaths dijkstra(const graph::Digraph& g, graph::VertexId src);

/// Optimal Steiner arborescence by subset DP (Dreyfus–Wagner adapted to
/// digraphs), with its arcs. |terminals| <= 16 and at most 1500 vertices
/// (3^k·V time, V² distance storage); throws std::invalid_argument beyond.
graph::SteinerResult exact_steiner(
    const graph::Digraph& g, graph::VertexId root,
    const std::vector<graph::VertexId>& terminals);

/// True iff every arc of `r` exists in `g` with at most its claimed weight
/// and the arcs reach every terminal from `root`.
bool steiner_tree_valid(const graph::Digraph& g, const graph::SteinerResult& r,
                        graph::VertexId root,
                        const std::vector<graph::VertexId>& terminals);

}  // namespace tveg::oracle
