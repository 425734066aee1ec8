// Distance-to-terminal matrix in one pass over the strongly connected
// components (SCCs) of a digraph.
//
// The level-2 recursive greedy reads dist(u → terminal k) for every vertex
// u and terminal k. Instead of one Dijkstra per terminal over a transposed
// graph, the digraph is condensed into SCCs (iterative Tarjan, which emits
// them sinks first) and the K-wide rows of the terminal-major matrix are
// relaxed SCC by SCC in that order:
//
//     row_u[k] = min(row_u[k], row_v[k] + w)   for every arc u → v of weight w
//
// Every successor outside an SCC is final before the SCC is visited, so only
// the arcs inside it need repeated passes, until one pass changes nothing.
// The auxiliary graph's arcs never go back in time, so its SCCs are small
// (they lie inside one time instant) and most are single vertices.
//
// The result is bit-identical to K reverse Dijkstras: both return the least
// path sum, each sum is added in the same order (backwards from the
// terminal), and floating-point addition of a non-negative weight is
// monotone, so the minima agree exactly.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "support/budget.hpp"

namespace tveg::graph {

/// The SCCs of a digraph, sinks first: every arc leaving component c enters
/// a component listed before c. Component c's vertices are
/// vertices[offsets[c] .. offsets[c+1]); offsets always starts with 0.
struct SccOrder {
  std::vector<VertexId> vertices;
  std::vector<std::size_t> offsets;

  std::size_t component_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

/// Tarjan's SCC algorithm with an explicit DFS stack (no recursion depth
/// limit). Roots are tried in id order and arcs in out(v) order, so the
/// result depends on the graph alone.
SccOrder scc_order(const Digraph& g);

/// Work done by one distances_to_terminals call.
struct TerminalSweepWork {
  std::size_t visits = 0;        ///< vertex visits, over all passes
  std::size_t improvements = 0;  ///< matrix entries lowered
};

/// Fills `dist` (resized to V·K, K = terminals.size()) with
/// dist[u*K + k] = least path weight u → terminals[k], +inf when
/// unreachable. `order` must be scc_order(g). Polls `budget` once per vertex
/// visit (strided clock reads), throwing support::TimeoutError or
/// support::CancelledError.
TerminalSweepWork distances_to_terminals(const Digraph& g,
                                         const SccOrder& order,
                                         std::span<const VertexId> terminals,
                                         const support::Budget& budget,
                                         std::vector<double>& dist);

}  // namespace tveg::graph
