// Directed Steiner tree solvers.
//
// TMEDB-S reduces (via the auxiliary graph of Sec. VI-A) to the directed
// Steiner tree problem: given a root r and terminal set X, find a minimum-
// weight out-arborescence subgraph containing a path r→x for every x ∈ X.
// Two solvers with different cost/quality points:
//
//  * recursive_greedy — Charikar et al.'s level-i algorithm, the one Liang's
//    MEMT approximation [3] builds on; level i gives ratio O(|X|^{1/i})
//    (levels 1 and 2 implemented; the paper's O(N^ε) bound corresponds to
//    running at level ⌈1/ε⌉).
//  * shortest_path_heuristic — union of shortest paths root→terminal with a
//    leaf-pruning cleanup; fast, no worst-case guarantee, strong in practice.
//
// Memory layout (DESIGN.md "Data layout & hot-path memory"): all per-query
// state is dense and index-addressed — terminal distances live in one flat
// terminal-major matrix filled by one SCC-ordered sweep (graph/
// terminal_sweep.hpp), and every Dijkstra runs on one of the solver's two
// workspaces (the second holds a level-2 root's full tree while the
// early-stopped bunch runs beneath it use the first) — so the Dijkstra and
// sweep buffers of repeated queries are reused, not reallocated.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/terminal_sweep.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"

namespace tveg::graph {

/// A (partial) Steiner arborescence.
struct SteinerResult {
  /// Tree arcs as (from, to, weight) triples; forms an out-arborescence
  /// rooted at the query root when feasible.
  struct TreeArc {
    VertexId from;
    VertexId to;
    double weight;
  };
  std::vector<TreeArc> arcs;
  double cost = 0;
  /// True iff every terminal is reachable in the tree.
  bool feasible = false;
};

/// Directed Steiner solver bound to one digraph. Each query computes its
/// own shortest-path trees; only the graph's SCC order is kept across
/// queries. Not thread-safe: one query at a time. Construction freezes the
/// graph (CSR form) — do not mutate it afterwards.
class SteinerSolver {
 public:
  explicit SteinerSolver(const Digraph& g);

  /// Cooperative solve budget: the heuristic solvers poll it between
  /// shortest-path runs and (via strided pollers) inside the terminal sweep
  /// and the density scans, throwing support::TimeoutError on expiry and
  /// support::CancelledError when the budget's cancel token fires. Default:
  /// unlimited.
  void set_budget(support::Budget budget) { budget_ = std::move(budget); }

  /// Optional worker pool for the level-2 density scan of recursive_greedy
  /// (the terminal sweep and the Dijkstras are serial). Results are
  /// bit-identical to the serial path — chunk-local minima are reduced in
  /// serial chunk order, so the winner is the lexicographically first
  /// (u, k') attaining the minimum density, same as the serial strict-<
  /// scan. nullptr = serial.
  void set_pool(support::ThreadPool* pool) { pool_ = pool; }

  /// Union of shortest paths to each terminal, then non-terminal leaves are
  /// pruned. O(|X|·SP) after one Dijkstra from the root.
  SteinerResult shortest_path_heuristic(VertexId root,
                                        const std::vector<VertexId>& terminals);

  /// Charikar recursive greedy at the given level (1 or 2; higher levels
  /// clamp to 2). Level 1 equals the shortest-path bunch; level 2 selects
  /// intermediate roots by best density over the dist(u → terminal) matrix.
  SteinerResult recursive_greedy(VertexId root,
                                 const std::vector<VertexId>& terminals,
                                 int level);

  /// Work counters of the most recent solver query (the SCC order, kept
  /// across queries, counts no work twice). Also accumulated into the
  /// global metrics registry under tveg.steiner.*.
  struct QueryStats {
    /// Forward Dijkstras: the query root's full run, plus one early-stopped
    /// run per level-1 bunch (finalize's cleanup run and the sweep add 0).
    std::size_t dijkstra_runs = 0;
    /// Dijkstra settles (a bunch counts only those before its stop) plus
    /// terminal-sweep vertex visits (all passes).
    std::size_t nodes_expanded = 0;
    /// Dijkstra distance improvements plus lowered sweep matrix entries.
    std::size_t relaxations = 0;
  };
  const QueryStats& last_query_stats() const { return stats_; }

 private:
  /// One budget-checked, spanned and counted forward Dijkstra from `source`
  /// in `ws`: the full tree, or with `targets` a bunch run stopped at the
  /// `want`-th nearest target (its settled targets land in bunch_).
  const DijkstraWorkspace& forward_run(
      VertexId source, DijkstraWorkspace& ws,
      std::span<const std::int32_t> targets = {}, std::size_t want = 0);
  /// Resets per-query stats; flushes them to the registry on destruction.
  struct QueryScope;

  QueryStats stats_;
  support::Budget budget_;
  support::ThreadPool* pool_ = nullptr;

  /// dist(u → terminals_[k]) of the current level-2 recursive_greedy query,
  /// stored terminal-major at [u*term_count_ + k] so the density scan's
  /// inner loop over k is one contiguous read per vertex.
  std::vector<double> dist_to_term_;
  std::size_t term_count_ = 0;
  /// The graph's SCCs, sinks first; empty until the first level-2 query.
  SccOrder scc_;

  struct GreedyState;
  void greedy_cover(GreedyState& state, VertexId v, int level,
                    std::size_t want);

  const Digraph& g_;
  /// term_slot_[v] = k while v is the current recursive_greedy query's
  /// uncovered terminal k, else -1: the targets of the bunch runs. Sized on
  /// the first recursive_greedy query.
  std::vector<std::int32_t> term_slot_;
  /// The settled targets of the last forward_run, as (dist, k).
  std::vector<std::pair<double, std::int32_t>> bunch_;
  /// Reusable scratch for finalize()'s subgraph cleanup pass.
  Digraph scratch_sub_;
  /// ws_ holds the SPT root's tree, the bunch runs and finalize's cleanup
  /// run; root_ws_ the level-2 root's tree, which outlives the bunch runs
  /// beneath it. A workspace allocates on its first run, so an SPT-only
  /// solver never grows root_ws_.
  DijkstraWorkspace ws_;
  DijkstraWorkspace root_ws_;
};

}  // namespace tveg::graph
