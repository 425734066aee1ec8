#include "graph/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::graph {

using support::kInf;

namespace {

std::uint64_t arc_key(VertexId from, VertexId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

/// Accumulates a subgraph as a deduplicated arc set.
//
// Deliberately still an unordered_map: finalize() replays its iteration
// order into the scratch Digraph, and that order feeds the cleanup
// Dijkstra's tie-breaking — swapping the container would silently change
// golden schedules. Local per query.
struct TreeBuilder {
  std::unordered_map<std::uint64_t, double> arcs;

  void add_arc(VertexId from, VertexId to, double w) {
    arcs.emplace(arc_key(from, to), w);
  }

  /// Adds every arc of the path source → dst in ws's last run's tree; dst
  /// must be settled in that run (then so is every vertex on its path).
  void add_path(const DijkstraWorkspace& ws, VertexId dst) {
    VertexId cur = dst;
    while (ws.parent(cur) != kNoVertex) {
      const VertexId p = ws.parent(cur);
      add_arc(p, cur, ws.dist(cur) - ws.dist(p));
      cur = p;
    }
  }
};

/// The level-2 density scan skips a row whose density lower bound exceeds
/// the incumbent density times this margin (see greedy_cover).
constexpr double kDensityCutMargin = 1 + 1e-12;

/// Converts an arbitrary selected subgraph into a clean arborescence: runs
/// Dijkstra inside the subgraph from the root, keeps only arcs on the
/// resulting paths to terminals. Never increases the cost. `scratch` and
/// `ws` are reused across queries (reset per call, capacity kept).
SteinerResult finalize(const TreeBuilder& builder, VertexId root,
                       const std::vector<VertexId>& terminals,
                       VertexId vertex_count, Digraph& scratch,
                       DijkstraWorkspace& ws) {
  obs::ScopedSpan span("steiner_finalize");
  scratch.reset(vertex_count);
  scratch.reserve_arcs(builder.arcs.size());
  for (const auto& [key, w] : builder.arcs)
    scratch.add_arc(static_cast<VertexId>(key >> 32),
                    static_cast<VertexId>(key & 0xffffffffu), w);
  scratch.freeze();

  dijkstra_scratch(scratch, root, ws);

  SteinerResult result;
  result.feasible = true;
  std::unordered_set<std::uint64_t> kept;
  for (VertexId t : terminals) {
    if (ws.dist(t) == kInf) {
      result.feasible = false;
      continue;
    }
    VertexId cur = t;
    while (ws.parent(cur) != kNoVertex) {
      const VertexId p = ws.parent(cur);
      const std::uint64_t key = arc_key(p, cur);
      if (kept.insert(key).second) {
        const double w = ws.dist(cur) - ws.dist(p);
        result.arcs.push_back({p, cur, w});
        result.cost += w;
      }
      cur = p;
    }
  }
  return result;
}

}  // namespace

SteinerSolver::SteinerSolver(const Digraph& g) : g_(g) {}

/// Clears per-query stats on entry to a public solver method and flushes
/// them into the registry when the query finishes.
struct SteinerSolver::QueryScope {
  explicit QueryScope(SteinerSolver& solver) : solver_(solver) {
    solver_.stats_ = QueryStats{};
  }
  ~QueryScope() {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& queries = registry.counter(obs::keys::kSteinerQueries);
    static obs::Counter& runs = registry.counter(obs::keys::kSteinerDijkstraRuns);
    static obs::Counter& expanded =
        registry.counter(obs::keys::kSteinerNodesExpanded);
    static obs::Counter& relaxations =
        registry.counter(obs::keys::kSteinerRelaxations);
    queries.add(1);
    runs.add(solver_.stats_.dijkstra_runs);
    expanded.add(solver_.stats_.nodes_expanded);
    relaxations.add(solver_.stats_.relaxations);
  }
  SteinerSolver& solver_;
};

const DijkstraWorkspace& SteinerSolver::forward_run(
    VertexId source, DijkstraWorkspace& ws,
    std::span<const std::int32_t> targets, std::size_t want) {
  budget_.check("steiner");
  {
    obs::ScopedSpan span("steiner_forward_dijkstra");
    dijkstra_scratch_nearest(g_, source, ws, targets, want, &bunch_);
  }
  ++stats_.dijkstra_runs;
  stats_.nodes_expanded += ws.settled();
  stats_.relaxations += ws.relaxations();
  return ws;
}

SteinerResult SteinerSolver::shortest_path_heuristic(
    VertexId root, const std::vector<VertexId>& terminals) {
  const QueryScope scope(*this);
  // The tree is read before finalize() reuses the workspace.
  const DijkstraWorkspace& sp = forward_run(root, ws_);
  TreeBuilder builder;
  bool reaches_all = true;
  for (VertexId t : terminals) {
    if (sp.dist(t) == kInf)
      reaches_all = false;
    else if (t != root)
      builder.add_path(sp, t);
  }
  SteinerResult result = finalize(builder, root, terminals, g_.vertex_count(),
                                  scratch_sub_, ws_);
  result.feasible = result.feasible && reaches_all;
  return result;
}

struct SteinerSolver::GreedyState {
  std::vector<VertexId> terminals;  ///< deduplicated, root removed
  std::vector<char> covered;        ///< parallel to terminals
  TreeBuilder tree;
};

void SteinerSolver::greedy_cover(GreedyState& state, VertexId v, int level,
                                 std::size_t want) {
  if (want == 0) return;

  if (level <= 1) {
    // Level 1: the bunch — the `want` cheapest shortest paths v → uncovered
    // terminal, ties by terminal index. The run stops once the want-th
    // nearest uncovered terminal and every terminal tied with it are
    // settled: the settled prefix is the full run's, so the (d, k) order of
    // the candidates and the arcs of their paths are the full run's too.
    const DijkstraWorkspace& ws = forward_run(v, ws_, term_slot_, want);
    std::sort(bunch_.begin(), bunch_.end());
    if (bunch_.size() > want) bunch_.resize(want);
    for (const auto& [d, k] : bunch_) {
      const VertexId t = state.terminals[static_cast<std::size_t>(k)];
      state.tree.add_path(ws, t);
      state.covered[static_cast<std::size_t>(k)] = 1;
      term_slot_[static_cast<std::size_t>(t)] = -1;
    }
    return;
  }

  // Level >= 2: repeatedly pick the intermediate root u and count k' whose
  // level-1 bunch has the best density estimate
  //   (dist(v→u) + Σ k'-cheapest dist(u→terminal)) / k'.
  // The level-2 root's full tree stays in root_ws_ while the bunches below
  // it run on ws_.
  const DijkstraWorkspace& sp = forward_run(v, root_ws_);
  std::size_t remaining = want;
  const std::size_t kTerms = term_count_;
  while (remaining > 0) {
    budget_.check("steiner");

    // One scan pass over a contiguous vertex range, keeping the first
    // (u, k') attaining the minimum density (strict <, u then k' ascending).
    struct Best {
      double density = kInf;
      VertexId u = kNoVertex;
      std::size_t k = 0;
    };
    const auto scan_range = [&](VertexId lo, VertexId hi) {
      Best best;
      std::vector<double> dists;
      // Strided budget poller: one relaxed cancel load per vertex, one clock
      // read per stride. Constructed per invocation, so each pool chunk
      // counts its own stride — pollers are not shared across threads.
      support::Budget::Poller poller(budget_, "steiner_density_scan");
      for (VertexId u = lo; u < hi; ++u) {
        poller.poll();
        const double to_u = sp.dist(u);
        if (to_u == kInf) continue;
        dists.clear();
        double row_min = kInf;
        // dist_to_term_ is terminal-major: the k loop walks one contiguous
        // row of the matrix.
        const double* row = dist_to_term_.data() +
                            static_cast<std::size_t>(u) * kTerms;
        for (std::size_t k = 0; k < kTerms; ++k) {
          if (state.covered[k]) continue;
          const double d = row[k];
          if (d < kInf) {
            dists.push_back(d);
            row_min = std::min(row_min, d);
          }
        }
        if (dists.empty()) continue;
        const std::size_t take = std::min(remaining, dists.size());
        // Each density (to_u + Σ k' entries) / k' with k' <= take is at
        // least row_min + to_u / take. A row whose bound exceeds the
        // incumbent by the margin can neither beat nor tie it under the
        // strict < below: the margin dwarfs the rounding of a sum of at
        // most kTerms doubles (relative error < kTerms · 2^-53). Skipping
        // it leaves the winner unchanged.
        if (row_min + to_u / static_cast<double>(take) >
            best.density * kDensityCutMargin)
          continue;
        std::partial_sort(dists.begin(),
                          dists.begin() + static_cast<std::ptrdiff_t>(take),
                          dists.end());
        double sum = to_u;
        for (std::size_t kp = 1; kp <= take; ++kp) {
          sum += dists[kp - 1];
          const double density = sum / static_cast<double>(kp);
          if (density < best.density) {
            best.density = density;
            best.u = u;
            best.k = kp;
          }
        }
      }
      return best;
    };

    Best best;
    const auto n = static_cast<std::size_t>(g_.vertex_count());
    if (pool_ != nullptr && n > 1) {
      // Chunked scan: each chunk finds its local first-minimum; merging the
      // chunk results in ascending-range order with strict < reproduces the
      // serial winner exactly (including float-tie behavior).
      const std::size_t chunks = std::min(n, pool_->thread_count() + 1);
      const std::size_t per = (n + chunks - 1) / chunks;
      std::vector<Best> local(chunks);
      pool_->parallel_for(0, chunks, [&](std::size_t c) {
        obs::ScopedSpan chunk_span("steiner_density_scan");
        const auto lo = static_cast<VertexId>(c * per);
        const auto hi = static_cast<VertexId>(std::min(n, (c + 1) * per));
        local[c] = scan_range(lo, hi);
      }, budget_.cancel);
      for (const Best& b : local)
        if (b.density < best.density) best = b;
    } else {
      obs::ScopedSpan scan_span("steiner_density_scan");
      best = scan_range(0, g_.vertex_count());
    }
    const VertexId best_u = best.u;
    const std::size_t best_k = best.k;

    if (best_u == kNoVertex) return;  // nothing more reachable
    state.tree.add_path(sp, best_u);
    const std::size_t covered_before =
        static_cast<std::size_t>(std::count(state.covered.begin(),
                                            state.covered.end(), char{1}));
    greedy_cover(state, best_u, level - 1, best_k);
    const std::size_t covered_after =
        static_cast<std::size_t>(std::count(state.covered.begin(),
                                            state.covered.end(), char{1}));
    if (covered_after == covered_before) return;  // no progress — stop
    remaining -= std::min(remaining, covered_after - covered_before);
  }
}

SteinerResult SteinerSolver::recursive_greedy(
    VertexId root, const std::vector<VertexId>& terminals, int level) {
  TVEG_REQUIRE(level >= 1, "recursion level must be >= 1");
  const QueryScope scope(*this);
  level = std::min(level, 2);

  GreedyState state;
  std::unordered_set<VertexId> seen;
  for (VertexId t : terminals)
    if (t != root && seen.insert(t).second) state.terminals.push_back(t);
  state.covered.assign(state.terminals.size(), 0);

  // term_slot_ marks the uncovered terminals for the bunch runs; cleared on
  // every exit (a budget expiry throws mid-query).
  term_slot_.resize(static_cast<std::size_t>(g_.vertex_count()), -1);
  struct SlotMarks {
    std::vector<std::int32_t>& slot;
    const std::vector<VertexId>& terminals;
    ~SlotMarks() {
      for (VertexId t : terminals) slot[static_cast<std::size_t>(t)] = -1;
    }
  } const marks{term_slot_, state.terminals};
  for (std::size_t k = 0; k < state.terminals.size(); ++k)
    term_slot_[static_cast<std::size_t>(state.terminals[k])] =
        static_cast<std::int32_t>(k);

  // dist(u → terminal) for every u, which only the level-2 density scan
  // reads: one sweep over the graph's SCCs, whose order is computed on the
  // first such query and kept for the solver's lifetime.
  term_count_ = state.terminals.size();
  if (level >= 2) {
    obs::ScopedSpan sweep_span("steiner_terminal_sweep");
    if (scc_.offsets.empty()) scc_ = scc_order(g_);
    const TerminalSweepWork work = distances_to_terminals(
        g_, scc_, state.terminals, budget_, dist_to_term_);
    stats_.nodes_expanded += work.visits;
    stats_.relaxations += work.improvements;
  }

  greedy_cover(state, root, level, state.terminals.size());
  dist_to_term_.clear();
  term_count_ = 0;

  return finalize(state.tree, root, terminals, g_.vertex_count(), scratch_sub_,
                  ws_);
}

}  // namespace tveg::graph
