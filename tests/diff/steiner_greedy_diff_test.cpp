// Differential suite for the Steiner heuristics (graph/steiner.hpp): the
// SteinerResult of recursive_greedy at levels 1 and 2 and of
// shortest_path_heuristic must be BYTE-identical (memcmp of arcs and cost)
// to the oracle they replaced — full forward shortest-path trees cached per
// source across queries, and a density scan that sorts every row — serially
// and on a 4-thread pool. Inputs are auxiliary graphs from generated traces
// and random digraphs full of zero-weight arcs and equal-weight ties. A
// third test holds the early-stopped bunch run itself to the full run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aux_graph.hpp"
#include "core/tveg.hpp"
#include "graph/digraph.hpp"
#include "graph/steiner.hpp"
#include "graph/terminal_sweep.hpp"
#include "oracle/graph_oracle.hpp"
#include "oracle/random.hpp"
#include "sim/experiment.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/generators.hpp"

namespace tveg::graph {
namespace {

using oracle::dijkstra;
using oracle::ShortestPaths;

using support::kInf;
using Candidates = std::vector<std::pair<double, std::int32_t>>;

static_assert(sizeof(SteinerResult::TreeArc) ==
                  2 * sizeof(VertexId) + sizeof(double),
              "TreeArc must have no padding for memcmp");

/// The oracle: the solver as it was before bunch runs stopped early and the
/// density scan was cut. Serial only.
class CachedGreedyOracle {
 public:
  explicit CachedGreedyOracle(const Digraph& g) : g_(g) {}

  SteinerResult shortest_path_heuristic(VertexId root,
                                        const std::vector<VertexId>& terms) {
    const ShortestPaths& sp = forward_from(root);
    Tree tree;
    for (VertexId t : terms)
      if (t != root && sp.dist[static_cast<std::size_t>(t)] < kInf)
        add_path(tree, sp, t);
    SteinerResult result = finalize(tree, root, terms);
    for (VertexId t : terms)
      if (sp.dist[static_cast<std::size_t>(t)] == kInf) result.feasible = false;
    return result;
  }

  SteinerResult recursive_greedy(VertexId root,
                                 const std::vector<VertexId>& terms,
                                 int level) {
    level = std::min(level, 2);
    State state;
    std::unordered_set<VertexId> seen;
    for (VertexId t : terms)
      if (t != root && seen.insert(t).second) state.terminals.push_back(t);
    state.covered.assign(state.terminals.size(), 0);
    if (level >= 2) {
      if (scc_.offsets.empty()) scc_ = scc_order(g_);
      distances_to_terminals(g_, scc_, state.terminals, {}, matrix_);
    }
    cover(state, root, level, state.terminals.size());
    return finalize(state.tree, root, terms);
  }

 private:
  using Tree = std::unordered_map<std::uint64_t, double>;
  struct State {
    std::vector<VertexId> terminals;
    std::vector<char> covered;
    Tree tree;
  };

  static std::uint64_t key(VertexId from, VertexId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  static void add_path(Tree& tree, const ShortestPaths& sp, VertexId dst) {
    VertexId cur = dst;
    while (sp.parent[static_cast<std::size_t>(cur)] != kNoVertex) {
      const VertexId p = sp.parent[static_cast<std::size_t>(cur)];
      tree.emplace(key(p, cur), sp.dist[static_cast<std::size_t>(cur)] -
                                    sp.dist[static_cast<std::size_t>(p)]);
      cur = p;
    }
  }

  const ShortestPaths& forward_from(VertexId v) {
    auto it = cache_.find(v);
    if (it == cache_.end()) it = cache_.emplace(v, dijkstra(g_, v)).first;
    return it->second;
  }

  SteinerResult finalize(const Tree& tree, VertexId root,
                         const std::vector<VertexId>& terms) const {
    Digraph sub(g_.vertex_count());
    for (const auto& [k, w] : tree)
      sub.add_arc(static_cast<VertexId>(k >> 32),
                  static_cast<VertexId>(k & 0xffffffffu), w);
    const ShortestPaths sp = dijkstra(sub, root);
    SteinerResult result;
    result.feasible = true;
    std::unordered_set<std::uint64_t> kept;
    for (VertexId t : terms) {
      if (sp.dist[static_cast<std::size_t>(t)] == kInf) {
        result.feasible = false;
        continue;
      }
      VertexId cur = t;
      while (sp.parent[static_cast<std::size_t>(cur)] != kNoVertex) {
        const VertexId p = sp.parent[static_cast<std::size_t>(cur)];
        if (kept.insert(key(p, cur)).second) {
          const double w = sp.dist[static_cast<std::size_t>(cur)] -
                           sp.dist[static_cast<std::size_t>(p)];
          result.arcs.push_back({p, cur, w});
          result.cost += w;
        }
        cur = p;
      }
    }
    return result;
  }

  void cover(State& state, VertexId v, int level, std::size_t want) {
    const ShortestPaths& sp = forward_from(v);
    if (level <= 1) {
      std::vector<std::pair<double, std::size_t>> cand;
      for (std::size_t k = 0; k < state.terminals.size(); ++k) {
        if (state.covered[k]) continue;
        const double d =
            sp.dist[static_cast<std::size_t>(state.terminals[k])];
        if (d < kInf) cand.push_back({d, k});
      }
      std::sort(cand.begin(), cand.end());
      if (cand.size() > want) cand.resize(want);
      for (const auto& [d, k] : cand) {
        add_path(state.tree, sp, state.terminals[k]);
        state.covered[k] = 1;
      }
      return;
    }
    const std::size_t kTerms = state.terminals.size();
    std::size_t remaining = want;
    while (remaining > 0) {
      double best_density = kInf;
      VertexId best_u = kNoVertex;
      std::size_t best_k = 0;
      std::vector<double> dists;
      for (VertexId u = 0; u < g_.vertex_count(); ++u) {
        const double to_u = sp.dist[static_cast<std::size_t>(u)];
        if (to_u == kInf) continue;
        dists.clear();
        const double* row =
            matrix_.data() + static_cast<std::size_t>(u) * kTerms;
        for (std::size_t k = 0; k < kTerms; ++k)
          if (!state.covered[k] && row[k] < kInf) dists.push_back(row[k]);
        if (dists.empty()) continue;
        const std::size_t take = std::min(remaining, dists.size());
        std::partial_sort(dists.begin(),
                          dists.begin() + static_cast<std::ptrdiff_t>(take),
                          dists.end());
        double sum = to_u;
        for (std::size_t kp = 1; kp <= take; ++kp) {
          sum += dists[kp - 1];
          const double density = sum / static_cast<double>(kp);
          if (density < best_density) {
            best_density = density;
            best_u = u;
            best_k = kp;
          }
        }
      }
      if (best_u == kNoVertex) return;
      add_path(state.tree, sp, best_u);
      const auto covered = [&] {
        return std::count(state.covered.begin(), state.covered.end(),
                          char{1});
      };
      const auto before = covered();
      cover(state, best_u, level - 1, best_k);
      const auto after = covered();
      if (after == before) return;
      remaining -= std::min(remaining, static_cast<std::size_t>(after - before));
    }
  }

  const Digraph& g_;
  /// Never evicted, shared by every query (as the solver's cache was).
  std::map<VertexId, ShortestPaths> cache_;
  SccOrder scc_;
  std::vector<double> matrix_;
};

void expect_same(const SteinerResult& got, const SteinerResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.feasible, want.feasible) << what;
  EXPECT_EQ(std::memcmp(&got.cost, &want.cost, sizeof(double)), 0)
      << what << ": cost " << got.cost << " vs oracle " << want.cost;
  ASSERT_EQ(got.arcs.size(), want.arcs.size()) << what;
  EXPECT_EQ(std::memcmp(got.arcs.data(), want.arcs.data(),
                        got.arcs.size() * sizeof(SteinerResult::TreeArc)),
            0)
      << what << ": arcs differ from the oracle";
}

/// Runs every heuristic from each root, in turn, on one oracle, one serial
/// solver and one pooled solver (so state left by one query is exercised by
/// the next), and compares each answer with the oracle's. Returns how many
/// serial level-2 solves ran a bunch (more than the root's Dijkstra).
std::size_t expect_solvers_match_oracle(const Digraph& g,
                                        const std::vector<VertexId>& roots,
                                        const std::vector<VertexId>& terminals,
                                        support::ThreadPool& pool,
                                        const std::string& what) {
  CachedGreedyOracle oracle(g);
  SteinerSolver serial(g);
  SteinerSolver pooled(g);
  pooled.set_pool(&pool);
  std::size_t with_bunches = 0;
  for (const VertexId root : roots) {
    const std::string at = what + " root " + std::to_string(root);
    for (const int level : {2, 1}) {
      const SteinerResult want =
          oracle.recursive_greedy(root, terminals, level);
      const std::string q = at + " level " + std::to_string(level);
      expect_same(serial.recursive_greedy(root, terminals, level), want,
                  q + " serial");
      if (level == 2 && serial.last_query_stats().dijkstra_runs > 1)
        ++with_bunches;
      expect_same(pooled.recursive_greedy(root, terminals, level), want,
                  q + " pooled");
    }
    const SteinerResult want =
        oracle.shortest_path_heuristic(root, terminals);
    expect_same(serial.shortest_path_heuristic(root, terminals), want,
                at + " spt serial");
    expect_same(pooled.shortest_path_heuristic(root, terminals), want,
                at + " spt pooled");
  }
  return with_bunches;
}

/// Aux graphs from Haggle-like traces: several seeds and deadlines, with
/// and without the power-level expansion, τ = 0 and τ > 0. The second root
/// is the next vertex id: the source's next time point, which reaches fewer
/// terminals.
TEST(SteinerGreedyDiff, AuxGraphsMatchCachedOracle) {
  support::ThreadPool pool(4);
  std::size_t level2_solves_with_bunches = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    trace::HaggleLikeConfig cfg;
    cfg.nodes = 8;
    cfg.horizon = 2500;
    cfg.activation_ramp_end = 500;
    cfg.seed = seed;
    const trace::ContactTrace t = trace::generate_haggle_like(cfg);
    for (const Time tau : {0.0, 7.5}) {
      const core::Tveg tveg(t, sim::paper_radio(),
                            {.model = channel::ChannelModel::kStep,
                             .tau = tau});
      const DiscreteTimeSet dts = tveg.build_dts();
      for (const Time deadline : {1000.0, 1800.0}) {
        for (const bool expansion : {true, false}) {
          const core::TmedbInstance instance{&tveg, 0, deadline};
          const core::AuxGraph aux(instance, dts,
                                   {.power_expansion = expansion});
          const Digraph& g = aux.digraph();
          const VertexId root = aux.source_vertex_for(instance.source);
          std::vector<VertexId> terminals;
          for (const VertexId v : aux.terminals_for(instance))
            if (v != root) terminals.push_back(v);
          level2_solves_with_bunches += expect_solvers_match_oracle(
              g, {root, static_cast<VertexId>(root + 1)}, terminals, pool,
              "seed " + std::to_string(seed) + " tau " + std::to_string(tau) +
                  " T " + std::to_string(deadline) +
                  (expansion ? " expanded" : " ablated"));
        }
      }
    }
  }
  EXPECT_GT(level2_solves_with_bunches, 0u);
}

/// Random digraphs whose weights come from {0, 1, 2, 3} (zero-weight
/// cycles, many equal distances, so every tie-break is exercised), plus
/// isolated vertices and duplicate or root terminals.
TEST(SteinerGreedyDiff, RandomTiedDigraphsMatchCachedOracle) {
  support::ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    support::Rng rng(seed);
    const auto pick = [&](VertexId lo, VertexId hi) {
      return static_cast<VertexId>(oracle::uniform_in(rng, lo, hi));
    };
    const VertexId n = pick(20, 140);
    Digraph g(n);
    const VertexId arcs = n * pick(1, 4);
    for (VertexId i = 0; i < arcs; ++i) {
      const VertexId u = pick(0, n - 3);
      const VertexId v = pick(0, n - 3);  // the last 2 stay isolated
      g.add_arc(u, v, static_cast<double>(pick(0, 3)));
    }
    g.freeze();
    std::vector<VertexId> terminals(static_cast<std::size_t>(pick(1, 12)));
    for (VertexId& t : terminals) t = pick(0, n - 1);
    expect_solvers_match_oracle(g, {pick(0, n - 1), pick(0, n - 1)},
                                terminals, pool,
                                "seed " + std::to_string(seed));
  }
}

/// The early-stopped bunch run against the full run it replaces: the
/// `want` first (distance, index) candidates agree, and so do the distance
/// and parent of every vertex on their paths.
TEST(SteinerGreedyDiff, EarlyStoppedBunchMatchesFullRun) {
  DijkstraWorkspace ws;
  Candidates found;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    support::Rng rng(seed);
    const auto pick = [&](VertexId lo, VertexId hi) {
      return static_cast<VertexId>(oracle::uniform_in(rng, lo, hi));
    };
    const VertexId n = pick(5, 80);
    Digraph g(n);
    for (VertexId i = 0; i < n * 3; ++i)
      g.add_arc(pick(0, n - 1), pick(0, n - 1),
                static_cast<double>(pick(0, 2)));
    g.freeze();
    std::vector<std::int32_t> target(static_cast<std::size_t>(n), -1);
    std::int32_t count = 0;
    for (VertexId v = n - 1; v >= 0; --v)  // high ids get low indices
      if (rng.bernoulli(0.3)) target[static_cast<std::size_t>(v)] = count++;
    const VertexId src = pick(0, n - 1);
    const auto want = static_cast<std::size_t>(pick(1, count + 1));
    const ShortestPaths full = dijkstra(g, src);

    Candidates expect;
    for (VertexId v = 0; v < n; ++v)
      if (target[static_cast<std::size_t>(v)] >= 0 &&
          full.dist[static_cast<std::size_t>(v)] < kInf)
        expect.emplace_back(full.dist[static_cast<std::size_t>(v)],
                            target[static_cast<std::size_t>(v)]);
    std::sort(expect.begin(), expect.end());
    if (expect.size() > want) expect.resize(want);

    dijkstra_scratch_nearest(g, src, ws, target, want, &found);
    std::sort(found.begin(), found.end());
    if (found.size() > want) found.resize(want);
    const std::string what = "seed " + std::to_string(seed);
    ASSERT_EQ(found, expect) << what;
    EXPECT_LE(ws.settled(), full.settled) << what;

    for (const auto& [d, k] : found) {
      VertexId cur = kNoVertex;
      for (VertexId v = 0; v < n; ++v)
        if (target[static_cast<std::size_t>(v)] == k) cur = v;
      for (; cur != kNoVertex; cur = ws.parent(cur)) {
        const auto i = static_cast<std::size_t>(cur);
        ASSERT_EQ(ws.parent(cur), full.parent[i]) << what;
        const double dist = ws.dist(cur);
        ASSERT_EQ(std::memcmp(&dist, &full.dist[i], sizeof(double)), 0)
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace tveg::graph
