// Differential suite for the SCC-ordered terminal sweep (graph/
// terminal_sweep.hpp): its dist(u → terminal) matrix must be BYTE-identical
// (memcmp) to the oracle it replaced — one Dijkstra per terminal over the
// transposed graph — on auxiliary graphs from generated traces and on random
// generic digraphs with large SCCs, zero-weight cycles, unreachable vertices
// and backward arcs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/aux_graph.hpp"
#include "core/tveg.hpp"
#include "graph/digraph.hpp"
#include "graph/terminal_sweep.hpp"
#include "oracle/graph_oracle.hpp"
#include "oracle/random.hpp"
#include "sim/experiment.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "trace/generators.hpp"

namespace tveg::graph {
namespace {

using oracle::dijkstra;
using oracle::ShortestPaths;

/// The transposed graph: arc u → v of weight w becomes v → u, listed per
/// vertex by (source vertex, insertion position).
Digraph transpose(const Digraph& g) {
  Digraph r(g.vertex_count());
  r.reserve_arcs(g.arc_count());
  for (VertexId u = 0; u < g.vertex_count(); ++u)
    for (const Arc& a : g.out(u)) r.add_arc(a.to, u, a.weight);
  r.freeze();
  return r;
}

/// The oracle: one Dijkstra per terminal on the transpose, scattered into
/// the terminal-major layout distances_to_terminals fills.
std::vector<double> reverse_dijkstra_matrix(
    const Digraph& g, const std::vector<VertexId>& terminals) {
  const Digraph reversed = transpose(g);
  const auto n = static_cast<std::size_t>(g.vertex_count());
  const std::size_t kTerms = terminals.size();
  std::vector<double> matrix(n * kTerms);
  for (std::size_t k = 0; k < kTerms; ++k) {
    const ShortestPaths sp = dijkstra(reversed, terminals[k]);
    for (std::size_t u = 0; u < n; ++u) matrix[u * kTerms + k] = sp.dist[u];
  }
  return matrix;
}

/// Runs the sweep and asserts memcmp-equality with the oracle.
void expect_sweep_matches_oracle(const Digraph& g,
                                 const std::vector<VertexId>& terminals,
                                 const std::string& what) {
  const std::vector<double> oracle = reverse_dijkstra_matrix(g, terminals);
  std::vector<double> sweep;
  distances_to_terminals(g, scc_order(g), terminals, {}, sweep);
  ASSERT_EQ(sweep.size(), oracle.size()) << what;
  EXPECT_EQ(std::memcmp(sweep.data(), oracle.data(),
                        sweep.size() * sizeof(double)),
            0)
      << what << ": sweep and reverse Dijkstras differ";
}

TEST(ReverseOracle, TransposeFlipsArcs) {
  Digraph g(3);
  g.add_arc(0, 1, 2.0);
  g.add_arc(1, 2, 3.0);
  const Digraph r = transpose(g);
  ASSERT_EQ(r.out(1).size(), 1u);
  EXPECT_EQ(r.out(1)[0].to, 0);
  EXPECT_DOUBLE_EQ(r.out(1)[0].weight, 2.0);
  EXPECT_TRUE(r.out(0).empty());
}

/// Aux graphs from Haggle-like traces: several seeds and deadlines, with
/// and without the power-level expansion, τ = 0 and τ > 0.
TEST(TerminalSweepDiff, AuxGraphsMatchReverseDijkstras) {
  std::size_t cyclic_graphs = 0;
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
      for (const Time deadline : {1000.0, 2500.0}) {
        for (const bool expansion : {true, false}) {
          const core::TmedbInstance instance{&tveg, 0, deadline};
          const core::AuxGraph aux(instance, dts,
                                   {.power_expansion = expansion});
          const Digraph& g = aux.digraph();
          const SccOrder order = scc_order(g);
          if (order.component_count() <
              static_cast<std::size_t>(g.vertex_count()))
            ++cyclic_graphs;
          std::vector<VertexId> terminals;
          const VertexId root = aux.source_vertex_for(instance.source);
          for (const VertexId v : aux.terminals_for(instance))
            if (v != root) terminals.push_back(v);
          expect_sweep_matches_oracle(
              g, terminals,
              "seed " + std::to_string(seed) + " tau " + std::to_string(tau) +
                  " T " + std::to_string(deadline) +
                  (expansion ? " expanded" : " ablated"));
        }
      }
    }
  }
  // The instances must exercise multi-vertex SCCs, not only a DAG.
  EXPECT_GT(cyclic_graphs, 0u);
}

/// Random generic digraphs: a few dense blocks (large SCCs) joined by arcs
/// in both directions, zero-weight arcs that close cycles, isolated
/// vertices, and weights of mixed magnitude so float rounding is exercised.
TEST(TerminalSweepDiff, RandomDigraphsMatchReverseDijkstras) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    support::Rng rng(seed);
    const auto pick = [&](VertexId lo, VertexId hi) {
      return static_cast<VertexId>(oracle::uniform_in(rng, lo, hi));
    };
    const VertexId n = pick(20, 140);
    Digraph g(n);
    const VertexId arcs = n * pick(1, 5);
    for (VertexId i = 0; i < arcs; ++i) {
      const VertexId u = pick(0, n - 1);
      // Most arcs stay inside u's block of 16 ids (big SCCs); the rest jump
      // anywhere, forward or backward.
      VertexId v = pick(0, n - 1);
      if (rng.bernoulli(0.7)) v = std::min(n - 1, (u / 16) * 16 + pick(0, 15));
      if (v >= n - 3 || u >= n - 3) continue;  // the last 3 stay isolated
      const double r = rng.uniform();
      const double w = r < 0.25  ? 0.0
                       : r < 0.5 ? rng.uniform() * 1e-3
                                 : rng.uniform(0.1, 1e3);
      g.add_arc(u, v, w);
    }
    g.freeze();
    std::vector<VertexId> terminals(static_cast<std::size_t>(pick(1, 10)));
    for (VertexId& t : terminals) t = pick(0, n - 1);
    expect_sweep_matches_oracle(g, terminals, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace tveg::graph
