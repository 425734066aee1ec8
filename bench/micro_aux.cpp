// Microbenchmark — auxiliary-graph construction hot path (DESIGN.md "Data
// layout & hot-path memory"): whole-build cost, the isolated CSR
// stage+freeze step, the first solver query after a build (solver
// construction + workspace acquisition), and schedule extraction's
// arithmetic power-vertex decode. scripts/bench_gate.sh diffs these against
// bench/baselines/BENCH_micro_aux.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/timing.hpp"
#include "core/aux_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/steiner.hpp"

using namespace tveg;

namespace {

struct Fixture {
  std::unique_ptr<core::Tveg> tveg;
  std::unique_ptr<DiscreteTimeSet> dts;
  std::unique_ptr<core::AuxGraph> aux;

  explicit Fixture(NodeId nodes) {
    trace::HaggleLikeConfig cfg;
    cfg.nodes = nodes;
    cfg.horizon = 17000;
    cfg.pair_probability = 0.5;
    cfg.activation_ramp_end = 500;
    cfg.seed = 1;
    tveg = std::make_unique<core::Tveg>(
        trace::generate_haggle_like(cfg), sim::paper_radio(),
        core::Tveg::Options{.model = channel::ChannelModel::kStep});
    dts = std::make_unique<DiscreteTimeSet>(tveg->build_dts());
    const core::TmedbInstance inst{tveg.get(), 0, 6000.0};
    aux = std::make_unique<core::AuxGraph>(inst, *dts);
  }
};

void BM_AuxBuild(benchmark::State& state) {
  const auto nodes = static_cast<NodeId>(state.range(0));
  Fixture f(nodes);
  const core::TmedbInstance inst{f.tveg.get(), 0, 6000.0};
  std::size_t arcs = 0;
  for (auto _ : state) {
    const core::AuxGraph aux(inst, *f.dts);
    arcs = aux.arc_count();
    benchmark::DoNotOptimize(arcs);
  }
  state.counters["aux_arcs"] = static_cast<double>(arcs);
}
BENCHMARK(BM_AuxBuild)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_AuxDigraphFreeze(benchmark::State& state) {
  // Isolate the CSR step: replay the aux graph's exact arc census into a
  // reusable Digraph and freeze it. The staged->CSR counting-sort scatter
  // plus the staging appends are the whole measured body.
  Fixture f(static_cast<NodeId>(state.range(0)));
  const graph::Digraph& src = f.aux->digraph();
  struct FlatArc {
    graph::VertexId from, to;
    double weight;
  };
  std::vector<FlatArc> arcs;
  arcs.reserve(src.arc_count());
  for (graph::VertexId v = 0; v < src.vertex_count(); ++v)
    for (const auto& a : src.out(v)) arcs.push_back({v, a.to, a.weight});

  graph::Digraph g;
  for (auto _ : state) {
    g.reset(src.vertex_count());
    g.reserve_arcs(arcs.size());
    for (const FlatArc& a : arcs) g.add_arc(a.from, a.to, a.weight);
    g.freeze();
    benchmark::DoNotOptimize(g.arc_count());
  }
  state.counters["arcs"] = static_cast<double>(arcs.size());
}
BENCHMARK(BM_AuxDigraphFreeze)->Arg(10)->Arg(20)->Arg(30);

void BM_AuxFirstSolverQuery(benchmark::State& state) {
  // First query against a freshly built aux graph: SteinerSolver
  // construction (pooled workspace acquire) plus the SPT
  // heuristic — the latency a caller sees after AuxGraph construction.
  Fixture f(static_cast<NodeId>(state.range(0)));
  double cost = 0;
  for (auto _ : state) {
    graph::SteinerSolver solver(f.aux->digraph());
    const auto tree = solver.shortest_path_heuristic(f.aux->source_vertex(),
                                                     f.aux->terminals());
    cost = tree.cost;
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_AuxFirstSolverQuery)->Arg(10)->Arg(20)->Arg(30);

void BM_AuxExtractSchedule(benchmark::State& state) {
  // Tree -> schedule decode: one subtraction per tree arc to index the flat
  // power-vertex table, plus the coalescing sort in Schedule.
  Fixture f(static_cast<NodeId>(state.range(0)));
  graph::SteinerSolver solver(f.aux->digraph());
  const auto tree = solver.recursive_greedy(f.aux->source_vertex(),
                                            f.aux->terminals(), 2);
  for (auto _ : state) {
    const core::Schedule s = f.aux->extract_schedule(tree);
    benchmark::DoNotOptimize(s.total_cost());
  }
  state.counters["tree_arcs"] = static_cast<double>(tree.arcs.size());
}
BENCHMARK(BM_AuxExtractSchedule)->Arg(10)->Arg(20);

}  // namespace

// Shared microbench main: timings are mirrored into BENCH_micro_aux.json for
// scripts/bench_gate.sh.
int main(int argc, char** argv) {
  return tveg::bench::run_microbench(argc, argv, "micro_aux");
}
