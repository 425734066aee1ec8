// End-to-end and per-layer benchmark of the TMEDB pipeline.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out FILE
//             [--gbench BUILD_TYPE]
//
// --trace 0 times closed-loop requests (one client) through the library
// entry points sim::Workbench::run / run_many_eedcb / delivery_under_fading
// and reports the end-to-end metrics. --trace 1 rebuilds each request from
// the public call of every layer, records a span around each call, checks
// that the rebuilt schedule is byte-identical to the Workbench's, and
// reports per-layer self time and counts. Every schedule is checked outside
// the timed region. stdout gets a readable report and FILE the full record
// (fingerprint, every metric, per-request latencies, spans); run.py turns
// the record into the result line. README.md documents the workloads and
// metrics.
//
// Only Workbench::Options{threads, use_cache, steiner_method, steiner_level}
// and public layer calls are used, so the benchmark keeps compiling while
// the library's internals change. obs tracing is never switched on: it is
// off by default and only bench::Report / the CLI's tracing flags enable it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/aux_graph.hpp"
#include "core/energy_allocation.hpp"
#include "core/prune.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "core/tveg.hpp"
#include "graph/steiner.hpp"
#include "sim/experiment.hpp"
#include "sim/monte_carlo.hpp"
#include "support/thread_pool.hpp"
#include "tools/certify/certify.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"

namespace {

using namespace tveg;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Inputs: the bench::paper_trace configuration (stationary), its source
// panel, and the Fig. 4/5 deadline range.

constexpr NodeId kNodes = 20;
constexpr Time kDeadlines[] = {2000, 3000, 4000, 5000, 6000};
constexpr std::size_t kDeadlineCount = std::size(kDeadlines);
constexpr std::size_t kSources = 6;
constexpr std::size_t kMcTrials = 2000;
constexpr std::uint64_t kMcSeed = 1;
/// Setups per run; setup_s is the median of their CPU times.
constexpr int kSetups = 3;
/// FrOptions defaults that the traced FR rebuild mirrors.
constexpr std::size_t kFrMaxRefineRounds = 32;

trace::ContactTrace make_trace(std::uint64_t seed) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = kNodes;
  cfg.horizon = 17000;
  cfg.pair_probability = 9.0 / static_cast<double>(kNodes - 1);
  cfg.activation_ramp_end = 500;
  cfg.seed = seed;
  return trace::generate_haggle_like(cfg);
}

NodeId panel_source(std::size_t i) {
  return static_cast<NodeId>(((i % kSources) * 7 + 1) % kNodes);
}

trace::ContactTrace load_trace(const std::string& path) {
  auto parsed = trace::parse_trace_file(path);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().to_string());
  return std::move(parsed.value());
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (all threads) in ms. Unlike wall time it
/// excludes the time a hypervisor steals from the virtual CPUs, which on a
/// shared virtual machine moved wall times by up to 2x for minutes at a time.
double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) * 1e-6;
}

std::string serialize(const core::Schedule& schedule) {
  std::ostringstream out;
  core::write_schedule(out, schedule);
  return out.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 100]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// Host CPU-time counters from /proc/stat: {steal, total} in clock ticks.
/// The share stolen by the hypervisor during a run explains wall-time
/// outliers on a shared virtual machine; {0, 0} where unavailable.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0, total = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Workload { kSweepGreedy, kColdSpt, kFadingFr };

struct WorkloadSpec {
  const char* name;
  Workload kind;
  /// Traces per run. Request cost and energy vary by trace, so every metric
  /// averages over this many inputs to keep the spread across seeds small.
  std::size_t traces;
  /// Requests in one cycle of distinct request keys. An untraced run
  /// completes at least one cycle; the deterministic metrics (energy,
  /// delivery) cover the first cycle and the timing metrics all complete
  /// cycles, so every run measures the same mix of work however fast it
  /// is. Small enough to fit in a 30 s run even when the host steals a
  /// quarter of the CPUs.
  std::size_t cycle;
  /// Tail percentile of latency_ms_tail and cpu_ms_tail: the highest one
  /// with at least 10 samples beyond it at the default run length.
  double tail_percentile;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"sweep-greedy", Workload::kSweepGreedy, 5, 5, 50},
    {"cold-spt", Workload::kColdSpt, 30, 30, 90},
    {"fading-fr", Workload::kFadingFr, 10, 20, 50},
};

/// One request key: a trace, a deadline, and the sources solved under it.
struct RequestKey {
  std::size_t input;
  Time deadline;
  std::vector<NodeId> sources;
};

/// The request cycle; deadlines rotate fastest, so every deadline appears
/// equally often. sweep-greedy: one panel batch per trace. The others:
/// single-source requests spread evenly over the traces, each trace seeing
/// several deadlines and sources.
std::vector<RequestKey> request_cycle(const WorkloadSpec& spec) {
  std::vector<RequestKey> keys;
  for (std::size_t i = 0; i < spec.cycle; ++i) {
    RequestKey key{i % spec.traces,
                   kDeadlines[(i + i / spec.traces) % kDeadlineCount],
                   {}};
    if (spec.kind == Workload::kSweepGreedy)
      for (std::size_t s = 0; s < kSources; ++s)
        key.sources.push_back(panel_source(s));
    else
      key.sources.push_back(panel_source(i));
    keys.push_back(std::move(key));
  }
  return keys;
}

sim::Workbench::Options bench_options(Workload kind, std::size_t threads) {
  sim::Workbench::Options options;
  options.threads = kind == Workload::kSweepGreedy ? threads : 0;
  options.use_cache = true;
  options.steiner_method = kind == Workload::kColdSpt
                               ? core::SteinerMethod::kShortestPath
                               : core::SteinerMethod::kRecursiveGreedy;
  options.steiner_level = 2;
  return options;
}

/// One solved (trace, source, deadline) triple as returned by a request.
struct Solve {
  std::size_t input = 0;
  NodeId source = 0;
  Time deadline = 0;
  core::Schedule schedule;
  bool covered = false;
  double energy = 0;
  /// Monte-Carlo delivery ratio; NaN until measured.
  double delivery = std::nan("");
  std::size_t steiner_nodes_expanded = 0;
  std::size_t steiner_relaxations = 0;
};

/// One input trace and what set-up builds from it.
struct Input {
  trace::ContactTrace trace;
  std::string path;  ///< the trace as a file, written after set-up
  std::unique_ptr<sim::Workbench> bench;  ///< sweep-greedy and fading-fr
};
using Setup = std::vector<Input>;

/// Set-up: the run's traces plus, where the workload shares one, a
/// Workbench per trace. Trace k of seed n has generator seed n·traces + k,
/// so seeds never share a trace.
Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed,
                 std::size_t threads, const std::string& path_prefix) {
  Setup setup;
  for (std::size_t k = 0; k < spec.traces; ++k) {
    Input& in = setup.emplace_back(
        Input{make_trace(seed * spec.traces + k),
              path_prefix + "." + std::to_string(k) + ".trace", nullptr});
    if (spec.kind != Workload::kColdSpt)
      in.bench = std::make_unique<sim::Workbench>(
          in.trace, sim::paper_radio(), bench_options(spec.kind, threads));
  }
  return setup;
}

/// Runs one request through the library entry points, untraced.
std::vector<Solve> run_request(Workload kind, const Setup& setup,
                               const RequestKey& key, std::size_t threads) {
  const Input& in = setup[key.input];
  std::vector<Solve> out;
  switch (kind) {
    case Workload::kSweepGreedy: {
      std::vector<core::SolveRequest> requests(key.sources.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].source = key.sources[i];
        requests[i].deadline = key.deadline;
      }
      const auto outcomes = in.bench->run_many_eedcb(requests);
      for (std::size_t i = 0; i < outcomes.size(); ++i)
        out.push_back({key.input, key.sources[i], key.deadline,
                       outcomes[i].schedule,
                       outcomes[i].covered_all, outcomes[i].normalized_energy,
                       std::nan(""), outcomes[i].stats.steiner_nodes_expanded,
                       outcomes[i].stats.steiner_relaxations});
      break;
    }
    case Workload::kColdSpt: {
      // What `tmedb run` pays per invocation: parse, build, solve, check
      // feasibility, Monte-Carlo.
      const trace::ContactTrace trace = load_trace(in.path);
      const sim::Workbench bench(trace, sim::paper_radio(),
                                 bench_options(kind, threads));
      const NodeId source = key.sources.front();
      const auto outcome =
          bench.run(sim::Algorithm::kEedcb, source, key.deadline);
      const bool feasible =
          core::check_feasibility(bench.step_instance(source, key.deadline),
                                  outcome.schedule)
              .feasible;
      const auto delivery = bench.delivery_under_fading(
          source, outcome.schedule, {.trials = kMcTrials, .seed = kMcSeed});
      out.push_back({key.input, source, key.deadline, outcome.schedule,
                     outcome.covered_all && feasible,
                     outcome.normalized_energy, delivery.mean_delivery_ratio,
                     outcome.stats.steiner_nodes_expanded,
                     outcome.stats.steiner_relaxations});
      break;
    }
    case Workload::kFadingFr: {
      const NodeId source = key.sources.front();
      const auto outcome =
          in.bench->run(sim::Algorithm::kFrEedcb, source, key.deadline);
      const auto delivery = in.bench->delivery_under_fading(
          source, outcome.schedule, {.trials = kMcTrials, .seed = kMcSeed});
      out.push_back({key.input, source, key.deadline, outcome.schedule,
                     outcome.covered_all && outcome.allocation_feasible,
                     outcome.normalized_energy, delivery.mean_delivery_ratio,
                     outcome.stats.steiner_nodes_expanded,
                     outcome.stats.steiner_relaxations});
      break;
    }
  }
  return out;
}

channel::ChannelModel checked_model(Workload kind) {
  return kind == Workload::kFadingFr ? channel::ChannelModel::kRayleigh
                                     : channel::ChannelModel::kStep;
}

/// Independent certification (tools/certify) of one schedule under the
/// workload's channel model and the request's deadline.
bool certified(const trace::ContactTrace& trace, const Solve& solve,
               channel::ChannelModel model) {
  const channel::RadioParams radio = sim::paper_radio();
  certify::Options opt;
  opt.source = solve.source;
  opt.deadline = solve.deadline;
  opt.epsilon = radio.epsilon;
  opt.model = model;
  opt.noise_density = radio.noise_density;
  opt.decoding_threshold_db = radio.decoding_threshold_db;
  opt.path_loss_exponent = radio.path_loss_exponent;
  opt.w_min = radio.w_min;
  opt.w_max = radio.w_max;
  std::vector<certify::Transmission> txs;
  for (const core::Transmission& tx : solve.schedule.transmissions())
    txs.push_back({tx.relay, tx.time, tx.cost});
  return certify::verify(trace, txs, opt).feasible;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit.

struct Span {
  std::string name;
  int parent;
  double begin_ms;
  double end_ms;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      index_ = tracer_.spans_.size();
      tracer_.spans_.push_back({name, tracer_.current_, tracer_.now_ms(), 0});
      tracer_.current_ = static_cast<int>(index_);
    }
    ~Scope() {
      Span& span = tracer_.spans_[index_];
      span.end_ms = tracer_.now_ms();
      tracer_.current_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Adds `value` to the per-run count `name`.
  void count(const std::string& name, double value) { counts_[name] += value; }

  /// Self time per span name: duration minus the children's durations.
  std::map<std::string, double> self_ms() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end_ms - s.begin_ms;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        out[spans_[static_cast<std::size_t>(s.parent)].name] -=
            s.end_ms - s.begin_ms;
    return out;
  }
  const std::map<std::string, double>& counts() const { return counts_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  std::map<std::string, double> counts_;
};

/// Layer-by-layer EEDCB tail over a built aux graph: Steiner, extraction,
/// and (when `prune`) the prune pass — what run_eedcb_on_aux does.
Solve traced_tail(Tracer& tr, const core::TmedbInstance& instance,
                  const core::AuxGraph& aux, graph::SteinerSolver& solver,
                  core::SteinerMethod method, bool prune,
                  support::ThreadPool* pool) {
  Solve solve;
  solve.source = instance.source;
  solve.deadline = instance.deadline;
  solver.set_pool(pool);
  graph::SteinerResult tree;
  {
    Tracer::Scope span(tr, "graph.steiner");
    const graph::VertexId root = aux.source_vertex_for(instance.source);
    const auto terminals = aux.terminals_for(instance);
    tree = method == core::SteinerMethod::kRecursiveGreedy
               ? solver.recursive_greedy(root, terminals, 2)
               : solver.shortest_path_heuristic(root, terminals);
  }
  const auto& stats = solver.last_query_stats();
  tr.count("graph.steiner_dijkstra_runs",
           static_cast<double>(stats.dijkstra_runs));
  tr.count("graph.steiner_nodes_expanded",
           static_cast<double>(stats.nodes_expanded));
  tr.count("graph.steiner_relaxations", static_cast<double>(stats.relaxations));
  solve.steiner_nodes_expanded = stats.nodes_expanded;
  solve.steiner_relaxations = stats.relaxations;
  solve.covered = tree.feasible;
  {
    Tracer::Scope span(tr, "core.extract");
    solve.schedule = aux.extract_schedule(tree);
  }
  if (prune && solve.covered) {
    Tracer::Scope span(tr, "core.prune");
    const std::size_t before = solve.schedule.size();
    solve.schedule = core::prune_schedule(instance, solve.schedule);
    tr.count("core.prune_tx_removed",
             static_cast<double>(before - solve.schedule.size()));
  }
  return solve;
}

std::unique_ptr<core::AuxGraph> traced_aux(Tracer& tr,
                                           const core::TmedbInstance& instance,
                                           const DiscreteTimeSet& dts,
                                           support::ThreadPool* pool) {
  Tracer::Scope span(tr, "core.aux_build");
  auto aux = std::make_unique<core::AuxGraph>(
      instance, dts, core::AuxGraph::Options{.pool = pool});
  tr.count("core.aux_vertices", static_cast<double>(aux->vertex_count()));
  tr.count("core.aux_arcs", static_cast<double>(aux->arc_count()));
  return aux;
}

core::AllocationOutcome traced_allocate(Tracer& tr,
                                        const core::TmedbInstance& instance,
                                        const core::Schedule& backbone) {
  Tracer::Scope span(tr, "nlp.allocate");
  auto out = core::allocate_energy(instance, backbone);
  tr.count("nlp.allocations", 1);
  tr.count("nlp.passes", static_cast<double>(out.solver_passes));
  return out;
}

/// FR-EEDCB rebuilt from the layer calls (core::run_fr_eedcb with default
/// FrOptions and recursive greedy as the Workbench's method): both Steiner
/// methods as backbones, NLP allocation, then the NLP-aware refinement that
/// drops one transmission per round.
Solve traced_fr(Tracer& tr, const core::TmedbInstance& instance,
                const DiscreteTimeSet& dts) {
  Tracer::Scope fr_span(tr, "core.fr");
  struct Attempt {
    Solve backbone;
    core::AllocationOutcome allocation;
    bool feasible() const {
      return backbone.covered && allocation.feasible;
    }
  };
  auto attempt = [&](core::SteinerMethod method) {
    Attempt a;
    const auto aux = traced_aux(tr, instance, dts, nullptr);
    graph::SteinerSolver solver(aux->digraph());
    a.backbone = traced_tail(tr, instance, *aux, solver, method,
                             /*prune=*/false, nullptr);
    a.allocation = traced_allocate(tr, instance, a.backbone.schedule);
    if (!a.allocation.feasible) return a;
    core::Schedule backbone = a.backbone.schedule;
    for (std::size_t round = 0; round < kFrMaxRefineRounds; ++round) {
      bool improved = false;
      const auto& allocated = a.allocation.schedule.transmissions();
      std::vector<std::size_t> order(allocated.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return allocated[x].cost > allocated[y].cost;
      });
      for (std::size_t k : order) {
        const auto& txs = backbone.transmissions();
        if (k >= txs.size()) continue;
        core::Schedule candidate;
        for (std::size_t m = 0; m < txs.size(); ++m)
          if (m != k) candidate.add(txs[m]);
        const auto out = traced_allocate(tr, instance, candidate);
        tr.count("core.fr_reallocations", 1);
        if (out.feasible && out.schedule.total_cost() <
                                a.allocation.schedule.total_cost()) {
          backbone = candidate;
          a.allocation = out;
          improved = true;
          tr.count("core.fr_removals", 1);
          break;
        }
      }
      if (!improved) break;
    }
    return a;
  };
  Attempt best = attempt(core::SteinerMethod::kRecursiveGreedy);
  Attempt alt = attempt(core::SteinerMethod::kShortestPath);
  if (alt.feasible() &&
      (!best.feasible() || alt.allocation.schedule.total_cost() <
                               best.allocation.schedule.total_cost()))
    best = std::move(alt);
  Solve solve = best.backbone;
  solve.covered = best.feasible();
  solve.schedule = best.allocation.schedule;
  return solve;
}

double traced_mc(Tracer& tr, const core::Tveg& fading, const Solve& solve) {
  Tracer::Scope span(tr, "sim.mc");
  tr.count("sim.mc_trials", kMcTrials);
  return sim::simulate_delivery(fading, solve.source, solve.schedule,
                                {.trials = kMcTrials, .seed = kMcSeed})
      .mean_delivery_ratio;
}

/// Tveg views and DTS rebuilt from the trace file, as Workbench builds them.
struct TracedViews {
  std::unique_ptr<core::Tveg> step;
  std::unique_ptr<core::Tveg> fading;
  DiscreteTimeSet dts;
};

TracedViews traced_views(Tracer& tr, const std::string& trace_path) {
  const trace::ContactTrace trace = [&] {
    Tracer::Scope span(tr, "trace.parse");
    return load_trace(trace_path);
  }();
  TracedViews views;
  {
    Tracer::Scope span(tr, "tveg.build");
    const auto radio = sim::paper_radio();
    views.step = std::make_unique<core::Tveg>(
        trace, radio,
        core::Tveg::Options{.model = channel::ChannelModel::kStep});
    views.fading = std::make_unique<core::Tveg>(
        trace, radio,
        core::Tveg::Options{.model = channel::ChannelModel::kRayleigh});
  }
  {
    Tracer::Scope span(tr, "tvg.dts_build");
    views.dts = views.step->build_dts();
  }
  tr.count("tvg.dts_points", static_cast<double>(views.dts.total_points()));
  return views;
}

/// One request rebuilt layer by layer inside a "request" span, whose wall
/// time is added to `traced_ms`. For
/// sweep-greedy and fading-fr the trace/Tveg/DTS layers are set-up work:
/// they are rebuilt under a separate "setup" span and the request itself
/// runs on the shared Workbench's views, exactly as the untraced one does.
/// sweep-greedy's Monte-Carlo is a check outside its request, so it runs
/// under a separate "check" span.
std::vector<Solve> traced_request(Tracer& tr, Workload kind,
                                  const Setup& setup, const RequestKey& key,
                                  support::ThreadPool* pool,
                                  double& traced_ms) {
  const Input& in = setup[key.input];
  const NodeId source = key.sources.front();
  std::vector<Solve> out;
  if (kind != Workload::kColdSpt) {
    Tracer::Scope span(tr, "setup");
    const TracedViews views = traced_views(tr, in.path);
    if (views.dts.total_points() != in.bench->dts().total_points())
      throw std::runtime_error("rebuilt DTS differs from the Workbench's");
  }
  const auto start = Clock::now();
  {
    Tracer::Scope request(tr, "request");
    switch (kind) {
      case Workload::kSweepGreedy: {
        // solve_many: one aux graph and one solver per deadline group.
        const core::Tveg& step = in.bench->step();
        const auto aux = traced_aux(
            tr, {&step, source, key.deadline}, in.bench->dts(), pool);
        graph::SteinerSolver solver(aux->digraph());
        for (NodeId s : key.sources) {
          const core::TmedbInstance instance{&step, s, key.deadline};
          out.push_back(traced_tail(tr, instance, *aux, solver,
                                    core::SteinerMethod::kRecursiveGreedy,
                                    /*prune=*/true, pool));
          out.back().energy =
              core::normalized_energy(instance, out.back().schedule);
        }
        break;
      }
      case Workload::kColdSpt: {
        const TracedViews views = traced_views(tr, in.path);
        const core::TmedbInstance instance{views.step.get(), source,
                                           key.deadline};
        const auto aux = traced_aux(tr, instance, views.dts, nullptr);
        graph::SteinerSolver solver(aux->digraph());
        out.push_back(traced_tail(tr, instance, *aux, solver,
                                  core::SteinerMethod::kShortestPath,
                                  /*prune=*/true, nullptr));
        Solve& solve = out.back();
        solve.energy = core::normalized_energy(instance, solve.schedule);
        {
          Tracer::Scope span(tr, "core.feasibility");
          solve.covered =
              solve.covered &&
              core::check_feasibility(instance, solve.schedule).feasible;
        }
        solve.delivery = traced_mc(tr, *views.fading, solve);
        break;
      }
      case Workload::kFadingFr: {
        const core::TmedbInstance instance{&in.bench->fading(), source,
                                           key.deadline};
        out.push_back(traced_fr(tr, instance, in.bench->dts()));
        Solve& solve = out.back();
        solve.energy = core::normalized_energy(
            {&in.bench->step(), source, key.deadline}, solve.schedule);
        solve.delivery = traced_mc(tr, in.bench->fading(), solve);
        break;
      }
    }
  }
  traced_ms += ms_between(start, Clock::now());
  for (Solve& solve : out) solve.input = key.input;
  if (kind == Workload::kSweepGreedy) {
    Tracer::Scope span(tr, "check");
    for (const Solve& solve : out) traced_mc(tr, in.bench->fading(), solve);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Per-layer metrics of a traced run, per traced request (n of them): each
/// `_ms` is the layer's self time.
std::vector<Metric> layer_metrics(const Tracer& tracer, double n) {
  std::vector<Metric> metrics;
  const auto self = tracer.self_ms();
  const auto& counts = tracer.counts();
  auto per_request = [&](const std::map<std::string, double>& m,
                         const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() || n == 0 ? 0.0 : it->second / n;
  };
  auto layer_ms = [&](const char* metric, const char* span) {
    metrics.push_back({metric, per_request(self, span), "ms"});
  };
  auto layer_count = [&](const char* name) {
    metrics.push_back({name, per_request(counts, name), "count"});
  };
  layer_ms("trace.parse_ms", "trace.parse");
  layer_ms("tveg.build_ms", "tveg.build");
  layer_ms("tvg.dts_build_ms", "tvg.dts_build");
  layer_count("tvg.dts_points");
  layer_ms("core.aux_build_ms", "core.aux_build");
  layer_count("core.aux_vertices");
  layer_count("core.aux_arcs");
  layer_ms("graph.steiner_ms", "graph.steiner");
  layer_count("graph.steiner_dijkstra_runs");
  layer_count("graph.steiner_nodes_expanded");
  layer_count("graph.steiner_relaxations");
  layer_ms("core.extract_ms", "core.extract");
  layer_ms("core.prune_ms", "core.prune");
  layer_count("core.prune_tx_removed");
  layer_ms("core.feasibility_ms", "core.feasibility");
  layer_ms("nlp.allocate_ms", "nlp.allocate");
  layer_count("nlp.allocations");
  layer_count("nlp.passes");
  layer_ms("core.fr_ms", "core.fr");
  layer_count("core.fr_reallocations");
  const double reallocs = per_request(counts, "core.fr_reallocations");
  metrics.push_back(
      {"core.fr_removals_per_realloc",
       reallocs > 0 ? per_request(counts, "core.fr_removals") / reallocs : 0,
       "ratio"});
  layer_ms("sim.mc_ms", "sim.mc");
  const auto mc_ms = self.find("sim.mc");
  const auto mc_trials = counts.find("sim.mc_trials");
  metrics.push_back(
      {"sim.mc_trials_per_s",
       mc_ms != self.end() && mc_trials != counts.end() && mc_ms->second > 0
           ? mc_trials->second / (mc_ms->second / 1000.0)
           : 0,
       "1/s"});
  return metrics;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string gbench = "absent";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--out") args.out = value;
    else if (flag == "--gbench") args.gbench = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  if (args.out.empty()) throw std::invalid_argument("--out is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr)
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  const Workload kind = spec->kind;
  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());

  // Set-up, several times; the last one is kept.
  std::vector<double> setup_s, setup_wall_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.clear();
    const auto t0 = Clock::now();
    const double c0 = process_cpu_ms();
    setup = make_setup(*spec, args.seed, threads, args.out);
    setup_s.push_back((process_cpu_ms() - c0) / 1000.0);
    setup_wall_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  // cold-spt requests and every traced rebuild parse the trace files.
  for (const Input& in : setup) trace::write_trace_file(in.path, in.trace);

  const std::vector<RequestKey> cycle = request_cycle(*spec);
  const channel::ChannelModel model = checked_model(kind);
  std::unique_ptr<support::ThreadPool> pool;
  if (kind == Workload::kSweepGreedy)
    pool = std::make_unique<support::ThreadPool>(threads);

  // Closed loop, one client: the next request is sent when the previous
  // one returned. A run stops after --seconds; an untraced one also not
  // before its first cycle is done.
  std::vector<double> latency_ms, cpu_ms;
  std::vector<std::vector<Solve>> results;
  std::size_t attempted = 0;
  Tracer tracer;
  double traced_ms = 0, untraced_ms = 0;
  std::size_t equivalence_failures = 0;
  const auto steal_start = cpu_steal_ticks();
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed_s = ms_between(loop_start, Clock::now()) / 1000.0;
    if (elapsed_s >= args.seconds &&
        (args.trace || i >= cycle.size()))
      break;
    const RequestKey& key = cycle[i % cycle.size()];
    ++attempted;
    std::vector<Solve> traced, plain;
    try {
      if (args.trace)
        traced = traced_request(tracer, kind, setup, key, pool.get(),
                                traced_ms);
    } catch (const std::exception& e) {
      ++equivalence_failures;
      std::cerr << "traced request " << i << " threw: " << e.what() << "\n";
    }
    const auto t0 = Clock::now();
    const double c0 = process_cpu_ms();
    try {
      plain = run_request(kind, setup, key, threads);
    } catch (const std::exception& e) {
      // The empty result counts as a failed request in the checks.
      std::cerr << "request " << i << " threw: " << e.what() << "\n";
    }
    cpu_ms.push_back(process_cpu_ms() - c0);
    latency_ms.push_back(ms_between(t0, Clock::now()));
    if (args.trace) {
      untraced_ms += latency_ms.back();
      for (std::size_t s = 0; s < plain.size(); ++s) {
        const bool same =
            s < traced.size() &&
            serialize(traced[s].schedule) == serialize(plain[s].schedule) &&
            traced[s].covered == plain[s].covered &&
            traced[s].steiner_nodes_expanded ==
                plain[s].steiner_nodes_expanded &&
            traced[s].steiner_relaxations == plain[s].steiner_relaxations &&
            (std::isnan(plain[s].delivery) ||
             traced[s].delivery == plain[s].delivery);
        if (!same) {
          ++equivalence_failures;
          std::cerr << "traced rebuild differs from Workbench: source "
                    << plain[s].source << ", T=" << plain[s].deadline << "\n";
        }
      }
    }
    results.push_back(std::move(plain));
  }
  const auto loop_end = Clock::now();
  const double loop_s = ms_between(loop_start, loop_end) / 1000.0;
  const auto steal_end = cpu_steal_ticks();
  const double ticks = steal_end.second - steal_start.second;
  const double steal_pct =
      ticks > 0 ? 100.0 * (steal_end.first - steal_start.first) / ticks : 0;

  // Checks, outside the timed region: coverage, certification (once per
  // distinct schedule), determinism across repeats of a request key.
  using Key = std::tuple<std::size_t, NodeId, Time>;
  std::map<Key, std::string> first_bytes;
  std::map<Key, const Solve*> first_solve;
  std::size_t determinism_failures = 0;
  for (const auto& request : results)
    for (const Solve& solve : request) {
      const Key k{solve.input, solve.source, solve.deadline};
      const std::string bytes = serialize(solve.schedule);
      auto [it, fresh] = first_bytes.emplace(k, bytes);
      if (fresh)
        first_solve[k] = &solve;
      else if (it->second != bytes ||
               !(std::isnan(solve.delivery) ||
                 solve.delivery == first_solve[k]->delivery))
        ++determinism_failures;
    }
  // The certifier re-derives everything from the contact list, so it is
  // slow; distinct schedules are certified in parallel.
  std::vector<const Solve*> distinct;
  for (const auto& [k, solve] : first_solve) distinct.push_back(solve);
  std::vector<char> certified_ok(distinct.size(), 0);
  support::parallel_for(0, distinct.size(), [&](std::size_t i) {
    const Solve& solve = *distinct[i];
    certified_ok[i] =
        solve.covered && certified(setup[solve.input].trace, solve, model);
  });
  std::map<Key, bool> verdict;
  for (std::size_t i = 0; i < distinct.size(); ++i)
    verdict[{distinct[i]->input, distinct[i]->source, distinct[i]->deadline}] =
        certified_ok[i];
  std::vector<char> request_ok(results.size(), 0);
  for (std::size_t r = 0; r < results.size(); ++r) {
    request_ok[r] = !results[r].empty();
    for (const Solve& solve : results[r])
      request_ok[r] = request_ok[r] &&
                      verdict[{solve.input, solve.source, solve.deadline}];
  }
  const auto failed = static_cast<std::size_t>(
      std::count(request_ok.begin(), request_ok.end(), 0));

  // Deterministic metrics over the first cycle's schedules.
  double energy_sum = 0, delivery_sum = 0;
  std::size_t energy_n = 0;
  std::ostringstream solves_json;
  std::vector<const Solve*> fixed;
  for (std::size_t r = 0; r < std::min(cycle.size(), results.size()); ++r)
    for (const Solve& solve : results[r]) fixed.push_back(&solve);
  for (const Solve* solve : fixed) {
    double delivery = solve->delivery;
    if (std::isnan(delivery))  // sweep-greedy measures it here, untimed
      delivery = setup[solve->input]
                     .bench->delivery_under_fading(
                         solve->source, solve->schedule,
                         {.trials = kMcTrials, .seed = kMcSeed})
                     .mean_delivery_ratio;
    solves_json << (energy_n ? ",\n    " : "\n    ") << "{\"trace\": "
                << solve->input << ", \"source\": " << solve->source
                << ", \"deadline\": " << json_number(solve->deadline)
                << ", \"energy\": " << json_number(solve->energy)
                << ", \"delivery\": " << json_number(delivery) << "}";
    energy_sum += solve->energy;
    delivery_sum += delivery;
    ++energy_n;
  }

  const double check_s = ms_between(loop_end, Clock::now()) / 1000.0;
  // Timing metrics over complete cycles, so the work mix is the same in
  // every run; a trailing partial cycle only counts for the checks.
  const std::size_t timed =
      latency_ms.size() >= cycle.size()
          ? latency_ms.size() / cycle.size() * cycle.size()
          : latency_ms.size();
  const std::vector<double> timed_latency(latency_ms.begin(),
                                          latency_ms.begin() + timed);
  const std::vector<double> timed_cpu(cpu_ms.begin(), cpu_ms.begin() + timed);
  std::size_t solves_done = 0;
  for (std::size_t r = 0; r < timed; ++r)
    if (request_ok[r]) solves_done += results[r].size();
  const double busy_s =
      std::accumulate(timed_latency.begin(), timed_latency.end(), 0.0) /
      1000.0;
  const double cpu_s =
      std::accumulate(timed_cpu.begin(), timed_cpu.end(), 0.0) / 1000.0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"solves_per_cpu_s",
         cpu_s > 0 ? static_cast<double>(solves_done) / cpu_s : 0, "1/s"},
        {"cpu_ms_p50", median(timed_cpu), "ms"},
        {"cpu_ms_tail", percentile(timed_cpu, spec->tail_percentile), "ms"},
        {"solves_per_s",
         busy_s > 0 ? static_cast<double>(solves_done) / busy_s : 0, "1/s"},
        {"latency_ms_p50", median(timed_latency), "ms"},
        {"latency_ms_tail", percentile(timed_latency, spec->tail_percentile),
         "ms"},
        {"energy_norm_mean",
         energy_n ? energy_sum / static_cast<double>(energy_n) : 0,
         "N0.gamma_th"},
        {"delivery_mean",
         energy_n ? delivery_sum / static_cast<double>(energy_n) : 0,
         "ratio"},
        {"failed_frac",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double n = static_cast<double>(latency_ms.size());
    metrics = layer_metrics(tracer, n);
    extra = {
        {"trace.overhead_ms", n > 0 ? (traced_ms - untraced_ms) / n : 0, "ms"},
        {"traced_request_ms", n > 0 ? traced_ms / n : 0, "ms"},
        {"untraced_request_ms", n > 0 ? untraced_ms / n : 0, "ms"},
    };
  }
  extra.push_back({"requests", static_cast<double>(latency_ms.size()),
                   "count"});
  extra.push_back({"timed_requests", static_cast<double>(timed), "count"});
  extra.push_back({"loop_s", loop_s, "s"});
  extra.push_back({"setup_wall_s", median(setup_wall_s), "s"});
  extra.push_back({"check_s", check_s, "s"});
  extra.push_back({"host_steal_pct", steal_pct, "%"});
  extra.push_back({"traces", static_cast<double>(spec->traces), "count"});
  extra.push_back({"tail_percentile", spec->tail_percentile, "%"});

  const bool correct = failed == 0 && determinism_failures == 0 &&
                       equivalence_failures == 0;

  // Human-readable summary.
  std::cout << "perfbench " << spec->name << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  for (const auto& m : metrics)
    std::cout << "  " << std::left << std::setw(32) << m.name << " "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  for (const auto& m : extra)
    std::cout << "  (" << m.name << " " << std::setprecision(6) << m.value
              << " " << m.unit << ")\n";
  std::cout << "  checks: " << failed << " failed of " << attempted
            << " requests, " << determinism_failures
            << " determinism failures, " << equivalence_failures
            << " traced-rebuild mismatches\n";

  // Full record: fingerprint, every metric, spans.
  std::ofstream out(args.out);
  out << "{\n  \"fingerprint\": {"
      << "\"nproc\": " << threads
      << ", \"compiler\": " << json_string(kCompiler)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"gbench_build_type\": " << json_string(args.gbench)
      << ", \"pool_threads\": " << (kind == Workload::kSweepGreedy ? threads : 0)
      << ", \"seed\": " << args.seed << ", \"mc_seed\": " << kMcSeed
      << "},\n  \"workload\": " << json_string(spec->name)
      << ",\n  \"seconds\": " << json_number(args.seconds)
      << ",\n  \"trace\": " << (args.trace ? 1 : 0)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"metrics\": " << metrics_json(metrics)
      << ",\n  \"extra\": " << metrics_json(extra)
      << ",\n  \"solves\": [" << solves_json.str()
      << "],\n  \"latency_ms\": [";
  for (std::size_t i = 0; i < latency_ms.size(); ++i)
    out << (i ? ", " : "") << json_number(latency_ms[i]);
  out << "],\n  \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    out << (i ? ",\n    " : "\n    ") << "{\"name\": "
        << json_string(spans[i].name) << ", \"parent\": " << spans[i].parent
        << ", \"start_ms\": " << json_number(spans[i].begin_ms)
        << ", \"end_ms\": " << json_number(spans[i].end_ms) << "}";
  out << "]\n}\n";
  if (!out) throw std::runtime_error("cannot write " + args.out);
  for (const Input& in : setup) std::filesystem::remove(in.path);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
