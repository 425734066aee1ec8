// End-to-end integration: the full paper pipeline (trace → TVEG → DTS →
// auxiliary graph → Steiner → schedule → NLP → Monte-Carlo evaluation) on
// each trace generator, at small scale.
#include <gtest/gtest.h>

#include "core/fr.hpp"
#include "sim/experiment.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"

#include <sstream>

namespace tveg::sim {
namespace {

void run_full_pipeline(const trace::ContactTrace& trace, NodeId source,
                       Time deadline, const char* label) {
  const Workbench bench(trace, paper_radio());
  for (Algorithm a : kAllAlgorithms) {
    const auto outcome = bench.run(a, source, deadline, 11);
    if (!outcome.covered_all) continue;  // sparse generators may disconnect
    const auto& inst = fading_resistant(a)
                           ? bench.fading_instance(source, deadline)
                           : bench.step_instance(source, deadline);
    const auto report = core::check_feasibility(inst, outcome.schedule);
    EXPECT_TRUE(report.feasible)
        << label << "/" << algorithm_name(a) << ": " << report.reason;
    const auto delivery = bench.delivery_under_fading(
        source, outcome.schedule, {.trials = 300, .seed = 2});
    if (fading_resistant(a) && outcome.allocation_feasible) {
      EXPECT_GT(delivery.mean_delivery_ratio, 0.85)
          << label << "/" << algorithm_name(a);
    }
  }
}

TEST(Integration, HaggleLikeTrace) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 10;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.6;
  cfg.seed = 21;
  run_full_pipeline(trace::generate_haggle_like(cfg), 0, 5000.0, "haggle");
}

TEST(Integration, RandomWaypointTrace) {
  trace::RandomWaypointConfig cfg;
  cfg.nodes = 8;
  cfg.horizon = 1500;
  cfg.area = 50.0;
  cfg.seed = 22;
  run_full_pipeline(trace::generate_random_waypoint(cfg), 0, 1400.0,
                    "waypoint");
}

TEST(Integration, DutyCycleTrace) {
  trace::DutyCycleConfig cfg;
  cfg.nodes = 10;
  cfg.horizon = 1200;
  cfg.area = 40.0;
  cfg.comm_range = 25.0;
  cfg.seed = 23;
  run_full_pipeline(trace::generate_duty_cycle(cfg), 0, 1100.0, "dutycycle");
}

TEST(Integration, SnapshotTrace) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 9;
  cfg.slot = 50;
  cfg.horizon = 1000;
  cfg.p = 0.25;
  cfg.seed = 24;
  run_full_pipeline(trace::generate_snapshots(cfg), 0, 900.0, "snapshots");
}

TEST(Integration, TraceSurvivesSerializationRoundTrip) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 8;
  cfg.horizon = 4000;
  cfg.activation_ramp_end = 800;
  cfg.seed = 25;
  const auto original = trace::generate_haggle_like(cfg);
  std::stringstream ss;
  trace::write_trace(ss, original);
  const auto restored = trace::parse_trace(ss).take_or_throw();

  const Workbench bench_a(original, paper_radio());
  const Workbench bench_b(restored, paper_radio());
  const auto a = bench_a.run(Algorithm::kEedcb, 0, 3500.0, 1);
  const auto b = bench_b.run(Algorithm::kEedcb, 0, 3500.0, 1);
  EXPECT_EQ(a.covered_all, b.covered_all);
  EXPECT_NEAR(a.normalized_energy, b.normalized_energy,
              1e-9 * a.normalized_energy);
}

TEST(Integration, NonzeroLatencyPipeline) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 8;
  cfg.horizon = 5000;
  cfg.activation_ramp_end = 800;
  cfg.pair_probability = 0.6;
  cfg.seed = 26;
  const auto trace = trace::generate_haggle_like(cfg);
  Workbench::Options options;
  options.tau = 2.0;  // non-trivial edge traversal time
  const Workbench bench(trace, paper_radio(), options);
  const auto outcome = bench.run(Algorithm::kEedcb, 0, 4500.0, 1);
  if (outcome.covered_all) {
    const auto inst = bench.step_instance(0, 4500.0);
    const auto report = core::check_feasibility(inst, outcome.schedule);
    EXPECT_TRUE(report.feasible) << report.reason;
  }
  const auto fr = bench.run(Algorithm::kFrEedcb, 0, 4500.0, 1);
  if (fr.covered_all && fr.allocation_feasible) {
    const auto inst = bench.fading_instance(0, 4500.0);
    EXPECT_TRUE(core::check_feasibility(inst, fr.schedule).feasible);
  }
}

}  // namespace
}  // namespace tveg::sim
