#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "trace/generators.hpp"

namespace tveg::sim {
namespace {

trace::ContactTrace bench_trace(NodeId nodes = 12, std::uint64_t seed = 3) {
  trace::HaggleLikeConfig cfg;
  cfg.nodes = nodes;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 1000;
  cfg.pair_probability = 0.5;
  cfg.seed = seed;
  return trace::generate_haggle_like(cfg);
}

TEST(Experiment, PaperRadioConstants) {
  const auto radio = paper_radio();
  EXPECT_DOUBLE_EQ(radio.noise_density, 4.32e-21);
  EXPECT_DOUBLE_EQ(radio.decoding_threshold_db, 25.9);
  EXPECT_DOUBLE_EQ(radio.path_loss_exponent, 2.0);
  EXPECT_DOUBLE_EQ(radio.epsilon, 0.01);
  EXPECT_NO_THROW(radio.validate());
}

TEST(Experiment, AlgorithmNamesAndClassification) {
  EXPECT_STREQ(algorithm_name(Algorithm::kEedcb), "EEDCB");
  EXPECT_STREQ(algorithm_name(Algorithm::kFrRand), "FR-RAND");
  EXPECT_FALSE(fading_resistant(Algorithm::kGreed));
  EXPECT_TRUE(fading_resistant(Algorithm::kFrEedcb));
  EXPECT_EQ(std::size(kAllAlgorithms), 6u);
}

TEST(Experiment, WorkbenchBuildsBothChannelViews) {
  const Workbench bench(bench_trace(), paper_radio());
  EXPECT_EQ(bench.step().model(), channel::ChannelModel::kStep);
  EXPECT_EQ(bench.fading().model(), channel::ChannelModel::kRayleigh);
  EXPECT_EQ(bench.step().node_count(), bench.fading().node_count());
  EXPECT_GT(bench.dts().total_points(), 0u);
}

TEST(Experiment, AllSixAlgorithmsProduceCoveringSchedules) {
  const Workbench bench(bench_trace(), paper_radio());
  for (Algorithm a : kAllAlgorithms) {
    const auto outcome = bench.run(a, 0, 5000.0, 7);
    EXPECT_TRUE(outcome.covered_all) << algorithm_name(a);
    EXPECT_TRUE(outcome.allocation_feasible) << algorithm_name(a);
    EXPECT_GT(outcome.normalized_energy, 0.0) << algorithm_name(a);
    EXPECT_FALSE(outcome.schedule.empty()) << algorithm_name(a);
  }
}

TEST(Experiment, StaticSchedulesAreFeasibleOnStepView) {
  const Workbench bench(bench_trace(), paper_radio());
  for (Algorithm a : {Algorithm::kEedcb, Algorithm::kGreed, Algorithm::kRand}) {
    const auto outcome = bench.run(a, 0, 5000.0, 7);
    const auto inst = bench.step_instance(0, 5000.0);
    EXPECT_TRUE(core::check_feasibility(inst, outcome.schedule).feasible)
        << algorithm_name(a);
  }
}

TEST(Experiment, FrSchedulesAreFeasibleOnFadingView) {
  const Workbench bench(bench_trace(), paper_radio());
  for (Algorithm a :
       {Algorithm::kFrEedcb, Algorithm::kFrGreed, Algorithm::kFrRand}) {
    const auto outcome = bench.run(a, 0, 5000.0, 7);
    const auto inst = bench.fading_instance(0, 5000.0);
    EXPECT_TRUE(core::check_feasibility(inst, outcome.schedule).feasible)
        << algorithm_name(a);
  }
}

TEST(Experiment, FrCostsExceedStaticCosts) {
  // Fig. 6(a)'s gross ordering: every FR variant pays more than every
  // static variant (ε-costs are ~100× step costs at ε = 0.01).
  const Workbench bench(bench_trace(), paper_radio());
  double max_static = 0, min_fr = 1e300;
  for (Algorithm a : kAllAlgorithms) {
    const auto outcome = bench.run(a, 0, 5000.0, 7);
    if (fading_resistant(a)) {
      min_fr = std::min(min_fr, outcome.normalized_energy);
    } else {
      max_static = std::max(max_static, outcome.normalized_energy);
    }
  }
  EXPECT_GT(min_fr, max_static);
}

TEST(Experiment, FrDeliveryBeatsStaticUnderFading) {
  // Fig. 6(b)'s headline: FR-* deliver (nearly) fully under fading while
  // static-designed schedules lose a large fraction.
  const Workbench bench(bench_trace(), paper_radio());
  const auto eedcb = bench.run(Algorithm::kEedcb, 0, 5000.0, 7);
  const auto fr = bench.run(Algorithm::kFrEedcb, 0, 5000.0, 7);
  const auto d_static = bench.delivery_under_fading(
      0, eedcb.schedule, {.trials = 1500, .seed = 3});
  const auto d_fr =
      bench.delivery_under_fading(0, fr.schedule, {.trials = 1500, .seed = 3});
  EXPECT_GT(d_fr.mean_delivery_ratio, 0.9);
  EXPECT_LT(d_static.mean_delivery_ratio, 0.7);
}

TEST(Experiment, EedcbCheaperThanGreedOnAverage) {
  // Fig. 5(a)'s ordering EEDCB < GREED, averaged over sources/seeds.
  double eedcb_total = 0, greed_total = 0;
  int runs = 0;
  for (std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    const Workbench bench(bench_trace(12, seed), paper_radio());
    for (NodeId src : {0, 6}) {
      const auto e = bench.run(Algorithm::kEedcb, src, 5500.0, seed);
      const auto g = bench.run(Algorithm::kGreed, src, 5500.0, seed);
      if (!e.covered_all || !g.covered_all) continue;
      eedcb_total += e.normalized_energy;
      greed_total += g.normalized_energy;
      ++runs;
    }
  }
  ASSERT_GT(runs, 3);
  EXPECT_LT(eedcb_total, greed_total);
}

TEST(Experiment, RunManyEedcbThrowsForAFailedRequest) {
  // run_many_eedcb keeps throwing semantics on top of solve_many's slots:
  // the batch runs to the end, then the failed request surfaces.
  const Workbench bench(bench_trace(), paper_radio());
  const std::vector<core::SolveRequest> requests = {
      {.source = 0, .deadline = 6000.0}, {.source = 99, .deadline = 6000.0}};
  EXPECT_THROW(bench.run_many_eedcb(requests), std::invalid_argument);
  EXPECT_EQ(bench.run_many_eedcb({requests[0]}).size(), 1u);
}

TEST(Experiment, RandSeedChangesRandSchedule) {
  // A dense trace guarantees steps with several eligible relays; some seed
  // pair must then diverge.
  trace::HaggleLikeConfig cfg;
  cfg.nodes = 16;
  cfg.horizon = 6000;
  cfg.activation_ramp_end = 500;
  cfg.pair_probability = 0.8;
  cfg.seed = 12;
  const Workbench bench(trace::generate_haggle_like(cfg), paper_radio());
  const auto reference = bench.run(Algorithm::kRand, 0, 5000.0, 1);
  bool diverged = false;
  for (std::uint64_t seed = 2; seed <= 6 && !diverged; ++seed) {
    const auto other = bench.run(Algorithm::kRand, 0, 5000.0, seed);
    diverged = other.schedule.transmissions() !=
               reference.schedule.transmissions();
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace tveg::sim
