// Solver-acceptance gate: every schedule the production solvers emit across
// a 200-instance seeded sweep — EEDCB (both Steiner methods and the
// power-expansion ablation), FR-EEDCB, solve_many batches, and every rung
// of the robust ladder — must be accepted by the independent certifier.
// This is the anti-"shared misreading" check: the certifier re-derives
// Eq. 6, the delay window and the DTS closure from the contact list alone,
// so a solver bug and a checker bug would have to agree twice to pass.
#include <gtest/gtest.h>

#include <vector>

#include "core/eedcb.hpp"
#include "core/fr.hpp"
#include "core/solve_many.hpp"
#include "core/tveg.hpp"
#include "fault/degrade.hpp"
#include "support/math.hpp"
#include "tools/certify/certify.hpp"
#include "trace/generators.hpp"

namespace tveg::certify {
namespace {

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

trace::ContactTrace random_trace(std::uint64_t seed, int nodes) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.25 + 0.05 * static_cast<double>(seed % 4);
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

Options options_for(const core::TmedbInstance& instance,
                    channel::ChannelModel model) {
  const channel::RadioParams& radio = instance.tveg->radio();
  Options opt;
  opt.source = instance.source;
  opt.deadline = instance.deadline;
  opt.epsilon = instance.effective_epsilon();
  opt.tau = instance.tveg->latency();
  opt.budget = instance.budget;
  opt.targets = instance.targets;
  opt.model = model;
  opt.noise_density = radio.noise_density;
  opt.decoding_threshold_db = radio.decoding_threshold_db;
  opt.path_loss_exponent = radio.path_loss_exponent;
  opt.w_min = radio.w_min;
  opt.w_max = radio.w_max;
  return opt;
}

std::vector<Transmission> to_certify(const core::Schedule& s) {
  std::vector<Transmission> out;
  out.reserve(s.size());
  for (const core::Transmission& tx : s.transmissions())
    out.push_back({tx.relay, tx.time, tx.cost});
  return out;
}

/// A covering schedule must certify outright. A non-covering one (the
/// instance itself is infeasible) must still pass every structural check —
/// only all-informed may fail.
void expect_certified(const trace::ContactTrace& t,
                      const core::TmedbInstance& instance,
                      const core::Schedule& schedule,
                      channel::ChannelModel model, bool covering,
                      std::uint64_t seed) {
  const Verdict v = verify(t, to_certify(schedule),
                           options_for(instance, model));
  if (covering) {
    EXPECT_TRUE(v.feasible) << "seed " << seed << ": " << v.json();
    return;
  }
  for (const Check& c : v.checks) {
    if (c.id == "all-informed") continue;
    EXPECT_TRUE(c.passed) << "seed " << seed << " check " << c.id << ": "
                          << c.detail;
  }
}

TEST(CertifySweep, EedcbSchedulesCertifyAcross200Instances) {
  std::size_t certified = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const trace::ContactTrace t =
        random_trace(seed, 5 + static_cast<int>(seed % 4));
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kStep});
    const Time deadline = (seed % 3 == 0) ? 120.0 : 200.0;
    const core::TmedbInstance instance{&tveg, 0, deadline};
    const auto outcome = core::run_eedcb(instance, core::EedcbOptions{});
    expect_certified(t, instance, outcome.schedule,
                     channel::ChannelModel::kStep, outcome.covered_all, seed);
    if (outcome.covered_all) ++certified;
  }
  EXPECT_GE(certified, 100u);  // the sweep must exercise real schedules
}

TEST(CertifySweep, SteinerMethodsAndAblationCertify) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 6);
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, 200.0};
    for (const core::SteinerMethod method :
         {core::SteinerMethod::kShortestPath,
          core::SteinerMethod::kRecursiveGreedy}) {
      for (const bool expansion : {true, false}) {
        core::EedcbOptions opt;
        opt.method = method;
        opt.power_expansion = expansion;
        const auto outcome = core::run_eedcb(instance, opt);
        expect_certified(t, instance, outcome.schedule,
                         channel::ChannelModel::kStep, outcome.covered_all,
                         seed);
      }
    }
  }
}

TEST(CertifySweep, FrEedcbAllocationsCertifyUnderRayleigh) {
  std::size_t certified = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 5);
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kRayleigh});
    const core::TmedbInstance instance{&tveg, 0, 200.0};
    const auto outcome = core::run_fr_eedcb(instance, core::EedcbOptions{});
    if (!outcome.feasible()) continue;
    expect_certified(t, instance, outcome.schedule(),
                     channel::ChannelModel::kRayleigh, true, seed);
    ++certified;
  }
  EXPECT_GE(certified, 10u);
}

TEST(CertifySweep, SolveManyBatchesCertifyIncludingMulticast) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const int nodes = 6;
    const trace::ContactTrace t = random_trace(seed, nodes);
    core::Tveg tveg(t, unit_radio(), {.model = channel::ChannelModel::kStep});
    tveg.memoize();

    std::vector<core::SolveRequest> requests;
    for (NodeId s = 0; s < nodes; ++s)
      requests.push_back({.source = s, .deadline = 200.0});
    requests.push_back({.source = 0, .deadline = 120.0, .targets = {1, 2}});

    const auto batch = core::solve_many(tveg, requests, {});
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].error().to_string();
      const core::TmedbInstance instance = core::to_instance(tveg, requests[i]);
      expect_certified(t, instance, batch[i].value().schedule,
                       channel::ChannelModel::kStep,
                       batch[i].value().covered_all, seed);
    }
  }
}

TEST(CertifySweep, EveryRobustLadderRungCertifies) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 6);
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kStep});
    const core::TmedbInstance instance{&tveg, 0, 200.0};
    const DiscreteTimeSet dts = tveg.build_dts();
    for (const fault::SolverRung start :
         {fault::SolverRung::kEedcb, fault::SolverRung::kBip,
          fault::SolverRung::kGreed}) {
      fault::RobustSolveOptions opt;
      opt.start = start;
      const auto outcome = fault::robust_solve(instance, dts, opt);
      expect_certified(t, instance, outcome.result.schedule,
                       channel::ChannelModel::kStep,
                       outcome.result.covered_all, seed);
    }
  }
}

TEST(CertifySweep, RobustFrLadderCertifies) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const trace::ContactTrace t = random_trace(seed, 5);
    const core::Tveg tveg(t, unit_radio(),
                          {.model = channel::ChannelModel::kRayleigh});
    const core::TmedbInstance instance{&tveg, 0, 200.0};
    const DiscreteTimeSet dts = tveg.build_dts();
    const auto outcome = fault::robust_solve_fr(instance, dts);
    if (!outcome.feasible()) continue;
    expect_certified(t, instance, outcome.schedule(),
                     channel::ChannelModel::kRayleigh, true, seed);
  }
}

}  // namespace
}  // namespace tveg::certify
