#include "sim/experiment.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/math.hpp"

namespace tveg::sim {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kEedcb:
      return "EEDCB";
    case Algorithm::kGreed:
      return "GREED";
    case Algorithm::kRand:
      return "RAND";
    case Algorithm::kFrEedcb:
      return "FR-EEDCB";
    case Algorithm::kFrGreed:
      return "FR-GREED";
    case Algorithm::kFrRand:
      return "FR-RAND";
  }
  return "?";
}

bool fading_resistant(Algorithm a) {
  return a == Algorithm::kFrEedcb || a == Algorithm::kFrGreed ||
         a == Algorithm::kFrRand;
}

channel::RadioParams paper_radio() {
  channel::RadioParams radio;
  radio.noise_density = 4.32e-21;   // W/Hz
  radio.decoding_threshold_db = 25.9;
  radio.path_loss_exponent = 2.0;
  radio.epsilon = 0.01;
  radio.w_min = 0.0;
  radio.w_max = support::kInf;
  return radio;
}

Workbench::Workbench(const trace::ContactTrace& trace,
                     channel::RadioParams radio)
    : Workbench(trace, radio, Options{}) {}

Workbench::Workbench(const trace::ContactTrace& trace,
                     channel::RadioParams radio, Options options)
    : options_(options),
      pool_(options.threads > 0
                ? std::make_unique<support::ThreadPool>(options.threads)
                : nullptr),
      step_(std::make_unique<core::Tveg>(
          trace, radio,
          core::Tveg::Options{.model = channel::ChannelModel::kStep,
                              .tau = options.tau})),
      fading_(std::make_unique<core::Tveg>(
          trace, radio,
          core::Tveg::Options{.model = channel::ChannelModel::kRayleigh,
                              .tau = options.tau})),
      // Both views share topology and breakpoints, so one DTS serves both.
      dts_(step_->build_dts(options.dts)) {
  if (options.use_cache) {
    step_->memoize();
    fading_->memoize();
  }
}

core::EedcbOptions Workbench::eedcb_options() const {
  core::EedcbOptions eedcb;
  eedcb.method = options_.steiner_method;
  eedcb.steiner_level = options_.steiner_level;
  eedcb.dts = options_.dts;
  eedcb.pool = pool_.get();
  return eedcb;
}

core::TmedbInstance Workbench::step_instance(NodeId source,
                                             Time deadline) const {
  return core::TmedbInstance{step_.get(), source, deadline};
}

core::TmedbInstance Workbench::fading_instance(NodeId source,
                                               Time deadline) const {
  return core::TmedbInstance{fading_.get(), source, deadline};
}

Workbench::RunOutcome Workbench::run(Algorithm algorithm, NodeId source,
                                     Time deadline,
                                     std::uint64_t seed) const {
  const core::EedcbOptions eedcb = eedcb_options();

  RunOutcome outcome;
  switch (algorithm) {
    case Algorithm::kEedcb: {
      const auto r = run_eedcb(step_instance(source, deadline), dts_, eedcb);
      outcome.schedule = r.schedule;
      outcome.covered_all = r.covered_all;
      outcome.stats = r.stats;
      break;
    }
    case Algorithm::kGreed:
    case Algorithm::kRand: {
      core::BaselineOptions opt;
      opt.rule = algorithm == Algorithm::kGreed ? core::BaselineRule::kGreedy
                                                : core::BaselineRule::kRandom;
      opt.seed = seed;
      const auto r = run_baseline(step_instance(source, deadline), dts_, opt);
      outcome.schedule = r.schedule;
      outcome.covered_all = r.covered_all;
      break;
    }
    case Algorithm::kFrEedcb: {
      const auto r =
          run_fr_eedcb(fading_instance(source, deadline), dts_, eedcb);
      outcome.schedule = r.schedule();
      outcome.covered_all = r.backbone.covered_all;
      outcome.allocation_feasible = r.allocation.feasible;
      outcome.stats = r.backbone.stats;
      break;
    }
    case Algorithm::kFrGreed:
    case Algorithm::kFrRand: {
      core::BaselineOptions opt;
      opt.rule = algorithm == Algorithm::kFrGreed
                     ? core::BaselineRule::kGreedy
                     : core::BaselineRule::kRandom;
      opt.seed = seed;
      const auto r =
          run_fr_baseline(fading_instance(source, deadline), dts_, opt);
      outcome.schedule = r.schedule();
      outcome.covered_all = r.backbone.covered_all;
      outcome.allocation_feasible = r.allocation.feasible;
      break;
    }
  }

  const core::TmedbInstance metric_instance = step_instance(source, deadline);
  outcome.normalized_energy =
      core::normalized_energy(metric_instance, outcome.schedule);
  return outcome;
}

std::vector<Workbench::RunOutcome> Workbench::run_many_eedcb(
    const std::vector<core::SolveRequest>& requests) const {
  std::vector<core::SolveOutcome> solved =
      core::solve_many(*step_, dts_, requests, eedcb_options());
  std::vector<RunOutcome> outcomes(solved.size());
  for (std::size_t i = 0; i < solved.size(); ++i) {
    core::SchedulerResult r = std::move(solved[i]).take_or_throw();
    outcomes[i].normalized_energy = core::normalized_energy(
        step_instance(requests[i].source, requests[i].deadline), r.schedule);
    outcomes[i].schedule = std::move(r.schedule);
    outcomes[i].covered_all = r.covered_all;
    outcomes[i].stats = r.stats;
  }
  return outcomes;
}

DeliveryStats Workbench::delivery_under_fading(NodeId source,
                                               const core::Schedule& schedule,
                                               const McOptions& mc) const {
  return simulate_delivery(*fading_, source, schedule, mc);
}

}  // namespace tveg::sim
