// Baseline schedulers from the paper's evaluation (Sec. VII):
//
//  * GREED — at each step, among every causally valid action (an informed
//    node transmitting at one of its DTS points before the deadline), pick
//    the one that informs the largest number of currently-uninformed
//    adjacent nodes, paying the smallest discrete-cost-set element
//    sufficient to reach them (DESIGN.md, interpretive decision 3). The
//    action space spans all times up to the delay constraint, which is what
//    makes GREED's energy depend on it: looser deadlines expose
//    higher-degree moments.
//  * RAND — same action space, but the action is drawn uniformly.
//
// Their fading-resistant variants FR-GREED / FR-RAND reuse these backbones
// and re-allocate costs by the NLP (core/energy_allocation.hpp).
#pragma once

#include "core/eedcb.hpp"
#include "core/schedule.hpp"
#include "support/rng.hpp"
#include "tvg/dts.hpp"

namespace tveg::core {

/// Baseline relay-selection rule.
enum class BaselineRule {
  kGreedy,  ///< most newly-informed neighbors, ties by lower cost
  kRandom,  ///< uniform among eligible informed nodes
};

/// Options for the baseline sweep.
struct BaselineOptions {
  BaselineRule rule = BaselineRule::kGreedy;
  /// Seed for kRandom.
  std::uint64_t seed = 1;
};

/// Runs GREED or RAND on `instance` over a caller-provided DTS (sweeps reuse
/// one DTS).
SchedulerResult run_baseline(const TmedbInstance& instance,
                             const DiscreteTimeSet& dts,
                             const BaselineOptions& options = {});

}  // namespace tveg::core
