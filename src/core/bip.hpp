// Temporal BIP — Broadcast Incremental Power (Wieselthier/Nguyen/Ephremides),
// the classic minimum-energy broadcast heuristic for static wireless
// networks (the lineage of the paper's refs [1]–[4]), lifted to TVEGs.
//
// BIP grows a broadcast structure one node at a time, always paying the
// minimum *incremental* power: either raise an already-scheduled
// transmission to the next discrete-cost-set level (incremental cost
// w^{k+1} − w^k — the signature move exploiting the broadcast nature), or
// start a new transmission from an informed node at one of its DTS times.
// In the temporal lift, a transmission is pinned to a (relay, DTS time)
// pair, and relays must hold the packet by their transmission time.
//
// Serves as an additional literature baseline between EEDCB and GREED.
#pragma once

#include "core/eedcb.hpp"
#include "support/budget.hpp"
#include "tvg/dts.hpp"

namespace tveg::core {

/// Options for temporal BIP.
struct BipOptions {
  /// Unified solve budget, polled once per grown node; expiry raises
  /// support::TimeoutError, a fired cancel token support::CancelledError.
  /// Default: unlimited, non-cancellable.
  support::Budget budget;
};

/// Runs temporal BIP on `instance` (broadcast-only, like the baselines) over
/// a caller-provided DTS.
SchedulerResult run_bip(const TmedbInstance& instance,
                        const DiscreteTimeSet& dts,
                        const BipOptions& options = {});

}  // namespace tveg::core
