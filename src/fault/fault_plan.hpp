// Deterministic fault injection (robustness subsystem, layer 1).
//
// A FaultPlan describes how reality deviates from the contact-trace model a
// schedule was computed on: whole edges vanish (dropout), nodes go dark for
// a window (churn), contacts end early (truncation) or shift (jitter), the
// channel demands more energy than modeled (cost inflation), and individual
// scheduled transmissions fail outright (transmission failure, applied by
// the Monte-Carlo simulator via TxFaultModel).
//
// Injection is *deterministic*: apply_plan(trace, plan) draws every fault
// from Rng(plan.seed) over the trace's pairs/contacts in their canonical
// (sorted) order, so the same (trace, plan) always yields the same faulted
// trace and the same FaultLog — replayable and auditable. Every injected
// event is also counted in the obs registry under tveg.fault.injected.*.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::fault {

/// One fault family. Values are stable (they appear in serialized logs).
enum class FaultKind {
  kEdgeDropout,        ///< a node pair loses every contact
  kNodeChurn,          ///< a node loses all contacts inside an outage window
  kContactTruncation,  ///< one contact keeps only a prefix of its duration
  kContactJitter,      ///< one contact's interval shifts in time
  kCostInflation,      ///< one contact's distance grows (raises energy demand)
  kTxFailure,          ///< a scheduled transmission is forced to fail (sim)
};

const char* fault_kind_name(FaultKind kind);

/// One injected fault, in the order it was drawn.
struct FaultEvent {
  FaultKind kind;
  NodeId a = kNoNode;    ///< affected node (churn) or pair endpoint
  NodeId b = kNoNode;    ///< second pair endpoint (kNoNode for churn)
  Time t0 = 0;           ///< affected interval start
  Time t1 = 0;           ///< affected interval end
  double magnitude = 0;  ///< shift seconds / kept fraction / inflation factor

  bool operator==(const FaultEvent&) const = default;
};

/// The audit trail of one apply_plan run.
struct FaultLog {
  std::vector<FaultEvent> events;

  /// Byte-stable text rendering (one event per line, fixed formatting):
  /// equal logs serialize identically, which is what the deterministic-
  /// replay test asserts.
  std::string serialize() const;
};

/// A seedable fault plan. All probabilities are per-draw in [0, 1]; a
/// default-constructed plan injects nothing.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// P(a pair loses every contact).
  double edge_dropout = 0;
  /// P(a node suffers one outage window).
  double node_churn = 0;
  /// Outage window length as a fraction of the horizon.
  double churn_span = 0.25;
  /// P(a contact is truncated) and the duration fraction it keeps.
  double contact_truncation = 0;
  double truncation_keep = 0.5;
  /// Max absolute contact shift in seconds (uniform in [-j, +j]; 0 = off).
  double contact_jitter_s = 0;
  /// P(a contact's distance is inflated) and the inflation factor.
  double cost_inflation = 0;
  double cost_inflation_factor = 1.5;
  /// P(a scheduled transmission is forced to fail) — consumed by
  /// TxFaultModel / the Monte-Carlo simulator, not by apply_plan.
  double tx_failure = 0;

  /// True when any fault family is active.
  bool any() const;

  /// Parses "key=value,key=value" (e.g. "seed=7,edge_dropout=0.2,jitter=5").
  /// Keys: seed, edge_dropout, node_churn, churn_span, truncation,
  /// truncation_keep, jitter, cost_inflation, inflation_factor, tx_failure.
  static support::Result<FaultPlan> parse(const std::string& spec);
};

/// A faulted trace plus the log of what was injected.
struct FaultedTrace {
  trace::ContactTrace trace;
  FaultLog log;
};

/// Applies the plan's topology faults to `input` deterministically (same
/// input + same plan → identical output and log). The returned trace keeps
/// the input's node count and horizon even when faults silence nodes.
FaultedTrace apply_plan(const trace::ContactTrace& input,
                        const FaultPlan& plan);

/// Deterministic per-(trial, transmission) forced-failure model, the
/// Monte-Carlo arm of FaultPlan::tx_failure. Stateless: the decision is a
/// counter-based hash of (seed, trial, tx index), so simulator threads can
/// query it concurrently and replays are exact.
class TxFaultModel {
 public:
  TxFaultModel() = default;
  TxFaultModel(std::uint64_t seed, double probability)
      : seed_(seed), probability_(probability) {}

  bool active() const { return probability_ > 0; }
  double probability() const { return probability_; }

  /// True when transmission `tx_index` of trial `trial` is forced to fail.
  bool fails(std::size_t trial, std::size_t tx_index) const;

 private:
  std::uint64_t seed_ = 0;
  double probability_ = 0;
};

}  // namespace tveg::fault
