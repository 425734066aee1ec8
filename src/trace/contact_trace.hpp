// Contact traces: the empirical substrate of the paper's evaluation.
//
// A contact trace is a list of (a, b, start, end, distance) records saying
// that nodes a and b were within communication range during [start, end) at
// (piecewise-constant) distance `distance`. The paper's evaluation is driven
// by the Haggle/iMote trace; this container accepts both parsed real traces
// (trace/io.hpp) and synthetic ones (trace/generators.hpp).
#pragma once

#include <vector>

#include "tvg/time_varying_graph.hpp"
#include "tvg/types.hpp"

namespace tveg::trace {

/// One contact record. `distance` is the node separation in meters during
/// the contact (constant; time-varying separations are encoded as
/// consecutive contacts of the same pair).
struct Contact {
  NodeId a;
  NodeId b;
  Time start;
  Time end;
  double distance = 1.0;

  bool operator==(const Contact&) const = default;
};

/// A validated contact trace over nodes 0..node_count-1 and [0, horizon].
class ContactTrace {
 public:
  ContactTrace(NodeId node_count, Time horizon);

  NodeId node_count() const { return node_count_; }
  Time horizon() const { return horizon_; }
  const std::vector<Contact>& contacts() const { return contacts_; }
  std::size_t contact_count() const { return contacts_.size(); }

  /// Adds one contact (endpoints normalized to a < b). Rejects self-contacts,
  /// out-of-range nodes/times, and non-positive durations or distances.
  void add(Contact c);

  /// Sorts contacts by (start, a, b); generators call this before returning.
  void sort();

  /// Restriction to the time window [lo, hi]: contacts are clipped to the
  /// window and shifted so the window starts at 0 (used by the Fig. 7
  /// windowed experiment).
  ContactTrace window(Time lo, Time hi) const;

  /// Builds the TVG induced by the contacts with latency tau.
  TimeVaryingGraph to_graph(Time tau) const;

  /// Mean inter-contact gap lengths per pair, pooled over all pairs that
  /// meet at least twice (the statistic the Haggle paper characterizes).
  std::vector<Time> inter_contact_times() const;

  /// Average node degree (contact-based, ignoring latency) at time t.
  double average_degree(Time t) const;

  /// Total number of distinct node pairs that ever meet.
  std::size_t pair_count() const;

 private:
  NodeId node_count_;
  Time horizon_;
  std::vector<Contact> contacts_;
};

}  // namespace tveg::trace
