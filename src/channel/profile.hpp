// Piecewise-constant time profiles for channel parameters.
//
// The paper assumes the ED-function of an edge is unchanged over any
// transmission window [t, t+τ]; we realize that by making every channel
// parameter (distance d_{i,j,t}, hence gain and β) piecewise constant, and
// feeding the breakpoints into the adjacent partitions so that each DTS
// interval sees a constant channel (DESIGN.md, interpretive decision 5).
#pragma once

#include <vector>

#include "tvg/types.hpp"

namespace tveg::channel {

/// Right-open piecewise-constant real function of time.
/// Defined by samples (t_k, v_k): value is v_k on [t_k, t_{k+1}).
/// Queries before the first sample return the first value.
class PiecewiseConstantProfile {
 public:
  PiecewiseConstantProfile() = default;

  /// Appends a sample; times must be strictly increasing.
  void add(Time t, double value);

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  /// Value at time t.
  double at(Time t) const;

  /// Index of the sample whose value `at(t)` returns (0 for queries before
  /// the first sample). Two times with equal segment index see the same
  /// value — the index into core::Tveg's per-edge memo table.
  std::size_t segment(Time t) const;

  /// Value on segment `k` (k < size()); at(t) == value(segment(t)).
  double value(std::size_t k) const { return samples_[k].value; }

  /// All sample times after the first (the points where the value may
  /// change) — these are the partition breakpoints.
  std::vector<Time> breakpoints() const;

 private:
  struct Sample {
    Time t;
    double value;
  };
  std::vector<Sample> samples_;
};

}  // namespace tveg::channel
