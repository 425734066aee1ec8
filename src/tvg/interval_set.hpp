// Disjoint-interval algebra over continuous time.
//
// An IntervalSet is a normalized (sorted, disjoint, non-empty) union of
// half-open intervals [start, end). It is the representation of the paper's
// presence function ρ(e, ·) for one edge: ρ(e,t) = 1 iff t lies in the set.
#pragma once

#include <vector>

#include "tvg/types.hpp"

namespace tveg {

/// One half-open interval [start, end); invariant start < end.
struct Interval {
  Time start;
  Time end;

  Time length() const { return end - start; }
  bool contains(Time t) const { return start <= t && t < end; }
  bool operator==(const Interval&) const = default;
};

/// Normalized union of disjoint half-open intervals, the presence set of an
/// edge over the time span.
class IntervalSet {
 public:
  /// Adds [start, end), merging with any overlapping or touching intervals.
  /// Empty or inverted inputs are rejected.
  void add(Time start, Time end);

  bool empty() const { return intervals_.empty(); }
  std::size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// ρ_τ-style query: true iff the closed interval [a, b] lies inside the
  /// closure of one member interval (b may equal a member's right endpoint —
  /// a transmission may finish exactly when the contact ends, but may not
  /// start then). covers_closed(t, t) is the presence ρ(e, t).
  bool covers_closed(Time a, Time b) const;

  /// Set intersection.
  IntervalSet intersect(const IntervalSet& other) const;

  bool operator==(const IntervalSet&) const = default;

 private:
  void normalize();
  std::vector<Interval> intervals_;
};

}  // namespace tveg
