// Time-span partitions (paper Def. 5.1): the machinery behind adjacent
// partitions and the DTS.
#pragma once

#include <initializer_list>
#include <vector>

#include "tvg/types.hpp"

namespace tveg {

/// A partition of the time span [0, horizon]: a strictly increasing sequence
/// of time points t_0 = 0 < t_1 < ... < t_m = horizon. Points closer than
/// `tolerance` are considered identical (time points arise from +τ floating
/// arithmetic).
class Partition {
 public:
  /// The trivial partition {0, horizon}.
  Partition(Time horizon, double tolerance = 1e-9);
  /// Builds from arbitrary points; 0 and horizon are inserted, points outside
  /// [0, horizon] are discarded, near-duplicates are merged.
  Partition(Time horizon, std::vector<Time> points, double tolerance = 1e-9);
  /// Braced-list convenience; without it, `Partition(h, {3.0})` would bind
  /// the single-element list to the tolerance overload above.
  Partition(Time horizon, std::initializer_list<Time> points,
            double tolerance = 1e-9)
      : Partition(horizon, std::vector<Time>(points), tolerance) {}

  Time horizon() const { return horizon_; }
  double tolerance() const { return tolerance_; }
  const std::vector<Time>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

 private:
  Time horizon_;
  double tolerance_;
  std::vector<Time> points_;
};

}  // namespace tveg
