#include "tvg/partition.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace tveg {

Partition::Partition(Time horizon, double tolerance)
    : horizon_(horizon), tolerance_(tolerance) {
  TVEG_REQUIRE(horizon > 0, "partition horizon must be positive");
  TVEG_REQUIRE(tolerance >= 0, "tolerance must be non-negative");
  points_ = {0.0, horizon};
}

Partition::Partition(Time horizon, std::vector<Time> points, double tolerance)
    : Partition(horizon, tolerance) {
  points.push_back(0.0);
  points.push_back(horizon);
  std::sort(points.begin(), points.end());
  std::vector<Time> cleaned;
  cleaned.reserve(points.size());
  for (Time t : points) {
    if (t < -tolerance_ || t > horizon_ + tolerance_) continue;
    t = std::clamp(t, 0.0, horizon_);
    if (cleaned.empty() || t - cleaned.back() > tolerance_)
      cleaned.push_back(t);
  }
  // Ensure the exact endpoints survive clamping/merging.
  cleaned.front() = 0.0;
  cleaned.back() = horizon_;
  points_ = std::move(cleaned);
}

}  // namespace tveg
