// Point-membership read of a DiscreteTimeSet for tests.
#pragma once

#include <algorithm>
#include <cmath>

#include "tvg/dts.hpp"

namespace tveg::oracle {

/// True if t coincides (within the set's tolerance) with one of node i's
/// points.
inline bool dts_has_point(const DiscreteTimeSet& dts, NodeId i, Time t) {
  const auto& pts = dts.points(i);
  const auto it = std::lower_bound(pts.begin(), pts.end(), t - dts.tolerance());
  return it != pts.end() && std::abs(*it - t) <= dts.tolerance();
}

}  // namespace tveg::oracle
