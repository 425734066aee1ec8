// Inclusive-range integer draws for randomized tests.
#pragma once

#include <cstdint>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace tveg::oracle {

/// Uniform integer in [lo, hi] inclusive: one Rng::uniform_int(n) draw.
inline std::int64_t uniform_in(support::Rng& rng, std::int64_t lo,
                               std::int64_t hi) {
  TVEG_REQUIRE(lo <= hi, "uniform_in(lo, hi) needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(rng.uniform_int(span));
}

}  // namespace tveg::oracle
