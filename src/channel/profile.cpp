#include "channel/profile.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace tveg::channel {

void PiecewiseConstantProfile::add(Time t, double value) {
  TVEG_REQUIRE(samples_.empty() || t > samples_.back().t,
               "profile samples must be strictly increasing in time");
  samples_.push_back({t, value});
}

double PiecewiseConstantProfile::at(Time t) const {
  return samples_[segment(t)].value;
}

std::size_t PiecewiseConstantProfile::segment(Time t) const {
  TVEG_REQUIRE(!samples_.empty(), "querying an empty profile");
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](Time value, const Sample& s) { return value < s.t; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>((it - 1) - samples_.begin());
}

std::vector<Time> PiecewiseConstantProfile::breakpoints() const {
  std::vector<Time> out;
  for (std::size_t i = 1; i < samples_.size(); ++i)
    out.push_back(samples_[i].t);
  return out;
}

}  // namespace tveg::channel
