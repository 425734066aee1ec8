#include "tvg/interval_set.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace tveg {

void IntervalSet::add(Time start, Time end) {
  TVEG_REQUIRE(start < end, "interval must have positive length");
  intervals_.push_back({start, end});
  normalize();
}

void IntervalSet::normalize() {
  if (intervals_.empty()) return;
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> merged;
  merged.reserve(intervals_.size());
  merged.push_back(intervals_.front());
  for (std::size_t i = 1; i < intervals_.size(); ++i) {
    Interval& last = merged.back();
    const Interval& cur = intervals_[i];
    if (cur.start <= last.end) {
      last.end = std::max(last.end, cur.end);  // overlap or touch: merge
    } else {
      merged.push_back(cur);
    }
  }
  intervals_ = std::move(merged);
}

bool IntervalSet::covers_closed(Time a, Time b) const {
  TVEG_REQUIRE(a <= b, "covers_closed needs a <= b");
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), a,
      [](Time value, const Interval& iv) { return value < iv.start; });
  if (it == intervals_.begin()) return false;
  --it;
  // The start must lie strictly inside the interval (a transmission cannot
  // begin the instant the contact ends); the end may touch the boundary.
  return a < it->end && b <= it->end;
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  std::vector<Interval> out;
  std::size_t i = 0, j = 0;
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    const Time lo = std::max(a.start, b.start);
    const Time hi = std::min(a.end, b.end);
    if (lo < hi) out.push_back({lo, hi});
    if (a.end < b.end) {
      ++i;
    } else {
      ++j;
    }
  }
  IntervalSet result;
  result.intervals_ = std::move(out);  // already sorted and disjoint
  return result;
}

}  // namespace tveg
