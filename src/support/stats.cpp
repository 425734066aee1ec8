#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace tveg::support {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  max_ = std::max(max_, x);
}

double RunningStat::mean() const {
  TVEG_REQUIRE(n_ > 0, "mean of empty accumulator");
  return mean_;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::max() const {
  TVEG_REQUIRE(n_ > 0, "max of empty accumulator");
  return max_;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  TVEG_REQUIRE(!samples_.empty(), "mean of empty sample set");
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  TVEG_REQUIRE(!samples_.empty(), "quantile of empty sample set");
  TVEG_REQUIRE(q >= 0.0 && q <= 1.0, "quantile parameter must be in [0, 1]");
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  TVEG_REQUIRE(hi > lo, "histogram range must be non-empty");
  TVEG_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_center(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(i) + 0.5) * width;
}

std::vector<double> Histogram::ccdf() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  std::size_t tail = total_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(tail) / static_cast<double>(total_);
    tail -= counts_[i];
  }
  return out;
}

}  // namespace tveg::support
