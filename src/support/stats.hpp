// Streaming statistics and small histogram utilities used by the
// simulation harness and the benchmark drivers.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace tveg::support {

/// Welford streaming accumulator: mean / variance / max without storing
/// samples.
class RunningStat {
 public:
  /// Adds one observation.
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  /// Unbiased sample variance (0 when fewer than two samples).
  double variance() const;
  double stddev() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores samples; supports exact quantiles. For modest sample counts
/// (Monte-Carlo trials, sweep points), exactness beats sketching.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  /// Linear-interpolated quantile, q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// boundary bins. Used for inter-contact-time CCDFs in trace statistics.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  /// Center of bin i.
  double bin_center(std::size_t i) const;
  /// Empirical complementary CDF evaluated at bin edges.
  std::vector<double> ccdf() const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace tveg::support
