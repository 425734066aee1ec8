#include "trace/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace tveg::trace {

double hill_tail_exponent(std::vector<double> samples, double tail_fraction) {
  TVEG_REQUIRE(tail_fraction > 0 && tail_fraction <= 1,
               "tail fraction must lie in (0, 1]");
  std::vector<double> positive;
  for (double x : samples)
    if (x > 0) positive.push_back(x);
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(tail_fraction * static_cast<double>(positive.size())));
  if (k < 3 || positive.size() < 4) return 0;
  std::sort(positive.begin(), positive.end(), std::greater<>());
  // α̂ = k / Σ_{i<k} ln(x_(i) / x_(k)) over the k largest order statistics.
  const double pivot = positive[k - 1];
  double log_sum = 0;
  for (std::size_t i = 0; i + 1 < k; ++i)
    log_sum += std::log(positive[i] / pivot);
  if (log_sum <= 0) return 0;
  return static_cast<double>(k - 1) / log_sum;
}

std::vector<double> degree_timeline(const ContactTrace& trace,
                                    std::size_t samples) {
  TVEG_REQUIRE(samples > 1, "need at least two samples");
  std::vector<double> out(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const Time t = trace.horizon() * static_cast<double>(i) /
                   static_cast<double>(samples - 1);
    out[i] = trace.average_degree(std::min(t, trace.horizon() * (1 - 1e-12)));
  }
  return out;
}

TraceSummary summarize(const ContactTrace& trace, std::size_t degree_samples,
                       double tail_fraction) {
  TraceSummary s;
  s.contacts = trace.contact_count();
  s.pairs = trace.pair_count();

  support::RunningStat durations;
  for (const Contact& c : trace.contacts()) durations.add(c.end - c.start);
  if (!durations.empty()) s.mean_contact_duration = durations.mean();

  const auto gaps = trace.inter_contact_times();
  support::RunningStat gap_stat;
  for (double g : gaps) gap_stat.add(g);
  if (!gap_stat.empty()) s.mean_inter_contact = gap_stat.mean();
  s.inter_contact_tail_exponent = hill_tail_exponent(gaps, tail_fraction);

  support::RunningStat degree;
  for (double d : degree_timeline(trace, degree_samples)) degree.add(d);
  if (!degree.empty()) {
    s.mean_degree = degree.mean();
    s.max_degree = degree.max();
  }
  return s;
}

}  // namespace tveg::trace
