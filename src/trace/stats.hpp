// Trace statistics: the quantities used to characterize contact traces in
// the opportunistic-networking literature (and to check that the synthetic
// Haggle-like generator actually is Haggle-like): inter-contact power-law
// tails, contact durations, degree timelines, and per-node activity.
#pragma once

#include <vector>

#include "trace/contact_trace.hpp"

namespace tveg::trace {

/// Summary statistics of one trace.
struct TraceSummary {
  std::size_t contacts = 0;
  std::size_t pairs = 0;
  double mean_contact_duration = 0;
  double mean_inter_contact = 0;
  /// Hill estimator of the inter-contact tail exponent (the Pareto shape
  /// the Haggle measurements report as ≈1.5); 0 when too few samples.
  double inter_contact_tail_exponent = 0;
  double mean_degree = 0;  ///< time-averaged node degree
  double max_degree = 0;
};

/// Computes the summary. `degree_samples` controls the timeline resolution;
/// `tail_fraction` is the upper-order-statistics share used by the Hill
/// estimator.
TraceSummary summarize(const ContactTrace& trace,
                       std::size_t degree_samples = 200,
                       double tail_fraction = 0.25);

/// Average degree sampled at `samples` uniform times over the horizon.
std::vector<double> degree_timeline(const ContactTrace& trace,
                                    std::size_t samples);

/// Hill estimator of a power-law tail exponent from raw samples: uses the
/// ⌈tail_fraction·n⌉ largest values. Returns 0 when fewer than 3 tail
/// samples are available.
double hill_tail_exponent(std::vector<double> samples, double tail_fraction);

}  // namespace tveg::trace
