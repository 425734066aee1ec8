#include "channel/ed_function.hpp"

#include <cmath>

#include "channel/special_functions.hpp"
#include "support/assert.hpp"

namespace tveg::channel {

namespace {

void check_target(double target_failure) {
  TVEG_REQUIRE(target_failure > 0 && target_failure < 1,
               "target failure probability must lie in (0, 1)");
}

/// Monotone bisection for min { w : φ(w) <= target }. φ must be
/// non-increasing; the search brackets upward from `hint` first.
Cost bisect_min_cost(const EdFunction& f, double target, Cost hint) {
  Cost hi = hint > 0 ? hint : 1.0;
  int doublings = 0;
  while (f.failure_probability(hi) > target) {
    hi *= 2.0;
    if (++doublings > 400) return support::kInf;  // target unattainable
  }
  Cost lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const Cost mid = 0.5 * (lo + hi);
    if (f.failure_probability(mid) <= target) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo <= 1e-15 * hi) break;
  }
  return hi;
}

}  // namespace

double EdFunction::failure_derivative(Cost w) const {
  TVEG_REQUIRE(w > 0, "derivative requires positive cost");
  const double h = std::max(1e-8 * w, 1e-30);
  const double lo = w > h ? w - h : w / 2;
  return (failure_probability(w + h) - failure_probability(lo)) / (w + h - lo);
}

StepEdFunction::StepEdFunction(Cost threshold) : threshold_(threshold) {
  TVEG_REQUIRE(threshold > 0, "step threshold must be positive");
}

double StepEdFunction::failure_probability(Cost w) const {
  TVEG_REQUIRE(w >= 0, "cost must be non-negative");
  return w >= threshold_ ? 0.0 : 1.0;
}

Cost StepEdFunction::min_cost_for(double target_failure) const {
  check_target(target_failure);
  return threshold_;  // any target < 1 requires exactly the threshold
}

RayleighEdFunction::RayleighEdFunction(double beta) : beta_(beta) {
  TVEG_REQUIRE(beta > 0, "Rayleigh beta must be positive");
}

double RayleighEdFunction::failure_probability(Cost w) const {
  TVEG_REQUIRE(w >= 0, "cost must be non-negative");
  if (w == 0.0) return 1.0;
  return 1.0 - std::exp(-beta_ / w);
}

Cost RayleighEdFunction::min_cost_for(double target_failure) const {
  check_target(target_failure);
  return beta_ / std::log(1.0 / (1.0 - target_failure));
}

double RayleighEdFunction::failure_derivative(Cost w) const {
  TVEG_REQUIRE(w > 0, "derivative requires positive cost");
  return -std::exp(-beta_ / w) * beta_ / (w * w);
}

NakagamiEdFunction::NakagamiEdFunction(double m, double beta)
    : m_(m), beta_(beta) {
  TVEG_REQUIRE(m >= 0.5, "Nakagami shape must be >= 0.5");
  TVEG_REQUIRE(beta > 0, "Nakagami beta must be positive");
}

double NakagamiEdFunction::failure_probability(Cost w) const {
  TVEG_REQUIRE(w >= 0, "cost must be non-negative");
  if (w == 0.0) return 1.0;
  // SNR ~ Gamma(m, σ²/(m·N0)); failure = P(SNR < γ_th) = P(m, m·β/w).
  return regularized_gamma_p(m_, m_ * beta_ / w);
}

Cost NakagamiEdFunction::min_cost_for(double target_failure) const {
  check_target(target_failure);
  return bisect_min_cost(*this, target_failure, beta_);
}

RicianEdFunction::RicianEdFunction(double k_factor, double beta)
    : k_(k_factor), beta_(beta) {
  TVEG_REQUIRE(k_factor >= 0, "Rician K-factor must be non-negative");
  TVEG_REQUIRE(beta > 0, "Rician beta must be positive");
}

double RicianEdFunction::failure_probability(Cost w) const {
  TVEG_REQUIRE(w >= 0, "cost must be non-negative");
  if (w == 0.0) return 1.0;
  const double a = std::sqrt(2.0 * k_);
  const double b = std::sqrt(2.0 * (k_ + 1.0) * beta_ / w);
  return 1.0 - marcum_q1(a, b);
}

Cost RicianEdFunction::min_cost_for(double target_failure) const {
  check_target(target_failure);
  return bisect_min_cost(*this, target_failure, beta_);
}

}  // namespace tveg::channel
