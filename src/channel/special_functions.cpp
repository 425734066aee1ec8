#include "channel/special_functions.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace tveg::channel {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;

/// Series expansion of P(a, x), converges quickly for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Lentz continued fraction for Q(a, x), converges quickly for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  TVEG_REQUIRE(a > 0, "gamma shape must be positive");
  TVEG_REQUIRE(x >= 0, "gamma argument must be non-negative");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double marcum_q1(double a, double b) {
  TVEG_REQUIRE(a >= 0 && b >= 0, "Marcum Q arguments must be non-negative");
  if (b == 0.0) return 1.0;
  // Q1(a, b) = 1 - F(b²) where F is the CDF of a noncentral chi-square with
  // 2 degrees of freedom and noncentrality a²: a Poisson(a²/2) mixture of
  // central chi-squares, each reducing to a regularized gamma.
  const double lambda = a * a / 2.0;
  const double x = b * b / 2.0;
  double log_poisson = -lambda;  // log of e^{-λ} λ^k / k! at k = 0
  double cdf = 0.0;
  const int max_k =
      static_cast<int>(lambda + 12.0 * std::sqrt(lambda + 1.0)) + 30;
  for (int k = 0; k <= max_k; ++k) {
    cdf += std::exp(log_poisson) *
           regularized_gamma_p(static_cast<double>(k) + 1.0, x);
    log_poisson += std::log(lambda) - std::log(static_cast<double>(k) + 1.0);
    if (lambda == 0.0) break;  // only the k = 0 term exists
  }
  return std::fmin(std::fmax(1.0 - cdf, 0.0), 1.0);
}

}  // namespace tveg::channel
