// Special functions needed by the Nakagami-m and Rician ED-functions
// (paper footnote 1): regularized incomplete gamma and the first-order
// Marcum Q function. Self-contained implementations — the library has no
// external math dependencies.
#pragma once

namespace tveg::channel {

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0,
/// x >= 0. Series expansion for x < a + 1, continued fraction otherwise;
/// absolute accuracy ~1e-12.
double regularized_gamma_p(double a, double x);

/// First-order Marcum Q function Q1(a, b) = P(X > b) for a Rician envelope;
/// computed by the canonical series with numerically-stable term recurrence.
double marcum_q1(double a, double b);

}  // namespace tveg::channel
