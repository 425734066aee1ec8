// Energy-demand functions (paper Sec. III-B/C).
//
// An ED-function φ maps a transmit cost w to the probability that the
// transmission FAILS to be decoded at the receiver. Property 3.1 requires:
//   (i)  φ(w) → 0 as w → ∞ (when the edge is present),
//   (ii) φ(0) = 1,
//   (iii) φ ≡ 1 when the edge is absent,
//   (iv) φ is non-increasing.
// Absence of the edge is handled at the graph layer (ρ_τ); the objects here
// model a present edge at a fixed time.
#pragma once

#include <memory>

#include "support/math.hpp"
#include "tvg/types.hpp"

namespace tveg::channel {

/// Interface for one edge-at-one-time energy-demand function.
class EdFunction {
 public:
  virtual ~EdFunction() = default;

  /// φ(w): probability of failed decoding at transmit cost w >= 0.
  virtual double failure_probability(Cost w) const = 0;

  /// Smallest cost w with φ(w) <= target_failure, or +inf when unattainable
  /// at any finite cost. target_failure ∈ (0, 1).
  virtual Cost min_cost_for(double target_failure) const = 0;

  /// dφ/dw at w > 0 (<= 0 by Property 3.1(iv)); default central difference,
  /// overridden with the closed form where available. Used by the
  /// gradient-based energy-allocation solver.
  virtual double failure_derivative(Cost w) const;

  /// True for deterministic (0/1) step functions — the static-channel model.
  virtual bool deterministic() const { return false; }
};

/// Step ED-function (Eq. 2): φ(w) = 0 iff w >= threshold, else 1.
/// The static-channel model, threshold = N0·γ_th / h_{i,j,t}.
class StepEdFunction final : public EdFunction {
 public:
  explicit StepEdFunction(Cost threshold);
  double failure_probability(Cost w) const override;
  Cost min_cost_for(double target_failure) const override;
  bool deterministic() const override { return true; }
  Cost threshold() const { return threshold_; }

 private:
  Cost threshold_;
};

/// Rayleigh fading ED-function (Eq. 5): φ(w) = 1 − exp(−β/w),
/// β = N0·γ_th·d^α.
class RayleighEdFunction final : public EdFunction {
 public:
  explicit RayleighEdFunction(double beta);
  double failure_probability(Cost w) const override;
  /// Closed form: w = β / ln(1 / (1 − target)).
  Cost min_cost_for(double target_failure) const override;
  /// Closed form: dφ/dw = −exp(−β/w)·β/w².
  double failure_derivative(Cost w) const override;
  double beta() const { return beta_; }

 private:
  double beta_;
};

/// Nakagami-m fading ED-function (paper footnote 1 extension): |h|² is
/// Gamma(m, σ²/m) distributed, so φ(w) = P(m, m·β/w) with the regularized
/// lower incomplete gamma P. m = 1 recovers Rayleigh.
class NakagamiEdFunction final : public EdFunction {
 public:
  NakagamiEdFunction(double m, double beta);
  double failure_probability(Cost w) const override;
  /// Monotone bisection (no closed form for general m).
  Cost min_cost_for(double target_failure) const override;
  double shape() const { return m_; }
  double beta() const { return beta_; }

 private:
  double m_;
  double beta_;
};

/// Rician fading ED-function (paper footnote 1 extension): a line-of-sight
/// component with Rician K-factor; φ(w) = 1 − Q1(√(2K), √(2(K+1)β/w)).
/// K = 0 recovers Rayleigh.
class RicianEdFunction final : public EdFunction {
 public:
  RicianEdFunction(double k_factor, double beta);
  double failure_probability(Cost w) const override;
  /// Monotone bisection.
  Cost min_cost_for(double target_failure) const override;
  double k_factor() const { return k_; }
  double beta() const { return beta_; }

 private:
  double k_;
  double beta_;
};

/// Channel-model selector used when materializing ED-functions from a TVEG's
/// per-edge distance profiles.
enum class ChannelModel {
  kStep,      ///< deterministic static channel (Eq. 2)
  kRayleigh,  ///< Rayleigh fading (Eq. 5)
  kNakagami,  ///< Nakagami-m fading (extension)
  kRician,    ///< Rician fading (extension)
};

}  // namespace tveg::channel
