#include "channel/special_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tveg::channel {
namespace {

TEST(GammaP, KnownValues) {
  // P(1, x) = 1 - e^{-x}.
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(regularized_gamma_p(1.0, 2.5), 1.0 - std::exp(-2.5), 1e-12);
  // P(1/2, x) = erf(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_p(0.5, 1.0), std::erf(1.0), 1e-10);
  EXPECT_NEAR(regularized_gamma_p(0.5, 4.0), std::erf(2.0), 1e-10);
}

TEST(GammaP, Boundaries) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(regularized_gamma_p(2.0, 1e3), 1.0, 1e-12);
}

TEST(GammaP, Monotone) {
  double prev = 0;
  for (double x = 0.1; x < 20; x += 0.1) {
    const double v = regularized_gamma_p(3.0, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(GammaP, RejectsBadArguments) {
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_p(1.0, -1.0), std::invalid_argument);
}

TEST(MarcumQ1, DegenerateCases) {
  EXPECT_DOUBLE_EQ(marcum_q1(1.0, 0.0), 1.0);
  // a = 0: Q1(0, b) = exp(-b²/2) (Rayleigh tail).
  EXPECT_NEAR(marcum_q1(0.0, 1.0), std::exp(-0.5), 1e-10);
  EXPECT_NEAR(marcum_q1(0.0, 2.0), std::exp(-2.0), 1e-10);
}

TEST(MarcumQ1, MonotoneInB) {
  double prev = 1.0;
  for (double b = 0.0; b < 8.0; b += 0.25) {
    const double v = marcum_q1(2.0, b);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
}

TEST(MarcumQ1, IncreasesWithA) {
  for (double b : {0.5, 1.5, 3.0}) {
    EXPECT_LT(marcum_q1(0.5, b), marcum_q1(2.0, b));
    EXPECT_LT(marcum_q1(2.0, b), marcum_q1(5.0, b) + 1e-12);
  }
}

TEST(MarcumQ1, KnownValue) {
  // Q1(1, 1) ≈ 0.73287 (noncentral χ², 2 dof, λ = 1, at x = 1).
  EXPECT_NEAR(marcum_q1(1.0, 1.0), 0.73287, 2e-5);
  // Q1(1, 2) ≈ 0.26902.
  EXPECT_NEAR(marcum_q1(1.0, 2.0), 0.26902, 2e-5);
}

TEST(MarcumQ1, StaysInUnitInterval) {
  for (double a = 0; a <= 6; a += 0.7) {
    for (double b = 0; b <= 6; b += 0.7) {
      const double v = marcum_q1(a, b);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

}  // namespace
}  // namespace tveg::channel
