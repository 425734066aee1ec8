#include "channel/ed_function.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

namespace tveg::channel {
namespace {

TEST(StepEdFunction, IsStepAtThreshold) {
  StepEdFunction f(2.0);
  EXPECT_DOUBLE_EQ(f.failure_probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.failure_probability(1.999), 1.0);
  EXPECT_DOUBLE_EQ(f.failure_probability(2.0), 0.0);
  EXPECT_DOUBLE_EQ(f.failure_probability(100.0), 0.0);
  EXPECT_TRUE(f.deterministic());
}

TEST(StepEdFunction, MinCostIsThreshold) {
  StepEdFunction f(3.5);
  EXPECT_DOUBLE_EQ(f.min_cost_for(0.01), 3.5);
  EXPECT_DOUBLE_EQ(f.min_cost_for(0.5), 3.5);
}

TEST(RayleighEdFunction, MatchesFormula) {
  RayleighEdFunction f(2.0);
  EXPECT_DOUBLE_EQ(f.failure_probability(0.0), 1.0);
  EXPECT_NEAR(f.failure_probability(1.0), 1.0 - std::exp(-2.0), 1e-12);
  EXPECT_NEAR(f.failure_probability(4.0), 1.0 - std::exp(-0.5), 1e-12);
  EXPECT_FALSE(f.deterministic());
}

TEST(RayleighEdFunction, MinCostClosedForm) {
  RayleighEdFunction f(2.0);
  const double eps = 0.01;
  const Cost w = f.min_cost_for(eps);
  EXPECT_NEAR(f.failure_probability(w), eps, 1e-12);
  EXPECT_NEAR(w, 2.0 / std::log(1.0 / 0.99), 1e-9);
}

TEST(RayleighEdFunction, DerivativeClosedFormMatchesNumeric) {
  RayleighEdFunction f(3.0);
  for (double w : {0.5, 1.0, 2.0, 10.0}) {
    const double h = 1e-6 * w;
    const double numeric =
        (f.failure_probability(w + h) - f.failure_probability(w - h)) /
        (2 * h);
    EXPECT_NEAR(f.failure_derivative(w), numeric, 1e-6);
    EXPECT_LE(f.failure_derivative(w), 0.0);
  }
}

TEST(NakagamiEdFunction, ShapeOneIsRayleigh) {
  NakagamiEdFunction nak(1.0, 2.0);
  RayleighEdFunction ray(2.0);
  for (double w : {0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(nak.failure_probability(w), ray.failure_probability(w), 1e-10);
}

TEST(NakagamiEdFunction, HigherShapeIsSharper) {
  // More diversity (larger m) → less fading → lower failure at ample power,
  // higher failure at starved power.
  NakagamiEdFunction m1(1.0, 1.0), m4(4.0, 1.0);
  EXPECT_LT(m4.failure_probability(10.0), m1.failure_probability(10.0));
  EXPECT_GT(m4.failure_probability(0.5), m1.failure_probability(0.5));
}

TEST(NakagamiEdFunction, MinCostBisectionIsTight) {
  NakagamiEdFunction f(2.5, 1.7);
  const double eps = 0.05;
  const Cost w = f.min_cost_for(eps);
  EXPECT_NEAR(f.failure_probability(w), eps, 1e-9);
}

TEST(RicianEdFunction, ZeroKIsRayleigh) {
  RicianEdFunction ric(0.0, 2.0);
  RayleighEdFunction ray(2.0);
  for (double w : {0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(ric.failure_probability(w), ray.failure_probability(w), 1e-8);
}

TEST(RicianEdFunction, LineOfSightHelps) {
  RicianEdFunction k0(0.0, 1.0), k5(5.0, 1.0);
  EXPECT_LT(k5.failure_probability(5.0), k0.failure_probability(5.0));
}

TEST(RicianEdFunction, MinCostBisectionIsTight) {
  RicianEdFunction f(3.0, 1.0);
  const double eps = 0.01;
  const Cost w = f.min_cost_for(eps);
  EXPECT_NEAR(f.failure_probability(w), eps, 1e-7);
}

TEST(EdFunction, DefaultNumericDerivative) {
  // Nakagami has no closed-form override → exercises the base-class
  // central difference.
  NakagamiEdFunction f(2.0, 1.0);
  const double d = f.failure_derivative(1.0);
  EXPECT_LT(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST(EdFunction, ConstructionGuards) {
  EXPECT_THROW(StepEdFunction(0.0), std::invalid_argument);
  EXPECT_THROW(RayleighEdFunction(-1.0), std::invalid_argument);
  EXPECT_THROW(NakagamiEdFunction(0.3, 1.0), std::invalid_argument);
  EXPECT_THROW(RicianEdFunction(-0.1, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property 3.1 as a parameterized property suite over all implementations.
// ---------------------------------------------------------------------------

using EdFactory = std::function<std::unique_ptr<EdFunction>()>;

struct EdCase {
  const char* name;
  EdFactory make;
};

// GoogleTest prints each parameter into the listed test name; printing the
// model name keeps those names stable. The default printer would emit the
// string pointer and the std::function bytes, which move with ASLR.
void PrintTo(const EdCase& c, std::ostream* os) { *os << c.name; }

class EdFunctionProperty : public ::testing::TestWithParam<EdCase> {};

TEST_P(EdFunctionProperty, VanishesAtHighPower) {
  const auto f = GetParam().make();
  // Property 3.1(i): φ(w) → 0 as w → ∞. The heaviest fading model here
  // (Nakagami m = 1/2) decays like w^{-1/2}, hence the loose threshold.
  EXPECT_LT(f->failure_probability(1e9), 1e-4);
}

TEST_P(EdFunctionProperty, CertainFailureAtZeroPower) {
  const auto f = GetParam().make();
  // Property 3.1(ii): φ(0) = 1.
  EXPECT_DOUBLE_EQ(f->failure_probability(0.0), 1.0);
}

TEST_P(EdFunctionProperty, NonIncreasing) {
  const auto f = GetParam().make();
  // Property 3.1(iv).
  double prev = 1.0;
  for (double w = 0.0; w <= 20.0; w += 0.25) {
    const double v = f->failure_probability(w);
    EXPECT_LE(v, prev + 1e-9) << "at w=" << w;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

TEST_P(EdFunctionProperty, MinCostInverseConsistent) {
  const auto f = GetParam().make();
  for (double target : {0.5, 0.1, 0.01}) {
    const Cost w = f->min_cost_for(target);
    ASSERT_TRUE(std::isfinite(w));
    EXPECT_LE(f->failure_probability(w), target + 1e-7);
    if (!f->deterministic() && w > 1e-9) {
      // Just below the minimum cost the target must be violated.
      EXPECT_GT(f->failure_probability(w * 0.999), target - 1e-7);
    }
  }
}

TEST_P(EdFunctionProperty, RejectsNegativeCost) {
  const auto f = GetParam().make();
  EXPECT_THROW(f->failure_probability(-1.0), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EdFunctionProperty,
    ::testing::Values(
        EdCase{"step", [] { return std::make_unique<StepEdFunction>(2.0); }},
        EdCase{"rayleigh",
               [] { return std::make_unique<RayleighEdFunction>(1.5); }},
        EdCase{"nakagami_half",
               [] { return std::make_unique<NakagamiEdFunction>(0.5, 1.5); }},
        EdCase{"nakagami_3",
               [] { return std::make_unique<NakagamiEdFunction>(3.0, 1.5); }},
        EdCase{"rician_1",
               [] { return std::make_unique<RicianEdFunction>(1.0, 1.5); }},
        EdCase{"rician_6",
               [] { return std::make_unique<RicianEdFunction>(6.0, 1.5); }}),
    [](const auto& name_info) { return std::string(name_info.param.name); });

}  // namespace
}  // namespace tveg::channel
