#include "trace/stats.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "trace/generators.hpp"

namespace tveg::trace {
namespace {

TEST(HillEstimator, RecoversParetoShape) {
  support::Rng rng(7);
  for (double alpha : {1.2, 1.5, 2.5}) {
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) samples.push_back(rng.pareto(10.0, alpha));
    const double est = hill_tail_exponent(samples, 0.3);
    EXPECT_NEAR(est, alpha, 0.15 * alpha) << "alpha " << alpha;
  }
}

TEST(HillEstimator, TooFewSamplesGiveZero) {
  EXPECT_DOUBLE_EQ(hill_tail_exponent({1.0, 2.0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(hill_tail_exponent({}, 0.5), 0.0);
}

TEST(HillEstimator, IgnoresNonPositiveSamples) {
  support::Rng rng(9);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.pareto(5.0, 2.0));
  samples.push_back(0.0);
  samples.push_back(-3.0);
  EXPECT_GT(hill_tail_exponent(samples, 0.3), 1.0);
}

TEST(HillEstimator, RejectsBadFraction) {
  EXPECT_THROW(hill_tail_exponent({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(hill_tail_exponent({1.0}, 1.5), std::invalid_argument);
}

TEST(DegreeTimeline, MatchesPointQueries) {
  ContactTrace t(4, 100.0);
  t.add({0, 1, 0.0, 50.0, 1.0});
  t.add({2, 3, 50.0, 100.0, 1.0});
  const auto timeline = degree_timeline(t, 11);
  ASSERT_EQ(timeline.size(), 11u);
  EXPECT_DOUBLE_EQ(timeline[0], 0.5);   // t = 0
  EXPECT_DOUBLE_EQ(timeline[10], 0.5);  // just before the horizon
}

TEST(Summarize, HaggleLikeTraceLooksHaggleLike) {
  HaggleLikeConfig cfg;
  cfg.nodes = 30;
  cfg.horizon = 17000;
  cfg.pareto_shape = 1.5;
  cfg.activation_ramp_end = 500;
  cfg.seed = 11;
  const auto trace = generate_haggle_like(cfg);
  const TraceSummary s = summarize(trace);
  EXPECT_EQ(s.contacts, trace.contact_count());
  EXPECT_EQ(s.pairs, trace.pair_count());
  EXPECT_GT(s.mean_contact_duration, 0.0);
  EXPECT_GT(s.mean_inter_contact, cfg.pareto_scale);
  EXPECT_GT(s.mean_degree, 0.0);
  EXPECT_GE(s.max_degree, s.mean_degree);
  // The generator's signature statistic: heavy inter-contact tail. The
  // horizon truncates long gaps, biasing Hill upward; accept a loose band.
  EXPECT_GT(s.inter_contact_tail_exponent, 0.8);
  EXPECT_LT(s.inter_contact_tail_exponent, 4.0);
}

TEST(Summarize, EmptyishTraceIsSafe) {
  ContactTrace t(3, 10.0);
  t.add({0, 1, 0.0, 1.0, 1.0});
  const TraceSummary s = summarize(t, 10);
  EXPECT_EQ(s.contacts, 1u);
  EXPECT_DOUBLE_EQ(s.mean_inter_contact, 0.0);
  EXPECT_DOUBLE_EQ(s.inter_contact_tail_exponent, 0.0);
}

}  // namespace
}  // namespace tveg::trace
