#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <set>

#include "trace/generators.hpp"

namespace tveg::fault {
namespace {

trace::ContactTrace sample_trace(std::uint64_t seed = 1) {
  trace::SnapshotConfig cfg;
  cfg.nodes = 8;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.35;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

TEST(FaultPlan, ParsesFullSpec) {
  const auto result = FaultPlan::parse(
      "seed=7,edge_dropout=0.2,node_churn=0.1,churn_span=0.3,"
      "truncation=0.25,truncation_keep=0.4,jitter=5,"
      "cost_inflation=0.15,inflation_factor=2,tx_failure=0.05");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const FaultPlan plan = result.value();
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.edge_dropout, 0.2);
  EXPECT_DOUBLE_EQ(plan.node_churn, 0.1);
  EXPECT_DOUBLE_EQ(plan.churn_span, 0.3);
  EXPECT_DOUBLE_EQ(plan.contact_truncation, 0.25);
  EXPECT_DOUBLE_EQ(plan.truncation_keep, 0.4);
  EXPECT_DOUBLE_EQ(plan.contact_jitter_s, 5.0);
  EXPECT_DOUBLE_EQ(plan.cost_inflation, 0.15);
  EXPECT_DOUBLE_EQ(plan.cost_inflation_factor, 2.0);
  EXPECT_DOUBLE_EQ(plan.tx_failure, 0.05);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, ParseRejectsBadInput) {
  EXPECT_FALSE(FaultPlan::parse("edge_dropout=1.5").ok());
  EXPECT_FALSE(FaultPlan::parse("no_such_key=1").ok());
  EXPECT_FALSE(FaultPlan::parse("edge_dropout=abc").ok());
  EXPECT_FALSE(FaultPlan::parse("edge_dropout").ok());
  const auto result = FaultPlan::parse("tx_failure=-0.1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, support::ErrorCode::kInvalidInput);
}

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  const trace::ContactTrace input = sample_trace();
  const FaultedTrace out = apply_plan(input, plan);
  EXPECT_TRUE(out.log.events.empty());
  EXPECT_EQ(out.trace.contacts(), input.contacts());
}

TEST(FaultPlan, SameSeedAndPlanYieldByteIdenticalLog) {
  // Tentpole acceptance (a): fault injection is deterministic and the log
  // serialization is byte-stable across repeated applications.
  FaultPlan plan;
  plan.seed = 42;
  plan.edge_dropout = 0.3;
  plan.node_churn = 0.2;
  plan.contact_truncation = 0.3;
  plan.contact_jitter_s = 4.0;
  plan.cost_inflation = 0.25;

  const trace::ContactTrace input = sample_trace();
  const FaultedTrace first = apply_plan(input, plan);
  const FaultedTrace second = apply_plan(input, plan);

  ASSERT_FALSE(first.log.events.empty());
  EXPECT_EQ(first.log.events, second.log.events);
  EXPECT_EQ(first.log.serialize(), second.log.serialize());
  EXPECT_EQ(first.trace.contacts(), second.trace.contacts());
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan plan;
  plan.edge_dropout = 0.3;
  plan.contact_jitter_s = 4.0;
  const trace::ContactTrace input = sample_trace();
  plan.seed = 1;
  const std::string log1 = apply_plan(input, plan).log.serialize();
  plan.seed = 2;
  const std::string log2 = apply_plan(input, plan).log.serialize();
  EXPECT_NE(log1, log2);
}

TEST(FaultPlan, FullDropoutSilencesEveryPair) {
  FaultPlan plan;
  plan.edge_dropout = 1.0;
  const trace::ContactTrace input = sample_trace();
  const FaultedTrace out = apply_plan(input, plan);
  EXPECT_EQ(out.trace.contact_count(), 0u);
  // Node count and horizon survive even a total blackout.
  EXPECT_EQ(out.trace.node_count(), input.node_count());
  EXPECT_DOUBLE_EQ(out.trace.horizon(), input.horizon());
}

TEST(FaultPlan, TruncationShortensEveryContact) {
  FaultPlan plan;
  plan.contact_truncation = 1.0;
  plan.truncation_keep = 0.5;
  const trace::ContactTrace input = sample_trace();
  const FaultedTrace out = apply_plan(input, plan);
  ASSERT_EQ(out.trace.contact_count(), input.contact_count());
  double in_total = 0, out_total = 0;
  for (const auto& c : input.contacts()) in_total += c.end - c.start;
  for (const auto& c : out.trace.contacts()) out_total += c.end - c.start;
  EXPECT_NEAR(out_total, 0.5 * in_total, 1e-6);
}

TEST(FaultPlan, InflationRaisesDistances) {
  FaultPlan plan;
  plan.cost_inflation = 1.0;
  plan.cost_inflation_factor = 2.0;
  const trace::ContactTrace input = sample_trace();
  const FaultedTrace out = apply_plan(input, plan);
  ASSERT_EQ(out.trace.contact_count(), input.contact_count());
  for (std::size_t i = 0; i < input.contact_count(); ++i)
    EXPECT_NEAR(out.trace.contacts()[i].distance,
                2.0 * input.contacts()[i].distance, 1e-9);
}

TEST(FaultPlan, JitterKeepsContactsInsideHorizon) {
  FaultPlan plan;
  plan.contact_jitter_s = 50.0;
  const trace::ContactTrace input = sample_trace();
  const FaultedTrace out = apply_plan(input, plan);
  for (const auto& c : out.trace.contacts()) {
    EXPECT_GE(c.start, 0.0);
    EXPECT_LE(c.end, input.horizon() + 1e-9);
    EXPECT_LT(c.start, c.end);
  }
}

TEST(TxFaultModel, DeterministicAndSeedSensitive) {
  const TxFaultModel model(9, 0.5);
  ASSERT_TRUE(model.active());
  std::set<std::pair<std::size_t, std::size_t>> failing;
  for (std::size_t trial = 0; trial < 50; ++trial)
    for (std::size_t k = 0; k < 20; ++k)
      if (model.fails(trial, k)) failing.insert({trial, k});
  // Re-query: decisions are a pure function of (seed, trial, index).
  for (std::size_t trial = 0; trial < 50; ++trial)
    for (std::size_t k = 0; k < 20; ++k)
      EXPECT_EQ(model.fails(trial, k), failing.count({trial, k}) != 0);
  // ~50% failure rate over 1000 draws, loose deterministic bounds.
  EXPECT_GT(failing.size(), 350u);
  EXPECT_LT(failing.size(), 650u);

  const TxFaultModel other(10, 0.5);
  std::size_t differing = 0;
  for (std::size_t trial = 0; trial < 50; ++trial)
    for (std::size_t k = 0; k < 20; ++k)
      if (other.fails(trial, k) != (failing.count({trial, k}) != 0))
        ++differing;
  EXPECT_GT(differing, 0u);
}

TEST(TxFaultModel, InactiveNeverFails) {
  const TxFaultModel model;
  EXPECT_FALSE(model.active());
  for (std::size_t k = 0; k < 100; ++k) EXPECT_FALSE(model.fails(0, k));
}

}  // namespace
}  // namespace tveg::fault
