// Unit tests for the independent certifier itself: strict schedule parsing,
// each feasibility condition on a hand-computed line trace, the tau = 0
// non-stop-journey fixpoint, and the JSON verdict shape. The solver-facing
// acceptance gate lives in certify_sweep_test.cpp; the CLI-level broken
// corpus is pinned under tests/certify/corpus/.
#include "tools/certify/certify.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/math.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::certify {
namespace {

/// The verdict's check with this id; nullptr when absent.
const Check* find_check(const Verdict& v, const std::string& id) {
  for (const Check& c : v.checks)
    if (c.id == id) return &c;
  return nullptr;
}

/// 0 -1- 1 -2- 2 -1- 3 with staggered windows plus a weak direct 0-3
/// contact. Unit radio + step channel: decoding needs w >= d^2.
trace::ContactTrace line_trace() {
  trace::ContactTrace t(4, 100.0);
  t.add({0, 1, 0.0, 40.0, 1.0});
  t.add({1, 2, 10.0, 60.0, 2.0});
  t.add({2, 3, 30.0, 100.0, 1.0});
  t.add({0, 3, 0.0, 5.0, 4.0});
  t.sort();
  return t;
}

Options unit_options() {
  Options opt;
  opt.deadline = 50.0;
  opt.epsilon = 0.01;
  opt.noise_density = 1.0;
  opt.decoding_threshold_db = 0.0;
  opt.path_loss_exponent = 2.0;
  return opt;
}

/// The reference feasible schedule: 0@0 informs 1, 1@10 informs 2,
/// 2@30 informs 3, all DTS points, done by t = 30 < T = 50.
std::vector<Transmission> good_schedule() {
  return {{0, 0.0, 1.0}, {1, 10.0, 4.0}, {2, 30.0, 1.0}};
}

void expect_rejected_by(const Verdict& v, const std::string& id) {
  EXPECT_FALSE(v.feasible);
  const Check* failed = find_check(v, id);
  ASSERT_NE(failed, nullptr) << "check " << id << " missing";
  EXPECT_FALSE(failed->passed) << "expected " << id << " to fail";
}

TEST(CertifyVerify, AcceptsHandFeasibleSchedule) {
  const Verdict v = verify(line_trace(), good_schedule(), unit_options());
  EXPECT_TRUE(v.feasible) << v.json();
  EXPECT_EQ(v.exit_code(), 0);
  EXPECT_EQ(v.transmissions, 3u);
  EXPECT_DOUBLE_EQ(v.total_cost, 6.0);
  EXPECT_DOUBLE_EQ(v.max_uninformed_probability, 0.0);
}

TEST(CertifyVerify, RejectsDelayViolation) {
  // t = 60 is a DTS point of node 2 (end - tau of the 1-2 contact) so only
  // the delay window fails, not membership.
  auto s = good_schedule();
  s.push_back({2, 60.0, 1.0});
  expect_rejected_by(verify(line_trace(), s, unit_options()),
                     "within-deadline");
}

TEST(CertifyVerify, RejectsEpsViolationWhenANodeStaysUninformed) {
  const std::vector<Transmission> s = {{0, 0.0, 1.0}, {1, 10.0, 4.0}};
  const Verdict v = verify(line_trace(), s, unit_options());
  expect_rejected_by(v, "all-informed");
  EXPECT_DOUBLE_EQ(v.max_uninformed_probability, 1.0);  // node 3
}

TEST(CertifyVerify, RejectsNonDtsTransmitTime) {
  auto s = good_schedule();
  s[1].time = 17.5;  // mid-interval: adjacency unchanged, membership broken
  expect_rejected_by(verify(line_trace(), s, unit_options()),
                     "dts-membership");
}

TEST(CertifyVerify, SkipsDtsCheckWhenDisabled) {
  auto s = good_schedule();
  s[1].time = 17.5;
  Options opt = unit_options();
  opt.check_dts = false;
  const Verdict v = verify(line_trace(), s, opt);
  EXPECT_TRUE(v.feasible) << v.json();
  EXPECT_EQ(find_check(v, "dts-membership"), nullptr);
}

TEST(CertifyVerify, RejectsNegativeCost) {
  auto s = good_schedule();
  s[2].cost = -1.0;
  const Verdict v = verify(line_trace(), s, unit_options());
  EXPECT_FALSE(v.feasible);
  ASSERT_NE(find_check(v, "costs-in-range"), nullptr);
  EXPECT_FALSE(find_check(v, "costs-in-range")->passed);
}

TEST(CertifyVerify, RejectsUninformedRelay) {
  // Node 2 forwards without ever having been informed.
  const std::vector<Transmission> s = {{0, 0.0, 1.0}, {2, 30.0, 1.0}};
  const Verdict v = verify(line_trace(), s, unit_options());
  EXPECT_FALSE(v.feasible);
  ASSERT_NE(find_check(v, "relays-informed"), nullptr);
  EXPECT_FALSE(find_check(v, "relays-informed")->passed);
}

TEST(CertifyVerify, RejectsUnderpoweredTransmission) {
  auto s = good_schedule();
  s[1].cost = 3.9;  // below the d^2 = 4 step threshold: never decodes
  expect_rejected_by(verify(line_trace(), s, unit_options()), "all-informed");
}

TEST(CertifyVerify, RejectsBudgetViolation) {
  Options opt = unit_options();
  opt.budget = 5.0;  // reference schedule costs 6
  expect_rejected_by(verify(line_trace(), good_schedule(), opt),
                     "within-budget");
}

TEST(CertifyVerify, RejectsOutOfRangeRelayAsMalformed) {
  auto s = good_schedule();
  s.push_back({9, 30.0, 1.0});
  const Verdict v = verify(line_trace(), s, unit_options());
  EXPECT_FALSE(v.feasible);
  ASSERT_NE(find_check(v, "schedule-well-formed"), nullptr);
  EXPECT_FALSE(find_check(v, "schedule-well-formed")->passed);
  EXPECT_EQ(v.exit_code(), 1);
}

TEST(CertifyVerify, RejectsWMaxViolation) {
  Options opt = unit_options();
  opt.w_max = 2.0;
  const Verdict v = verify(line_trace(), good_schedule(), opt);
  EXPECT_FALSE(v.feasible);
  EXPECT_FALSE(find_check(v, "costs-in-range")->passed);
}

TEST(CertifyVerify, MulticastTargetsRestrictTheInformedSet) {
  // Only node 1 must be informed: dropping the rest of the relay chain is
  // then fine.
  Options opt = unit_options();
  opt.targets = {1};
  const std::vector<Transmission> s = {{0, 0.0, 1.0}};
  EXPECT_TRUE(verify(line_trace(), s, opt).feasible);
  opt.targets = {3};
  EXPECT_FALSE(verify(line_trace(), s, opt).feasible);
}

TEST(CertifyVerify, TauZeroNonStopJourneyChainsWithinOneInstant) {
  // At tau = 0 node 1 may forward at the same instant it is informed —
  // and schedule order within the instant must not matter.
  trace::ContactTrace t(3, 50.0);
  t.add({0, 1, 0.0, 50.0, 1.0});
  t.add({1, 2, 0.0, 50.0, 1.0});
  Options opt = unit_options();
  opt.deadline = 40.0;
  opt.check_dts = false;  // t = 10 is mid-window; this test targets the fixpoint
  const std::vector<Transmission> chain = {{1, 10.0, 1.0}, {0, 10.0, 1.0}};
  EXPECT_TRUE(verify(t, chain, opt).feasible);
}

TEST(CertifyVerify, TauZeroCircularChainIsRejected) {
  // 1 and 2 "informing each other" at one instant with no path from the
  // source must not bootstrap: the fixpoint only applies transmissions
  // whose relay is already informed.
  trace::ContactTrace t(3, 50.0);
  t.add({1, 2, 0.0, 50.0, 1.0});
  Options opt = unit_options();
  opt.deadline = 40.0;
  const std::vector<Transmission> circular = {{1, 10.0, 1.0},
                                              {2, 10.0, 1.0}};
  const Verdict v = verify(t, circular, opt);
  EXPECT_FALSE(v.feasible);
  EXPECT_FALSE(find_check(v, "relays-informed")->passed);
}

TEST(CertifyVerify, PositiveTauDelaysArrivalAcrossTheDeadline) {
  trace::ContactTrace t(2, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  Options opt = unit_options();
  opt.tau = 5.0;
  opt.deadline = 20.0;
  // Fires at 17, arrives 22 > T = 20.
  EXPECT_FALSE(verify(t, {{0, 17.0, 1.0}}, opt).feasible);
  // Fires at 10, arrives 15 <= 20. t = 10 is not an adjacency boundary
  // point, so membership is checked separately from the delay logic.
  Options no_dts = opt;
  no_dts.check_dts = false;
  EXPECT_TRUE(verify(t, {{0, 10.0, 1.0}}, no_dts).feasible);
}

TEST(CertifyVerify, PositiveTauClosurePropagatesPlusTauPoints) {
  // Node 0's window start (t = 0) propagates to node 1 as 0 + tau, and
  // 1's forward at that point reaches 2 in time.
  trace::ContactTrace t(3, 100.0);
  t.add({0, 1, 0.0, 100.0, 1.0});
  t.add({1, 2, 0.0, 100.0, 1.0});
  Options opt = unit_options();
  opt.tau = 5.0;
  opt.deadline = 50.0;
  const std::vector<Transmission> s = {{0, 0.0, 1.0}, {1, 5.0, 1.0}};
  EXPECT_TRUE(verify(t, s, opt).feasible) << verify(t, s, opt).json();
}

TEST(CertifyVerify, RayleighAllocationValidity) {
  Options opt = unit_options();
  opt.model = channel::ChannelModel::kRayleigh;
  // phi(w) = 1 - exp(-d^2/w): w = 500 puts every hop under eps = 0.01.
  const std::vector<Transmission> enough = {
      {0, 0.0, 500.0}, {1, 10.0, 500.0}, {2, 30.0, 500.0}};
  EXPECT_TRUE(verify(line_trace(), enough, opt).feasible);
  // w = 10 on the middle hop leaves phi = 1 - exp(-0.4) ~ 0.33 > eps.
  const std::vector<Transmission> starved = {
      {0, 0.0, 500.0}, {1, 10.0, 10.0}, {2, 30.0, 500.0}};
  const Verdict v = verify(line_trace(), starved, opt);
  EXPECT_FALSE(v.feasible);
  EXPECT_FALSE(find_check(v, "all-informed")->passed);
}

TEST(CertifyVerify, ThrowsOnInvalidParameters) {
  const auto t = line_trace();
  const auto s = good_schedule();
  Options opt = unit_options();
  opt.deadline = 200.0;  // beyond the horizon
  EXPECT_THROW(verify(t, s, opt), std::invalid_argument);
  opt = unit_options();
  opt.source = 7;
  EXPECT_THROW(verify(t, s, opt), std::invalid_argument);
  opt = unit_options();
  opt.epsilon = 1.5;
  EXPECT_THROW(verify(t, s, opt), std::invalid_argument);
  opt = unit_options();
  opt.tau = -1.0;
  EXPECT_THROW(verify(t, s, opt), std::invalid_argument);
  opt = unit_options();
  opt.targets = {42};
  EXPECT_THROW(verify(t, s, opt), std::invalid_argument);
}

TEST(CertifyVerify, EmptyScheduleIsFeasibleOnlyForTrivialTargets) {
  Options opt = unit_options();
  EXPECT_FALSE(verify(line_trace(), {}, opt).feasible);
  opt.targets = {0};  // the source is trivially informed
  EXPECT_TRUE(verify(line_trace(), {}, opt).feasible);
}

TEST(CertifyVerdict, JsonCarriesVerdictAndChecks) {
  const Verdict v = verify(line_trace(), good_schedule(), unit_options());
  const std::string json = v.json();
  EXPECT_NE(json.find("\"feasible\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"transmissions\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"id\":\"all-informed\",\"passed\":true"),
            std::string::npos)
      << json;
}

TEST(CertifyParse, AcceptsHeaderCommentsAndCrlf) {
  std::istringstream in(
      "# tveg-schedule\r\n\r\n0 370 3.78e-16\r\n# trailing comment\n");
  const auto s = parse_schedule(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].relay, 0);
  EXPECT_DOUBLE_EQ(s[0].time, 370.0);
}

TEST(CertifyParse, AcceptsValueLevelGarbageForVerifyToReject) {
  // Negative costs / out-of-range relays are verdicts, not parse errors.
  std::istringstream in("-7 1 5\n99999 1 -5\n");
  const auto s = parse_schedule(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].relay, -7);
  EXPECT_DOUBLE_EQ(s[1].cost, -5.0);
}

TEST(CertifyParse, RejectsMalformedLines) {
  for (const char* text :
       {"0 1\n", "0 1 2 3\n", "x 1 2\n", "0.5 1 2\n", "0 one 2\n",
        "0 1 junk\n", "0 nan 2\n", "0 1 inf\n", "0 1 1e999\n",
        "99999999999999999999 1 2\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(parse_schedule(in), std::invalid_argument) << text;
  }
}

TEST(CertifyParse, MissingFileThrows) {
  EXPECT_THROW(parse_schedule_file("/nonexistent/x.sched"),
               std::invalid_argument);
}

}  // namespace
}  // namespace tveg::certify
