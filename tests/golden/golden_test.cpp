// Golden-schedule fixtures: canonical solves pinned byte-for-byte.
//
// Each scenario runs the full cached + pooled pipeline on a deterministic
// generated trace and compares the serialized schedule (precision-17 text,
// core/schedule_io) against a committed fixture under
// tests/golden/fixtures/. Any drift — an algorithm change, a float
// reordering, a platform difference — fails loudly with a diff hint.
//
// Regenerate after an INTENTIONAL schedule change with
//   scripts/regen_golden.sh
// (sets TVEG_REGEN_GOLDEN=1, which makes this test rewrite the fixtures)
// and commit the new fixtures together with the change that moved them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/eedcb.hpp"
#include "core/fr.hpp"
#include "core/schedule_io.hpp"
#include "core/tveg.hpp"
#include "support/math.hpp"
#include "support/thread_pool.hpp"
#include "tools/certify/certify.hpp"
#include "trace/generators.hpp"

#ifndef TVEG_GOLDEN_DIR
#error "TVEG_GOLDEN_DIR must point at tests/golden/fixtures"
#endif

namespace tveg::core {
namespace {

channel::RadioParams unit_radio() {
  channel::RadioParams r;
  r.noise_density = 1.0;
  r.decoding_threshold_db = 0.0;
  r.path_loss_exponent = 2.0;
  r.epsilon = 0.01;
  r.w_max = support::kInf;
  return r;
}

bool regen() { return std::getenv("TVEG_REGEN_GOLDEN") != nullptr; }

support::ThreadPool& pool() {
  static support::ThreadPool p(8);
  return p;
}

std::string serialize(const Schedule& schedule) {
  std::ostringstream out;
  write_schedule(out, schedule);
  return out.str();
}

/// Independent certification gate: a fixture is only compared — and, under
/// TVEG_REGEN_GOLDEN, only WRITTEN — after the paper-text oracle accepts
/// it. scripts/regen_golden.sh therefore cannot commit a schedule that is
/// byte-stable but infeasible.
void expect_certified(const std::string& name, const Schedule& schedule,
                      const trace::ContactTrace& t,
                      const TmedbInstance& instance,
                      channel::ChannelModel model) {
  const channel::RadioParams& radio = instance.tveg->radio();
  certify::Options opt;
  opt.source = instance.source;
  opt.deadline = instance.deadline;
  opt.epsilon = instance.effective_epsilon();
  opt.tau = instance.tveg->latency();
  opt.budget = instance.budget;
  opt.targets = instance.targets;
  opt.model = model;
  opt.noise_density = radio.noise_density;
  opt.decoding_threshold_db = radio.decoding_threshold_db;
  opt.path_loss_exponent = radio.path_loss_exponent;
  opt.w_min = radio.w_min;
  opt.w_max = radio.w_max;
  std::vector<certify::Transmission> txs;
  for (const Transmission& tx : schedule.transmissions())
    txs.push_back({tx.relay, tx.time, tx.cost});
  const certify::Verdict verdict = certify::verify(t, txs, opt);
  ASSERT_TRUE(verdict.feasible)
      << "schedule for fixture " << name
      << " failed independent certification — refusing to "
      << (regen() ? "write" : "accept") << " it: " << verdict.json();
}

void check_golden(const std::string& name, const Schedule& schedule,
                  const trace::ContactTrace& t, const TmedbInstance& instance,
                  channel::ChannelModel model) {
  expect_certified(name, schedule, t, instance, model);
  const std::string path = std::string(TVEG_GOLDEN_DIR) + "/" + name;
  const std::string got = serialize(schedule);
  if (regen()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write fixture " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing fixture " << path << " — run scripts/regen_golden.sh";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "schedule drifted from fixture " << name
      << "; if intentional, regenerate with scripts/regen_golden.sh";
}

trace::ContactTrace golden_trace(std::uint64_t seed, int nodes) {
  trace::SnapshotConfig cfg;
  cfg.nodes = nodes;
  cfg.slot = 20;
  cfg.horizon = 200;
  cfg.p = 0.3;
  cfg.seed = seed;
  return trace::generate_snapshots(cfg);
}

Tveg make_tveg(const trace::ContactTrace& t, channel::ChannelModel model) {
  Tveg tveg(t, unit_radio(), {.model = model});
  tveg.memoize();
  return tveg;
}

TEST(GoldenSchedules, EedcbGreedyLevel2) {
  const auto t = golden_trace(17, 10);
  const Tveg tveg = make_tveg(t, channel::ChannelModel::kStep);
  EedcbOptions opt;
  opt.method = SteinerMethod::kRecursiveGreedy;
  opt.steiner_level = 2;
  opt.pool = &pool();
  const TmedbInstance inst{&tveg, 0, 200.0};
  const auto r = run_eedcb(inst, opt);
  ASSERT_TRUE(r.covered_all);
  check_golden("eedcb_greedy_l2.sched", r.schedule, t, inst,
               channel::ChannelModel::kStep);
}

TEST(GoldenSchedules, EedcbShortestPath) {
  const auto t = golden_trace(23, 12);
  const Tveg tveg = make_tveg(t, channel::ChannelModel::kStep);
  EedcbOptions opt;
  opt.method = SteinerMethod::kShortestPath;
  opt.pool = &pool();
  const TmedbInstance inst{&tveg, 0, 200.0};
  const auto r = run_eedcb(inst, opt);
  ASSERT_TRUE(r.covered_all);
  check_golden("eedcb_spt.sched", r.schedule, t, inst,
               channel::ChannelModel::kStep);
}

TEST(GoldenSchedules, EedcbMulticastNoExpansion) {
  const auto t = golden_trace(29, 9);
  const Tveg tveg = make_tveg(t, channel::ChannelModel::kStep);
  EedcbOptions opt;
  opt.power_expansion = false;
  opt.pool = &pool();
  TmedbInstance inst{&tveg, 0, 200.0};
  inst.targets = {2, 5, 7};
  const auto r = run_eedcb(inst, opt);
  ASSERT_TRUE(r.covered_all);
  check_golden("eedcb_multicast_noexp.sched", r.schedule, t, inst,
               channel::ChannelModel::kStep);
}

TEST(GoldenSchedules, FrEedcbRayleigh) {
  const auto t = golden_trace(31, 7);
  const Tveg tveg = make_tveg(t, channel::ChannelModel::kRayleigh);
  EedcbOptions opt;
  opt.pool = &pool();
  const TmedbInstance inst{&tveg, 0, 200.0};
  const auto r = run_fr_eedcb(inst, opt);
  ASSERT_TRUE(r.feasible());
  check_golden("fr_eedcb_rayleigh.sched", r.schedule(), t, inst,
               channel::ChannelModel::kRayleigh);
}

}  // namespace
}  // namespace tveg::core
