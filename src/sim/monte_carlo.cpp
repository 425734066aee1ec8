#include "sim/monte_carlo.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <vector>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace tveg::sim {

using support::kInf;

namespace {

/// Per-trial channel/topology state.
struct TrialState {
  const core::Tveg& tveg;
  const McOptions& options;
  support::Rng& rng;
  /// This trial's index (TxFaultModel decisions are per-trial).
  std::size_t trial = 0;
  /// edge_up[e]: the edge exists this trial (presence_reliability draw).
  std::vector<char> edge_up;
  /// Bernoulli draws this trial (presence + channel); flushed per run.
  std::size_t draws = 0;
  /// Transmissions forced to fail by the fault model this trial.
  std::size_t tx_faults_hit = 0;

  TrialState(const core::Tveg& t, const McOptions& o, support::Rng& r,
             std::size_t trial_index = 0)
      : tveg(t), options(o), rng(r), trial(trial_index) {
    if (options.presence_reliability < 1.0) {
      edge_up.resize(tveg.graph().edge_count());
      for (auto& up : edge_up)
        up = rng.bernoulli(options.presence_reliability) ? 1 : 0;
      draws += edge_up.size();
    }
  }

  bool edge_alive(std::size_t e) const { return edge_up.empty() || edge_up[e]; }

  /// True when transmission k is forced to fail this trial (counted).
  bool tx_forced_fail(std::size_t k) {
    if (!options.tx_faults.active() || !options.tx_faults.fails(trial, k))
      return false;
    ++tx_faults_hit;
    return true;
  }
};

/// One potential receiver of a transmission: neighbour `to` over edge
/// `edge`, reached with failure probability `phi`.
struct Reach {
  NodeId to;
  std::size_t edge;
  double phi;
};

/// Each transmission's receivers (ascending node id, as neighbors_at lists
/// them) at the time the trial mode evaluates it: the transmission's own
/// time, or its equal-time group's first time when `at_group_time`. The
/// lists depend on the schedule only, so every trial shares them.
std::vector<std::vector<Reach>> reach_lists(
    const core::Tveg& tveg, const std::vector<core::Transmission>& txs,
    bool at_group_time) {
  const TimeVaryingGraph& g = tveg.graph();
  std::vector<std::vector<Reach>> out(txs.size());
  std::size_t group_begin = 0;
  for (std::size_t k = 0; k < txs.size(); ++k) {
    if (txs[k].time - txs[group_begin].time > 1e-9) group_begin = k;
    const core::Transmission& tx = txs[k];
    const Time t = at_group_time ? txs[group_begin].time : tx.time;
    for (NodeId j : g.neighbors_at(tx.relay, t))
      out[k].push_back({j, g.edge_id(tx.relay, j),
                        tveg.failure_probability(tx.relay, j, t, tx.cost)});
  }
  return out;
}

/// One trial without interference: equal-time groups run to a fixpoint
/// (non-stop journeys at τ = 0 are legal), each transmission draws its
/// channel once.
std::size_t run_trial_plain(const std::vector<core::Transmission>& txs,
                            const std::vector<std::vector<Reach>>& reach,
                            NodeId source, TrialState& state,
                            std::vector<Time>& informed_at) {
  const core::Tveg& tveg = state.tveg;
  const Time tau = tveg.latency();
  informed_at.assign(informed_at.size(), kInf);
  // The source has held the packet "since before time began".
  informed_at[static_cast<std::size_t>(source)] = -1.0;

  std::vector<char> fired(txs.size(), 0);
  std::size_t group_begin = 0;
  while (group_begin < txs.size()) {
    std::size_t group_end = group_begin + 1;
    while (group_end < txs.size() &&
           txs[group_end].time - txs[group_begin].time <= 1e-9)
      ++group_end;

    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = group_begin; k < group_end; ++k) {
        if (fired[k]) continue;
        const core::Transmission& tx = txs[k];
        if (informed_at[static_cast<std::size_t>(tx.relay)] > tx.time + 1e-9)
          continue;  // relay does not hold the packet (yet)
        fired[k] = 1;
        progress = true;
        if (state.tx_forced_fail(k)) continue;  // fault: emits nothing
        for (const Reach& r : reach[k]) {
          if (!state.edge_alive(r.edge)) continue;
          if (informed_at[static_cast<std::size_t>(r.to)] <= tx.time + tau)
            continue;
          ++state.draws;
          if (!state.rng.bernoulli(r.phi))
            informed_at[static_cast<std::size_t>(r.to)] = tx.time + tau;
        }
      }
    }
    group_begin = group_end;
  }

  std::size_t informed = 0;
  for (Time t : informed_at)
    if (t < kInf) ++informed;
  return informed;
}

/// One trial with interference: only relays informed strictly before the
/// group may transmit; a receiver in range of two or more of the group's
/// active relays decodes nothing.
std::size_t run_trial_interference(
    const std::vector<core::Transmission>& txs,
    const std::vector<std::vector<Reach>>& reach, NodeId source,
    TrialState& state, std::vector<Time>& informed_at) {
  const core::Tveg& tveg = state.tveg;
  const Time tau = tveg.latency();
  const auto n = informed_at.size();
  informed_at.assign(n, kInf);
  // The source has held the packet "since before time began".
  informed_at[static_cast<std::size_t>(source)] = -1.0;

  std::vector<int> heard(n, 0);
  std::size_t group_begin = 0;
  while (group_begin < txs.size()) {
    const Time t = txs[group_begin].time;
    std::size_t group_end = group_begin + 1;
    while (group_end < txs.size() && txs[group_end].time - t <= 1e-9)
      ++group_end;

    // Active relays: informed strictly before this instant (no same-time
    // receive-and-forward under the interference model). With τ > 0 an
    // arrival exactly at t came from a strictly earlier transmission, so it
    // also qualifies.
    std::vector<std::size_t> active;
    for (std::size_t k = group_begin; k < group_end; ++k) {
      const Time ia = informed_at[static_cast<std::size_t>(txs[k].relay)];
      if (ia < t - 1e-9 || (tau > 1e-9 && ia <= t + 1e-9)) {
        if (state.tx_forced_fail(k)) continue;  // fault: emits nothing
        active.push_back(k);
      }
    }

    // Count concurrent signals per potential receiver.
    std::fill(heard.begin(), heard.end(), 0);
    for (std::size_t k : active)
      for (const Reach& r : reach[k])
        if (state.edge_alive(r.edge)) ++heard[static_cast<std::size_t>(r.to)];

    for (std::size_t k : active) {
      for (const Reach& r : reach[k]) {
        const auto ji = static_cast<std::size_t>(r.to);
        if (!state.edge_alive(r.edge)) continue;
        if (heard[ji] >= 2) continue;  // collision
        if (informed_at[ji] <= t + tau) continue;
        ++state.draws;
        if (!state.rng.bernoulli(r.phi)) informed_at[ji] = t + tau;
      }
    }
    group_begin = group_end;
  }

  std::size_t informed = 0;
  for (Time x : informed_at)
    if (x < kInf) ++informed;
  return informed;
}

}  // namespace

DeliveryStats simulate_delivery(const core::Tveg& tveg, NodeId source,
                                const core::Schedule& schedule,
                                const McOptions& options) {
  TVEG_REQUIRE(options.trials > 0, "need at least one trial");
  TVEG_REQUIRE(source >= 0 && source < tveg.node_count(),
               "source out of range");
  TVEG_REQUIRE(options.presence_reliability > 0 &&
                   options.presence_reliability <= 1,
               "presence reliability must lie in (0, 1]");
  const auto& txs = schedule.transmissions();
  const auto n = static_cast<double>(tveg.node_count());

  obs::TraceSpan span("monte_carlo");
  std::vector<double> ratios(options.trials);
  std::atomic<std::size_t> full_count{0};
  std::atomic<std::size_t> total_draws{0};

  std::atomic<std::size_t> total_tx_faults{0};
  const auto reach = reach_lists(tveg, txs, options.model_interference);

  auto trial = [&](std::size_t i) {
    obs::ScopedSpan trial_span("mc_trial");
    options.budget.check("mc_trial");
    // Per-trial stream via double-avalanche derivation: XOR with a multiple
    // of the golden gamma (the old scheme) let two scenario seeds share
    // trial streams at shifted indices.
    support::Rng rng(support::stream_seed(options.seed, i));
    TrialState state(tveg, options, rng, i);
    std::vector<Time> informed_at(static_cast<std::size_t>(tveg.node_count()));
    const std::size_t informed =
        options.model_interference
            ? run_trial_interference(txs, reach, source, state, informed_at)
            : run_trial_plain(txs, reach, source, state, informed_at);
    ratios[i] = static_cast<double>(informed) / n;
    if (informed == static_cast<std::size_t>(tveg.node_count()))
      full_count.fetch_add(1, std::memory_order_relaxed);
    total_draws.fetch_add(state.draws, std::memory_order_relaxed);
    total_tx_faults.fetch_add(state.tx_faults_hit, std::memory_order_relaxed);
  };

  const auto sim_start = std::chrono::steady_clock::now();
  if (options.parallel) {
    support::parallel_for(0, options.trials, trial, options.budget.cancel);
  } else {
    for (std::size_t i = 0; i < options.trials; ++i) trial(i);
  }
  const double sim_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sim_start)
          .count();

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& runs_metric = registry.counter(obs::keys::kMcRuns);
  static obs::Counter& trials_metric = registry.counter(obs::keys::kMcTrials);
  static obs::Counter& draws_metric =
      registry.counter(obs::keys::kMcChannelDraws);
  static obs::Gauge& rate_metric =
      registry.gauge(obs::keys::kMcLastDrawsPerSec);
  static obs::Counter& tx_faults_metric =
      registry.counter(obs::keys::kFaultInjectedTxFailure);
  runs_metric.add(1);
  trials_metric.add(options.trials);
  draws_metric.add(total_draws.load());
  tx_faults_metric.add(total_tx_faults.load());
  if (sim_seconds > 0)
    rate_metric.set(static_cast<double>(total_draws.load()) / sim_seconds);

  support::RunningStat stat;
  for (double r : ratios) stat.add(r);

  DeliveryStats out;
  out.trials = options.trials;
  out.mean_delivery_ratio = stat.mean();
  out.stddev_delivery_ratio = stat.stddev();
  out.full_delivery_fraction =
      static_cast<double>(full_count.load()) /
      static_cast<double>(options.trials);
  return out;
}

}  // namespace tveg::sim
