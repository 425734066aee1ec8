#include "tools/certify/certify.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "channel/radio.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::certify {

namespace {

// ---------------------------------------------------------------------------
// Strict schedule parsing.

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("schedule line " + std::to_string(line_no) +
                              ": " + what);
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    std::size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j])))
      ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

double parse_finite(const std::string& tok, std::size_t line_no,
                    const char* field) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size())
    parse_fail(line_no,
               std::string(field) + " is not a number: '" + tok + "'");
  if (!std::isfinite(v))
    parse_fail(line_no, std::string(field) + " is not finite: '" + tok + "'");
  return v;
}

NodeId parse_relay(const std::string& tok, std::size_t line_no) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (tok.empty() || end != tok.c_str() + tok.size())
    parse_fail(line_no, "relay is not an integer: '" + tok + "'");
  if (errno == ERANGE || v < std::numeric_limits<NodeId>::min() ||
      v > std::numeric_limits<NodeId>::max())
    parse_fail(line_no, "relay out of representable range: '" + tok + "'");
  return static_cast<NodeId>(v);
}

// ---------------------------------------------------------------------------
// Independent view of the trace: merged presence intervals and
// piecewise-constant distance samples per node pair, derived from the raw
// contact records only.

struct PairView {
  NodeId a = 0;
  NodeId b = 0;
  /// Merged half-open presence intervals, sorted; touching contacts merge
  /// (the pair stays in range across the boundary).
  std::vector<std::pair<Time, Time>> intervals;
  /// (time, distance) samples sorted by time; the distance at t is the value
  /// of the last sample at or before t (first value before the first sample).
  std::vector<std::pair<Time, double>> samples;

  double distance_at(Time t) const {
    auto it = std::upper_bound(
        samples.begin(), samples.end(), t,
        [](Time value, const std::pair<Time, double>& s) {
          return value < s.first;
        });
    if (it == samples.begin()) return samples.front().second;
    return (it - 1)->second;
  }
};

/// Sorted insert with tolerance dedup (Def. 5.1 representative rule);
/// returns true when the point was new.
bool insert_point(std::vector<Time>& pts, Time t, double tol) {
  auto it = std::lower_bound(pts.begin(), pts.end(), t);
  if (it != pts.end() && *it - t <= tol) return false;
  if (it != pts.begin() && t - *(it - 1) <= tol) return false;
  pts.insert(it, t);
  return true;
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Everything the checks need, built once per verify() call.
struct Certifier {
  const Options& opt;
  NodeId n = 0;
  Time horizon = 0;
  channel::RadioParams radio;
  std::vector<PairView> pairs;
  std::vector<std::vector<std::size_t>> incident;  // node -> pair indices

  Certifier(const trace::ContactTrace& trace, const Options& options)
      : opt(options),
        n(trace.node_count()),
        horizon(trace.horizon()) {
    radio.noise_density = opt.noise_density;
    radio.decoding_threshold_db = opt.decoding_threshold_db;
    radio.path_loss_exponent = opt.path_loss_exponent;
    radio.w_min = opt.w_min;
    radio.w_max = opt.w_max;
    radio.epsilon = opt.epsilon;
    radio.validate();

    std::map<std::pair<NodeId, NodeId>, std::size_t> index;
    incident.assign(static_cast<std::size_t>(n), {});
    for (const trace::Contact& c : trace.contacts()) {
      const auto key = std::minmax(c.a, c.b);
      auto [it, inserted] = index.emplace(key, pairs.size());
      if (inserted) {
        pairs.push_back({key.first, key.second, {}, {}});
        incident[static_cast<std::size_t>(key.first)].push_back(it->second);
        incident[static_cast<std::size_t>(key.second)].push_back(it->second);
      }
      pairs[it->second].intervals.push_back({c.start, c.end});
    }
    for (PairView& p : pairs) {
      std::sort(p.intervals.begin(), p.intervals.end());
      std::vector<std::pair<Time, Time>> merged;
      for (const auto& iv : p.intervals) {
        if (!merged.empty() && iv.first <= merged.back().second)
          merged.back().second = std::max(merged.back().second, iv.second);
        else
          merged.push_back(iv);
      }
      p.intervals = std::move(merged);
    }
    // Distance samples keyed by contact start, first record wins on ties —
    // the same rule the solver's profile construction uses, restated here
    // from the trace format contract ("time-varying separations are encoded
    // as consecutive contacts of the same pair").
    std::map<std::pair<NodeId, NodeId>, std::map<Time, double>> samples;
    for (const trace::Contact& c : trace.contacts())
      samples[std::minmax(c.a, c.b)].emplace(c.start, c.distance);
    for (PairView& p : pairs) {
      const auto& s = samples[{p.a, p.b}];
      p.samples.assign(s.begin(), s.end());
    }
  }

  /// rho_tau adjacency: the pair is in contact throughout [t, t + tau], the
  /// transmission starts strictly before the contact ends, and the whole
  /// window lies inside the time span.
  bool pair_adjacent(const PairView& p, Time t) const {
    if (t < 0 || t + opt.tau > horizon) return false;
    auto it = std::upper_bound(
        p.intervals.begin(), p.intervals.end(), t,
        [](Time value, const std::pair<Time, Time>& iv) {
          return value < iv.first;
        });
    if (it == p.intervals.begin()) return false;
    --it;
    return t < it->second && t + opt.tau <= it->second;
  }

  /// phi(w) for one pair at one time under the configured channel model.
  double failure(const PairView& p, Time t, Cost w) const {
    if (!pair_adjacent(p, t)) return 1.0;
    if (w < 0) return 1.0;  // a negative energy never decodes
    const double d = p.distance_at(t);
    switch (opt.model) {
      case channel::ChannelModel::kStep:
        return channel::StepEdFunction(radio.step_min_cost(d))
            .failure_probability(w);
      case channel::ChannelModel::kRayleigh:
        return channel::RayleighEdFunction(radio.rayleigh_beta(d))
            .failure_probability(w);
      case channel::ChannelModel::kNakagami:
        return channel::NakagamiEdFunction(opt.nakagami_m,
                                           radio.rayleigh_beta(d))
            .failure_probability(w);
      case channel::ChannelModel::kRician:
        return channel::RicianEdFunction(opt.rician_k, radio.rayleigh_beta(d))
            .failure_probability(w);
    }
    return 1.0;
  }

  /// Independent DTS closure (Def. 5.2): adjacent-partition boundary points
  /// plus channel breakpoints, closed under +tau propagation to adjacent
  /// nodes. Returns one sorted point vector per node; sets `truncated` when
  /// the per-node cap was hit (membership is then not certifiable).
  std::vector<std::vector<Time>> build_dts(bool& truncated) const {
    truncated = false;
    std::vector<std::vector<Time>> pts(static_cast<std::size_t>(n));
    std::deque<std::pair<NodeId, Time>> worklist;
    const double tol = 1e-9;  // closure dedup, not the membership tolerance

    auto add = [&](NodeId v, Time t) {
      auto& vp = pts[static_cast<std::size_t>(v)];
      if (vp.size() >= opt.max_dts_points_per_node) {
        truncated = true;
        return;
      }
      if (insert_point(vp, t, tol)) worklist.push_back({v, t});
    };

    for (NodeId v = 0; v < n; ++v) {
      add(v, 0);
      add(v, horizon);
      for (std::size_t e : incident[static_cast<std::size_t>(v)]) {
        const PairView& p = pairs[e];
        // Eq. 9 boundary points of the valid-start windows.
        for (const auto& iv : p.intervals) {
          if (iv.second - iv.first < opt.tau) continue;
          add(v, iv.first);
          add(v, iv.second - opt.tau);
        }
        // Channel breakpoints: each distance change after the first sample.
        for (std::size_t k = 1; k < p.samples.size(); ++k)
          add(v, p.samples[k].first);
      }
    }

    while (!worklist.empty()) {
      const auto [v, t] = worklist.front();
      worklist.pop_front();
      if (t + opt.tau > horizon) continue;
      for (std::size_t e : incident[static_cast<std::size_t>(v)]) {
        const PairView& p = pairs[e];
        if (!pair_adjacent(p, t)) continue;
        add(p.a == v ? p.b : p.a, t + opt.tau);
      }
    }
    return pts;
  }
};

bool near_point(const std::vector<Time>& pts, Time t, double tol) {
  auto it = std::lower_bound(pts.begin(), pts.end(), t);
  if (it != pts.end() && *it - t <= tol) return true;
  return it != pts.begin() && t - *(it - 1) <= tol;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string Verdict::json() const {
  std::ostringstream os;
  os << "{\"feasible\":" << (feasible ? "true" : "false")
     << ",\"transmissions\":" << transmissions
     << ",\"total_cost\":" << json_number(total_cost)
     << ",\"max_uninformed_probability\":"
     << json_number(max_uninformed_probability) << ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i) os << ',';
    os << "{\"id\":\"" << json_escape(checks[i].id) << "\",\"passed\":"
       << (checks[i].passed ? "true" : "false") << ",\"detail\":\""
       << json_escape(checks[i].detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::vector<std::vector<Time>> dts_closure(const trace::ContactTrace& trace,
                                           const Options& options,
                                           bool& truncated) {
  if (!(options.tau >= 0 && options.tau < trace.horizon()))
    throw std::invalid_argument("tau must lie in [0, horizon)");
  return Certifier(trace, options).build_dts(truncated);
}

std::vector<Transmission> parse_schedule(std::istream& in) {
  std::vector<Transmission> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> toks = split_tokens(line);
    if (toks.empty() || toks[0][0] == '#') continue;
    if (toks.size() != 3)
      parse_fail(line_no, "expected '<relay> <time> <cost>', got " +
                              std::to_string(toks.size()) + " field(s)");
    Transmission tx;
    tx.relay = parse_relay(toks[0], line_no);
    tx.time = parse_finite(toks[1], line_no, "time");
    tx.cost = parse_finite(toks[2], line_no, "cost");
    out.push_back(tx);
  }
  return out;
}

std::vector<Transmission> parse_schedule_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open schedule file: " + path);
  return parse_schedule(in);
}

Verdict verify(const trace::ContactTrace& trace,
               const std::vector<Transmission>& schedule,
               const Options& opt) {
  const NodeId n = trace.node_count();
  const Time horizon = trace.horizon();
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  require(n > 0, "trace has no nodes");
  require(opt.source >= 0 && opt.source < n, "source node out of range");
  require(opt.deadline > 0 && opt.deadline <= horizon,
          "deadline must lie in (0, horizon]");
  require(opt.epsilon > 0 && opt.epsilon < 1, "eps must lie in (0, 1)");
  require(opt.tau >= 0 && opt.tau < horizon,
          "tau must lie in [0, horizon)");
  for (NodeId t : opt.targets)
    require(t >= 0 && t < n, "target node out of range");
  require(opt.time_tolerance >= 0 && opt.dts_tolerance >= 0,
          "tolerances must be non-negative");

  const Certifier cert(trace, opt);  // validates the radio parameters

  Verdict verdict;
  verdict.transmissions = schedule.size();

  // --- condition: well-formed triples ------------------------------------
  std::vector<std::string> malformed;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Transmission& tx = schedule[k];
    std::string why;
    if (tx.relay < 0 || tx.relay >= n)
      why = "relay " + std::to_string(tx.relay) + " outside [0, " +
            std::to_string(n) + ")";
    else if (!std::isfinite(tx.time) || tx.time < 0)
      why = "time " + fmt(tx.time) + " is not a finite time >= 0";
    else if (!std::isfinite(tx.cost))
      why = "cost is not finite";
    if (!why.empty())
      malformed.push_back("tx#" + std::to_string(k) + ": " + why);
  }
  const bool well_formed = malformed.empty();
  {
    std::string detail;
    for (std::size_t i = 0; i < malformed.size() && i < 3; ++i)
      detail += (i ? "; " : "") + malformed[i];
    if (malformed.size() > 3)
      detail += "; +" + std::to_string(malformed.size() - 3) + " more";
    verdict.checks.push_back({"schedule-well-formed", well_formed, detail});
  }

  // --- condition iv: costs within W = [w_min, w_max] (Eq. 17) ------------
  {
    std::string detail;
    // Slack proportional to the bound itself: paper energies sit near
    // 1e-16 J, so any absolute tolerance either rejects legitimate costs
    // or accepts negative ones. With w_min = 0 every negative cost fails.
    const double lo_tol = 1e-12 * std::fabs(opt.w_min);
    for (std::size_t k = 0; k < schedule.size() && detail.empty(); ++k) {
      const Cost w = schedule[k].cost;
      if (!std::isfinite(w)) {
        detail = "tx#" + std::to_string(k) + ": non-finite cost";
      } else if (w < opt.w_min - lo_tol) {
        detail = "tx#" + std::to_string(k) + ": cost " + fmt(w) +
                 " below w_min=" + fmt(opt.w_min);
      } else if (w > opt.w_max * (1 + 1e-12)) {
        detail = "tx#" + std::to_string(k) + ": cost " + fmt(w) +
                 " above w_max=" + fmt(opt.w_max);
      }
    }
    verdict.checks.push_back({"costs-in-range", detail.empty(), detail});
  }

  // --- condition iii: the last transmission finishes by T ----------------
  {
    std::string detail;
    for (std::size_t k = 0; k < schedule.size() && detail.empty(); ++k) {
      const Time t = schedule[k].time;
      if (std::isfinite(t) && t + opt.tau > opt.deadline + opt.time_tolerance)
        detail = "tx#" + std::to_string(k) + ": finishes at " +
                 fmt(t + opt.tau) + " > deadline " + fmt(opt.deadline);
    }
    verdict.checks.push_back({"within-deadline", detail.empty(), detail});
  }

  // --- condition iv: total cost within budget ----------------------------
  Cost total = 0;
  for (const Transmission& tx : schedule)
    total += std::isfinite(tx.cost) ? tx.cost : 0;
  verdict.total_cost = total;
  if (opt.budget >= 0) {
    const bool ok = total <= opt.budget * (1 + 1e-12) + 1e-300;
    verdict.checks.push_back(
        {"within-budget", ok,
         ok ? "" : "total cost " + fmt(total) + " > budget " +
                   fmt(opt.budget)});
  }

  // --- condition v: transmit times are DTS points (Def. 5.2) -------------
  if (opt.check_dts) {
    if (!well_formed) {
      verdict.checks.push_back(
          {"dts-membership", false, "skipped: schedule not well-formed"});
    } else {
      bool truncated = false;
      const std::vector<std::vector<Time>> dts = cert.build_dts(truncated);
      std::string detail;
      bool ok = true;
      if (truncated) {
        detail = "skipped: closure truncated at " +
                 std::to_string(opt.max_dts_points_per_node) +
                 " points/node; membership not certified";
      } else {
        for (std::size_t k = 0; k < schedule.size() && ok; ++k) {
          const Transmission& tx = schedule[k];
          if (!near_point(dts[static_cast<std::size_t>(tx.relay)], tx.time,
                          opt.dts_tolerance)) {
            ok = false;
            detail = "tx#" + std::to_string(k) + ": time " + fmt(tx.time) +
                     " is not a DTS point of node " +
                     std::to_string(tx.relay);
          }
        }
      }
      verdict.checks.push_back({"dts-membership", ok, detail});
    }
  }

  // --- conditions i + ii: Eq. 6 cumulative failure-probability replay ----
  if (!well_formed) {
    verdict.checks.push_back(
        {"relays-informed", false, "skipped: schedule not well-formed"});
    verdict.checks.push_back(
        {"all-informed", false, "skipped: schedule not well-formed"});
    verdict.feasible = false;
    return verdict;
  }

  // p[i] = probability node i is still uninformed (product of phi over all
  // transmissions whose signal has arrived).
  std::vector<double> p(static_cast<std::size_t>(n), 1.0);
  p[static_cast<std::size_t>(opt.source)] = 0.0;

  struct Arrival {
    Time at;
    NodeId node;
    double phi;
    bool operator>(const Arrival& o) const { return at > o.at; }
  };
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> pending;
  auto drain = [&](Time upto) {
    while (!pending.empty() &&
           pending.top().at <= upto + opt.time_tolerance) {
      const Arrival a = pending.top();
      pending.pop();
      p[static_cast<std::size_t>(a.node)] *= a.phi;
    }
  };

  std::vector<std::size_t> order(schedule.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x,
                                                   std::size_t y) {
    return schedule[x].time < schedule[y].time;
  });

  std::vector<std::string> uninformed_relays;
  bool snapshot_taken = false;
  double max_uninformed = 0.0;
  auto take_snapshot = [&] {
    drain(opt.deadline);
    const std::vector<NodeId>* targets = &opt.targets;
    std::vector<NodeId> all;
    if (targets->empty()) {
      all.resize(static_cast<std::size_t>(n));
      for (NodeId i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
      targets = &all;
    }
    for (NodeId i : *targets)
      max_uninformed =
          std::max(max_uninformed, p[static_cast<std::size_t>(i)]);
    snapshot_taken = true;
  };

  std::size_t g = 0;
  while (g < order.size()) {
    const Time group_time = schedule[order[g]].time;
    std::size_t g_end = g;
    while (g_end < order.size() &&
           schedule[order[g_end]].time - group_time <= opt.time_tolerance)
      ++g_end;

    // The informedness-at-T snapshot happens before any post-deadline group
    // advances the drained-arrival frontier past T.
    if (!snapshot_taken && group_time > opt.deadline + opt.time_tolerance)
      take_snapshot();

    drain(group_time);
    std::vector<bool> applied(g_end - g, false);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = g; k < g_end; ++k) {
        if (applied[k - g]) continue;
        const Transmission& tx = schedule[order[k]];
        if (p[static_cast<std::size_t>(tx.relay)] >
            opt.epsilon + opt.probability_slack)
          continue;
        applied[k - g] = true;
        progress = true;
        for (std::size_t e :
             cert.incident[static_cast<std::size_t>(tx.relay)]) {
          const PairView& pv = cert.pairs[e];
          const double phi = cert.failure(pv, tx.time, tx.cost);
          if (phi >= 1.0) continue;
          const NodeId other = pv.a == tx.relay ? pv.b : pv.a;
          pending.push({tx.time + opt.tau, other, phi});
        }
        // Zero-latency arrivals land inside the same instant: non-stop
        // journeys may chain within one equal-time group.
        if (opt.tau <= opt.time_tolerance) drain(group_time);
      }
    }
    for (std::size_t k = g; k < g_end; ++k) {
      if (applied[k - g]) continue;
      const Transmission& tx = schedule[order[k]];
      uninformed_relays.push_back(
          "tx#" + std::to_string(order[k]) + ": relay " +
          std::to_string(tx.relay) + " uninformed at t=" + fmt(tx.time) +
          " (p=" + fmt(p[static_cast<std::size_t>(tx.relay)]) + " > eps=" +
          fmt(opt.epsilon) + ")");
    }
    g = g_end;
  }
  if (!snapshot_taken) take_snapshot();
  verdict.max_uninformed_probability = max_uninformed;

  {
    std::string detail;
    for (std::size_t i = 0; i < uninformed_relays.size() && i < 3; ++i)
      detail += (i ? "; " : "") + uninformed_relays[i];
    if (uninformed_relays.size() > 3)
      detail += "; +" + std::to_string(uninformed_relays.size() - 3) +
                " more";
    verdict.checks.push_back(
        {"relays-informed", uninformed_relays.empty(), detail});
  }
  {
    const bool ok = max_uninformed <= opt.epsilon + opt.probability_slack;
    verdict.checks.push_back(
        {"all-informed", ok,
         ok ? ""
            : "max uninformed probability " + fmt(max_uninformed) +
                  " > eps=" + fmt(opt.epsilon) + " at T=" +
                  fmt(opt.deadline)});
  }

  verdict.feasible = true;
  for (const Check& c : verdict.checks) verdict.feasible &= c.passed;
  return verdict;
}

}  // namespace tveg::certify
