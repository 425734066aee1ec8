#include "fault/fault_plan.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace tveg::fault {

using support::Error;
using support::ErrorCode;
using support::Result;

namespace {

constexpr double kMinDuration = 1e-9;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void count_injected(FaultKind kind, std::uint64_t n = 1) {
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter(std::string(obs::keys::kFaultInjectedPrefix) + fault_kind_name(kind))
      .add(n);
  obs::flight_recorder().record(obs::FlightEventKind::kFaultInjected,
                                static_cast<std::uint64_t>(kind), n,
                                fault_kind_name(kind));
}

/// Subtracts [w0, w1) from every fragment in `fragments` in place.
void subtract_window(std::vector<std::pair<Time, Time>>& fragments, Time w0,
                     Time w1) {
  std::vector<std::pair<Time, Time>> out;
  for (const auto& [s, e] : fragments) {
    if (w1 <= s || w0 >= e) {
      out.emplace_back(s, e);
      continue;
    }
    if (s < w0) out.emplace_back(s, w0);
    if (w1 < e) out.emplace_back(w1, e);
  }
  fragments = std::move(out);
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEdgeDropout:
      return "edge_dropout";
    case FaultKind::kNodeChurn:
      return "node_churn";
    case FaultKind::kContactTruncation:
      return "contact_truncation";
    case FaultKind::kContactJitter:
      return "contact_jitter";
    case FaultKind::kCostInflation:
      return "cost_inflation";
    case FaultKind::kTxFailure:
      return "tx_failure";
  }
  return "unknown";
}

std::string FaultLog::serialize() const {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const FaultEvent& e : events)
    os << fault_kind_name(e.kind) << ' ' << e.a << ' ' << e.b << ' ' << e.t0
       << ' ' << e.t1 << ' ' << e.magnitude << '\n';
  return os.str();
}

bool FaultPlan::any() const {
  return edge_dropout > 0 || node_churn > 0 || contact_truncation > 0 ||
         contact_jitter_s > 0 || cost_inflation > 0 || tx_failure > 0;
}

Result<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      return Error{ErrorCode::kParse,
                   "fault plan item '" + item + "' is not key=value"};
    const std::string key = item.substr(0, eq);
    const std::string text = item.substr(eq + 1);
    double value = 0;
    try {
      std::size_t used = 0;
      value = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
    } catch (const std::exception&) {
      return Error{ErrorCode::kParse,
                   "fault plan value for '" + key + "' is not a number: '" +
                       text + "'"};
    }

    auto probability = [&](double& field) -> Result<FaultPlan> {
      if (value < 0 || value > 1)
        return Error{ErrorCode::kInvalidInput,
                     "fault plan '" + key + "' must lie in [0, 1], got " +
                         text};
      field = value;
      return plan;
    };

    if (key == "seed") {
      if (value < 0)
        return Error{ErrorCode::kInvalidInput, "fault plan seed must be >= 0"};
      plan.seed = static_cast<std::uint64_t>(value);
    } else if (key == "edge_dropout") {
      if (auto r = probability(plan.edge_dropout); !r.ok()) return r.error();
    } else if (key == "node_churn") {
      if (auto r = probability(plan.node_churn); !r.ok()) return r.error();
    } else if (key == "churn_span") {
      if (value <= 0 || value > 1)
        return Error{ErrorCode::kInvalidInput,
                     "fault plan churn_span must lie in (0, 1]"};
      plan.churn_span = value;
    } else if (key == "truncation") {
      if (auto r = probability(plan.contact_truncation); !r.ok())
        return r.error();
    } else if (key == "truncation_keep") {
      if (value <= 0 || value > 1)
        return Error{ErrorCode::kInvalidInput,
                     "fault plan truncation_keep must lie in (0, 1]"};
      plan.truncation_keep = value;
    } else if (key == "jitter") {
      if (value < 0)
        return Error{ErrorCode::kInvalidInput,
                     "fault plan jitter must be >= 0 seconds"};
      plan.contact_jitter_s = value;
    } else if (key == "cost_inflation") {
      if (auto r = probability(plan.cost_inflation); !r.ok()) return r.error();
    } else if (key == "inflation_factor") {
      if (value < 1)
        return Error{ErrorCode::kInvalidInput,
                     "fault plan inflation_factor must be >= 1"};
      plan.cost_inflation_factor = value;
    } else if (key == "tx_failure") {
      if (auto r = probability(plan.tx_failure); !r.ok()) return r.error();
    } else {
      return Error{ErrorCode::kParse, "unknown fault plan key '" + key + "'"};
    }
  }
  return plan;
}

FaultedTrace apply_plan(const trace::ContactTrace& input,
                        const FaultPlan& plan) {
  const Time horizon = input.horizon();
  const NodeId n = input.node_count();
  support::Rng rng(plan.seed);
  FaultLog log;

  obs::MetricsRegistry::global().counter(obs::keys::kFaultPlansApplied).add(1);

  // Canonical contact order: the draw sequence must not depend on how the
  // caller happened to order the contacts.
  std::vector<trace::Contact> contacts = input.contacts();
  std::sort(contacts.begin(), contacts.end(),
            [](const trace::Contact& x, const trace::Contact& y) {
              return std::tie(x.start, x.a, x.b, x.end) <
                     std::tie(y.start, y.a, y.b, y.end);
            });

  // Draw 1 — edge dropout, over the sorted pair set.
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const trace::Contact& c : contacts)
    pairs.emplace(std::min(c.a, c.b), std::max(c.a, c.b));
  std::set<std::pair<NodeId, NodeId>> dropped;
  if (plan.edge_dropout > 0) {
    for (const auto& p : pairs) {
      if (!rng.bernoulli(plan.edge_dropout)) continue;
      dropped.insert(p);
      log.events.push_back({FaultKind::kEdgeDropout, p.first, p.second, 0,
                            horizon, 0});
      count_injected(FaultKind::kEdgeDropout);
    }
  }

  // Draw 2 — node churn: per node, one outage window.
  std::vector<std::pair<Time, Time>> outage(static_cast<std::size_t>(n),
                                            {0, 0});
  if (plan.node_churn > 0) {
    const Time span = plan.churn_span * horizon;
    for (NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(plan.node_churn)) continue;
      const Time w0 = rng.uniform(0.0, std::max(horizon - span, 0.0));
      const Time w1 = std::min(w0 + span, horizon);
      outage[static_cast<std::size_t>(v)] = {w0, w1};
      log.events.push_back({FaultKind::kNodeChurn, v, kNoNode, w0, w1, 0});
      count_injected(FaultKind::kNodeChurn);
    }
  }

  // Draw 3 — per-contact truncation / jitter / inflation, then assembly.
  trace::ContactTrace out(n, horizon);
  for (const trace::Contact& c : contacts) {
    Time s = c.start, e = c.end;
    double distance = c.distance;
    const NodeId a = std::min(c.a, c.b), b = std::max(c.a, c.b);

    if (plan.contact_truncation > 0 && rng.bernoulli(plan.contact_truncation)) {
      e = s + plan.truncation_keep * (e - s);
      log.events.push_back(
          {FaultKind::kContactTruncation, a, b, s, e, plan.truncation_keep});
      count_injected(FaultKind::kContactTruncation);
    }
    if (plan.contact_jitter_s > 0) {
      const double shift =
          rng.uniform(-plan.contact_jitter_s, plan.contact_jitter_s);
      s += shift;
      e += shift;
      s = std::max<Time>(s, 0);
      e = std::min(e, horizon);
      log.events.push_back({FaultKind::kContactJitter, a, b, s, e, shift});
      count_injected(FaultKind::kContactJitter);
    }
    if (plan.cost_inflation > 0 && rng.bernoulli(plan.cost_inflation)) {
      distance *= plan.cost_inflation_factor;
      log.events.push_back({FaultKind::kCostInflation, a, b, s, e,
                            plan.cost_inflation_factor});
      count_injected(FaultKind::kCostInflation);
    }

    if (dropped.count({a, b})) continue;
    if (e - s <= kMinDuration) continue;

    std::vector<std::pair<Time, Time>> fragments{{s, e}};
    for (NodeId v : {a, b}) {
      const auto& w = outage[static_cast<std::size_t>(v)];
      if (w.second > w.first) subtract_window(fragments, w.first, w.second);
    }
    for (const auto& [fs, fe] : fragments)
      if (fe - fs > kMinDuration) out.add({a, b, fs, fe, distance});
  }
  out.sort();
  return {std::move(out), std::move(log)};
}

bool TxFaultModel::fails(std::size_t trial, std::size_t tx_index) const {
  if (probability_ <= 0) return false;
  const std::uint64_t h = splitmix64(
      seed_ ^ (0x9e3779b97f4a7c15ULL * (trial + 1)) ^
      (0xc2b2ae3d27d4eb4fULL * (tx_index + 1)));
  // 53-bit mantissa → uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < probability_;
}

}  // namespace tveg::fault
