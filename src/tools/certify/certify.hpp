// Independent schedule certifier (the repo's external oracle).
//
// `certify::verify` re-implements the paper's feasibility conditions for a
// TMEDB schedule S = [R, T, W] directly from the text, with deliberately
// zero dependence on src/core/ solver internals:
//
//   (i)   every relay is informed (Eq. 6 cumulative failure probability
//         <= eps) at the moment it transmits,
//   (ii)  every target node is informed by the deadline T,
//   (iii) the last transmission finishes (start + tau) by T,
//   (iv)  total cost is within budget and each cost lies in [w_min, w_max]
//         (Eq. 14-17 allocation validity for FR schedules),
//   (v)   every transmit time is a DTS point (Def. 5.2), checked against an
//         independently constructed adjacent-partition + "+tau" closure.
//
// The only project headers this subsystem may include are support/ (scalar
// helpers), trace/ (the raw contact records and their parser), channel/
// (the ED-function physics, which is the problem statement, not the
// solver), and tvg/types.hpp. It must NOT include core/, graph/, nlp/,
// sim/, fault/, tvg/dts.hpp or tvg/time_varying_graph.hpp — adjacency,
// distance-at-t, the Eq. 6 replay and the DTS closure are re-derived here
// from the contact list alone. tveg-lint's no-core-include-in-certify rule
// enforces the core/ ban mechanically; DESIGN.md "Correctness tooling"
// documents the full table.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "channel/ed_function.hpp"
#include "support/math.hpp"
#include "tvg/types.hpp"

namespace tveg::trace {
class ContactTrace;
}

namespace tveg::certify {

/// One scheduled transmission: node `relay` transmits at `time` with energy
/// `cost`. Mirrors the paper's S = [R, T, W] triples; intentionally not the
/// core::Transmission type.
struct Transmission {
  NodeId relay = 0;
  Time time = 0;
  Cost cost = 0;

  bool operator==(const Transmission&) const = default;
};

/// Certification parameters. Radio defaults are the paper Sec. VII values
/// (identical to channel::RadioParams defaults).
struct Options {
  NodeId source = 0;
  /// Delay constraint T. Must lie in (0, horizon].
  Time deadline = 0;
  /// Reliability bound eps in (0, 1).
  double epsilon = 0.01;
  /// Edge traversal latency tau >= 0.
  Time tau = 0;
  /// Energy budget B; negative means unconstrained.
  Cost budget = -1;
  /// Nodes that must be informed by T; empty means broadcast (all nodes).
  std::vector<NodeId> targets;

  channel::ChannelModel model = channel::ChannelModel::kStep;
  double nakagami_m = 2.0;
  double rician_k = 3.0;

  double noise_density = 4.32e-21;
  double decoding_threshold_db = 25.9;
  double path_loss_exponent = 2.0;
  Cost w_min = 0.0;
  Cost w_max = support::kInf;

  /// When false, skip the DTS-membership check (condition v). Schedules
  /// from continuous-time baselines are certified on conditions i-iv only.
  bool check_dts = true;

  /// Equal-time grouping / deadline-comparison tolerance.
  double time_tolerance = 1e-9;
  /// Slack added to eps when testing informedness (float-product drift).
  double probability_slack = 1e-12;
  /// Matching tolerance for DTS membership. Looser than the closure's
  /// dedup tolerance because the solver and the certifier may pick
  /// different representatives inside a 1e-9 cluster of +tau chains.
  double dts_tolerance = 1e-6;
  /// Safety cap on the independent closure; when hit, the DTS check is
  /// reported as skipped rather than guessed.
  std::size_t max_dts_points_per_node = 50000;
};

/// One named feasibility check with its outcome.
struct Check {
  std::string id;      ///< stable machine-readable identifier
  bool passed = false;
  std::string detail;  ///< human-readable evidence (empty when passed)
};

/// Certification result: overall verdict plus the per-check breakdown.
struct Verdict {
  bool feasible = false;
  std::size_t transmissions = 0;
  Cost total_cost = 0;
  /// max over targets of the Eq. 6 cumulative failure probability at T.
  double max_uninformed_probability = 1.0;
  std::vector<Check> checks;

  /// Machine-readable verdict (single JSON object, no trailing newline).
  std::string json() const;
  /// Process exit status the CLI maps this verdict to: 0 ok, 1 rejected.
  int exit_code() const { return feasible ? 0 : 1; }
};

/// Certifies `schedule` against `trace` under `options`.
/// Throws std::invalid_argument on invalid *parameters* (bad source,
/// deadline outside (0, horizon], eps outside (0,1), tau < 0, bad radio
/// values) — parameter misuse is exit 2, not a verdict about the schedule.
Verdict verify(const trace::ContactTrace& trace,
               const std::vector<Transmission>& schedule,
               const Options& options);

/// The certifier's own DTS closure (Def. 5.2), the one condition (v) checks
/// against: per node, the sorted adjacent-partition points and channel
/// breakpoints of `trace`, closed under "+options.tau" propagation, built
/// from the contact list alone. Sets `truncated` when a node reached
/// options.max_dts_points_per_node. Throws std::invalid_argument when tau
/// lies outside [0, horizon).
std::vector<std::vector<Time>> dts_closure(const trace::ContactTrace& trace,
                                           const Options& options,
                                           bool& truncated);

/// Strict, independent parser for the `# tveg-schedule` text format: one
/// `<relay> <time> <cost>` triple per line, '#' comments and blank lines
/// ignored. Rejects wrong arity, trailing garbage, non-numeric or
/// non-finite fields, and non-integer relay tokens with a line-numbered
/// std::invalid_argument. Value-level problems (negative cost, relay out
/// of range, ...) are accepted here and rejected by verify() so they
/// surface as a verdict, not a parse error.
std::vector<Transmission> parse_schedule(std::istream& in);

/// As above from a file path (unreadable file -> std::invalid_argument).
std::vector<Transmission> parse_schedule_file(const std::string& path);

}  // namespace tveg::certify
