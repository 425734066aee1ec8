// Scoped phase tracing: a process-wide hierarchical phase tree built from
// RAII spans.
//
//   obs::set_enabled(true);
//   {
//     obs::TraceSpan span("steiner");   // nests under the caller's span
//     ... work ...
//   }                                   // accumulates wall time + count
//
// The tree aggregates by (parent, name): re-entering the same phase under
// the same parent accumulates into one node, so repeated pipeline runs
// produce totals, not an ever-growing trace. Each thread tracks its own
// current span; spans opened on ThreadPool workers attach under the root.
//
// Cost model: when tracing is disabled (the default), constructing a span
// is two relaxed atomic loads and a branch — no clock read, no allocation,
// no lock. When enabled, open/close takes a short mutex-protected child
// lookup plus two steady_clock reads.
//
// Observability v2: every TraceSpan additionally (a) feeds the per-phase
// duration histogram `tveg.obs.phase_ms.<name>` (the bench-gate attribution
// source) when tracing is enabled, and (b) records an individual span into
// the calling thread's ring (obs/span.hpp) when span tracing is enabled —
// so the same call sites serve the aggregate tree, the per-phase
// percentiles, and the Perfetto export.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace tveg::obs {

/// Master switch for tracing and for any metric needing clock reads. Off by
/// default.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// RAII phase span. Construction pushes this span as the calling thread's
/// current phase; destruction pops it and accumulates elapsed wall time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t node_ = kNone;
  void* node_ptr_ = nullptr;  ///< stable Node*; avoids locking on close
  std::size_t prev_ = kNone;
  std::chrono::steady_clock::time_point start_;
  const char* ring_name_ = nullptr;  ///< non-null while a ring span is open
  std::uint64_t ring_open_seq_ = 0;
};

/// The natural name at pipeline call sites ("time this phase").
using PhaseTimer = TraceSpan;

/// Ensures the named phases exist as root children (zero counts if never
/// entered) — keeps exported schemas stable across algorithms that skip
/// phases. Works whether or not tracing is enabled.
void declare_phases(std::initializer_list<const char*> names);

/// One aggregated node of the phase tree.
struct TraceNodeSnapshot {
  std::string name;
  std::uint64_t count = 0;        ///< completed entries
  double wall_ms = 0;             ///< summed wall time
  std::vector<TraceNodeSnapshot> children;
};

/// Point-in-time copy of the root's children (the top-level phases).
std::vector<TraceNodeSnapshot> trace_snapshot();

/// Wall time summed by phase name across the whole tree, name-sorted —
/// the flat view exported as "phase_totals".
std::vector<std::pair<std::string, TraceNodeSnapshot>> phase_totals();

/// Drops the whole tree. Only call with no spans open (e.g. between CLI
/// commands or bench sections); open spans would accumulate into a node
/// that no longer exists.
void trace_reset();

/// Human-readable indented tree (the CLI's --trace stderr summary).
void trace_report(std::ostream& os);

}  // namespace tveg::obs
