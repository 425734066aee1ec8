// Thread-aware span tracing (observability v2, see DESIGN.md).
//
// Where obs/trace.hpp aggregates phases into one process-wide tree, this
// module records *individual* spans per thread — a low-overhead,
// thread-local ring of completed span records, merged at export time into
// Chrome/Perfetto `trace_event` JSON (loadable in ui.perfetto.dev). It is
// what makes wall-clock visible *across threads*: ThreadPool workers show
// their queue-wait and task spans on their own tracks, the parallel
// Steiner/aux phases show which worker ran which chunk, and Monte-Carlo
// trials show per-trial durations.
//
// Cost model: when span tracing is disabled (the default), opening a span
// is one relaxed atomic load and a branch — no clock read, no lock, no
// allocation. When enabled, a span close takes two steady_clock reads plus
// a short uncontended per-thread mutex push into that thread's ring
// (contended only by an exporter). Rings are fixed-size; overflow drops the
// oldest records and counts them (tveg.obs.span_drops).
//
// Determinism note: span records carry steady_clock timestamps (allowed —
// monotonic, never feeds results); they exist for humans and Perfetto, not
// for the solver. Nothing here may read a wall clock (enforced by the
// tveg-lint `no-wall-clock-in-spans` rule).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace tveg::obs {

class Json;

/// Master switch for span recording. Off by default; independent of
/// obs::set_enabled (the aggregate phase tree), though the CLI turns both
/// on for --trace-out. Turning it on pins the tracing epoch.
void set_span_tracing(bool on) noexcept;
bool span_tracing() noexcept;

/// Nanoseconds since the process-wide tracing epoch (first use, or when span
/// tracing is first switched on).
std::uint64_t now_epoch_ns() noexcept;
/// Converts an already-taken steady_clock reading to epoch-relative ns.
std::uint64_t to_epoch_ns(std::chrono::steady_clock::time_point tp) noexcept;

/// Registers a human-readable name for the calling thread ("main",
/// "pool-worker-3"); shown as the Perfetto track name. Cheap; callable
/// whether or not tracing is enabled.
void set_current_thread_name(const std::string& name);

/// Low-level span protocol (used by TraceSpan and ThreadPool; prefer
/// ScopedSpan at call sites). `span_open` reserves the calling thread's
/// next sequence token; `span_close` writes the completed record. `name`
/// must have static storage duration (string literals).
std::uint64_t span_open() noexcept;
void span_close(const char* name, std::uint64_t open_seq,
                std::uint64_t begin_ns, std::uint64_t end_ns) noexcept;

/// Records a queue-wait interval (task enqueue → dequeue) on the calling
/// worker's queue track; exported as a Perfetto complete ("X") event.
void span_queue_wait(std::uint64_t begin_ns, std::uint64_t end_ns) noexcept;

/// RAII ring-only span: records into the calling thread's span ring when
/// span tracing is enabled, and does nothing else (no aggregate-tree
/// accounting — use obs::TraceSpan for phases that should also aggregate).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (!span_tracing()) return;
    name_ = name;
    open_seq_ = span_open();
    begin_ns_ = now_epoch_ns();
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    span_close(name_, open_seq_, begin_ns_, now_epoch_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t open_seq_ = 0;
  std::uint64_t begin_ns_ = 0;
};

/// Merges every thread's ring into one Chrome `trace_event` document:
///   { "traceEvents": [ {"ph":"M"...}, {"ph":"B"...}, {"ph":"E"...},
///                      {"ph":"X"...} ], "displayTimeUnit": "ms" }
/// Span records become matched B/E pairs on the owning thread's track (pid
/// 1, tid = thread slot); queue waits become X events on a per-worker
/// queue track (tid = slot + 1000); thread names become "M" metadata.
/// Within each tid, events are emitted in non-decreasing ts order.
Json chrome_trace();

/// Writes chrome_trace() as compact JSON to `path`; throws
/// std::runtime_error on I/O failure.
void write_chrome_trace_file(const std::string& path);

/// Clears every thread's ring and drop counts (thread registrations and
/// names survive). Only call with no spans open and recording quiescent.
void span_reset();

}  // namespace tveg::obs
