// Crash-time flight recorder (observability v2, see DESIGN.md).
//
// A fixed-size lock-free ring that captures the last N solver events —
// fallback-ladder rung transitions, fault injections, deadline expirations,
// schedule-repair divergences — so that when something goes sideways (a
// rung demotes, a budget expires, a repair diverges) the recent history can
// be dumped and attached to a bug report or replayed against the seed.
//
// Hard invariants:
//  * recording is lock-free and wait-free for writers: one fetch_add on the
//    head plus relaxed stores into the claimed slot — safe from ThreadPool
//    workers and solver hot paths;
//  * recorded payloads are clock-free and seeded-deterministic: events
//    carry a logical sequence number, a kind, two integer payloads and a
//    static detail string — never a timestamp — so a dump for a fixed seed
//    is byte-stable run over run (the `no-wall-clock-in-spans` lint rule
//    pins this file clock-free);
//  * dumping never throws on the auto-dump path (a dump triggered by a
//    failing solve must not turn the failure into a crash).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace tveg::obs {

/// What happened; dumped by name, so renames change golden dumps.
enum class FlightEventKind : std::uint8_t {
  kSolveStart,        ///< robust_solve entered (a = start rung)
  kRungStart,         ///< a ladder rung began (a = rung)
  kRungDemoted,       ///< a rung was abandoned (a = rung, b = error code)
  kRungSelected,      ///< a rung produced the result (a = rung, b = covered)
  kDeadlineExpired,   ///< a solve budget ran out (a = rung)
  kFaultInjected,     ///< a fault event entered the trace (a = kind, b = count)
  kRepairDivergence,  ///< schedule repair detected divergence (a = uncovered)
  kRepairPatched,     ///< repair emitted a patch (a = patch size, b = still uncovered)
  kRungSkipped,       ///< an already-expired rung was short-circuited (a = rung)
  kNote,              ///< freeform marker (detail string only)
};

const char* flight_event_kind_name(FlightEventKind kind);

/// One recorded event. `detail` must point to static storage (string
/// literals, rung_name(...) results).
struct FlightEvent {
  std::uint64_t seq = 0;  ///< global logical order (monotone)
  FlightEventKind kind = FlightEventKind::kNote;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const char* detail = "";
};

/// The ring. All members are atomics so concurrent record/dump is race-free
/// without locks; a dump that races writers may skip in-flight slots.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 256;

  void record(FlightEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
              const char* detail = "") noexcept;

  /// Events recorded since construction/reset (monotone; may exceed
  /// kCapacity — only the last kCapacity are retained).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  /// Writes the retained events oldest-first, one per line:
  ///   #<seq> <kind> a=<a> b=<b> <detail>
  /// preceded by a `flight-recorder: <n> event(s), <m> retained` header.
  /// Byte-stable for a fixed event history.
  void dump(std::ostream& os) const;

  void reset() noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 1 + event seq; 0 = empty
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<const char*> detail{""};
  };
  std::atomic<std::uint64_t> head_{0};
  std::array<Slot, kCapacity> slots_{};
};

/// Process-wide recorder; every subsystem records here.
FlightRecorder& flight_recorder();

/// Arms automatic dumping: when set to a non-empty path, flight_dump() (the
/// trigger hook called on rung demotion, deadline expiry and repair
/// divergence) rewrites that file with the current ring. Empty disarms.
void set_flight_dump_path(const std::string& path);
std::string flight_dump_path();

/// Dump trigger: records a kNote with `reason`, then — when armed — writes
/// the ring to the configured path. Never throws; I/O failures are counted
/// (tveg.obs.flight_dump_errors) and swallowed. Returns true when a file
/// was (re)written.
bool flight_dump(const char* reason) noexcept;

}  // namespace tveg::obs
