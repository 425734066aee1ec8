// The unified solve budget (resource-governance subsystem, see DESIGN.md).
//
// A Budget bundles the two resources a budgeted solve is accountable to:
//   deadline — wall-clock cutoff (throws TimeoutError when blown),
//   cancel   — cooperative cancellation token (throws CancelledError).
// Solver options carry one Budget instead of a bare Deadline; check() is
// the combined poll and Budget::Poller the strided variant for hot loops
// (cancellation is still observed on *every* poll — one relaxed load —
// only the clock read strides, so the cancellation-latency bound is
// measured in polls, not in clock reads).
//
// A Budget implicitly converts from a Deadline so existing deadline-only
// call sites (`options.budget = Deadline::after_ms(50)`) read naturally.
#pragma once

#include <utility>

#include "support/cancel.hpp"
#include "support/deadline.hpp"

namespace tveg::support {

/// Deadline + cancellation, passed by value into solver options.
struct Budget {
  Deadline deadline;
  CancelToken cancel;

  Budget() = default;
  Budget(Deadline d) : deadline(d) {}  // NOLINT(implicit)
  Budget(Deadline d, CancelToken c) : deadline(d), cancel(std::move(c)) {}

  /// True when neither time-limited nor cancellable (the unbudgeted
  /// default): pollers can skip work entirely.
  bool unlimited() const { return deadline.unlimited() && !cancel.valid(); }

  /// True when the budget is already spent (expired or cancelled) without
  /// throwing.
  bool exhausted() const { return cancel.cancelled() || deadline.expired(); }

  /// The combined poll: CancelledError on a pending cancel, then
  /// TimeoutError on an expired deadline. Cancellation is checked first — a
  /// cancelled solve must surface as cancelled (never degraded to a cheaper
  /// rung) even when its deadline also lapsed meanwhile.
  void check(const char* where) const {
    cancel.check(where);
    deadline.check(where);
  }

  class Poller;
};

/// Strided budget poller: every poll() checks the cancel token (relaxed
/// load + poll count), the deadline clock is read only every `stride` polls
/// via Deadline::Poller. Create one per loop (or per parallel chunk — it
/// is not thread-safe) and call poll() per iteration.
class Budget::Poller {
 public:
  explicit Poller(const Budget& budget, const char* where,
                  std::uint32_t stride = 64)
      : cancel_(budget.cancel), deadline_(budget.deadline, where, stride),
        where_(where) {}

  void poll() {
    cancel_.check(where_);
    deadline_.poll();
  }

 private:
  CancelToken cancel_;
  Deadline::Poller deadline_;
  const char* where_;
};

}  // namespace tveg::support
