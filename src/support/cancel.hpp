// Cooperative cancellation (resource-governance subsystem, see DESIGN.md).
//
// A CancelSource owns a shared flag; the CancelTokens it hands out are
// copied into solver options (or a core::SolveRequest) and polled from the
// hot loops. A poll is one relaxed atomic load — cheap enough for
// per-iteration checks — plus a relaxed counter increment, so tests can
// measure how many polls a cancel takes to land.
//
// Cancellation is *cooperative*: nothing is interrupted preemptively. The
// contract is that every budgeted loop polls often enough that a cancel
// request is observed within a bounded number of polls (the batch cancel
// tests pin this bound).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace tveg::support {

/// Thrown by a solver whose CancelToken was triggered mid-search. Like
/// TimeoutError this is an operational condition, not a bug, hence
/// runtime_error.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
/// Shared between one CancelSource and all its tokens.
struct CancelState {
  std::atomic<bool> cancelled{false};
  /// Bumped on every token poll (see CancelSource::polls).
  std::atomic<std::uint64_t> polls{0};
};
}  // namespace detail

/// The polling side. Copyable and cheap; a default-constructed token is
/// never cancelled and counts no polls (solvers run unbudgeted by default).
class CancelToken {
 public:
  CancelToken() = default;

  /// True when a real source backs this token.
  bool valid() const { return state_ != nullptr; }

  bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
  }

  /// The poll: counts itself and throws CancelledError when the source has
  /// requested cancellation. `where` names the phase.
  void check(const char* where) const {
    if (state_ == nullptr) return;
    state_->polls.fetch_add(1, std::memory_order_relaxed);
    if (state_->cancelled.load(std::memory_order_relaxed))
      throw CancelledError(std::string("solve cancelled in ") + where);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CancelState> state_;
};

/// The requesting side. Copies share the underlying state (so a caller
/// can hold one while another thread fires another).
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancelToken token() const { return CancelToken(state_); }

  /// Requests cancellation; every token observes it on its next poll.
  /// Idempotent and safe from any thread.
  void request_cancel() const {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  /// Total polls observed across all tokens — what the bounded-cancellation
  /// tests count.
  std::uint64_t polls() const {
    return state_->polls.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace tveg::support
