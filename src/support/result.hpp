// Structured error taxonomy for fallible operations.
//
// The solve chain and the parsers return Result<T> instead of throwing on
// *expected* failure modes (malformed input, blown time budgets, infeasible
// programs), so callers can degrade gracefully — fall back to a cheaper
// solver, skip a bad input line, repair a schedule — without catching and
// re-classifying exceptions. TVEG_ASSERT / TVEG_REQUIRE remain the right
// tool for library bugs and API misuse; Result is for failures the caller
// is expected to handle.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "support/assert.hpp"

namespace tveg::support {

/// What went wrong, coarsely: the ladder in fault/degrade.cpp and the CLI
/// both branch on this, so keep the taxonomy small and stable.
enum class ErrorCode {
  kParse,         ///< malformed textual input
  kInvalidInput,  ///< well-formed but semantically out of range
  kTimeout,       ///< a wall-clock solve budget expired
  kCancelled,     ///< the request's CancelToken fired
  kInfeasible,    ///< no feasible solution exists (or was found)
  kIo,            ///< file system / stream failure
  kInternal,      ///< invariant violation surfaced as a value
};

const char* error_code_name(ErrorCode code);

/// A structured error: code + message (+ 1-based input line when the error
/// came from a parser; -1 otherwise).
struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  long line = -1;

  /// "parse error at line 12: bad node id 'x'" — the human rendering.
  std::string to_string() const;
};

/// Value-or-Error. Deliberately tiny: ok()/value()/error() and a couple of
/// constructors; no monadic combinators (call sites here are short).
template <typename T>
class Result {
 public:
  Result(T value) : state_(std::move(value)) {}          // NOLINT(implicit)
  Result(Error error) : state_(std::move(error)) {}      // NOLINT(implicit)

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  T& value() & {
    TVEG_ASSERT_MSG(ok(), "Result::value() on error: " + error_to_string());
    return std::get<T>(state_);
  }
  const T& value() const& {
    TVEG_ASSERT_MSG(ok(), "Result::value() on error: " + error_to_string());
    return std::get<T>(state_);
  }
  T&& value() && {
    TVEG_ASSERT_MSG(ok(), "Result::value() on error: " + error_to_string());
    return std::get<T>(std::move(state_));
  }

  const Error& error() const {
    TVEG_ASSERT_MSG(!ok(), "Result::error() on success");
    return std::get<Error>(state_);
  }

  /// value(), or throws std::invalid_argument rendering the error — the
  /// bridge for legacy call sites that still want throwing semantics.
  T take_or_throw() && {
    if (!ok()) throw std::invalid_argument(error().to_string());
    return std::get<T>(std::move(state_));
  }

 private:
  std::string error_to_string() const {
    return ok() ? std::string() : std::get<Error>(state_).to_string();
  }

  std::variant<T, Error> state_;
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse:
      return "parse error";
    case ErrorCode::kInvalidInput:
      return "invalid input";
    case ErrorCode::kTimeout:
      return "timeout";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kInfeasible:
      return "infeasible";
    case ErrorCode::kIo:
      return "i/o error";
    case ErrorCode::kInternal:
      return "internal error";
  }
  return "error";
}

inline std::string Error::to_string() const {
  std::string out = error_code_name(code);
  if (line >= 0) out += " at line " + std::to_string(line);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

}  // namespace tveg::support
