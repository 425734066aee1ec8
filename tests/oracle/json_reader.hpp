// Read side of the JSON the observability layer writes.
//
// obs::Json only builds and serializes documents; tests read them back
// through this parser to check that exports round-trip and that Chrome
// traces are well-formed.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace tveg::oracle {

/// One parsed JSON value (recursive, read-only).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  bool operator==(const JsonValue&) const = default;

 private:
  friend struct JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses a complete JSON document; throws std::runtime_error with a byte
/// offset on malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

/// Reads back a document built in-process (parses its compact dump).
JsonValue read_json(const obs::Json& doc);

/// Structural validation of a Chrome trace_event document: traceEvents must
/// be an array of objects carrying ph/pid/tid/name, B/E/X events need
/// numeric ts (X also dur >= 0), ts must be non-decreasing per tid, and B/E
/// pairs must match LIFO per tid. Returns "" when valid, else the first
/// violation.
std::string validate_chrome_trace(const JsonValue& doc);

}  // namespace tveg::oracle
