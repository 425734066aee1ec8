// Minimal self-contained JSON value: builder and serializer.
//
// The observability layer needs machine-readable output (metrics snapshots,
// bench reports, Chrome traces) without third-party dependencies. Nothing
// shipped reads JSON back; the tests' reader lives under tests/oracle.
// Deliberately small: null/bool/number/string/array/object, UTF-8 passed
// through verbatim, numbers serialized with shortest round-trip formatting.
// Object member order is preserved (deterministic output).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace tveg::obs {

/// One JSON value (recursive).
class Json {
 public:
  Json() = default;  ///< null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long v) : Json(static_cast<double>(v)) {}
  Json(long long v) : Json(static_cast<double>(v)) {}
  Json(unsigned long long v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { return Json(Type::kArray); }
  static Json object() { return Json(Type::kObject); }

  /// Appends to an array (the value must be an array).
  Json& push_back(Json v);
  /// Sets/overwrites a member of an object (the value must be an object).
  Json& set(std::string key, Json v);

  /// Serializes; indent < 0 = compact single line, otherwise pretty-printed
  /// with `indent` spaces per level.
  std::string dump(int indent = -1) const;

 private:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  explicit Json(Type t) : type_(t) {}
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace tveg::obs
