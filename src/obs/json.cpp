#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tveg::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  // JSON has no inf/nan; map them to null rather than emit invalid output.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

Json& Json::push_back(Json v) {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  items_.push_back(std::move(v));
  return *this;
}

Json& Json::set(std::string key, Json v) {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  for (auto& [k, existing] : members_)
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  members_.emplace_back(std::move(key), std::move(v));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, number_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        append_escaped(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace tveg::obs
