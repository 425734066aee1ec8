#include "oracle/json_reader.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tveg::oracle {

namespace {

void fail(const char* what, std::size_t at) {
  throw std::runtime_error("json: " + std::string(what) + " at offset " +
                           std::to_string(at));
}

}  // namespace

/// Recursive-descent parser over a string_view with one position cursor.
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input", pos);
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos);
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string", pos);
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape", pos);
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape", pos);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape", pos - 1);
          }
          // Encode as UTF-8 (BMP only; surrogate pairs are not needed for
          // our ASCII metric names but are passed through as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape", pos - 1);
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-'))
      ++pos;
    double value = 0;
    const auto res =
        std::from_chars(text.data() + start, text.data() + pos, value);
    if (res.ec != std::errc{} || res.ptr != text.data() + pos)
      fail("malformed number", start);
    return value;
  }

  static JsonValue make(JsonValue::Type type) {
    JsonValue v;
    v.type_ = type;
    return v;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      JsonValue obj = make(JsonValue::Type::kObject);
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        JsonValue member = parse_value();
        auto& members = obj.members_;
        auto it = std::find_if(members.begin(), members.end(),
                               [&](const auto& m) { return m.first == key; });
        if (it != members.end())
          it->second = std::move(member);
        else
          members.emplace_back(std::move(key), std::move(member));
        skip_ws();
        const char sep = peek();
        ++pos;
        if (sep == '}') return obj;
        if (sep != ',') fail("expected ',' or '}'", pos - 1);
      }
    }
    if (c == '[') {
      ++pos;
      JsonValue arr = make(JsonValue::Type::kArray);
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      while (true) {
        arr.items_.push_back(parse_value());
        skip_ws();
        const char sep = peek();
        ++pos;
        if (sep == ']') return arr;
        if (sep != ',') fail("expected ',' or ']'", pos - 1);
      }
    }
    if (c == '"') {
      JsonValue s = make(JsonValue::Type::kString);
      s.string_ = parse_string();
      return s;
    }
    for (const bool b : {true, false}) {
      if (consume_literal(b ? "true" : "false")) {
        JsonValue v = make(JsonValue::Type::kBool);
        v.bool_ = b;
        return v;
      }
    }
    if (consume_literal("null")) return JsonValue();
    JsonValue n = make(JsonValue::Type::kNumber);
    n.number_ = parse_number();
    return n;
  }
};

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("json: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("json: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  JsonParser p{text};
  JsonValue value = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) fail("trailing garbage", p.pos);
  return value;
}

JsonValue read_json(const obs::Json& doc) { return parse_json(doc.dump()); }

std::string validate_chrome_trace(const JsonValue& doc) {
  if (!doc.is_object()) return "document is not an object";
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return "missing traceEvents array";
  std::map<std::uint64_t, double> last_ts;
  std::map<std::uint64_t, std::vector<std::string>> stacks;
  std::size_t i = 0;
  for (const JsonValue& e : events->items()) {
    const std::string at = "event " + std::to_string(i++);
    if (!e.is_object()) return at + ": not an object";
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    const JsonValue* name = e.find("name");
    if (ph == nullptr || ph->type() != JsonValue::Type::kString)
      return at + ": missing ph";
    if (pid == nullptr || pid->type() != JsonValue::Type::kNumber)
      return at + ": missing numeric pid";
    if (tid == nullptr || tid->type() != JsonValue::Type::kNumber)
      return at + ": missing numeric tid";
    if (name == nullptr || name->type() != JsonValue::Type::kString)
      return at + ": missing name";
    const std::string& kind = ph->as_string();
    if (kind == "M") continue;  // metadata: no timing constraints
    if (kind != "B" && kind != "E" && kind != "X" && kind != "i")
      return at + ": unknown ph '" + kind + "'";
    const JsonValue* ts = e.find("ts");
    if (ts == nullptr || ts->type() != JsonValue::Type::kNumber)
      return at + ": missing numeric ts";
    const auto key = static_cast<std::uint64_t>(tid->as_number());
    const auto it = last_ts.find(key);
    if (it != last_ts.end() && ts->as_number() < it->second)
      return at + ": ts goes backwards on tid " + std::to_string(key);
    last_ts[key] = ts->as_number();
    if (kind == "X") {
      const JsonValue* dur = e.find("dur");
      if (dur == nullptr || dur->type() != JsonValue::Type::kNumber ||
          dur->as_number() < 0)
        return at + ": X event without non-negative dur";
      continue;
    }
    if (kind == "B") {
      stacks[key].push_back(name->as_string());
    } else if (kind == "E") {
      auto& stack = stacks[key];
      if (stack.empty())
        return at + ": E without matching B on tid " + std::to_string(key);
      if (stack.back() != name->as_string())
        return at + ": E '" + name->as_string() + "' does not match open B '" +
               stack.back() + "'";
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    if (!stack.empty())
      return "unclosed B '" + stack.back() + "' on tid " + std::to_string(tid);
  return "";
}

}  // namespace tveg::oracle
