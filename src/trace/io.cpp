#include "trace/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace tveg::trace {

using support::Error;
using support::ErrorCode;
using support::Result;

namespace {

Error parse_error(long line, std::string message) {
  return Error{ErrorCode::kParse, std::move(message), line};
}

Error input_error(long line, std::string message) {
  return Error{ErrorCode::kInvalidInput, std::move(message), line};
}

/// Full-token double parse; rejects empty tokens, trailing garbage, inf/nan.
bool parse_number(const std::string& token, double& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  if (!(v == v) || v > 1e300 || v < -1e300) return false;  // nan / inf
  return out = v, true;
}

/// Full-token node-id parse: a non-negative integer that fits NodeId.
bool parse_node(const std::string& token, NodeId& out) {
  if (token.empty()) return false;
  long long v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
    if (v > 0x7fffffffLL) return false;
  }
  return out = static_cast<NodeId>(v), true;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

/// Parses "key=value" tokens from the "# tveg-trace ..." header. Returns
/// false when the comment is not a tveg-trace header at all; malformed
/// values inside a recognized header are reported through `error`.
bool parse_header(const std::string& line, long line_no, NodeId& nodes,
                  Time& horizon, std::optional<Error>& error) {
  std::istringstream is(line);
  std::string hash, tag;
  is >> hash >> tag;
  if (hash != "#" || tag != "tveg-trace") return false;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    double v = 0;
    if (key == "nodes") {
      NodeId n = 0;
      if (!parse_node(value, n) || n <= 0) {
        error = parse_error(line_no, "bad header node count '" + value + "'");
        return true;
      }
      nodes = n;
    } else if (key == "horizon") {
      if (!parse_number(value, v) || v <= 0) {
        error = parse_error(line_no, "bad header horizon '" + value + "'");
        return true;
      }
      horizon = v;
    }
  }
  return true;
}

}  // namespace

Result<ContactTrace> parse_trace(std::istream& in,
                                 const ParseOptions& options) {
  struct Row {
    NodeId a, b;
    Time start, end;
    double distance;
    long line;
  };
  NodeId nodes = options.nodes;
  Time horizon = options.horizon;
  std::vector<Row> rows;
  std::string line;
  long line_no = 0;
  NodeId max_node = -1;
  Time max_time = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::optional<Error> header_error;
      parse_header(line, line_no, nodes, horizon, header_error);
      if (header_error) return *header_error;
      continue;
    }
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;  // whitespace-only line
    if (tokens.size() < 4 || tokens.size() > 5)
      return parse_error(line_no, "expected 4 or 5 fields, got " +
                                      std::to_string(tokens.size()));
    Row r{};
    r.line = line_no;
    r.distance = options.default_distance;
    if (!parse_node(tokens[0], r.a))
      return parse_error(line_no, "bad node id '" + tokens[0] + "'");
    if (!parse_node(tokens[1], r.b))
      return parse_error(line_no, "bad node id '" + tokens[1] + "'");
    if (!parse_number(tokens[2], r.start))
      return parse_error(line_no, "bad start time '" + tokens[2] + "'");
    if (!parse_number(tokens[3], r.end))
      return parse_error(line_no, "bad end time '" + tokens[3] + "'");
    if (tokens.size() == 5 && !parse_number(tokens[4], r.distance))
      return parse_error(line_no, "bad distance '" + tokens[4] + "'");

    if (r.a == r.b)
      return input_error(r.line,
                         "self-contact on node " + std::to_string(r.a));
    if (r.start < 0)
      return input_error(r.line, "negative contact start " +
                                     std::to_string(r.start));
    if (r.end <= r.start)
      return input_error(
          r.line, "empty or inverted contact interval [" +
                      std::to_string(r.start) + ", " + std::to_string(r.end) +
                      ")");
    if (r.distance <= 0)
      return input_error(r.line, "non-positive contact distance " +
                                     std::to_string(r.distance));

    rows.push_back(r);
    max_node = std::max({max_node, r.a, r.b});
    max_time = std::max(max_time, r.end);
  }
  if (in.bad()) return Error{ErrorCode::kIo, "stream read failure", line_no};

  if (nodes <= 0) nodes = max_node + 1;
  if (horizon <= 0) horizon = max_time;
  if (nodes <= 1)
    return Error{ErrorCode::kInvalidInput, "trace declares fewer than two nodes"};
  if (horizon <= 0)
    return Error{ErrorCode::kInvalidInput, "trace has no positive horizon"};

  // Reject overlapping intervals for the same pair: they double-count the
  // link and usually indicate a corrupted or mis-merged trace. (Touching
  // intervals are fine — alternating contact/gap sequences produce them.)
  {
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto pair_key = [&](const Row& r) {
      return std::pair<NodeId, NodeId>(std::min(r.a, r.b), std::max(r.a, r.b));
    };
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      const auto kx = pair_key(rows[x]), ky = pair_key(rows[y]);
      if (kx != ky) return kx < ky;
      return rows[x].start < rows[y].start;
    });
    for (std::size_t i = 1; i < order.size(); ++i) {
      const Row& prev = rows[order[i - 1]];
      const Row& cur = rows[order[i]];
      if (pair_key(prev) == pair_key(cur) && cur.start < prev.end - 1e-12)
        return input_error(
            cur.line, "overlapping contact intervals for pair (" +
                          std::to_string(cur.a) + ", " + std::to_string(cur.b) +
                          ") (previous interval from line " +
                          std::to_string(prev.line) + " ends at " +
                          std::to_string(prev.end) + ")");
    }
  }

  ContactTrace trace(nodes, horizon);
  for (const Row& r : rows) {
    if (r.a >= nodes || r.b >= nodes)
      return input_error(r.line, "node id " + std::to_string(std::max(r.a, r.b)) +
                                     " out of range (trace declares " +
                                     std::to_string(nodes) + " nodes)");
    // A declared horizon is a view, not a claim about the data: clip, and
    // drop contacts that fall entirely outside it.
    const Time s = r.start;
    const Time e = std::min(r.end, horizon);
    if (s < e) trace.add({r.a, r.b, s, e, r.distance});
  }
  trace.sort();
  return trace;
}

Result<ContactTrace> parse_trace_file(const std::string& path,
                                      const ParseOptions& options) {
  std::ifstream in(path);
  if (!in.good())
    return Error{ErrorCode::kIo, "cannot open trace file: " + path};
  return parse_trace(in, options);
}

ContactTrace read_trace_file(const std::string& path, NodeId nodes,
                             Time horizon, double default_distance) {
  return parse_trace_file(path, {nodes, horizon, default_distance})
      .take_or_throw();
}

void write_trace(std::ostream& out, const ContactTrace& trace) {
  out << "# tveg-trace nodes=" << trace.node_count()
      << " horizon=" << trace.horizon() << '\n';
  out.precision(17);  // round-trip exact doubles
  for (const Contact& c : trace.contacts())
    out << c.a << ' ' << c.b << ' ' << c.start << ' ' << c.end << ' '
        << c.distance << '\n';
}

void write_trace_file(const std::string& path, const ContactTrace& trace) {
  std::ofstream out(path);
  TVEG_REQUIRE(out.good(), "cannot open output file: " + path);
  write_trace(out, trace);
}

}  // namespace tveg::trace
