// Contact-trace serialization.
//
// Format: whitespace-separated text, one contact per line —
//     <node_a> <node_b> <start> <end> [distance]
// with optional '#' comment lines and an optional header line
//     # tveg-trace nodes=<N> horizon=<T>
// This is a superset of the CRAWDAD imote/haggle contact list format, so a
// real Haggle trace (plus a chosen node count / horizon) drops in directly.
//
// Two parsing entry points:
//  * parse_trace / parse_trace_file return Result<ContactTrace> with a
//    structured, line-numbered Error on malformed input — the robust path
//    the CLI and the fault pipeline use;
//  * read_trace_file keeps the original throwing interface on top of the
//    same parser.
#pragma once

#include <iosfwd>
#include <string>

#include "support/result.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::trace {

/// Parser knobs shared by the robust and throwing entry points.
struct ParseOptions {
  /// Node count / horizon when the header is absent (0 = infer from data).
  NodeId nodes = 0;
  Time horizon = 0;
  /// Distance for 4-column lines.
  double default_distance = 1.0;
};

/// Parses a trace from a stream. Malformed lines (wrong arity, non-numeric
/// fields, trailing garbage), semantically invalid contacts (self-contacts,
/// negative times, end <= start, out-of-range node ids, non-positive
/// distances) and bad headers produce a support::Error carrying the 1-based
/// line number instead of throwing or silently dropping rows. Contacts
/// extending past the declared horizon are clipped (a declared horizon is a
/// view, not a claim about the data).
support::Result<ContactTrace> parse_trace(std::istream& in,
                                          const ParseOptions& options = {});

/// As above from a file path (missing/unreadable file → ErrorCode::kIo).
support::Result<ContactTrace> parse_trace_file(const std::string& path,
                                               const ParseOptions& options = {});

/// Reads a trace from a file path; throws std::invalid_argument rendering
/// the parse error. If the header line is absent, `nodes` and `horizon` must
/// be supplied (> 0).
ContactTrace read_trace_file(const std::string& path, NodeId nodes = 0,
                             Time horizon = 0, double default_distance = 1.0);

/// Writes a trace (with header) in the format parse_trace understands.
void write_trace(std::ostream& out, const ContactTrace& trace);

/// Writes a trace to a file path.
void write_trace_file(const std::string& path, const ContactTrace& trace);

}  // namespace tveg::trace
