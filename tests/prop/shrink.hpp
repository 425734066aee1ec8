// Greedy trace shrinker for the metamorphic property harness.
//
// When a relation fails on a generated instance, the raw counterexample is a
// trace with dozens of contacts — useless for debugging. shrink_trace()
// minimizes it while preserving the violation: it repeatedly tries to drop a
// contact, drop the highest node, or cut the horizon, keeping each edit only
// if the caller's predicate still reports a violation. The result is a local
// minimum: removing any single remaining contact makes the violation vanish.
//
// The predicate convention is "returns true while the property is STILL
// violated" — the shrinker never returns a trace for which the predicate is
// false, so a shrunk reproducer is guaranteed to still exhibit the bug.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "support/assert.hpp"
#include "trace/contact_trace.hpp"

namespace tveg::prop {

using Predicate = std::function<bool(const trace::ContactTrace&)>;

/// Rebuilds `t` without the contact at index `skip` (node count and horizon
/// unchanged).
inline trace::ContactTrace drop_contact(const trace::ContactTrace& t,
                                        std::size_t skip) {
  trace::ContactTrace out(t.node_count(), t.horizon());
  for (std::size_t i = 0; i < t.contacts().size(); ++i)
    if (i != skip) out.add(t.contacts()[i]);
  return out;
}

/// Rebuilds `t` with the horizon cut to `horizon`, keeping only contacts
/// that fit entirely inside the new window.
inline trace::ContactTrace cut_horizon(const trace::ContactTrace& t,
                                       Time horizon) {
  trace::ContactTrace out(t.node_count(), horizon);
  for (const trace::Contact& c : t.contacts())
    if (c.end <= horizon) out.add(c);
  return out;
}

/// Restriction of `t` to nodes 0..n-1 (1 < n <= node count), sorted.
inline trace::ContactTrace head_nodes(const trace::ContactTrace& t, NodeId n) {
  TVEG_REQUIRE(n > 1 && n <= t.node_count(), "invalid node prefix size");
  trace::ContactTrace out(n, t.horizon());
  for (const trace::Contact& c : t.contacts())
    if (c.a < n && c.b < n) out.add(c);
  out.sort();
  return out;
}

/// Greedily minimizes `t` subject to `violates` staying true. Terminates:
/// every accepted edit strictly shrinks (fewer contacts, fewer nodes, or a
/// smaller horizon) and none of the moves can grow the trace.
inline trace::ContactTrace shrink_trace(trace::ContactTrace t,
                                        const Predicate& violates) {
  if (!violates(t)) return t;  // nothing to preserve; caller bug
  bool changed = true;
  while (changed) {
    changed = false;
    // Pass 1: drop single contacts (scan from the back so erasing does not
    // disturb the indices still to be visited).
    for (std::size_t i = t.contacts().size(); i-- > 0;) {
      trace::ContactTrace candidate = drop_contact(t, i);
      if (violates(candidate)) {
        t = std::move(candidate);
        changed = true;
      }
    }
    // Pass 2: drop the highest-numbered node.
    while (t.node_count() > 2) {
      trace::ContactTrace candidate = head_nodes(t, t.node_count() - 1);
      if (!violates(candidate)) break;
      t = std::move(candidate);
      changed = true;
    }
    // Pass 3: cut the horizon to the last contact end (then try halving).
    Time last_end = 0.0;
    for (const trace::Contact& c : t.contacts())
      if (c.end > last_end) last_end = c.end;
    for (const Time h : {last_end, t.horizon() / 2}) {
      if (h > 0.0 && h < t.horizon()) {
        trace::ContactTrace candidate = cut_horizon(t, h);
        if (violates(candidate)) {
          t = std::move(candidate);
          changed = true;
        }
      }
    }
  }
  return t;
}

/// Renders a trace as a paste-able reproducer (one contact per line).
inline std::string describe(const trace::ContactTrace& t) {
  std::ostringstream os;
  os << "ContactTrace t(" << t.node_count() << ", " << t.horizon() << ");\n";
  for (const trace::Contact& c : t.contacts())
    os << "t.add({" << c.a << ", " << c.b << ", " << c.start << ", " << c.end
       << ", " << c.distance << "});\n";
  return os.str();
}

}  // namespace tveg::prop
