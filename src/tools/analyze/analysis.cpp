#include "tools/analyze/analysis.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <tuple>

#include "tools/common/source_text.hpp"

namespace tveg::analyze {

namespace {

using srctext::Views;
using srctext::line_of;
using srctext::line_starts;

struct SourceFile {
  std::string path;
  std::string text;
  Views views;
  std::vector<std::size_t> starts;
};

bool allowed(const SourceFile& f, long line, const std::string& rule) {
  return srctext::suppressed(f.text, f.starts, line, "tveg-analyze", rule);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// `id` as a whole identifier anywhere in `hay`.
bool mentions_identifier(const std::string& hay, const std::string& id) {
  std::size_t pos = 0;
  while ((pos = hay.find(id, pos)) != std::string::npos) {
    const bool lb = pos == 0 || !ident_char(hay[pos - 1]);
    const bool rb =
        pos + id.size() >= hay.size() || !ident_char(hay[pos + id.size()]);
    if (lb && rb) return true;
    pos += 1;
  }
  return false;
}

std::string camel_to_snake(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (!out.empty()) out += '_';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Manifest (src/obs/keys.hpp) checks
// ---------------------------------------------------------------------------

struct ManifestEntry {
  std::string name;   ///< constant identifier, e.g. kCacheBuilds
  std::string value;  ///< key literal, e.g. tveg.cache.builds
  bool prefix = false;
  long line = 0;
};

struct FlightName {
  std::string name;
  long line = 0;
};

struct Manifest {
  const SourceFile* file = nullptr;
  std::vector<ManifestEntry> entries;
  bool has_flight_list = false;
  std::vector<FlightName> flight_names;
};

Manifest parse_manifest(const SourceFile& f) {
  Manifest m;
  m.file = &f;
  static const std::regex entry_re(
      R"re((k[A-Za-z0-9]\w*)\s*\[\]\s*=\s*"([^"]*)")re");
  const std::string& hay = f.views.with_strings;
  for (auto it = std::sregex_iterator(hay.begin(), hay.end(), entry_re);
       it != std::sregex_iterator(); ++it) {
    ManifestEntry e;
    e.name = (*it)[1].str();
    if (e.name == "kFlightEventNames") continue;
    e.value = (*it)[2].str();
    e.prefix = (e.name.size() > 6 &&
                e.name.compare(e.name.size() - 6, 6, "Prefix") == 0) ||
               (!e.value.empty() && e.value.back() == '.');
    e.line = line_of(f.starts, static_cast<std::size_t>(it->position(1)));
    m.entries.push_back(std::move(e));
  }
  const std::size_t at = hay.find("kFlightEventNames");
  if (at == std::string::npos) return m;
  m.has_flight_list = true;
  const std::size_t end = hay.find('}', at);
  const std::string region =
      hay.substr(at, (end == std::string::npos ? hay.size() : end) - at);
  static const std::regex name_re(R"re("([a-z0-9_]+)")re");
  for (auto it = std::sregex_iterator(region.begin(), region.end(), name_re);
       it != std::sregex_iterator(); ++it)
    m.flight_names.push_back(
        {(*it)[1].str(),
         line_of(f.starts, at + static_cast<std::size_t>(it->position(1)))});
  return m;
}

bool key_in_manifest(const Manifest& m, const std::string& literal) {
  for (const ManifestEntry& e : m.entries) {
    if (literal == e.value) return true;
    if (e.prefix && literal.size() > e.value.size() &&
        literal.compare(0, e.value.size(), e.value) == 0)
      return true;
  }
  return false;
}

void check_manifest(const std::vector<SourceFile>& files, const Manifest& m,
                    std::vector<Finding>& findings) {
  static const std::regex lit_re(R"re("(tveg\.[A-Za-z0-9_.]*)")re");
  static const std::regex flight_re(R"(FlightEventKind\s*::\s*k([A-Z]\w*))");
  std::vector<std::string> literals;  // every tveg.* literal outside keys.hpp
  std::set<std::string> used_flight;
  for (const SourceFile& f : files) {
    const bool is_manifest = m.file == &f;
    if (!is_manifest) {
      const std::string& hay = f.views.with_strings;
      for (auto it = std::sregex_iterator(hay.begin(), hay.end(), lit_re);
           it != std::sregex_iterator(); ++it) {
        const std::string literal = (*it)[1].str();
        literals.push_back(literal);
        if (key_in_manifest(m, literal)) continue;
        const long line =
            line_of(f.starts, static_cast<std::size_t>(it->position(1)));
        if (allowed(f, line, "metrics-manifest")) continue;
        findings.push_back(
            {f.path, line, "metrics-manifest",
             "key \"" + literal +
                 "\" is not in the keys.hpp manifest; add a constant there "
                 "(and use it) or fix the typo"});
      }
    }
    const std::string& tok = f.views.tokens;
    for (auto it = std::sregex_iterator(tok.begin(), tok.end(), flight_re);
         it != std::sregex_iterator(); ++it) {
      const std::string snake = camel_to_snake((*it)[1].str());
      used_flight.insert(snake);
      if (!m.has_flight_list) continue;
      const bool listed = std::any_of(
          m.flight_names.begin(), m.flight_names.end(),
          [&](const FlightName& fn) { return fn.name == snake; });
      if (listed) continue;
      const long line =
          line_of(f.starts, static_cast<std::size_t>(it->position(0)));
      if (allowed(f, line, "flight-manifest")) continue;
      findings.push_back(
          {f.path, line, "flight-manifest",
           "FlightEventKind::k" + (*it)[1].str() + " (\"" + snake +
               "\") is missing from kFlightEventNames in the keys.hpp "
               "manifest"});
    }
  }
  // Dead entries: neither the identifier nor the literal value is used
  // anywhere outside the manifest itself.
  for (const ManifestEntry& e : m.entries) {
    bool live = false;
    for (const SourceFile& f : files) {
      if (m.file == &f) continue;
      if (mentions_identifier(f.views.tokens, e.name)) {
        live = true;
        break;
      }
    }
    if (!live)
      live = std::any_of(
          literals.begin(), literals.end(), [&](const std::string& l) {
            return l == e.value ||
                   (e.prefix && l.size() > e.value.size() &&
                    l.compare(0, e.value.size(), e.value) == 0);
          });
    if (live || allowed(*m.file, e.line, "manifest-dead-key")) continue;
    findings.push_back(
        {m.file->path, e.line, "manifest-dead-key",
         e.name + " (\"" + e.value +
             "\") is referenced nowhere outside the manifest; delete the "
             "dead key or wire up the call site"});
  }
  for (const FlightName& fn : m.flight_names) {
    if (used_flight.count(fn.name) != 0 ||
        allowed(*m.file, fn.line, "manifest-dead-key"))
      continue;
    findings.push_back(
        {m.file->path, fn.line, "manifest-dead-key",
         "flight event name \"" + fn.name +
             "\" has no FlightEventKind::k" + "... use anywhere; remove it "
             "from kFlightEventNames or restore the event"});
  }
}

// ---------------------------------------------------------------------------
// Lock-order graph
// ---------------------------------------------------------------------------

/// Normalized mutex identity: whitespace removed, `->` folded to `.`,
/// leading `this.` / `&` / `*` stripped. The same expression in two TUs
/// aggregates into one node — that is what makes the check cross-TU.
std::string normalize_mutex(const std::string& raw) {
  std::string s;
  for (const char c : raw)
    if (!std::isspace(static_cast<unsigned char>(c))) s += c;
  std::string t;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '-' && i + 1 < s.size() && s[i + 1] == '>') {
      t += '.';
      ++i;
    } else {
      t += s[i];
    }
  }
  while (!t.empty() && (t.front() == '&' || t.front() == '*'))
    t.erase(t.begin());
  if (t.rfind("this.", 0) == 0) t = t.substr(5);
  return t;
}

struct EdgeSite {
  std::string file;
  long line = 0;
};

/// from -> to -> first example site.
using LockGraph = std::map<std::string, std::map<std::string, EdgeSite>>;

struct LockEvent {
  enum class Kind { kAcquire, kRequireOpen, kUnlock };
  std::size_t offset = 0;
  Kind kind = Kind::kAcquire;
  std::vector<std::string> ids;  ///< normalized mutex ids
  std::string var;               ///< lock variable (acquire/unlock)
};

/// Splits a paren-group body on top-level commas.
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (const char c : args) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<LockEvent> lock_events(const SourceFile& f) {
  std::vector<LockEvent> events;
  const std::string& tok = f.views.tokens;
  static const std::regex acquire_re(
      R"((?:\bsupport\s*::\s*)?\bMutexLock\s+(\w+)\s*\(([^();]*)\))");
  static const std::regex std_acquire_re(
      R"(\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock)\s*<[^<>]*>\s+(\w+)\s*\(([^();]*)\))");
  static const std::regex unlock_re(R"(\b(\w+)\s*\.\s*unlock\s*\(\s*\))");
  const auto add_acquires = [&](const std::regex& re) {
    for (auto it = std::sregex_iterator(tok.begin(), tok.end(), re);
         it != std::sregex_iterator(); ++it) {
      LockEvent e;
      e.offset = static_cast<std::size_t>(it->position(0));
      e.kind = LockEvent::Kind::kAcquire;
      e.var = (*it)[1].str();
      for (const std::string& a : split_args((*it)[2].str())) {
        const std::string id = normalize_mutex(a);
        // std::adopt_lock / std::defer_lock tag arguments are not mutexes
        if (!id.empty() && id.rfind("std::", 0) != 0) e.ids.push_back(id);
      }
      if (!e.ids.empty()) events.push_back(std::move(e));
    }
  };
  add_acquires(acquire_re);
  add_acquires(std_acquire_re);
  for (auto it = std::sregex_iterator(tok.begin(), tok.end(), unlock_re);
       it != std::sregex_iterator(); ++it) {
    LockEvent e;
    e.offset = static_cast<std::size_t>(it->position(0));
    e.kind = LockEvent::Kind::kUnlock;
    e.var = (*it)[1].str();
    events.push_back(std::move(e));
  }
  // TVEG_REQUIRES(mu) on a *definition* means mu is held throughout the
  // body that follows — seed the graph with it. Declarations (`;` before
  // `{`) contribute nothing.
  std::size_t pos = 0;
  while ((pos = tok.find("TVEG_REQUIRES", pos)) != std::string::npos) {
    const std::size_t after = pos + 13;
    if ((pos > 0 && ident_char(tok[pos - 1])) ||
        (after < tok.size() && ident_char(tok[after]))) {
      pos = after;
      continue;
    }
    std::size_t open = after;
    while (open < tok.size() &&
           std::isspace(static_cast<unsigned char>(tok[open])))
      ++open;
    if (open >= tok.size() || tok[open] != '(') {
      pos = after;
      continue;
    }
    int depth = 0;
    std::size_t close = open;
    for (; close < tok.size(); ++close) {
      if (tok[close] == '(') ++depth;
      if (tok[close] == ')' && --depth == 0) break;
    }
    if (close >= tok.size()) break;
    const std::string args = tok.substr(open + 1, close - open - 1);
    std::size_t q = close + 1;
    while (q < tok.size() && tok[q] != '{' && tok[q] != ';' && tok[q] != '=')
      ++q;
    if (q < tok.size() && tok[q] == '{') {
      LockEvent e;
      e.offset = q;
      e.kind = LockEvent::Kind::kRequireOpen;
      for (const std::string& a : split_args(args)) {
        const std::string id = normalize_mutex(a);
        if (!id.empty() && id != "...") e.ids.push_back(id);
      }
      if (!e.ids.empty()) events.push_back(std::move(e));
    }
    pos = close;
  }
  std::sort(events.begin(), events.end(),
            [](const LockEvent& a, const LockEvent& b) {
              return a.offset < b.offset;
            });
  return events;
}

void scan_lock_order(const SourceFile& f, LockGraph& graph) {
  const std::vector<LockEvent> events = lock_events(f);
  if (events.empty()) return;
  struct Held {
    std::string id;
    std::string var;
    int scope = 0;
  };
  std::vector<Held> held;
  const std::string& tok = f.views.tokens;
  int depth = 0;
  std::size_t ei = 0;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      while (!held.empty() && held.back().scope > depth) held.pop_back();
    }
    while (ei < events.size() && events[ei].offset == i) {
      const LockEvent& e = events[ei++];
      switch (e.kind) {
        case LockEvent::Kind::kAcquire:
        case LockEvent::Kind::kRequireOpen: {
          const long line = line_of(f.starts, e.offset);
          const bool drop = allowed(f, line, "lock-order-cycle");
          for (const std::string& id : e.ids) {
            for (const Held& h : held) {
              if (h.id == id || drop) continue;
              auto& slot = graph[h.id];
              if (slot.find(id) == slot.end())
                slot.emplace(id, EdgeSite{f.path, line});
            }
            held.push_back({id, e.var, depth});
          }
          break;
        }
        case LockEvent::Kind::kUnlock: {
          for (std::size_t k = held.size(); k-- > 0;) {
            if (held[k].var == e.var && !held[k].var.empty()) {
              held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
              break;
            }
          }
          break;
        }
      }
    }
  }
}

void check_lock_order(const std::vector<SourceFile>& files,
                      std::vector<Finding>& findings) {
  LockGraph graph;
  for (const SourceFile& f : files) scan_lock_order(f, graph);
  // DFS cycle detection with deterministic order and one finding per
  // distinct cycle (canonicalized by rotating to its smallest node).
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        const auto it = graph.find(node);
        if (it != graph.end()) {
          for (const auto& [next, site] : it->second) {
            if (color[next] == 2) continue;
            if (color[next] == 1) {
              const auto at =
                  std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(at, stack.end());
              const auto min_it =
                  std::min_element(cycle.begin(), cycle.end());
              std::rotate(cycle.begin(), min_it, cycle.end());
              std::string canon;
              for (const std::string& n : cycle) canon += n + ";";
              if (!reported.insert(canon).second) continue;
              std::string path;
              for (std::size_t k = 0; k < cycle.size(); ++k)
                path += cycle[k] + " -> ";
              path += cycle.front();
              std::string sites;
              for (std::size_t k = 0; k < cycle.size(); ++k) {
                const std::string& a = cycle[k];
                const std::string& b = cycle[(k + 1) % cycle.size()];
                const EdgeSite& es = graph[a][b];
                if (!sites.empty()) sites += ", ";
                sites += a + " -> " + b + " at " + es.file + ":" +
                         std::to_string(es.line);
              }
              findings.push_back(
                  {site.file, site.line, "lock-order-cycle",
                   "lock-order cycle " + path + " (" + sites +
                       "); pick one acquisition order and document it in "
                       "DESIGN.md"});
              continue;
            }
            dfs(next);
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, _] : graph)
    if (color[node] == 0) dfs(node);
}

// ---------------------------------------------------------------------------
// Exception boundaries (noexcept-throw)
// ---------------------------------------------------------------------------

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",        "while",     "switch",   "catch",
      "return",   "sizeof",     "alignof",   "alignas",  "decltype",
      "noexcept", "static_assert",           "operator", "throw",
      "new",      "delete",     "assert",    "defined",  "case",
      "goto",     "co_await",   "co_return", "co_yield", "requires",
      "explicit", "template",   "typename",  "using",    "namespace",
      "else",     "do",         "try",       "constexpr"};
  return kw;
}

struct Definition {
  const SourceFile* file = nullptr;
  std::string name;     ///< last component, the cross-TU link key
  std::string display;  ///< as written, possibly qualified
  bool is_noexcept = false;
  std::size_t body_begin = 0;  ///< offset of the opening brace
  std::size_t body_end = 0;    ///< offset of the matching close brace
  /// try-block ranges covered by a catch (...) barrier.
  std::vector<std::pair<std::size_t, std::size_t>> guarded;
  bool thrower = false;
};

std::size_t match_brace(const std::string& tok, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tok.size(); ++i) {
    if (tok[i] == '{') ++depth;
    if (tok[i] == '}' && --depth == 0) return i;
  }
  return tok.size();
}

std::size_t match_paren(const std::string& tok, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tok.size(); ++i) {
    if (tok[i] == '(') ++depth;
    if (tok[i] == ')' && --depth == 0) return i;
  }
  return tok.size();
}

std::size_t skip_ws(const std::string& tok, std::size_t i) {
  while (i < tok.size() && std::isspace(static_cast<unsigned char>(tok[i])))
    ++i;
  return i;
}

/// Scans the token stream after a parameter list for the definition body,
/// classifying `noexcept` on the way. Returns npos when the construct is a
/// declaration/expression rather than a definition.
std::size_t find_body(const std::string& tok, std::size_t after_params,
                      bool& is_noexcept) {
  std::size_t q = after_params;
  is_noexcept = false;
  while (q < tok.size()) {
    q = skip_ws(tok, q);
    if (q >= tok.size()) break;
    const char c = tok[q];
    if (c == '{') return q;
    if (c == ';' || c == '=' || c == ',' || c == ')') return std::string::npos;
    if (c == ':') {
      // constructor init list: body is the first top-level '{'
      int pd = 0;
      ++q;
      while (q < tok.size()) {
        const char d = tok[q];
        if (d == '(') ++pd;
        if (d == ')') --pd;
        if (pd == 0 && d == '{') return q;
        if (pd == 0 && d == ';') return std::string::npos;
        ++q;
      }
      return std::string::npos;
    }
    if (c == '-' && q + 1 < tok.size() && tok[q + 1] == '>') {
      // trailing return type: scan to body or terminator
      q += 2;
      while (q < tok.size() && tok[q] != '{' && tok[q] != ';' &&
             tok[q] != '=')
        ++q;
      continue;
    }
    if (c == '&') {  // ref-qualifier
      ++q;
      continue;
    }
    if (ident_char(c)) {
      std::size_t w = q;
      while (w < tok.size() && ident_char(tok[w])) ++w;
      const std::string word = tok.substr(q, w - q);
      q = w;
      if (word == "noexcept") {
        is_noexcept = true;
        const std::size_t p = skip_ws(tok, q);
        if (p < tok.size() && tok[p] == '(') {
          const std::size_t close = match_paren(tok, p);
          std::string cond = tok.substr(p + 1, close - p - 1);
          cond.erase(std::remove_if(cond.begin(), cond.end(),
                                    [](unsigned char ch) {
                                      return std::isspace(ch) != 0;
                                    }),
                     cond.end());
          if (cond != "true") is_noexcept = false;
          q = close + 1;
        }
        continue;
      }
      if (word == "const" || word == "override" || word == "final" ||
          word == "mutable" || word == "volatile")
        continue;
      if (word.rfind("TVEG_", 0) == 0) {  // annotation macros
        const std::size_t p = skip_ws(tok, q);
        if (p < tok.size() && tok[p] == '(') q = match_paren(tok, p) + 1;
        continue;
      }
      return std::string::npos;  // an expression continues — not a def
    }
    return std::string::npos;
  }
  return std::string::npos;
}

void find_definitions(const SourceFile& f, std::vector<Definition>& defs) {
  const std::string& tok = f.views.tokens;
  static const std::regex def_re(
      R"(((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\()");
  for (auto it = std::sregex_iterator(tok.begin(), tok.end(), def_re);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position(0));
    if (at > 0 && ident_char(tok[at - 1])) continue;  // mid-token
    // member access before the name means a call, never a definition
    std::size_t back = at;
    while (back > 0 &&
           std::isspace(static_cast<unsigned char>(tok[back - 1])))
      --back;
    if (back > 0 && (tok[back - 1] == '.' ||
                     (back > 1 && tok[back - 2] == '-' &&
                      tok[back - 1] == '>')))
      continue;
    const std::string qualified = (*it)[1].str();
    const std::size_t sep = qualified.rfind("::");
    const std::string name =
        sep == std::string::npos ? qualified : qualified.substr(sep + 2);
    if (cpp_keywords().count(name) != 0) continue;
    const std::size_t open =
        at + static_cast<std::size_t>(it->length(0)) - 1;
    const std::size_t close = match_paren(tok, open);
    if (close >= tok.size()) continue;
    bool is_noexcept = false;
    const std::size_t body = find_body(tok, close + 1, is_noexcept);
    if (body == std::string::npos) continue;
    Definition d;
    d.file = &f;
    d.name = name;
    d.display = qualified;
    d.is_noexcept = is_noexcept;
    d.body_begin = body;
    d.body_end = match_brace(tok, body);
    // catch (...) barriers inside the body
    std::size_t pos = body;
    while ((pos = tok.find("try", pos + 1)) != std::string::npos &&
           pos < d.body_end) {
      if (ident_char(tok[pos - 1]) ||
          (pos + 3 < tok.size() && ident_char(tok[pos + 3])))
        continue;
      std::size_t brace = skip_ws(tok, pos + 3);
      if (brace >= tok.size() || tok[brace] != '{') continue;
      const std::size_t try_end = match_brace(tok, brace);
      bool catches_all = false;
      std::size_t q = skip_ws(tok, try_end + 1);
      while (q + 5 < tok.size() && tok.compare(q, 5, "catch") == 0) {
        const std::size_t po = skip_ws(tok, q + 5);
        if (po >= tok.size() || tok[po] != '(') break;
        const std::size_t pc = match_paren(tok, po);
        if (tok.substr(po, pc - po).find("...") != std::string::npos)
          catches_all = true;
        const std::size_t bo = skip_ws(tok, pc + 1);
        if (bo >= tok.size() || tok[bo] != '{') break;
        q = skip_ws(tok, match_brace(tok, bo) + 1);
      }
      if (catches_all) d.guarded.emplace_back(brace, try_end);
      pos = try_end;
    }
    defs.push_back(std::move(d));
  }
}

bool in_guarded(const Definition& d, std::size_t offset) {
  for (const auto& [lo, hi] : d.guarded)
    if (offset >= lo && offset <= hi) return true;
  return false;
}

void check_noexcept_throw(const std::vector<SourceFile>& files,
                          std::vector<Finding>& findings) {
  std::vector<Definition> defs;
  for (const SourceFile& f : files) find_definitions(f, defs);
  // Direct throwers: a `throw` token in the unguarded body.
  for (Definition& d : defs) {
    const std::string& tok = d.file->views.tokens;
    std::size_t pos = d.body_begin;
    while ((pos = tok.find("throw", pos + 1)) != std::string::npos &&
           pos < d.body_end) {
      const bool lb = !ident_char(tok[pos - 1]);
      const bool rb =
          pos + 5 >= tok.size() || !ident_char(tok[pos + 5]);
      if (lb && rb && !in_guarded(d, pos)) {
        d.thrower = true;
        break;
      }
    }
  }
  // Call graph: name -> definitions; calls resolved by last identifier.
  std::map<std::string, std::vector<const Definition*>> by_name;
  for (const Definition& d : defs) by_name[d.name].push_back(&d);
  static const std::regex call_re(
      R"(((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\()");
  struct Call {
    std::string name;
    std::size_t offset = 0;
  };
  const auto calls_of = [&](const Definition& d) {
    std::vector<Call> calls;
    const std::string& tok = d.file->views.tokens;
    const std::string body =
        tok.substr(d.body_begin, d.body_end - d.body_begin);
    for (auto it = std::sregex_iterator(body.begin(), body.end(), call_re);
         it != std::sregex_iterator(); ++it) {
      // Member calls (`obj.f(...)`, `p->f(...)`) are receiver-dispatched;
      // resolving them by bare name across unrelated classes produces
      // collisions (any `x.size()` against a throwing Json::size), so a
      // text tool only follows free and `::`-qualified calls.
      std::size_t back = static_cast<std::size_t>(it->position(0));
      while (back > 0 &&
             std::isspace(static_cast<unsigned char>(body[back - 1])))
        --back;
      if (back > 0 && (body[back - 1] == '.' ||
                       (back > 1 && body[back - 2] == '-' &&
                        body[back - 1] == '>')))
        continue;
      const std::string qualified = (*it)[1].str();
      const std::size_t sep = qualified.rfind("::");
      const std::string name =
          sep == std::string::npos ? qualified : qualified.substr(sep + 2);
      if (cpp_keywords().count(name) != 0) continue;
      if (by_name.find(name) == by_name.end()) continue;
      calls.push_back(
          {name, d.body_begin + static_cast<std::size_t>(it->position(0))});
    }
    return calls;
  };
  std::vector<std::vector<Call>> all_calls;
  all_calls.reserve(defs.size());
  for (const Definition& d : defs) all_calls.push_back(calls_of(d));
  const auto name_throws = [&](const std::string& name) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) return false;
    // A name with several definitions (Counter::add vs IntervalSet::add)
    // cannot be resolved by a text tool; propagating "any definition
    // throws" through it flags unrelated classes, so ambiguous names stop
    // the walk. Direct `throw` inside the noexcept body is still caught.
    if (it->second.size() > 1) return false;
    return it->second.front()->thrower;
  };
  // Fixpoint: callers of throwers become throwers (unless barriered).
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      Definition& d = defs[i];
      if (d.thrower) continue;
      for (const Call& c : all_calls[i]) {
        if (c.name == d.name) continue;  // recursion/self-name
        if (in_guarded(d, c.offset)) continue;
        if (name_throws(c.name)) {
          d.thrower = true;
          changed = true;
          break;
        }
      }
    }
  }
  // Findings: noexcept definitions with an unguarded throw or a call that
  // can throw.
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const Definition& d = defs[i];
    if (!d.is_noexcept) continue;
    const SourceFile& f = *d.file;
    const std::string& tok = f.views.tokens;
    std::size_t pos = d.body_begin;
    while ((pos = tok.find("throw", pos + 1)) != std::string::npos &&
           pos < d.body_end) {
      const bool lb = !ident_char(tok[pos - 1]);
      const bool rb =
          pos + 5 >= tok.size() || !ident_char(tok[pos + 5]);
      if (!lb || !rb || in_guarded(d, pos)) continue;
      const long line = line_of(f.starts, pos);
      if (allowed(f, line, "noexcept-throw")) continue;
      findings.push_back(
          {f.path, line, "noexcept-throw",
           "throw inside noexcept function '" + d.display +
               "'; a throw crossing a noexcept boundary is "
               "std::terminate"});
    }
    std::set<std::string> flagged;
    for (const Call& c : all_calls[i]) {
      if (c.name == d.name || in_guarded(d, c.offset)) continue;
      if (!name_throws(c.name)) continue;
      if (!flagged.insert(c.name).second) continue;
      const long line = line_of(f.starts, c.offset);
      if (allowed(f, line, "noexcept-throw")) continue;
      findings.push_back(
          {f.path, line, "noexcept-throw",
           "noexcept function '" + d.display + "' calls '" + c.name +
               "', which can throw; wrap the call in a catch (...) "
               "barrier or drop noexcept"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<std::string> compdb_files(const std::string& compdb,
                                      const std::string& root,
                                      std::string& error) {
  bool ok = false;
  const std::string text = srctext::read_file(compdb, ok);
  if (!ok) {
    error = "cannot read compile_commands: " + compdb;
    return {};
  }
  std::vector<std::string> files;
  static const std::regex file_re(R"re("file"\s*:\s*"([^"]+)")re");
  const std::string norm_root = srctext::normalized(root);
  for (auto it = std::sregex_iterator(text.begin(), text.end(), file_re);
       it != std::sregex_iterator(); ++it) {
    const std::string p = srctext::normalized((*it)[1].str());
    if (p.find(norm_root) == std::string::npos) continue;
    if (srctext::in_tools_dir(p)) continue;
    if (p.size() < 4 || p.compare(p.size() - 4, 4, ".cpp") != 0) continue;
    files.push_back(p);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "metrics-manifest", "flight-manifest", "manifest-dead-key",
      "lock-order-cycle", "noexcept-throw",
  };
  return ids;
}

std::vector<Finding> analyze_tree(const std::string& root,
                                  const Options& options) {
  std::vector<Finding> findings;
  std::string error;
  std::vector<std::string> paths = srctext::source_files(root, error);
  if (!error.empty()) {
    findings.push_back({root, 0, "io-error", "cannot walk tree: " + error});
    return findings;
  }
  if (!options.compdb.empty()) {
    // compile_commands defines the .cpp list (exactly what the build
    // compiles); the walk keeps supplying headers.
    std::string compdb_error;
    const std::vector<std::string> tus =
        compdb_files(options.compdb, root, compdb_error);
    if (!compdb_error.empty()) {
      findings.push_back({options.compdb, 0, "io-error", compdb_error});
      return findings;
    }
    std::vector<std::string> merged;
    for (const std::string& p : paths)
      if (srctext::path_ends_with(p, ".hpp")) merged.push_back(p);
    merged.insert(merged.end(), tus.begin(), tus.end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    paths = std::move(merged);
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    bool ok = false;
    std::string text = srctext::read_file(p, ok);
    if (!ok) {
      findings.push_back({p, 0, "io-error", "cannot read file"});
      continue;
    }
    SourceFile f;
    f.path = p;
    f.text = std::move(text);
    f.views = srctext::strip(f.text);
    f.starts = line_starts(f.text);
    files.push_back(std::move(f));
  }
  // The manifest is obs/keys.hpp when present (the real tree), else any
  // keys.hpp (fixture corpora); with neither, the manifest rules are moot.
  const SourceFile* manifest_file = nullptr;
  for (const SourceFile& f : files)
    if (srctext::path_ends_with(f.path, "obs/keys.hpp")) manifest_file = &f;
  if (manifest_file == nullptr)
    for (const SourceFile& f : files)
      if (srctext::path_ends_with(f.path, "keys.hpp")) manifest_file = &f;
  if (manifest_file != nullptr) {
    const Manifest manifest = parse_manifest(*manifest_file);
    check_manifest(files, manifest, findings);
  }
  check_lock_order(files, findings);
  check_noexcept_throw(files, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace tveg::analyze
