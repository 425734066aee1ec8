#include "tools/lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <tuple>

#include "tools/common/source_text.hpp"

namespace tveg::lint {

namespace {

using srctext::Views;
using srctext::line_of;
using srctext::line_starts;
using srctext::normalized;
using srctext::path_ends_with;
using srctext::strip;

/// The tveg-lint suppression marker; `honor == false` is the
/// audit-suppressions path, which wants every finding regardless of pragmas.
bool suppressed(bool honor, const std::string& text,
                const std::vector<std::size_t>& starts, long line,
                const std::string& rule) {
  return honor && srctext::suppressed(text, starts, line, "tveg-lint", rule);
}

/// One regex-driven token rule; `view_with_strings` selects which stripped
/// view it scans.
struct TokenRule {
  const char* id;
  const char* pattern;
  const char* message;
  bool view_with_strings = false;
};

const std::array<TokenRule, 3>& token_rules() {
  static const std::array<TokenRule, 3> rules = {{
      {"no-unseeded-rng",
       R"(\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bdefault_random_engine\b|\bmt19937(?:_64)?\b|\buniform_int_distribution\b|\buniform_real_distribution\b|(?:^|[^\w.:])rand\s*\()",
       "unseeded/platform randomness; draw from support::Rng so one seed "
       "reproduces the experiment"},
      {"no-wall-clock",
       R"(\bstd::time\s*\(|\bsystem_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bstrftime\b|\basctime\b|\bctime\b|\bclock\s*\(|(?:^|[^\w.:>])time\s*\()",
       "wall-clock read; budgets go through support::Deadline, timing "
       "metrics use steady_clock"},
      {"no-float",
       R"(\bfloat\b)",
       "float in an accumulation codebase; Eq. 6 / Eq. 14-17 paths require "
       "double"},
  }};
  return rules;
}

bool rule_applies(const std::string& rule, const std::string& path) {
  if (rule == "no-unseeded-rng")
    return !path_ends_with(path, "support/rng.hpp") &&
           !path_ends_with(path, "support/rng.cpp");
  if (rule == "no-wall-clock")
    return !path_ends_with(path, "support/deadline.hpp");
  return true;
}

/// Registered metric subsystems; a key must read tveg.<subsystem>.<name>.
const char* kMetricKeyPattern =
    R"(^tveg\.(pool|obs|support|tvg|dts|aux|channel|trace|graph|steiner|nlp|core|eedcb|fr|prune|bip|online|fault|sim|mc|cli|cache|parallel|batch|alloc)\.[a-z0-9_]+(\.[a-z0-9_]+)*$)";

void check_metrics_keys(bool honor, const std::string& path,
                        const Views& views,
                        const std::vector<std::size_t>& starts,
                        const std::string& raw,
                        std::vector<Finding>& findings) {
  static const std::regex call(
      R"(\.(counter|gauge|histogram)\s*\(\s*"([^"\n]*)\")");
  static const std::regex key(kMetricKeyPattern);
  for (auto it = std::sregex_iterator(views.with_strings.begin(),
                                      views.with_strings.end(), call);
       it != std::sregex_iterator(); ++it) {
    const std::string literal = (*it)[2].str();
    if (std::regex_match(literal, key)) continue;
    const long line =
        line_of(starts, static_cast<std::size_t>(it->position(2)));
    if (suppressed(honor, raw, starts, line, "metrics-key")) continue;
    findings.push_back(
        {path, line, "metrics-key",
         "metric key \"" + literal +
             "\" does not match tveg.<subsystem>.<name> (registered "
             "subsystems: see tools/lint/rules.cpp)"});
  }
}

void check_unchecked_result(bool honor, const std::string& path,
                            const Views& views, const std::string& raw,
                            std::vector<Finding>& findings) {
  std::vector<std::string> lines;
  {
    std::istringstream in(views.tokens);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  const auto starts = line_starts(raw);
  static const std::regex value_call(
      R"((?:std::move\s*\(\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))\s*\.\s*value\s*\(\s*\))");
  constexpr std::size_t kLookback = 30;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    for (auto it = std::sregex_iterator(lines[li].begin(), lines[li].end(),
                                        value_call);
         it != std::sregex_iterator(); ++it) {
      const std::string recv =
          (*it)[1].matched ? (*it)[1].str() : (*it)[2].str();
      const std::regex guard(
          "(" + recv + R"(\s*\.\s*(ok|has_value)\s*\()" + "|" +
          R"(!\s*)" + recv + R"(\b)" + "|" +
          R"((if|while)\s*\(\s*)" + recv + R"(\b)" + "|" +
          R"((TVEG_ASSERT\w*|TVEG_REQUIRE\w*|assert)\s*\(\s*)" + recv +
          R"(\b)" + "|" + recv + R"(\s*\?)" + ")");
      bool guarded = false;
      const std::size_t lo = li >= kLookback ? li - kLookback : 0;
      for (std::size_t back = li + 1; back-- > lo && !guarded;) {
        // the .value() expression itself must not count as its own guard
        std::string hay = lines[back];
        if (back == li)
          hay = hay.substr(0, static_cast<std::size_t>(it->position(0)));
        guarded = std::regex_search(hay, guard);
      }
      const long line = static_cast<long>(li + 1);
      if (!guarded &&
          !suppressed(honor, raw, starts, line, "unchecked-result"))
        findings.push_back(
            {path, line, "unchecked-result",
             recv + ".value() without a visible ok()/has_value()/!" + recv +
                 " guard; branch (or take_or_throw) instead of asserting"});
    }
  }
}

/// Observability-v2 invariant: span and flight-recorder code stays off the
/// wall clock. Span files (path contains "span") may use steady_clock —
/// trace timestamps must be monotone — but none of the wall clocks;
/// flight-recorder files (path contains "flight_record") must not touch
/// <chrono> at all: their dumps are byte-stable for a fixed seed, so
/// recorded payloads carry logical sequence numbers only.
void check_no_wall_clock_in_spans(bool honor, const std::string& path,
                                  const Views& views,
                                  const std::vector<std::size_t>& starts,
                                  const std::string& raw,
                                  std::vector<Finding>& findings) {
  const std::string p = normalized(path);
  const bool span_scope = p.find("span") != std::string::npos;
  const bool flight_scope = p.find("flight_record") != std::string::npos;
  if (!span_scope && !flight_scope) return;
  static const std::regex wall(
      R"(\bsystem_clock\b|\bhigh_resolution_clock\b|\bgettimeofday\b|\bstd::time\s*\(|\blocaltime\b|\bgmtime\b|\bstrftime\b|(?:^|[^\w.:>])clock\s*\()",
      std::regex::multiline);
  static const std::regex any_clock(
      R"(\bsteady_clock\b|\bchrono\b|::\s*now\s*\()", std::regex::multiline);
  const auto scan = [&](const std::regex& re, const char* message) {
    for (auto it = std::sregex_iterator(views.tokens.begin(),
                                        views.tokens.end(), re);
         it != std::sregex_iterator(); ++it) {
      const std::string matched = it->str();
      std::size_t off = static_cast<std::size_t>(it->position(0));
      const std::size_t skip = matched.find_first_not_of(" \t(,;=");
      if (skip != std::string::npos) off += skip;
      const long line = line_of(starts, off);
      if (suppressed(honor, raw, starts, line, "no-wall-clock-in-spans"))
        continue;
      findings.push_back({path, line, "no-wall-clock-in-spans", message});
    }
  };
  scan(wall,
       "wall-clock read in span-tracing code; span timestamps must come "
       "from steady_clock so exported traces are monotone");
  if (flight_scope)
    scan(any_clock,
         "clock use in flight-recorder code; dumps are byte-stable for a "
         "fixed seed, so events carry logical sequence numbers only");
}

/// Resource-governance invariant: a pooled loop in solver code must be
/// budget-aware. A `parallel_for` whose call region (through the matching
/// close paren, lambda bodies included) mentions neither a budget/cancel
/// token nor a poll is invisible to cooperative cancellation — the token
/// can fire, and the pool keeps grinding the full index range anyway. Scoped
/// to the solver layers (core/, graph/, nlp/, sim/); support/ itself hosts
/// the mechanism and the obs/cli layers never loop on the pool.
void check_no_unbudgeted_pool_loop(bool honor, const std::string& path,
                                   const Views& views,
                                   const std::vector<std::size_t>& starts,
                                   const std::string& raw,
                                   std::vector<Finding>& findings) {
  const std::string p = normalized(path);
  const bool in_scope = p.find("/core/") != std::string::npos ||
                        p.find("/graph/") != std::string::npos ||
                        p.find("/nlp/") != std::string::npos ||
                        p.find("/sim/") != std::string::npos ||
                        p.find("pool_loop") != std::string::npos;
  if (!in_scope) return;
  static const std::regex call(R"(\bparallel_for\s*\()");
  static const std::regex budgeted(
      R"(\bbudget\b|\bcancel\b|\bpoll\s*\(|\.\s*check\s*\()");
  const std::string& hay = views.tokens;
  for (auto it = std::sregex_iterator(hay.begin(), hay.end(), call);
       it != std::sregex_iterator(); ++it) {
    const auto open = static_cast<std::size_t>(it->position(0)) +
                      it->str().size() - 1;
    // Match the call's closing paren; strings are blanked in this view, so
    // only structural parens count.
    std::size_t depth = 0;
    std::size_t end = open;
    for (; end < hay.size(); ++end) {
      if (hay[end] == '(') ++depth;
      if (hay[end] == ')' && --depth == 0) break;
    }
    const std::string region =
        hay.substr(static_cast<std::size_t>(it->position(0)),
                   end - static_cast<std::size_t>(it->position(0)) + 1);
    if (std::regex_search(region, budgeted)) continue;
    const long line =
        line_of(starts, static_cast<std::size_t>(it->position(0)));
    if (suppressed(honor, raw, starts, line, "no-unbudgeted-pool-loop"))
      continue;
    findings.push_back(
        {path, line, "no-unbudgeted-pool-loop",
         "parallel_for in solver code without a budget/cancel token or "
         "poll in the call region; pass options.budget.cancel (and poll "
         "the budget in the body) so budgeted solves can drain the pool"});
  }
}

/// Certifier-independence invariant: src/tools/certify re-derives schedule
/// feasibility from the paper text, so a certifier bug and a solver bug
/// would have to agree twice for a bad schedule to pass. That argument dies
/// the moment certify code includes solver headers — so certify-scoped
/// files (path contains "certify", excluding tests/certify/, whose sweep
/// tests legitimately drive the solvers) may include only support/, trace/,
/// channel/, cli/, tvg/types.hpp and their own headers. Direct includes
/// only: trace/contact_trace.hpp transitively pulls the TVG container, the
/// one documented exception (see tools/certify/certify.hpp).
void check_no_core_include_in_certify(bool honor, const std::string& path,
                                      const Views& views,
                                      const std::vector<std::size_t>& starts,
                                      const std::string& raw,
                                      std::vector<Finding>& findings) {
  const std::string p = normalized(path);
  const bool in_scope = p.find("certify") != std::string::npos &&
                        p.find("tests/certify") == std::string::npos;
  if (!in_scope) return;
  static const std::regex include(R"re(#\s*include\s*"([^"\n]+)")re");
  static const std::regex forbidden(
      R"(^(core|graph|nlp|sim|fault|online)/|^tvg/(dts|time_varying_graph)\.hpp$)");
  for (auto it = std::sregex_iterator(views.with_strings.begin(),
                                      views.with_strings.end(), include);
       it != std::sregex_iterator(); ++it) {
    const std::string header = (*it)[1].str();
    if (!std::regex_search(header, forbidden)) continue;
    const long line =
        line_of(starts, static_cast<std::size_t>(it->position(0)));
    if (suppressed(honor, raw, starts, line, "no-core-include-in-certify"))
      continue;
    findings.push_back(
        {path, line, "no-core-include-in-certify",
         "certifier code includes solver header \"" + header +
             "\"; tveg-certify must stay independent of the implementation "
             "it checks (allowed: support/, trace/, channel/, cli/, "
             "tvg/types.hpp)"});
  }
}

/// Flat-memory invariant (DESIGN.md "Data layout & hot-path memory"): the
/// solve core's hot-path state is dense and index-addressed — CSR arc
/// arrays, slot vectors, arithmetic vertex-id codecs. An `unordered_map` or
/// nested `std::vector<std::vector<...>>` declared in a hot-path header
/// reintroduces per-query hashing/pointer-chasing, so the rule flags them
/// in src/graph/ headers and core/aux_graph.hpp. Deliberate exceptions
/// (e.g. a cold-path memo) take a `tveg-lint: allow(no-map-in-hot-path)`
/// pragma with a comment defending the container choice.
void check_no_map_in_hot_path(bool honor, const std::string& path,
                              const Views& views,
                              const std::vector<std::size_t>& starts,
                              const std::string& raw,
                              std::vector<Finding>& findings) {
  const std::string p = normalized(path);
  const bool hot_header =
      path_ends_with(p, ".hpp") &&
      (p.find("/graph/") != std::string::npos ||
       path_ends_with(p, "core/aux_graph.hpp"));
  const bool in_scope =
      hot_header || p.find("map_in_hot_path") != std::string::npos;
  if (!in_scope) return;
  static const std::regex hot_container(
      R"(\bunordered_map\s*<|\bvector\s*<\s*(?:std\s*::\s*)?vector\b)");
  const std::string& hay = views.tokens;
  for (auto it = std::sregex_iterator(hay.begin(), hay.end(), hot_container);
       it != std::sregex_iterator(); ++it) {
    const long line =
        line_of(starts, static_cast<std::size_t>(it->position(0)));
    if (suppressed(honor, raw, starts, line, "no-map-in-hot-path")) continue;
    findings.push_back(
        {path, line, "no-map-in-hot-path",
         "unordered_map / nested vector in a hot-path header; use flat "
         "indexed storage (CSR offsets, slot arrays, arithmetic id codecs) "
         "per DESIGN.md \"Data layout & hot-path memory\""});
  }
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s)
    out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  out += '\'';
  return out;
}

std::vector<Finding> lint_source_impl(const std::string& path,
                                      const std::string& text, bool honor) {
  std::vector<Finding> findings;
  const Views views = strip(text);
  const auto starts = line_starts(text);
  for (const TokenRule& rule : token_rules()) {
    if (!rule_applies(rule.id, path)) continue;
    const std::regex re(rule.pattern, std::regex::multiline);
    const std::string& hay = rule.view_with_strings ? views.with_strings
                                                    : views.tokens;
    for (auto it = std::sregex_iterator(hay.begin(), hay.end(), re);
         it != std::sregex_iterator(); ++it) {
      // group-less leading-context alternatives put the token one char in
      const std::string matched = it->str();
      std::size_t off = static_cast<std::size_t>(it->position(0));
      const std::size_t skip = matched.find_first_not_of(" \t(,;=");
      if (skip != std::string::npos) off += skip;
      const long line = line_of(starts, off);
      if (suppressed(honor, text, starts, line, rule.id)) continue;
      findings.push_back({path, line, rule.id, rule.message});
    }
  }
  check_metrics_keys(honor, path, views, starts, text, findings);
  check_unchecked_result(honor, path, views, text, findings);
  check_no_wall_clock_in_spans(honor, path, views, starts, text, findings);
  check_no_unbudgeted_pool_loop(honor, path, views, starts, text, findings);
  check_no_core_include_in_certify(honor, path, views, starts, text,
                                   findings);
  check_no_map_in_hot_path(honor, path, views, starts, text, findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids = {
      "no-unseeded-rng", "no-wall-clock",          "unchecked-result",
      "metrics-key",     "no-float",               "header-not-self-contained",
      "no-wall-clock-in-spans",                    "no-unbudgeted-pool-loop",
      "no-core-include-in-certify",                "no-map-in-hot-path",
  };
  return ids;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& text) {
  return lint_source_impl(path, text, /*honor=*/true);
}

std::vector<Finding> audit_file_suppressions(const std::string& path,
                                             const std::string& text) {
  std::vector<Finding> findings;
  const auto sites = srctext::suppression_sites(text, "tveg-lint");
  if (sites.empty()) return findings;
  // What the rules would say with every pragma ignored; a pragma is live
  // only if it still masks one of these on its own line.
  const std::vector<Finding> unsuppressed =
      lint_source_impl(path, text, /*honor=*/false);
  const auto& ids = rule_ids();
  for (const auto& [line, rule] : sites) {
    if (std::find(ids.begin(), ids.end(), rule) == ids.end()) {
      findings.push_back(
          {path, line, "stale-suppression",
           "allow(" + rule + ") names a rule tveg-lint does not have; " +
               "fix the id or delete the pragma"});
      continue;
    }
    // header-not-self-contained findings come from a compiler run, not the
    // text rules, and always report line 1 — auditing them line-by-line
    // would be noise, so they are exempt.
    if (rule == "header-not-self-contained") continue;
    const bool live = std::any_of(
        unsuppressed.begin(), unsuppressed.end(), [&](const Finding& f) {
          return f.line == line && f.rule == rule;
        });
    if (!live)
      findings.push_back(
          {path, line, "stale-suppression",
           "allow(" + rule + ") no longer masks a finding on this line; " +
               "the code was fixed or moved — delete the pragma"});
  }
  return findings;
}

std::vector<Finding> audit_suppressions(const std::string& root,
                                        const Options& options) {
  (void)options;
  std::vector<Finding> findings;
  std::string error;
  const auto files = srctext::source_files(root, error);
  if (!error.empty()) {
    findings.push_back({root, 0, "io-error", "cannot walk tree: " + error});
    return findings;
  }
  for (const std::string& file : files) {
    bool ok = false;
    const std::string text = srctext::read_file(file, ok);
    if (!ok) {
      findings.push_back({file, 0, "io-error", "cannot read file"});
      continue;
    }
    auto one = audit_file_suppressions(file, text);
    findings.insert(findings.end(), one.begin(), one.end());
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_header_isolation(const std::string& path,
                                           const Options& options) {
  std::string cmd = options.compiler + " -std=c++20 -fsyntax-only -x c++";
  for (const std::string& dir : options.include_dirs)
    cmd += " -I" + shell_quote(dir);
  cmd += " " + shell_quote(path) + " 2>&1";
  std::string output;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr)
    return {{path, 1, "header-not-self-contained",
             "could not spawn compiler '" + options.compiler + "'"}};
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
    output.append(buf.data(), got);
  const int status = ::pclose(pipe);
  if (status == 0) return {};
  std::string first = output.substr(0, output.find('\n'));
  if (first.size() > 200) first = first.substr(0, 200) + "...";
  return {{path, 1, "header-not-self-contained",
           "does not compile in isolation: " + first}};
}

std::vector<Finding> lint_tree(const std::string& root,
                               const Options& options) {
  std::vector<Finding> findings;
  std::string error;
  const auto files = srctext::source_files(root, error);
  if (!error.empty()) {
    findings.push_back({root, 0, "io-error", "cannot walk tree: " + error});
    return findings;
  }
  for (const std::string& file : files) {
    bool ok = false;
    const std::string text = srctext::read_file(file, ok);
    if (!ok) {
      findings.push_back({file, 0, "io-error", "cannot read file"});
      continue;
    }
    auto one = lint_source(file, text);
    findings.insert(findings.end(), one.begin(), one.end());
    if (options.check_headers && path_ends_with(file, ".hpp")) {
      auto iso = lint_header_isolation(file, options);
      findings.insert(findings.end(), iso.begin(), iso.end());
    }
  }
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

}  // namespace tveg::lint
