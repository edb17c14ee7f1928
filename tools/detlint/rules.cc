// Shared lint driver plus the determinism rule family. The driver in
// LintSource runs the selected analyzers over one lexed file, then
// applies the shared suppression/allowlist machinery; each analyzer is
// one function appending Findings (see detlint.h internal::).

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <string>

#include "detlint.h"

namespace detlint {
namespace {

using TokenVec = std::vector<Token>;

bool IsIdent(const TokenVec& toks, size_t i, std::string_view text) {
  return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
         toks[i].text == text;
}

bool IsPunct(const TokenVec& toks, size_t i, std::string_view text) {
  return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
         toks[i].text == text;
}

bool InSet(std::string_view text, const std::set<std::string>& set) {
  return set.count(std::string(text)) > 0;
}

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kWallClockTypes = {
    "system_clock", "steady_clock", "high_resolution_clock"};

const std::set<std::string> kWallClockCalls = {
    "gettimeofday", "clock_gettime", "timespec_get", "localtime",
    "gmtime",       "mktime",        "ctime",        "asctime"};

const std::set<std::string> kRngTypes = {
    "random_device", "mt19937",       "mt19937_64",    "default_random_engine",
    "minstd_rand",   "minstd_rand0",  "knuth_b",       "ranlux24",
    "ranlux48",      "ranlux24_base", "ranlux48_base"};

const std::set<std::string> kRngCalls = {"rand",    "srand",   "rand_r",
                                         "drand48", "lrand48", "mrand48",
                                         "random"};

/** Associative templates whose first argument must not be a pointer. */
const std::set<std::string> kKeyedTemplates = {
    "map",           "multimap",           "set",
    "multiset",      "unordered_map",      "unordered_set",
    "unordered_multimap", "unordered_multiset", "less",
    "greater",       "hash"};

/**
 * From the `<` at `open`, returns the index one past the matching `>`,
 * or toks.size() if unbalanced. Angle depth only counts at zero
 * paren/bracket depth so function types in template args survive.
 */
size_t SkipTemplateArgs(const TokenVec& toks, size_t open) {
  int angle = 0;
  int paren = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++paren;
    if (t == ")" || t == "]" || t == "}") --paren;
    if (paren != 0) continue;
    if (t == "<") ++angle;
    if (t == ">") {
      --angle;
      if (angle == 0) return i + 1;
    }
  }
  return toks.size();
}

/** True if the first template argument of `<` at `open` names a pointer. */
bool FirstTemplateArgIsPointer(const TokenVec& toks, size_t open) {
  int angle = 0;
  int paren = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++paren;
    if (t == ")" || t == "]" || t == "}") --paren;
    if (paren != 0) continue;
    if (t == "<") ++angle;
    if (t == ">") {
      --angle;
      if (angle == 0) return false;
    }
    if (t == "," && angle == 1) return false;
    if (t == "*" && angle >= 1) return true;
  }
  return false;
}

/** Previous token is a member access (`.` or `->`). */
bool AfterMemberAccess(const TokenVec& toks, size_t i) {
  return i > 0 && toks[i - 1].kind == Token::Kind::kPunct &&
         (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

/**
 * True when token i is qualified by a namespace other than std
 * (`foo::name`); unqualified and `std::name` return false.
 */
bool NonStdQualified(const TokenVec& toks, size_t i) {
  if (i < 1 || !IsPunct(toks, i - 1, "::")) return false;
  return !(i >= 2 && IsIdent(toks, i - 2, "std"));
}

std::string Trim(std::string s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/**
 * Parses `detlint: allow(rule1,rule2) reason` directives out of
 * comments. Malformed directives land in `malformed` (line, message).
 */
std::vector<Suppression> ParseSuppressions(
    const std::vector<Comment>& comments,
    std::vector<std::pair<int, std::string>>* malformed) {
  std::vector<Suppression> out;
  for (const Comment& c : comments) {
    const size_t at = c.text.find("detlint:");
    if (at == std::string::npos) continue;
    std::string rest = Trim(c.text.substr(at + 8));
    if (rest.compare(0, 5, "allow") != 0) {
      malformed->push_back(
          {c.line, "unrecognized detlint directive (expected "
                   "'detlint: allow(<rule>) <reason>')"});
      continue;
    }
    rest = Trim(rest.substr(5));
    if (rest.empty() || rest[0] != '(') {
      malformed->push_back(
          {c.line, "detlint allow directive missing '(<rule>)'"});
      continue;
    }
    const size_t close = rest.find(')');
    if (close == std::string::npos) {
      malformed->push_back({c.line, "detlint allow directive missing ')'"});
      continue;
    }
    Suppression s;
    s.line = c.line;
    s.target_line = c.line;
    std::string rules = rest.substr(1, close - 1);
    std::string cur;
    for (char ch : rules + ",") {
      if (ch == ',' || ch == ' ' || ch == '\t') {
        if (!cur.empty()) s.rules.push_back(cur);
        cur.clear();
      } else {
        cur += ch;
      }
    }
    s.reason = Trim(rest.substr(close + 1));
    out.push_back(std::move(s));
  }
  return out;
}

void Add(std::vector<Finding>* findings, const std::string& rule, int line,
         std::string message) {
  findings->push_back(Finding{rule, line, std::move(message)});
}

}  // namespace

// ------------------------------------------------------------- registry

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"wall-clock", "determinism",
       "no wall-clock reads (std::chrono clocks, time(), gettimeofday, "
       "clock_gettime); use sim::Simulator::Now()"},
      {"ambient-rng", "determinism",
       "no ambient randomness (std::rand, std::random_device, std::mt19937 "
       "& friends); use seeded sim::Rng streams"},
      {"unordered-container", "determinism",
       "no std::unordered_map/unordered_set; use std::map/std::set or "
       "suppress with a written reason"},
      {"unordered-iter", "determinism",
       "no range-for or .begin() iteration over unordered containers"},
      {"pointer-key", "determinism",
       "no pointer-valued keys in associative containers or "
       "std::less/greater/hash over pointers"},
      {"bare-suppression", "determinism",
       "every detlint suppression must carry a written reason"},
      {"coawait-ternary", "coroutine",
       "no co_await combined with a conditional expression (GCC-12 "
       "materializes temporaries from both ternary operands); use if/else"},
      {"coro-ref-param", "coroutine",
       "no reference parameters on sim::Task coroutines; pass by value or "
       "pointer, or suppress with a written lifetime argument"},
      {"coro-lambda-capture", "coroutine",
       "no capturing-lambda coroutines; captures die with the lambda "
       "temporary at the first suspension"},
      {"coro-untracked-loop", "coroutine",
       "infinite-loop tasks must join their owner's sim::FrameSet "
       "(`co_await frames_.Join()`) so it can destroy the frame at teardown"},
      {"coro-manual-resume", "coroutine",
       "no coroutine_handle::resume() outside the simulator event queue; "
       "use sim.ScheduleAfter(0, [h] { h.resume(); })"},
  };
  return kCatalog;
}

const std::vector<std::string>& AnalyzerNames() {
  static const std::vector<std::string> kNames = {"determinism", "coroutine"};
  return kNames;
}

std::string AnalyzerForRule(const std::string& rule) {
  for (const RuleInfo& r : RuleCatalog()) {
    if (r.id == rule) return r.analyzer;
  }
  return "";
}

// -------------------------------------------- determinism rule family

namespace internal {

void RunDeterminismRules(const AnalyzerInput& in,
                         std::vector<Finding>* findings) {
  const TokenVec& toks = in.lex.tokens;
  std::vector<Finding>& all = *findings;

  // ---- Pass A: declarations. Collects unordered container variable
  // and alias names, and emits unordered-container / pointer-key
  // findings at the declaration sites.
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_aliases;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = toks[i].text;

    if (InSet(name, kUnorderedContainers) && !AfterMemberAccess(toks, i) &&
        !NonStdQualified(toks, i)) {
      Add(&all, "unordered-container", toks[i].line,
          "'std::" + name +
              "' is hash-ordered; use std::map/std::set (or suppress with "
              "a reason if lookup-only and never iterated)");
      if (IsPunct(toks, i + 1, "<")) {
        const size_t after = SkipTemplateArgs(toks, i + 1);
        // `std::unordered_map<...> name` declares a trackable variable.
        if (after < toks.size() &&
            toks[after].kind == Token::Kind::kIdent) {
          unordered_vars.insert(toks[after].text);
        }
        // Alias form: using A = std::unordered_map<...>;
        size_t base = i;
        if (i >= 2 && IsPunct(toks, i - 1, "::") &&
            IsIdent(toks, i - 2, "std")) {
          base = i - 2;
        }
        if (base >= 2 && IsPunct(toks, base - 1, "=") &&
            toks[base - 2].kind == Token::Kind::kIdent && base >= 3 &&
            IsIdent(toks, base - 3, "using")) {
          unordered_aliases.insert(toks[base - 2].text);
        }
      }
    }

    // Variables declared via an unordered alias: `PageMap pages_;`
    if (InSet(name, unordered_aliases) &&
        i + 1 < toks.size() && toks[i + 1].kind == Token::Kind::kIdent) {
      unordered_vars.insert(toks[i + 1].text);
    }

    if (InSet(name, kKeyedTemplates) && IsPunct(toks, i + 1, "<") &&
        !AfterMemberAccess(toks, i) && !NonStdQualified(toks, i) &&
        FirstTemplateArgIsPointer(toks, i + 1)) {
      Add(&all, "pointer-key", toks[i].line,
          "pointer-valued key in 'std::" + name +
              "': addresses differ across runs (ASLR); key by a stable "
              "id instead");
    }
  }

  // ---- Pass B: uses.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& name = toks[i].text;

    // wall-clock: chrono clock types anywhere.
    if (InSet(name, kWallClockTypes) && !AfterMemberAccess(toks, i)) {
      Add(&all, "wall-clock",
          toks[i].line,
          "wall-clock 'std::chrono::" + name +
              "': simulated time must come from sim::Simulator::Now()");
      continue;
    }
    // wall-clock: C time calls.
    if (InSet(name, kWallClockCalls) && IsPunct(toks, i + 1, "(") &&
        !AfterMemberAccess(toks, i) && !NonStdQualified(toks, i)) {
      Add(&all, "wall-clock", toks[i].line,
          "wall-clock call '" + name +
              "()': simulated time must come from sim::Simulator::Now()");
      continue;
    }
    // wall-clock: bare/std-qualified time(). A preceding identifier
    // other than `return` means this is a declaration (`int time()`),
    // not a call -- calls follow punctuation or `return`.
    const bool decl_like =
        i > 0 && toks[i - 1].kind == Token::Kind::kIdent &&
        toks[i - 1].text != "return";
    if (name == "time" && IsPunct(toks, i + 1, "(") && !decl_like &&
        !AfterMemberAccess(toks, i) && !NonStdQualified(toks, i)) {
      Add(&all, "wall-clock", toks[i].line,
          "wall-clock call 'time()': simulated time must come from "
          "sim::Simulator::Now()");
      continue;
    }

    // ambient-rng: engine/device types anywhere.
    if (InSet(name, kRngTypes) && !AfterMemberAccess(toks, i) &&
        !NonStdQualified(toks, i)) {
      Add(&all, "ambient-rng", toks[i].line,
          "ambient randomness 'std::" + name +
              "': draw from a seeded sim::Rng stream instead");
      continue;
    }
    // ambient-rng: C rand calls.
    if (InSet(name, kRngCalls) && IsPunct(toks, i + 1, "(") &&
        !AfterMemberAccess(toks, i) && !NonStdQualified(toks, i)) {
      Add(&all, "ambient-rng", toks[i].line,
          "ambient randomness '" + name +
              "()': draw from a seeded sim::Rng stream instead");
      continue;
    }

    // unordered-iter: `var.begin()` family on a tracked variable.
    if (InSet(name, unordered_vars) && i + 2 < toks.size() &&
        toks[i + 1].kind == Token::Kind::kPunct &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        toks[i + 2].kind == Token::Kind::kIdent &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin" || toks[i + 2].text == "crbegin") &&
        IsPunct(toks, i + 3, "(")) {
      Add(&all, "unordered-iter", toks[i].line,
          "iteration over unordered container '" + name +
              "': order depends on hash layout; convert to std::map/"
              "std::set or iterate sorted keys");
    }

    // unordered-iter: range-for whose range names a tracked variable.
    if (name == "for" && IsPunct(toks, i + 1, "(")) {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].kind != Token::Kind::kPunct) continue;
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon != 0 && close != 0) {
        for (size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == Token::Kind::kIdent &&
              InSet(toks[j].text, unordered_vars)) {
            Add(&all, "unordered-iter", toks[j].line,
                "range-for over unordered container '" + toks[j].text +
                    "': order depends on hash layout; convert to "
                    "std::map/std::set or iterate sorted keys");
            break;
          }
        }
      }
    }
  }
}

}  // namespace internal

// --------------------------------------------------------------- driver

FileReport LintSource(const std::string& path, std::string_view src,
                      const std::vector<AllowEntry>& allowlist,
                      const std::set<std::string>& analyzers) {
  FileReport report;
  report.path = path;
  const LexResult lex = Lex(src);
  const TokenVec& toks = lex.tokens;
  const std::vector<FunctionContext> functions = BuildFunctionContexts(lex);
  const internal::AnalyzerInput input{path, lex, functions};

  const auto enabled = [&](const char* name) {
    return analyzers.empty() || analyzers.count(name) > 0;
  };

  std::vector<Finding> all;
  if (enabled("determinism")) internal::RunDeterminismRules(input, &all);
  if (enabled("coroutine")) internal::RunCoroutineRules(input, &all);

  // ---- Suppressions (shared across analyzers). bare-suppression
  // findings belong to the determinism family.
  std::vector<std::pair<int, std::string>> malformed;
  std::vector<Suppression> sups = ParseSuppressions(lex.comments, &malformed);
  if (enabled("determinism")) {
    for (const auto& [line, message] : malformed) {
      Add(&all, "bare-suppression", line, message);
    }
    for (const Suppression& s : sups) {
      if (s.reason.empty()) {
        Add(&all, "bare-suppression", s.line,
            "suppression without a reason: write why this site cannot "
            "affect event order");
      }
    }
  }

  // A directive on a comment-only line targets the first code line
  // below it (stacked comment blocks reach past each other).
  std::vector<int> token_lines;
  token_lines.reserve(toks.size());
  for (const Token& t : toks) token_lines.push_back(t.line);
  std::sort(token_lines.begin(), token_lines.end());
  auto has_code = [&](int line) {
    return std::binary_search(token_lines.begin(), token_lines.end(), line);
  };
  auto next_code_line = [&](int line) {
    auto it = std::upper_bound(token_lines.begin(), token_lines.end(), line);
    return it == token_lines.end() ? -1 : *it;
  };
  for (Suppression& s : sups) {
    s.target_line = has_code(s.line) ? s.line : next_code_line(s.line);
  }

  auto suppressed_by = [&](const Finding& f) -> const Suppression* {
    if (f.rule == "bare-suppression") return nullptr;
    for (const Suppression& s : sups) {
      if (s.reason.empty() || s.target_line != f.line) continue;
      for (const std::string& r : s.rules) {
        if (r == f.rule || r == "all") return &s;
      }
    }
    return nullptr;
  };
  auto allowlisted = [&](const Finding& f) {
    for (const AllowEntry& a : allowlist) {
      if ((a.rule == f.rule || a.rule == "*") &&
          path.find(a.path_substring) != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  std::stable_sort(all.begin(), all.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  for (Finding& f : all) {
    if (suppressed_by(f) != nullptr) {
      report.suppressed.push_back(std::move(f));
    } else if (allowlisted(f)) {
      ++report.allowlisted;
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

bool ParseAllowlist(std::string_view text, std::vector<AllowEntry>* out,
                    std::string* error) {
  int lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t nl = text.find('\n', pos);
    std::string line(text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos));
    ++lineno;
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t space = line.find_first_of(" \t");
    if (space == std::string::npos) {
      if (error != nullptr) {
        *error = "allowlist line " + std::to_string(lineno) +
                 ": expected '<rule-or-*> <path-substring>'";
      }
      return false;
    }
    AllowEntry e;
    e.rule = line.substr(0, space);
    e.path_substring = Trim(line.substr(space + 1));
    bool known = e.rule == "*";
    for (const RuleInfo& r : RuleCatalog()) known |= r.id == e.rule;
    if (!known) {
      if (error != nullptr) {
        *error = "allowlist line " + std::to_string(lineno) +
                 ": unknown rule '" + e.rule + "'";
      }
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

}  // namespace detlint
