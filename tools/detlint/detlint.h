#ifndef REFLEX_TOOLS_DETLINT_DETLINT_H_
#define REFLEX_TOOLS_DETLINT_DETLINT_H_

#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/**
 * detlint: the simulation-hygiene lint framework.
 *
 * One shared token-level front end (lexer + a lightweight function/
 * coroutine context builder) feeds a registry of analyzers, each a
 * family of rules with its own id namespace. Suppressions, allowlists,
 * report formats and exit codes are shared across analyzers, so a new
 * rule family costs one source file and a catalog entry.
 *
 * Analyzer `determinism` -- the original detlint rulebook (DESIGN.md
 * section 13). The whole reproduction rests on bit-identical replay:
 * simtest expands seeds into scenarios, diffs golden exports and
 * bisects repro artifacts. One stray wall-clock read, ambient RNG
 * draw, or hash-order-dependent iteration silently invalidates all of
 * it.
 *
 *   wall-clock            no std::chrono::{system,steady,high_resolution}
 *                         _clock, time(), gettimeofday, clock_gettime, ...
 *   ambient-rng           no std::rand/srand, std::random_device,
 *                         std::mt19937 & friends -- all randomness flows
 *                         through seeded sim::Rng streams
 *   unordered-container   no std::unordered_map/unordered_set (& multi
 *                         variants): hash layout must never be able to
 *                         reach event order; use std::map/std::set or
 *                         suppress with a written reason
 *   unordered-iter        no range-for or .begin() iteration over a
 *                         variable declared as an unordered container
 *                         (fires even where the declaration itself was
 *                         suppressed or allowlisted)
 *   pointer-key           no pointer-valued keys in associative
 *                         containers and no std::less/greater/hash over
 *                         pointer types: addresses differ run to run
 *   bare-suppression      every `// detlint: allow(<rule>)` must carry a
 *                         written reason; bare or malformed directives
 *                         are themselves violations and suppress nothing
 *
 * Analyzer `coroutine` (corolint) -- the coroutine-lifetime rulebook
 * (DESIGN.md section 18). Every simulation process is a detached
 * C++20 coroutine over sim::Task; each rule below encodes a bug class
 * this repo actually shipped:
 *
 *   coawait-ternary       no co_await combined with a conditional
 *                         expression (`co_await (c ? a : b)` or
 *                         `c ? co_await a : co_await b`): GCC-12
 *                         materializes temporaries from BOTH operands
 *                         of the ternary, silently issuing phantom
 *                         I/Os; rewrite as if/else
 *   coro-ref-param        no reference parameters on sim::Task
 *                         coroutines: the frame may suspend and outlive
 *                         the referent; pass by value or pointer, or
 *                         suppress with a written lifetime argument
 *   coro-lambda-capture   no capturing-lambda coroutines: captures live
 *                         in the lambda object, which is usually a
 *                         temporary dead by the first suspension
 *   coro-untracked-loop   an infinite-loop task (`for(;;)`/`while(true)`
 *                         around a co_await) must join its owner's
 *                         frame set (`co_await frames_.Join()`) so the
 *                         owner can destroy it at teardown
 *   coro-manual-resume    no coroutine_handle::resume() outside the
 *                         simulator event queue: resume through
 *                         ScheduleAfter/ScheduleAt to keep stack depth
 *                         bounded and event order deterministic
 *
 * Suppressions: `// detlint: allow(rule1,rule2) <reason>` on the same
 * line as the violation, or on a comment line directly above it
 * (stacked comment blocks apply to the first code line below). Rule
 * ids are mandatory and analyzer-qualified only by their names; a
 * reasonless directive is itself a violation. Allowlist files carry
 * `<rule-or-*> <path-substring>` pairs for whole-file exemptions
 * (e.g. generated code).
 */
namespace detlint {

// ---------------------------------------------------------------- lexer

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind;
  std::string text;
  int line;
};

struct Comment {
  std::string text;  // without the // or block delimiters
  int line;          // line the comment starts on
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/**
 * Tokenizes C++ source: identifiers, numbers (with digit separators),
 * punctuation (`::` and `->` fused), string/char literals (including
 * raw strings), comments captured separately. Preprocessor directive
 * lines (including continuations) produce no tokens, so `#include
 * <unordered_map>` never trips the container rules.
 */
LexResult Lex(std::string_view src);

// ------------------------------------------------------------- contexts

/** One declared parameter of a function or lambda. */
struct Param {
  std::string text;  // tokens joined with single spaces
  int line;          // line of the parameter's first token
  bool is_reference = false;  // `&` or `&&` at the top declarator level
};

/**
 * A function definition or lambda expression recovered by the
 * lightweight context builder. Token indices refer to the LexResult
 * the contexts were built from; [body_begin, body_end] brackets the
 * `{` and matching `}` of the body.
 */
struct FunctionContext {
  std::string name;  // last declarator identifier ("" for lambdas)
  int line = 0;      // line the definition starts on
  bool is_lambda = false;
  bool has_capture = false;   // lambda with a non-empty capture list
  bool returns_task = false;  // declared return type [sim::]Task
  bool is_coroutine = false;  // body contains co_await/co_return/co_yield
  bool joins_frame_set = false;  // body awaits `<set>.Join()`
  std::vector<Param> params;
  size_t body_begin = 0;
  size_t body_end = 0;
};

/**
 * Recovers every `[sim::]Task`-returning function definition and every
 * lambda expression from the token stream. Purely token-driven (no
 * type information): good enough to anchor coroutine-lifetime rules,
 * not a parser. Lambdas nested inside functions appear as their own
 * contexts; their token ranges overlap the enclosing body.
 */
std::vector<FunctionContext> BuildFunctionContexts(const LexResult& lex);

// ------------------------------------------------------------- findings

struct Finding {
  std::string rule;
  int line;
  std::string message;
};

/** Parsed `detlint: allow(...)` directive. */
struct Suppression {
  std::vector<std::string> rules;
  std::string reason;  // empty => bare (a violation, suppresses nothing)
  int line;            // comment line
  int target_line;     // code line the directive applies to
};

/** One `<rule-or-*> <path-substring>` allowlist entry. */
struct AllowEntry {
  std::string rule;
  std::string path_substring;
};

/**
 * Parses allowlist text (one entry per line, `#` comments). Returns
 * false and sets `error` on a malformed line.
 */
bool ParseAllowlist(std::string_view text, std::vector<AllowEntry>* out,
                    std::string* error);

struct FileReport {
  std::string path;
  std::vector<Finding> findings;    // unsuppressed violations
  std::vector<Finding> suppressed;  // violations silenced with a reason
  int allowlisted = 0;              // violations silenced by allowlist
};

/**
 * Lints one in-memory source file. `analyzers` selects which rule
 * families run (names from AnalyzerNames()); empty means all.
 */
FileReport LintSource(const std::string& path, std::string_view src,
                      const std::vector<AllowEntry>& allowlist,
                      const std::set<std::string>& analyzers = {});

// ------------------------------------------------------------- registry

/** Catalog entry: rule id, owning analyzer, one-line description. */
struct RuleInfo {
  std::string id;
  std::string analyzer;
  std::string description;
};

/** All rules across all analyzers, in report order. */
const std::vector<RuleInfo>& RuleCatalog();

/** Registered analyzer names, in registration order. */
const std::vector<std::string>& AnalyzerNames();

/** Analyzer owning `rule`, or "" if the rule id is unknown. */
std::string AnalyzerForRule(const std::string& rule);

// --------------------------------------------------------------- driver

struct RunOptions {
  std::vector<AllowEntry> allowlist;
  bool json = false;
  /** Analyzers to run; empty = all registered analyzers. */
  std::set<std::string> analyzers;
};

inline constexpr int kExitClean = 0;
inline constexpr int kExitViolations = 1;
inline constexpr int kExitError = 2;

/**
 * Lints every .h/.hpp/.cc/.cpp/.cxx file under `paths` (files taken
 * as-is, directories walked recursively in sorted order), writes the
 * report to `out` and errors to `err`. Returns kExitClean,
 * kExitViolations or kExitError.
 */
int RunDetlint(const std::vector<std::string>& paths, const RunOptions& opts,
               std::ostream& out, std::ostream& err);

// ----------------------------------------------- analyzer implementation
// Internal interface between the shared driver and the rule families.
namespace internal {

struct AnalyzerInput {
  const std::string& path;
  const LexResult& lex;
  const std::vector<FunctionContext>& functions;
};

/** Appends the determinism family's findings for one file. */
void RunDeterminismRules(const AnalyzerInput& in,
                         std::vector<Finding>* findings);

/** Appends the coroutine-lifetime (corolint) findings for one file. */
void RunCoroutineRules(const AnalyzerInput& in,
                       std::vector<Finding>* findings);

}  // namespace internal

}  // namespace detlint

#endif  // REFLEX_TOOLS_DETLINT_DETLINT_H_
