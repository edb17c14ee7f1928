// corolint: the coroutine-lifetime analyzer. Five rules, each encoding
// a bug class this repository actually shipped (see detlint.h and
// DESIGN.md section 18 for the rulebook and the incidents behind it).

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "detlint.h"

namespace detlint {
namespace internal {
namespace {

using TokenVec = std::vector<Token>;

bool IsPunct(const TokenVec& toks, size_t i, std::string_view text) {
  return i < toks.size() && toks[i].kind == Token::Kind::kPunct &&
         toks[i].text == text;
}

bool IsIdent(const TokenVec& toks, size_t i, std::string_view text) {
  return i < toks.size() && toks[i].kind == Token::Kind::kIdent &&
         toks[i].text == text;
}

void Add(std::vector<Finding>* findings, const char* rule, int line,
         std::string message) {
  // One finding per (rule, line): the two ternary detectors can both
  // match pathological one-liners.
  for (const Finding& f : *findings) {
    if (f.line == line && f.rule == rule) return;
  }
  findings->push_back(Finding{rule, line, std::move(message)});
}

/** Index one past the matching close for the open paren/bracket/brace
 * at `open`, or toks.size(). */
size_t SkipBalanced(const TokenVec& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

// ------------------------------------------------- rule: coawait-ternary

/**
 * Form A -- co_await on a conditional expression: from the co_await,
 * walk its operand. A `?` reached through grouping parentheses only
 * (never through a call's argument list) means the awaited expression
 * is a ternary: GCC-12 materializes temporaries from both operands, so
 * `co_await (use_write ? session->Write(..) : session->Read(..))`
 * issued a phantom write per read (PR 8). A `?` inside a call's
 * arguments (`co_await Delay(sim, c ? a : b)`) is fine.
 */
void CheckAwaitOperand(const TokenVec& toks, size_t i,
                       std::vector<Finding>* findings) {
  std::vector<bool> group_stack;  // true = grouping paren, false = call
  for (size_t j = i + 1; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(") {
      bool group = true;
      if (j > i + 1) {
        const Token& prev = toks[j - 1];
        if (prev.kind == Token::Kind::kIdent ||
            (prev.kind == Token::Kind::kPunct &&
             (prev.text == ")" || prev.text == "]" || prev.text == ">"))) {
          group = false;  // function/constructor call or cast
        }
      }
      group_stack.push_back(group);
      continue;
    }
    if (t.text == "[" || t.text == "{") {
      group_stack.push_back(false);
      continue;
    }
    if (t.text == ")" || t.text == "]" || t.text == "}") {
      if (group_stack.empty()) return;  // enclosing expression closed
      group_stack.pop_back();
      continue;
    }
    if (!group_stack.empty() &&
        !std::all_of(group_stack.begin(), group_stack.end(),
                     [](bool g) { return g; })) {
      continue;  // inside a call's arguments: not the awaited operand
    }
    if (t.text == ";" || t.text == ",") return;
    if (t.text == ":") return;  // arm boundary of an enclosing ternary
    if (t.text == "?") {
      Add(findings, "coawait-ternary", toks[i].line,
          "co_await on a conditional expression: GCC-12 materializes "
          "temporaries from BOTH ternary operands (phantom I/O, PR 8 "
          "pitfall); rewrite as if/else");
      return;
    }
  }
}

/**
 * Form B -- co_await inside a ternary's arms: for a `?` at token q,
 * scan the conditional expression's extent; a co_await at the same
 * parenthesis depth as the `?` sits in one of its arms
 * (`c ? co_await A(..) : co_await B(..)`). Same temporary-
 * materialization hazard, one refactor away from form A.
 */
void CheckTernaryArms(const TokenVec& toks, size_t q,
                      std::vector<Finding>* findings) {
  int depth = 0;
  for (size_t j = q + 1; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (t.kind == Token::Kind::kIdent) {
      if (t.text == "co_await" && depth == 0) {
        Add(findings, "coawait-ternary", toks[j].line,
            "co_await in a conditional expression's arm: GCC-12 "
            "materializes temporaries from BOTH ternary operands "
            "(phantom I/O, PR 8 pitfall); rewrite as if/else");
        return;
      }
      continue;
    }
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
    if (t.text == ")" || t.text == "]" || t.text == "}") {
      --depth;
      if (depth < 0) return;  // conditional expression ended
    }
    if (depth == 0 && (t.text == ";" || t.text == ",")) return;
  }
}

void RuleCoawaitTernary(const TokenVec& toks, std::vector<Finding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent && toks[i].text == "co_await") {
      CheckAwaitOperand(toks, i, findings);
    }
    if (toks[i].kind == Token::Kind::kPunct && toks[i].text == "?") {
      CheckTernaryArms(toks, i, findings);
    }
  }
}

// ------------------------------------------------- rule: coro-ref-param

void RuleRefParam(const FunctionContext& ctx, std::vector<Finding>* findings) {
  if (!ctx.returns_task || !ctx.is_coroutine) return;
  for (const Param& p : ctx.params) {
    if (!p.is_reference) continue;
    Add(findings, "coro-ref-param", p.line,
        "coroutine parameter '" + p.text +
            "' taken by reference: the frame suspends and may outlive "
            "the referent; pass by value or pointer, or suppress with a "
            "written lifetime argument");
  }
}

// --------------------------------------------- rule: coro-lambda-capture

void RuleLambdaCapture(const FunctionContext& ctx,
                       std::vector<Finding>* findings) {
  if (!ctx.is_lambda || !ctx.returns_task || !ctx.is_coroutine) return;
  if (!ctx.has_capture) return;
  Add(findings, "coro-lambda-capture", ctx.line,
      "capturing-lambda coroutine: captures live in the lambda object, "
      "which is typically a temporary destroyed before the first "
      "resume; pass state as coroutine parameters instead");
}

// --------------------------------------------- rule: coro-untracked-loop

/**
 * True if tokens [begin, end) contain `break` outside any nested
 * for/while/do/switch (those consume their own breaks).
 */
bool HasTopLevelBreak(const TokenVec& toks, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "break") return true;
    if (t == "for" || t == "while" || t == "do" || t == "switch") {
      // Skip the nested construct: its condition parens (if any) and
      // its brace body. Single-statement bodies end at `;`.
      size_t j = i + 1;
      if (IsPunct(toks, j, "(")) j = SkipBalanced(toks, j);
      if (IsPunct(toks, j, "{")) {
        i = SkipBalanced(toks, j) - 1;
      } else {
        while (j < end && !IsPunct(toks, j, ";")) ++j;
        i = j;
      }
    }
  }
  return false;
}

bool ContainsIdent(const TokenVec& toks, size_t begin, size_t end,
                   std::string_view name) {
  for (size_t i = begin; i < end; ++i) {
    if (toks[i].kind == Token::Kind::kIdent && toks[i].text == name) {
      return true;
    }
  }
  return false;
}

/**
 * Finds infinite loops -- `for (;;)` or `while (true)` / `while (1)`
 * with no top-level break and no co_return -- inside [begin, end).
 * Returns each loop's header index and body range.
 */
struct InfiniteLoop {
  size_t header;
  size_t body_begin;
  size_t body_end;
};

std::vector<InfiniteLoop> FindInfiniteLoops(const TokenVec& toks,
                                            size_t begin, size_t end) {
  std::vector<InfiniteLoop> out;
  for (size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    bool head = false;
    size_t after_cond = 0;
    if (toks[i].text == "for" && IsPunct(toks, i + 1, "(") &&
        IsPunct(toks, i + 2, ";") && IsPunct(toks, i + 3, ";") &&
        IsPunct(toks, i + 4, ")")) {
      head = true;
      after_cond = i + 5;
    } else if (toks[i].text == "while" && IsPunct(toks, i + 1, "(") &&
               (IsIdent(toks, i + 2, "true") ||
                (i + 2 < toks.size() &&
                 toks[i + 2].kind == Token::Kind::kNumber &&
                 toks[i + 2].text == "1")) &&
               IsPunct(toks, i + 3, ")")) {
      head = true;
      after_cond = i + 4;
    }
    if (!head) continue;
    size_t body_begin = after_cond;
    size_t body_end;
    if (IsPunct(toks, body_begin, "{")) {
      body_end = SkipBalanced(toks, body_begin);
    } else {
      body_end = body_begin;
      while (body_end < end && !IsPunct(toks, body_end, ";")) ++body_end;
    }
    if (HasTopLevelBreak(toks, body_begin, body_end)) continue;
    if (ContainsIdent(toks, body_begin, body_end, "co_return")) continue;
    if (ContainsIdent(toks, body_begin, body_end, "return")) continue;
    out.push_back(InfiniteLoop{i, body_begin, body_end});
  }
  return out;
}

void RuleUntrackedLoop(const TokenVec& toks, const FunctionContext& ctx,
                       std::vector<Finding>* findings) {
  if (!ctx.returns_task || !ctx.is_coroutine) return;
  if (ctx.joins_frame_set) return;
  for (const InfiniteLoop& loop :
       FindInfiniteLoops(toks, ctx.body_begin, ctx.body_end)) {
    if (!ContainsIdent(toks, loop.body_begin, loop.body_end, "co_await")) {
      continue;
    }
    Add(findings, "coro-untracked-loop", toks[loop.header].line,
        "infinite-loop coroutine never joins a frame set (`co_await "
        "frames_.Join()`): when the simulation ends mid-await the frame "
        "is unreachable and leaks past teardown; join its owner's "
        "sim::FrameSet so the owner destroys it");
  }
}

// --------------------------------------------- rule: coro-manual-resume

void RuleManualResume(const TokenVec& toks,
                      const std::vector<FunctionContext>& functions,
                      std::vector<Finding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!(toks[i].kind == Token::Kind::kIdent && toks[i].text == "resume")) {
      continue;
    }
    if (i == 0 || toks[i - 1].kind != Token::Kind::kPunct ||
        (toks[i - 1].text != "." && toks[i - 1].text != "->")) {
      continue;
    }
    if (!IsPunct(toks, i + 1, "(")) continue;
    // Sanctioned form: the resume happens inside a lambda handed to
    // ScheduleAfter/ScheduleAt, i.e. the event queue performs it. Find
    // the innermost lambda containing this token and look just before
    // its introducer; a resume outside any lambda is checked against
    // its own statement.
    size_t anchor = i;
    const FunctionContext* innermost = nullptr;
    for (const FunctionContext& ctx : functions) {
      if (!ctx.is_lambda) continue;
      if (ctx.body_begin < i && i < ctx.body_end) {
        if (innermost == nullptr || ctx.body_begin > innermost->body_begin) {
          innermost = &ctx;
        }
      }
    }
    if (innermost != nullptr) anchor = innermost->body_begin;
    bool scheduled = false;
    for (size_t j = anchor; j-- > 0;) {
      if (toks[j].kind == Token::Kind::kPunct &&
          (toks[j].text == ";" || toks[j].text == "}")) {
        break;
      }
      if (toks[j].kind == Token::Kind::kIdent &&
          (toks[j].text == "ScheduleAfter" || toks[j].text == "ScheduleAt")) {
        scheduled = true;
        break;
      }
    }
    if (!scheduled) {
      Add(findings, "coro-manual-resume", toks[i].line,
          "coroutine resumed outside the simulator event queue: direct "
          ".resume() grows the stack and bypasses deterministic (time, "
          "seq) ordering; schedule it -- sim.ScheduleAfter(0, [h] { "
          "h.resume(); })");
    }
  }
}

}  // namespace

void RunCoroutineRules(const AnalyzerInput& in,
                       std::vector<Finding>* findings) {
  const TokenVec& toks = in.lex.tokens;
  RuleCoawaitTernary(toks, findings);
  for (const FunctionContext& ctx : in.functions) {
    RuleRefParam(ctx, findings);
    RuleLambdaCapture(ctx, findings);
    RuleUntrackedLoop(toks, ctx, findings);
  }
  RuleManualResume(toks, in.functions, findings);
}

}  // namespace internal
}  // namespace detlint
