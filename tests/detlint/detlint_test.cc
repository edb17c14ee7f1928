// Unit tests for the detlint multi-analyzer linter (determinism +
// coroutine rule families): lexer behavior, function/coroutine
// context recovery, rule positives/negatives, suppression parsing and
// targeting, allowlist handling, analyzer selection, and driver exit
// codes / report formats. Fixture files live in FIXTURE_DIR (set by
// CMake); each canary_*.cc plants exactly one rule's violations,
// clean.cc and coro_clean.cc must stay silent.

#include "detlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace detlint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

FileReport LintFixture(const std::string& name,
                       const std::vector<AllowEntry>& allowlist = {}) {
  return LintSource(name, ReadFixture(name), allowlist);
}

std::vector<std::string> Rules(const FileReport& r) {
  std::vector<std::string> out;
  for (const Finding& f : r.findings) out.push_back(f.rule);
  return out;
}

bool HasRule(const FileReport& r, const std::string& rule) {
  const auto rules = Rules(r);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

bool OnlyRule(const FileReport& r, const std::string& rule) {
  if (r.findings.empty()) return false;
  for (const Finding& f : r.findings) {
    if (f.rule != rule) return false;
  }
  return true;
}

// ---------------------------------------------------------------- lexer

TEST(DetlintLexer, TokenizesIdentifiersNumbersPunct) {
  const LexResult lex = Lex("int x = 42 + 0x1F;");
  ASSERT_EQ(lex.tokens.size(), 7u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[1].text, "x");
  EXPECT_EQ(lex.tokens[3].kind, Token::Kind::kNumber);
  EXPECT_EQ(lex.tokens[5].text, "0x1F");
}

TEST(DetlintLexer, FusesScopeAndArrow) {
  const LexResult lex = Lex("std::map m; p->begin();");
  std::vector<std::string> texts;
  for (const Token& t : lex.tokens) texts.push_back(t.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
}

TEST(DetlintLexer, SkipsPreprocessorLines) {
  const LexResult lex = Lex(
      "#include <unordered_map>\n"
      "#define FOO \\\n  unordered_set\n"
      "int x;\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "unordered_set");
  }
  ASSERT_GE(lex.tokens.size(), 1u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 4);
}

TEST(DetlintLexer, CapturesCommentsWithLines) {
  const LexResult lex = Lex("int a;\n// hello\n/* multi\nline */ int b;\n");
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[0].text, " hello");
  EXPECT_EQ(lex.comments[0].line, 2);
  EXPECT_EQ(lex.comments[1].line, 3);
}

TEST(DetlintLexer, StringContentsProduceNoIdentifiers) {
  const LexResult lex =
      Lex("const char* s = \"rand() time( unordered_map\";\n"
          "auto r = R\"(mt19937 system_clock)\";");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "mt19937");
    EXPECT_NE(t.text, "unordered_map");
    EXPECT_NE(t.text, "system_clock");
  }
}

TEST(DetlintLexer, DigitSeparatorsStayOneNumber) {
  const LexResult lex = Lex("long n = 1'000'000;");
  ASSERT_EQ(lex.tokens.size(), 5u);
  EXPECT_EQ(lex.tokens[3].text, "1'000'000");
}

// ---------------------------------------------------------------- rules

TEST(DetlintRules, WallClockPositives) {
  const FileReport r = LintSource(
      "t.cc",
      "void f() {\n"
      "  auto a = std::chrono::system_clock::now();\n"
      "  auto b = std::chrono::steady_clock::now();\n"
      "  long c = time(nullptr);\n"
      "  struct timespec ts; clock_gettime(0, &ts);\n"
      "}\n",
      {});
  ASSERT_EQ(r.findings.size(), 4u);
  EXPECT_TRUE(OnlyRule(r, "wall-clock"));
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(DetlintRules, WallClockNegatives) {
  // Member functions named time() and other-namespace clocks are fine.
  const FileReport r = LintSource(
      "t.cc",
      "struct S { int time() { return 1; } };\n"
      "int f(S& s) { return s.time() + mylib::time(0); }\n"
      "void g(sim::Simulator& sim) { auto now = sim.Now(); (void)now; }\n",
      {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(DetlintRules, AmbientRngPositives) {
  const FileReport r = LintSource(
      "t.cc",
      "int f() {\n"
      "  std::random_device rd;\n"
      "  std::mt19937 gen(rd());\n"
      "  srand(7);\n"
      "  return rand();\n"
      "}\n",
      {});
  ASSERT_EQ(r.findings.size(), 4u);
  EXPECT_TRUE(OnlyRule(r, "ambient-rng"));
}

TEST(DetlintRules, AmbientRngNegatives) {
  // sim::Rng and members named rand are the sanctioned paths.
  const FileReport r = LintSource(
      "t.cc",
      "int f(sim::Rng& rng) { return rng.NextInt(10); }\n"
      "int g(Gen& gen) { return gen.rand(); }\n"
      "int h() { return mylib::random(3); }\n",
      {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(DetlintRules, UnorderedContainerFlagsDeclaration) {
  const FileReport r =
      LintSource("t.cc", "std::unordered_map<int, int> m;\n", {});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "unordered-container");
  EXPECT_EQ(r.findings[0].line, 1);
}

TEST(DetlintRules, UnorderedIterFlagsRangeForAndBegin) {
  const FileReport r = LintSource(
      "t.cc",
      "std::unordered_map<int, int> m;\n"
      "int f() {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : m) s += kv.second;\n"
      "  for (auto it = m.begin(); it != m.end(); ++it) s += it->second;\n"
      "  return s;\n"
      "}\n",
      {});
  int iter = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == "unordered-iter") ++iter;
  }
  EXPECT_EQ(iter, 2);
  EXPECT_TRUE(HasRule(r, "unordered-container"));
}

TEST(DetlintRules, UnorderedIterTracksAliases) {
  const FileReport r = LintSource(
      "t.cc",
      "using PageMap = std::unordered_map<int, int>;\n"
      "PageMap pages_;\n"
      "int f() {\n"
      "  int s = 0;\n"
      "  for (auto& kv : pages_) s += kv.second;\n"
      "  return s;\n"
      "}\n",
      {});
  EXPECT_TRUE(HasRule(r, "unordered-iter"));
}

TEST(DetlintRules, OrderedIterationIsClean) {
  const FileReport r = LintSource(
      "t.cc",
      "std::map<int, int> m;\n"
      "int f() {\n"
      "  int s = 0;\n"
      "  for (const auto& kv : m) s += kv.second;\n"
      "  return s;\n"
      "}\n",
      {});
  EXPECT_TRUE(r.findings.empty());
}

TEST(DetlintRules, PointerKeyPositives) {
  const FileReport r = LintSource(
      "t.cc",
      "std::map<Conn*, int> a;\n"
      "std::set<const Conn*> b;\n"
      "std::less<Conn*> c;\n",
      {});
  ASSERT_EQ(r.findings.size(), 3u);
  EXPECT_TRUE(OnlyRule(r, "pointer-key"));
}

TEST(DetlintRules, PointerValueIsClean) {
  // Pointer VALUES are fine; only pointer KEYS are banned.
  const FileReport r = LintSource(
      "t.cc", "std::map<uint32_t, std::unique_ptr<Tenant>> tenants_;\n", {});
  EXPECT_TRUE(r.findings.empty());
}

// ---------------------------------------------------------- suppressions

TEST(DetlintSuppress, SameLineSuppressionWithReason) {
  const FileReport r = LintSource(
      "t.cc",
      "std::unordered_map<int, int> m;  "
      "// detlint: allow(unordered-container) lookup-only\n",
      {});
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "unordered-container");
}

TEST(DetlintSuppress, CommentAboveTargetsNextCodeLine) {
  const FileReport r = LintSource(
      "t.cc",
      "// detlint: allow(unordered-container) scratch table, never\n"
      "// iterated, so hash layout cannot reach event order.\n"
      "std::unordered_map<int, int> m;\n",
      {});
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed.size(), 1u);
}

TEST(DetlintSuppress, BareSuppressionIsViolationAndSilencesNothing) {
  const FileReport r = LintSource(
      "t.cc",
      "// detlint: allow(unordered-container)\n"
      "std::unordered_map<int, int> m;\n",
      {});
  EXPECT_TRUE(HasRule(r, "bare-suppression"));
  EXPECT_TRUE(HasRule(r, "unordered-container"));
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(DetlintSuppress, MalformedDirectiveIsViolation) {
  const FileReport r =
      LintSource("t.cc", "// detlint: disable everything\nint x;\n", {});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "bare-suppression");
}

TEST(DetlintSuppress, WrongRuleDoesNotSuppress) {
  const FileReport r = LintSource(
      "t.cc",
      "// detlint: allow(wall-clock) wrong rule named here\n"
      "std::unordered_map<int, int> m;\n",
      {});
  EXPECT_TRUE(HasRule(r, "unordered-container"));
}

TEST(DetlintSuppress, SuppressionDoesNotReachPastTargetLine) {
  const FileReport r = LintSource(
      "t.cc",
      "// detlint: allow(unordered-container) only covers the next line\n"
      "std::unordered_map<int, int> a;\n"
      "std::unordered_map<int, int> b;\n",
      {});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].line, 3);
  EXPECT_EQ(r.suppressed.size(), 1u);
}

// ------------------------------------------------------------- allowlist

TEST(DetlintAllowlist, ParsesEntriesAndComments) {
  std::vector<AllowEntry> entries;
  std::string error;
  EXPECT_TRUE(ParseAllowlist(
      "# comment\n"
      "\n"
      "unordered-container generated/\n"
      "* third_party/vendored.h  # trailing comment\n",
      &entries, &error));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "unordered-container");
  EXPECT_EQ(entries[0].path_substring, "generated/");
  EXPECT_EQ(entries[1].rule, "*");
  EXPECT_EQ(entries[1].path_substring, "third_party/vendored.h");
}

TEST(DetlintAllowlist, RejectsUnknownRuleAndMissingPath) {
  std::vector<AllowEntry> entries;
  std::string error;
  EXPECT_FALSE(ParseAllowlist("no-such-rule src/\n", &entries, &error));
  EXPECT_NE(error.find("unknown rule"), std::string::npos);
  error.clear();
  EXPECT_FALSE(ParseAllowlist("wall-clock\n", &entries, &error));
  EXPECT_FALSE(error.empty());
}

TEST(DetlintAllowlist, MatchingEntrySilencesByPathSubstring) {
  std::vector<AllowEntry> allow = {{"unordered-container", "gen/"}};
  const std::string src = "std::unordered_map<int, int> m;\n";
  const FileReport hit = LintSource("gen/tables.h", src, allow);
  EXPECT_TRUE(hit.findings.empty());
  EXPECT_EQ(hit.allowlisted, 1);
  const FileReport miss = LintSource("src/core/tables.h", src, allow);
  EXPECT_EQ(miss.findings.size(), 1u);
}

// -------------------------------------------------------------- fixtures

TEST(DetlintFixtures, EachCanaryTripsItsRule) {
  EXPECT_TRUE(OnlyRule(LintFixture("canary_wall_clock.cc"), "wall-clock"));
  EXPECT_TRUE(OnlyRule(LintFixture("canary_ambient_rng.cc"), "ambient-rng"));
  EXPECT_TRUE(
      OnlyRule(LintFixture("canary_unordered_iter.cc"), "unordered-iter"));
  EXPECT_TRUE(
      OnlyRule(LintFixture("canary_pointer_key.cc"), "pointer-key"));
  EXPECT_TRUE(OnlyRule(LintFixture("canary_unordered_container.cc"),
                       "unordered-container"));
  const FileReport bare = LintFixture("canary_bare_suppression.cc");
  EXPECT_TRUE(HasRule(bare, "bare-suppression"));
  EXPECT_TRUE(HasRule(bare, "unordered-container"));
}

TEST(DetlintFixtures, CleanFixtureIsSilent) {
  const FileReport r = LintFixture("clean.cc");
  EXPECT_TRUE(r.findings.empty()) << r.findings[0].rule << " at line "
                                  << r.findings[0].line;
  EXPECT_TRUE(r.suppressed.empty());
}

TEST(DetlintFixtures, SuppressedFixtureIsSilentWithThreeSuppressions) {
  const FileReport r = LintFixture("suppressed_ok.cc");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed.size(), 3u);
}

TEST(DetlintFixtures, AllowlistedFixtureKeepsUncoveredRules) {
  std::vector<AllowEntry> allow;
  std::string error;
  ASSERT_TRUE(ParseAllowlist(ReadFixture("allow.txt"), &allow, &error))
      << error;
  const FileReport r = LintFixture("allowlisted.cc", allow);
  EXPECT_TRUE(OnlyRule(r, "wall-clock"));
  EXPECT_EQ(r.allowlisted, 1);
}

// ---------------------------------------------------------------- driver

TEST(DetlintDriver, CleanFileExitsZero) {
  std::ostringstream out, err;
  const int rc = RunDetlint({std::string(FIXTURE_DIR) + "/clean.cc"}, {},
                            out, err);
  EXPECT_EQ(rc, kExitClean);
  EXPECT_NE(out.str().find("0 violations"), std::string::npos);
}

TEST(DetlintDriver, FixtureDirExitsOneWithTextReport) {
  std::ostringstream out, err;
  const int rc = RunDetlint({std::string(FIXTURE_DIR)}, {}, out, err);
  EXPECT_EQ(rc, kExitViolations);
  // Report lines carry file:line: [rule] message.
  EXPECT_NE(out.str().find("canary_wall_clock.cc:"), std::string::npos);
  EXPECT_NE(out.str().find("[wall-clock]"), std::string::npos);
  EXPECT_NE(out.str().find("[pointer-key]"), std::string::npos);
}

TEST(DetlintDriver, MissingPathExitsTwo) {
  std::ostringstream out, err;
  const int rc = RunDetlint({"/no/such/path/anywhere"}, {}, out, err);
  EXPECT_EQ(rc, kExitError);
  EXPECT_FALSE(err.str().empty());
}

TEST(DetlintDriver, JsonReportParsesShape) {
  std::ostringstream out, err;
  RunOptions opts;
  opts.json = true;
  const int rc = RunDetlint(
      {std::string(FIXTURE_DIR) + "/canary_wall_clock.cc"}, opts, out, err);
  EXPECT_EQ(rc, kExitViolations);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"violations\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"wall-clock\""), std::string::npos);
}

TEST(DetlintDriver, ReportOrderIsSortedByPath) {
  std::ostringstream out, err;
  RunDetlint({std::string(FIXTURE_DIR)}, {}, out, err);
  const std::string text = out.str();
  const auto rng = text.find("canary_ambient_rng.cc");
  const auto wall = text.find("canary_wall_clock.cc");
  ASSERT_NE(rng, std::string::npos);
  ASSERT_NE(wall, std::string::npos);
  EXPECT_LT(rng, wall);
}

TEST(DetlintCatalog, HasAllTwelveRulesAcrossTwoAnalyzers) {
  const auto& catalog = RuleCatalog();
  ASSERT_EQ(catalog.size(), 11u);
  std::vector<std::string> ids;
  for (const RuleInfo& r : catalog) {
    ids.push_back(r.id);
    EXPECT_FALSE(r.description.empty());
    EXPECT_TRUE(r.analyzer == "determinism" || r.analyzer == "coroutine")
        << r.id << " -> " << r.analyzer;
  }
  for (const char* want :
       {"wall-clock", "ambient-rng", "unordered-container",
        "unordered-iter", "pointer-key", "bare-suppression",
        "coawait-ternary", "coro-ref-param", "coro-lambda-capture",
        "coro-untracked-loop", "coro-manual-resume"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end()) << want;
  }
  EXPECT_EQ(AnalyzerNames().size(), 2u);
  EXPECT_EQ(AnalyzerForRule("wall-clock"), "determinism");
  EXPECT_EQ(AnalyzerForRule("coawait-ternary"), "coroutine");
  EXPECT_EQ(AnalyzerForRule("no-such-rule"), "");
}

// ------------------------------------------------------ context builder

TEST(DetlintContexts, RecoversTaskFunctionWithParams) {
  const LexResult lex = Lex(
      "sim::Task Worker(sim::Simulator& sim, int id,\n"
      "                 std::vector<int> data) {\n"
      "  co_await Delay(sim, 1);\n"
      "}\n");
  const auto ctxs = BuildFunctionContexts(lex);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].name, "Worker");
  EXPECT_FALSE(ctxs[0].is_lambda);
  EXPECT_TRUE(ctxs[0].returns_task);
  EXPECT_TRUE(ctxs[0].is_coroutine);
  ASSERT_EQ(ctxs[0].params.size(), 3u);
  EXPECT_TRUE(ctxs[0].params[0].is_reference);
  EXPECT_FALSE(ctxs[0].params[1].is_reference);
  EXPECT_FALSE(ctxs[0].params[2].is_reference);
}

TEST(DetlintContexts, RecoversQualifiedMemberDefinition) {
  const LexResult lex = Lex(
      "sim::Task Dataplane::RunLoop() {\n"
      "  auto self = co_await frames_.Join();\n"
      "}\n");
  const auto ctxs = BuildFunctionContexts(lex);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].name, "RunLoop");
  EXPECT_TRUE(ctxs[0].joins_frame_set);
}

TEST(DetlintContexts, SkipsDeclarationsWithoutBody) {
  const LexResult lex = Lex("sim::Task Worker(int id);\n");
  EXPECT_TRUE(BuildFunctionContexts(lex).empty());
}

TEST(DetlintContexts, RecoversLambdaAndDistinguishesSubscript) {
  const LexResult lex = Lex(
      "void f(std::vector<int>& v) {\n"
      "  auto add = [&v](int x) { v[0] += x; };\n"
      "  add(v[1]);\n"
      "}\n");
  const auto ctxs = BuildFunctionContexts(lex);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_TRUE(ctxs[0].is_lambda);
  EXPECT_TRUE(ctxs[0].has_capture);
  EXPECT_FALSE(ctxs[0].returns_task);
}

TEST(DetlintContexts, TaskLambdaWithTrailingReturnType) {
  const LexResult lex = Lex(
      "auto spawn = [](sim::Simulator* sim) -> sim::Task {\n"
      "  co_await Delay(*sim, 1);\n"
      "};\n");
  const auto ctxs = BuildFunctionContexts(lex);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_TRUE(ctxs[0].is_lambda);
  EXPECT_FALSE(ctxs[0].has_capture);
  EXPECT_TRUE(ctxs[0].returns_task);
  EXPECT_TRUE(ctxs[0].is_coroutine);
}

// ------------------------------------------------------- corolint rules

FileReport LintCoro(const std::string& src) {
  return LintSource("t.cc", src, {}, {"coroutine"});
}

TEST(CorolintRules, CoawaitOnTernaryOperand) {
  const FileReport r = LintCoro(
      "sim::Task F(Session* s, bool w) {\n"
      "  auto res = co_await (w ? s->Write(1) : s->Read(1));\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coawait-ternary"));
  EXPECT_EQ(r.findings[0].line, 2);
}

TEST(CorolintRules, CoawaitInTernaryArms) {
  const FileReport r = LintCoro(
      "sim::Task F(Session* s, bool w) {\n"
      "  auto res = w ? co_await s->Write(1) : co_await s->Read(1);\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coawait-ternary"));
}

TEST(CorolintRules, CoawaitTernaryNegatives) {
  // Ternaries inside call arguments, and ternaries with no co_await at
  // the top level, are fine.
  const FileReport r = LintCoro(
      "sim::Task F(sim::Simulator* sim, bool fast) {\n"
      "  co_await sim::Delay(*sim, fast ? 1 : 100);\n"
      "  int x = fast ? 1 : 2;\n"
      "  (void)x;\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].rule << " at " << r.findings[0].line;
}

TEST(CorolintRules, RefParamOnCoroutine) {
  const FileReport r = LintCoro(
      "sim::Task F(Backend& backend, int id) {\n"
      "  co_await backend.Read(id);\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-ref-param"));
}

TEST(CorolintRules, RefParamNegatives) {
  // Pointers and by-value params are fine; non-coroutine Task factories
  // (no co_await in the body) take references legitimately.
  const FileReport r = LintCoro(
      "sim::Task F(Backend* backend, std::vector<int> data) {\n"
      "  co_await backend->Read(data[0]);\n"
      "}\n"
      "sim::Task G(Backend& backend) { return F(&backend, {}); }\n");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].rule << " at " << r.findings[0].line;
}

TEST(CorolintRules, CapturingLambdaCoroutine) {
  const FileReport r = LintCoro(
      "void Spawn(sim::Simulator* sim) {\n"
      "  auto t = [sim]() -> sim::Task { co_await Delay(*sim, 1); };\n"
      "  t();\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-lambda-capture"));
}

TEST(CorolintRules, CapturelessLambdaCoroutineIsClean) {
  const FileReport r = LintCoro(
      "void Spawn(sim::Simulator* sim) {\n"
      "  auto t = [](sim::Simulator* s) -> sim::Task {\n"
      "    co_await Delay(*s, 1);\n"
      "  };\n"
      "  t(sim);\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty());
}

TEST(CorolintRules, UntrackedInfiniteLoop) {
  const FileReport r = LintCoro(
      "sim::Task Poll(sim::Simulator* sim) {\n"
      "  for (;;) {\n"
      "    co_await sim::Delay(*sim, 100);\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-untracked-loop"));
}

TEST(CorolintRules, JoinThatIsNotAwaitedDoesNotTrackALoop) {
  const FileReport r = LintCoro(
      "sim::Task Poll(Plane* p) {\n"
      "  p->frames_.Join();\n"
      "  for (;;) {\n"
      "    co_await p->Tick();\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-untracked-loop"));
}

TEST(CorolintRules, TrackedOrTerminatingLoopsAreClean) {
  const FileReport r = LintCoro(
      // Joined frame: its owner destroys it.
      "sim::Task Monitor(Plane* p) {\n"
      "  auto self = co_await p->frames_.Join();\n"
      "  for (;;) {\n"
      "    co_await sim::Delay(p->sim(), 100);\n"
      "  }\n"
      "}\n"
      // Loop with a top-level break terminates.
      "sim::Task Fetch(Cache* c) {\n"
      "  for (;;) {\n"
      "    co_await c->Wait();\n"
      "    if (c->Ready()) break;\n"
      "  }\n"
      "}\n"
      // co_return inside the loop terminates it too.
      "sim::Task Drain(Queue* q) {\n"
      "  while (true) {\n"
      "    co_await q->Pop();\n"
      "    if (q->Empty()) co_return;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].rule << " at " << r.findings[0].line;
}

TEST(CorolintRules, BreakInNestedLoopDoesNotTerminateOuter) {
  const FileReport r = LintCoro(
      "sim::Task Poll(Plane* p) {\n"
      "  for (;;) {\n"
      "    co_await p->Tick();\n"
      "    for (int i = 0; i < 4; ++i) {\n"
      "      if (p->Done(i)) break;\n"
      "    }\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-untracked-loop"));
}

TEST(CorolintRules, ManualResumeOutsideEventQueue) {
  const FileReport r = LintCoro(
      "void Deliver(std::coroutine_handle<> h) {\n"
      "  h.resume();\n"
      "}\n");
  EXPECT_TRUE(OnlyRule(r, "coro-manual-resume"));
}

TEST(CorolintRules, ResumeViaScheduleAfterIsClean) {
  const FileReport r = LintCoro(
      "void Deliver(sim::Simulator& sim, std::coroutine_handle<> h) {\n"
      "  sim.ScheduleAfter(0, [h] { h.resume(); });\n"
      "}\n"
      "void Later(sim::Simulator& sim, std::coroutine_handle<> h) {\n"
      "  sim.ScheduleAt(100, [h]() { h.resume(); });\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty())
      << r.findings[0].rule << " at " << r.findings[0].line;
}

TEST(CorolintRules, SuppressionsCoverCorolintRules) {
  const FileReport r = LintCoro(
      "// detlint: allow(coro-ref-param) backend outlives the sim; owner\n"
      "// joins all workers before teardown.\n"
      "sim::Task F(Backend& backend) {\n"
      "  co_await backend.Read(0);\n"
      "}\n");
  EXPECT_TRUE(r.findings.empty());
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "coro-ref-param");
}

// ---------------------------------------------------- analyzer selection

TEST(DetlintAnalyzers, SelectionFiltersRuleFamilies) {
  const std::string src =
      "std::unordered_map<int, int> m;\n"
      "sim::Task F(Backend& b) { co_await b.Read(0); }\n";
  const FileReport det = LintSource("t.cc", src, {}, {"determinism"});
  EXPECT_TRUE(OnlyRule(det, "unordered-container"));
  const FileReport coro = LintSource("t.cc", src, {}, {"coroutine"});
  EXPECT_TRUE(OnlyRule(coro, "coro-ref-param"));
  const FileReport both = LintSource("t.cc", src, {}, {});
  EXPECT_TRUE(HasRule(both, "unordered-container"));
  EXPECT_TRUE(HasRule(both, "coro-ref-param"));
}

TEST(DetlintAnalyzers, JsonReportCarriesAnalyzerField) {
  std::ostringstream out, err;
  RunOptions opts;
  opts.json = true;
  const int rc = RunDetlint(
      {std::string(FIXTURE_DIR) + "/canary_coawait_ternary.cc"}, opts, out,
      err);
  EXPECT_EQ(rc, kExitViolations);
  EXPECT_NE(out.str().find("\"analyzer\": \"coroutine\""),
            std::string::npos)
      << out.str();
}

TEST(DetlintFixtures, CorolintCanariesTripTheirRules) {
  EXPECT_TRUE(OnlyRule(LintFixture("canary_coawait_ternary.cc"),
                       "coawait-ternary"));
  EXPECT_TRUE(
      OnlyRule(LintFixture("canary_coro_ref_param.cc"), "coro-ref-param"));
  EXPECT_TRUE(OnlyRule(LintFixture("canary_coro_lambda_capture.cc"),
                       "coro-lambda-capture"));
  EXPECT_TRUE(OnlyRule(LintFixture("canary_coro_untracked_loop.cc"),
                       "coro-untracked-loop"));
  EXPECT_TRUE(OnlyRule(LintFixture("canary_coro_manual_resume.cc"),
                       "coro-manual-resume"));
}

TEST(DetlintFixtures, CoroCleanFixtureIsSilent) {
  const FileReport r = LintFixture("coro_clean.cc");
  EXPECT_TRUE(r.findings.empty()) << r.findings[0].rule << " at line "
                                  << r.findings[0].line;
}

}  // namespace
}  // namespace detlint
