// The lint pipeline: golden diagnostics per pass, the broken-program
// corpus, MetaLog provenance anchoring, and admission-time rejection
// through KgService.

#include "lint/lint.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "finkg/company_kg.h"
#include "instance/pipeline.h"
#include "lint/config.h"
#include "service/service.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::lint {
namespace {

const Diagnostic* FindPass(const LintResult& result, std::string_view pass) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.pass == pass) return &d;
  }
  return nullptr;
}

size_t CountPass(const LintResult& result, std::string_view pass) {
  size_t n = 0;
  for (const Diagnostic& d : result.diagnostics) n += d.pass == pass;
  return n;
}

// The family program with the Family label atom repeated on f: the join
// of two affected positions leaves the dangerous variable without a ward.
const char kBrokenWarded[] =
    "(p: PhysicalPerson; surname: s)\n"
    "  -> exists f = skFamily(s)\n"
    "     (p)[: BELONGS_TO_FAMILY](f: Family; familyName: s).\n"
    "(p: PhysicalPerson)[: BELONGS_TO_FAMILY](f: Family),\n"
    "(p)[: OWNS](b: Business)\n"
    "  -> exists e = skFamOwns(f, b) (f)[e: FAMILY_OWNS](b).\n";

// A 65-atom chain rule over 66 distinct variables: two past the engine's
// kMaxRuleVariables.
std::string WideChainRule(const std::string& edge) {
  std::string body;
  for (int i = 0; i < 65; ++i) {
    if (i) body += ", ";
    body += edge + "(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
            ")";
  }
  return body + " -> wide(v65, v0).\n";
}

// ---------------------------------------------------------------- Vadalog

TEST(LintVadalogTest, CleanProgramIsClean) {
  LintResult result = LintVadalogSource(
      "@input(\"edge\").\n"
      "edge(x, y) -> reach(x, y).\n"
      "reach(x, y), edge(y, z) -> reach(x, z).\n"
      "@output(\"reach\").\n");
  EXPECT_TRUE(result.empty()) << RenderText(result);
}

TEST(LintVadalogTest, UnsafeHeadVariableIsError) {
  LintResult result = LintVadalogSource(
      "@input(\"p\").\n"
      "p(x) -> q(x, y).\n"
      "@output(\"q\").\n");
  const Diagnostic* d = FindPass(result, "safety");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->loc.line, 2);
  EXPECT_EQ(d->rule_index, 0);
  EXPECT_NE(d->message.find("variable y"), std::string::npos) << d->message;
  EXPECT_TRUE(result.has_errors());
}

TEST(LintVadalogTest, NegationInRecursiveSccIsError) {
  LintResult result = LintVadalogSource(
      "@fact p(\"a\").\n"
      "p(x), not q(x) -> q(x).\n"
      "@output(\"q\").\n");
  const Diagnostic* d = FindPass(result, "stratification");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->loc.line, 2);
  EXPECT_NE(d->message.find("not stratified"), std::string::npos);
}

TEST(LintVadalogTest, ArityClashIsError) {
  LintResult result = LintVadalogSource(
      "@fact p(\"a\").\n"
      "p(x) -> q(x).\n"
      "p(x, y) -> r(x, y).\n"
      "@output(\"q\").\n"
      "@output(\"r\").\n");
  const Diagnostic* d = FindPass(result, "arity");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->loc.line, 3);
  EXPECT_NE(d->message.find("predicate p"), std::string::npos);

  // Lint and the engine run one arity table: the engine refuses the
  // program when it is built.
  Result<vadalog::Program> program = vadalog::ParseProgram(
      "@fact p(\"a\").\np(x) -> q(x).\np(x, y) -> r(x, y).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  vadalog::Engine engine(*std::move(program));
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
      << engine.status().ToString();
  EXPECT_EQ(engine.status().message(), d->message);
}

TEST(LintVadalogTest, RuleWiderThanEngineLimitsIsError) {
  // Lint and the engine run one width check: each program is refused by
  // both, the engine when it is built.
  std::string atom61 = "p(x0";
  for (int i = 1; i < 61; ++i) atom61 += ", x" + std::to_string(i);
  atom61 += ") -> q(x0).\n";
  const struct {
    std::string source;
    std::string message;
  } cases[] = {
      {"@input(\"edge\").\n" + WideChainRule("edge") + "@output(\"wide\").\n",
       "rule uses 66 variables"},
      {"@input(\"p\").\n" + atom61 + "@output(\"q\").\n",
       "atom p has 61 arguments"},
  };
  for (const auto& c : cases) {
    LintResult result = LintVadalogSource(c.source);
    const Diagnostic* d = FindPass(result, "arity");
    ASSERT_NE(d, nullptr) << RenderText(result);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->rule_index, 0);
    EXPECT_NE(d->message.find(c.message), std::string::npos) << d->message;

    Result<vadalog::Program> program = vadalog::ParseProgram(c.source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    vadalog::Engine engine(*std::move(program));
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
        << engine.status().ToString();
    EXPECT_NE(engine.status().message().find(c.message), std::string::npos)
        << engine.status().ToString();
  }
}

TEST(LintVadalogTest, AggregateTheEngineRefusesIsError) {
  // Lint and the engine run one aggregate check: each program is refused
  // by both.
  const struct {
    std::string rule;
    std::string message;
  } cases[] = {
      {"holds(p, c, w), n = count(<p>), s = msum(w, <p>) -> st(c, n, s).\n",
       "mixes monotonic and stratified aggregates"},
      {"holds(p, c, w), n = sum(w, w, <p>) -> st(c, n).\n",
       "aggregate sum takes 1 argument(s)"},
  };
  for (const auto& c : cases) {
    const std::string source =
        "@input(\"holds\").\n" + c.rule + "@output(\"st\").\n";
    LintResult result = LintVadalogSource(source);
    const Diagnostic* d = FindPass(result, "aggregate");
    ASSERT_NE(d, nullptr) << RenderText(result);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->loc.line, 2);
    EXPECT_EQ(d->rule_index, 0);
    EXPECT_EQ(d->message, c.message);

    Result<vadalog::Program> program = vadalog::ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    vadalog::Engine engine(*std::move(program));
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
        << engine.status().ToString();
  }
}

TEST(LintVadalogTest, DeadRuleIsWarnedWhenOutputsDeclared) {
  LintResult result = LintVadalogSource(
      "@input(\"edge\").\n"
      "edge(x, y) -> reach(x, y).\n"
      "edge(x, y) -> dead(x, y).\n"
      "@output(\"reach\").\n");
  const Diagnostic* unused = FindPass(result, "unused-predicate");
  ASSERT_NE(unused, nullptr) << RenderText(result);
  EXPECT_EQ(unused->severity, Severity::kWarning);
  const Diagnostic* unreachable = FindPass(result, "unreachable-rule");
  ASSERT_NE(unreachable, nullptr) << RenderText(result);
  EXPECT_EQ(unreachable->loc.line, 3);
  EXPECT_FALSE(result.has_errors());
}

TEST(LintVadalogTest, UndefinedPredicateIsWarned) {
  LintResult result = LintVadalogSource(
      "ghost(x) -> q(x).\n"
      "@output(\"q\").\n");
  const Diagnostic* d = FindPass(result, "undefined-predicate");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_NE(d->message.find("ghost"), std::string::npos);
}

TEST(LintVadalogTest, ExternalPredicatesAreExempt) {
  LintOptions options;
  options.external_predicates = {"ghost"};
  vadalog::Program program;
  auto parsed = vadalog::ParseProgram("ghost(x) -> q(x).\n@output(\"q\").\n");
  ASSERT_TRUE(parsed.ok());
  LintResult result = RunLints(*parsed, options);
  EXPECT_EQ(FindPass(result, "undefined-predicate"), nullptr)
      << RenderText(result);
}

TEST(LintVadalogTest, SingletonVariableWarnsUnlessUnderscored) {
  LintResult dirty = LintVadalogSource(
      "@input(\"p\").\np(x, y) -> q(x).\n@output(\"q\").\n");
  const Diagnostic* d = FindPass(dirty, "singleton-variable");
  ASSERT_NE(d, nullptr) << RenderText(dirty);
  EXPECT_NE(d->message.find("variable y"), std::string::npos);

  LintResult clean = LintVadalogSource(
      "@input(\"p\").\np(x, _y) -> q(x).\n@output(\"q\").\n");
  EXPECT_EQ(FindPass(clean, "singleton-variable"), nullptr)
      << RenderText(clean);
}

TEST(LintVadalogTest, MagicFutilityWarnsWhenBindingNeverReachesRecursion) {
  // `out`'s binding flows only into the extensional `flag`; the recursive
  // `tc` subgoal is all-free, so a bound point query on `out` still
  // evaluates the entire closure.
  LintResult result = LintVadalogSource(
      "@input(\"edge\").\n"
      "@input(\"flag\").\n"
      "edge(x, y) -> tc(x, y).\n"
      "tc(x, y), edge(y, z) -> tc(x, z).\n"
      "flag(c), tc(_x, _y) -> out(c).\n"
      "@output(\"out\").\n");
  const Diagnostic* d = FindPass(result, "magic-futility");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("no bound argument reaches a recursive"),
            std::string::npos)
      << d->message;
  EXPECT_FALSE(result.has_errors());

  // The pass is switched off through the config, like any other.
  LintConfig off;
  off.overrides["magic-futility"] = std::nullopt;
  off.Apply(&result);
  EXPECT_EQ(FindPass(result, "magic-futility"), nullptr);
}

TEST(LintVadalogTest, MagicFutilityWarnsOnAggregateFallback) {
  LintResult result = LintVadalogSource(
      "@input(\"edge\").\n"
      "edge(x, y) -> tc(x, y).\n"
      "tc(x, y), edge(y, z) -> tc(x, z).\n"
      "tc(x, y), n = mcount(<y>) -> cnt(x, n).\n"
      "@output(\"cnt\").\n");
  const Diagnostic* d = FindPass(result, "magic-futility");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_NE(d->message.find("fall back to full materialization"),
            std::string::npos)
      << d->message;
}

TEST(LintVadalogTest, MagicFutilitySilentOnBeneficialAndNonRecursive) {
  // Bound closure queries benefit (CleanProgramIsClean covers the reach
  // shape); a non-recursive projection gets magic's join restriction too,
  // so neither may warn.
  LintResult projection = LintVadalogSource(
      "@input(\"edge\").\n"
      "edge(x, y) -> out(x, y).\n"
      "@output(\"out\").\n");
  EXPECT_EQ(FindPass(projection, "magic-futility"), nullptr)
      << RenderText(projection);
}

TEST(LintVadalogTest, ParseErrorBecomesDiagnostic) {
  LintResult result = LintVadalogSource("p(x ->\n");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].pass, "parse");
  EXPECT_EQ(result.diagnostics[0].severity, Severity::kError);
}

TEST(LintVadalogTest, RenderingIsDeterministic) {
  const char kSource[] =
      "@fact p(\"a\").\n"
      "p(x) -> q(x, y).\n"
      "p(x, z) -> r(x, z).\n"
      "@output(\"q\").\n"
      "@output(\"r\").\n";
  LintResult a = LintVadalogSource(kSource);
  LintResult b = LintVadalogSource(kSource);
  EXPECT_EQ(RenderText(a, "f"), RenderText(b, "f"));
  EXPECT_EQ(RenderJson(a, "f"), RenderJson(b, "f"));
  // Errors sort before warnings at the same location.
  ASSERT_FALSE(a.diagnostics.empty());
  EXPECT_EQ(a.diagnostics.front().severity, a.max_severity());
}

// ---------------------------------------------------------------- MetaLog

TEST(LintMetaLogTest, WardednessViolationAnchorsAtMetaLogRule) {
  metalog::GraphCatalog catalog =
      instance::SchemaCatalog(finkg::CompanyKgSchema());
  LintResult result = LintMetaLogSource(kBrokenWarded, &catalog);
  const Diagnostic* d = FindPass(result, "wardedness");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  // The finding is reported at the second MetaLog rule (line 4), not at
  // whatever compiled Vadalog rule MTV produced from it.
  EXPECT_EQ(d->loc.line, 4);
  EXPECT_EQ(d->rule_index, 1);
  // The 2^k star-variant expansion must not duplicate the finding.
  EXPECT_EQ(CountPass(result, "wardedness"), 1u);
}

TEST(LintMetaLogTest, CompanyKgProgramsLintClean) {
  metalog::GraphCatalog catalog =
      instance::SchemaCatalog(finkg::CompanyKgSchema());
  const char* programs[] = {
      finkg::kOwnsProgram, finkg::kControlProgram,
      finkg::kStakeholdersProgram, finkg::kFamilyProgram,
      finkg::kCloseLinksProgram};
  for (const char* source : programs) {
    LintResult result = LintMetaLogSource(source, &catalog);
    EXPECT_TRUE(result.empty()) << source << "\n" << RenderText(result);
  }
}

TEST(LintMetaLogTest, UnknownLabelIsCatalogWarning) {
  metalog::GraphCatalog catalog =
      instance::SchemaCatalog(finkg::CompanyKgSchema());
  LintResult result = LintMetaLogSource(
      "(x: Wat) -> exists c = skC(x) (x)[c: CONTROLS](x).\n", &catalog);
  const Diagnostic* d = FindPass(result, "catalog");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("Wat"), std::string::npos);
}

TEST(LintMetaLogTest, UnlabeledHeadNodeWithPropertiesIsError) {
  // The unlabeled head atom names no relation that could hold `nick`.
  LintResult result = LintMetaLogSource(
      "(x: Person)[: KNOWS](y) -> (x; nick: \"a\")[: LIKES](y).\n", nullptr);
  const Diagnostic* d = FindPass(result, "translate");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("node atom with properties needs a label"),
            std::string::npos)
      << d->message;
}

TEST(LintMetaLogTest, SpreadOnNegatedEdgeEndpointIsError) {
  LintResult result = LintMetaLogSource(
      "(x: Person)[: KNOWS](y), p = pack(\"k\", 1),\n"
      "not (x; *p)[: LIKES](y) -> (x)[: FOO](y).\n",
      nullptr);
  const Diagnostic* d = FindPass(result, "translate");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("must be bare references"), std::string::npos)
      << d->message;
}

TEST(LintMetaLogTest, VariableBoundOnlyInsideStarIsError) {
  // `w` is bound only on the starred LINK step; the empty-path variant of
  // the reflexive star leaves it unbound in the head.
  LintResult result = LintMetaLogSource(
      "(x: Item) [k: LINK; w: v]* (y: Item) -> (x)[: OUT; w: v](y).\n",
      nullptr);
  const Diagnostic* d = FindPass(result, "path-unbound-variable");
  ASSERT_NE(d, nullptr) << RenderText(result);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule_index, 0);
  EXPECT_NE(d->message.find("variable v is bound only inside a '*' path"),
            std::string::npos)
      << d->message;
}

TEST(LintMetaLogTest, ParseErrorBecomesDiagnostic) {
  LintResult result = LintMetaLogSource("this is not metalog\n", nullptr);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_EQ(result.diagnostics[0].pass, "parse");
  EXPECT_TRUE(result.has_errors());
}

// ---------------------------------------------------------------- Service

pg::PropertyGraph TinyGraph() {
  pg::PropertyGraph g;
  pg::NodeId a = g.AddNode("PhysicalPerson", {{"surname", Value("Rossi")}});
  pg::NodeId b = g.AddNode("Business", {});
  g.AddEdge(a, b, "OWNS", {{"percentage", Value(0.6)}});
  return g;
}

TEST(LintServiceTest, QueryRejectsWardednessViolationBeforeQueueing) {
  service::KgService svc;
  svc.Publish(TinyGraph());
  service::QueryRequest request;
  request.program = kBrokenWarded;
  request.language = service::QueryLanguage::kMetaLog;
  request.output = "FAMILY_OWNS";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("rejected by lint"),
            std::string::npos)
      << result.status().ToString();

  // Execute() bypasses the queue but not the (cached) lint verdict.
  auto direct = svc.Execute(request);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
}

TEST(LintServiceTest, VadalogQueryRejectsLintErrors) {
  service::KgService svc;
  svc.Publish(TinyGraph());
  const struct {
    std::string program;
    std::string output;
  } cases[] = {
      {"OWNS(e, x, y, w) -> q(x, ghost).", "q"},  // unsafe head variable
      // Wider than the engine compiles.
      {WideChainRule("PAIR") + "OWNS(e, x, y, w) -> PAIR(x, y).\n", "wide"},
  };
  for (const auto& c : cases) {
    service::QueryRequest request;
    request.program = c.program;
    request.language = service::QueryLanguage::kVadalog;
    request.output = c.output;
    auto result = svc.Query(request);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("rejected by lint"),
              std::string::npos)
        << result.status().ToString();
  }

  // The verdict comes before the queue: with no queue slots at all, a
  // broken Vadalog program is still rejected by lint, not by admission
  // control, and counts as a failed query.
  service::KgServiceOptions options;
  options.queue_capacity = 0;
  service::KgService unqueued(options);
  unqueued.Publish(TinyGraph());
  service::QueryRequest request;
  request.program = cases[0].program;
  request.language = service::QueryLanguage::kVadalog;
  request.output = cases[0].output;
  auto result = unqueued.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("rejected by lint"),
            std::string::npos)
      << result.status().ToString();
  service::StatsSnapshot stats = unqueued.Stats();
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.queue_rejected, 0u);
  EXPECT_EQ(stats.prepared_cache_misses, 1u);

  // Execute() bypasses the queue but not the cached verdict.
  auto direct = unqueued.Execute(request);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(direct.status().message().find("rejected by lint"),
            std::string::npos)
      << direct.status().ToString();
  stats = unqueued.Stats();
  EXPECT_EQ(stats.queries_failed, 2u);
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.prepared_cache_hits, 1u);
}

}  // namespace
}  // namespace kgm::lint
