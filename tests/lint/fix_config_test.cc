// Lint fix application (the --fix engine), .kgmlint severity overrides,
// and the skipped-pass bookkeeping: fixes must round-trip to a clean
// re-lint and be idempotent; config overrides must reshape both renderer
// output and KgService admission; gated passes must say so instead of
// silently reporting nothing.

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "lint/config.h"
#include "lint/diagnostic.h"
#include "lint/fix.h"
#include "lint/lint.h"
#include "pg/property_graph.h"
#include "service/service.h"

namespace kgm::lint {
namespace {

namespace fs = std::filesystem;

const Diagnostic* FindPass(const LintResult& result, const std::string& pass) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.pass == pass) return &d;
  }
  return nullptr;
}

// ------------------------------------------------------------------ fixes

TEST(FixTest, SingletonFixRoundTripsToCleanRelint) {
  const std::string source =
      "@input(\"p\").\n"
      "p(x, y) -> q(x).\n"
      "@output(\"q\").\n";
  LintResult result = LintVadalogSource(source);
  const Diagnostic* d = FindPass(result, "singleton-variable");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->has_fix());
  EXPECT_EQ(d->fix_original, "y");
  EXPECT_EQ(d->fix_replacement, "_y");

  size_t applied = 0;
  const std::string fixed = ApplyFixes(source, result, &applied);
  EXPECT_EQ(applied, 1u);
  EXPECT_NE(fixed.find("p(x, _y)"), std::string::npos) << fixed;

  LintResult relint = LintVadalogSource(fixed);
  EXPECT_EQ(FindPass(relint, "singleton-variable"), nullptr)
      << RenderText(relint);

  // Idempotence: the stale diagnostics no longer anchor on anything.
  size_t again = 0;
  EXPECT_EQ(ApplyFixes(fixed, result, &again), fixed);
  EXPECT_EQ(again, 0u);
}

TEST(FixTest, FixSkipsOccurrencesInsideStringsAndOtherRules) {
  // The singleton `total` in rule 2 must not rewrite the same token in
  // rule 1 or inside the string literal.
  const std::string source =
      "@fact note(\"total\").\n"
      "@fact amount(3).\n"
      "amount(total) -> kept(total).\n"
      "amount(total), note(_n) -> dropped(1).\n"
      "@output(\"kept\").\n"
      "@output(\"dropped\").\n";
  LintResult result = LintVadalogSource(source);
  const Diagnostic* d = FindPass(result, "singleton-variable");
  ASSERT_NE(d, nullptr) << RenderText(result);
  ASSERT_EQ(d->rule_index, 1);

  size_t applied = 0;
  const std::string fixed = ApplyFixes(source, result, &applied);
  EXPECT_EQ(applied, 1u);
  EXPECT_NE(fixed.find("amount(total) -> kept(total)"), std::string::npos)
      << fixed;
  EXPECT_NE(fixed.find("\"total\""), std::string::npos) << fixed;
  EXPECT_NE(fixed.find("amount(_total), note(_n)"), std::string::npos)
      << fixed;
}

TEST(FixTest, JsonCarriesFixObjects) {
  LintResult result = LintVadalogSource(
      "@input(\"p\").\np(x, y) -> q(x).\n@output(\"q\").\n");
  const std::string json = RenderJson(result, "f");
  EXPECT_NE(json.find("\"fix\":{\"original\":\"y\",\"replacement\":\"_y\"}"),
            std::string::npos)
      << json;
}

// ------------------------------------------------------------------ config

TEST(ConfigTest, ParseAcceptsOverridesAndReportsFirstProblem) {
  std::string error;
  LintConfig config = ParseLintConfig(
      "# promote null handling, silence style\n"
      "null-flow = error\n"
      "singleton-variable = off\n",
      &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(config.overrides.size(), 2u);
  EXPECT_EQ(config.overrides.at("null-flow"), Severity::kError);
  EXPECT_EQ(config.overrides.at("singleton-variable"), std::nullopt);

  LintConfig broken = ParseLintConfig(
      "unsat-rule = warning\nnull-flow = loud\n", &error);
  EXPECT_FALSE(error.empty());
  // The valid line still took effect.
  EXPECT_EQ(broken.overrides.count("unsat-rule"), 1u);
  EXPECT_EQ(broken.overrides.count("null-flow"), 0u);
}

TEST(ConfigTest, ApplyRemapsDropsAndResorts) {
  // A program with one warning-grade typeflow finding and one singleton.
  LintResult result = LintVadalogSource(
      "@fact score(1).\n"
      "score(x), x > 5 -> high(x).\n"
      "score(x), score(y) -> pair(x).\n"
      "@output(\"high\").\n"
      "@output(\"pair\").\n");
  ASSERT_NE(FindPass(result, "unsat-rule"), nullptr) << RenderText(result);
  ASSERT_NE(FindPass(result, "singleton-variable"), nullptr);
  EXPECT_FALSE(result.has_errors());

  LintConfig config;
  config.overrides["unsat-rule"] = Severity::kError;
  config.overrides["singleton-variable"] = std::nullopt;
  config.Apply(&result);
  EXPECT_TRUE(result.has_errors());
  EXPECT_EQ(FindPass(result, "unsat-rule")->severity, Severity::kError);
  EXPECT_EQ(FindPass(result, "singleton-variable"), nullptr);
  // Re-sorted: the promoted error leads.
  EXPECT_EQ(result.diagnostics.front().pass, "unsat-rule");
}

TEST(ConfigTest, OffPassDropsItsSkipNote) {
  // An error-grade finding gates the typeflow passes; configuring one of
  // them off must also remove its skipped_passes entry.
  LintResult result = LintVadalogSource(
      "@input(\"p\").\n"
      "p(x) -> q(x, y).\n"
      "@output(\"q\").\n");
  ASSERT_TRUE(result.has_errors());
  ASSERT_GE(result.skipped_passes.size(), 3u);

  LintConfig config;
  config.overrides["null-flow"] = std::nullopt;
  config.Apply(&result);
  for (const std::string& pass : result.skipped_passes) {
    EXPECT_NE(pass, "null-flow");
  }
  EXPECT_GE(result.skipped_passes.size(), 2u);
}

TEST(ConfigTest, EnforcedPassesCannotBeSwitchedOffOrDemoted) {
  // The engine rejects this program (y is unbound in the head), so no
  // .kgmlint may report it clean.
  const std::string source =
      "@input(\"p\").\n"
      "p(x) -> q(x, y).\n"
      "@output(\"q\").\n";
  std::string error;
  LintConfig parsed = ParseLintConfig("safety = off\narity = off\n", &error);
  EXPECT_NE(error.find("safety"), std::string::npos) << error;
  EXPECT_TRUE(parsed.overrides.empty());

  LintConfig config;
  config.overrides["safety"] = std::nullopt;
  config.overrides["arity"] = Severity::kNote;
  config.overrides["stratification"] = Severity::kWarning;
  LintResult result = LintVadalogSource(source);
  config.Apply(&result);
  const Diagnostic* safety = FindPass(result, "safety");
  ASSERT_NE(safety, nullptr) << RenderText(result);
  EXPECT_EQ(safety->severity, Severity::kError);
  EXPECT_TRUE(result.has_errors());
  EXPECT_FALSE(result.skipped_passes.empty());

  for (const char* pass : {"parse", "translate", "safety", "stratification",
                           "aggregate", "arity"}) {
    error.clear();
    ParseLintConfig(std::string(pass) + " = warning\n", &error);
    EXPECT_FALSE(error.empty()) << pass;
  }
}

TEST(ConfigTest, WardednessOffLeavesTheAnalysisPassesRunning) {
  // Unwarded (y is dangerous and joins two atoms), with a dead guard the
  // typeflow passes report.  Wardedness does not gate them.
  const std::string source =
      "@fact score(1).\n"
      "@input(\"start\").\n"
      "start(x) -> exists y p(x, y).\n"
      "p(x, y) -> q(x, y).\n"
      "p(x, y), q(z, y) -> r(x, z, y).\n"
      "score(x), x > 5 -> high(x).\n"
      "@output(\"r\").\n"
      "@output(\"high\").\n";
  LintResult result = LintVadalogSource(source);
  ASSERT_NE(FindPass(result, "wardedness"), nullptr) << RenderText(result);
  EXPECT_TRUE(result.skipped_passes.empty()) << RenderText(result);
  EXPECT_NE(FindPass(result, "unsat-rule"), nullptr) << RenderText(result);

  std::string error;
  LintConfig config = ParseLintConfig("wardedness = off\n", &error);
  EXPECT_TRUE(error.empty()) << error;
  config.Apply(&result);
  EXPECT_FALSE(result.has_errors()) << RenderText(result);
  EXPECT_NE(FindPass(result, "unsat-rule"), nullptr);
  EXPECT_EQ(RenderText(result, "f").find("skipped"), std::string::npos);
}

TEST(ConfigTest, DiscoveryWalksUpward) {
  fs::path root = fs::temp_directory_path() / "kgmlint_discovery_test";
  fs::remove_all(root);
  fs::create_directories(root / "a" / "b");
  std::ofstream(root / ".kgmlint") << "unsat-rule = off\n";

  std::string found =
      FindLintConfigFile((root / "a" / "b").string());
  EXPECT_EQ(found, (root / ".kgmlint").string());

  std::string error;
  LintConfig config =
      LoadLintConfigFor((root / "a" / "b" / "prog.vlog").string(), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(config.overrides.count("unsat-rule"), 1u);
  fs::remove_all(root);
}

// ----------------------------------------------------------- skipped notes

TEST(SkippedPassTest, GatedRunsRecordAndRenderSkips) {
  LintResult result = LintVadalogSource(
      "@input(\"p\").\n"
      "p(x) -> q(x, y).\n"
      "@output(\"q\").\n");
  ASSERT_TRUE(result.has_errors());
  ASSERT_FALSE(result.skipped_passes.empty());

  const std::string text = RenderText(result, "f");
  EXPECT_NE(text.find("skipped due to earlier errors"), std::string::npos)
      << text;
  const std::string json = RenderJson(result, "f");
  EXPECT_NE(json.find("\"skipped_passes\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"type-conflict\""), std::string::npos) << json;

  // Clean runs carry no note.
  LintResult clean = LintVadalogSource(
      "@input(\"edge\").\n"
      "edge(x, y) -> reach(x, y).\n"
      "@output(\"reach\").\n");
  EXPECT_TRUE(clean.skipped_passes.empty());
  EXPECT_EQ(RenderText(clean, "f").find("skipped"), std::string::npos);
}

// ------------------------------------------------------------- admission

TEST(ConfigServiceTest, PromotedPassBlocksAdmission) {
  // `unsat-rule` is warning-grade by default: the program is admitted.
  // Promoting it to error in the service's LintConfig must reject the
  // same program with InvalidArgument.
  const char* program =
      "@fact bonus(1).\n"
      "bonus(x), x > 5 -> q(x).\n"
      "@output(\"q\").\n";

  auto make_graph = [] {
    pg::PropertyGraph graph;
    pg::NodeId a = graph.AddNode("PhysicalPerson", {});
    pg::NodeId b = graph.AddNode("Business", {});
    graph.AddEdge(a, b, "OWNS", {{"percentage", Value(0.6)}});
    return graph;
  };

  service::QueryRequest request;
  request.program = program;
  request.language = service::QueryLanguage::kVadalog;
  request.output = "q";

  {
    service::KgService svc;
    svc.Publish(make_graph());
    auto admitted = svc.Query(request);
    EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
  }
  {
    service::KgServiceOptions options;
    options.lint_config.overrides["unsat-rule"] = Severity::kError;
    service::KgService svc(options);
    svc.Publish(make_graph());
    auto rejected = svc.Query(request);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << rejected.status().ToString();
    EXPECT_NE(rejected.status().message().find("unsat-rule"),
              std::string::npos)
        << rejected.status().ToString();
  }
}

TEST(ConfigServiceTest, SilencedPassAdmitsFormerlyRejectedProgram) {
  // A type-conflict is error-grade by default; a deployment that turns
  // the pass off admits the program (it just derives nothing).
  const char* program =
      "@fact a(\"s\").\n"
      "@fact b(1).\n"
      "a(x), b(x) -> q(x).\n"
      "@output(\"q\").\n";
  auto make_graph = [] {
    pg::PropertyGraph graph;
    graph.AddNode("Business", {});
    return graph;
  };

  service::QueryRequest request;
  request.program = program;
  request.language = service::QueryLanguage::kVadalog;
  request.output = "q";

  {
    service::KgService svc;
    svc.Publish(make_graph());
    auto rejected = svc.Query(request);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  {
    service::KgServiceOptions options;
    options.lint_config.overrides["type-conflict"] = std::nullopt;
    service::KgService svc(options);
    svc.Publish(make_graph());
    auto admitted = svc.Query(request);
    EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
    EXPECT_EQ((*admitted).rows->size(), 0u);
  }
}

}  // namespace
}  // namespace kgm::lint
