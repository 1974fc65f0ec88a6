#include "metalog/mtv.h"

#include <gtest/gtest.h>

#include "metalog/parser.h"
#include "vadalog/analysis.h"

namespace kgm::metalog {
namespace {

GraphCatalog CompanyCatalog() {
  GraphCatalog c;
  c.AddNodeLabel("Business", {"name"});
  c.AddEdgeLabel("OWNS", {"percentage"});
  c.AddEdgeLabel("CONTROLS");
  c.AddEdgeLabel("MAJORITY");
  return c;
}

MtvResult TranslateOrDie(const std::string& src, const GraphCatalog& catalog,
                         MtvOptions options = {}) {
  auto program = ParseMetaProgram(src);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto result = TranslateMetaProgram(*program, catalog, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(MtvTest, SimpleEdgePattern) {
  MtvResult r = TranslateOrDie(
      "(x: Business)[o: OWNS; percentage: w](y: Business), w > 0.5"
      " -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  ASSERT_EQ(r.program.rules.size(), 1u);
  const vadalog::Rule& rule = r.program.rules[0];
  // Body: Business(x, _), OWNS(o, x, y, w), Business(y, _).
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(rule.body[0].atom.ToString(), "Business(x,_)");
  EXPECT_EQ(rule.body[1].atom.predicate, "OWNS");
  EXPECT_EQ(rule.body[1].atom.args.size(), 4u);
  EXPECT_EQ(rule.body[1].atom.args[0].var, "o");
  EXPECT_EQ(rule.body[1].atom.args[1].var, "x");
  EXPECT_EQ(rule.body[1].atom.args[2].var, "y");
  EXPECT_EQ(rule.body[1].atom.args[3].var, "w");
  // Head: MAJORITY edge with an auto-existential OID.
  ASSERT_EQ(rule.head.size(), 1u);
  EXPECT_EQ(rule.head[0].predicate, "MAJORITY");
  ASSERT_EQ(rule.existentials.size(), 1u);
}

TEST(MtvTest, InverseEdgeSwapsEndpoints) {
  MtvResult r = TranslateOrDie(
      "(x: Business)[: OWNS]-(y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  const vadalog::Rule& rule = r.program.rules[0];
  // OWNS(_, y, x, _): traversed backwards.
  EXPECT_EQ(rule.body[1].atom.args[1].var, "y");
  EXPECT_EQ(rule.body[1].atom.args[2].var, "x");
}

TEST(MtvTest, ConcatenationIntroducesFreshIntermediates) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS] / [: OWNS] (y: Business)"
      " -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  const vadalog::Rule& rule = r.program.rules[0];
  // Business(x), OWNS(x, m), OWNS(m, y), Business(y).
  ASSERT_EQ(rule.body.size(), 4u);
  const std::string mid = rule.body[1].atom.args[2].var;
  EXPECT_EQ(rule.body[2].atom.args[1].var, mid);
  EXPECT_NE(mid, "x");
  EXPECT_NE(mid, "y");
}

TEST(MtvTest, AlternationCreatesHelperPredicate) {
  GraphCatalog catalog = CompanyCatalog();
  catalog.AddEdgeLabel("HOLDS");
  MtvResult r = TranslateOrDie(
      "(x: Business) ([: OWNS] | [: HOLDS]) (y: Business)"
      " -> (x)[: MAJORITY](y).",
      catalog);
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  const std::string& alt = r.helper_predicates[0];
  // Two branch rules plus the main rule.
  ASSERT_EQ(r.program.rules.size(), 3u);
  int branch_rules = 0;
  for (const auto& rule : r.program.rules) {
    if (!rule.head.empty() && rule.head[0].predicate == alt) ++branch_rules;
  }
  EXPECT_EQ(branch_rules, 2);
}

TEST(MtvTest, PlusCreatesTransitiveClosure) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]+ (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  // base + step + main = 3 rules.
  EXPECT_EQ(r.program.rules.size(), 3u);
  // The generated program must be piecewise linear (Section 4).
  EXPECT_TRUE(vadalog::IsPiecewiseLinear(r.program));
}

TEST(MtvTest, ReflexiveStarExpandsToTwoVariants) {
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]* (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog());
  // closure base + step + zero-variant + closure-variant = 4 rules.
  EXPECT_EQ(r.program.rules.size(), 4u);
  // One of the main variants must unify x and y (no closure literal).
  bool found_zero = false;
  for (const auto& rule : r.program.rules) {
    if (rule.head.empty() || rule.head[0].predicate != "MAJORITY") continue;
    bool has_closure = false;
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate.find("_closure") != std::string::npos) {
        has_closure = true;
      }
    }
    if (!has_closure) {
      found_zero = true;
      // Endpoints unified: head from == head to.
      EXPECT_EQ(rule.head[0].args[1].var, rule.head[0].args[2].var);
    }
  }
  EXPECT_TRUE(found_zero);
}

TEST(MtvTest, NonReflexiveStarMatchesPaperTranslation) {
  MtvOptions options;
  options.reflexive_star = false;
  MtvResult r = TranslateOrDie(
      "(x: Business) [: OWNS]* (y: Business) -> (x)[: MAJORITY](y).",
      CompanyCatalog(), options);
  // Example 4.4 shape: base + step + single main rule.
  EXPECT_EQ(r.program.rules.size(), 3u);
}

TEST(MtvTest, SharedVariableBecomesClosureParameter) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("SM_Node", {"schemaOID"});
  catalog.AddEdgeLabel("SM_CHILD", {"schemaOID"});
  catalog.AddEdgeLabel("SM_PARENT", {"schemaOID"});
  catalog.AddEdgeLabel("DESCFROM");
  MtvResult r = TranslateOrDie(
      "(x: SM_Node; schemaOID: s), s == 123,"
      " (x) ([: SM_CHILD; schemaOID: s]- / [: SM_PARENT; schemaOID: s])+"
      " (y: SM_Node; schemaOID: s)"
      " -> exists w (x)[w: DESCFROM](y).",
      catalog);
  ASSERT_EQ(r.helper_predicates.size(), 1u);
  // The closure predicate carries s as a parameter column: arity 3.
  for (const auto& rule : r.program.rules) {
    for (const auto& lit : rule.body) {
      if (lit.atom.predicate == r.helper_predicates[0]) {
        EXPECT_EQ(lit.atom.args.size(), 3u);
      }
    }
  }
}

TEST(MtvTest, HeadNodePropertyDefaultsToNull) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("Business", {"name", "numberOfStakeholders"});
  MtvResult r = TranslateOrDie(
      "(x: Business; name: n) -> (x: Business; numberOfStakeholders: 0).",
      catalog);
  const vadalog::Rule& rule = r.program.rules[0];
  ASSERT_EQ(rule.head.size(), 1u);
  // Business(x, null, 0): name unmentioned -> null constant.
  EXPECT_EQ(rule.head[0].args.size(), 3u);
  EXPECT_TRUE(rule.head[0].args[1].constant.is_null());
  EXPECT_FALSE(rule.head[0].args[1].is_var());
}

TEST(MtvTest, SpreadExpandsToGetAssignments) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("I_SM_Node", {"instanceOID"});
  catalog.AddNodeLabel("Business", {"legalName", "year"});
  MtvResult r = TranslateOrDie(
      "(i: I_SM_Node), p = pack(\"k\", 1)"
      " -> exists c (c: Business; *p).",
      catalog);
  const vadalog::Rule& rule = r.program.rules[0];
  // Two get() assignments (legalName, year) appended by the spread.
  ASSERT_EQ(rule.assignments.size(), 2u);
  EXPECT_NE(rule.assignments[0].expr->ToString().find("get"),
            std::string::npos);
}

TEST(MtvTest, UnknownLabelRejected) {
  GraphCatalog catalog;
  auto program = ParseMetaProgram("(x: Nope) -> (x: Nope).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, catalog).ok());
}

TEST(MtvTest, UnknownPropertyRejected) {
  auto program =
      ParseMetaProgram("(x: Business; bogus: b) -> (x)[: CONTROLS](x).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, CompanyCatalog()).ok());
}

TEST(MtvTest, UnlabeledEdgeRejected) {
  auto program = ParseMetaProgram("(x: Business)[e](y: Business) -> "
                                  "(x)[: CONTROLS](y).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(TranslateMetaProgram(*program, CompanyCatalog()).ok());
}

// An unlabeled node atom names no relation to carry its properties, so
// one with properties or a spread is an error in the head as in the body.
TEST(MtvTest, UnlabeledHeadNodeWithPropertiesRejected) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("Person", {"name"});
  catalog.AddEdgeLabel("KNOWS", {"since"});
  catalog.AddEdgeLabel("LIKES");
  for (const char* source :
       {"(x: Person)[: KNOWS](y) -> (x; nick: \"a\")[: LIKES](y).",
        "(x: Person) -> (x; nick: \"a\").", "(x: Person) -> (x; *p)."}) {
    SCOPED_TRACE(source);
    auto program = ParseMetaProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto result = TranslateMetaProgram(*program, catalog);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(
                  ": node atom with properties needs a label"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(MtvTest, SpreadOnNegatedEdgeEndpointRejected) {
  // A negated edge pattern's endpoints are plain references: a `*p`
  // spread there is rejected, not dropped.
  GraphCatalog catalog;
  catalog.AddNodeLabel("Person", {"name"});
  catalog.AddEdgeLabel("KNOWS");
  catalog.AddEdgeLabel("LIKES");
  catalog.AddEdgeLabel("FOO");
  for (const char* source :
       {"(x: Person)[: KNOWS](y), p = pack(\"k\", 1),\n"
        "not (x; *p)[: LIKES](y) -> (x)[: FOO](y).",
        "(x: Person)[: KNOWS](y), p = pack(\"k\", 1),\n"
        "not (x)[: LIKES](y; *p) -> (x)[: FOO](y)."}) {
    SCOPED_TRACE(source);
    auto program = ParseMetaProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto result = TranslateMetaProgram(*program, catalog);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(
                  "endpoints of a negated edge pattern must be bare "
                  "references"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(MtvTest, InputBindingsFollowExample44) {
  GraphCatalog catalog;
  catalog.AddNodeLabel("SM_Node", {"name"});
  catalog.AddEdgeLabel("SM_CHILD");
  catalog.AddEdgeLabel("SM_PARENT");
  catalog.AddEdgeLabel("DESCFROM");
  auto program = ParseMetaProgram(
      "(x: SM_Node) ([: SM_CHILD]- / [: SM_PARENT])* (y: SM_Node)"
      " -> exists w (x)[w: DESCFROM](y).").value();
  std::string cypher =
      GenerateInputBindings(program, catalog, BindingLanguage::kCypher);
  // One @input per body label, with a Cypher extraction query
  // (Example 4.4's annotations).
  EXPECT_NE(cypher.find("@input(SM_Node, \"MATCH (n:SM_Node) RETURN "
                        "id(n), n.name\")."),
            std::string::npos);
  EXPECT_NE(cypher.find("@input(SM_PARENT, \"MATCH (x)-[e:SM_PARENT]->(y) "
                        "RETURN id(e), id(x), id(y)\")."),
            std::string::npos);
  // No binding for the derived (head-only) DESCFROM label.
  EXPECT_EQ(cypher.find("DESCFROM"), std::string::npos);
  std::string sql =
      GenerateInputBindings(program, catalog, BindingLanguage::kSql);
  EXPECT_NE(sql.find("SELECT oid, name FROM SM_Node"), std::string::npos);
  EXPECT_NE(sql.find("SELECT oid, from_oid, to_oid FROM SM_CHILD"),
            std::string::npos);
}

TEST(MtvTest, Example41TranslatesToWardedProgram) {
  MtvResult r = TranslateOrDie(R"(
    (x: Business) -> exists c (x)[c: CONTROLS](x).
    (x: Business)[: CONTROLS](z: Business)
        [: OWNS; percentage: w](y: Business),
    v = msum(w, <z>), v > 0.5 -> exists c (x)[c: CONTROLS](y).
  )", CompanyCatalog());
  EXPECT_EQ(r.program.rules.size(), 2u);
  auto report = vadalog::CheckWardedness(r.program);
  EXPECT_TRUE(report.warded) << [&] {
    std::string s;
    for (const auto& v : report.violations) s += v + "\n";
    return s;
  }();
}

}  // namespace
}  // namespace kgm::metalog
