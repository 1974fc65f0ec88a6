// Edge cases and failure injection for the Vadalog engine: resource
// budgets, degenerate atoms, constant-only heads, deep recursion, repeated
// runs, and chase-mode corner cases.

#include <gtest/gtest.h>

#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

TEST(EngineEdgeTest, ZeroArityPredicates) {
  FactDb db;
  Status s = RunProgram(R"(
    @fact flag().
    flag() -> derived().
    derived() -> chained().
  )", &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.Get("chained")->size(), 1u);
}

TEST(EngineEdgeTest, ConstantOnlyHead) {
  FactDb db;
  db.Add("trigger", {Value(int64_t{1})});
  Status s = RunProgram(R"(trigger(x) -> answer(42, "yes").)", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(db.Get("answer")->Contains({Value(int64_t{42}),
                                          Value("yes")}));
}

TEST(EngineEdgeTest, SelfJoinOnSamePredicate) {
  FactDb db;
  db.Add("e", {Value(int64_t{1}), Value(int64_t{2})});
  db.Add("e", {Value(int64_t{2}), Value(int64_t{3})});
  db.Add("e", {Value(int64_t{2}), Value(int64_t{4})});
  Status s = RunProgram("e(x, y), e(y, z) -> two_hop(x, z).", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("two_hop")->size(), 2u);
}

TEST(EngineEdgeTest, DeepLinearRecursion) {
  FactDb db;
  const int64_t n = 3000;
  for (int64_t i = 0; i + 1 < n; ++i) {
    db.Add("succ", {Value(i), Value(i + 1)});
  }
  Status s = RunProgram(R"(
    @fact reach(0).
    reach(x), succ(x, y) -> reach(y).
  )", &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.Get("reach")->size(), static_cast<size_t>(n));
}

TEST(EngineEdgeTest, FactBudgetSurfacesResourceExhausted) {
  FactDb db;
  db.Add("n", {Value(int64_t{0})});
  EngineOptions options;
  options.max_facts = 100;
  Status s = RunProgram(R"(
    n(x), y = x + 1 -> n(y).
  )", &db, options);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(EngineEdgeTest, RerunningIsIdempotent) {
  FactDb db;
  db.Add("edge", {Value(int64_t{1}), Value(int64_t{2})});
  db.Add("edge", {Value(int64_t{2}), Value(int64_t{3})});
  const char* program = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )";
  ASSERT_TRUE(RunProgram(program, &db).ok());
  size_t facts = db.TotalFacts();
  ASSERT_TRUE(RunProgram(program, &db).ok());
  EXPECT_EQ(db.TotalFacts(), facts);
}

TEST(EngineEdgeTest, DuplicateBodyLiteralsAreHarmless) {
  FactDb db;
  db.Add("p", {Value(int64_t{1})});
  Status s = RunProgram("p(x), p(x) -> q(x).", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("q")->size(), 1u);
}

TEST(EngineEdgeTest, ConstantsInBodyFilter) {
  FactDb db;
  db.Add("p", {Value("a"), Value(int64_t{1})});
  db.Add("p", {Value("b"), Value(int64_t{2})});
  Status s = RunProgram(R"(p("a", y) -> q(y).)", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("q")->size(), 1u);
  EXPECT_TRUE(db.Get("q")->Contains({Value(int64_t{1})}));
}

TEST(EngineEdgeTest, NegationOverEmptyRelation) {
  FactDb db;
  db.Add("node", {Value(int64_t{1})});
  // `blocked` never gets facts: negation trivially holds.
  Status s = RunProgram(R"(
    node(x), not blocked(x) -> free(x).
  )", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("free")->size(), 1u);
}

TEST(EngineEdgeTest, NegationWithWildcardPositions) {
  FactDb db;
  db.Add("node", {Value(int64_t{1})});
  db.Add("node", {Value(int64_t{2})});
  db.Add("edge", {Value(int64_t{1}), Value(int64_t{9})});
  // Nodes with no outgoing edge at all.
  Status s = RunProgram("node(x), not edge(x, _) -> sink(x).", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("sink")->size(), 1u);
  EXPECT_TRUE(db.Get("sink")->Contains({Value(int64_t{2})}));
}

TEST(EngineEdgeTest, MonotonicMaxEmitsImprovingValues) {
  FactDb db;
  db.Add("score", {Value("a"), Value(int64_t{1})});
  db.Add("score", {Value("a"), Value(int64_t{5})});
  db.Add("score", {Value("a"), Value(int64_t{3})});
  Status s = RunProgram(
      "score(k, v), m = mmax(v, <v>) -> best(k, m).", &db);
  ASSERT_TRUE(s.ok());
  // Improving emissions accumulate; the true max is present.
  EXPECT_TRUE(db.Get("best")->Contains({Value("a"), Value(int64_t{5})}));
}

TEST(EngineEdgeTest, MixedAggregateModesRejected) {
  Program program = ParseProgram(R"(
    p(x, w), a = msum(w, <x>), b = sum(w, <x>) -> q(a, b).
  )").value();
  Engine engine(std::move(program));
  EXPECT_FALSE(engine.status().ok());
}

TEST(EngineEdgeTest, MultipleStratifiedAggregatesInOneRule) {
  FactDb db;
  db.Add("m", {Value("g"), Value(int64_t{2})});
  db.Add("m", {Value("g"), Value(int64_t{5})});
  Status s = RunProgram(
      "m(g, v), lo = min(v, <v>), hi = max(v, <v>), total = sum(v, <v>) "
      "-> stats(g, lo, hi, total).", &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(db.Get("stats")->Contains(
      {Value("g"), Value(int64_t{2}), Value(int64_t{5}),
       Value(int64_t{7})}));
}

TEST(EngineEdgeTest, RestrictedChaseReusesExistingWitnessAcrossRules) {
  FactDb db;
  db.Add("person", {Value("bob")});
  db.Add("dept_of", {Value("bob"), Value("accounting")});
  EngineOptions options;
  options.chase_mode = ChaseMode::kRestricted;
  // The multi-atom head is already satisfiable with d = "accounting".
  // (The restricted chase is order-dependent: known_dept must be derived
  // before the existential rule checks satisfaction, so its rule comes
  // first in the program text.)
  Status s = RunProgram(R"(
    dept_of(x, d) -> known_dept(d).
    person(x) -> exists d dept_of(x, d), known_dept(d).
  )", &db, options);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.Get("dept_of")->size(), 1u);  // no fresh null needed
}

TEST(EngineEdgeTest, EmptyDatabaseNoRuleFires) {
  FactDb db;
  Status s = RunProgram("p(x) -> q(x).", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.Get("q")->size(), 0u);
}

TEST(EngineEdgeTest, FactArityConflictWithDatabaseIsAnError) {
  // A program fact whose arity conflicts with a database relation is
  // rejected before anything is inserted.
  FactDb db;
  db.Add("p", {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  Status s = RunProgram("@fact p(1, 2).\n p(x, y) -> q(x).", &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(db.Get("p")->size(), 1u);
  EXPECT_EQ(db.Get("q"), nullptr);
}

TEST(EngineEdgeTest, LargeStrataCount) {
  // A 50-level pipeline exercises the stratum scheduler.
  std::string program;
  FactDb db;
  db.Add("p0", {Value(int64_t{7})});
  for (int i = 0; i < 50; ++i) {
    program += "p" + std::to_string(i) + "(x) -> p" +
               std::to_string(i + 1) + "(x).\n";
  }
  Status s = RunProgram(program, &db);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(db.Get("p50")->Contains({Value(int64_t{7})}));
}

}  // namespace
}  // namespace kgm::vadalog
