#include "vadalog/engine.h"

#include <gtest/gtest.h>

#include <numeric>

#include "vadalog/incremental.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

FactDb RunOrDie(const std::string& src, FactDb db = FactDb(),
                EngineOptions options = {}) {
  Status s = RunProgram(src, &db, options);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

size_t Count(const FactDb& db, const std::string& pred) {
  const Relation* rel = db.Get(pred);
  return rel == nullptr ? 0 : rel->size();
}

bool Has(const FactDb& db, const std::string& pred, Tuple t) {
  const Relation* rel = db.Get(pred);
  return rel != nullptr && rel->Contains(t);
}

TEST(EngineTest, SimpleProjection) {
  FactDb db = RunOrDie(R"(
    @fact parent("ann", "bob").
    @fact parent("bob", "cal").
    parent(x, y) -> child(y, x).
  )");
  EXPECT_EQ(Count(db, "child"), 2u);
  EXPECT_TRUE(Has(db, "child", {Value("bob"), Value("ann")}));
}

TEST(EngineTest, TransitiveClosure) {
  FactDb db = RunOrDie(R"(
    @fact edge(1, 2).
    @fact edge(2, 3).
    @fact edge(3, 4).
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )");
  EXPECT_EQ(Count(db, "path"), 6u);
  EXPECT_TRUE(Has(db, "path", {Value(int64_t{1}), Value(int64_t{4})}));
}

TEST(EngineTest, TransitiveClosureWithCycle) {
  FactDb db = RunOrDie(R"(
    @fact edge(1, 2).
    @fact edge(2, 3).
    @fact edge(3, 1).
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )");
  // Full closure of a 3-cycle: 9 pairs.
  EXPECT_EQ(Count(db, "path"), 9u);
}

TEST(EngineTest, NonLinearTransitiveClosure) {
  FactDb db = RunOrDie(R"(
    @fact edge(1, 2).
    @fact edge(2, 3).
    @fact edge(3, 4).
    @fact edge(4, 5).
    edge(x, y) -> path(x, y).
    path(x, y), path(y, z) -> path(x, z).
  )");
  EXPECT_EQ(Count(db, "path"), 10u);
}

TEST(EngineTest, JoinWithConstantsAndRepeatedVars) {
  FactDb db = RunOrDie(R"(
    @fact t(1, 1, "a").
    @fact t(1, 2, "b").
    @fact t(2, 2, "a").
    t(x, x, "a") -> diag(x).
  )");
  EXPECT_EQ(Count(db, "diag"), 2u);
  EXPECT_TRUE(Has(db, "diag", {Value(int64_t{1})}));
  EXPECT_TRUE(Has(db, "diag", {Value(int64_t{2})}));
}

TEST(EngineTest, StratifiedNegation) {
  FactDb db = RunOrDie(R"(
    @fact node(1).
    @fact node(2).
    @fact node(3).
    @fact marked(2).
    node(x), not marked(x) -> unmarked(x).
  )");
  EXPECT_EQ(Count(db, "unmarked"), 2u);
  EXPECT_FALSE(Has(db, "unmarked", {Value(int64_t{2})}));
}

TEST(EngineTest, NegationSeesFullLowerStratum) {
  // visited is derived; unvisited must see the *complete* visited relation.
  FactDb db = RunOrDie(R"(
    @fact edge(1, 2).
    @fact edge(2, 3).
    @fact node(1).
    @fact node(2).
    @fact node(3).
    @fact node(4).
    @fact start(1).
    start(x) -> reach(x).
    reach(x), edge(x, y) -> reach(y).
    node(x), not reach(x) -> unreached(x).
  )");
  EXPECT_EQ(Count(db, "unreached"), 1u);
  EXPECT_TRUE(Has(db, "unreached", {Value(int64_t{4})}));
}

TEST(EngineTest, AssignmentsAndConditions) {
  FactDb db = RunOrDie(R"(
    @fact m(2, 3).
    @fact m(5, 5).
    m(x, y), s = x * y, s > 10 -> big(x, y, s).
  )");
  EXPECT_EQ(Count(db, "big"), 1u);
  EXPECT_TRUE(Has(db, "big", {Value(int64_t{5}), Value(int64_t{5}),
                              Value(int64_t{25})}));
}

TEST(EngineTest, StratifiedSumAggregate) {
  FactDb db = RunOrDie(R"(
    @fact holds("ann", "acme", 0.4).
    @fact holds("bob", "acme", 0.3).
    @fact holds("ann", "emca", 0.9).
    holds(p, c, w), v = sum(w, <p>) -> total(c, v).
  )");
  EXPECT_EQ(Count(db, "total"), 2u);
  EXPECT_TRUE(Has(db, "total", {Value("acme"), Value(0.7)}));
  EXPECT_TRUE(Has(db, "total", {Value("emca"), Value(0.9)}));
}

TEST(EngineTest, StratifiedCountAndMinMax) {
  FactDb db = RunOrDie(R"(
    @fact holds("ann", "acme", 0.4).
    @fact holds("bob", "acme", 0.3).
    @fact holds("cyd", "acme", 0.2).
    holds(p, c, w), n = count(<p>) -> stakeholders(c, n).
    holds(p, c, w), lo = min(w, <p>), hi = max(w, <p>) -> range(c, lo, hi).
  )");
  EXPECT_TRUE(Has(db, "stakeholders", {Value("acme"), Value(int64_t{3})}));
  EXPECT_TRUE(
      Has(db, "range", {Value("acme"), Value(0.2), Value(0.4)}));
}

TEST(EngineTest, PackAggregateBuildsRecord) {
  FactDb db = RunOrDie(R"(
    @fact attr("n1", "name", "acme").
    @fact attr("n1", "year", "1999").
    attr(o, k, v), r = pack(k, v) -> packed(o, r).
  )");
  ASSERT_EQ(Count(db, "packed"), 1u);
  Value rec = MakeRecord({{"name", Value("acme")}, {"year", Value("1999")}});
  EXPECT_TRUE(Has(db, "packed", {Value("n1"), rec}));
}

// The paper's Example 4.2: company control.
//   (1) Company(x) -> CONTROLS(x, x).
//   (2) CONTROLS(x, z), Own(z, y, w), v = sum(w, <z>), v > 0.5
//         -> CONTROLS(x, y).
const char kControlProgram[] = R"(
  company(x) -> controls(x, x).
  controls(x, z), own(z, y, w), v = msum(w, <z>), v > 0.5
    -> controls(x, y).
)";

TEST(EngineTest, CompanyControlDirectMajority) {
  FactDb db;
  db.Add("company", {Value("a")});
  db.Add("company", {Value("b")});
  db.Add("own", {Value("a"), Value("b"), Value(0.6)});
  Status s = RunProgram(kControlProgram, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Has(db, "controls", {Value("a"), Value("b")}));
}

TEST(EngineTest, CompanyControlNoMajority) {
  FactDb db;
  db.Add("company", {Value("a")});
  db.Add("company", {Value("b")});
  db.Add("own", {Value("a"), Value("b"), Value(0.5)});  // exactly 50%: no
  Status s = RunProgram(kControlProgram, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(Has(db, "controls", {Value("a"), Value("b")}));
}

TEST(EngineTest, CompanyControlJointControl) {
  // a owns 60% of b and 60% of c; b and c each own 30% of d.
  // a controls b and c, and jointly (30+30=60%) controls d, even though no
  // single company owns a majority of d.
  FactDb db;
  for (const char* c : {"a", "b", "c", "d"}) db.Add("company", {Value(c)});
  db.Add("own", {Value("a"), Value("b"), Value(0.6)});
  db.Add("own", {Value("a"), Value("c"), Value(0.6)});
  db.Add("own", {Value("b"), Value("d"), Value(0.3)});
  db.Add("own", {Value("c"), Value("d"), Value(0.3)});
  Status s = RunProgram(kControlProgram, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Has(db, "controls", {Value("a"), Value("d")}));
  EXPECT_FALSE(Has(db, "controls", {Value("b"), Value("d")}));
  EXPECT_FALSE(Has(db, "controls", {Value("c"), Value("d")}));
}

TEST(EngineTest, CompanyControlTogetherWithSelf) {
  // a owns 30% of b directly and controls c which owns 25% of b:
  // jointly 55% -> a controls b ("possibly together with x itself").
  FactDb db;
  for (const char* c : {"a", "b", "c"}) db.Add("company", {Value(c)});
  db.Add("own", {Value("a"), Value("c"), Value(0.9)});
  db.Add("own", {Value("a"), Value("b"), Value(0.3)});
  db.Add("own", {Value("c"), Value("b"), Value(0.25)});
  Status s = RunProgram(kControlProgram, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Has(db, "controls", {Value("a"), Value("b")}));
}

TEST(EngineTest, CompanyControlDeepChain) {
  // Chain of majority ownership: control propagates to the end.
  FactDb db;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    db.Add("company", {Value(int64_t{i})});
    if (i > 0) {
      db.Add("own",
             {Value(int64_t{i - 1}), Value(int64_t{i}), Value(0.51)});
    }
  }
  Status s = RunProgram(kControlProgram, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(Has(db, "controls", {Value(int64_t{0}), Value(int64_t{n - 1})}));
  // 0 controls everything: n facts (incl. itself); total = sum_{i} (n - i).
  EXPECT_EQ(Count(db, "controls"), static_cast<size_t>(n * (n + 1) / 2));
}

TEST(EngineTest, ExistentialSkolemMode) {
  FactDb db = RunOrDie(R"(
    @fact business("b1").
    @fact business("b2").
    business(x) -> exists c ctrl_edge(c, x, x).
  )");
  ASSERT_EQ(Count(db, "ctrl_edge"), 2u);
  // Skolem terms are deterministic: running twice adds nothing.
  FactDb db2 = std::move(db);
  Status s = RunProgram(R"(
    @fact business("b1").
    @fact business("b2").
    business(x) -> exists c ctrl_edge(c, x, x).
  )", &db2);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(Count(db2, "ctrl_edge"), 2u);
}

TEST(EngineTest, ExplicitLinkerSkolemFunctor) {
  FactDb db = RunOrDie(R"(
    @fact node("n1", 123).
    node(n, s) -> exists x = skNN(n) copied(x, n).
  )");
  ASSERT_EQ(Count(db, "copied"), 1u);
  const Tuple& t = db.Get("copied")->tuple(0);
  ASSERT_TRUE(t[0].is_skolem());
  EXPECT_EQ(SkolemTable::Global().FunctorOf(t[0].AsSkolem()), "skNN");
}

TEST(EngineTest, SkolemSharedAcrossRules) {
  // Two rules using the same functor and argument produce the same OID, so
  // the pieces they emit join up (the "linker" behaviour of Section 4).
  FactDb db = RunOrDie(R"(
    @fact n("a").
    n(x) -> exists p = skP(x) left(p, x).
    n(x) -> exists p = skP(x) right(p, x).
    left(p, x), right(p, y) -> joined(x, y).
  )");
  EXPECT_TRUE(Has(db, "joined", {Value("a"), Value("a")}));
}

TEST(EngineTest, MultiAtomHeadSharesExistential) {
  FactDb db = RunOrDie(R"(
    @fact emp("ann").
    emp(x) -> exists d works_in(x, d), dept(d).
  )");
  ASSERT_EQ(Count(db, "works_in"), 1u);
  ASSERT_EQ(Count(db, "dept"), 1u);
  EXPECT_EQ(db.Get("works_in")->tuple(0)[1], db.Get("dept")->tuple(0)[0]);
}

TEST(EngineTest, FactBudgetStopsRunawayChase) {
  // Unbounded chase: y = sk(x), so person(sk(x)) fires the first rule
  // again with a new frontier and mints sk(sk(x)), and so on.  The engine
  // must stop with ResourceExhausted rather than looping forever.
  for (size_t threads : {1u, 4u}) {
    FactDb db;
    db.Add("person", {Value("adam")});
    EngineOptions options;
    options.max_facts = 1000;
    options.num_threads = threads;
    Status s = RunProgram(R"(
      person(x) -> exists y father(x, y).
      father(x, y) -> person(y).
    )", &db, options);
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted)
        << "threads " << threads << ": " << s.ToString();
  }
}

TEST(EngineTest, SkolemChaseTerminatesOnFrontierRepetition) {
  // The head's frontier is empty, so y is one constant term sk(): p(sk())
  // fires the rule again but yields the same term, and the chase stops.
  // The oblivious chase, which mints a fresh null per firing, never does.
  FactDb db;
  db.Add("p", {Value("a")});
  Status s = RunProgram("p(x) -> exists y p(y).", &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Count(db, "p"), 2u);
}

TEST(EngineTest, UnstratifiedProgramRejected) {
  FactDb db;
  Status s = RunProgram(R"(
    p(x), not q(x) -> q(x).
  )", &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, UnsafeProgramRejected) {
  FactDb db;
  Status s = RunProgram("p(x) -> q(x, y).", &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ArityConflictRejected) {
  FactDb db;
  Status s = RunProgram("p(x) -> q(x). p(x, y) -> r(x).", &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // The engine compiles at construction, so status() already says so.
  Engine engine(ParseProgram("a(x) -> b(x). a(x, y) -> c(x).").value());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(engine.status().message().find(
                "predicate a used with arity 2 but previously with arity 1"),
            std::string::npos)
      << engine.status().ToString();
}

TEST(EngineTest, MixedAggregateModesRejected) {
  FactDb db;
  Status s = RunProgram(
      "holds(p, c, w), n = count(<p>), s = msum(w, <p>) -> st(c, n, s).",
      &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("mixes monotonic and stratified aggregates"),
            std::string::npos)
      << s.ToString();
}

TEST(EngineTest, AggregateArgumentCountRejected) {
  FactDb db;
  Status s =
      RunProgram("holds(p, c, w), n = sum(w, w, <p>) -> st(c, n).", &db);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("aggregate sum takes 1 argument(s)"),
            std::string::npos)
      << s.ToString();
}

TEST(EngineTest, InputFactsFromDbAndProgramCombine) {
  FactDb db;
  db.Add("edge", {Value(int64_t{1}), Value(int64_t{2})});
  Status s = RunProgram(R"(
    @fact edge(2, 3).
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )", &db);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(Count(db, "path"), 3u);
}

TEST(EngineTest, BodylessFactRule) {
  FactDb db = RunOrDie(R"(
    p("a", 1).
    p(x, n) -> q(x).
  )");
  EXPECT_TRUE(Has(db, "q", {Value("a")}));
}

TEST(EngineTest, MonotonicCountInRecursion) {
  // Count distinct supporters accumulating through recursion: x is "popular"
  // once 2 distinct nodes point at it, and popularity spreads one step.
  FactDb db = RunOrDie(R"(
    @fact likes(1, 10).
    @fact likes(2, 10).
    @fact likes(10, 20).
    @fact likes(11, 20).
    likes(x, y), n = mcount(<x>), n >= 2 -> popular(y).
  )");
  EXPECT_TRUE(Has(db, "popular", {Value(int64_t{10})}));
  EXPECT_TRUE(Has(db, "popular", {Value(int64_t{20})}));
  EXPECT_FALSE(Has(db, "popular", {Value(int64_t{1})}));
}

TEST(EngineTest, EngineStatsPopulated) {
  Program program = ParseProgram(R"(
    @fact edge(1, 2).
    @fact edge(2, 3).
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )").value();
  Engine engine(std::move(program));
  ASSERT_TRUE(engine.status().ok());
  FactDb db;
  ASSERT_TRUE(engine.Run(&db).ok());
  EXPECT_GT(engine.stats().facts_derived, 0u);
  EXPECT_GT(engine.stats().rule_firings, 0u);
  EXPECT_GE(engine.stats().strata, 1);
}

// A firing is a binding under which the whole body holds: positive
// matches that a negated literal or a condition blocks do not count.
TEST(EngineTest, FiringsCountOnlyBindingsWhoseWholeBodyHolds) {
  Engine engine(ParseProgram(R"(
    @fact a(1).
    @fact a(2).
    @fact b(1).
    @fact b(2).
    a(x), not b(x) -> c(x).
    a(x), x > 5 -> d(x).
    a(x), x < 2 -> e(x).
  )").value());
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  FactDb db;
  ASSERT_TRUE(engine.Run(&db).ok());
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.rule_firings_by_rule, (std::vector<size_t>{0, 0, 1}));
  EXPECT_EQ(stats.rule_firings, 1u);
  EXPECT_EQ(stats.facts_derived, 1u);
  EXPECT_EQ(stats.rule_probes_by_rule, (std::vector<size_t>{2, 2, 2}));
}

// One engine runs twice, on two fresh databases.  Each run keeps its
// aggregate groups on its own stack (the compiled rules outlive a run), so
// both runs derive the same rows in the same order and report the same
// counters.
TEST(EngineTest, SecondRunReportsItsOwnStats) {
  Engine engine(ParseProgram(std::string(kControlProgram) + R"(
    own(z, y, w), n = count(<z>) -> owners(y, n).
  )").value());
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  auto input = [] {
    FactDb db;
    for (const char* c : {"a", "b", "c", "d"}) db.Add("company", {Value(c)});
    db.Add("own", {Value("a"), Value("b"), Value(0.6)});
    db.Add("own", {Value("a"), Value("c"), Value(0.6)});
    db.Add("own", {Value("b"), Value("d"), Value(0.3)});
    db.Add("own", {Value("c"), Value("d"), Value(0.3)});
    return db;
  };
  FactDb first = input();
  ASSERT_TRUE(engine.Run(&first).ok());
  const EngineStats one = engine.stats();
  FactDb second = input();
  ASSERT_TRUE(engine.Run(&second).ok());
  const EngineStats& two = engine.stats();

  std::string diff;
  EXPECT_FALSE(DescribeFirstDifference(first, second, /*ordered=*/true, &diff))
      << diff;
  EXPECT_TRUE(Has(second, "controls", {Value("a"), Value("d")}));
  EXPECT_TRUE(Has(second, "owners", {Value("d"), Value(int64_t{2})}));
  EXPECT_EQ(two.facts_derived, one.facts_derived);
  EXPECT_EQ(two.rule_firings, one.rule_firings);
  EXPECT_EQ(two.join_probes, one.join_probes);
  EXPECT_EQ(two.iterations, one.iterations);
  EXPECT_EQ(two.strata, one.strata);
  EXPECT_EQ(two.staged_inserts, one.staged_inserts);
  EXPECT_EQ(two.staged_duplicates, one.staged_duplicates);
  EXPECT_EQ(two.rule_firings_by_rule, one.rule_firings_by_rule);
  EXPECT_EQ(two.rule_probes_by_rule, one.rule_probes_by_rule);
  EXPECT_EQ(two.stratum_seconds.size(), one.stratum_seconds.size());
  EXPECT_EQ(std::accumulate(two.rule_firings_by_rule.begin(),
                            two.rule_firings_by_rule.end(), size_t{0}),
            two.rule_firings);
  EXPECT_EQ(std::accumulate(two.rule_probes_by_rule.begin(),
                            two.rule_probes_by_rule.end(), size_t{0}),
            two.join_probes);
}

// The barrier driver joins bound-first: after a(x) the plan takes the
// partly bound c(x, y) and then checks b(y) by containment, so the join
// never scans b.  Written order would scan b once per a row.
TEST(EngineTest, BarrierJoinProbesDoNotGrowWithUnboundRelation) {
  constexpr int64_t kRows = 10;
  auto probes = [](int64_t b_rows) {
    FactDb db;
    for (int64_t i = 0; i < kRows; ++i) {
      db.Add("a", {Value(i)});
      db.Add("c", {Value(i), Value(i + 1)});
    }
    for (int64_t i = 0; i < b_rows; ++i) db.Add("b", {Value(i)});
    Engine engine(ParseProgram("a(x), b(y), c(x, y) -> d(x, y).").value());
    EXPECT_TRUE(engine.status().ok()) << engine.status().ToString();
    EXPECT_TRUE(engine.Run(&db).ok());
    EXPECT_EQ(Count(db, "d"), static_cast<size_t>(kRows));
    return engine.stats().join_probes;
  };
  const size_t small = probes(1'000);
  EXPECT_EQ(probes(10'000), small);
  // One probe per literal for every a row.
  EXPECT_LE(small, static_cast<size_t>(3 * kRows));
}

}  // namespace
}  // namespace kgm::vadalog
