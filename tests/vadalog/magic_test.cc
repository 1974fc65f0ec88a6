// Magic-sets rewrite and the point-query dispatcher: every point-query
// mode must produce answer sets identical to filtering the full
// materialization by the binding — including Skolem terms, which the
// rewrite pins to the original program's auto functors.

#include "vadalog/magic/magic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "base/rng.h"
#include "vadalog/engine.h"
#include "vadalog/magic/point_query.h"
#include "vadalog/parser.h"

namespace kgm::vadalog::magic {
namespace {

Program Parse(const std::string& src) {
  Result<Program> p = ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().message();
  return *p;
}

std::vector<Tuple> Sorted(std::vector<Tuple> ts) {
  std::sort(ts.begin(), ts.end(),
            [](const Tuple& a, const Tuple& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  return ts;
}

FactDb ChainDb(int64_t n) {
  FactDb db;
  for (int64_t i = 0; i + 1 < n; ++i) {
    db.Add("edge", {Value(i), Value(i + 1)});
  }
  return db;
}

// Random DAG-ish graph over int nodes.
FactDb RandomGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  FactDb db;
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    db.Add("edge", {Value(static_cast<int64_t>(rng.NextBelow(nodes))),
                    Value(static_cast<int64_t>(rng.NextBelow(nodes)))});
  }
  return db;
}

constexpr const char* kTc = R"(
  edge(x, y) -> path(x, y).
  path(x, y), edge(y, z) -> path(x, z).
)";

// Runs EvalPointQuery in the given mode configuration and as the
// materialize baseline on fresh clones, asserting set-identical answers.
std::vector<Tuple> ExpectMatchesBaseline(const std::string& src,
                                         const QueryBinding& query,
                                         const FactDb& db,
                                         PointQueryOptions options,
                                         PointQueryMode expect_mode,
                                         PointQueryStats* stats_out = nullptr) {
  Program program = Parse(src);
  FactDb magic_db = db.Clone();
  PointQueryStats stats;
  Result<std::vector<Tuple>> got =
      EvalPointQuery(program, query, &magic_db, options, &stats);
  EXPECT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(stats.mode, expect_mode)
      << "mode=" << PointQueryModeName(stats.mode)
      << " fallback=" << FallbackReasonName(stats.fallback) << " "
      << stats.fallback_detail;

  PointQueryOptions base_options = options;
  base_options.force_materialize = true;
  FactDb base_db = db.Clone();
  PointQueryStats base_stats;
  Result<std::vector<Tuple>> want =
      EvalPointQuery(program, query, &base_db, base_options, &base_stats);
  EXPECT_TRUE(want.ok()) << want.status().message();
  EXPECT_EQ(base_stats.mode, PointQueryMode::kMaterialize);

  EXPECT_EQ(Sorted(*got), Sorted(*want));
  if (stats_out != nullptr) *stats_out = stats;
  return *got;
}

TEST(ParseBoundArgsTest, ParsesKindsAndFreeMarkers) {
  auto r = ParseBoundArgs(R"(c12,_, 42,"a, \"b\"",true,3.5,x y)");
  ASSERT_TRUE(r.ok()) << r.status().message();
  ASSERT_EQ(r->size(), 7u);
  EXPECT_EQ((*r)[0], Value("c12"));
  EXPECT_FALSE((*r)[1].has_value());
  EXPECT_EQ((*r)[2], Value(int64_t{42}));
  EXPECT_EQ((*r)[3], Value("a, \"b\""));
  EXPECT_EQ((*r)[4], Value(true));
  EXPECT_EQ((*r)[5], Value(3.5));
  EXPECT_EQ((*r)[6], Value("x y"));
}

TEST(ParseBoundArgsTest, Errors) {
  EXPECT_FALSE(ParseBoundArgs("\"unterminated").ok());
  EXPECT_FALSE(ParseBoundArgs("a,,b").ok());
  EXPECT_TRUE(ParseBoundArgs("").ok());
  EXPECT_EQ(ParseBoundArgs("")->size(), 0u);
}

TEST(QueryBindingTest, CacheKeyIsCollisionFree) {
  auto key = [](std::optional<Value> v) {
    return QueryBinding{"p", {std::move(v)}}.CacheKey();
  };
  // Value equality is type-strict: 1, 1.0 and "1" have different answer
  // sets, so they must key differently even though ToString renders the
  // int and the double identically.
  EXPECT_EQ(Value(int64_t{1}).ToString(), Value(1.0).ToString());
  EXPECT_NE(key(Value(int64_t{1})), key(Value(1.0)));
  EXPECT_NE(key(Value(int64_t{1})), key(Value("1")));
  EXPECT_NE(key(Value(1.0)), key(Value("1")));
  EXPECT_NE(key(Value(true)), key(Value(int64_t{1})));
  // Distinct doubles that merge at default ostream precision (6
  // significant digits) stay distinct round-trip.
  EXPECT_EQ(Value(1234567.0).ToString(), Value(1234568.0).ToString());
  EXPECT_NE(key(Value(1234567.0)), key(Value(1234568.0)));
  EXPECT_EQ(key(Value(1234567.0)), key(Value(1234567.0)));
  // A free position is not the string "_", and a string imitating the
  // encoded structure is still just a string (length-prefixed).
  EXPECT_NE(key(std::nullopt), key(Value("_")));
  EXPECT_NE((QueryBinding{"p", {Value("a"), Value("b")}}.CacheKey()),
            (QueryBinding{"p", {Value("a,s1:b")}}.CacheKey()));
}

TEST(MagicRewriteTest, TransitiveClosureBoundSource) {
  Program program = Parse(kTc);
  QueryBinding q{"path", {Value(int64_t{0}), std::nullopt}};
  MagicRewrite rw = RewriteForQuery(program, q, {"edge"});
  ASSERT_TRUE(rw.ok()) << rw.detail;
  EXPECT_EQ(rw.query_pred, "path@bf");
  ASSERT_FALSE(rw.adorned.empty());
  EXPECT_EQ(rw.adorned[0].pred, "path");
  EXPECT_EQ(rw.adorned[0].adornment, "bf");
  EXPECT_EQ(rw.adorned[0].magic_pred, "m@path@bf");
  // Seed fact for the query constant.
  bool seeded = false;
  for (const FactDecl& f : rw.program.facts) {
    if (f.predicate == "m@path@bf") {
      seeded = true;
      ASSERT_EQ(f.values.size(), 1u);
      EXPECT_EQ(f.values[0], Value(int64_t{0}));
    }
  }
  EXPECT_TRUE(seeded);
  // The rewritten program passes full engine validation.
  Engine engine(rw.program);
  EXPECT_TRUE(engine.status().ok()) << engine.status().message();
}

TEST(PointQueryTest, MagicMatchesMaterializeOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    FactDb db = RandomGraph(40, 120, seed);
    PointQueryStats stats;
    QueryBinding q{"path", {Value(int64_t{7}), std::nullopt}};
    ExpectMatchesBaseline(kTc, q, db, {}, PointQueryMode::kMagic, &stats);
    EXPECT_EQ(stats.engine.magic_rewrites, 1u);
    EXPECT_GT(stats.engine.magic_rules, 0u);
  }
}

TEST(PointQueryTest, MagicUsesFewerProbesThanMaterialize) {
  FactDb db = RandomGraph(120, 260, 42);
  Program program = Parse(kTc);
  QueryBinding q{"path", {Value(int64_t{3}), std::nullopt}};

  FactDb magic_db = db.Clone();
  PointQueryStats magic_stats;
  ASSERT_TRUE(
      EvalPointQuery(program, q, &magic_db, {}, &magic_stats).ok());
  ASSERT_EQ(magic_stats.mode, PointQueryMode::kMagic);

  PointQueryOptions base;
  base.force_materialize = true;
  FactDb base_db = db.Clone();
  PointQueryStats base_stats;
  ASSERT_TRUE(
      EvalPointQuery(program, q, &base_db, base, &base_stats).ok());
  EXPECT_LT(magic_stats.engine.join_probes, base_stats.engine.join_probes);
}

TEST(PointQueryTest, BoundSecondArgumentAndAllBoundBoolean) {
  FactDb db = ChainDb(30);
  // fb: which sources reach node 20?
  ExpectMatchesBaseline(
      kTc, QueryBinding{"path", {std::nullopt, Value(int64_t{20})}}, db, {},
      PointQueryMode::kMagic);
  // bb: boolean membership, both present and absent.
  auto yes = ExpectMatchesBaseline(
      kTc, QueryBinding{"path", {Value(int64_t{2}), Value(int64_t{20})}}, db,
      {}, PointQueryMode::kMagic);
  EXPECT_EQ(yes.size(), 1u);
  auto no = ExpectMatchesBaseline(
      kTc, QueryBinding{"path", {Value(int64_t{20}), Value(int64_t{2})}}, db,
      {}, PointQueryMode::kMagic);
  EXPECT_TRUE(no.empty());
}

TEST(PointQueryTest, EmptyAnswerForUnknownConstant) {
  FactDb db = ChainDb(10);
  auto rows = ExpectMatchesBaseline(
      kTc, QueryBinding{"path", {Value(int64_t{999}), std::nullopt}}, db, {},
      PointQueryMode::kMagic);
  EXPECT_TRUE(rows.empty());
}

TEST(PointQueryTest, BindingArityMismatchRejectedOnEveryRoute) {
  Program program = Parse(kTc);
  FactDb db = ChainDb(6);
  // path/2 bound with one argument: the magic route must report the
  // client error exactly like materialize instead of masking it as an
  // empty answer set (every mismatched rule would be skipped and the
  // adorned output relation would simply never exist).
  QueryBinding bad{"path", {Value(int64_t{0})}};
  for (bool force_materialize : {false, true}) {
    PointQueryOptions options;
    options.force_materialize = force_materialize;
    FactDb clone = db.Clone();
    PointQueryStats stats;
    Result<std::vector<Tuple>> r =
        EvalPointQuery(program, bad, &clone, options, &stats);
    ASSERT_FALSE(r.ok()) << "force_materialize=" << force_materialize;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // The extensional route agrees.
  QueryBinding bad_edb{"edge",
                       {Value(int64_t{0}), std::nullopt, std::nullopt}};
  FactDb clone = db.Clone();
  Result<std::vector<Tuple>> r =
      EvalPointQuery(program, bad_edb, &clone, {}, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PointQueryTest, AssignmentsAndConditionsPropagateBindings) {
  const char* src = R"(
    edge(x, y), w = x + y, w > 2 -> weighted(x, y, w).
    weighted(x, y, w) -> reach(x, y).
    reach(x, y), weighted(y, z, w) -> reach(x, z).
  )";
  FactDb db = RandomGraph(30, 80, 9);
  ExpectMatchesBaseline(src,
                        QueryBinding{"reach", {Value(int64_t{5}), std::nullopt}},
                        db, {}, PointQueryMode::kMagic);
}

TEST(PointQueryTest, NegatedSubgoalsEvaluateFullRequired) {
  const char* src = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
    edge(x, y) -> linked(x, y).
    path(x, y), not linked(y, x) -> oneway(x, y).
  )";
  FactDb db = RandomGraph(25, 60, 4);
  PointQueryStats stats;
  ExpectMatchesBaseline(
      src, QueryBinding{"oneway", {Value(int64_t{3}), std::nullopt}}, db, {},
      PointQueryMode::kMagic, &stats);
  // `linked` sits under negation: its cone runs unguarded.
  Program program = Parse(src);
  MagicRewrite rw = RewriteForQuery(
      program, QueryBinding{"oneway", {Value(int64_t{3}), std::nullopt}},
      {"edge"});
  ASSERT_TRUE(rw.ok());
  EXPECT_NE(std::find(rw.full_required.begin(), rw.full_required.end(),
                      "linked"),
            rw.full_required.end());
}

TEST(PointQueryTest, SkolemExistentialsMatchFullRunValues) {
  // Auto and explicit Skolems: rewritten rule indices differ from the
  // original, so identical answers prove PinSkolemSpecs replicated the
  // original functors and frontier order.
  const char* src = R"(
    edge(x, y) -> exists o link(o, x, y).
    link(o, x, y), edge(y, z) -> exists p = skc(x, z) link(p, x, z).
  )";
  FactDb db = ChainDb(12);
  auto rows = ExpectMatchesBaseline(
      src, QueryBinding{"link", {std::nullopt, Value(int64_t{0}), std::nullopt}},
      db, {}, PointQueryMode::kMagic);
  ASSERT_FALSE(rows.empty());
  for (const Tuple& t : rows) {
    EXPECT_TRUE(t[0].is_skolem());
  }
}

TEST(PointQueryTest, MultiHeadRulesSplitSoundly) {
  const char* src = R"(
    edge(x, y) -> fwd(x, y), bwd(y, x).
    fwd(x, y), fwd(y, z) -> fwd(x, z).
  )";
  FactDb db = RandomGraph(20, 50, 11);
  ExpectMatchesBaseline(src,
                        QueryBinding{"fwd", {Value(int64_t{2}), std::nullopt}},
                        db, {}, PointQueryMode::kMagic);
  ExpectMatchesBaseline(src,
                        QueryBinding{"bwd", {Value(int64_t{2}), std::nullopt}},
                        db, {}, PointQueryMode::kMagic);
}

TEST(PointQueryTest, EdbPredicateAnswersByIndexLookup) {
  FactDb db = ChainDb(50);
  PointQueryStats stats;
  auto rows = ExpectMatchesBaseline(
      kTc, QueryBinding{"edge", {Value(int64_t{7}), std::nullopt}}, db, {},
      PointQueryMode::kEdbLookup, &stats);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value(int64_t{8}));
  EXPECT_LT(stats.engine.join_probes, 5u);
}

TEST(PointQueryTest, NoBoundArgumentFallsBackToMaterialize) {
  FactDb db = ChainDb(10);
  PointQueryStats stats;
  ExpectMatchesBaseline(kTc,
                        QueryBinding{"path", {std::nullopt, std::nullopt}}, db,
                        {}, PointQueryMode::kMaterialize, &stats);
  EXPECT_EQ(stats.fallback, FallbackReason::kNoBoundArgument);
  EXPECT_EQ(stats.engine.magic_fallbacks, 1u);
}

TEST(PointQueryTest, AggregatesFallBackWithReason) {
  const char* src = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
    path(x, y), n = mcount(<x>) -> fanout(x, n).
  )";
  FactDb db = ChainDb(8);
  PointQueryStats stats;
  ExpectMatchesBaseline(
      src, QueryBinding{"fanout", {Value(int64_t{0}), std::nullopt}}, db, {},
      PointQueryMode::kMaterialize, &stats);
  EXPECT_EQ(stats.fallback, FallbackReason::kAggregates);
  // But a query on the aggregate-free part of the program still magics.
  ExpectMatchesBaseline(src,
                        QueryBinding{"path", {Value(int64_t{0}), std::nullopt}},
                        db, {}, PointQueryMode::kMagic);
}

TEST(PointQueryTest, AdornmentExplosionFallsBackToMaterialize) {
  // Querying `rpath` adorns both rpath@bf and path@fb; capping the
  // adorned set at one predicate forces the explosion fallback.
  const char* src = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
    path(y, x) -> rpath(x, y).
  )";
  PointQueryOptions options;
  options.rewrite.max_adorned_predicates = 1;  // force the explosion
  FactDb db = RandomGraph(25, 60, 8);
  PointQueryStats stats;
  std::vector<Tuple> got = ExpectMatchesBaseline(
      src, QueryBinding{"rpath", {Value(int64_t{1}), std::nullopt}}, db,
      options, PointQueryMode::kMaterialize, &stats);
  EXPECT_EQ(stats.fallback, FallbackReason::kAdornmentExplosion);
  EXPECT_EQ(stats.engine.magic_fallbacks, 1u);
  EXPECT_FALSE(got.empty());
}

TEST(PointQueryDeadlineTest, ExpiredDeadlineAndCancelPropagate) {
  FactDb db = RandomGraph(60, 150, 3);
  Program program = Parse(kTc);
  QueryBinding q{"path", {Value(int64_t{0}), std::nullopt}};

  PointQueryOptions expired;
  expired.engine.deadline =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  FactDb db1 = db.Clone();
  PointQueryStats s1;
  auto r1 = EvalPointQuery(program, q, &db1, expired, &s1);
  EXPECT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded);

  PointQueryOptions cancelled;
  auto flag = std::make_shared<std::atomic<bool>>(true);
  cancelled.engine.cancel = flag;
  FactDb db2 = db.Clone();
  PointQueryStats s2;
  auto r2 = EvalPointQuery(program, q, &db2, cancelled, &s2);
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s2.mode, PointQueryMode::kMagic);
}

TEST(PointQueryTest, MultiThreadedMagicMatchesSingleThreaded) {
  FactDb db = RandomGraph(40, 110, 21);
  Program program = Parse(kTc);
  QueryBinding q{"path", {Value(int64_t{2}), std::nullopt}};
  std::vector<Tuple> single, multi;
  {
    FactDb d = db.Clone();
    PointQueryStats s;
    auto r = EvalPointQuery(program, q, &d, {}, &s);
    ASSERT_TRUE(r.ok());
    single = Sorted(*r);
  }
  {
    PointQueryOptions options;
    options.engine.num_threads = 4;
    FactDb d = db.Clone();
    PointQueryStats s;
    auto r = EvalPointQuery(program, q, &d, options, &s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(s.mode, PointQueryMode::kMagic);
    multi = Sorted(*r);
  }
  EXPECT_EQ(single, multi);
}

TEST(MagicOpportunityTest, DetectsBeneficialAndFutileBindings) {
  // TC: bindings propagate into the recursion.
  MagicOpportunity tc = AnalyzeMagicOpportunity(Parse(kTc), "path");
  EXPECT_TRUE(tc.recursive_cone);
  EXPECT_TRUE(tc.beneficial);

  // The binding on `flag` never reaches the recursive `path` subgoal
  // (its variables are disjoint from the head's).
  MagicOpportunity futile = AnalyzeMagicOpportunity(
      Parse(R"(
        edge(x, y) -> path(x, y).
        path(x, y), edge(y, z) -> path(x, z).
        marker(m), path(a, b) -> flag(m).
      )"),
      "flag");
  EXPECT_TRUE(futile.recursive_cone);
  EXPECT_FALSE(futile.beneficial);

  // Aggregates in the cone report the fallback.
  MagicOpportunity agg = AnalyzeMagicOpportunity(
      Parse(R"(
        edge(x, y) -> path(x, y).
        path(x, y), edge(y, z) -> path(x, z).
        path(x, y), n = mcount(<x>) -> fanout(x, n).
      )"),
      "fanout");
  EXPECT_EQ(agg.fallback, FallbackReason::kAggregates);

  // Non-recursive cone: nothing to warn about.
  MagicOpportunity flat =
      AnalyzeMagicOpportunity(Parse("edge(x, y) -> hop(x, y)."), "hop");
  EXPECT_FALSE(flat.recursive_cone);
}

}  // namespace
}  // namespace kgm::vadalog::magic
