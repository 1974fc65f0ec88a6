// Incremental maintenance (vadalog/incremental.h): delta normalization,
// DRed overdelete/rederive/insert, per-stratum recomputation fallbacks,
// mode selection, and randomized differential checks against from-scratch
// materialization.

#include "vadalog/incremental.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

Program Parse(const std::string& src) {
  Result<Program> p = ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

Tuple T(std::initializer_list<int64_t> xs) {
  Tuple t;
  for (int64_t x : xs) t.emplace_back(x);
  return t;
}

Tuple Edge(int64_t a, int64_t b) { return T({a, b}); }

// Runs the program from scratch on a clone of `edb` and asserts equality
// with the maintained database.
void ExpectMatchesRebuild(const IncrementalView& view, const Program& program,
                          EngineOptions options, const std::string& where) {
  FactDb rebuilt = view.edb().Clone();
  Engine engine(program, options);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  ASSERT_TRUE(engine.Run(&rebuilt).ok()) << where;
  bool ordered = view.mode() != MaintenanceMode::kDRed;
  std::string diff;
  if (DescribeFirstDifference(view.db(), rebuilt, ordered, &diff)) {
    FAIL() << where << ": maintained database diverged ("
           << (ordered ? "ordered" : "set") << "): " << diff;
  }
}

const char* kClosure =
    "path(x,y) :- edge(x,y).\n"
    "path(x,z) :- path(x,y), edge(y,z).\n";

TEST(EdbDelta, TouchedPredicates) {
  EdbDelta delta;
  delta.inserts["edge"].push_back(Edge(1, 2));
  delta.deletes["node"].push_back(T({3}));
  delta.deletes["empty"];
  std::vector<std::string> touched = delta.TouchedPredicates();
  ASSERT_EQ(touched.size(), 2u);
  EXPECT_EQ(touched[0], "edge");
  EXPECT_EQ(touched[1], "node");
}

TEST(IncrementalView, ModeSelection) {
  EXPECT_EQ(IncrementalView(Parse(kClosure)).mode(), MaintenanceMode::kDRed);
  EXPECT_EQ(IncrementalView(
                Parse("t(x,v) :- e(x,y,w), v = msum(w).\n"))
                .mode(),
            MaintenanceMode::kRecomputeStrata);
  // Skolem existentials stay DRed-maintainable (content-addressed terms).
  EXPECT_EQ(IncrementalView(
                Parse("p(x) -> exists k = sk(x) q(x,k).\n"))
                .mode(),
            MaintenanceMode::kDRed);
  // So do automatic ones: their functor is frontier-Skolemized too.
  EXPECT_EQ(IncrementalView(Parse("p(x) -> exists k q(x,k).\n")).mode(),
            MaintenanceMode::kDRed);
}

TEST(IncrementalView, InsertExtendsClosure) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  ASSERT_TRUE(view.status().ok());
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  edb.Add("edge", Edge(2, 3));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EXPECT_EQ(view.db().Get("path")->size(), 3u);

  EdbDelta delta;
  delta.inserts["edge"].push_back(Edge(3, 4));
  ASSERT_TRUE(view.Apply(delta).ok());
  EXPECT_TRUE(view.db().Get("path")->Contains(Edge(1, 4)));
  EXPECT_EQ(view.db().Get("path")->size(), 6u);
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kDRed);
  EXPECT_GT(view.last_stats().idb_inserted, 0u);
  EXPECT_TRUE(view.last_changed().count("path") > 0);
  EXPECT_TRUE(view.last_changed().count("edge") > 0);
  ExpectMatchesRebuild(view, program, {}, "insert 3->4");
}

TEST(IncrementalView, DeleteTriggersOverdeletion) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  edb.Add("edge", Edge(2, 3));
  edb.Add("edge", Edge(3, 4));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EXPECT_EQ(view.db().Get("path")->size(), 6u);

  EdbDelta delta;
  delta.deletes["edge"].push_back(Edge(2, 3));
  ASSERT_TRUE(view.Apply(delta).ok());
  // Only 1->2 and 3->4 survive.
  EXPECT_EQ(view.db().Get("path")->size(), 2u);
  EXPECT_FALSE(view.db().Get("path")->Contains(Edge(1, 3)));
  EXPECT_GT(view.last_stats().overdeleted, 0u);
  ExpectMatchesRebuild(view, program, {}, "delete 2->3");
}

TEST(IncrementalView, RederivationRescuesAlternativePath) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  // Two routes from 1 to 3; deleting one keeps path(1,3) derivable.
  edb.Add("edge", Edge(1, 2));
  edb.Add("edge", Edge(2, 3));
  edb.Add("edge", Edge(1, 3));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  EdbDelta delta;
  delta.deletes["edge"].push_back(Edge(2, 3));
  ASSERT_TRUE(view.Apply(delta).ok());
  EXPECT_TRUE(view.db().Get("path")->Contains(Edge(1, 3)));
  EXPECT_GT(view.last_stats().rederived, 0u);
  ExpectMatchesRebuild(view, program, {}, "rederive 1->3");
}

TEST(IncrementalView, DeleteAndReinsertIsNoOp) {
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  edb.Add("edge", Edge(2, 3));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  EdbDelta delta;
  delta.deletes["edge"].push_back(Edge(1, 2));
  delta.inserts["edge"].push_back(Edge(1, 2));
  ASSERT_TRUE(view.Apply(delta).ok());
  EXPECT_EQ(view.last_stats().edb_deleted, 0u);
  EXPECT_EQ(view.last_stats().edb_inserted, 0u);
  EXPECT_TRUE(view.last_changed().empty());
  EXPECT_EQ(view.db().Get("path")->size(), 3u);
}

TEST(IncrementalView, DeleteAbsentAndInsertPresentAreIgnored) {
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  EdbDelta delta;
  delta.deletes["edge"].push_back(Edge(7, 8));
  delta.inserts["edge"].push_back(Edge(1, 2));
  ASSERT_TRUE(view.Apply(delta).ok());
  EXPECT_TRUE(view.last_changed().empty());
  EXPECT_EQ(view.db().Get("edge")->size(), 1u);
}

TEST(IncrementalView, ArityMismatchRejected) {
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EdbDelta delta;
  delta.inserts["edge"].push_back(T({1, 2, 3}));
  Status status = view.Apply(delta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalView, NegationFallsBackToRecomputation) {
  const char* src =
      "reach(x,y) :- edge(x,y).\n"
      "reach(x,z) :- reach(x,y), edge(y,z).\n"
      "blocked(x,y) :- node(x), node(y), not reach(x,y).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kDRed);
  FactDb edb;
  edb.Add("node", T({1}));
  edb.Add("node", T({2}));
  edb.Add("node", T({3}));
  edb.Add("edge", Edge(1, 2));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EXPECT_TRUE(view.db().Get("blocked")->Contains(Edge(1, 3)));

  EdbDelta delta;
  delta.inserts["edge"].push_back(Edge(2, 3));
  ASSERT_TRUE(view.Apply(delta).ok());
  // reach changed, so the stratum negating it recomputes.
  EXPECT_GT(view.last_stats().strata_recomputed, 0u);
  EXPECT_FALSE(view.db().Get("blocked")->Contains(Edge(1, 3)));
  ExpectMatchesRebuild(view, program, {}, "negation fallback");
}

TEST(IncrementalView, AggregateProgramRecomputesAffectedStrataOnly) {
  const char* src =
      "total(x,s) :- sale(x,v), s = sum(v, <x>).\n"
      "flag(x) :- other(x).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kRecomputeStrata);
  FactDb edb;
  edb.Add("sale", Edge(1, 10));
  edb.Add("sale", Edge(1, 5));
  edb.Add("other", T({7}));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  EdbDelta delta;
  delta.deletes["sale"].push_back(Edge(1, 5));
  ASSERT_TRUE(view.Apply(delta).ok());
  EXPECT_TRUE(view.db().Get("total")->Contains(Edge(1, 10)));
  EXPECT_FALSE(view.db().Get("total")->Contains(Edge(1, 15)));
  // The `flag` stratum is untouched by a `sale` delta.
  EXPECT_GT(view.last_stats().strata_skipped, 0u);
  EXPECT_EQ(view.last_changed().count("flag"), 0u);
  ExpectMatchesRebuild(view, program, {}, "aggregate recompute");
}

TEST(IncrementalView, SkolemHeadsMaintainedByDRed) {
  const char* src =
      "owner(x,y) :- own(x,y).\n"
      "owner(x,y) -> exists k = skC(x) ctrl(x,k,y).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kDRed);
  FactDb edb;
  edb.Add("own", Edge(1, 2));
  edb.Add("own", Edge(1, 3));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EXPECT_EQ(view.db().Get("ctrl")->size(), 2u);

  EdbDelta delta;
  delta.deletes["own"].push_back(Edge(1, 3));
  delta.inserts["own"].push_back(Edge(4, 5));
  ASSERT_TRUE(view.Apply(delta).ok());
  ExpectMatchesRebuild(view, program, {}, "skolem delta");
}

// DRed differential test over the probe indexes a DeltaEvaluator call
// builds before its join starts: an anonymous position in the literal that
// receives the delta (edge(x, y, _) leaves the delta partly bound), a
// constant in a body literal, one predicate used twice in a body, and a
// negated literal with an anonymous position, not blocked(z, _).  Each
// batch also touches `open`, so the lower stratum recomputes `blocked`
// into a fresh relation without that literal's index; `blocked` itself
// does not change, so the reach stratum stays on DRed and its calls must
// build the index.  A missing index would abort the join.
TEST(IncrementalView, DRedIndexesAnonymousConstantRepeatedAndNegatedLiterals) {
  const char* src =
      "blocked(z,w) :- wall(z,w), not open(z).\n"
      "reach(x,y) :- edge(x,y,_).\n"
      "reach(x,z) :- reach(x,y), edge(y,z,_), not blocked(z,_).\n"
      "hop2(x,z) :- edge(x,y,1), edge(y,z,1).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kDRed);
  constexpr int64_t kNodes = 12;
  FactDb edb;
  for (int64_t i = 0; i < kNodes; ++i) {
    edb.Add("edge", T({i, (i + 1) % kNodes, i % 2}));
    edb.Add("edge", T({i, (i * 5 + 2) % kNodes, 1}));
  }
  edb.Add("wall", T({7, 0}));
  edb.Add("wall", T({7, 1}));
  edb.Add("wall", T({10, 3}));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  EdbDelta inserts;
  inserts.inserts["edge"] = {T({3, 9, 1}), T({9, 4, 1}), T({4, 11, 0})};
  inserts.inserts["open"] = {T({5})};
  ASSERT_TRUE(view.Apply(inserts).ok());
  EXPECT_EQ(view.last_stats().strata_recomputed, 1u);  // blocked's stratum
  EXPECT_EQ(view.last_changed().count("blocked"), 0u);
  EXPECT_GT(view.last_stats().idb_inserted, 0u);
  ExpectMatchesRebuild(view, program, {}, "insert batch");

  EdbDelta deletes;
  deletes.deletes["edge"] = {T({3, 9, 1}), T({0, 1, 0}), T({5, 3, 1})};
  deletes.deletes["open"] = {T({5})};
  ASSERT_TRUE(view.Apply(deletes).ok());
  EXPECT_EQ(view.last_stats().strata_recomputed, 1u);
  EXPECT_GT(view.last_stats().overdeleted, 0u);
  EXPECT_GT(view.last_stats().idb_deleted, 0u);
  ExpectMatchesRebuild(view, program, {}, "delete batch");
}

// DRed never sends aggregate rules to the rule-at-a-time evaluator (see
// ModeSelection); called on one anyway, both entry points return
// FailedPrecondition instead of aborting.
TEST(DeltaEvaluator, RefusesAggregateRules) {
  FactDb db;
  db.Add("edge", Edge(1, 2));
  std::map<std::string, Relation> delta_rels;
  delta_rels.emplace("edge", Relation(2)).first->second.Insert(Edge(1, 2));
  auto emit = [](const std::string&, Tuple) {};
  Engine engine(Parse("edge(x, y), n = count(<y>) -> deg(x, n)."));
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  DeltaEvaluator eval(&engine, &db);
  ASSERT_TRUE(eval.status().ok()) << eval.status().ToString();
  EXPECT_EQ(eval.EvalRuleDelta(0, 0, delta_rels, emit).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(eval.EvalRuleSeeded(0, 0, T({1, 1}), emit).code(),
            StatusCode::kFailedPrecondition);
}

// The DRed insert phase's emit callback inserts into a relation the join
// probes (here p, probed on x).  A call reads the database as it was when
// the call started and hands its emissions to the callback only after the
// join returns, so one call derives exactly one step of the chain even
// though its callback inserts.  Semi-naive rounds over the newly inserted
// p tuples, as the insert phase's frontier loop runs them, derive the
// whole chain.
TEST(DeltaEvaluator, EmitCallbackMayInsertIntoProbedRelation) {
  constexpr int64_t kChain = 200;
  FactDb db;
  for (int64_t i = 0; i < kChain; ++i) db.Add("next", Edge(i, i + 1));
  db.Add("p", Edge(1, 0));
  db.Add("s", T({1}));
  Engine engine(Parse("s(x), p(x, y), next(y, z) -> p(x, z)."));
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  DeltaEvaluator eval(&engine, &db);
  ASSERT_TRUE(eval.status().ok()) << eval.status().ToString();
  size_t emitted = 0;
  std::vector<Tuple> inserted;
  auto insert = [&](const std::string& pred, Tuple t) {
    ++emitted;
    if (db.GetOrCreate(pred, t.size()).Insert(t)) {
      inserted.push_back(std::move(t));
    }
  };
  std::map<std::string, Relation> delta_rels;
  delta_rels.emplace("s", Relation(1)).first->second.Insert(T({1}));
  Status status = eval.EvalRuleDelta(0, 0, delta_rels, insert);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(inserted, std::vector<Tuple>{Edge(1, 1)});

  size_t total = emitted;
  while (!inserted.empty()) {
    std::map<std::string, Relation> frontier;
    Relation& delta = frontier.emplace("p", Relation(2)).first->second;
    for (Tuple& t : inserted) delta.Insert(std::move(t));
    inserted.clear();
    emitted = 0;
    status = eval.EvalRuleDelta(0, 1, frontier, insert);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_LE(emitted, 1u);
    total += emitted;
  }
  EXPECT_EQ(total, static_cast<size_t>(kChain));
  EXPECT_EQ(db.Get("p")->size(), static_cast<size_t>(kChain + 1));
}

// Rule-at-a-time joins start from the pre-bound literals, so their cost
// follows the delta or the seeded head, not the database.  Nothing binds x
// before a(x) in written order, so a written-order seeded call scans all of
// `a`; the bound-first order reaches b(x, y) through its y index and then
// probes a(x) by containment.  The delta call binds x from the delta row.
TEST(DeltaEvaluator, JoinProbesDoNotGrowWithUnboundRelation) {
  constexpr int64_t kDelta = 10;
  struct Probes {
    size_t delta = 0;
    size_t seeded = 0;
  };
  auto run = [&](int64_t a_rows, Probes* out) {
    FactDb db;
    for (int64_t i = 0; i < a_rows; ++i) db.Add("a", T({i}));
    std::map<std::string, Relation> delta_rels;
    Relation& delta = delta_rels.emplace("b", Relation(2)).first->second;
    for (int64_t i = 0; i < kDelta; ++i) {
      db.Add("b", T({i, 100 + i}));
      delta.Insert(T({i, 100 + i}));
    }
    Engine engine(Parse("a(x), b(x, y) -> c(y)."));
    ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
    DeltaEvaluator eval(&engine, &db);
    ASSERT_TRUE(eval.status().ok()) << eval.status().ToString();
    size_t emitted = 0;
    auto emit = [&emitted](const std::string&, Tuple) { ++emitted; };
    ASSERT_TRUE(eval.EvalRuleDelta(0, 1, delta_rels, emit).ok());
    EXPECT_EQ(emitted, static_cast<size_t>(kDelta));
    out->delta = eval.join_probes();
    for (int64_t i = 0; i < kDelta; ++i) {
      ASSERT_TRUE(eval.EvalRuleSeeded(0, 0, T({100 + i}), emit).ok());
    }
    EXPECT_EQ(emitted, static_cast<size_t>(2 * kDelta));
    out->seeded = eval.join_probes() - out->delta;
  };
  Probes small;
  Probes large;
  run(1'000, &small);
  run(10'000, &large);
  EXPECT_EQ(large.delta, small.delta);
  EXPECT_EQ(large.seeded, small.seeded);
  // One probe per literal for every delta row or seed.
  EXPECT_LE(large.delta, static_cast<size_t>(2 * kDelta));
  EXPECT_LE(large.seeded, static_cast<size_t>(2 * kDelta));
}

// Randomized differential test over the transitive closure: a stream of
// mixed insert/delete batches, checked against a from-scratch rebuild
// after every batch, at 1 and 4 threads.
class RandomizedClosure : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomizedClosure, MatchesRebuildAcrossBatches) {
  EngineOptions options;
  options.num_threads = GetParam();
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure), options);
  ASSERT_TRUE(view.status().ok());

  constexpr int64_t kNodes = 24;
  kgm::Rng rng(0xfeedface + GetParam());
  FactDb edb;
  std::vector<Tuple> live;
  for (int i = 0; i < 60; ++i) {
    Tuple e = Edge(static_cast<int64_t>(rng.NextBelow(kNodes)),
                   static_cast<int64_t>(rng.NextBelow(kNodes)));
    if (edb.Add("edge", Tuple(e))) live.push_back(e);
  }
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  for (int batch = 0; batch < 12; ++batch) {
    EdbDelta delta;
    size_t deletes = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < deletes && !live.empty(); ++i) {
      size_t pick = rng.NextBelow(live.size());
      delta.deletes["edge"].push_back(live[pick]);
      live.erase(live.begin() + pick);
    }
    size_t inserts = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < inserts; ++i) {
      Tuple e = Edge(static_cast<int64_t>(rng.NextBelow(kNodes)),
                     static_cast<int64_t>(rng.NextBelow(kNodes)));
      delta.inserts["edge"].push_back(e);
      bool have = false;
      for (const Tuple& t : live) have = have || t == e;
      if (!have) live.push_back(e);
    }
    ASSERT_TRUE(view.Apply(delta).ok()) << "batch " << batch;
    ExpectMatchesRebuild(view, program, options,
                         "batch " + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, RandomizedClosure,
                         ::testing::Values<size_t>(1, 4));

TEST(DatabaseComparison, OrderedAndSetEquality) {
  FactDb a;
  a.Add("p", T({1}));
  a.Add("p", T({2}));
  FactDb b;
  b.Add("p", T({2}));
  b.Add("p", T({1}));
  EXPECT_TRUE(DatabasesEqualAsSets(a, b));
  EXPECT_FALSE(DatabasesEqualOrdered(a, b));
  EXPECT_TRUE(DatabasesEqualOrdered(a, a.Clone()));
  b.Add("p", T({3}));
  std::string diff;
  EXPECT_TRUE(DescribeFirstDifference(a, b, /*ordered=*/false, &diff));
  EXPECT_NE(diff.find("p"), std::string::npos);
}

}  // namespace
}  // namespace kgm::vadalog
