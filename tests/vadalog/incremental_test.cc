// Incremental maintenance (vadalog/incremental.h): delta normalization,
// DRed overdelete/rederive/insert, the rerun fallback, mode selection, and
// randomized differential checks against from-scratch materialization.

#include "vadalog/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
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
// with the maintained database: ordered (row order and float bits) when
// the last batch reran the program, as sets when DRed patched it.
void ExpectMatchesRebuild(const IncrementalView& view, const Program& program,
                          EngineOptions options, const std::string& where) {
  FactDb rebuilt = view.edb().Clone();
  Engine engine(program, options);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  ASSERT_TRUE(engine.Run(&rebuilt).ok()) << where;
  bool ordered = view.last_stats().mode == MaintenanceMode::kRerun;
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
            MaintenanceMode::kRerun);
  // Skolem existentials stay DRed-maintainable (content-addressed terms).
  EXPECT_EQ(IncrementalView(
                Parse("p(x) -> exists k = sk(x) q(x,k).\n"))
                .mode(),
            MaintenanceMode::kDRed);
  // So do automatic ones: their functor is frontier-Skolemized too.
  EXPECT_EQ(IncrementalView(Parse("p(x) -> exists k q(x,k).\n")).mode(),
            MaintenanceMode::kDRed);
}

// The view's engine compiles the program when the view is built, so a
// program the engine cannot compile fails status(), before Initialize.
TEST(IncrementalView, StatusRefusesProgramsTheEngineCannotCompile) {
  std::string wide = "p(x0";
  for (int i = 1; i < 61; ++i) wide += ", x" + std::to_string(i);
  wide += ") -> q(x0).\n";
  for (const std::string& src :
       {std::string("a(x) -> b(x). a(x, y) -> c(x).\n"), wide}) {
    IncrementalView view(Parse(src));
    EXPECT_EQ(view.status().code(), StatusCode::kFailedPrecondition) << src;
    EXPECT_EQ(view.Initialize(FactDb()).code(),
              StatusCode::kFailedPrecondition);
  }
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
  EXPECT_EQ(view.last_stats().strata_processed, 0u);
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
  EXPECT_EQ(view.last_stats().strata_processed, 0u);
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

// Every predicate's arity is checked before anything changes: a delta whose
// `edge` part is valid but whose `zzz` part is not leaves the EDB and the
// materialization untouched, and the next valid delta applies.
TEST(IncrementalView, RejectedDeltaChangesNothingAndViewStaysUsable) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  edb.Add("edge", Edge(1, 2));
  edb.Add("zzz", T({1}));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  FactDb before = view.db().Clone();

  EdbDelta bad;
  bad.inserts["edge"].push_back(Edge(2, 3));
  bad.inserts["zzz"].push_back(T({1, 2}));
  EXPECT_EQ(view.Apply(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(view.edb().Get("edge")->size(), 1u);
  EXPECT_TRUE(DatabasesEqualOrdered(view.db(), before));

  EdbDelta good;
  good.inserts["edge"].push_back(Edge(2, 3));
  ASSERT_TRUE(view.Apply(good).ok());
  EXPECT_TRUE(view.db().Get("path")->Contains(Edge(1, 3)));
  ExpectMatchesRebuild(view, program, {}, "after a rejected delta");
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
  // reach changed, so the batch reruns the program at the stratum negating
  // it; the program stays a DRed program.
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kRerun);
  EXPECT_EQ(view.mode(), MaintenanceMode::kDRed);
  EXPECT_FALSE(view.db().Get("blocked")->Contains(Edge(1, 3)));
  ExpectMatchesRebuild(view, program, {}, "negation fallback");
}

TEST(IncrementalView, AggregateProgramReruns) {
  const char* src =
      "total(x,s) :- sale(x,v), s = sum(v, <x>).\n"
      "flag(x) :- other(x).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kRerun);
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
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kRerun);
  EXPECT_TRUE(view.db().Get("flag")->Contains(T({7})));
  ExpectMatchesRebuild(view, program, {}, "aggregate rerun");
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

// DRed differential test over the probe indexes a rule-at-a-time call
// builds before its join starts: an anonymous position in the literal that
// receives the delta (edge(x, y, _) leaves the delta partly bound), a
// constant in a body literal, one predicate used twice in a body, and a
// negated literal with an anonymous position, not blocked(z, _).  A batch
// that touches `open` changes the negated input of blocked's stratum, so
// it reruns the program, which rebuilds `blocked` into a fresh relation.
// The edge-only batch after each rerun leaves `blocked` untouched, so the
// reach stratum runs DRed through the negated literal and its calls must
// build the indexes the rerun's joins did not.  A missing index would
// abort the join.
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

  EdbDelta open_insert;
  open_insert.inserts["open"] = {T({5})};
  ASSERT_TRUE(view.Apply(open_insert).ok());
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kRerun);
  ExpectMatchesRebuild(view, program, {}, "open insert");

  EdbDelta edge_inserts;
  edge_inserts.inserts["edge"] = {T({3, 9, 1}), T({9, 4, 1}), T({4, 11, 0})};
  ASSERT_TRUE(view.Apply(edge_inserts).ok());
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kDRed);
  EXPECT_GT(view.last_stats().idb_inserted, 0u);
  ExpectMatchesRebuild(view, program, {}, "edge inserts");

  EdbDelta open_delete;
  open_delete.deletes["open"] = {T({5})};
  ASSERT_TRUE(view.Apply(open_delete).ok());
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kRerun);
  ExpectMatchesRebuild(view, program, {}, "open delete");

  EdbDelta edge_deletes;
  edge_deletes.deletes["edge"] = {T({3, 9, 1}), T({0, 1, 0}), T({5, 3, 1})};
  ASSERT_TRUE(view.Apply(edge_deletes).ok());
  EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kDRed);
  EXPECT_GT(view.last_stats().overdeleted, 0u);
  EXPECT_GT(view.last_stats().idb_deleted, 0u);
  ExpectMatchesRebuild(view, program, {}, "edge deletes");
}

// A stratified sum over a recursive IDB predicate: `reach` is a closure in
// its own stratum, and `score` folds double weights over it.  Fold order
// sets the float bits of each sum, so after every mixed batch the rerun
// must reproduce the rebuild row for row and bit for bit, at 1 and 4
// threads.
class AggregateOverRecursion : public ::testing::TestWithParam<size_t> {};

TEST_P(AggregateOverRecursion, RerunMatchesRebuildOrdered) {
  const char* src =
      "reach(x,y) :- edge(x,y).\n"
      "reach(x,z) :- reach(x,y), edge(y,z).\n"
      "score(x,s) :- reach(x,y), weight(y,w), s = sum(w, <y>).\n";
  EngineOptions options;
  options.num_threads = GetParam();
  Program program = Parse(src);
  IncrementalView view(Parse(src), options);
  ASSERT_EQ(view.mode(), MaintenanceMode::kRerun);

  constexpr int64_t kNodes = 16;
  kgm::Rng rng(0xacc0 + GetParam());
  FactDb edb;
  std::vector<Tuple> live;
  for (int64_t i = 0; i < kNodes; ++i) {
    // Weights spanning magnitudes, so a different fold order would round
    // differently.
    double w = static_cast<double>(1 + rng.NextBelow(1000)) /
               static_cast<double>(3 + rng.NextBelow(97));
    if (i % 3 == 0) w *= 1e-9;
    edb.Add("weight", Tuple{Value(i), Value(w)});
  }
  for (int i = 0; i < 30; ++i) {
    Tuple e = Edge(static_cast<int64_t>(rng.NextBelow(kNodes)),
                   static_cast<int64_t>(rng.NextBelow(kNodes)));
    if (edb.Add("edge", Tuple(e))) live.push_back(e);
  }
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());

  for (int batch = 0; batch < 4; ++batch) {
    EdbDelta delta;
    for (int i = 0; i < 3 && !live.empty(); ++i) {
      size_t pick = rng.NextBelow(live.size());
      delta.deletes["edge"].push_back(live[pick]);
      live.erase(live.begin() + pick);
    }
    for (int i = 0; i < 3; ++i) {
      Tuple e = Edge(static_cast<int64_t>(rng.NextBelow(kNodes)),
                     static_cast<int64_t>(rng.NextBelow(kNodes)));
      delta.inserts["edge"].push_back(e);
      if (std::find(live.begin(), live.end(), e) == live.end()) {
        live.push_back(e);
      }
    }
    ASSERT_TRUE(view.Apply(delta).ok()) << "batch " << batch;
    EXPECT_EQ(view.last_stats().mode, MaintenanceMode::kRerun);
    EXPECT_GT(view.last_stats().edb_deleted, 0u);
    ExpectMatchesRebuild(view, program, options,
                         "batch " + std::to_string(batch));
  }
  ASSERT_NE(view.db().Get("score"), nullptr);
  EXPECT_GT(view.db().Get("score")->size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, AggregateOverRecursion,
                         ::testing::Values<size_t>(1, 4));

// A copy of `db` whose relations hold only the live rows, in order: what a
// relation that compacted on every erase would hold.
FactDb Compacted(const FactDb& db) {
  FactDb out;
  for (const std::string& pred : db.Predicates()) {
    const Relation* rel = db.Get(pred);
    Relation& copy = out.GetOrCreate(pred, rel->arity());
    for (const Tuple& t : rel->tuples()) copy.Insert(t);
  }
  return out;
}

// Erasing a few EDB rows leaves them as dead rows (tombstones), and a rerun
// runs the program over relations that carry them.  The rerun must still
// equal, row for row and bit for bit, a rebuild over an EDB that holds
// only the live rows.
TEST(IncrementalView, RerunOverTombstonedEdbMatchesCompactedRebuild) {
  const char* src =
      "reach(x,y) :- edge(x,y).\n"
      "reach(x,z) :- reach(x,y), edge(y,z).\n"
      "score(x,s) :- reach(x,y), weight(y,w), s = sum(w, <y>).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  ASSERT_EQ(view.mode(), MaintenanceMode::kRerun);
  kgm::Rng rng(0x70b);
  FactDb edb;
  std::vector<Tuple> live;
  for (int64_t i = 0; i < 24; ++i) {
    edb.Add("weight", Tuple{Value(i), Value(1.0 / static_cast<double>(3 + i))});
  }
  for (int i = 0; i < 60; ++i) {
    Tuple e = Edge(static_cast<int64_t>(rng.NextBelow(24)),
                   static_cast<int64_t>(rng.NextBelow(24)));
    if (edb.Add("edge", Tuple(e))) live.push_back(e);
  }
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  for (int batch = 0; batch < 3; ++batch) {
    EdbDelta delta;
    for (int i = 0; i < 4; ++i) {
      size_t pick = rng.NextBelow(live.size());
      delta.deletes["edge"].push_back(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_TRUE(view.Apply(delta).ok());
    const Relation* edges = view.edb().Get("edge");
    ASSERT_GT(edges->row_bound(), edges->size()) << "no tombstones left";
    FactDb rebuilt = Compacted(view.edb());
    Engine engine(program);
    ASSERT_TRUE(engine.Run(&rebuilt).ok());
    std::string diff;
    EXPECT_FALSE(DescribeFirstDifference(view.db(), rebuilt, true, &diff))
        << "batch " << batch << ": " << diff;
  }
}

// A rescue chain on a cycle: deleting edge(1,2) overdeletes path(1,2) and
// path(1,3).  The recursive rule comes first, so the seeded pass finds
// path(1,2) underivable — path(1,3) is still erased — and then rescues
// path(1,3) by edge(1,3).  That rescue spreads to path(1,2) through
// path(1,3), edge(3,2) semi-naively, without a second seeded probe of
// path(1,2): one call per (overdeleted tuple, rule head), and component B
// (10 -> 11 -> 12, losing edge(10,11) for good) adds no re-probe either.
TEST(IncrementalView, RescueChainProbesEachTupleOnce) {
  const char* src =
      "path(x,z) :- path(x,y), edge(y,z).\n"
      "path(x,y) :- edge(x,y).\n";
  Program program = Parse(src);
  IncrementalView view(Parse(src));
  FactDb edb;
  for (const Tuple& e : {Edge(1, 2), Edge(2, 3), Edge(3, 2), Edge(1, 3),
                         Edge(10, 11), Edge(11, 12)}) {
    edb.Add("edge", e);
  }
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EdbDelta delta;
  delta.deletes["edge"] = {Edge(1, 2), Edge(10, 11)};
  ASSERT_TRUE(view.Apply(delta).ok());
  const IncrementalStats& stats = view.last_stats();
  ASSERT_EQ(stats.mode, MaintenanceMode::kDRed);
  // path(1,2), path(1,3), path(10,11), path(10,12).
  EXPECT_EQ(stats.overdeleted, 4u);
  EXPECT_EQ(stats.rederived, 2u);
  EXPECT_EQ(stats.seeded_calls, 2 * stats.overdeleted);
  EXPECT_TRUE(view.db().Get("path")->Contains(Edge(1, 2)));
  EXPECT_FALSE(view.db().Get("path")->Contains(Edge(10, 12)));
  ExpectMatchesRebuild(view, program, {}, "rescue chain");
}

// The phase timers are disjoint slices of one Apply: EDB, then the three
// DRed phases of each stratum.
TEST(IncrementalView, PhaseTimesAddUpToApplyTime) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  for (int64_t i = 0; i < 40; ++i) edb.Add("edge", Edge(i, (i * 7 + 3) % 40));
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  for (int64_t batch = 0; batch < 4; ++batch) {
    EdbDelta delta;
    delta.deletes["edge"].push_back(Edge(batch, (batch * 7 + 3) % 40));
    delta.inserts["edge"].push_back(Edge(batch, batch + 20));
    ASSERT_TRUE(view.Apply(delta).ok());
    const IncrementalStats& s = view.last_stats();
    ASSERT_EQ(s.mode, MaintenanceMode::kDRed);
    EXPECT_GT(s.edb_seconds, 0);
    EXPECT_GT(s.overdelete_seconds, 0);
    EXPECT_LE(s.edb_seconds + s.overdelete_seconds + s.rederive_seconds +
                  s.insert_seconds,
              s.apply_seconds);
  }
  ExpectMatchesRebuild(view, program, {}, "phase timers");
}

// The view keeps one engine for its whole life, and the stats of a batch
// count only that batch's joins: a batch applied again after its
// inverse restored the database repeats the first application's work.
TEST(IncrementalView, RepeatedBatchCountsTheSameWork) {
  Program program = Parse(kClosure);
  IncrementalView view(Parse(kClosure));
  FactDb edb;
  for (int64_t i = 0; i < 30; ++i) {
    edb.Add("edge", Edge(i, i + 1));
    if (i % 3 == 0) edb.Add("edge", Edge(i, i + 2));
  }
  ASSERT_TRUE(view.Initialize(std::move(edb)).ok());
  EdbDelta batch;
  batch.deletes["edge"] = {Edge(3, 4), Edge(10, 11), Edge(20, 21)};
  batch.inserts["edge"] = {Edge(5, 2), Edge(31, 40)};
  EdbDelta inverse;
  inverse.deletes = batch.inserts;
  inverse.inserts = batch.deletes;
  ASSERT_TRUE(view.Apply(batch).ok());
  const IncrementalStats first = view.last_stats();
  ASSERT_EQ(first.mode, MaintenanceMode::kDRed);
  EXPECT_GT(first.rederived, 0u);
  EXPECT_GT(first.idb_inserted, 0u);
  ASSERT_TRUE(view.Apply(inverse).ok());
  ASSERT_TRUE(view.Apply(batch).ok());
  const IncrementalStats& third = view.last_stats();
  EXPECT_EQ(third.join_probes, first.join_probes);
  EXPECT_EQ(third.seeded_calls, first.seeded_calls);
  EXPECT_EQ(third.overdeleted, first.overdeleted);
  EXPECT_EQ(third.rederived, first.rederived);
  ExpectMatchesRebuild(view, program, {}, "repeated batch");
}

// DRed never sends aggregate rules to the rule-at-a-time calls (see
// ModeSelection); called on one anyway, both entry points return
// FailedPrecondition instead of aborting.
TEST(EngineRuleAtATime, RefusesAggregateRules) {
  FactDb db;
  db.Add("edge", Edge(1, 2));
  std::map<std::string, Relation> delta_rels;
  delta_rels.emplace("edge", Relation(2)).first->second.Insert(Edge(1, 2));
  auto emit = [](const std::string&, Tuple) {};
  Engine engine(Parse("edge(x, y), n = count(<y>) -> deg(x, n)."));
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  EXPECT_EQ(engine.EvalRuleDelta(&db, 0, 0, delta_rels, emit).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.EvalRuleSeeded(&db, 0, 0, T({1, 1}), emit).code(),
            StatusCode::kFailedPrecondition);
}

// The DRed insert phase's emit callback inserts into a relation the join
// probes (here p, probed on x).  A call reads the database as it was when
// the call started and hands its emissions to the callback only after the
// join returns, so one call derives exactly one step of the chain even
// though its callback inserts.  Semi-naive rounds over the newly inserted
// p tuples, as the insert phase's frontier loop runs them, derive the
// whole chain.
TEST(EngineRuleAtATime, EmitCallbackMayInsertIntoProbedRelation) {
  constexpr int64_t kChain = 200;
  FactDb db;
  for (int64_t i = 0; i < kChain; ++i) db.Add("next", Edge(i, i + 1));
  db.Add("p", Edge(1, 0));
  db.Add("s", T({1}));
  Engine engine(Parse("s(x), p(x, y), next(y, z) -> p(x, z)."));
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
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
  Status status = engine.EvalRuleDelta(&db, 0, 0, delta_rels, insert);
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
    status = engine.EvalRuleDelta(&db, 0, 1, frontier, insert);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_LE(emitted, 1u);
    total += emitted;
  }
  EXPECT_EQ(total, static_cast<size_t>(kChain));
  EXPECT_EQ(db.Get("p")->size(), static_cast<size_t>(kChain + 1));
}

// The delta literal joins first, so each delta row is enumerated once: an
// anonymous position does not make a row revisit its sibling delta rows
// that agree on the named positions.
TEST(EngineRuleAtATime, AnonymousDeltaPositionEmitsOncePerDeltaRow) {
  FactDb db;
  db.Add("e", Edge(1, 2));
  db.Add("e", Edge(1, 3));
  db.Add("f", T({1}));
  std::map<std::string, Relation> delta_rels;
  Relation& delta = delta_rels.emplace("e", Relation(2)).first->second;
  delta.Insert(Edge(1, 2));
  delta.Insert(Edge(1, 3));
  Engine engine(Parse("e(x, _), f(x) -> g(x)."));
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  size_t emitted = 0;
  Status status = engine.EvalRuleDelta(
      &db, 0, 0, delta_rels, [&emitted](const std::string& pred, Tuple t) {
        EXPECT_EQ(pred, "g");
        EXPECT_EQ(t, T({1}));
        ++emitted;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(emitted, 2u);
}

// Rule-at-a-time joins start from the pre-bound literals, so their cost
// follows the delta or the seeded head, not the database.  Nothing binds x
// before a(x) in written order, so a written-order seeded call scans all of
// `a`; the bound-first order reaches b(x, y) through its y index and then
// probes a(x) by containment.  The delta call binds x from the delta row.
TEST(EngineRuleAtATime, JoinProbesDoNotGrowWithUnboundRelation) {
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
    size_t emitted = 0;
    auto emit = [&emitted](const std::string&, Tuple) { ++emitted; };
    ASSERT_TRUE(engine.EvalRuleDelta(&db, 0, 1, delta_rels, emit).ok());
    EXPECT_EQ(emitted, static_cast<size_t>(kDelta));
    out->delta = engine.stats().join_probes;
    for (int64_t i = 0; i < kDelta; ++i) {
      ASSERT_TRUE(engine.EvalRuleSeeded(&db, 0, 0, T({100 + i}), emit).ok());
    }
    EXPECT_EQ(emitted, static_cast<size_t>(2 * kDelta));
    out->seeded = engine.stats().join_probes - out->delta;
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
