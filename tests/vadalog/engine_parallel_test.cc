// Parallel semi-naive evaluation: the multi-threaded fixpoint must derive
// exactly the relations, in the same row order, that one thread derives,
// including under monotonic aggregation, negation, Skolem existentials and
// the Company-KG intensional programs.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/loader.h"
#include "instance/pipeline.h"
#include "instance/views.h"
#include "metalog/catalog.h"
#include "metalog/parser.h"
#include "metalog/prepared.h"
#include "translate/csv_io.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

// Row-order snapshot of one relation: output is the same at every thread
// count, down to the order rows were appended in.
std::vector<std::string> Rows(const FactDb& db, const std::string& pred) {
  std::vector<std::string> out;
  const Relation* rel = db.Get(pred);
  if (rel == nullptr) return out;
  for (const Tuple& t : rel->tuples()) {
    std::string s;
    for (const Value& v : t) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

void ExpectSameRows(const FactDb& a, const FactDb& b) {
  std::set<std::string> preds;
  for (const std::string& p : a.Predicates()) preds.insert(p);
  for (const std::string& p : b.Predicates()) preds.insert(p);
  for (const std::string& p : preds) {
    EXPECT_EQ(Rows(a, p), Rows(b, p)) << "relation " << p;
  }
}

FactDb RandomEdges(int64_t n, int64_t edges, uint64_t seed) {
  FactDb db;
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    db.Add("edge", {Value(static_cast<int64_t>(rng.NextBelow(n))),
                    Value(static_cast<int64_t>(rng.NextBelow(n)))});
  }
  return db;
}

TEST(EngineParallelTest, TransitiveClosureMatchesSequential) {
  const char* program = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )";
  for (uint64_t seed : {1u, 2u, 3u}) {
    FactDb seq = RandomEdges(60, 150, seed);
    FactDb par = RandomEdges(60, 150, seed);
    EngineOptions seq_opts;
    seq_opts.num_threads = 1;
    EngineOptions par_opts;
    par_opts.num_threads = 8;
    ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
    ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
    ExpectSameRows(seq, par);
  }
}

// Relations that carry dead rows (tombstones left by EraseTuples) scan,
// partition and probe exactly like compacted ones: at 1, 2 and 4 threads a
// run over a tombstoned database is bit-identical to a run over compacted
// clones, with the same probe, firing and fact counts.
TEST(EngineParallelTest, TombstonedRelationsMatchCompactedClones) {
  const char* program = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
    edge(x, _) -> node(x).
    weight(x, w), w > 3, not blocked(x) -> heavy(x).
    heavy(x), edge(x, y) -> exists k = skH(x, y) via(x, k, y).
  )";
  FactDb tombstoned = RandomEdges(120, 900, 5);
  Rng rng(6);
  for (int64_t i = 0; i < 120; ++i) {
    tombstoned.Add("weight", {Value(i), Value(static_cast<int64_t>(
                                            rng.NextBelow(8)))});
    if (i % 5 == 0) tombstoned.Add("blocked", {Value(i)});
  }
  // Erase a third of every relation (under half: no compaction), through
  // an index built first so its chains are unlinked too.
  for (const std::string& pred : tombstoned.Predicates()) {
    Relation* rel = tombstoned.GetMutable(pred);
    if (rel->arity() == 2) rel->EnsureIndex(0b01);
    std::vector<Tuple> doomed;
    for (const Tuple& t : rel->tuples()) {
      if (rng.NextBool(0.33)) doomed.push_back(t);
    }
    ASSERT_EQ(rel->EraseTuples(doomed), doomed.size());
    ASSERT_GT(rel->row_bound(), rel->size()) << pred;
  }
  for (size_t threads : {1u, 2u, 4u}) {
    FactDb with_dead = tombstoned.Clone();
    FactDb compacted;
    for (const std::string& pred : tombstoned.Predicates()) {
      const Relation* rel = tombstoned.Get(pred);
      for (const Tuple& t : rel->tuples()) compacted.Add(pred, t);
    }
    EngineOptions options;
    options.num_threads = threads;
    auto parsed = ParseProgram(program);
    ASSERT_TRUE(parsed.ok());
    Engine a(*parsed, options);
    Engine b(*std::move(parsed), options);
    ASSERT_TRUE(a.Run(&with_dead).ok());
    ASSERT_TRUE(b.Run(&compacted).ok());
    ExpectSameRows(with_dead, compacted);
    EXPECT_EQ(a.stats().join_probes, b.stats().join_probes) << threads;
    EXPECT_EQ(a.stats().rule_firings, b.stats().rule_firings) << threads;
    EXPECT_EQ(a.stats().facts_derived, b.stats().facts_derived) << threads;
    EXPECT_GT(a.stats().facts_derived, 0u);
  }
}

TEST(EngineParallelTest, NonLinearClosureMatchesSequential) {
  const char* program = R"(
    edge(x, y) -> path(x, y).
    path(x, y), path(y, z) -> path(x, z).
  )";
  FactDb seq = RandomEdges(40, 90, 7);
  FactDb par = RandomEdges(40, 90, 7);
  EngineOptions par_opts;
  par_opts.num_threads = 8;
  ASSERT_TRUE(RunProgram(program, &seq, {}).ok());
  ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
  ExpectSameRows(seq, par);
}

TEST(EngineParallelTest, NegationAndStrataMatchSequential) {
  const char* program = R"(
    edge(x, y) -> reach(x, y).
    reach(x, y), edge(y, z) -> reach(x, z).
    edge(x, _) -> node(x).
    edge(_, y) -> node(y).
    node(x), node(y), not reach(x, y) -> unreach(x, y).
  )";
  FactDb seq = RandomEdges(30, 45, 11);
  FactDb par = RandomEdges(30, 45, 11);
  EngineOptions seq_opts;
  seq_opts.num_threads = 1;
  EngineOptions par_opts;
  par_opts.num_threads = 6;
  ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
  ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
  ExpectSameRows(seq, par);
}

// Example 4.2 company control: recursion + monotonic msum + condition.
TEST(EngineParallelTest, CompanyControlMatchesSequential) {
  finkg::GeneratorConfig config;
  config.num_companies = 300;
  config.num_persons = 300;
  config.seed = 2022;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  auto load = [&](FactDb* db) {
    for (uint32_t c = 0; c < config.num_companies; ++c) {
      db->Add("company", {Value(static_cast<int64_t>(c))});
    }
    for (const finkg::Holding& h : net.holdings()) {
      if (!net.IsCompany(h.holder)) continue;
      db->Add("own", {Value(static_cast<int64_t>(h.holder)),
                      Value(static_cast<int64_t>(h.company)), Value(h.pct)});
    }
  };
  const char* program = R"(
    company(x) -> controls(x, x).
    controls(x, z), own(z, y, w), v = msum(w, <z>), v > 0.5
      -> controls(x, y).
  )";
  FactDb seq;
  load(&seq);
  FactDb par;
  load(&par);
  EngineOptions seq_opts;
  seq_opts.num_threads = 1;
  EngineOptions par_opts;
  par_opts.num_threads = 8;
  ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
  ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
  EXPECT_EQ(Rows(seq, "controls"), Rows(par, "controls"));
}

TEST(EngineParallelTest, MonotonicCountMatchesSequential) {
  const char* program = R"(
    edge(x, y) -> reach(x, y).
    reach(x, y), edge(y, z) -> reach(x, z).
    reach(x, y), n = mcount(<y>) -> fanout(x, n).
  )";
  FactDb seq = RandomEdges(25, 60, 5);
  FactDb par = RandomEdges(25, 60, 5);
  EngineOptions seq_opts;
  seq_opts.num_threads = 1;
  EngineOptions par_opts;
  par_opts.num_threads = 8;
  ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
  ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
  ExpectSameRows(seq, par);
}

TEST(EngineParallelTest, SkolemExistentialsMatchSequential) {
  // Skolem terms are content-addressed in a process-wide table, so the two
  // runs intern identical terms and the fact sets compare equal.
  const char* program = R"(
    node(x) -> exists e = sk_par(x) edge_of(e, x).
    edge_of(e, x) -> tagged(e).
  )";
  FactDb seq;
  FactDb par;
  for (int64_t i = 0; i < 200; ++i) {
    seq.Add("node", {Value(i)});
    par.Add("node", {Value(i)});
  }
  EngineOptions seq_opts;
  seq_opts.num_threads = 1;
  EngineOptions par_opts;
  par_opts.num_threads = 4;
  ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
  ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
  ExpectSameRows(seq, par);
}

// A closure whose written order opens with unbound label atoms: Phase B
// partitions written literal 0 (a node scan) while the delta literal sits
// at position 2.
constexpr const char* kLabeledClosure = R"(
  node(x), node(y), edge(x, y) -> reach(x, y).
  node(x), node(z), reach(x, y), edge(y, z) -> reach(x, z).
)";

FactDb LabeledGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  FactDb db;
  for (int64_t i = 0; i < nodes; ++i) db.Add("node", {Value(i)});
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    db.Add("edge", {Value(static_cast<int64_t>(rng.NextBelow(nodes))),
                    Value(static_cast<int64_t>(rng.NextBelow(nodes)))});
  }
  return db;
}

// DebugString includes canonical row order, so these are bit-identity
// checks, not set equality.
TEST(EngineParallelTest, LabeledClosureIsBitIdenticalAtEveryThreadCount) {
  std::string one_thread;
  for (size_t threads : {1u, 4u, 16u}) {
    EngineOptions options;
    options.num_threads = threads;
    FactDb db = LabeledGraph(80, 200, 17);
    ASSERT_TRUE(RunProgram(kLabeledClosure, &db, options).ok());
    if (threads == 1) one_thread = db.DebugString();
    EXPECT_EQ(db.DebugString(), one_thread) << "threads " << threads;
  }
}

// Plans that join a later literal outermost, so work items partition it:
// the constant-bound s(x, "k") in the first rule, and in the recursive
// rule t(y, "k", z), with the delta literal r(y) joined inside it.  The
// ground flag("on") joins first and is a containment probe.  Each
// partitioned relation holds enough rows to split at 16 threads.
constexpr const char* kReorderedOuter = R"(
  e(x, y), s(x, "k") -> r(y).
  r(y), t(y, "k", z) -> r(z).
  flag("on"), e(x, y) -> q(x, y).
)";

TEST(EngineParallelTest, ReorderedOuterLiteralIsBitIdenticalAtEveryThreadCount) {
  constexpr int64_t kNodes = 3000;
  FactDb input;
  Rng rng(29);
  for (int64_t i = 0; i < kNodes; ++i) {
    const int64_t x = static_cast<int64_t>(rng.NextBelow(kNodes));
    const int64_t y = static_cast<int64_t>(rng.NextBelow(kNodes));
    input.Add("e", {Value(x), Value(y)});
    input.Add("s", {Value(i), Value(i % 7 == 0 ? "k" : "j")});
    input.Add("t", {Value(y), Value(i % 3 == 0 ? "k" : "j"),
                    Value(static_cast<int64_t>(rng.NextBelow(kNodes)))});
    input.Add("flag", {Value("off" + std::to_string(i))});
  }
  input.Add("flag", {Value("on")});
  std::string one_thread;
  size_t one_thread_probes = 0;
  for (size_t threads : {1u, 2u, 4u, 16u}) {
    auto parsed = ParseProgram(kReorderedOuter);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EngineOptions options;
    options.num_threads = threads;
    Engine engine(std::move(parsed).value(), options);
    ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
    FactDb db = input.Clone();
    ASSERT_TRUE(engine.Run(&db).ok());
    ASSERT_GT(db.Get("r")->size(), 100u);
    ASSERT_EQ(db.Get("q")->size(), db.Get("e")->size());
    if (threads == 1) {
      one_thread = db.DebugString();
      one_thread_probes = engine.stats().join_probes;
    }
    EXPECT_EQ(db.DebugString(), one_thread) << "threads " << threads;
    EXPECT_EQ(engine.stats().join_probes, one_thread_probes)
        << "threads " << threads;
  }
}

TEST(EngineParallelTest, StatsArePopulated) {
  const char* program = R"(
    edge(x, y) -> path(x, y).
    path(x, y), edge(y, z) -> path(x, z).
  )";
  size_t one_thread_inserts = 0;
  size_t one_thread_duplicates = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    FactDb db = RandomEdges(30, 60, 3);
    auto parsed = ParseProgram(program);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EngineOptions options;
    options.num_threads = threads;
    Engine engine(std::move(parsed).value(), options);
    ASSERT_TRUE(engine.status().ok());
    ASSERT_TRUE(engine.Run(&db).ok());
    const EngineStats& stats = engine.stats();
    EXPECT_EQ(stats.threads_used, threads);
    ASSERT_EQ(stats.rule_firings_by_rule.size(), 2u);
    ASSERT_EQ(stats.rule_probes_by_rule.size(), 2u);
    EXPECT_GT(stats.rule_firings_by_rule[0], 0u);
    EXPECT_GT(stats.rule_firings_by_rule[1], 0u);
    EXPECT_EQ(stats.rule_firings,
              stats.rule_firings_by_rule[0] + stats.rule_firings_by_rule[1]);
    EXPECT_GT(stats.join_probes, 0u);
    EXPECT_EQ(stats.stratum_seconds.size(),
              static_cast<size_t>(stats.strata));
    // Every derived fact was a work item's accepted fact, and every head
    // emission (one per firing: both heads are single atoms) was either
    // accepted or dropped as a duplicate.
    EXPECT_EQ(stats.staged_inserts, stats.facts_derived);
    EXPECT_GT(stats.staged_duplicates, 0u);
    EXPECT_EQ(stats.staged_inserts + stats.staged_duplicates,
              stats.rule_firings);
    if (threads == 1) {
      one_thread_inserts = stats.staged_inserts;
      one_thread_duplicates = stats.staged_duplicates;
    }
    EXPECT_EQ(stats.staged_inserts, one_thread_inserts) << threads;
    EXPECT_EQ(stats.staged_duplicates, one_thread_duplicates) << threads;
  }
}

// A stratified (non-monotonic) float sum evaluated by parallel scan
// partitions must be bit-identical to the sequential fold: same groups,
// same IEEE addition order.
TEST(EngineParallelTest, StratifiedFloatSumIsBitIdentical) {
  const char* program = R"(
    w(g, v), t = sum(v, <g>) -> total(g, t).
  )";
  auto load = [](FactDb* db) {
    Rng rng(417);
    for (int64_t i = 0; i < 4000; ++i) {
      int64_t g = static_cast<int64_t>(rng.NextBelow(37));
      // Sums of values at very different magnitudes: any reordering of the
      // fold shows up in the low mantissa bits.
      double v = (1.0 + static_cast<double>(rng.NextBelow(1000))) *
                 std::pow(10.0, static_cast<double>(rng.NextBelow(9)) - 4.0);
      db->Add("w", {Value(g), Value(v)});
    }
  };
  FactDb seq;
  load(&seq);
  EngineOptions seq_opts;
  seq_opts.num_threads = 1;
  ASSERT_TRUE(RunProgram(program, &seq, seq_opts).ok());
  for (size_t threads : {2u, 4u, 8u}) {
    FactDb par;
    load(&par);
    EngineOptions par_opts;
    par_opts.num_threads = threads;
    ASSERT_TRUE(RunProgram(program, &par, par_opts).ok());
    const Relation* a = seq.Get("total");
    const Relation* b = par.Get("total");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->size(), b->size()) << "threads " << threads;
    ASSERT_GT(a->size(), 0u);
    // Compare Value-exact (operator== on doubles), not via ToString, so a
    // single flipped mantissa bit fails the test.
    for (const Tuple& t : a->tuples()) {
      EXPECT_TRUE(b->Contains(t))
          << "threads " << threads << ": missing " << t[0].ToString() << ", "
          << t[1].ToString();
    }
  }
}

// A stratified sum/count rule between two plain rules, all three writing
// one head predicate in one stratum and run in one barrier: the rows are
// those of the rules run one after another in program order — the plain
// rule's, then the groups in first-seen order, then the other plain
// rule's — at every thread count.  The 97 groups and 1,200 items are
// enough for several partitions, and a group fact already in the
// database, or derived by the first rule, is not appended again.
TEST(EngineParallelTest, StratifiedGroupsSharingAHeadKeepSequentialOrder) {
  const char* program = R"(
    seed(g, s, n) -> stat(g, s, n).
    item(i, g, v), s = sum(v, <i>), n = count(<i>) -> stat(g, s, n).
    late(g) -> stat(g, 0, 0).
  )";
  constexpr int64_t kGroups = 97;
  std::vector<int64_t> item_group;
  std::vector<int64_t> item_value;
  Rng rng(29);
  for (int64_t i = 0; i < 1200; ++i) {
    item_group.push_back(static_cast<int64_t>(rng.NextBelow(kGroups)));
    item_value.push_back(static_cast<int64_t>(rng.NextBelow(1000)));
  }
  // Each group's (sum, count) and first-seen position.
  std::map<int64_t, std::pair<int64_t, int64_t>> totals;
  std::vector<int64_t> first_seen;
  for (size_t i = 0; i < item_group.size(); ++i) {
    auto [it, fresh] = totals.try_emplace(item_group[i], 0, 0);
    if (fresh) first_seen.push_back(item_group[i]);
    it->second.first += item_value[i];
    ++it->second.second;
  }
  auto stat = [](int64_t g, int64_t s, int64_t n) -> Tuple {
    return {Value(g), Value(s), Value(n)};
  };
  const int64_t present = first_seen[3];   // a stat fact of the database
  const int64_t derived = first_seen[10];  // a stat fact of the seed rule
  auto load = [&](FactDb* db) {
    db->Add("stat", stat(present, totals[present].first,
                         totals[present].second));
    db->Add("seed", stat(1000, 1, 1));
    db->Add("seed", stat(derived, totals[derived].first,
                         totals[derived].second));
    for (size_t i = 0; i < item_group.size(); ++i) {
      db->Add("item", {Value(static_cast<int64_t>(i)), Value(item_group[i]),
                       Value(item_value[i])});
    }
    db->Add("late", {Value(int64_t{2000})});
    db->Add("late", {Value(int64_t{1000})});
  };

  // The sequential order, appended by hand.
  FactDb expected_db;
  Relation& expected = expected_db.GetOrCreate("stat", 3);
  expected.Insert(stat(present, totals[present].first,
                       totals[present].second));
  expected.Insert(stat(1000, 1, 1));
  expected.Insert(stat(derived, totals[derived].first,
                       totals[derived].second));
  for (int64_t g : first_seen) {
    expected.Insert(stat(g, totals[g].first, totals[g].second));
  }
  expected.Insert(stat(2000, 0, 0));
  expected.Insert(stat(1000, 0, 0));
  ASSERT_EQ(first_seen.size(), static_cast<size_t>(kGroups));
  ASSERT_EQ(expected.size(), kGroups + 3u);  // two of the groups are there

  for (size_t threads : {1u, 2u, 4u}) {
    FactDb db;
    load(&db);
    EngineOptions options;
    options.num_threads = threads;
    Result<Program> parsed = ParseProgram(program);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Engine engine(*std::move(parsed), options);
    ASSERT_TRUE(engine.Run(&db).ok()) << "threads " << threads;
    EXPECT_EQ(engine.stats().strata, 1) << "threads " << threads;
    EXPECT_EQ(Rows(db, "stat"), Rows(expected_db, "stat"))
        << "threads " << threads;
  }
}

// Regression: int64 sum/prod aggregates must report overflow instead of
// wrapping (signed overflow is UB).
TEST(EngineParallelTest, IntegerOverflowInSumAggregateIsAnError) {
  FactDb db;
  db.Add("w", {Value("a"), Value(int64_t{9223372036854775807LL})});
  db.Add("w", {Value("b"), Value(int64_t{9223372036854775807LL})});
  Status s = RunProgram("w(k, v), t = sum(v, <k>) -> total(t).", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("overflow"), std::string::npos)
      << s.ToString();
}

TEST(EngineParallelTest, IntegerOverflowInProdAggregateIsAnError) {
  FactDb db;
  for (int64_t i = 2; i < 44; ++i) db.Add("w", {Value(i), Value(i)});
  Status s = RunProgram("w(k, v), t = prod(v, <k>) -> total(t).", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("overflow"), std::string::npos)
      << s.ToString();
}

// The Company-KG intensional programs, end to end through Algorithm 2:
// the parallel engine must materialize the same derived edges.
class IntensionalParallelTest : public ::testing::Test {
 protected:
  static pg::PropertyGraph MakeData() {
    finkg::GeneratorConfig config;
    config.num_companies = 120;
    config.num_persons = 180;
    config.seed = 99;
    return finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  }

  static std::multiset<std::pair<pg::NodeId, pg::NodeId>> EdgeSet(
      const pg::PropertyGraph& g, const std::string& label) {
    std::multiset<std::pair<pg::NodeId, pg::NodeId>> out;
    for (pg::EdgeId e : g.EdgesWithLabel(label)) {
      out.emplace(g.edge(e).from, g.edge(e).to);
    }
    return out;
  }

  // Runs `program` once with num_threads = 1 and once at each thread count
  // in `thread_counts`, and demands identical edge sets.
  static void CheckProgram(const char* program,
                           const std::vector<std::string>& labels,
                           const std::vector<const char*>& prereqs,
                           const std::vector<size_t>& thread_counts) {
    core::SuperSchema schema = finkg::CompanyKgSchema();
    pg::PropertyGraph seq = MakeData();
    instance::MaterializeOptions seq_opts;
    seq_opts.engine.num_threads = 1;
    // Prerequisite components (e.g. OWNS before close links) run
    // sequentially on both graphs so the inputs are identical.
    for (const char* prereq : prereqs) {
      ASSERT_TRUE(instance::Materialize(schema, prereq, &seq, seq_opts).ok());
    }
    auto seq_stats = instance::Materialize(schema, program, &seq, seq_opts);
    ASSERT_TRUE(seq_stats.ok()) << seq_stats.status().ToString();
    for (size_t threads : thread_counts) {
      pg::PropertyGraph par = MakeData();
      instance::MaterializeOptions par_opts;
      par_opts.engine.num_threads = threads;
      for (const char* prereq : prereqs) {
        ASSERT_TRUE(
            instance::Materialize(schema, prereq, &par, seq_opts).ok());
      }
      auto par_stats = instance::Materialize(schema, program, &par, par_opts);
      ASSERT_TRUE(par_stats.ok()) << par_stats.status().ToString();
      EXPECT_EQ(par_stats->engine_stats.threads_used, threads);
      for (const std::string& label : labels) {
        EXPECT_EQ(EdgeSet(seq, label), EdgeSet(par, label))
            << "label " << label << " threads " << threads;
        EXPECT_GT(EdgeSet(seq, label).size(), 0u) << "label " << label;
      }
    }
  }
};

TEST_F(IntensionalParallelTest, AllComponentsMatchAtSmallThreadCounts) {
  // The five Company-KG components in `kgmctl materialize all` order, at
  // 2 and 3 threads (the driver plus 1 or 2 pool helpers): every label's
  // node and edge counts, every derived edge set, every component's flush
  // counts and the CSV export of the final graph must equal the 1-thread
  // run's.
  core::SuperSchema schema = finkg::CompanyKgSchema();
  const char* components[] = {
      finkg::kOwnsProgram, finkg::kControlProgram,
      finkg::kStakeholdersProgram, finkg::kFamilyProgram,
      finkg::kCloseLinksProgram};
  struct Run {
    std::map<std::string, size_t> counts;
    std::map<std::string, std::multiset<std::pair<pg::NodeId, pg::NodeId>>>
        edges;
    std::map<std::string, std::string> csv;
  };
  auto run = [&](size_t threads) {
    Run out;
    pg::PropertyGraph data = MakeData();
    instance::MaterializeOptions options;
    options.engine.num_threads = threads;
    for (size_t c = 0; c < std::size(components); ++c) {
      auto stats = instance::Materialize(schema, components[c], &data,
                                         options);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      if (!stats.ok()) return out;
      EXPECT_EQ(stats->engine_stats.threads_used, threads);
      const std::string k = std::to_string(c) + ":";
      out.counts[k + "new_nodes"] = stats->new_nodes;
      out.counts[k + "new_edges"] = stats->new_edges;
      out.counts[k + "updated_properties"] = stats->updated_properties;
      out.counts[k + "facts_derived"] = stats->facts_derived;
      out.counts[k + "changed_labels"] = stats->changed_labels.size();
    }
    for (const std::string& l : data.NodeLabels()) {
      out.counts["node:" + l] = data.NodesWithLabel(l).size();
    }
    for (const std::string& l : data.EdgeLabels()) {
      out.counts["edge:" + l] = data.EdgesWithLabel(l).size();
      out.edges[l] = EdgeSet(data, l);
    }
    auto csv = translate::ExportCsv(schema, data);
    EXPECT_TRUE(csv.ok()) << csv.status().ToString();
    if (csv.ok()) out.csv = std::move(csv).value();
    return out;
  };
  Run seq = run(1);
  EXPECT_GT(seq.counts["edge:CLOSE_LINK"], 0u);
  for (size_t threads : {2, 3}) {
    Run par = run(threads);
    EXPECT_EQ(par.counts, seq.counts) << threads << " threads";
    EXPECT_TRUE(par.edges == seq.edges) << threads << " threads";
    // Row order too: the exported graph is byte-identical.
    ASSERT_EQ(par.csv.size(), seq.csv.size()) << threads << " threads";
    for (const auto& [file, doc] : seq.csv) {
      EXPECT_TRUE(par.csv[file] == doc) << file << " at " << threads
                                        << " threads";
    }
  }
}

TEST_F(IntensionalParallelTest, ControlProgramIsDeterministic) {
  CheckProgram(finkg::kControlProgram, {"CONTROLS"}, {}, {4, 8});
}

TEST_F(IntensionalParallelTest, CloseLinksProgramIsDeterministic) {
  CheckProgram(finkg::kCloseLinksProgram, {"IO", "CLOSE_LINK"},
               {finkg::kOwnsProgram}, {4, 8});
}

// One compiled engine serves concurrent runs: four threads run it at once,
// each on its own copy of the input, and every run derives the rows of a
// sequential run, in the same order, with the same counters.  The engine
// and its input are built as Materialize builds them: the generated views
// around the component, compiled against the loaded dictionary.
TEST_F(IntensionalParallelTest, OneEngineRunsConcurrently) {
  constexpr size_t kRunners = 4;
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = MakeData();
  // Close links reads the OWNS edges the owns component derives.
  ASSERT_TRUE(instance::Materialize(schema, finkg::kOwnsProgram, &data, {})
                  .ok());
  for (const char* sigma :
       {finkg::kControlProgram, finkg::kCloseLinksProgram}) {
    auto parsed = metalog::ParseMetaProgram(sigma);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto loaded = instance::LoadInstance(schema, data);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto in = instance::GenerateInputViews(schema, *parsed, 234);
    auto out = instance::GenerateOutputViews(schema, *parsed, 234);
    ASSERT_TRUE(in.ok() && out.ok());
    auto program =
        metalog::ParseMetaProgram(*in + "\n" + sigma + "\n" + *out);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    metalog::GraphCatalog catalog =
        metalog::GraphCatalog::FromGraph(loaded->dict);
    catalog.Merge(instance::SchemaCatalog(schema));
    auto compiled = metalog::CompileMeta(*std::move(program), catalog);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const Engine& engine = *compiled->engine;
    ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
    const FactDb input = metalog::EncodeGraph(loaded->dict, compiled->catalog);

    for (size_t threads : {1u, 2u}) {
      EngineOptions options;
      options.num_threads = threads;
      FactDb want = input.Clone();
      EngineStats want_stats;
      ASSERT_TRUE(engine.Run(&want, options, &want_stats).ok());
      ASSERT_GT(want_stats.facts_derived, 0u);

      std::vector<FactDb> dbs;
      for (size_t i = 0; i < kRunners; ++i) dbs.push_back(input.Clone());
      std::vector<EngineStats> stats(kRunners);
      std::vector<Status> status(kRunners);
      std::vector<std::thread> runners;
      for (size_t i = 0; i < kRunners; ++i) {
        runners.emplace_back([&, i] {
          status[i] = engine.Run(&dbs[i], options, &stats[i]);
        });
      }
      for (std::thread& t : runners) t.join();
      for (size_t i = 0; i < kRunners; ++i) {
        ASSERT_TRUE(status[i].ok()) << status[i].ToString();
        ExpectSameRows(want, dbs[i]);
        const EngineStats& got = stats[i];
        EXPECT_EQ(got.facts_derived, want_stats.facts_derived) << threads;
        EXPECT_EQ(got.rule_firings, want_stats.rule_firings) << threads;
        EXPECT_EQ(got.join_probes, want_stats.join_probes) << threads;
        EXPECT_EQ(got.iterations, want_stats.iterations) << threads;
        EXPECT_EQ(got.strata, want_stats.strata) << threads;
        EXPECT_EQ(got.threads_used, want_stats.threads_used) << threads;
        EXPECT_EQ(got.staged_inserts, want_stats.staged_inserts) << threads;
        EXPECT_EQ(got.staged_duplicates, want_stats.staged_duplicates)
            << threads;
        EXPECT_EQ(got.rule_firings_by_rule, want_stats.rule_firings_by_rule)
            << threads;
        EXPECT_EQ(got.rule_probes_by_rule, want_stats.rule_probes_by_rule)
            << threads;
      }
    }
  }
}

}  // namespace
}  // namespace kgm::vadalog
