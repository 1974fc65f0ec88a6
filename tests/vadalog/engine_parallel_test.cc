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
#include <vector>

#include "base/rng.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
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
// partitions plus the parallel group-emission round must be bit-identical
// to the sequential fold: same groups, same IEEE addition order.
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

}  // namespace
}  // namespace kgm::vadalog
