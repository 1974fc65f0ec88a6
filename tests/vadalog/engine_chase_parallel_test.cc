// Deterministic parallel restricted chase: multi-threaded runs must be
// bit-identical to num_threads = 1 — same relations, same row order, and
// the same labeled-null ids — because workers only screen candidates
// against the frozen pre-barrier database while the driver re-checks and
// mints in ascending (item, seq) order.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

// Row-order, Value-exact comparison: LabeledNull equality is by id, so a
// single null minted in a different order fails the test.
void ExpectBitIdentical(const FactDb& want, const FactDb& got,
                        const std::string& label) {
  std::vector<std::string> preds = want.Predicates();
  for (const std::string& p : got.Predicates()) {
    bool known = false;
    for (const std::string& q : preds) known = known || q == p;
    EXPECT_TRUE(known) << label << ": unexpected predicate " << p;
  }
  for (const std::string& p : preds) {
    const Relation* a = want.Get(p);
    const Relation* b = got.Get(p);
    ASSERT_NE(b, nullptr) << label << ": missing predicate " << p;
    ASSERT_EQ(a->size(), b->size()) << label << ": size of " << p;
    for (size_t i = 0; i < a->size(); ++i) {
      ASSERT_TRUE(a->tuple(i) == b->tuple(i))
          << label << ": " << p << " row " << i << " differs";
    }
  }
}

struct ChaseRun {
  FactDb db;
  EngineStats stats;
};

ChaseRun RunRestricted(const char* program_text,
                       const std::function<void(FactDb*)>& load,
                       size_t threads) {
  ChaseRun run;
  load(&run.db);
  auto parsed = ParseProgram(program_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EngineOptions options;
  options.chase_mode = ChaseMode::kRestricted;
  options.num_threads = threads;
  Engine engine(std::move(parsed).value(), options);
  EXPECT_TRUE(engine.status().ok()) << engine.status().ToString();
  Status s = engine.Run(&run.db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  run.stats = engine.stats();
  return run;
}

// Recursive existential closure minting one automatic null per reachable
// pair: the heaviest shape the barrier chase handles, because every
// iteration both screens against earlier nulls and mints new ones.
TEST(ChaseParallelTest, ExistentialClosureBitIdenticalAcrossThreads) {
  const char* program = R"(
    edge(x, y) -> exists w rel(x, y, w).
    rel(x, y, w), edge(y, z) -> exists v rel(x, z, v).
  )";
  auto load = [](FactDb* db) {
    Rng rng(1234);
    for (int i = 0; i < 160; ++i) {
      auto a = static_cast<int64_t>(rng.NextBelow(60));
      auto b = static_cast<int64_t>(rng.NextBelow(60));
      db->Add("edge", {Value(a), Value(b)});
    }
  };
  ChaseRun seq = RunRestricted(program, load, 1);
  ASSERT_GT(seq.stats.nulls_minted, 0u);
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunRestricted(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
    EXPECT_EQ(par.stats.nulls_minted, seq.stats.nulls_minted)
        << "threads " << threads;
    EXPECT_EQ(par.stats.facts_derived, seq.stats.facts_derived)
        << "threads " << threads;
  }
}

// The chase counters are as deterministic as the outputs: repeated runs
// at one thread count screen, drop and re-check exactly the same firings.
TEST(ChaseParallelTest, ChaseCountersRepeatAtEachThreadCount) {
  const char* program = R"(
    edge(x, y) -> exists w rel(x, y, w).
    rel(x, y, w), edge(y, z) -> exists v rel(x, z, v).
  )";
  auto load = [](FactDb* db) {
    Rng rng(1234);
    for (int i = 0; i < 160; ++i) {
      auto a = static_cast<int64_t>(rng.NextBelow(60));
      auto b = static_cast<int64_t>(rng.NextBelow(60));
      db->Add("edge", {Value(a), Value(b)});
    }
  };
  auto counters = [](const EngineStats& s) {
    return std::vector<size_t>{s.chase_candidates,    s.chase_screened,
                               s.chase_deduped,       s.chase_rechecks,
                               s.chase_recheck_drops, s.nulls_minted};
  };
  for (size_t threads : {1u, 4u}) {
    std::vector<size_t> first =
        counters(RunRestricted(program, load, threads).stats);
    ASSERT_GT(first[2], 0u) << "no duplicate firing at " << threads;
    for (int run = 1; run < 3; ++run) {
      EXPECT_EQ(counters(RunRestricted(program, load, threads).stats), first)
          << "run " << run << " at " << threads << " threads";
    }
  }
}

// A head satisfied only when a repeated existential takes one value at
// every position: within one atom (q(x, z, z)) and across atoms
// (q(x, z), r(z, z)).  For `a` the stored rows bind z inconsistently, so
// only `a` mints a null; `b` is satisfied.
TEST(ChaseParallelTest, RepeatedExistentialSlotNeedsOneWitness) {
  struct Case {
    const char* program;
    std::vector<std::pair<std::string, Tuple>> facts;
    std::string pred;  // relation holding the minted null at position 1
  };
  const std::vector<Case> cases = {
      {"p(x) -> exists z q(x, z, z).",
       {{"p", {Value("a")}},
        {"p", {Value("b")}},
        {"q", {Value("a"), Value(int64_t{1}), Value(int64_t{2})}},
        {"q", {Value("b"), Value(int64_t{3}), Value(int64_t{3})}}},
       "q"},
      {"p(x) -> exists z q(x, z), r(z, z).",
       {{"p", {Value("a")}},
        {"p", {Value("b")}},
        {"q", {Value("a"), Value(int64_t{1})}},
        {"r", {Value(int64_t{1}), Value(int64_t{2})}},
        {"q", {Value("b"), Value(int64_t{3})}},
        {"r", {Value(int64_t{3}), Value(int64_t{3})}}},
       "q"},
  };
  for (const Case& c : cases) {
    auto load = [&c](FactDb* db) {
      for (const auto& [pred, tuple] : c.facts) db->Add(pred, tuple);
    };
    for (size_t threads : {1u, 4u}) {
      ChaseRun run = RunRestricted(c.program, load, threads);
      std::string label =
          std::string(c.program) + " at " + std::to_string(threads);
      EXPECT_EQ(run.stats.nulls_minted, 1u) << label;
      const Relation* rel = run.db.Get(c.pred);
      ASSERT_NE(rel, nullptr) << label;
      ASSERT_EQ(rel->size(), 3u) << label;
      const Tuple& minted = rel->tuple(2);
      EXPECT_TRUE(minted[0] == Value("a")) << label;
      EXPECT_TRUE(minted[1].is_labeled_null()) << label;
    }
  }
}

// Two rules whose heads overlap on the same existential atom: the second
// rule's candidates are screened against the frozen database (which does
// not yet hold the first rule's nulls) but re-checked at the barrier
// against the live database, so each x gets exactly one witness.
TEST(ChaseParallelTest, SameBarrierSatisfactionMintsOneWitness) {
  const char* program = R"(
    a(x) -> exists y p(x, y).
    b(x) -> exists y p(x, y).
  )";
  constexpr int64_t kN = 300;
  auto load = [](FactDb* db) {
    for (int64_t i = 0; i < kN; ++i) {
      db->Add("a", {Value(i)});
      db->Add("b", {Value(i)});
    }
  };
  ChaseRun seq = RunRestricted(program, load, 1);
  const Relation* p = seq.db.Get("p");
  ASSERT_NE(p, nullptr);
  // One witness per x: the second rule's kN candidates were all satisfied
  // by nulls minted earlier in the same barrier.
  EXPECT_EQ(p->size(), static_cast<size_t>(kN));
  EXPECT_EQ(seq.stats.nulls_minted, static_cast<size_t>(kN));
  EXPECT_EQ(seq.stats.chase_recheck_drops, static_cast<size_t>(kN));
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunRestricted(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
    EXPECT_EQ(par.stats.nulls_minted, static_cast<size_t>(kN));
    EXPECT_EQ(par.stats.chase_recheck_drops, static_cast<size_t>(kN));
  }
}

// Heads already satisfied by the extensional database are dropped by the
// read-only frozen screen in the workers, before any candidate is
// recorded.
TEST(ChaseParallelTest, FrozenScreenDropsSatisfiedHeads) {
  const char* program = "person(x) -> exists f father(x, f).";
  auto load = [](FactDb* db) {
    db->Add("person", {Value("bob")});
    db->Add("father", {Value("bob"), Value("abe")});
  };
  for (size_t threads : {1u, 8u}) {
    ChaseRun run = RunRestricted(program, load, threads);
    EXPECT_EQ(run.db.Get("father")->size(), 1u) << "threads " << threads;
    EXPECT_EQ(run.stats.nulls_minted, 0u) << "threads " << threads;
    EXPECT_EQ(run.stats.chase_screened, 1u) << "threads " << threads;
    EXPECT_EQ(run.stats.chase_candidates, 0u) << "threads " << threads;
  }
}

// A head mixing an explicit linker Skolem with an automatic null: Skolem
// ids come from the shared content-addressed table, null ids from the
// ordered replay; both must be independent of the worker count.
TEST(ChaseParallelTest, MixedNullAndSkolemHeadIsDeterministic) {
  const char* program =
      "n(x) -> exists e = skChase(x) exists o attr(x, e, o).";
  auto load = [](FactDb* db) {
    for (int64_t i = 0; i < 500; ++i) db->Add("n", {Value(i)});
  };
  ChaseRun seq = RunRestricted(program, load, 1);
  ASSERT_EQ(seq.db.Get("attr")->size(), 500u);
  EXPECT_EQ(seq.stats.nulls_minted, 500u);
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunRestricted(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
  }
}

// Stratified aggregation feeding an existential head: group folds happen
// at the barrier in item order and the emissions replay through the same
// ordered candidate path.
TEST(ChaseParallelTest, StratifiedAggregateIntoExistentialHead) {
  const char* program = R"(
    w(g, v), t = sum(v, <g>) -> exists e total(g, t, e).
  )";
  auto load = [](FactDb* db) {
    Rng rng(88);
    for (int64_t i = 0; i < 4000; ++i) {
      auto g = static_cast<int64_t>(rng.NextBelow(41));
      double v = 0.001 * static_cast<double>(rng.NextBelow(100000));
      db->Add("w", {Value(g), Value(v)});
    }
  };
  ChaseRun seq = RunRestricted(program, load, 1);
  ASSERT_EQ(seq.db.Get("total")->size(), 41u);
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunRestricted(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
  }
}

// Oracle check on the same closure program: `rel` projected to (x, y) is
// exactly the transitive closure of `edge` computed by a plain BFS, each
// pair carrying its own fresh null; the result is a model (re-running the
// program on it derives nothing), and 1 and 8 threads agree bit for bit.
TEST(ChaseParallelTest, ExistentialClosureMatchesBfsOracle) {
  const char* program = R"(
    edge(x, y) -> exists w rel(x, y, w).
    rel(x, y, w), edge(y, z) -> exists v rel(x, z, v).
  )";
  auto load = [](FactDb* db) {
    Rng rng(4242);
    for (int i = 0; i < 220; ++i) {
      auto a = static_cast<int64_t>(rng.NextBelow(70));
      auto b = static_cast<int64_t>(rng.NextBelow(70));
      db->Add("edge", {Value(a), Value(b)});
    }
  };
  FactDb input;
  load(&input);
  std::map<int64_t, std::vector<int64_t>> succ;
  const Relation* edge = input.Get("edge");
  for (size_t i = 0; i < edge->size(); ++i) {
    succ[edge->tuple(i)[0].AsInt()].push_back(edge->tuple(i)[1].AsInt());
  }
  std::set<std::pair<int64_t, int64_t>> closure;
  for (const auto& entry : succ) {
    std::set<int64_t> seen;
    std::vector<int64_t> frontier = {entry.first};
    while (!frontier.empty()) {
      auto it = succ.find(frontier.back());
      frontier.pop_back();
      if (it == succ.end()) continue;
      for (int64_t v : it->second) {
        if (seen.insert(v).second) frontier.push_back(v);
      }
    }
    for (int64_t v : seen) closure.emplace(entry.first, v);
  }
  ASSERT_GT(closure.size(), edge->size());

  ChaseRun one = RunRestricted(program, load, 1);
  const Relation* rel = one.db.Get("rel");
  ASSERT_NE(rel, nullptr);
  std::set<std::pair<int64_t, int64_t>> pairs;
  std::set<uint64_t> null_ids;
  for (size_t i = 0; i < rel->size(); ++i) {
    const Tuple& t = rel->tuple(i);
    EXPECT_TRUE(pairs.emplace(t[0].AsInt(), t[1].AsInt()).second)
        << "pair derived twice at row " << i;
    ASSERT_TRUE(t[2].is_labeled_null()) << "row " << i;
    EXPECT_TRUE(null_ids.insert(t[2].AsLabeledNull().id).second)
        << "null reused at row " << i;
  }
  EXPECT_EQ(pairs, closure);
  EXPECT_EQ(one.stats.nulls_minted, closure.size());

  // The chase result is a model: a second run over it fires no rule head.
  ChaseRun again = RunRestricted(
      program, [&one](FactDb* db) { *db = one.db.Clone(); }, 1);
  EXPECT_EQ(again.stats.facts_derived, 0u);
  EXPECT_EQ(again.stats.nulls_minted, 0u);
  EXPECT_EQ(again.db.TotalFacts(), one.db.TotalFacts());

  ChaseRun eight = RunRestricted(program, load, 8);
  ExpectBitIdentical(one.db, eight.db, "threads=8");
  EXPECT_EQ(eight.stats.nulls_minted, one.stats.nulls_minted);
}

// The Company-KG intensional programs under the restricted chase, end to
// end through Algorithm 2: derived edge sets must match the sequential
// run at every thread count.
class IntensionalRestrictedTest : public ::testing::Test {
 protected:
  static pg::PropertyGraph MakeData() {
    finkg::GeneratorConfig config;
    config.num_companies = 100;
    config.num_persons = 150;
    config.seed = 77;
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

  static void CheckProgram(const char* program,
                           const std::vector<std::string>& labels,
                           const std::vector<const char*>& prereqs = {}) {
    core::SuperSchema schema = finkg::CompanyKgSchema();
    pg::PropertyGraph seq = MakeData();
    instance::MaterializeOptions seq_opts;
    seq_opts.engine.chase_mode = ChaseMode::kRestricted;
    seq_opts.engine.num_threads = 1;
    for (const char* prereq : prereqs) {
      ASSERT_TRUE(instance::Materialize(schema, prereq, &seq, seq_opts).ok());
    }
    auto seq_stats = instance::Materialize(schema, program, &seq, seq_opts);
    ASSERT_TRUE(seq_stats.ok()) << seq_stats.status().ToString();
    for (size_t threads : {4u, 16u}) {
      pg::PropertyGraph par = MakeData();
      instance::MaterializeOptions par_opts;
      par_opts.engine.chase_mode = ChaseMode::kRestricted;
      par_opts.engine.num_threads = threads;
      for (const char* prereq : prereqs) {
        ASSERT_TRUE(
            instance::Materialize(schema, prereq, &par, seq_opts).ok());
      }
      auto par_stats = instance::Materialize(schema, program, &par, par_opts);
      ASSERT_TRUE(par_stats.ok()) << par_stats.status().ToString();
      for (const std::string& label : labels) {
        EXPECT_EQ(EdgeSet(seq, label), EdgeSet(par, label))
            << label << " at " << threads << " threads";
      }
    }
  }
};

TEST_F(IntensionalRestrictedTest, ControlProgramIsDeterministic) {
  CheckProgram(finkg::kControlProgram, {"CONTROLS"});
}

TEST_F(IntensionalRestrictedTest, CloseLinksProgramIsDeterministic) {
  CheckProgram(finkg::kCloseLinksProgram, {"IO", "CLOSE_LINK"},
               {finkg::kOwnsProgram});
}

}  // namespace
}  // namespace kgm::vadalog
