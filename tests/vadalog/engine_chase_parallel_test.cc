// Deterministic parallel chase: multi-threaded runs of existential programs
// must be bit-identical to num_threads = 1 — same relations, same row
// order, same Skolem terms — because every existential is a
// content-addressed Skolem term over the rule frontier and the driver
// inserts recorded facts in ascending (item, seq) order.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

// Row-order, Value-exact comparison: Skolem terms compare by interned id,
// so a term in a different row fails the test.
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

ChaseRun RunChase(const char* program_text,
                  const std::function<void(FactDb*)>& load, size_t threads) {
  ChaseRun run;
  load(&run.db);
  auto parsed = ParseProgram(program_text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EngineOptions options;
  options.num_threads = threads;
  Engine engine(std::move(parsed).value(), options);
  EXPECT_TRUE(engine.status().ok()) << engine.status().ToString();
  Status s = engine.Run(&run.db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  run.stats = engine.stats();
  return run;
}

// Recursive existential closure with automatic Skolem functors: every
// iteration both reads Skolem terms minted earlier and mints new ones.
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
  ChaseRun seq = RunChase(program, load, 1);
  ASSERT_GT(seq.db.Get("rel")->size(), 160u);
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunChase(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
    EXPECT_EQ(par.stats.facts_derived, seq.stats.facts_derived)
        << "threads " << threads;
  }
}

// Stratified aggregation feeding an existential head: group folds happen
// at the barrier in item order and the emissions replay in the same
// order, so the float sums and the Skolem terms over them agree.
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
  ChaseRun seq = RunChase(program, load, 1);
  ASSERT_EQ(seq.db.Get("total")->size(), 41u);
  for (size_t threads : {4u, 16u}) {
    ChaseRun par = RunChase(program, load, threads);
    ExpectBitIdentical(seq.db, par.db,
                       "threads=" + std::to_string(threads));
  }
}

// Oracle check on a closure whose two rules share one linker functor:
// `rel` projected to (x, y) is exactly the transitive closure of `edge`
// computed by a plain BFS, each pair carrying its own term skRel(x, y);
// the result is a model (re-running the program on it derives nothing),
// and 1 and 8 threads agree bit for bit.
TEST(ChaseParallelTest, ExistentialClosureMatchesBfsOracle) {
  const char* program = R"(
    edge(x, y) -> exists w = skRel(x, y) rel(x, y, w).
    rel(x, y, w), edge(y, z) -> exists v = skRel(x, z) rel(x, z, v).
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

  ChaseRun one = RunChase(program, load, 1);
  const Relation* rel = one.db.Get("rel");
  ASSERT_NE(rel, nullptr);
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (size_t i = 0; i < rel->size(); ++i) {
    const Tuple& t = rel->tuple(i);
    EXPECT_TRUE(pairs.emplace(t[0].AsInt(), t[1].AsInt()).second)
        << "pair derived twice at row " << i;
    ASSERT_TRUE(t[2].is_skolem()) << "row " << i;
    const SkolemTable& table = SkolemTable::Global();
    EXPECT_EQ(table.FunctorOf(t[2].AsSkolem()), "skRel") << "row " << i;
    EXPECT_EQ(table.ArgsOf(t[2].AsSkolem()),
              (std::vector<Value>{t[0], t[1]}))
        << "row " << i;
  }
  EXPECT_EQ(pairs, closure);

  // The chase result is a model: a second run over it derives nothing.
  ChaseRun again = RunChase(
      program, [&one](FactDb* db) { *db = one.db.Clone(); }, 1);
  EXPECT_EQ(again.stats.facts_derived, 0u);
  EXPECT_EQ(again.db.TotalFacts(), one.db.TotalFacts());

  ChaseRun eight = RunChase(program, load, 8);
  ExpectBitIdentical(one.db, eight.db, "threads=8");
  EXPECT_EQ(eight.stats.facts_derived, one.stats.facts_derived);
}

}  // namespace
}  // namespace kgm::vadalog
