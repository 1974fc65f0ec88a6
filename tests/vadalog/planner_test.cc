// Cost-based join planning: greedy plans must change probe counts only,
// never output.  Materialization with plan_mode = kGreedy is required to be
// bit-identical to kOff at every thread count — including derived edge ids,
// which encode the emission order — over the Company-KG intensional
// programs; the planner's ordering, caching and replan behavior is unit
// tested directly against FactDb statistics.

#include "vadalog/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace kgm::vadalog {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (int64_t v : values) t.push_back(Value(v));
  return t;
}

// A closure workload whose written order is pathological: the label atom
// node(y) sits unbound before the edge atom that would bind y, so the
// written-order join scans all nodes per binding while a greedy plan probes
// the edge index first.
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

// Output is the same at every thread count, so greedy at any count must
// reproduce plan-off at that count and plan-off at one thread, row order
// included.
TEST(PlannerDeterminismTest, GreedyBitIdenticalToOffAtEveryThreadCount) {
  std::string one_thread;
  for (size_t threads : {1u, 4u, 16u}) {
    EngineOptions off;
    off.num_threads = threads;
    FactDb off_db = LabeledGraph(80, 200, 17);
    EngineStats off_stats;
    {
      Program p = ParseProgram(kLabeledClosure).value();
      Engine engine(std::move(p), off);
      ASSERT_TRUE(engine.Run(&off_db).ok());
      off_stats = engine.stats();
    }
    FactDb db = LabeledGraph(80, 200, 17);
    EngineOptions greedy = off;
    greedy.plan_mode = PlanMode::kGreedy;
    Program p = ParseProgram(kLabeledClosure).value();
    Engine engine(std::move(p), greedy);
    ASSERT_TRUE(engine.Run(&db).ok());
    // DebugString includes canonical row order, so this is bit-identity,
    // not set equality.
    EXPECT_EQ(db.DebugString(), off_db.DebugString()) << "threads " << threads;
    if (threads == 1) one_thread = off_db.DebugString();
    EXPECT_EQ(off_db.DebugString(), one_thread) << "threads " << threads;
    EXPECT_TRUE(engine.stats().planner_enabled);
    EXPECT_GT(engine.stats().plans_built, 0u);
    EXPECT_GT(engine.stats().plans_reordered, 0u);
    // The whole point: strictly fewer candidate rows examined.
    EXPECT_LT(engine.stats().join_probes, off_stats.join_probes)
        << "threads " << threads;
  }
}

TEST(PlannerDeterminismTest, GreedyBitIdenticalUnderRestrictedChase) {
  // Restricted-chase existential rules are excluded from reordering but
  // the rest of the program still plans; null ids must stay identical.
  const char* program = R"(
    node(x), node(y), edge(x, y) -> exists w owner(x, w), reach(x, y).
    node(x), node(z), reach(x, y), edge(y, z) -> reach(x, z).
  )";
  for (size_t threads : {1u, 4u}) {
    EngineOptions off;
    off.num_threads = threads;
    off.chase_mode = ChaseMode::kRestricted;
    FactDb reference = LabeledGraph(40, 90, 5);
    ASSERT_TRUE(RunProgram(program, &reference, off).ok());
    FactDb db = LabeledGraph(40, 90, 5);
    EngineOptions greedy = off;
    greedy.plan_mode = PlanMode::kGreedy;
    ASSERT_TRUE(RunProgram(program, &db, greedy).ok());
    EXPECT_EQ(db.DebugString(), reference.DebugString())
        << "threads " << threads;
  }
}

// The Company-KG programs end to end through the MTV pipeline: derived
// edge ids encode emission order, so comparing full edge sequences (id,
// endpoints) asserts bit-identity of the materialization.
class IntensionalPlannerTest : public ::testing::Test {
 protected:
  static pg::PropertyGraph MakeData() {
    finkg::GeneratorConfig config;
    config.num_companies = 100;
    config.num_persons = 150;
    config.seed = 2022;
    return finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
  }

  static std::vector<std::tuple<pg::EdgeId, pg::NodeId, pg::NodeId>>
  EdgeSequence(const pg::PropertyGraph& g, const std::string& label) {
    std::vector<std::tuple<pg::EdgeId, pg::NodeId, pg::NodeId>> out;
    for (pg::EdgeId e : g.EdgesWithLabel(label)) {
      out.emplace_back(e, g.edge(e).from, g.edge(e).to);
    }
    return out;
  }

  static void CheckProgram(const char* program,
                           const std::vector<std::string>& labels,
                           const std::vector<const char*>& prereqs,
                           bool expect_reorder) {
    core::SuperSchema schema = finkg::CompanyKgSchema();
    // Emission order — and hence derived edge ids — is a per-thread-count
    // contract, so each greedy run compares against an off run at the SAME
    // thread count.  Prereq strata materialize identically on both sides
    // (single-threaded, plan off).
    instance::MaterializeOptions prereq_opts;
    prereq_opts.engine.num_threads = 1;
    for (size_t threads : {1u, 4u, 16u}) {
      pg::PropertyGraph off_graph = MakeData();
      instance::MaterializeOptions off_opts;
      off_opts.engine.num_threads = threads;
      for (const char* prereq : prereqs) {
        ASSERT_TRUE(
            instance::Materialize(schema, prereq, &off_graph, prereq_opts)
                .ok());
      }
      auto off_stats =
          instance::Materialize(schema, program, &off_graph, off_opts);
      ASSERT_TRUE(off_stats.ok()) << off_stats.status().ToString();

      pg::PropertyGraph g = MakeData();
      instance::MaterializeOptions opts = off_opts;
      opts.engine.plan_mode = PlanMode::kGreedy;
      for (const char* prereq : prereqs) {
        ASSERT_TRUE(
            instance::Materialize(schema, prereq, &g, prereq_opts).ok());
      }
      auto stats = instance::Materialize(schema, program, &g, opts);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_TRUE(stats->engine_stats.planner_enabled);
      if (expect_reorder) {
        EXPECT_GT(stats->engine_stats.plans_reordered, 0u)
            << "threads " << threads;
        EXPECT_LT(stats->engine_stats.join_probes,
                  off_stats->engine_stats.join_probes)
            << "threads " << threads;
      }
      for (const std::string& label : labels) {
        EXPECT_EQ(EdgeSequence(g, label), EdgeSequence(off_graph, label))
            << "label " << label << " threads " << threads;
        EXPECT_GT(EdgeSequence(g, label).size(), 0u) << "label " << label;
      }
    }
  }
};

TEST_F(IntensionalPlannerTest, ControlProgramBitIdentical) {
  // The control program's strata are aggregate-heavy (monotonic msum), so
  // most rules only get index-vs-scan selection — output must still match.
  CheckProgram(finkg::kControlProgram, {"CONTROLS"}, {},
               /*expect_reorder=*/false);
}

TEST_F(IntensionalPlannerTest, CloseLinksProgramBitIdenticalAndCheaper) {
  CheckProgram(finkg::kCloseLinksProgram, {"IO", "CLOSE_LINK"},
               {finkg::kOwnsProgram}, /*expect_reorder=*/true);
}

// --- planner unit tests ------------------------------------------------------

// Three-literal shape mirroring an MTV-translated relationship rule:
// label_a(x), label_b(y), rel(x, y) with rel selective through its index.
std::vector<RuleDesc> LabelEdgeRule() {
  RuleDesc d;
  d.rule_index = 0;
  d.positives.push_back(PlanLiteral{"label_a", {PlanArg{false, 0}}});
  d.positives.push_back(PlanLiteral{"label_b", {PlanArg{false, 1}}});
  d.positives.push_back(
      PlanLiteral{"rel", {PlanArg{false, 0}, PlanArg{false, 1}}});
  d.reorderable = true;
  return {d};
}

FactDb LabelEdgeDb(int64_t labels, int64_t edges) {
  FactDb db;
  for (int64_t i = 0; i < labels; ++i) {
    db.Add("label_a", {Value(i)});
    db.Add("label_b", {Value(i)});
  }
  for (int64_t i = 0; i < edges; ++i) {
    db.Add("rel", {Value(i % labels), Value((i * 7) % labels)});
  }
  return db;
}

TEST(JoinPlannerTest, GreedyMovesEdgeBeforeUnboundLabel) {
  FactDb db = LabelEdgeDb(500, 800);
  JoinPlanner planner(PlanMode::kGreedy, LabelEdgeRule());
  const JoinPlan* plan =
      planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->order.size(), 3u);
  // kFull pins written literal 0; the edge atom (written index 2) must
  // come before the unbound label_b scan (written index 1).
  EXPECT_EQ(plan->order[0].literal, 0u);
  EXPECT_EQ(plan->order[1].literal, 2u);
  EXPECT_EQ(plan->order[2].literal, 1u);
  EXPECT_TRUE(plan->reordered);
  EXPECT_LT(plan->est_probes, plan->est_probes_written);
  // The edge probe is indexed on x (bit 0); label_b is fully bound by then.
  EXPECT_EQ(plan->order[1].mask, uint64_t{1});
  EXPECT_TRUE(plan->order[1].use_index);
}

TEST(JoinPlannerTest, OffModeAndIneligibleRulesReturnUsablePlans) {
  FactDb db = LabelEdgeDb(50, 80);
  JoinPlanner off(PlanMode::kOff, LabelEdgeRule());
  EXPECT_EQ(off.PlanFor(0, PlanRegime::kFull, -1, db, nullptr), nullptr);

  std::vector<RuleDesc> rules = LabelEdgeRule();
  rules[0].reorderable = false;
  JoinPlanner greedy(PlanMode::kGreedy, std::move(rules));
  const JoinPlan* plan =
      greedy.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->reordered);
  for (size_t i = 0; i < plan->order.size(); ++i) {
    EXPECT_EQ(plan->order[i].literal, i);
  }
}

TEST(JoinPlannerTest, CacheHitsAndSizeDriftReplans) {
  FactDb db = LabelEdgeDb(100, 200);
  JoinPlanner planner(PlanMode::kGreedy, LabelEdgeRule());
  const JoinPlan* p1 =
      planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(planner.plans_built(), 1u);
  EXPECT_EQ(planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr), p1);
  EXPECT_EQ(planner.cache_hits(), 1u);
  EXPECT_EQ(planner.replans(), 0u);
  // Grow rel past the 2x + 16 drift threshold: the cached plan rebuilds.
  Relation* rel = db.GetMutable("rel");
  ASSERT_NE(rel, nullptr);
  for (int64_t i = 0; i < 500; ++i) rel->Insert(T({i + 1000, i + 2000}));
  planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  EXPECT_EQ(planner.replans(), 1u);
  EXPECT_EQ(planner.plans_built(), 2u);
}

TEST(JoinPlannerTest, StaleStatsAfterEraseForceReplanAndRefresh) {
  FactDb db = LabelEdgeDb(100, 200);
  JoinPlanner planner(PlanMode::kGreedy, LabelEdgeRule());
  planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  Relation* rel = db.GetMutable("rel");
  ASSERT_NE(rel, nullptr);
  rel->EraseTuples({rel->tuple(0)});
  ASSERT_TRUE(rel->stats_stale());
  planner.PlanFor(0, PlanRegime::kFull, -1, db, nullptr);
  EXPECT_EQ(planner.replans(), 1u);
  // PlanFor refreshed the registers as a side effect.
  EXPECT_FALSE(rel->stats_stale());
}

TEST(JoinPlannerTest, DeltaScanPinsDeltaLiteralOutermost) {
  FactDb db = LabelEdgeDb(500, 800);
  Relation delta(2);
  delta.Insert(T({3, 21}));
  delta.Insert(T({4, 28}));
  JoinPlanner planner(PlanMode::kGreedy, LabelEdgeRule());
  const JoinPlan* plan =
      planner.PlanFor(0, PlanRegime::kDeltaScan, 2, db, &delta);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->order.size(), 3u);
  EXPECT_EQ(plan->order[0].literal, 2u);  // delta first
  // Both labels are bound once the delta row binds x and y.
  EXPECT_EQ(plan->order[1].mask, uint64_t{1});
  EXPECT_EQ(plan->order[2].mask, uint64_t{1});
}

TEST(JoinPlannerTest, DeltaPreboundTreatsDeltaSlotsAsBound) {
  FactDb db = LabelEdgeDb(500, 800);
  Relation delta(2);
  delta.Insert(T({3, 21}));
  JoinPlanner planner(PlanMode::kGreedy, LabelEdgeRule());
  const JoinPlan* plan =
      planner.PlanFor(0, PlanRegime::kDeltaPrebound, 2, db, &delta);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->order.size(), 3u);
  EXPECT_EQ(plan->order[0].literal, 2u);
  // The delta literal is a fully bound containment probe.
  EXPECT_EQ(plan->order[0].mask, uint64_t{3});
  EXPECT_LE(plan->order[0].est_rows, 1.0);
}

// DeltaEvaluator under greedy planning: rule-at-a-time emissions must match
// the written-order evaluator exactly (the DRed maintainer depends on it).
TEST(PlannerDeltaEvaluatorTest, EvalRuleDeltaMatchesOffMode) {
  const char* program = R"(
    node(x), node(z), reach(x, y), edge(y, z) -> reach(x, z).
  )";
  auto run = [&](PlanMode mode, std::vector<std::string>* emissions) {
    FactDb db = LabeledGraph(60, 140, 9);
    EngineOptions base;
    base.num_threads = 1;
    ASSERT_TRUE(RunProgram(kLabeledClosure, &db, base).ok())
        << "seed materialization failed";
    EngineOptions opts;
    opts.plan_mode = mode;
    Engine engine(ParseProgram(program).value(), opts);
    ASSERT_TRUE(engine.status().ok());
    DeltaEvaluator eval(&engine, &db);
    ASSERT_TRUE(eval.status().ok());
    std::map<std::string, Relation> delta_rels;
    Relation& delta = delta_rels.emplace("reach", Relation(2)).first->second;
    for (int64_t i = 0; i < 10; ++i) delta.Insert(T({i, (i * 3) % 60}));
    ASSERT_TRUE(eval.EvalRuleDelta(0, 2, delta_rels,
                                   [&](const std::string& pred, Tuple t) {
                                     std::string s = pred;
                                     for (const Value& v : t) {
                                       s += "|" + v.ToString();
                                     }
                                     emissions->push_back(std::move(s));
                                   })
                    .ok());
  };
  std::vector<std::string> off;
  std::vector<std::string> greedy;
  run(PlanMode::kOff, &off);
  run(PlanMode::kGreedy, &greedy);
  EXPECT_FALSE(off.empty());
  EXPECT_EQ(off, greedy);  // same emissions in the same order
}

}  // namespace
}  // namespace kgm::vadalog
