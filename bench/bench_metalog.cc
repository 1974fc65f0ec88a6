// E4 — MetaLog translation and path-pattern evaluation (google-benchmark).
//
// Measures MTV compilation of the Section 4 example programs and the
// evaluation of the Example 4.3 DESCFROM closure on generalization chains
// of growing depth.

#include <benchmark/benchmark.h>

#include "base/check.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "metalog/runner.h"

namespace {

using namespace kgm;

const char kControlSource[] = R"(
  (x: Business) -> exists c (x)[c: CONTROLS](x).
  (x: Business)[: CONTROLS](z: Business)
      [: OWNS; percentage: w](y: Business),
  v = msum(w, <z>), v > 0.5 -> exists c (x)[c: CONTROLS](y).
)";

const char kDescFromSource[] = R"(
  (x: SM_Node) ([: SM_CHILD]- / [: SM_PARENT])* (y: SM_Node)
    -> exists w (x)[w: DESCFROM](y).
)";

metalog::GraphCatalog BusinessCatalog() {
  metalog::GraphCatalog c;
  c.AddNodeLabel("Business", {"name"});
  c.AddEdgeLabel("OWNS", {"percentage"});
  c.AddEdgeLabel("CONTROLS");
  return c;
}

void BM_ParseMetaLog(benchmark::State& state) {
  for (auto _ : state) {
    auto program = metalog::ParseMetaProgram(kControlSource);
    KGM_CHECK(program.ok());
    benchmark::DoNotOptimize(program->rules.size());
  }
}
BENCHMARK(BM_ParseMetaLog)->Unit(benchmark::kMicrosecond);

void BM_MtvTranslateControl(benchmark::State& state) {
  auto program = metalog::ParseMetaProgram(kControlSource).value();
  metalog::GraphCatalog catalog = BusinessCatalog();
  for (auto _ : state) {
    auto result = metalog::TranslateMetaProgram(program, catalog);
    KGM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->program.rules.size());
  }
}
BENCHMARK(BM_MtvTranslateControl)->Unit(benchmark::kMicrosecond);

void BM_MtvTranslateStar(benchmark::State& state) {
  auto program = metalog::ParseMetaProgram(kDescFromSource).value();
  metalog::GraphCatalog catalog;
  catalog.AddNodeLabel("SM_Node", {"name"});
  catalog.AddEdgeLabel("SM_CHILD");
  catalog.AddEdgeLabel("SM_PARENT");
  catalog.AddEdgeLabel("DESCFROM");
  for (auto _ : state) {
    auto result = metalog::TranslateMetaProgram(program, catalog);
    KGM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->helper_predicates.size());
  }
}
BENCHMARK(BM_MtvTranslateStar)->Unit(benchmark::kMicrosecond);

// DESCFROM over a generalization chain of depth D: D*(D+1)/2 proper pairs
// plus D+1 reflexive ones.
void BM_DescFromChain(benchmark::State& state) {
  const int64_t depth = state.range(0);
  size_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pg::PropertyGraph g;
    pg::NodeId prev = g.AddNode("SM_Node", {{"name", Value(int64_t{0})}});
    for (int64_t i = 1; i <= depth; ++i) {
      pg::NodeId next = g.AddNode("SM_Node", {{"name", Value(i)}});
      pg::NodeId gen = g.AddNode("SM_Generalization");
      g.AddEdge(gen, prev, "SM_PARENT");
      g.AddEdge(gen, next, "SM_CHILD");
      prev = next;
    }
    state.ResumeTiming();
    auto result = metalog::RunMetaLogSource(kDescFromSource, &g);
    KGM_CHECK(result.ok());
    edges = g.EdgesWithLabel("DESCFROM").size();
  }
  state.counters["descfrom_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_DescFromChain)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Reflexive vs the paper's published non-reflexive beta translation
// (ablation for DESIGN.md decision 3): the one caller that compiles with
// non-default MtvOptions, through CompileMeta, then runs the compilation.
void BM_DescFromNonReflexive(benchmark::State& state) {
  const int64_t depth = state.range(0);
  auto program = metalog::ParseMetaProgram(kDescFromSource).value();
  for (auto _ : state) {
    state.PauseTiming();
    pg::PropertyGraph g;
    pg::NodeId prev = g.AddNode("SM_Node", {{"name", Value(int64_t{0})}});
    for (int64_t i = 1; i <= depth; ++i) {
      pg::NodeId next = g.AddNode("SM_Node", {{"name", Value(i)}});
      pg::NodeId gen = g.AddNode("SM_Generalization");
      g.AddEdge(gen, prev, "SM_PARENT");
      g.AddEdge(gen, next, "SM_CHILD");
      prev = next;
    }
    state.ResumeTiming();
    auto compiled =
        metalog::CompileMeta(program, metalog::GraphCatalog::FromGraph(g),
                             {.reflexive_star = false});
    KGM_CHECK(compiled.ok());
    auto result = metalog::RunCompiledMeta(*compiled, &g);
    KGM_CHECK(result.ok());
  }
}
BENCHMARK(BM_DescFromNonReflexive)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
