// E9 — instance views and Algorithm 2 phases (google-benchmark).
//
// Measures view generation (static analysis of Sigma), instance loading
// into a dictionary graph and straight into facts, and the end-to-end
// materialization of the derived-OWNS component at growing data sizes.

#include <benchmark/benchmark.h>

#include "base/check.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "metalog/parser.h"

namespace {

using namespace kgm;

void BM_GenerateViews(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  auto sigma = metalog::ParseMetaProgram(finkg::kControlProgram).value();
  for (auto _ : state) {
    auto in = instance::GenerateInputViews(schema, sigma, 234);
    auto out = instance::GenerateOutputViews(schema, sigma, 234);
    KGM_CHECK(in.ok() && out.ok());
    benchmark::DoNotOptimize(in->size() + out->size());
  }
}
BENCHMARK(BM_GenerateViews)->Unit(benchmark::kMicrosecond);

pg::PropertyGraph MakeInstance(size_t companies) {
  finkg::GeneratorConfig config;
  config.num_companies = companies;
  config.num_persons = companies * 3 / 2;
  config.seed = 42;
  return finkg::ShareholdingNetwork::Generate(config).ToInstanceGraph();
}

void BM_LoadInstance(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = MakeInstance(state.range(0));
  for (auto _ : state) {
    auto loaded = instance::LoadInstance(schema, data);
    KGM_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->loaded_attributes);
  }
  state.counters["nodes"] = static_cast<double>(data.num_nodes());
}
BENCHMARK(BM_LoadInstance)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// The same load written straight into facts, as Materialize loads it.
void BM_LoadInstanceFacts(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  pg::PropertyGraph data = MakeInstance(state.range(0));
  for (auto _ : state) {
    auto loaded = instance::LoadInstanceFacts(schema, data);
    KGM_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->loaded_attributes);
  }
  state.counters["nodes"] = static_cast<double>(data.num_nodes());
}
BENCHMARK(BM_LoadInstanceFacts)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_MaterializeOwns(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  size_t new_edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pg::PropertyGraph data = MakeInstance(state.range(0));
    state.ResumeTiming();
    auto stats = instance::Materialize(schema, finkg::kOwnsProgram, &data);
    KGM_CHECK(stats.ok());
    new_edges = stats->new_edges;
  }
  state.counters["owns_edges"] = static_cast<double>(new_edges);
}
BENCHMARK(BM_MaterializeOwns)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
