// E3 — reasoner micro-benchmarks (google-benchmark).
//
// Covers the Vadalog engine primitives the paper's programs exercise:
// linear and non-linear transitive closure, the company-control program
// (Example 4.2) with monotonic aggregation, existential (Skolem) heads,
// and stratified negation.

#include <benchmark/benchmark.h>

#include "base/check.h"
#include "base/rng.h"
#include "finkg/generator.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace {

using namespace kgm;
using vadalog::FactDb;

void AddChain(FactDb* db, int64_t n) {
  for (int64_t i = 0; i + 1 < n; ++i) {
    db->Add("edge", {Value(i), Value(i + 1)});
  }
}

void BM_TransitiveClosureChain(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    FactDb db;
    AddChain(&db, n);
    Status s = vadalog::RunProgram(R"(
      edge(x, y) -> path(x, y).
      path(x, y), edge(y, z) -> path(x, z).
    )", &db);
    KGM_CHECK(s.ok());
    benchmark::DoNotOptimize(db.TotalFacts());
  }
  state.SetItemsProcessed(state.iterations() * n * (n - 1) / 2);
}
BENCHMARK(BM_TransitiveClosureChain)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Parallel fixpoint scaling: same non-linear closure, second argument is
// the worker count (1 = the barrier driver with every item run inline).
void BM_TransitiveClosureParallel(benchmark::State& state) {
  const int64_t n = state.range(0);
  vadalog::EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    Rng rng(7);
    for (int64_t i = 0; i < 2 * n; ++i) {
      db.Add("edge", {Value(static_cast<int64_t>(rng.NextBelow(n))),
                      Value(static_cast<int64_t>(rng.NextBelow(n)))});
    }
    state.ResumeTiming();
    Status s = vadalog::RunProgram(R"(
      edge(x, y) -> path(x, y).
      path(x, y), edge(y, z) -> path(x, z).
    )", &db, options);
    KGM_CHECK(s.ok());
    benchmark::DoNotOptimize(db.TotalFacts());
  }
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_TransitiveClosureParallel)
    ->Args({300, 1})->Args({300, 2})->Args({300, 4})->Args({300, 8})
    ->Unit(benchmark::kMillisecond);

void BM_TransitiveClosureRandom(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    Rng rng(7);
    for (int64_t i = 0; i < 2 * n; ++i) {
      db.Add("edge", {Value(static_cast<int64_t>(rng.NextBelow(n))),
                      Value(static_cast<int64_t>(rng.NextBelow(n)))});
    }
    state.ResumeTiming();
    Status s = vadalog::RunProgram(R"(
      edge(x, y) -> path(x, y).
      path(x, y), edge(y, z) -> path(x, z).
    )", &db);
    KGM_CHECK(s.ok());
  }
}
BENCHMARK(BM_TransitiveClosureRandom)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

// The Example 4.2 control program over the synthetic ownership network.
// Second argument is the engine worker count.
void BM_CompanyControl(benchmark::State& state) {
  const size_t companies = state.range(0);
  vadalog::EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  finkg::GeneratorConfig config;
  config.num_companies = companies;
  config.num_persons = companies;
  config.seed = 42;
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  size_t controls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    for (uint32_t c = 0; c < companies; ++c) {
      db.Add("company", {Value(static_cast<int64_t>(c))});
    }
    for (const finkg::Holding& h : net.holdings()) {
      if (!net.IsCompany(h.holder)) continue;
      db.Add("own", {Value(static_cast<int64_t>(h.holder)),
                     Value(static_cast<int64_t>(h.company)),
                     Value(h.pct)});
    }
    state.ResumeTiming();
    Status s = vadalog::RunProgram(R"(
      company(x) -> controls(x, x).
      controls(x, z), own(z, y, w), v = msum(w, <z>), v > 0.5
        -> controls(x, y).
    )", &db, options);
    KGM_CHECK(s.ok());
    controls = db.Get("controls")->size();
  }
  state.counters["controls"] = static_cast<double>(controls);
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_CompanyControl)
    ->Args({500, 1})->Args({2000, 1})->Args({8000, 1})
    ->Args({2000, 2})->Args({2000, 4})->Args({2000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ExistentialSkolemChase(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    for (int64_t i = 0; i < n; ++i) db.Add("node", {Value(i)});
    state.ResumeTiming();
    Status s = vadalog::RunProgram(R"(
      node(x) -> exists e edge_of(e, x).
      edge_of(e, x) -> tagged(e).
    )", &db);
    KGM_CHECK(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExistentialSkolemChase)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_StratifiedNegation(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    for (int64_t i = 0; i < n; ++i) {
      db.Add("node", {Value(i)});
      if (i % 3 == 0) db.Add("marked", {Value(i)});
    }
    state.ResumeTiming();
    Status s = vadalog::RunProgram(
        "node(x), not marked(x) -> unmarked(x).", &db);
    KGM_CHECK(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StratifiedNegation)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Second argument is the engine worker count: > 1 exercises the parallel
// scan partitions, the barrier fold and the parallel group-emission round.
void BM_StratifiedAggregation(benchmark::State& state) {
  const int64_t n = state.range(0);
  vadalog::EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    FactDb db;
    Rng rng(9);
    for (int64_t i = 0; i < n; ++i) {
      db.Add("holds", {Value(static_cast<int64_t>(rng.NextBelow(n / 4))),
                       Value(static_cast<int64_t>(rng.NextBelow(n / 8))),
                       Value(rng.NextDouble())});
    }
    state.ResumeTiming();
    Status s = vadalog::RunProgram(
        "holds(p, c, w), v = sum(w, <p>) -> total(c, v).", &db, options);
    KGM_CHECK(s.ok());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["threads"] = static_cast<double>(options.num_threads);
}
BENCHMARK(BM_StratifiedAggregation)
    ->Args({10000, 1})->Args({50000, 1})
    ->Args({50000, 2})->Args({50000, 4})->Args({50000, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
