// E5/E6/E10 — SSST translation benchmarks (google-benchmark).
//
// Times the Figure 6 (PG) and Figure 8 (relational) translations of the
// Company KG, plus the declarative-vs-native ablation (E10) on synthetic
// super-schemas of growing size and hierarchy depth.

#include <benchmark/benchmark.h>

#include "base/check.h"
#include "finkg/company_kg.h"
#include "translate/ssst.h"

namespace {

using namespace kgm;

// A synthetic super-schema: `width` independent hierarchies of `depth`
// levels, each node with 3 attributes, one edge per adjacent pair.
core::SuperSchema SyntheticSchema(int width, int depth) {
  core::SuperSchema s("synthetic");
  for (int w = 0; w < width; ++w) {
    std::string root = "N" + std::to_string(w) + "_0";
    s.AddNode(root, {core::IdAttr("id"), core::Attr("a"),
                     core::OptAttr("b", core::AttrType::kInt)});
    for (int d = 1; d < depth; ++d) {
      std::string name = "N" + std::to_string(w) + "_" + std::to_string(d);
      std::string parent =
          "N" + std::to_string(w) + "_" + std::to_string(d - 1);
      s.AddNode(name, {core::Attr("x" + std::to_string(d),
                                  core::AttrType::kDouble)});
      s.AddGeneralization(parent, {name}, false, true);
    }
    if (w > 0) {
      s.AddEdge("E" + std::to_string(w), "N" + std::to_string(w - 1) + "_0",
                root, core::Cardinality::ZeroOrMore(),
                core::Cardinality::ZeroOrMore(),
                {core::Attr("weight", core::AttrType::kDouble)});
    }
  }
  KGM_CHECK(s.Validate().ok());
  return s;
}

void BM_PgDeclarativeCompanyKg(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  for (auto _ : state) {
    auto result = translate::TranslateToPgDeclarative(schema);
    KGM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->node_types.size());
  }
}
BENCHMARK(BM_PgDeclarativeCompanyKg)->Unit(benchmark::kMillisecond);

void BM_PgNativeCompanyKg(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  for (auto _ : state) {
    auto result = translate::TranslateToPgNative(schema);
    KGM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->node_types.size());
  }
}
BENCHMARK(BM_PgNativeCompanyKg)->Unit(benchmark::kMillisecond);

void BM_PgDeclarativeSynthetic(benchmark::State& state) {
  core::SuperSchema schema =
      SyntheticSchema(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto result = translate::TranslateToPgDeclarative(schema);
    KGM_CHECK(result.ok());
  }
  state.counters["nodes"] = static_cast<double>(schema.nodes().size());
}
BENCHMARK(BM_PgDeclarativeSynthetic)
    ->Args({4, 2})
    ->Args({8, 3})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PgNativeSynthetic(benchmark::State& state) {
  core::SuperSchema schema =
      SyntheticSchema(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto result = translate::TranslateToPgNative(schema);
    KGM_CHECK(result.ok());
  }
}
BENCHMARK(BM_PgNativeSynthetic)
    ->Args({4, 2})
    ->Args({8, 3})
    ->Args({16, 4})
    ->Unit(benchmark::kMillisecond);

void BM_RelationalCompanyKg(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  for (auto _ : state) {
    auto result = translate::TranslateToRelational(schema);
    KGM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->size());
  }
}
BENCHMARK(BM_RelationalCompanyKg)->Unit(benchmark::kMicrosecond);

void BM_CsvCompanyKg(benchmark::State& state) {
  core::SuperSchema schema = finkg::CompanyKgSchema();
  for (auto _ : state) {
    auto files = translate::TranslateToCsv(schema);
    benchmark::DoNotOptimize(files.size());
  }
}
BENCHMARK(BM_CsvCompanyKg)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
