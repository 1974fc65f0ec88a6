// Machine-readable reasoner benchmark: runs the finkg intensional suite at
// 1 and 8 engine threads and writes BENCH_reasoner.json so the perf
// trajectory can be tracked across PRs.  Exits non-zero when the
// restricted-chase runs disagree on facts_derived or nulls_minted across
// thread counts (the chase's output must not depend on them).
//
// Usage: reasoner_perf_report [output.json] [companies] [persons]
// Default output file: BENCH_reasoner.json in the working directory.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "vadalog/engine.h"
#include "vadalog/parser.h"

namespace {

// Minimal JSON emission: everything we write is numbers, booleans and
// identifier-safe strings, so escaping is not needed.
struct JsonWriter {
  FILE* f;
  int depth = 0;
  bool first = true;

  void Indent() {
    for (int i = 0; i < depth; ++i) std::fputs("  ", f);
  }
  void Comma() {
    if (!first) std::fputs(",\n", f);
    first = false;
    Indent();
  }
  void Open(const char* key, char bracket) {
    Comma();
    if (key != nullptr) std::fprintf(f, "\"%s\": %c\n", key, bracket);
    else std::fprintf(f, "%c\n", bracket);
    ++depth;
    first = true;
  }
  void Close(char bracket) {
    std::fputc('\n', f);
    --depth;
    Indent();
    std::fputc(bracket, f);
    first = false;
  }
  void Field(const char* key, double v) {
    Comma();
    std::fprintf(f, "\"%s\": %.6f", key, v);
  }
  void Field(const char* key, size_t v) {
    Comma();
    std::fprintf(f, "\"%s\": %zu", key, v);
  }
  void Field(const char* key, const char* v) {
    Comma();
    std::fprintf(f, "\"%s\": \"%s\"", key, v);
  }
};

// Restricted-chase existential benchmark: a dense recursive closure whose
// head mints one automatic null per reachable pair, so every iteration
// both screens against earlier nulls and mints new ones.
struct ChaseBenchResult {
  double reason_seconds = 0;
  kgm::vadalog::EngineStats stats;
  bool ok = false;
};

ChaseBenchResult RunChaseBench(size_t nodes, size_t edges, size_t threads) {
  using namespace kgm;
  using namespace kgm::vadalog;
  ChaseBenchResult out;
  FactDb db;
  Rng rng(4051);
  for (size_t i = 0; i < edges; ++i) {
    auto a = static_cast<int64_t>(rng.NextBelow(nodes));
    auto b = static_cast<int64_t>(rng.NextBelow(nodes));
    db.Add("edge", {Value(a), Value(b)});
  }
  // Conjunctive existential heads: satisfaction needs a witness w with
  // rel(x, y, w) AND mark(w), so every head check is a two-atom
  // backtracking search.  The barrier chase pays a hash probe per
  // duplicate of the ~600k firings and the expensive screen only per
  // distinct head.
  auto parsed = ParseProgram(
      "edge(x, y) -> exists w rel(x, y, w), mark(w).\n"
      "rel(x, y, w), edge(y, z) -> exists v rel(x, z, v), mark(v).\n");
  if (!parsed.ok()) {
    std::fprintf(stderr, "chase bench parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return out;
  }
  EngineOptions options;
  options.chase_mode = ChaseMode::kRestricted;
  options.num_threads = threads;
  Engine engine(std::move(*parsed), options);
  if (!engine.status().ok()) return out;
  auto start = std::chrono::steady_clock::now();
  Status s = engine.Run(&db);
  auto stop = std::chrono::steady_clock::now();
  if (!s.ok()) {
    std::fprintf(stderr, "chase bench run failed: %s\n", s.ToString().c_str());
    return out;
  }
  out.reason_seconds = std::chrono::duration<double>(stop - start).count();
  out.stats = engine.stats();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgm;
  const char* out_path = argc > 1 ? argv[1] : "BENCH_reasoner.json";
  finkg::GeneratorConfig config;
  config.num_companies = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 400;
  config.num_persons = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 600;
  config.seed = 2022;

  core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);

  struct Step {
    const char* name;
    const char* program;
  };
  const Step steps[] = {
      {"owns", finkg::kOwnsProgram},
      {"controls", finkg::kControlProgram},
      {"stakeholders", finkg::kStakeholdersProgram},
      {"close_links", finkg::kCloseLinksProgram},
  };
  const size_t thread_counts[] = {1, 8};

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  JsonWriter w{f};
  w.Open(nullptr, '{');
  w.Field("benchmark", "reasoner_intensional_suite");
  w.Field("companies", static_cast<size_t>(config.num_companies));
  w.Field("persons", static_cast<size_t>(config.num_persons));
  w.Field("holdings", net.holdings().size());
  w.Open("runs", '[');
  for (size_t threads : thread_counts) {
    // Fresh data per configuration: components build on OWNS et al., so
    // reusing a graph would shrink later runs.
    pg::PropertyGraph data = net.ToInstanceGraph();
    instance::MaterializeOptions options;
    options.engine.num_threads = threads;
    w.Open(nullptr, '{');
    w.Field("threads_requested", threads);
    w.Open("components", '[');
    for (const Step& step : steps) {
      auto stats = instance::Materialize(schema, step.program, &data, options);
      if (!stats.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", step.name,
                     stats.status().ToString().c_str());
        std::fclose(f);
        return 1;
      }
      const auto& es = stats->engine_stats;
      w.Open(nullptr, '{');
      w.Field("component", step.name);
      w.Field("threads_used", es.threads_used);
      w.Field("load_seconds", stats->load_seconds);
      w.Field("reason_seconds", stats->reason_seconds);
      w.Field("flush_seconds", stats->flush_seconds);
      w.Field("merge_seconds", es.merge_seconds);
      w.Field("agg_finalize_seconds", es.agg_finalize_seconds);
      w.Field("staged_inserts", es.staged_inserts);
      w.Field("staged_duplicates", es.staged_duplicates);
      w.Field("facts_derived", es.facts_derived);
      w.Field("iterations", es.iterations);
      w.Open("stratum_seconds", '[');
      for (double s : es.stratum_seconds) {
        w.Comma();
        std::fprintf(f, "%.6f", s);
      }
      w.Close(']');
      w.Close('}');
    }
    w.Close(']');
    w.Close('}');
  }
  w.Close(']');

  // Restricted chase with existentials: the deterministic barrier chase at
  // 1 and 8 threads.  Each configuration runs kChaseReps times interleaved
  // and reports the minimum, since shared hosts are noisy.  Every run must
  // derive the facts and mint the nulls of the first.
  const size_t chase_nodes = 120;
  const size_t chase_edges = 4800;
  constexpr int kChaseReps = 3;
  const size_t chase_threads[] = {1, 8};
  constexpr int kChaseConfigs =
      static_cast<int>(sizeof(chase_threads) / sizeof(chase_threads[0]));
  ChaseBenchResult best[kChaseConfigs];
  bool chase_deterministic = true;
  for (int rep = 0; rep < kChaseReps; ++rep) {
    for (int i = 0; i < kChaseConfigs; ++i) {
      ChaseBenchResult r =
          RunChaseBench(chase_nodes, chase_edges, chase_threads[i]);
      if (!r.ok) {
        std::fclose(f);
        return 1;
      }
      if (best[0].ok &&
          (r.stats.facts_derived != best[0].stats.facts_derived ||
           r.stats.nulls_minted != best[0].stats.nulls_minted)) {
        std::fprintf(stderr,
                     "restricted chase at %zu threads: %zu facts, %zu nulls; "
                     "at %zu threads: %zu facts, %zu nulls\n",
                     chase_threads[i], r.stats.facts_derived,
                     r.stats.nulls_minted, chase_threads[0],
                     best[0].stats.facts_derived, best[0].stats.nulls_minted);
        chase_deterministic = false;
      }
      if (!best[i].ok || r.reason_seconds < best[i].reason_seconds) {
        best[i] = r;
      }
    }
  }
  w.Open("restricted_chase", '{');
  w.Field("program", "existential_closure_conjunctive_heads");
  w.Field("nodes", chase_nodes);
  w.Field("edges", chase_edges);
  w.Field("reps", static_cast<size_t>(kChaseReps));
  w.Field("host_cpus",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  w.Field("build_type", KGM_BUILD_TYPE);
  w.Field("note",
          "on a single-core host the multi-thread row measures "
          "oversubscription, not scaling");
  w.Open("runs", '[');
  for (int i = 0; i < kChaseConfigs; ++i) {
    const ChaseBenchResult& r = best[i];
    w.Open(nullptr, '{');
    w.Field("mode", "barrier");
    w.Field("threads_requested", chase_threads[i]);
    w.Field("threads_used", r.stats.threads_used);
    w.Field("reason_seconds", r.reason_seconds);
    w.Field("merge_seconds", r.stats.merge_seconds);
    w.Field("facts_derived", r.stats.facts_derived);
    w.Field("nulls_minted", r.stats.nulls_minted);
    w.Field("chase_candidates", r.stats.chase_candidates);
    w.Field("chase_screened", r.stats.chase_screened);
    w.Field("chase_deduped", r.stats.chase_deduped);
    w.Field("chase_rechecks", r.stats.chase_rechecks);
    w.Field("chase_recheck_drops", r.stats.chase_recheck_drops);
    w.Close('}');
  }
  w.Close(']');
  w.Close('}');

  w.Close('}');
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return chase_deterministic ? 0 : 1;
}
