// Machine-readable reasoner benchmark: runs the finkg intensional suite at
// 1 and 8 engine threads and writes BENCH_reasoner.json so the perf
// trajectory can be tracked across PRs.  Exits non-zero when a component
// derives a different number of facts at 8 threads than at 1 (the
// engine's output must not depend on the thread count).
//
// Usage: reasoner_perf_report [output.json] [companies] [persons]
// Default output file: BENCH_reasoner.json in the working directory.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/pipeline.h"
#include "vadalog/engine.h"

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
  w.Field("host_cpus",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  w.Field("build_type", KGM_BUILD_TYPE);
  w.Open("runs", '[');
  // facts_derived per component at the first thread count, checked at the
  // others.
  std::vector<size_t> first_facts;
  bool deterministic = true;
  for (size_t threads : thread_counts) {
    // Fresh data per configuration: components build on OWNS et al., so
    // reusing a graph would shrink later runs.
    pg::PropertyGraph data = net.ToInstanceGraph();
    instance::MaterializeOptions options;
    options.engine.num_threads = threads;
    w.Open(nullptr, '{');
    w.Field("threads_requested", threads);
    w.Open("components", '[');
    for (size_t si = 0; si < std::size(steps); ++si) {
      const Step& step = steps[si];
      auto stats = instance::Materialize(schema, step.program, &data, options);
      if (!stats.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", step.name,
                     stats.status().ToString().c_str());
        std::fclose(f);
        return 1;
      }
      const auto& es = stats->engine_stats;
      if (threads == thread_counts[0]) {
        first_facts.push_back(es.facts_derived);
      } else if (es.facts_derived != first_facts[si]) {
        std::fprintf(stderr,
                     "%s at %zu threads: %zu facts; at %zu threads: %zu\n",
                     step.name, threads, es.facts_derived, thread_counts[0],
                     first_facts[si]);
        deterministic = false;
      }
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

  w.Close('}');
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return deterministic ? 0 : 1;
}
