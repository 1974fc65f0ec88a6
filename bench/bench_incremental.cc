// Incremental materialization benchmark: update-to-queryable latency of a
// small EDB delta, maintained incrementally vs rebuilt from scratch.
//
// Engine level: the finkg `control` (aggregates -> rerun) and
// `close_links` (Skolem existentials -> DRed) programs are materialized
// over the OWNS ownership graph, then a stream of shareholding-update
// batches is applied through IncrementalView::Apply and, for comparison, a
// fresh Engine::Run over the same post-delta EDB.  Each batch's maintained
// database is verified against the rebuild (set-equal under DRed, ordered
// otherwise), so the speedups reported here are for *correct* maintenance.
// Per program it also sums the DRed strata's rule-at-a-time work over the
// batches (IncrementalStats::join_probes and seeded_calls): unlike the
// timings, these counters repeat exactly between runs.  The row also splits
// apply_seconds_total into its phases: EDB step, overdelete, rederive and
// insert.
// One timed run records host load as much as code (runs of one binary
// spread almost twofold on a shared host), so each program runs kRepeats
// times over the same batches; the row records the median apply and
// rebuild totals with the lowest and highest, the phases of the median
// apply run, and fails when the counters differ between runs.
//
// Service level: KgService::ApplyDelta (delta snapshot, only touched
// relations re-encoded) vs a full Publish of the same graph.
//
// The results are written as an "incremental" section spliced into
// BENCH_reasoner.json (created if absent), next to the other reasoner perf
// sections tracked across PRs.
//
// Usage: bench_incremental [output.json] [companies] [persons] [batches]
//                          [batch_size]
// Default output file: BENCH_reasoner.json in the working directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "service/service.h"
#include "vadalog/engine.h"
#include "vadalog/incremental.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRepeats = 5;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Section writer: builds the "incremental" JSON object in memory so it can
// be spliced into an existing BENCH_reasoner.json.
struct SectionWriter {
  std::ostringstream out;
  int depth = 1;
  bool first = true;

  SectionWriter() { out << std::fixed << std::setprecision(6); }
  void Indent() {
    for (int i = 0; i < depth; ++i) out << "  ";
  }
  void Comma() {
    if (!first) out << ",\n";
    first = false;
    Indent();
  }
  void Open(const char* key, char bracket) {
    Comma();
    if (key != nullptr) out << '"' << key << "\": " << bracket << '\n';
    else out << bracket << '\n';
    ++depth;
    first = true;
  }
  void Close(char bracket) {
    out << '\n';
    --depth;
    Indent();
    out << bracket;
    first = false;
  }
  void Field(const char* key, double v) {
    Comma();
    out << '"' << key << "\": " << v;
  }
  void Field(const char* key, size_t v) {
    Comma();
    out << '"' << key << "\": " << v;
  }
  void Field(const char* key, const char* v) {
    Comma();
    out << '"' << key << "\": \"" << v << '"';
  }
};

struct CompiledProgram {
  kgm::metalog::MetaProgram meta;
  kgm::metalog::GraphCatalog catalog;
};

// Parses a finkg MetaLog program against the Company KG schema.  The
// vadalog translation is re-run per use because Engine and IncrementalView
// take the program by value.
bool PrepareProgram(const char* source, CompiledProgram* out) {
  auto parsed = kgm::metalog::ParseMetaProgram(source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  out->meta = std::move(*parsed);
  out->catalog =
      kgm::instance::SchemaCatalog(kgm::finkg::CompanyKgSchema());
  kgm::Status absorbed = out->catalog.AbsorbProgram(out->meta);
  if (!absorbed.ok()) {
    std::fprintf(stderr, "absorb failed: %s\n", absorbed.ToString().c_str());
    return false;
  }
  return true;
}

bool Translate(const CompiledProgram& cp, kgm::vadalog::Program* out) {
  auto mtv = kgm::metalog::TranslateMetaProgram(cp.meta, cp.catalog);
  if (!mtv.ok()) {
    std::fprintf(stderr, "translate failed: %s\n",
                 mtv.status().ToString().c_str());
    return false;
  }
  *out = std::move(mtv->program);
  return true;
}

struct EngineBenchResult {
  bool ok = false;
  const char* mode = "";
  double initial_seconds = 0;
  double apply_seconds_total = 0;
  double rebuild_seconds_total = 0;
  size_t batches = 0;
  size_t overdeleted = 0;
  size_t rederived = 0;
  size_t strata_skipped = 0;
  // Rule-at-a-time work of the DRed strata (deterministic counters).
  size_t join_probes = 0;
  size_t seeded_calls = 0;
  // Phases of apply_seconds_total (IncrementalStats).
  double edb_seconds = 0;
  double overdelete_seconds = 0;
  double rederive_seconds = 0;
  double insert_seconds = 0;
  // Spread of the totals over the runs of RepeatEngineBench.
  double apply_seconds_min = 0;
  double apply_seconds_max = 0;
  double rebuild_seconds_min = 0;
  double rebuild_seconds_max = 0;
};

// Materializes `cp` over `edb`, then streams `batches` update batches
// through IncrementalView::Apply, rebuilding from scratch after each batch
// to time the baseline and verify the maintained database.
EngineBenchResult RunEngineBench(const CompiledProgram& cp,
                                 const kgm::vadalog::FactDb& edb,
                                 size_t batches, size_t batch_size,
                                 uint64_t seed) {
  using namespace kgm;
  using namespace kgm::vadalog;
  EngineBenchResult r;

  Program program;
  if (!Translate(cp, &program)) return r;
  IncrementalView view(std::move(program));
  if (!view.status().ok()) {
    std::fprintf(stderr, "view rejected: %s\n",
                 view.status().ToString().c_str());
    return r;
  }
  auto t0 = Clock::now();
  Status init = view.Initialize(edb.Clone());
  r.initial_seconds = Seconds(t0, Clock::now());
  if (!init.ok()) {
    std::fprintf(stderr, "initialize failed: %s\n", init.ToString().c_str());
    return r;
  }
  r.mode = MaintenanceModeName(view.mode());

  finkg::UpdateFeedConfig feed_config;
  feed_config.edge_pred = "OWNS";
  feed_config.batch_size = batch_size;
  feed_config.seed = seed;
  finkg::UpdateFeed feed(edb.Get("OWNS"), feed_config);

  for (size_t b = 0; b < batches; ++b) {
    EdbDelta delta = feed.NextBatch();
    auto a0 = Clock::now();
    Status applied = view.Apply(delta);
    r.apply_seconds_total += Seconds(a0, Clock::now());
    if (!applied.ok()) {
      std::fprintf(stderr, "apply failed: %s\n", applied.ToString().c_str());
      return r;
    }
    r.overdeleted += view.last_stats().overdeleted;
    r.rederived += view.last_stats().rederived;
    r.strata_skipped += view.last_stats().strata_skipped;
    r.join_probes += view.last_stats().join_probes;
    r.seeded_calls += view.last_stats().seeded_calls;
    r.edb_seconds += view.last_stats().edb_seconds;
    r.overdelete_seconds += view.last_stats().overdelete_seconds;
    r.rederive_seconds += view.last_stats().rederive_seconds;
    r.insert_seconds += view.last_stats().insert_seconds;

    // Baseline: a full chase over the same post-delta EDB.
    Program rebuild_program;
    if (!Translate(cp, &rebuild_program)) return r;
    FactDb rebuilt = view.edb().Clone();
    Engine engine(std::move(rebuild_program));
    auto f0 = Clock::now();
    Status ran = engine.Run(&rebuilt);
    r.rebuild_seconds_total += Seconds(f0, Clock::now());
    if (!ran.ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n", ran.ToString().c_str());
      return r;
    }
    const bool ordered = view.last_stats().mode == MaintenanceMode::kRerun;
    std::string diff;
    if (DescribeFirstDifference(view.db(), rebuilt, ordered, &diff)) {
      std::fprintf(stderr, "maintained database diverged at batch %zu: %s\n",
                   b, diff.c_str());
      return r;
    }
    ++r.batches;
  }
  r.ok = true;
  return r;
}

// Runs RunEngineBench kRepeats times.  Returns the run with the median
// apply_seconds_total, with the median rebuild total and the spreads of
// both totals.  Fails (ok = false) when a run fails or its counters differ
// from the first run's.
EngineBenchResult RepeatEngineBench(const CompiledProgram& cp,
                                    const kgm::vadalog::FactDb& edb,
                                    size_t batches, size_t batch_size,
                                    uint64_t seed) {
  std::vector<EngineBenchResult> runs;
  for (size_t i = 0; i < kRepeats; ++i) {
    runs.push_back(RunEngineBench(cp, edb, batches, batch_size, seed));
    const EngineBenchResult& r = runs.back();
    if (!r.ok) return r;
    const EngineBenchResult& first = runs.front();
    if (r.overdeleted != first.overdeleted ||
        r.rederived != first.rederived || r.join_probes != first.join_probes ||
        r.seeded_calls != first.seeded_calls) {
      std::fprintf(stderr, "counters differ between runs %zu and 0\n", i);
      return EngineBenchResult{};
    }
  }
  std::vector<double> rebuild;
  for (const EngineBenchResult& r : runs) {
    rebuild.push_back(r.rebuild_seconds_total);
  }
  std::sort(rebuild.begin(), rebuild.end());
  std::sort(runs.begin(), runs.end(),
            [](const EngineBenchResult& a, const EngineBenchResult& b) {
              return a.apply_seconds_total < b.apply_seconds_total;
            });
  EngineBenchResult median = runs[runs.size() / 2];
  median.apply_seconds_min = runs.front().apply_seconds_total;
  median.apply_seconds_max = runs.back().apply_seconds_total;
  median.rebuild_seconds_total = rebuild[rebuild.size() / 2];
  median.rebuild_seconds_min = rebuild.front();
  median.rebuild_seconds_max = rebuild.back();
  return median;
}

struct ServiceBenchResult {
  bool ok = false;
  double publish_seconds_total = 0;
  double apply_delta_seconds_total = 0;
  size_t publishes = 0;
  size_t deltas = 0;
};

// KgService::ApplyDelta (delta snapshot) vs full Publish of the same
// graph: the serving-layer update-to-queryable comparison.
ServiceBenchResult RunServiceBench(const kgm::finkg::ShareholdingNetwork& net,
                                   size_t batches, size_t batch_size,
                                   uint64_t seed) {
  using namespace kgm;
  ServiceBenchResult r;
  service::KgService svc;
  svc.Publish(net.ToOwnershipGraph());

  // Full-publish baseline: same graph, complete re-encode + swap.
  for (size_t i = 0; i < batches; ++i) {
    pg::PropertyGraph graph = net.ToOwnershipGraph();
    auto p0 = Clock::now();
    svc.Publish(std::move(graph));
    r.publish_seconds_total += Seconds(p0, Clock::now());
    ++r.publishes;
  }

  auto snap = svc.CurrentSnapshot();
  auto owns = snap->facts.find("OWNS");
  if (owns == snap->facts.end()) {
    std::fprintf(stderr, "snapshot has no OWNS relation\n");
    return r;
  }
  finkg::UpdateFeedConfig feed_config;
  feed_config.edge_pred = "OWNS";
  feed_config.batch_size = batch_size;
  feed_config.seed = seed;
  finkg::UpdateFeed feed(owns->second.get(), feed_config);
  for (size_t i = 0; i < batches; ++i) {
    vadalog::EdbDelta delta = feed.NextBatch();
    auto d0 = Clock::now();
    auto epoch = svc.ApplyDelta(delta);
    r.apply_delta_seconds_total += Seconds(d0, Clock::now());
    if (!epoch.ok()) {
      std::fprintf(stderr, "ApplyDelta failed: %s\n",
                   epoch.status().ToString().c_str());
      return r;
    }
    ++r.deltas;
  }
  r.ok = true;
  return r;
}

// Splices `section` (the value of the "incremental" key) into the JSON
// object in `path`, replacing an existing "incremental" section is not
// attempted: the file is produced fresh by reasoner_perf_report each run.
bool WriteSection(const std::string& path, const std::string& section) {
  std::string existing;
  if (FILE* in = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      existing.append(buf, n);
    }
    std::fclose(in);
  }
  std::string out;
  const size_t close = existing.rfind('}');
  if (close != std::string::npos) {
    out = existing.substr(0, close);
    // Trim trailing whitespace so the comma lands after the last field.
    while (!out.empty() &&
           (out.back() == '\n' || out.back() == ' ' || out.back() == '\t')) {
      out.pop_back();
    }
    out += ",\n  \"incremental\": " + section + "\n}\n";
  } else {
    out = "{\n  \"incremental\": " + section + "\n}\n";
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgm;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_reasoner.json";
  finkg::GeneratorConfig config;
  config.num_companies = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 400;
  config.num_persons = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 600;
  const size_t batches = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 5;
  const size_t batch_size =
      argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 4;
  config.seed = 2022;

  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);
  pg::PropertyGraph ownership = net.ToOwnershipGraph(/*include_persons=*/true);

  struct Step {
    const char* name;
    const char* source;
  };
  const Step steps[] = {
      {"control", finkg::kControlProgram},
      {"close_links", finkg::kCloseLinksProgram},
  };

  SectionWriter w;
  w.Open(nullptr, '{');
  w.Field("benchmark", "incremental_materialization");
  w.Field("companies", static_cast<size_t>(config.num_companies));
  w.Field("persons", static_cast<size_t>(config.num_persons));
  w.Field("batch_size", batch_size);
  w.Field("batches", batches);
  w.Field("runs", kRepeats);
  w.Field("host_cpus",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  w.Field("build_type", KGM_BUILD_TYPE);
  w.Open("programs", '[');
  size_t failures = 0;
  for (const Step& step : steps) {
    CompiledProgram cp;
    if (!PrepareProgram(step.source, &cp)) return 1;
    vadalog::FactDb edb = metalog::EncodeGraph(ownership, cp.catalog);
    const vadalog::Relation* owns = edb.Get("OWNS");
    EngineBenchResult r =
        RepeatEngineBench(cp, edb, batches, batch_size, /*seed=*/7);
    if (!r.ok) {
      ++failures;
      continue;
    }
    w.Open(nullptr, '{');
    w.Field("component", step.name);
    w.Field("mode", r.mode);
    w.Field("owns_edges", owns != nullptr ? owns->size() : 0);
    w.Field("initial_seconds", r.initial_seconds);
    w.Field("apply_seconds_total", r.apply_seconds_total);
    w.Field("apply_seconds_total_min", r.apply_seconds_min);
    w.Field("apply_seconds_total_max", r.apply_seconds_max);
    w.Field("apply_seconds_mean", r.apply_seconds_total / r.batches);
    w.Field("rebuild_seconds_total", r.rebuild_seconds_total);
    w.Field("rebuild_seconds_total_min", r.rebuild_seconds_min);
    w.Field("rebuild_seconds_total_max", r.rebuild_seconds_max);
    w.Field("rebuild_seconds_mean", r.rebuild_seconds_total / r.batches);
    if (r.apply_seconds_total > 0) {
      w.Field("speedup_vs_rebuild",
              r.rebuild_seconds_total / r.apply_seconds_total);
    }
    w.Field("overdeleted", r.overdeleted);
    w.Field("rederived", r.rederived);
    w.Field("strata_skipped", r.strata_skipped);
    w.Field("join_probes", r.join_probes);
    w.Field("seeded_calls", r.seeded_calls);
    w.Field("edb_seconds", r.edb_seconds);
    w.Field("overdelete_seconds", r.overdelete_seconds);
    w.Field("rederive_seconds", r.rederive_seconds);
    w.Field("insert_seconds", r.insert_seconds);
    w.Field("verified_against_rebuild", "true");
    w.Close('}');
    std::printf(
        "%s (%s): median of %zu runs: apply %.4fs [%.4f-%.4f] vs rebuild "
        "%.4fs [%.4f-%.4f] over %zu batches (%.1fx) "
        "[edb %.4fs overdelete %.4fs rederive %.4fs insert %.4fs] "
        "join_probes %zu seeded_calls %zu\n",
        step.name, r.mode, kRepeats, r.apply_seconds_total,
        r.apply_seconds_min, r.apply_seconds_max, r.rebuild_seconds_total,
        r.rebuild_seconds_min, r.rebuild_seconds_max, r.batches,
        r.apply_seconds_total > 0
            ? r.rebuild_seconds_total / r.apply_seconds_total
            : 0.0,
        r.edb_seconds, r.overdelete_seconds, r.rederive_seconds,
        r.insert_seconds, r.join_probes, r.seeded_calls);
  }
  w.Close(']');

  ServiceBenchResult s =
      RunServiceBench(net, batches, batch_size, /*seed=*/11);
  if (s.ok) {
    w.Open("service", '{');
    w.Field("publish_seconds_mean", s.publish_seconds_total / s.publishes);
    w.Field("apply_delta_seconds_mean",
            s.apply_delta_seconds_total / s.deltas);
    if (s.apply_delta_seconds_total > 0) {
      w.Field("speedup_vs_publish",
              (s.publish_seconds_total / s.publishes) /
                  (s.apply_delta_seconds_total / s.deltas));
    }
    w.Field("delta_epochs", s.deltas);
    w.Close('}');
    std::printf("service: publish %.4fs vs apply-delta %.4fs per update\n",
                s.publish_seconds_total / s.publishes,
                s.apply_delta_seconds_total / s.deltas);
  } else {
    ++failures;
  }
  w.Close('}');

  if (failures > 0) return 1;
  if (!WriteSection(out_path, w.out.str())) return 1;
  std::printf("wrote incremental section into %s\n", out_path.c_str());
  return 0;
}
