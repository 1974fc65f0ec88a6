// refresh: batch enrichment (paper E2 / Algorithm 2).
//
// One op is one round of the five Company-KG components through
// instance::Materialize, in `kgmctl materialize all` order, on a freshly
// built instance graph (built outside the timed region) with a fresh
// PreparedCache, so every round pays load, views, MTV compile, encode,
// the 2-thread staged engine, decode and flush.
//
// Traced pass: Materialize takes the data graph by pointer and advances
// it, so each round first runs the five real calls untimed, keeping a
// clone of the graph each component started from.  The op is then the
// replay of every component's stages on its clone (parse, load, views,
// catalog, compile, encode, engine, decode — decode lands in the
// throwaway dictionary) plus the flush time the real call measured.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "instance/loader.h"
#include "instance/pipeline.h"
#include "instance/views.h"
#include "metalog/catalog.h"
#include "metalog/parser.h"
#include "metalog/prepared.h"
#include "vadalog/engine.h"

namespace perfbench {
namespace {

using namespace kgm;

constexpr size_t kCompanies = 60;
constexpr size_t kPersons = 90;
constexpr size_t kThreads = 2;
// Fixed work: rounds per requested second on the reference host.
constexpr double kRoundsPerSecond = 3.5;

struct Component {
  const char* name;
  const char* program;
};
constexpr Component kComponents[] = {
    {"OWNS", finkg::kOwnsProgram},
    {"CONTROLS", finkg::kControlProgram},
    {"numberOfStakeholders", finkg::kStakeholdersProgram},
    {"families", finkg::kFamilyProgram},
    {"close links", finkg::kCloseLinksProgram},
};
constexpr size_t kNumComponents = std::size(kComponents);

// What a round must reproduce exactly: node and edge counts per label of
// the enriched graph, and each component's flush counts.
using Signature = std::map<std::string, size_t>;

Signature SignatureOf(const pg::PropertyGraph& graph,
                      const std::vector<instance::MaterializeStats>& stats) {
  Signature sig;
  for (const std::string& l : graph.NodeLabels()) {
    sig["node:" + l] = graph.NodesWithLabel(l).size();
  }
  for (const std::string& l : graph.EdgeLabels()) {
    sig["edge:" + l] = graph.EdgesWithLabel(l).size();
  }
  for (size_t i = 0; i < stats.size(); ++i) {
    const std::string c = kComponents[i].name;
    sig["new_nodes:" + c] = stats[i].new_nodes;
    sig["new_edges:" + c] = stats[i].new_edges;
    sig["updated_properties:" + c] = stats[i].updated_properties;
  }
  return sig;
}

struct Round {
  bool ok = false;
  double ms = 0;
  Signature signature;
  std::vector<instance::MaterializeStats> stats;
  // Graph each component started from (kept only when asked for).
  std::vector<pg::PropertyGraph> inputs;
};

// Runs the five components over a fresh instance graph of `net`.
Round RunRound(const finkg::ShareholdingNetwork& net,
               const core::SuperSchema& schema, size_t threads,
               bool keep_inputs) {
  Round round;
  pg::PropertyGraph data = net.ToInstanceGraph();
  metalog::PreparedCache cache;
  instance::MaterializeOptions options;
  options.engine.num_threads = threads;
  options.prepared = &cache;
  const Clock::time_point t0 = Clock::now();
  for (const Component& c : kComponents) {
    if (keep_inputs) round.inputs.push_back(data.Clone());
    auto stats = instance::Materialize(schema, c.program, &data, options);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", c.name,
                   stats.status().ToString().c_str());
      return round;
    }
    round.stats.push_back(*std::move(stats));
  }
  round.ms = Ms(t0, Clock::now());
  round.signature = SignatureOf(data, round.stats);
  round.ok = true;
  return round;
}

void AddCounts(const Round& round, Counts* counts) {
  for (const instance::MaterializeStats& s : round.stats) {
    const vadalog::EngineStats& e = s.engine_stats;
    (*counts)["join_probes"] += e.join_probes;
    (*counts)["rule_firings"] += e.rule_firings;
    (*counts)["facts_derived"] += e.facts_derived;
    (*counts)["iterations"] += e.iterations;
    (*counts)["new_nodes"] += s.new_nodes;
    (*counts)["new_edges"] += s.new_edges;
    (*counts)["updated_properties"] += s.updated_properties;
  }
}

// Engine counters of the replay, summed over the traced pass.
struct ReplayTotals {
  double engine_wall_ms = 0;
  double engine_cpu_ms = 0;
  double merge_ms = 0;
  double eval_ms = 0;
  uint64_t staged_inserts = 0;
  uint64_t staged_duplicates = 0;
  uint64_t join_probes = 0;
  uint64_t rule_firings = 0;
  uint64_t facts_derived = 0;
};

// Replays one component's stages against `input` (left untouched) with
// a span around each call into a layer.  Returns false on any error.
bool ReplayComponent(const core::SuperSchema& schema, const Component& c,
                     const pg::PropertyGraph& input,
                     metalog::PreparedCache* cache, Tracer* tracer,
                     size_t op, int parent,
                     const vadalog::EngineStats& expected,
                     ReplayTotals* totals, Report* report) {
  auto sigma = metalog::ParseMetaProgram(c.program);
  if (!sigma.ok()) return false;
  std::unique_ptr<instance::LoadedInstance> loaded;
  {
    Scope s(tracer, "instance.load_ms", op, parent);
    auto result = instance::LoadInstance(schema, input);
    if (!result.ok()) return false;
    loaded = std::make_unique<instance::LoadedInstance>(std::move(*result));
  }
  std::string combined;
  {
    Scope s(tracer, "instance.views_ms", op, parent);
    auto in = instance::GenerateInputViews(schema, *sigma, 234);
    auto out = instance::GenerateOutputViews(schema, *sigma, 234);
    if (!in.ok() || !out.ok()) return false;
    combined = *in + "\n" + c.program + "\n" + *out;
  }
  metalog::GraphCatalog catalog;
  {
    Scope s(tracer, "metalog.catalog_ms", op, parent);
    catalog = metalog::GraphCatalog::FromGraph(loaded->dict);
    catalog.Merge(instance::SchemaCatalog(schema));
  }
  Result<std::shared_ptr<const metalog::CompiledMeta>> compiled = [&] {
    Scope s(tracer, "metalog.compile_ms", op, parent);
    return cache->Compile(combined, catalog);
  }();
  if (!compiled.ok()) return false;
  auto db = [&] {
    Scope s(tracer, "metalog.encode_ms", op, parent);
    return std::make_unique<vadalog::FactDb>(
        metalog::EncodeGraph(loaded->dict, (*compiled)->catalog));
  }();
  vadalog::EngineOptions options;
  options.num_threads = kThreads;
  std::unique_ptr<vadalog::Engine> engine;
  {
    Scope s(tracer, "vadalog.engine_init_ms", op, parent);
    engine = std::make_unique<vadalog::Engine>((*compiled)->program, options);
  }
  if (!engine->status().ok()) return false;
  {
    Scope s(tracer, "vadalog.engine_ms", op, parent);
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point t0 = Clock::now();
    if (!engine->Run(db.get()).ok()) return false;
    totals->engine_wall_ms += Ms(t0, Clock::now());
    totals->engine_cpu_ms += ProcessCpuMs() - cpu0;
  }
  {
    Scope s(tracer, "metalog.decode_ms", op, parent);
    if (!metalog::DecodeGraph(*db, (*compiled)->catalog, &loaded->dict)
             .ok()) {
      return false;
    }
  }
  const vadalog::EngineStats e = engine->stats();
  {
    // Materialize frees the same structures before it returns.
    Scope s(tracer, "refresh.teardown_ms", op, parent);
    engine.reset();
    db.reset();
    loaded.reset();
  }
  totals->merge_ms += e.merge_seconds * 1e3;
  totals->eval_ms += e.eval_seconds * 1e3;
  totals->staged_inserts += e.staged_inserts;
  totals->staged_duplicates += e.staged_duplicates;
  totals->join_probes += e.join_probes;
  totals->rule_firings += e.rule_firings;
  totals->facts_derived += e.facts_derived;
  if (e.join_probes != expected.join_probes ||
      e.facts_derived != expected.facts_derived) {
    report->Fail(std::string("replay of ") + c.name +
                 " diverged from the real Materialize call");
  }
  return true;
}

}  // namespace

int RunRefresh(const Args& args, Report* report) {
  const core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = kCompanies;
  config.num_persons = kPersons;
  config.seed = kNetworkSeed;
  const size_t rounds = OpCount(args, kRoundsPerSecond, 3);
  report->sizes = {{"companies", kCompanies},
                   {"persons", kPersons},
                   {"engine_threads", kThreads},
                   {"rounds", static_cast<double>(rounds)}};

  // Set-up: generate the network, then one warm-up round, which also
  // gives the reference signature every later round must reproduce.
  std::unique_ptr<finkg::ShareholdingNetwork> net;
  Signature reference;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    net = std::make_unique<finkg::ShareholdingNetwork>(
        finkg::ShareholdingNetwork::Generate(config));
    Round warm = RunRound(*net, schema, kThreads, false);
    report->AddSetup(Ms(t0, Clock::now()) / 1e3);
    if (!warm.ok) return 1;
    reference = std::move(warm.signature);
  }
  // The staged engine must give the sequential result.
  Round sequential = RunRound(*net, schema, 1, false);
  if (!sequential.ok || sequential.signature != reference) {
    report->Fail("1-thread round differs from the 2-thread round");
  }

  Counts untraced_counts;
  for (size_t r = 0; r < rounds; ++r) {
    ++report->attempted;
    Round round = RunRound(*net, schema, kThreads, false);
    if (!round.ok) {
      report->Fail("round " + std::to_string(r) + " failed");
      continue;
    }
    report->probe.MaybeSample();
    report->ops.push_back({"round", round.ms, report->probe.Recent()});
    if (round.signature != reference) {
      report->Fail("round " + std::to_string(r) + " output differs");
    }
    AddCounts(round, &untraced_counts);
  }
  if (!args.trace) return 0;

  Tracer tracer;
  ReplayTotals totals;
  Counts traced_counts;
  std::vector<double> traced_ms;
  for (size_t r = 0; r < rounds; ++r) {
    ++report->attempted;
    Round round = RunRound(*net, schema, kThreads, true);
    if (!round.ok || round.signature != reference) {
      report->Fail("traced round " + std::to_string(r) + " output differs");
      continue;
    }
    AddCounts(round, &traced_counts);
    metalog::PreparedCache cache;
    const int op = tracer.Begin("round", r, -1);
    bool ok = true;
    for (size_t i = 0; i < kNumComponents && ok; ++i) {
      ok = ReplayComponent(schema, kComponents[i], round.inputs[i], &cache,
                           &tracer, r, op, round.stats[i].engine_stats,
                           &totals, report);
    }
    tracer.End(op);
    for (const instance::MaterializeStats& s : round.stats) {
      tracer.AppendMeasured("instance.flush_ms", r, op,
                            s.flush_seconds * 1e3);
    }
    if (!ok) report->Fail("replay of round " + std::to_string(r) + " failed");
    const Tracer::Span& span = tracer.spans()[op];
    report->probe.MaybeSample();
    traced_ms.push_back((span.end_ms - span.start_ms) /
                        report->probe.Recent());
  }
  CheckExactRepeat(untraced_counts, traced_counts, report);

  const Tracer::Summary summary = tracer.Summarize();
  auto layer = [&](const char* name) {
    auto it = summary.layer_ms.find(name);
    return it == summary.layer_ms.end() ? 0.0 : it->second;
  };
  for (const auto& [name, ms] : summary.layer_ms) report->Layer(name, ms, "ms");
  const double n = static_cast<double>(summary.ops);
  report->Layer("vadalog.merge_ms", totals.merge_ms / n, "ms");
  report->Layer("vadalog.eval_ms", totals.eval_ms / n, "ms");
  report->Layer("vadalog.cpu_per_wall",
                totals.engine_cpu_ms / totals.engine_wall_ms, "ratio");
  const double staged =
      static_cast<double>(totals.staged_inserts + totals.staged_duplicates);
  report->Layer("vadalog.staged_dup_ratio",
                staged > 0 ? totals.staged_duplicates / staged : 0, "ratio");
  report->Layer("vadalog.join_probes", totals.join_probes / n, "count");
  report->Layer("vadalog.rule_firings", totals.rule_firings / n, "count");
  report->Layer("vadalog.facts_derived", totals.facts_derived / n, "count");
  report->Layer("refresh.e2_ratio",
                layer("vadalog.engine_ms") /
                    (layer("instance.load_ms") + layer("metalog.encode_ms") +
                     layer("metalog.decode_ms") + layer("instance.flush_ms")),
                "ratio");
  ReportTraceSummary(tracer, NominalMillis(report->ops), traced_ms, report);
  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    report->Fail("cannot write " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
