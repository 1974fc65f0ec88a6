// maintain: incremental refinement under updates.
//
// vadalog::IncrementalView keeps close_links (DRed mode) materialized over
// the encoded ownership graph.  Every op has its own seeded 32-row batch,
// drawn from a fresh finkg::UpdateFeed over the base OWNS relation, so a
// run samples many deleted edges and its median does not hinge on a few
// heavy batches.  One op is one batch applied and then undone: Apply of
// the batch (insert-heavy) followed by Apply of its inverse (inserts and
// deletes swapped, delete-heavy).  Every op therefore starts from the
// initial materialization, so the work is stationary however fast the
// host runs, and op latency is one distribution, not two.  The two halves
// are still timed separately and reported as insert / delete latencies in
// the traced invocation.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "instance/pipeline.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "vadalog/engine.h"
#include "vadalog/incremental.h"

namespace perfbench {
namespace {

using namespace kgm;

constexpr size_t kCompanies = 200;
constexpr size_t kPersons = 300;
constexpr size_t kBatchSize = 32;
// Fixed work: batch-and-undo ops per requested second on the reference
// host.
constexpr double kOpsPerSecond = 35;

// Everything an op sequence needs; rebuilt for every pass so each pass
// starts from the same state.
struct State {
  vadalog::Program program;
  vadalog::FactDb edb;
  std::vector<vadalog::EdbDelta> forward;
  std::vector<vadalog::EdbDelta> inverse;
  std::unique_ptr<vadalog::IncrementalView> view;
  vadalog::FactDb initial;  // the materialization every op returns to
};

vadalog::EdbDelta Inverse(const vadalog::EdbDelta& delta) {
  vadalog::EdbDelta out;
  out.inserts = delta.deletes;
  out.deletes = delta.inserts;
  return out;
}

// Generates the network and the update batches, materializes the view,
// and runs one untimed batch-and-undo to warm it up.  Returns nullptr
// (after logging) on any error.
std::unique_ptr<State> Setup(uint64_t seed, size_t batches) {
  auto state = std::make_unique<State>();
  finkg::GeneratorConfig config;
  config.num_companies = kCompanies;
  config.num_persons = kPersons;
  config.seed = kNetworkSeed;
  const pg::PropertyGraph ownership =
      finkg::ShareholdingNetwork::Generate(config).ToOwnershipGraph(
          /*include_persons=*/true);

  auto meta = metalog::ParseMetaProgram(finkg::kCloseLinksProgram);
  if (!meta.ok()) return nullptr;
  metalog::GraphCatalog catalog =
      instance::SchemaCatalog(finkg::CompanyKgSchema());
  if (!catalog.AbsorbProgram(*meta).ok()) return nullptr;
  auto mtv = metalog::TranslateMetaProgram(*meta, catalog);
  if (!mtv.ok()) return nullptr;
  state->program = std::move(mtv->program);
  state->edb = metalog::EncodeGraph(ownership, catalog);

  for (size_t b = 0; b < batches; ++b) {
    finkg::UpdateFeedConfig feed_config;
    feed_config.edge_pred = "OWNS";
    feed_config.batch_size = kBatchSize;
    feed_config.seed = SubSeed(seed, 100 + b);
    finkg::UpdateFeed feed(state->edb.Get("OWNS"), feed_config);
    state->forward.push_back(feed.NextBatch());
    state->inverse.push_back(Inverse(state->forward.back()));
  }

  vadalog::EngineOptions options;
  options.num_threads = 1;
  state->view =
      std::make_unique<vadalog::IncrementalView>(state->program, options);
  Status init = state->view->status();
  if (init.ok()) init = state->view->Initialize(state->edb.Clone());
  if (!init.ok() || state->view->mode() != vadalog::MaintenanceMode::kDRed) {
    std::fprintf(stderr, "view set-up failed: %s\n", init.ToString().c_str());
    return nullptr;
  }
  state->initial = state->view->db().Clone();
  if (!state->view->Apply(state->forward[0]).ok() ||
      !state->view->Apply(state->inverse[0]).ok()) {
    std::fprintf(stderr, "warm-up batch failed\n");
    return nullptr;
  }
  return state;
}

void AddCounts(const vadalog::IncrementalStats& s, Counts* counts) {
  (*counts)["edb_inserted"] += s.edb_inserted;
  (*counts)["edb_deleted"] += s.edb_deleted;
  (*counts)["overdeleted"] += s.overdeleted;
  (*counts)["rederived"] += s.rederived;
  (*counts)["idb_inserted"] += s.idb_inserted;
  (*counts)["idb_deleted"] += s.idb_deleted;
}

// Runs `ops` batch-and-undo ops.  With a tracer, each op gets a span with
// the DRed phase times the view measured as children.
void RunOps(State* state, size_t ops, Tracer* tracer, Report* report,
            std::vector<OpSample>* halves, std::vector<OpSample>* pairs,
            Counts* counts) {
  vadalog::IncrementalView& view = *state->view;
  for (size_t k = 0; k < ops; ++k) {
    ++report->attempted;
    const int op = tracer != nullptr ? tracer->Begin("op", k, -1) : -1;
    double op_total = 0;
    bool ok = true;
    for (const auto& [kind, delta] :
         {std::pair<const char*, const vadalog::EdbDelta*>{
              "insert", &state->forward[k]},
          {"delete", &state->inverse[k]}}) {
      const Clock::time_point t0 = Clock::now();
      const Status applied = view.Apply(*delta);
      const double ms = Ms(t0, Clock::now());
      op_total += ms;
      halves->push_back({kind, ms});
      if (!applied.ok()) {
        report->Fail("apply failed: " + applied.ToString());
        ok = false;
        break;
      }
      const vadalog::IncrementalStats& s = view.last_stats();
      if (tracer != nullptr) {
        tracer->AddMeasured("vadalog.incremental.overdelete_ms", k, op,
                            s.overdelete_seconds * 1e3);
        tracer->AddMeasured("vadalog.incremental.rederive_ms", k, op,
                            s.rederive_seconds * 1e3);
        tracer->AddMeasured("vadalog.incremental.insert_ms", k, op,
                            s.insert_seconds * 1e3);
      }
      AddCounts(s, counts);
    }
    if (tracer != nullptr) tracer->End(op);
    if (!ok) return;
    report->probe.MaybeSample();
    const double speed = report->probe.Recent();
    pairs->push_back({"op", op_total, speed});
    for (size_t i = halves->size() - 2; i < halves->size(); ++i) {
      (*halves)[i].speed = speed;
    }
    // Untimed: the undo must restore the initial materialization.
    if (!vadalog::DatabasesEqualAsSets(view.db(), state->initial)) {
      report->Fail("op " + std::to_string(k) +
                   " did not return to the initial materialization");
    }
  }
  // Untimed: the maintained database equals a from-scratch run.
  vadalog::FactDb rebuilt = view.edb().Clone();
  vadalog::EngineOptions options;
  options.num_threads = 1;
  vadalog::Engine engine(state->program, options);
  if (!engine.Run(&rebuilt).ok() ||
      !vadalog::DatabasesEqualAsSets(view.db(), rebuilt)) {
    report->Fail("maintained database differs from a from-scratch run");
  }
}

}  // namespace

int RunMaintain(const Args& args, Report* report) {
  const size_t ops = OpCount(args, kOpsPerSecond, 8);
  const size_t cpus = PinToCpus(1);
  report->sizes = {{"companies", kCompanies},
                   {"persons", kPersons},
                   {"batch_size", kBatchSize},
                   {"cpus", static_cast<double>(cpus)},
                   {"batches", static_cast<double>(ops)}};

  std::unique_ptr<State> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    state.reset();
    state = Setup(args.seed, ops);
    if (state == nullptr) return 1;
    report->AddSetup(Ms(t0, Clock::now()) / 1e3);
  }

  std::vector<OpSample> halves;
  std::vector<OpSample> pairs;
  Counts untraced_counts;
  RunOps(state.get(), ops, nullptr, report, &halves, &pairs, &untraced_counts);
  if (!args.trace) {
    report->ops = std::move(pairs);
    return 0;
  }
  // Traced invocation: per-type latencies of the untraced pass.
  report->ops = std::move(halves);

  state.reset();
  state = Setup(args.seed, ops);
  if (state == nullptr) return 1;
  Tracer tracer;
  std::vector<OpSample> traced_halves;
  std::vector<OpSample> traced_pairs;
  Counts traced_counts;
  RunOps(state.get(), ops, &tracer, report, &traced_halves, &traced_pairs,
         &traced_counts);
  CheckExactRepeat(untraced_counts, traced_counts, report);

  const Tracer::Summary summary = tracer.Summarize();
  for (const auto& [name, ms] : summary.layer_ms) report->Layer(name, ms, "ms");
  const double n = static_cast<double>(summary.ops);
  for (const char* name :
       {"overdeleted", "rederived", "idb_inserted", "idb_deleted"}) {
    report->Layer(std::string("vadalog.incremental.") + name,
                  traced_counts[name] / n, "count");
  }
  const double overdeleted = static_cast<double>(traced_counts["overdeleted"]);
  report->Layer("vadalog.incremental.rederive_ratio",
                overdeleted > 0 ? traced_counts["rederived"] / overdeleted : 0,
                "ratio");
  report->Layer("maintain.op_p90_ms", Percentile(NominalMillis(pairs), 0.9),
                "ms");
  ReportTraceSummary(tracer, NominalMillis(pairs), NominalMillis(traced_pairs),
                     report);
  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    report->Fail("cannot write " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
