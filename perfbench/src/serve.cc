// serve: query serving with writes beside reads.
//
// service::KgService with 2 workers over the ownership graph, driven by
// one closed-loop client (callers block on Query), so the process runs at
// most 3 threads.  The op sequence repeats a 20-op cycle:
//
//   18 bound `reach(c, ?)` point queries, result cache on, `c` drawn from
//      64 owner oids by a seeded skewed pick;
//    1 MetaLog control query (finkg::kControlProgram, output CONTROLS);
//    1 ApplyDelta write: cycle 2j applies 8-row batch j mod 16, cycle
//      2j+1 its inverse, so the published state is stationary.
//
// Point answers are checked untimed against materialize-then-filter on the
// same epoch for a sample of reads; MetaLog answers must repeat for every
// epoch with the same contents.
//
// Traced pass: each read that missed the result cache is replayed against
// the pinned CurrentSnapshot(): CloneFacts, LintVadalogSource, then
// magic::EvalPointQuery on the clone, each in its own span.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "bench.h"
#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "lint/lint.h"
#include "service/service.h"
#include "vadalog/engine.h"
#include "vadalog/magic/point_query.h"
#include "vadalog/parser.h"

namespace perfbench {
namespace {

using namespace kgm;

constexpr size_t kCompanies = 400;
constexpr size_t kPersons = 600;
constexpr size_t kWorkers = 2;
constexpr size_t kSources = 64;
constexpr size_t kWriteBatches = 16;
constexpr size_t kWriteBatchSize = 8;
constexpr size_t kReadsPerCycle = 18;
// Fixed work: 20-op cycles per requested second on the reference host.
constexpr double kCyclesPerSecond = 35;
// Every kCheckEvery-th read is checked against materialize-then-filter.
constexpr size_t kCheckEvery = 8;

// Transitive ownership reach, as in bench_pointquery.
constexpr const char* kReachProgram =
    "@input(\"OWNS\").\n"
    "OWNS(_e, x, y, _w) -> reach(x, y).\n"
    "reach(x, y), OWNS(_e, y, z, _w) -> reach(x, z).\n"
    "@output(\"reach\").\n";

enum class OpKind { kPoint, kMetaLog, kWrite };

struct Op {
  OpKind kind = OpKind::kPoint;
  size_t source = 0;  // kPoint: index into State::sources
  size_t batch = 0;   // kWrite: index into forward/inverse
  bool inverse = false;
};

struct State {
  std::unique_ptr<service::KgService> svc;
  std::vector<Value> sources;
  std::vector<vadalog::EdbDelta> forward;
  std::vector<vadalog::EdbDelta> inverse;
};

// The whole op sequence: warm-up cycles first, then the measured ones.
std::vector<Op> Schedule(uint64_t seed, size_t cycles) {
  Rng rng(SubSeed(seed, 300));
  std::vector<Op> ops;
  ops.reserve(cycles * (kReadsPerCycle + 2));
  for (size_t k = 0; k < cycles; ++k) {
    for (size_t i = 0; i < kReadsPerCycle; ++i) {
      // Log-uniform rank: source 0 is picked about 1/6 of the time.
      const double u = rng.NextDouble();
      const size_t rank = static_cast<size_t>(
          std::pow(static_cast<double>(kSources + 1), u)) - 1;
      ops.push_back({OpKind::kPoint, std::min(rank, kSources - 1), 0, false});
      if (i == kReadsPerCycle / 2 - 1) ops.push_back({OpKind::kMetaLog});
    }
    ops.push_back({OpKind::kWrite, 0, (k / 2) % kWriteBatches, k % 2 == 1});
  }
  return ops;
}

// Generates and publishes the network, and draws the sources and write
// batches.
std::unique_ptr<State> Build(uint64_t seed) {
  auto state = std::make_unique<State>();
  finkg::GeneratorConfig config;
  config.num_companies = kCompanies;
  config.num_persons = kPersons;
  config.seed = kNetworkSeed;
  service::KgServiceOptions options;
  options.num_workers = kWorkers;
  state->svc = std::make_unique<service::KgService>(options);
  state->svc->Publish(finkg::ShareholdingNetwork::Generate(config)
                          .ToOwnershipGraph(/*include_persons=*/true));

  auto snap = state->svc->CurrentSnapshot();
  auto owns = snap->facts.find("OWNS");
  if (owns == snap->facts.end()) return nullptr;
  // A fixed, evenly spaced sample of the owner oids (column 1 of OWNS), in
  // oid order: the seed draws the read sequence, not which sources are hot,
  // so runs with different seeds do comparable work.
  std::set<Value> owners;
  for (const vadalog::Tuple& t : owns->second->tuples()) owners.insert(t[1]);
  if (owners.size() < kSources) return nullptr;
  const std::vector<Value> all(owners.begin(), owners.end());
  for (size_t i = 0; i < kSources; ++i) {
    state->sources.push_back(all[i * all.size() / kSources]);
  }

  for (size_t b = 0; b < kWriteBatches; ++b) {
    finkg::UpdateFeedConfig feed_config;
    feed_config.edge_pred = "OWNS";
    feed_config.batch_size = kWriteBatchSize;
    feed_config.seed = SubSeed(seed, 200 + b);
    finkg::UpdateFeed feed(owns->second.get(), feed_config);
    state->forward.push_back(feed.NextBatch());
    vadalog::EdbDelta inv;
    inv.inserts = state->forward.back().deletes;
    inv.deletes = state->forward.back().inserts;
    state->inverse.push_back(std::move(inv));
  }
  return state;
}

service::QueryRequest PointRequest(const Value& source) {
  service::QueryRequest request;
  request.program = kReachProgram;
  request.language = service::QueryLanguage::kVadalog;
  request.output = "reach";
  request.bound_args = {source, std::nullopt};
  return request;
}

service::QueryRequest MetaLogRequest() {
  service::QueryRequest request;
  request.program = finkg::kControlProgram;
  request.language = service::QueryLanguage::kMetaLog;
  request.output = "CONTROLS";
  return request;
}

std::vector<vadalog::Tuple> Sorted(std::vector<vadalog::Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The published contents an op sees: -1 for the base graph, else the
// forward batch currently applied.
using ContentId = long;

// Untimed output checks, with answers cached per content.
class Checker {
 public:
  Checker(const State& state, Report* report)
      : state_(state), report_(report) {}

  void CheckPoint(ContentId content, const service::Snapshot& snap,
                  size_t source, const std::vector<vadalog::Tuple>& rows) {
    auto it = reach_.find(content);
    if (it == reach_.end()) {
      it = reach_.emplace(content, MaterializeReach(snap)).first;
    }
    if (Sorted(rows) != it->second[source]) {
      report_->Fail("point answer differs from materialize-then-filter");
    }
  }

  void CheckMetaLog(ContentId content,
                    const std::vector<vadalog::Tuple>& rows) {
    std::vector<vadalog::Tuple> sorted = Sorted(rows);
    auto [it, fresh] = control_.emplace(content, sorted);
    if (!fresh && it->second != sorted) {
      report_->Fail("MetaLog answer changed for unchanged contents");
    }
  }

 private:
  // reach materialized in full, then filtered per source.
  std::vector<std::vector<vadalog::Tuple>> MaterializeReach(
      const service::Snapshot& snap) {
    std::vector<std::vector<vadalog::Tuple>> out(state_.sources.size());
    auto program = vadalog::ParseProgram(kReachProgram);
    vadalog::FactDb db = snap.CloneFacts();
    vadalog::EngineOptions options;
    options.num_threads = 1;
    vadalog::Engine engine(*std::move(program), options);
    if (!engine.Run(&db).ok()) {
      report_->Fail("reference materialization failed");
      return out;
    }
    std::map<Value, size_t> index;
    for (size_t i = 0; i < state_.sources.size(); ++i) {
      index[state_.sources[i]] = i;
    }
    if (const vadalog::Relation* reach = db.Get("reach")) {
      for (const vadalog::Tuple& t : reach->tuples()) {
        auto at = index.find(t[0]);
        if (at != index.end()) out[at->second].push_back(t);
      }
    }
    for (auto& rows : out) std::sort(rows.begin(), rows.end());
    return out;
  }

  const State& state_;
  Report* report_;
  std::map<ContentId, std::vector<std::vector<vadalog::Tuple>>> reach_;
  std::map<ContentId, std::vector<vadalog::Tuple>> control_;
};

struct PassResult {
  std::vector<OpSample> ops;
  Counts counts;
  uint64_t evaluated_reads = 0;
  uint64_t evaluated_probes = 0;
  double result_hit_ratio = 0;
  double prepared_hit_ratio = 0;
};

// Replays an evaluated point read against the pinned snapshot, one span
// per layer, and checks the replay reproduces the service's answer.
void ReplayPoint(const State& state, const service::QueryResult& result,
                 size_t source, Tracer* tracer, size_t k, int op,
                 Report* report) {
  std::shared_ptr<const service::Snapshot> snap = state.svc->CurrentSnapshot();
  if (snap->epoch != result.epoch) {
    report->Fail("pinned snapshot moved under the replay");
    return;
  }
  vadalog::FactDb db = [&] {
    Scope s(tracer, "service.clone_ms", k, op);
    return snap->CloneFacts();
  }();
  lint::LintOptions lint_options;
  for (const std::string& l : snap->catalog.NodeLabels()) {
    lint_options.external_predicates.push_back(l);
  }
  for (const std::string& l : snap->catalog.EdgeLabels()) {
    lint_options.external_predicates.push_back(l);
  }
  {
    Scope s(tracer, "lint.vadalog_ms", k, op);
    if (lint::LintVadalogSource(kReachProgram, lint_options).has_errors()) {
      report->Fail("reach program rejected by lint");
    }
  }
  auto program = vadalog::ParseProgram(kReachProgram);
  if (!program.ok()) return;
  vadalog::magic::PointQueryOptions pq_options;
  pq_options.engine.num_threads = 1;
  vadalog::magic::PointQueryStats pq_stats;
  Result<std::vector<vadalog::Tuple>> answers = [&] {
    Scope s(tracer, "vadalog.magic_ms", k, op);
    return vadalog::magic::EvalPointQuery(
        *program, {"reach", {state.sources[source], std::nullopt}}, &db,
        pq_options, &pq_stats);
  }();
  if (!answers.ok() || pq_stats.engine.join_probes != result.join_probes ||
      Sorted(*answers) != Sorted(*result.rows)) {
    report->Fail("replayed point query differs from the service's answer");
  }
}

PassResult RunPass(const State& state, const std::vector<Op>& schedule,
                   size_t warmup_ops, Tracer* tracer, Report* report) {
  PassResult pass;
  Checker checker(state, report);
  service::KgService& svc = *state.svc;
  ContentId content = -1;
  size_t reads = 0;
  for (size_t k = 0; k < schedule.size(); ++k) {
    const Op& o = schedule[k];
    const bool measured = k >= warmup_ops;
    if (measured) ++report->attempted;
    const int op =
        tracer != nullptr && measured ? tracer->Begin("op", k, -1) : -1;
    Tracer* t = op >= 0 ? tracer : nullptr;
    const char* kind = "";
    bool ok = true;
    double ms = 0;
    if (o.kind == OpKind::kWrite) {
      kind = "write";
      const vadalog::EdbDelta& delta =
          o.inverse ? state.inverse[o.batch] : state.forward[o.batch];
      const Clock::time_point t0 = Clock::now();
      Result<uint64_t> epoch = [&] {
        Scope s(t, "service.apply_delta_ms", k, op);
        return svc.ApplyDelta(delta);
      }();
      ms = Ms(t0, Clock::now());
      ok = epoch.ok();
      content = o.inverse ? -1 : static_cast<ContentId>(o.batch);
    } else {
      const bool point = o.kind == OpKind::kPoint;
      kind = point ? "point" : "metalog";
      const service::QueryRequest request =
          point ? PointRequest(state.sources[o.source]) : MetaLogRequest();
      const Clock::time_point t0 = Clock::now();
      Result<service::QueryResult> result = svc.Query(request);
      ms = Ms(t0, Clock::now());
      ok = result.ok();
      if (ok) {
        const double eval_ms =
            result->result_cache_hit ? 0.0 : result->eval_seconds * 1e3;
        if (t != nullptr) {
          t->AddMeasured("service.queue_ms", k, op, ms - eval_ms);
          t->AddMeasured("service.eval_ms", k, op, eval_ms);
        }
        if (point && !result->result_cache_hit) {
          ++pass.evaluated_reads;
          pass.evaluated_probes += result->join_probes;
          if (t != nullptr) {
            ReplayPoint(state, *result, o.source, t, k, op, report);
          }
        }
        if (point) pass.counts["point_answers"] += result->rows->size();
        if (point && reads++ % kCheckEvery == 0) {
          checker.CheckPoint(content, *svc.CurrentSnapshot(), o.source,
                             *result->rows);
        }
        if (!point) {
          pass.counts["metalog_answers"] += result->rows->size();
          checker.CheckMetaLog(content, *result->rows);
        }
      }
    }
    if (t != nullptr) t->End(op);
    if (!ok) {
      report->Fail(std::string(kind) + " op " + std::to_string(k) + " failed");
      continue;
    }
    report->probe.MaybeSample();
    if (measured) {
      const Tracer::Span* span = op >= 0 ? &tracer->spans()[op] : nullptr;
      pass.ops.push_back(
          {kind, span != nullptr ? span->end_ms - span->start_ms : ms,
           report->probe.Recent()});
    }
  }
  const service::StatsSnapshot stats = svc.Stats();
  pass.counts["result_cache_hits"] = stats.result_cache_hits;
  pass.counts["result_cache_misses"] = stats.result_cache_misses;
  pass.counts["prepared_cache_hits"] = stats.prepared_cache_hits;
  pass.counts["prepared_cache_misses"] = stats.prepared_cache_misses;
  pass.counts["point_magic"] = stats.point_magic;
  pass.counts["magic_probes"] = stats.magic_probes;
  pass.counts["evaluated_probes"] = pass.evaluated_probes;
  pass.counts["delta_publishes"] = stats.delta_publishes;
  const double lookups =
      static_cast<double>(stats.result_cache_hits + stats.result_cache_misses);
  pass.result_hit_ratio = lookups > 0 ? stats.result_cache_hits / lookups : 0;
  const double compiles = static_cast<double>(stats.prepared_cache_hits +
                                              stats.prepared_cache_misses);
  pass.prepared_hit_ratio =
      compiles > 0 ? stats.prepared_cache_hits / compiles : 0;
  return pass;
}

// The whole set-up: Build, then the warm-up cycles.
std::unique_ptr<State> SetUp(uint64_t seed, const std::vector<Op>& warmup) {
  std::unique_ptr<State> state = Build(seed);
  if (state == nullptr) return nullptr;
  Report scratch;
  RunPass(*state, warmup, warmup.size(), nullptr, &scratch);
  return scratch.failed == 0 ? std::move(state) : nullptr;
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  // An even count, so the published state ends where it started.
  const size_t cycles = 2 * OpCount(args, kCyclesPerSecond / 2, 1);
  constexpr size_t kWarmupCycles = 2;
  const std::vector<Op> schedule = Schedule(args.seed, kWarmupCycles + cycles);
  const size_t warmup_ops = kWarmupCycles * (kReadsPerCycle + 2);
  // One closed-loop client keeps at most one thread busy at a time.
  const size_t cpus = PinToCpus(1);
  report->sizes = {{"companies", kCompanies},
                   {"persons", kPersons},
                   {"workers", kWorkers},
                   {"cpus", static_cast<double>(cpus)},
                   {"sources", kSources},
                   {"write_batch_size", kWriteBatchSize},
                   {"cycles", static_cast<double>(cycles)}};

  std::unique_ptr<State> state;
  const std::vector<Op> warmup(schedule.begin(),
                               schedule.begin() + warmup_ops);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    state.reset();
    state = SetUp(args.seed, warmup);
    if (state == nullptr) return 1;
    report->AddSetup(Ms(t0, Clock::now()) / 1e3);
  }

  // The measured pass continues the same service after its warm-up.
  const std::vector<Op> measured(schedule.begin() + warmup_ops,
                                 schedule.end());
  PassResult untraced = RunPass(*state, measured, 0, nullptr, report);
  report->ops = untraced.ops;
  if (!args.trace) return 0;

  state.reset();
  state = SetUp(args.seed, warmup);
  if (state == nullptr) return 1;
  Tracer tracer;
  PassResult traced = RunPass(*state, measured, 0, &tracer, report);
  CheckExactRepeat(untraced.counts, traced.counts, report);

  const Tracer::Summary summary = tracer.Summarize();
  for (const auto& [name, ms] : summary.layer_ms) report->Layer(name, ms, "ms");
  report->Layer("vadalog.magic_probes_per_read",
                traced.evaluated_reads > 0
                    ? static_cast<double>(traced.evaluated_probes) /
                          traced.evaluated_reads
                    : 0,
                "count");
  report->Layer("service.result_hit_ratio", traced.result_hit_ratio, "ratio");
  report->Layer("metalog.prepared_hit_ratio", traced.prepared_hit_ratio,
                "ratio");
  report->Layer("serve.op_p90_ms", Percentile(NominalMillis(untraced.ops), 0.9),
                "ms");
  ReportTraceSummary(tracer, NominalMillis(untraced.ops),
                     NominalMillis(traced.ops), report);
  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    report->Fail("cannot write " + args.trace_out);
  }
  return 0;
}

}  // namespace perfbench
