#include "service/service.h"

#include <algorithm>
#include <functional>
#include <future>
#include <set>
#include <utility>

#include "base/value.h"
#include "lint/lint.h"

namespace kgm::service {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Sorted predicates of `program` that exist in the snapshot encoding —
// the extensional inputs of the evaluation.  Head-only predicates that
// shadow a snapshot relation count too: the engine seeds them from the
// existing rows.
std::vector<std::string> InputPredicates(const vadalog::Program& program,
                                         const Snapshot& snap) {
  std::vector<std::string> preds;
  auto consider = [&](const std::string& pred) {
    if (snap.facts.count(pred) > 0) preds.push_back(pred);
  };
  for (const vadalog::Rule& rule : program.rules) {
    for (const vadalog::Literal& lit : rule.body) consider(lit.atom.predicate);
    for (const vadalog::Atom& head : rule.head) consider(head.predicate);
  }
  for (const vadalog::FactDecl& fact : program.facts) consider(fact.predicate);
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

// Column names of a label's relational encoding; empty for non-labels.
std::vector<std::string> ColumnsFor(const metalog::GraphCatalog& catalog,
                                    const std::string& output) {
  std::vector<std::string> cols;
  if (catalog.HasNodeLabel(output)) {
    cols.push_back("oid");
    for (const std::string& p : catalog.NodeProps(output)) cols.push_back(p);
  } else if (catalog.HasEdgeLabel(output)) {
    cols.push_back("oid");
    cols.push_back("from");
    cols.push_back("to");
    for (const std::string& p : catalog.EdgeProps(output)) cols.push_back(p);
  }
  return cols;
}

}  // namespace

KgService::KgService(KgServiceOptions options)
    : options_(options),
      pool_(std::max<size_t>(options.num_workers, 1)),
      prepared_(options.prepared_cache_capacity),
      results_(options.result_cache_capacity),
      rewrites_(options.prepared_cache_capacity) {
  prepared_.set_lint_hook([config = options_.lint_config](
                              const metalog::CompiledMeta& compiled,
                              const metalog::GraphCatalog& base) {
    lint::LintOptions lint_options;
    // Catalog labels are extensional: defined by the graph, not by rules.
    // A Vadalog program reads them as relations of the encoding.
    for (const std::string& l : compiled.catalog.NodeLabels()) {
      lint_options.external_predicates.push_back(l);
    }
    for (const std::string& l : compiled.catalog.EdgeLabels()) {
      lint_options.external_predicates.push_back(l);
    }
    lint::LintResult result =
        compiled.language == QueryLanguage::kVadalog
            ? lint::RunLints(compiled.program, lint_options)
            : lint::LintCompiledMeta(compiled.meta, compiled.program,
                                     compiled.rule_origin, &base,
                                     lint_options);
    // Deployment severity overrides run before the cached result is
    // stored, so admission and any later renderings agree.
    config.Apply(&result);
    return result;
  });
}

KgService::~KgService() { pool_.WaitIdle(); }

uint64_t KgService::Publish(pg::PropertyGraph graph) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t epoch = next_epoch_++;
  std::shared_ptr<const Snapshot> snap =
      BuildSnapshot(std::move(graph), epoch);
  const uint64_t catalog_fingerprint = snap->catalog_fingerprint;
  std::shared_ptr<const Snapshot> prev;
  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    prev = std::exchange(snapshot_, std::move(snap));
  }
  // Results are keyed by epoch, so entries for older epochs can never be
  // returned for queries against this one — the clear just frees capacity.
  // A reader still pinned to an old snapshot may re-insert an old-epoch
  // entry after this; that is correct for its epoch and ages out via LRU.
  results_.Clear();
  // Rewrites hold prepared entries compiled against the old catalog; once
  // it changes, new reads compile new entries, so free the slots.
  if (prev == nullptr || prev->catalog_fingerprint != catalog_fingerprint) {
    rewrites_.Clear();
  }
  stats_.RecordPublish(epoch);
  return epoch;
}

Result<uint64_t> KgService::ApplyDelta(const vadalog::EdbDelta& delta) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  std::shared_ptr<const Snapshot> prev = CurrentSnapshot();
  if (prev == nullptr) {
    return FailedPrecondition("no graph published yet");
  }

  // Validate before touching anything: every delta predicate must name an
  // existing relation and every tuple must match its arity.
  auto validate = [&](const std::map<std::string, std::vector<vadalog::Tuple>>&
                          by_pred) -> Status {
    for (const auto& [pred, tuples] : by_pred) {
      auto it = prev->facts.find(pred);
      if (it == prev->facts.end()) {
        return InvalidArgument("delta names unknown relation '" + pred + "'");
      }
      for (const vadalog::Tuple& t : tuples) {
        if (t.size() != it->second->arity()) {
          return InvalidArgument(
              "delta tuple arity " + std::to_string(t.size()) +
              " != " + std::to_string(it->second->arity()) + " for '" + pred +
              "'");
        }
      }
    }
    return OkStatus();
  };
  KGM_RETURN_IF_ERROR(validate(delta.deletes));
  KGM_RETURN_IF_ERROR(validate(delta.inserts));

  const uint64_t epoch = next_epoch_++;
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->published_at = Clock::now();
  snap->graph = prev->graph;  // shared: the delta lives in the encoding
  snap->catalog = prev->catalog;
  snap->catalog_fingerprint = prev->catalog_fingerprint;
  snap->is_delta = true;
  snap->num_nodes = prev->num_nodes;
  snap->num_edges = prev->num_edges;

  // Copy only the touched relations; share the rest.  `changed` records
  // relations whose contents actually moved (a delete of an absent tuple
  // or an insert of a present one is a no-op).
  std::set<std::string> touched;
  for (const auto& [pred, tuples] : delta.deletes) touched.insert(pred);
  for (const auto& [pred, tuples] : delta.inserts) touched.insert(pred);
  vadalog::FactDb db = prev->CloneFacts();
  std::set<std::string> changed;
  for (const std::string& pred : touched) {
    vadalog::Relation* rel = db.GetMutable(pred);
    auto del = delta.deletes.find(pred);
    auto ins = delta.inserts.find(pred);
    if (del != delta.deletes.end()) rel->EraseTuples(del->second);
    if (ins != delta.inserts.end()) {
      for (const vadalog::Tuple& t : ins->second) rel->Insert(t);
    }
    if (rel->version() != prev->facts.at(pred)->version()) {
      changed.insert(pred);
    }
  }
  snap->facts = std::move(db).Share();

  {
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    snapshot_ = snap;
  }

  // Carry forward result-cache entries of the previous epoch whose inputs
  // are untouched by the delta: same program + same relation contents =>
  // same rows, so the cached entry is re-keyed to the new epoch.  All
  // other entries age out via their stale epoch key.
  std::vector<std::pair<ResultKeyMaterial, std::shared_ptr<const CachedResult>>>
      carried;
  results_.ForEach([&](const ResultKeyMaterial& key,
                       const std::shared_ptr<const CachedResult>& value) {
    if (key.epoch != prev->epoch) return;
    for (const std::string& pred : value->input_preds) {
      if (changed.count(pred) > 0) return;
    }
    ResultKeyMaterial forwarded = key;
    forwarded.epoch = epoch;
    carried.emplace_back(std::move(forwarded), value);
  });
  results_.Clear();
  for (auto& [key, value] : carried) {
    results_.Put(std::move(key), std::move(value));
  }

  stats_.RecordPublish(epoch, /*delta=*/true);
  return epoch;
}

std::shared_ptr<const Snapshot> KgService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t KgService::CurrentEpoch() const {
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  return snap == nullptr ? 0 : snap->epoch;
}

bool KgService::ResultKeyMaterial::operator==(
    const ResultKeyMaterial& other) const {
  return program == other.program && output == other.output &&
         language == other.language && epoch == other.epoch &&
         binding == other.binding && point_query == other.point_query;
}

uint64_t KgService::ResultKeyMaterial::Hash() const {
  uint64_t key = std::hash<std::string>{}(program);
  key = HashCombine(key, std::hash<std::string>{}(output));
  key = HashCombine(key, static_cast<uint64_t>(language));
  key = HashCombine(key, epoch);
  key = HashCombine(key, std::hash<std::string>{}(binding));
  key = HashCombine(key, point_query ? 1u : 0u);
  return key;
}

KgService::ResultKeyMaterial KgService::ResultKey(
    const QueryRequest& request, uint64_t epoch) {
  ResultKeyMaterial key;
  key.program = request.program;
  key.output = request.output;
  key.language = request.language;
  key.epoch = epoch;
  if (!request.bound_args.empty()) {
    key.binding =
        vadalog::magic::QueryBinding{request.output, request.bound_args}
            .CacheKey();
    key.point_query = request.use_point_query;
  }
  return key;
}

bool KgService::RewriteKey::operator==(const RewriteKey& other) const {
  return entry == other.entry && predicate == other.predicate &&
         adornment == other.adornment;
}

uint64_t KgService::RewriteKey::Hash() const {
  uint64_t key = std::hash<const void*>{}(entry.get());
  key = HashCombine(key, std::hash<std::string>{}(predicate));
  key = HashCombine(key, std::hash<std::string>{}(adornment));
  return key;
}

std::shared_ptr<const vadalog::magic::MagicRewrite> KgService::CachedRewrite(
    const std::shared_ptr<const metalog::CompiledMeta>& entry,
    const vadalog::magic::QueryBinding& binding,
    const std::set<std::string>& edb) {
  RewriteKey key{entry, binding.predicate, binding.Adornment()};
  if (std::shared_ptr<const vadalog::magic::MagicRewrite> hit =
          rewrites_.Get(key)) {
    return hit;
  }
  auto rewrite = std::make_shared<const vadalog::magic::MagicRewrite>(
      vadalog::magic::RewriteForQuery(entry->program, binding, edb));
  if (rewrite->ok()) stats_.RecordMagicRewrite();
  return rewrites_.PutIfAbsent(std::move(key), std::move(rewrite));
}

Status KgService::LintAdmission(const QueryRequest& request,
                                AdmittedCompile* admitted) {
  std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
  if (snap == nullptr) return OkStatus();  // Evaluate reports the real error
  KGM_ASSIGN_OR_RETURN(
      admitted->compiled,
      prepared_.Compile(request.program, snap->catalog, request.language));
  admitted->epoch = snap->epoch;
  if (admitted->compiled->lint.has_errors()) {
    return InvalidArgument("program rejected by lint: " +
                           admitted->compiled->lint.FirstError());
  }
  return OkStatus();
}

Result<QueryResult> KgService::Query(const QueryRequest& request) {
  const Clock::time_point start = Clock::now();
  // Lint before queueing: a program that can never run must not occupy a
  // queue slot or a worker.  The compiled program is carried into
  // evaluation so admission never adds a second cache lookup.
  AdmittedCompile admitted;
  if (Status ok = LintAdmission(request, &admitted); !ok.ok()) {
    stats_.RecordFailed(Seconds(start, Clock::now()));
    return ok;
  }
  // Admission: reserve a queue slot or reject.  fetch_add + rollback keeps
  // the check race-free without a lock.
  const size_t prev = pending_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= options_.queue_capacity) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.RecordQueueRejected();
    return Unavailable(
        "service queue full (capacity " +
        std::to_string(options_.queue_capacity) + ")");
  }
  const Clock::time_point deadline =
      request.timeout_ms > 0
          ? start + std::chrono::milliseconds(request.timeout_ms)
          : Clock::time_point{};

  std::promise<Result<QueryResult>> promise;
  std::future<Result<QueryResult>> future = promise.get_future();
  pool_.Submit([this, &request, &promise, start, deadline, admitted] {
    Result<QueryResult> result = Evaluate(request, start, deadline, admitted);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    promise.set_value(std::move(result));
  });
  return future.get();
}

Result<QueryResult> KgService::Execute(const QueryRequest& request) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      request.timeout_ms > 0
          ? start + std::chrono::milliseconds(request.timeout_ms)
          : Clock::time_point{};
  return Evaluate(request, start, deadline, AdmittedCompile{});
}

Result<QueryResult> KgService::Evaluate(const QueryRequest& request,
                                        Clock::time_point start,
                                        Clock::time_point deadline,
                                        const AdmittedCompile& admitted) {
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // A request can expire while queued; don't start evaluating it.
    if (deadline != Clock::time_point{} && Clock::now() >= deadline) {
      return DeadlineExceeded("deadline expired before evaluation");
    }
    std::shared_ptr<const Snapshot> snap = CurrentSnapshot();
    if (snap == nullptr) {
      return FailedPrecondition("no graph published yet");
    }
    return EvaluateOnSnapshot(request, *snap, deadline, admitted);
  }();

  const double latency = Seconds(start, Clock::now());
  if (result.ok()) {
    stats_.RecordOk(latency);
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    stats_.RecordDeadlineExceeded(latency);
  } else {
    stats_.RecordFailed(latency);
  }
  return result;
}

Result<QueryResult> KgService::EvaluateOnSnapshot(
    const QueryRequest& request, const Snapshot& snap,
    Clock::time_point deadline, const AdmittedCompile& admitted) {
  const ResultKeyMaterial key = ResultKey(request, snap.epoch);
  if (request.use_result_cache) {
    if (std::shared_ptr<const CachedResult> hit = results_.Get(key)) {
      stats_.RecordResultCache(true);
      QueryResult out;
      out.epoch = snap.epoch;
      out.result_cache_hit = true;
      out.eval_seconds = hit->eval_seconds;
      out.columns = hit->columns;
      out.point_mode = hit->point_mode;
      out.point_fallback = hit->point_fallback;
      out.join_probes = hit->join_probes;
      out.rows = hit->rows;
      return out;
    }
    stats_.RecordResultCache(false);
  }

  const Clock::time_point eval_start = Clock::now();
  QueryResult out;
  out.epoch = snap.epoch;

  std::shared_ptr<const metalog::CompiledMeta> compiled =
      admitted.epoch == snap.epoch ? admitted.compiled : nullptr;
  if (compiled == nullptr) {
    KGM_ASSIGN_OR_RETURN(compiled, prepared_.Compile(request.program,
                                                     snap.catalog,
                                                     request.language));
  }
  // Execute() bypasses Query()'s pre-queue check; the lint result is
  // cached with the compilation, so this re-check costs a flag read.
  if (compiled->lint.has_errors()) {
    return InvalidArgument("program rejected by lint: " +
                           compiled->lint.FirstError());
  }
  vadalog::FactDb db;
  if (snap.catalog.SameColumnsIn(compiled->catalog)) {
    db = snap.CloneFacts();
  } else if (snap.is_delta) {
    // The delta lives only in the encoding; re-encoding the (stale)
    // graph would silently drop it.
    return FailedPrecondition(
        "program widens an extensional label but the current epoch is a "
        "delta snapshot; publish a full graph to run it");
  } else {
    db = metalog::EncodeGraph(*snap.graph, compiled->catalog);
    out.fresh_encoding = true;
  }
  if (request.language == QueryLanguage::kMetaLog) {
    out.columns = ColumnsFor(compiled->catalog, request.output);
  }
  const vadalog::Program& program = compiled->program;
  const std::vector<std::string> input_preds = InputPredicates(program, snap);

  vadalog::EngineOptions engine_options = options_.engine;
  engine_options.deadline = deadline;

  auto rows = std::make_shared<std::vector<vadalog::Tuple>>();
  if (!request.bound_args.empty()) {
    // Point query: route through the magic-sets dispatcher against
    // this request's view of the pinned snapshot.  With
    // use_point_query=false the dispatcher is forced onto the materialize
    // route, giving benchmarks an apples-to-apples baseline (same entry
    // point, same filter semantics, full bottom-up evaluation).
    vadalog::magic::QueryBinding binding{request.output, request.bound_args};
    vadalog::magic::PointQueryOptions pq_options;
    pq_options.engine = engine_options;
    pq_options.force_materialize = !request.use_point_query;
    // A fresh encoding may hold other relations than the snapshot's, so
    // its reads rewrite on the spot.
    if (!out.fresh_encoding) {
      pq_options.rewrite_lookup =
          [this, &compiled](const vadalog::magic::QueryBinding& query,
                            const std::set<std::string>& edb) {
            return CachedRewrite(compiled, query, edb);
          };
    }
    vadalog::magic::PointQueryStats pq_stats;
    Result<std::vector<vadalog::Tuple>> answers = vadalog::magic::EvalPointQuery(
        program, binding, &db, pq_options, &pq_stats);
    KGM_RETURN_IF_ERROR(answers.status());
    stats_.RecordPointQuery(pq_stats);
    out.point_mode = pq_stats.mode;
    if (pq_stats.fallback != vadalog::magic::FallbackReason::kNone) {
      out.point_fallback =
          vadalog::magic::FallbackReasonName(pq_stats.fallback);
    }
    out.join_probes = pq_stats.engine.join_probes;
    *rows = *std::move(answers);
  } else {
    vadalog::EngineStats engine_stats;
    KGM_RETURN_IF_ERROR(
        compiled->engine->Run(&db, engine_options, &engine_stats));
    out.join_probes = engine_stats.join_probes;
    if (const vadalog::Relation* rel = db.Get(request.output)) {
      const vadalog::Relation::LiveTuples live = rel->tuples();
      rows->assign(live.begin(), live.end());
    }
  }
  out.rows = std::move(rows);
  out.eval_seconds = Seconds(eval_start, Clock::now());
  if (db.relations_copied() > 0) {
    stats_.RecordRelationsCopied(db.relations_copied());
  }

  if (request.use_result_cache) {
    auto cached = std::make_shared<CachedResult>();
    cached->columns = out.columns;
    cached->rows = out.rows;
    cached->eval_seconds = out.eval_seconds;
    cached->input_preds = input_preds;
    cached->point_mode = out.point_mode;
    cached->point_fallback = out.point_fallback;
    cached->join_probes = out.join_probes;
    results_.Put(key, std::move(cached));
  }
  return out;
}

StatsSnapshot KgService::Stats() const {
  const metalog::PreparedCache::Counters prepared = prepared_.counters();
  ServiceStats::ExternalCounters external;
  external.prepared_hits = prepared.hits;
  external.prepared_misses = prepared.misses;
  external.prepared_key_collisions = prepared.key_collisions;
  external.result_key_collisions = results_.counters().key_collisions;
  return stats_.Snapshot(pending_.load(std::memory_order_relaxed), external);
}

}  // namespace kgm::service
