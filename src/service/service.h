// KgService: an embeddable, thread-safe serving layer over a materialized
// knowledge graph.
//
// The service owns the published graph as a sequence of immutable,
// epoch-stamped snapshots (see snapshot.h).  Writers materialize a new
// graph off to the side and Publish() it — one shared_ptr swap under a
// leaf mutex held only for the pointer copy — while readers keep
// evaluating against the epoch they pinned; no query ever observes a
// half-published graph and no reader ever waits for snapshot
// construction, only for a concurrent pointer copy.
//
// Queries (MetaLog or Vadalog) flow through three layers:
//
//   1. admission control — a bounded queue over a worker pool; requests
//      beyond `queue_capacity` are rejected immediately with Unavailable
//      rather than piling up latency;
//   2. caching — MetaLog programs are parse+MTV-compiled once per
//      (source, catalog fingerprint) via PreparedCache, and whole results
//      are cached per (request, epoch), invalidated by publication;
//   3. evaluation — the snapshot's precomputed relational encoding is
//      cloned, the compiled program runs to fixpoint with a per-request
//      deadline (cooperatively checked inside the engine), and the output
//      predicate's tuples are returned.

#ifndef KGM_SERVICE_SERVICE_H_
#define KGM_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/thread_pool.h"
#include "lint/config.h"
#include "metalog/mtv.h"
#include "metalog/prepared.h"
#include "pg/property_graph.h"
#include "service/cache.h"
#include "service/snapshot.h"
#include "service/stats.h"
#include "vadalog/engine.h"
#include "vadalog/incremental.h"
#include "vadalog/magic/point_query.h"

namespace kgm::service {

enum class QueryLanguage {
  kMetaLog,  // compiled via MTV against the snapshot catalog
  kVadalog,  // parsed directly; runs over the relational encoding
};

struct QueryRequest {
  std::string program;
  QueryLanguage language = QueryLanguage::kMetaLog;
  // Predicate whose facts are the result.  For MetaLog this is a label:
  // node rows are (oid, props...), edge rows (oid, from, to, props...).
  std::string output;
  int64_t timeout_ms = 0;  // 0 = no per-request deadline
  bool use_result_cache = true;
  // Point query: when non-empty, `bound_args` is an argument binding for
  // `output` (one entry per position, nullopt = free) and the evaluation
  // routes through the magic-sets point-query dispatcher instead
  // of full materialization; the rows returned are exactly the tuples
  // matching the binding.  Aggregates and all-free bindings fall back to
  // materialize-then-filter with the reason recorded on the result.
  // `use_point_query = false` keeps the binding semantics but forces the
  // materialize route (benchmark baseline).
  std::vector<std::optional<Value>> bound_args;
  bool use_point_query = true;
};

struct QueryResult {
  uint64_t epoch = 0;
  bool result_cache_hit = false;
  // Set when the program widened an extensional label's property list and
  // the graph had to be re-encoded instead of cloning the snapshot facts.
  bool fresh_encoding = false;
  double eval_seconds = 0;
  // Column names of `rows` (known for MetaLog outputs; empty for Vadalog).
  std::vector<std::string> columns;
  // Point-query routing outcome (kOff unless the request carried
  // `bound_args`): the mode that answered, why magic was skipped if it
  // was, and the evaluation's join-probe count (for the materialize route
  // this includes the output filter scan — the honest baseline cost).
  vadalog::magic::PointQueryMode point_mode = vadalog::magic::PointQueryMode::kOff;
  std::string point_fallback;
  size_t join_probes = 0;
  // Shared with the result cache; never mutated after creation.
  std::shared_ptr<const std::vector<vadalog::Tuple>> rows;
};

struct KgServiceOptions {
  size_t num_workers = 4;
  // Upper bound on queued + running requests; 0 rejects every Query()
  // (Execute() stays available).  Rejections return Unavailable.
  size_t queue_capacity = 64;
  size_t prepared_cache_capacity = 128;
  size_t result_cache_capacity = 256;
  // Per-query engine configuration.  Queries default to single-threaded
  // evaluation — the pool provides cross-request parallelism.
  vadalog::EngineOptions engine;
  metalog::MtvOptions mtv;
  // Run the lint pipeline on every program and reject those with
  // error-severity diagnostics with InvalidArgument — for MetaLog before
  // the request is even queued (diagnostics are cached with the prepared
  // program, so the check is free on cache hits).
  bool lint_admission = true;
  // Per-pass severity overrides (.kgmlint semantics) applied to every
  // lint run before the error check, so deployments can promote a
  // warning-grade pass to an admission blocker or silence a pass without
  // a rebuild.  Empty = stock severities.
  lint::LintConfig lint_config;

  KgServiceOptions() { engine.num_threads = 1; }
};

class KgService {
 public:
  explicit KgService(KgServiceOptions options = {});
  ~KgService();

  KgService(const KgService&) = delete;
  KgService& operator=(const KgService&) = delete;

  // Builds a snapshot from `graph` (taken by value) and makes it the
  // current epoch.  Readers holding the previous epoch finish against
  // it; new queries see the new one.  Returns the new epoch.  Publishers
  // are serialized; building happens outside the snapshot lock, so
  // readers only ever contend on the O(1) pointer swap.
  uint64_t Publish(pg::PropertyGraph graph);

  // Publishes a DELTA snapshot: applies `delta` (deletes before inserts,
  // both idempotent) to the current epoch's relational encoding, cloning
  // only the touched relations and sharing every other relation — plus the
  // graph and the catalog — with the previous snapshot by pointer.  Result
  // cache entries whose recorded input predicates are disjoint from the
  // relations the delta actually changed are carried forward to the new
  // epoch instead of being dropped.  Delta predicates must name existing
  // relations with matching arity (InvalidArgument otherwise); requires a
  // prior Publish (FailedPrecondition).  Returns the new epoch.
  //
  // The snapshot's property graph is NOT updated — queries that would need
  // a fresh graph encoding (an extensional label widened by the program)
  // fail with FailedPrecondition on delta snapshots instead of reading
  // stale data; publish a full graph to clear the condition.
  Result<uint64_t> ApplyDelta(const vadalog::EdbDelta& delta);

  // The current epoch's snapshot (nullptr before the first Publish).
  std::shared_ptr<const Snapshot> CurrentSnapshot() const;
  uint64_t CurrentEpoch() const;

  // Runs a query through admission control on the worker pool; blocks the
  // caller until the result is ready.  Returns Unavailable when the queue
  // is full and DeadlineExceeded when `timeout_ms` elapses (including
  // queue wait).
  Result<QueryResult> Query(const QueryRequest& request);

  // Evaluates on the caller's thread, bypassing admission control (still
  // honors `timeout_ms`).  For embedders that manage their own threading.
  Result<QueryResult> Execute(const QueryRequest& request);

  StatsSnapshot Stats() const;

  metalog::PreparedCache& prepared_cache() { return prepared_; }

 private:
  struct CachedResult {
    std::vector<std::string> columns;
    std::shared_ptr<const std::vector<vadalog::Tuple>> rows;
    double eval_seconds = 0;
    vadalog::magic::PointQueryMode point_mode =
        vadalog::magic::PointQueryMode::kOff;
    std::string point_fallback;
    size_t join_probes = 0;
    // Sorted snapshot predicates the evaluation read (every program
    // predicate present in the snapshot encoding).  ApplyDelta carries an
    // entry forward only when this set is disjoint from the delta's
    // changed relations.
    std::vector<std::string> input_preds;
  };

  // Full key material of one result-cache entry.  The cache indexes by
  // Hash() but verifies the whole struct on hit, so hash collisions are
  // misses, never wrong rows.
  struct ResultKeyMaterial {
    std::string program;
    std::string output;
    QueryLanguage language = QueryLanguage::kMetaLog;
    uint64_t epoch = 0;
    bool reflexive_star = false;
    int max_stars_per_rule = 0;
    // Point-query key material: the collision-free serialization of the
    // binding (QueryBinding::CacheKey — constants are kind-tagged and
    // doubles print round-trip exactly, so 1, 1.0 and "1" key
    // differently) and whether the point-query router was enabled.
    // Same program + same binding but a different route must never share
    // an entry: the rows agree, but the recorded mode/probe counters
    // don't.
    std::string binding;
    bool point_query = false;

    bool operator==(const ResultKeyMaterial& other) const;
    uint64_t Hash() const;
  };

  static ResultKeyMaterial ResultKey(const QueryRequest& request,
                                     uint64_t epoch,
                                     const metalog::MtvOptions& mtv);

  // Compilation carried from pre-queue admission into evaluation so each
  // request is compiled (and cache-counted) at most once.  `epoch` is the
  // snapshot epoch the compile was keyed against; evaluation only reuses
  // the program if it still runs on that epoch.
  struct AdmittedCompile {
    std::shared_ptr<const metalog::CompiledMeta> compiled;
    uint64_t epoch = 0;
  };

  // Pre-queue admission: compiles a MetaLog request through the prepared
  // cache and rejects programs whose cached lint result carries errors.
  // No-op for Vadalog requests (they are linted during evaluation) and
  // before the first Publish.
  Status LintAdmission(const QueryRequest& request, AdmittedCompile* admitted);

  // Full evaluation with stats recording; `start` is the admission time.
  Result<QueryResult> Evaluate(const QueryRequest& request,
                               std::chrono::steady_clock::time_point start,
                               std::chrono::steady_clock::time_point deadline,
                               const AdmittedCompile& admitted);
  // The uninstrumented evaluation pipeline.
  Result<QueryResult> EvaluateOnSnapshot(
      const QueryRequest& request, const Snapshot& snap,
      std::chrono::steady_clock::time_point deadline,
      const AdmittedCompile& admitted);

  KgServiceOptions options_;
  ThreadPool pool_;
  // Current epoch.  A leaf mutex guards the pointer itself; critical
  // sections are a single shared_ptr copy/assign.  (A C++20
  // std::atomic<std::shared_ptr> would do, but libstdc++'s lock-bit
  // implementation is opaque to TSan, which this repo gates on.)
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;  // guarded by snapshot_mu_
  std::mutex publish_mu_;
  uint64_t next_epoch_ = 1;  // guarded by publish_mu_
  metalog::PreparedCache prepared_;
  LruCache<ResultKeyMaterial, CachedResult> results_;
  std::atomic<size_t> pending_{0};  // queued + running requests
  ServiceStats stats_;
};

}  // namespace kgm::service

#endif  // KGM_SERVICE_SERVICE_H_
