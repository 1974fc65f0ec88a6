// Service-side observability: request counters, latency percentiles over a
// sliding window, cache hit rates, queue depth and epoch age, snapshotted
// atomically and dumpable as JSON for dashboards / the bench harness.

#ifndef KGM_SERVICE_STATS_H_
#define KGM_SERVICE_STATS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "vadalog/magic/point_query.h"

namespace kgm::service {

// Point-in-time copy of the service counters.
//
// Counting contract: `queries_total` counts COMPLETED queries — exactly
// queries_ok + queries_failed + deadline_exceeded — and `qps` is
// queries_total / uptime_seconds, so the two always agree.  Requests
// bounced by admission control never reach evaluation and are reported
// only in `queue_rejected`; they are in neither queries_total nor qps.
struct StatsSnapshot {
  uint64_t queries_total = 0;       // completed: ok + failed + deadline
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;      // compile/eval errors
  uint64_t queue_rejected = 0;      // admission control (Unavailable);
                                    // NOT included in queries_total
  uint64_t deadline_exceeded = 0;
  // Snapshot relations that evaluations had to copy because they wrote
  // them or probed them through an index the publication did not build.
  // 0 while every query stays on the zero-copy path.
  uint64_t relations_copied = 0;

  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  // Hash matched a cached entry but the full key material did not (see
  // LruCache / PreparedCache): served as a miss, never as wrong data.
  uint64_t result_cache_key_collisions = 0;
  uint64_t prepared_cache_hits = 0;
  uint64_t prepared_cache_misses = 0;
  uint64_t prepared_cache_key_collisions = 0;

  uint64_t publishes = 0;           // full + delta publications
  uint64_t delta_publishes = 0;     // ApplyDelta publications only
  uint64_t epoch = 0;
  double epoch_age_seconds = 0;     // since last publish; 0 if never

  size_t queue_depth = 0;           // in-flight + queued requests
  double uptime_seconds = 0;
  double qps = 0;                   // queries_total / uptime_seconds

  // Latency percentiles (seconds) over the most recent window.
  size_t latency_samples = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  double latency_max = 0;

  // Point-query routing (vadalog::magic::EvalPointQuery), accumulated over
  // every bound-argument evaluation.  Rendered as a nested "magic" object
  // in ToJson.  point_queries = the mode counters summed; magic_fallbacks
  // counts only queries that wanted magic but landed on materialize.
  // magic_rewrites counts rewrites actually computed, not magic runs
  // (point_magic counts those): a read that reuses the service's cached
  // rewrite for its (program, predicate, adornment) adds nothing, so
  // point_magic - magic_rewrites is the rewrite cache's saving.
  uint64_t point_queries = 0;
  uint64_t point_magic = 0;         // answered by the magic-sets rewrite
  uint64_t point_edb_lookup = 0;    // answered by a direct relation probe
  uint64_t point_materialize = 0;   // fell back to full materialization
  uint64_t magic_rewrites = 0;      // successful rewrites computed
  uint64_t magic_fallbacks = 0;     // wanted magic, got materialize
  uint64_t magic_subqueries = 0;    // adorned predicates of magic rewrites
  uint64_t magic_probes = 0;        // join probes spent answering

  std::string ToJson() const;
};

// Thread-safe accumulator.  Record* methods take one mutex briefly;
// latencies go into a fixed ring so memory stays bounded.
class ServiceStats {
 public:
  explicit ServiceStats(size_t latency_window = 4096);

  void RecordOk(double latency_seconds);
  void RecordFailed(double latency_seconds);
  void RecordDeadlineExceeded(double latency_seconds);
  void RecordQueueRejected();
  void RecordResultCache(bool hit);
  void RecordRelationsCopied(uint64_t n);
  void RecordPublish(uint64_t epoch, bool delta = false);
  // Folds one point-query evaluation's routing outcome and magic counters
  // into the service aggregates.
  void RecordPointQuery(const vadalog::magic::PointQueryStats& pq_stats);
  // Counts one successful magic rewrite computed for the rewrite cache;
  // rewrites computed inside a point query arrive via RecordPointQuery.
  void RecordMagicRewrite();

  // Cache counters owned elsewhere, passed in when snapshotting.
  struct ExternalCounters {
    uint64_t prepared_hits = 0;
    uint64_t prepared_misses = 0;
    uint64_t prepared_key_collisions = 0;
    uint64_t result_key_collisions = 0;
  };

  // `queue_depth` and the cache counters live elsewhere; the service
  // passes current values when snapshotting.
  StatsSnapshot Snapshot(size_t queue_depth,
                         const ExternalCounters& external) const;

 private:
  void RecordLatencyLocked(double latency_seconds);

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_publish_{};
  uint64_t queries_ok_ = 0;
  uint64_t queries_failed_ = 0;
  uint64_t queue_rejected_ = 0;
  uint64_t deadline_exceeded_ = 0;
  uint64_t relations_copied_ = 0;
  uint64_t result_cache_hits_ = 0;
  uint64_t result_cache_misses_ = 0;
  uint64_t publishes_ = 0;
  uint64_t delta_publishes_ = 0;
  uint64_t epoch_ = 0;
  uint64_t point_magic_ = 0;
  uint64_t point_edb_lookup_ = 0;
  uint64_t point_materialize_ = 0;
  uint64_t magic_rewrites_ = 0;
  uint64_t magic_fallbacks_ = 0;
  uint64_t magic_subqueries_ = 0;
  uint64_t magic_probes_ = 0;
  std::vector<double> latencies_;  // ring buffer
  size_t latency_next_ = 0;
  size_t latency_count_ = 0;       // total ever recorded
};

}  // namespace kgm::service

#endif  // KGM_SERVICE_STATS_H_
