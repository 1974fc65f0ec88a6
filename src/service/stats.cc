#include "service/stats.h"

#include <algorithm>
#include <sstream>

namespace kgm::service {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

std::string StatsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"queries_total\":" << queries_total;
  out << ",\"queries_ok\":" << queries_ok;
  out << ",\"queries_failed\":" << queries_failed;
  out << ",\"queue_rejected\":" << queue_rejected;
  out << ",\"deadline_exceeded\":" << deadline_exceeded;
  out << ",\"relations_copied\":" << relations_copied;
  out << ",\"result_cache_hits\":" << result_cache_hits;
  out << ",\"result_cache_misses\":" << result_cache_misses;
  out << ",\"result_cache_key_collisions\":" << result_cache_key_collisions;
  out << ",\"prepared_cache_hits\":" << prepared_cache_hits;
  out << ",\"prepared_cache_misses\":" << prepared_cache_misses;
  out << ",\"prepared_cache_key_collisions\":"
      << prepared_cache_key_collisions;
  out << ",\"publishes\":" << publishes;
  out << ",\"delta_publishes\":" << delta_publishes;
  out << ",\"epoch\":" << epoch;
  out << ",\"epoch_age_seconds\":" << epoch_age_seconds;
  out << ",\"queue_depth\":" << queue_depth;
  out << ",\"uptime_seconds\":" << uptime_seconds;
  out << ",\"qps\":" << qps;
  out << ",\"latency_samples\":" << latency_samples;
  out << ",\"latency_p50\":" << latency_p50;
  out << ",\"latency_p95\":" << latency_p95;
  out << ",\"latency_p99\":" << latency_p99;
  out << ",\"latency_max\":" << latency_max;
  out << ",\"magic\":{";
  out << "\"point_queries\":" << point_queries;
  out << ",\"magic\":" << point_magic;
  out << ",\"edb_lookup\":" << point_edb_lookup;
  out << ",\"materialize\":" << point_materialize;
  out << ",\"rewrites\":" << magic_rewrites;
  out << ",\"fallbacks\":" << magic_fallbacks;
  out << ",\"subqueries\":" << magic_subqueries;
  out << ",\"probes\":" << magic_probes;
  out << "}";
  out << "}";
  return out.str();
}

ServiceStats::ServiceStats(size_t latency_window)
    : start_(std::chrono::steady_clock::now()) {
  latencies_.resize(std::max<size_t>(latency_window, 1));
}

void ServiceStats::RecordLatencyLocked(double latency_seconds) {
  latencies_[latency_next_] = latency_seconds;
  latency_next_ = (latency_next_ + 1) % latencies_.size();
  ++latency_count_;
}

void ServiceStats::RecordOk(double latency_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++queries_ok_;
  RecordLatencyLocked(latency_seconds);
}

void ServiceStats::RecordFailed(double latency_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++queries_failed_;
  RecordLatencyLocked(latency_seconds);
}

void ServiceStats::RecordDeadlineExceeded(double latency_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++deadline_exceeded_;
  RecordLatencyLocked(latency_seconds);
}

void ServiceStats::RecordQueueRejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++queue_rejected_;
}

void ServiceStats::RecordResultCache(bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hit) {
    ++result_cache_hits_;
  } else {
    ++result_cache_misses_;
  }
}

void ServiceStats::RecordRelationsCopied(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  relations_copied_ += n;
}

void ServiceStats::RecordPointQuery(
    const vadalog::magic::PointQueryStats& pq_stats) {
  using vadalog::magic::PointQueryMode;
  std::lock_guard<std::mutex> lock(mu_);
  switch (pq_stats.mode) {
    case PointQueryMode::kMagic:
      ++point_magic_;
      break;
    case PointQueryMode::kEdbLookup:
      ++point_edb_lookup_;
      break;
    case PointQueryMode::kMaterialize:
      ++point_materialize_;
      break;
    case PointQueryMode::kOff:
      return;  // not a point query; nothing to count
  }
  magic_rewrites_ += pq_stats.magic_rewrites;
  if (pq_stats.mode == PointQueryMode::kMagic) {
    magic_subqueries_ += pq_stats.adorned.size();
  } else if (pq_stats.mode == PointQueryMode::kMaterialize &&
             pq_stats.fallback != vadalog::magic::FallbackReason::kNone) {
    ++magic_fallbacks_;
  }
  magic_probes_ += pq_stats.engine.join_probes;
}

void ServiceStats::RecordMagicRewrite() {
  std::lock_guard<std::mutex> lock(mu_);
  ++magic_rewrites_;
}

void ServiceStats::RecordPublish(uint64_t epoch, bool delta) {
  std::lock_guard<std::mutex> lock(mu_);
  ++publishes_;
  if (delta) ++delta_publishes_;
  epoch_ = epoch;
  last_publish_ = std::chrono::steady_clock::now();
}

StatsSnapshot ServiceStats::Snapshot(size_t queue_depth,
                                     const ExternalCounters& external) const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  s.queries_ok = queries_ok_;
  s.queries_failed = queries_failed_;
  s.queue_rejected = queue_rejected_;
  s.deadline_exceeded = deadline_exceeded_;
  s.relations_copied = relations_copied_;
  // Completed queries only; queue rejections are reported separately (see
  // the StatsSnapshot contract in stats.h) so queries_total and qps share
  // one definition.
  s.queries_total = queries_ok_ + queries_failed_ + deadline_exceeded_;
  s.result_cache_hits = result_cache_hits_;
  s.result_cache_misses = result_cache_misses_;
  s.result_cache_key_collisions = external.result_key_collisions;
  s.prepared_cache_hits = external.prepared_hits;
  s.prepared_cache_misses = external.prepared_misses;
  s.prepared_cache_key_collisions = external.prepared_key_collisions;
  s.publishes = publishes_;
  s.delta_publishes = delta_publishes_;
  s.epoch = epoch_;
  s.queue_depth = queue_depth;
  s.point_magic = point_magic_;
  s.point_edb_lookup = point_edb_lookup_;
  s.point_materialize = point_materialize_;
  s.point_queries =
      point_magic_ + point_edb_lookup_ + point_materialize_;
  s.magic_rewrites = magic_rewrites_;
  s.magic_fallbacks = magic_fallbacks_;
  s.magic_subqueries = magic_subqueries_;
  s.magic_probes = magic_probes_;

  const auto now = std::chrono::steady_clock::now();
  s.uptime_seconds = std::chrono::duration<double>(now - start_).count();
  if (last_publish_ != std::chrono::steady_clock::time_point{}) {
    s.epoch_age_seconds =
        std::chrono::duration<double>(now - last_publish_).count();
  }
  s.qps = s.uptime_seconds > 0
              ? static_cast<double>(s.queries_total) / s.uptime_seconds
              : 0;

  std::vector<double> window(
      latencies_.begin(),
      latencies_.begin() +
          static_cast<ptrdiff_t>(std::min(latency_count_, latencies_.size())));
  std::sort(window.begin(), window.end());
  s.latency_samples = window.size();
  s.latency_p50 = Percentile(window, 0.50);
  s.latency_p95 = Percentile(window, 0.95);
  s.latency_p99 = Percentile(window, 0.99);
  s.latency_max = window.empty() ? 0 : window.back();
  return s;
}

}  // namespace kgm::service
