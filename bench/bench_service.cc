// Closed-loop load generator for the serving layer: N client threads fire
// MetaLog queries at a KgService over a generated shareholding network and
// the throughput/latency difference between the uncached path (every
// request compiles + evaluates) and the warm result cache (every request is
// a lookup against the pinned epoch) is written to BENCH_service.json.
// One timed run of a phase records host load as much as code (runs of one
// binary spread several-fold on a shared host), so each phase runs
// kRepeats times, alternating with the other phase, and the file records
// the median run's qps with the min and max.
//
// Usage: bench_service [output.json] [clients] [seconds_per_run]
// Default output file: BENCH_service.json in the working directory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "finkg/generator.h"
#include "service/service.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRepeats = 5;

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

// The query mix: significant-holding pairs at different thresholds.  Each
// program derives a fresh edge label, so they compile independently but
// share the snapshot encoding.
std::vector<kgm::service::QueryRequest> QueryMix() {
  const char* thresholds[] = {"0.05", "0.10", "0.15", "0.25"};
  std::vector<kgm::service::QueryRequest> mix;
  for (const char* t : thresholds) {
    kgm::service::QueryRequest request;
    request.program =
        "(p: Person)[: HOLDS; percentage: w](s: Share)"
        "[: BELONGS_TO](b: Business), w > " + std::string(t) +
        " -> exists e = skB" + std::string(t + 2) +
        "(p, b) (p)[e: SIG_HOLD](b).";
    request.language = kgm::service::QueryLanguage::kMetaLog;
    request.output = "SIG_HOLD";
    mix.push_back(std::move(request));
  }
  return mix;
}

struct PhaseResult {
  size_t queries = 0;
  size_t errors = 0;
  size_t cache_hits = 0;
  double seconds = 0;
  double qps = 0;
};

// The runs of one phase: counts summed over the runs, qps of the median
// run with the lowest and highest.
struct RepeatedPhase {
  size_t queries = 0;
  size_t errors = 0;
  size_t cache_hits = 0;
  size_t runs = 0;
  double qps = 0;
  double qps_min = 0;
  double qps_max = 0;
};

RepeatedPhase Combine(const std::vector<PhaseResult>& runs) {
  RepeatedPhase out;
  std::vector<double> qps;
  for (const PhaseResult& r : runs) {
    out.queries += r.queries;
    out.errors += r.errors;
    out.cache_hits += r.cache_hits;
    qps.push_back(r.qps);
  }
  out.runs = runs.size();
  if (qps.empty()) return out;
  std::sort(qps.begin(), qps.end());
  out.qps = qps[qps.size() / 2];
  out.qps_min = qps.front();
  out.qps_max = qps.back();
  return out;
}

// Runs `clients` closed-loop threads against `svc` for `duration`.
PhaseResult RunPhase(kgm::service::KgService& svc,
                     const std::vector<kgm::service::QueryRequest>& mix,
                     size_t clients, double duration, bool use_cache) {
  std::atomic<size_t> queries{0};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> cache_hits{0};
  std::atomic<bool> stop{false};

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = c;  // stagger the mix across clients
      while (!stop.load(std::memory_order_relaxed)) {
        kgm::service::QueryRequest request = mix[i++ % mix.size()];
        request.use_result_cache = use_cache;
        auto result = svc.Query(request);
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else if (result->result_cache_hit) {
          cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.queries = queries.load();
  r.errors = errors.load();
  r.cache_hits = cache_hits.load();
  r.qps = r.seconds > 0 ? static_cast<double>(r.queries) / r.seconds : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_service.json";
  const size_t clients = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  const double phase_seconds = argc > 3 ? std::strtod(argv[3], nullptr) : 2.0;

  kgm::finkg::GeneratorConfig config;
  config.num_companies = 400;
  config.num_persons = 800;
  kgm::finkg::ShareholdingNetwork net =
      kgm::finkg::ShareholdingNetwork::Generate(config);

  kgm::service::KgServiceOptions options;
  options.num_workers = clients;
  options.queue_capacity = clients * 4;
  kgm::service::KgService svc(options);
  const uint64_t epoch = svc.Publish(net.ToInstanceGraph());

  const std::vector<kgm::service::QueryRequest> mix = QueryMix();

  // Warm the prepared cache so the uncached phase measures evaluation, not
  // first-compile latency; then measure with the result cache disabled vs
  // enabled (the second phase's first round misses, the rest hit).
  for (const kgm::service::QueryRequest& request : mix) {
    auto result = svc.Execute(request);
    if (!result.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<PhaseResult> uncached_runs;
  std::vector<PhaseResult> cached_runs;
  for (size_t i = 0; i < kRepeats; ++i) {
    uncached_runs.push_back(RunPhase(svc, mix, clients, phase_seconds, false));
    cached_runs.push_back(RunPhase(svc, mix, clients, phase_seconds, true));
  }
  const RepeatedPhase uncached = Combine(uncached_runs);
  const RepeatedPhase cached = Combine(cached_runs);
  const double speedup = uncached.qps > 0 ? cached.qps / uncached.qps : 0;

  kgm::service::StatsSnapshot stats = svc.Stats();

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  JsonWriter w{f};
  w.Open(nullptr, '{');
  w.Field("bench", "service");
  w.Field("clients", clients);
  w.Field("phase_seconds", phase_seconds);
  w.Field("repeats", kRepeats);
  // Interpreting this file across runs: qps/latency depend on the host.
  // On a 1-CPU CI runner the closed-loop clients time-share one core with
  // the worker pool, so absolute numbers there are indicative only —
  // compare phases within a single run, not across machines.
  w.Field("host_cpus",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  w.Field("build_type", KGM_BUILD_TYPE);
  w.Field("note",
          "qps and latency are host-dependent; on a 1-cpu CI runner "
          "clients contend with the worker pool, compare only within "
          "this run");
  w.Field("companies", static_cast<size_t>(config.num_companies));
  w.Field("persons", static_cast<size_t>(config.num_persons));
  w.Field("epoch", static_cast<size_t>(epoch));
  w.Open("uncached", '{');
  w.Field("queries", uncached.queries);
  w.Field("errors", uncached.errors);
  w.Field("qps", uncached.qps);
  w.Field("qps_min", uncached.qps_min);
  w.Field("qps_max", uncached.qps_max);
  w.Close('}');
  w.Open("result_cached", '{');
  w.Field("queries", cached.queries);
  w.Field("errors", cached.errors);
  w.Field("cache_hits", cached.cache_hits);
  w.Field("qps", cached.qps);
  w.Field("qps_min", cached.qps_min);
  w.Field("qps_max", cached.qps_max);
  w.Close('}');
  w.Field("speedup", speedup);
  w.Open("service_stats", '{');
  w.Field("queries_total", stats.queries_total);
  w.Field("queue_rejected", stats.queue_rejected);
  w.Field("prepared_cache_hits", stats.prepared_cache_hits);
  w.Field("prepared_cache_misses", stats.prepared_cache_misses);
  w.Field("latency_p50", stats.latency_p50);
  w.Field("latency_p95", stats.latency_p95);
  w.Field("latency_p99", stats.latency_p99);
  w.Close('}');
  w.Close('}');
  std::fputc('\n', f);
  std::fclose(f);

  std::printf(
      "bench_service: %zu clients  uncached %.0f qps  cached %.0f qps  "
      "speedup %.1fx  -> %s\n",
      clients, uncached.qps, cached.qps, speedup, out_path.c_str());
  if (cached.errors > 0 || uncached.errors > 0) {
    std::fprintf(stderr, "bench_service: %zu errors\n",
                 cached.errors + uncached.errors);
    return 1;
  }
  return 0;
}
