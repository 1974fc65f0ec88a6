// Point-query benchmark: closed-loop bound-query load against KgService,
// magic-sets routing vs materialize-then-scan, at 1/8/32 clients.
//
// The workload is the controls-style reachability query: transitive
// ownership closure over the OWNS edges of a generated Company KG, asked
// with the source company bound (`reach(c, ?)`).  Each phase fires the
// same binding mix twice — once with the point-query router enabled
// (magic-sets rewrite answers from the query's cone) and once with
// `use_point_query = false` (full materialization, then filter; the
// honest baseline whose join_probes include the output scan).  The result
// cache is disabled so every request measures evaluation.
//
// Per phase the harness reports throughput, latency percentiles, total
// join probes and fallback counts.  One timed run records host load as
// much as code (runs of one binary spread several-fold on a shared host),
// so each phase runs kRepeats times, alternating the two modes: qps is
// the median run's, with the min and max beside it, and the counts and
// latency percentiles cover every run.  The whole run is spliced as a
// "point_query" section into BENCH_service.json (run after bench_service,
// which creates the file).  The probe-reduction factor is asserted: magic
// must beat the materialize baseline by >= 5x on this workload or the
// bench exits nonzero — probe counts are deterministic, so this is a
// correctness-of-optimization gate, not a timing gate.
//
// Usage: bench_pointquery [output.json] [seconds_per_run] [companies]
//                         [persons]
// Default output file: BENCH_service.json in the working directory.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "finkg/generator.h"
#include "service/service.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRepeats = 5;

// Section writer: builds the "point_query" JSON object in memory so it
// can be spliced into bench_service's BENCH_service.json.
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

// Transitive ownership reach (examples/programs/reach.vlog): the
// controls-style closure the point-query acceptance criterion targets.
constexpr const char* kReachProgram =
    "@input(\"OWNS\").\n"
    "OWNS(_e, x, y, _w) -> reach(x, y).\n"
    "reach(x, y), OWNS(_e, y, z, _w) -> reach(x, z).\n"
    "@output(\"reach\").\n";

// One timed run of a phase.
struct PhaseRun {
  size_t queries = 0;
  size_t errors = 0;
  size_t fallbacks = 0;     // answered by materialize despite routing on
  size_t probes_total = 0;  // engine join probes across all requests
  double qps = 0;
  std::vector<double> latencies;  // seconds, one per query
};

// The runs of one phase: counts and latency percentiles over every run,
// qps of the median run with the lowest and highest.
struct PhaseResult {
  size_t queries = 0;
  size_t errors = 0;
  size_t fallbacks = 0;
  size_t probes_total = 0;
  double qps = 0;
  double qps_min = 0;
  double qps_max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

// Runs `clients` closed-loop threads firing bound reach queries for
// `duration`; `use_point_query = false` forces the materialize baseline.
PhaseRun RunPhase(kgm::service::KgService& svc,
                  const std::vector<kgm::Value>& sources, size_t clients,
                  double duration, bool use_point_query) {
  std::atomic<size_t> queries{0};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> fallbacks{0};
  std::atomic<size_t> probes{0};
  std::atomic<bool> stop{false};
  std::mutex latencies_mu;
  std::vector<double> latencies;

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      size_t i = c;  // stagger the binding mix across clients
      while (!stop.load(std::memory_order_relaxed)) {
        kgm::service::QueryRequest request;
        request.program = kReachProgram;
        request.language = kgm::service::QueryLanguage::kVadalog;
        request.output = "reach";
        request.use_result_cache = false;  // measure evaluation, not lookup
        request.use_point_query = use_point_query;
        request.bound_args = {sources[i++ % sources.size()], std::nullopt};
        const Clock::time_point q0 = Clock::now();
        auto result = svc.Query(request);
        local.push_back(
            std::chrono::duration<double>(Clock::now() - q0).count());
        queries.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          probes.fetch_add(result->join_probes, std::memory_order_relaxed);
          if (!result->point_fallback.empty() && use_point_query) {
            fallbacks.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  PhaseRun r;
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  r.queries = queries.load();
  r.errors = errors.load();
  r.fallbacks = fallbacks.load();
  r.probes_total = probes.load();
  r.qps = seconds > 0 ? static_cast<double>(r.queries) / seconds : 0;
  r.latencies = std::move(latencies);
  return r;
}

PhaseResult Combine(const std::vector<PhaseRun>& runs) {
  PhaseResult r;
  std::vector<double> qps;
  std::vector<double> latencies;
  for (const PhaseRun& run : runs) {
    r.queries += run.queries;
    r.errors += run.errors;
    r.fallbacks += run.fallbacks;
    r.probes_total += run.probes_total;
    qps.push_back(run.qps);
    latencies.insert(latencies.end(), run.latencies.begin(),
                     run.latencies.end());
  }
  if (!qps.empty()) {
    std::sort(qps.begin(), qps.end());
    r.qps = qps[qps.size() / 2];
    r.qps_min = qps.front();
    r.qps_max = qps.back();
  }
  std::sort(latencies.begin(), latencies.end());
  r.p50 = Percentile(latencies, 0.50);
  r.p95 = Percentile(latencies, 0.95);
  r.p99 = Percentile(latencies, 0.99);
  return r;
}

void WritePhase(SectionWriter& w, const char* key, const PhaseResult& r) {
  w.Open(key, '{');
  w.Field("queries", r.queries);
  w.Field("errors", r.errors);
  w.Field("fallbacks", r.fallbacks);
  w.Field("qps", r.qps);
  w.Field("qps_min", r.qps_min);
  w.Field("qps_max", r.qps_max);
  w.Field("latency_p50", r.p50);
  w.Field("latency_p95", r.p95);
  w.Field("latency_p99", r.p99);
  w.Field("probes_total", r.probes_total);
  if (r.queries > 0) {
    w.Field("probes_per_query", static_cast<double>(r.probes_total) /
                                    static_cast<double>(r.queries));
  }
  w.Close('}');
}

// Splices `section` (the value of the "point_query" key) into the JSON
// object in `path`.  bench_service produces the file fresh each run, so
// replacing an existing section is not attempted.
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
    while (!out.empty() &&
           (out.back() == '\n' || out.back() == ' ' || out.back() == '\t')) {
      out.pop_back();
    }
    out += ",\n  \"point_query\": " + section + "\n}\n";
  } else {
    out = "{\n  \"point_query\": " + section + "\n}\n";
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
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_service.json";
  const double phase_seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 1.0;
  finkg::GeneratorConfig config;
  config.num_companies = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 200;
  config.num_persons = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 300;
  config.seed = 2022;

  finkg::ShareholdingNetwork net =
      finkg::ShareholdingNetwork::Generate(config);

  const size_t kMaxClients = 32;
  service::KgServiceOptions options;
  options.num_workers = kMaxClients;
  options.queue_capacity = kMaxClients * 4;
  service::KgService svc(options);
  svc.Publish(net.ToOwnershipGraph(/*include_persons=*/true));

  // Binding mix: distinct owner oids pulled from the snapshot's OWNS
  // relation (column 1 is `from`), so every query has a non-empty cone.
  std::vector<Value> sources;
  {
    auto snap = svc.CurrentSnapshot();
    auto owns = snap->facts.find("OWNS");
    if (owns == snap->facts.end() || owns->second->size() == 0) {
      std::fprintf(stderr, "snapshot has no OWNS edges\n");
      return 1;
    }
    std::set<std::string> seen;
    for (const vadalog::Tuple& t : owns->second->tuples()) {
      if (seen.insert(t[1].ToString()).second) sources.push_back(t[1]);
      if (sources.size() >= 16) break;
    }
  }

  SectionWriter w;
  w.Open(nullptr, '{');
  w.Field("benchmark", "point_query");
  w.Field("program", "reach_over_owns");
  w.Field("companies", static_cast<size_t>(config.num_companies));
  w.Field("persons", static_cast<size_t>(config.num_persons));
  w.Field("bindings", sources.size());
  w.Field("phase_seconds", phase_seconds);
  w.Field("repeats", kRepeats);
  w.Field("host_cpus",
          static_cast<size_t>(std::thread::hardware_concurrency()));
  w.Field("build_type", KGM_BUILD_TYPE);
  w.Field("note",
          "closed-loop clients share cores with the service workers; on a "
          "1-cpu CI runner compare modes within this run only, probe "
          "counts are the machine-independent signal");

  size_t total_errors = 0;
  double worst_reduction = 0;
  bool have_reduction = false;
  w.Open("clients", '[');
  for (size_t clients : {size_t{1}, size_t{8}, size_t{32}}) {
    std::vector<PhaseRun> magic_runs;
    std::vector<PhaseRun> mat_runs;
    for (size_t i = 0; i < kRepeats; ++i) {
      magic_runs.push_back(
          RunPhase(svc, sources, clients, phase_seconds, true));
      mat_runs.push_back(
          RunPhase(svc, sources, clients, phase_seconds, false));
    }
    const PhaseResult magic = Combine(magic_runs);
    const PhaseResult mat = Combine(mat_runs);
    total_errors += magic.errors + mat.errors;

    const double magic_ppq =
        magic.queries > 0 ? static_cast<double>(magic.probes_total) /
                                static_cast<double>(magic.queries)
                          : 0;
    const double mat_ppq =
        mat.queries > 0 ? static_cast<double>(mat.probes_total) /
                              static_cast<double>(mat.queries)
                        : 0;
    const double reduction = magic_ppq > 0 ? mat_ppq / magic_ppq : 0;
    if (!have_reduction || reduction < worst_reduction) {
      worst_reduction = reduction;
      have_reduction = true;
    }

    w.Open(nullptr, '{');
    w.Field("clients", clients);
    WritePhase(w, "magic", magic);
    WritePhase(w, "materialize", mat);
    w.Field("probe_reduction", reduction);
    w.Field("speedup", mat.qps > 0 && magic.qps > 0 ? magic.qps / mat.qps : 0);
    w.Close('}');

    std::printf(
        "bench_pointquery: %2zu clients  magic %6.0f qps (p50 %.4fs, "
        "%.0f probes/q)  materialize %6.0f qps (p50 %.4fs, %.0f probes/q)  "
        "probe reduction %.1fx\n",
        clients, magic.qps, magic.p50, magic_ppq, mat.qps, mat.p50, mat_ppq,
        reduction);
  }
  w.Close(']');
  w.Field("probe_reduction_min", worst_reduction);
  w.Close('}');

  if (total_errors > 0) {
    std::fprintf(stderr, "bench_pointquery: %zu errors\n", total_errors);
    return 1;
  }
  if (!have_reduction || worst_reduction < 5.0) {
    std::fprintf(stderr,
                 "bench_pointquery: probe reduction %.2fx below the 5x "
                 "acceptance floor\n",
                 worst_reduction);
    return 1;
  }
  if (!WriteSection(out_path, w.out.str())) return 1;
  std::printf("wrote point_query section into %s\n", out_path.c_str());
  return 0;
}
