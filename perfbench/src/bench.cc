#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory_resource>
#include <string>
#include <unordered_map>

namespace perfbench {

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t PinToCpus(size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  const size_t available = static_cast<size_t>(CPU_COUNT(&allowed));
  if (available <= n) return available;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  size_t kept = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && kept < n; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++kept;
    }
  }
  return sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? kept : available;
}

std::vector<double> Millis(const std::vector<OpSample>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpSample& s : ops) out.push_back(s.ms);
  return out;
}

std::vector<double> NominalMillis(const std::vector<OpSample>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpSample& s : ops) out.push_back(s.ms / s.speed);
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

namespace {

// Each probe part runs in a monotonic arena over memory the probe owns, so
// the state the program left in the heap cannot move it.  Arena() empties
// the arena, so a part calls it once.  The nominal times are each part's
// time on the reference host (4 vCPUs) at full speed.
std::pmr::monotonic_buffer_resource& Arena() {
  static std::vector<std::byte> memory(4 << 20);
  static std::pmr::monotonic_buffer_resource pool(
      memory.data(), memory.size(), std::pmr::null_memory_resource());
  pool.release();
  return pool;
}

// Where each part stores a result, so the compiler keeps its work.
volatile uint64_t probe_sink = 0;

uint64_t Lcg(uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

// Inserts 20000 keys into a hash table, then looks up 20000 more.
constexpr double kHashNominalMs = 1.3;
double HashProbeMs() {
  const Clock::time_point t0 = Clock::now();
  std::pmr::unordered_map<uint64_t, uint64_t> table(&Arena());
  uint64_t x = 12345;
  for (uint64_t i = 0; i < 20000; ++i) {
    x = Lcg(x);
    table[x >> 20] = i;
  }
  uint64_t found = 0;
  x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = Lcg(x);
    found += table.count(x >> 19);
  }
  probe_sink = found + table.size();
  return Ms(t0, Clock::now());
}

// Builds 6000 identifier-like strings and sorts them.
constexpr double kStringNominalMs = 1.7;
double StringProbeMs() {
  const Clock::time_point t0 = Clock::now();
  std::pmr::vector<std::pmr::string> names(&Arena());
  uint64_t x = 99;
  char buf[64];
  for (int i = 0; i < 6000; ++i) {
    x = Lcg(x);
    std::snprintf(buf, sizeof buf, "company_%llu_person",
                  static_cast<unsigned long long>(x >> 30));
    names.emplace_back(buf);
  }
  std::sort(names.begin(), names.end());
  probe_sink = names[100].size();
  return Ms(t0, Clock::now());
}

// Builds 4000 small rows, copies them, then copies a 4 MiB buffer:
// allocation and copy traffic like a snapshot clone.
constexpr double kCopyNominalMs = 0.8;
double CopyProbeMs() {
  static std::vector<char> src(4 << 20, 1);
  static std::vector<char> dst(4 << 20);
  const Clock::time_point t0 = Clock::now();
  std::pmr::memory_resource* arena = &Arena();
  std::pmr::vector<std::pmr::vector<uint64_t>> rows(arena);
  rows.reserve(4000);
  for (uint64_t i = 0; i < 4000; ++i) rows.push_back({i, i * 3, 7, 9});
  std::pmr::vector<std::pmr::vector<uint64_t>> copy(rows, arena);
  std::memcpy(dst.data(), src.data(), src.size());
  probe_sink = copy[17][1] + static_cast<uint64_t>(dst[12345]);
  return Ms(t0, Clock::now());
}

}  // namespace

void SpeedProbe::MaybeSample() {
  const double since = samples_.empty() ? kIntervalMs
                                        : Ms(last_, Clock::now());
  if (since < kIntervalMs) return;
  // One probe per interval elapsed, so long ops get as many as short ones.
  Sample(std::min<size_t>(4, static_cast<size_t>(since / kIntervalMs)));
}

void SpeedProbe::Sample(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    samples_.push_back(std::cbrt(HashProbeMs() / kHashNominalMs *
                                 StringProbeMs() / kStringNominalMs *
                                 CopyProbeMs() / kCopyNominalMs));
  }
  last_ = Clock::now();
}

double SpeedProbe::Factor() const {
  return samples_.empty() ? 1.0 : Median(samples_);
}

double SpeedProbe::Recent() const {
  if (samples_.empty()) return 1.0;
  const size_t n = std::min<size_t>(5, samples_.size());
  return Median(std::vector<double>(samples_.end() - n, samples_.end()));
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::Begin(std::string name, size_t op, int parent) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = parent;
  s.start_ms = Ms(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) { spans_[span].end_ms = Ms(origin_, Clock::now()); }

void Tracer::AddMeasured(std::string name, size_t op, int parent, double ms) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = parent;
  s.end_ms = Ms(origin_, Clock::now());
  s.start_ms = s.end_ms - ms;
  spans_.push_back(std::move(s));
}

void Tracer::AppendMeasured(std::string name, size_t op, int parent,
                            double ms) {
  Span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = parent;
  s.start_ms = spans_[parent].end_ms;
  s.end_ms = s.start_ms + ms;
  spans_[parent].end_ms = s.end_ms;
  spans_.push_back(std::move(s));
}

Tracer::Summary Tracer::Summarize() const {
  Summary out;
  double covered = 0;
  for (const Span& s : spans_) {
    const double d = s.end_ms - s.start_ms;
    if (s.parent < 0) {
      ++out.ops;
      out.op_ms += d;
    } else if (spans_[s.parent].parent < 0) {
      out.layer_ms[s.name] += d;
      covered += d;
    }
  }
  if (out.ops == 0) return out;
  const double n = static_cast<double>(out.ops);
  out.other_ms = (out.op_ms - covered) / n;
  out.op_ms /= n;
  for (auto& [name, ms] : out.layer_ms) ms /= n;
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"op\": %zu, \"parent\": %d, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 s.name.c_str(), s.op, s.parent, s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

size_t OpCount(const Args& args, double per_second, size_t minimum) {
  const double ops = args.seconds * per_second / (args.trace ? 2 : 1);
  return std::max(minimum, static_cast<size_t>(ops + 0.5));
}

void Report::AddSetup(double seconds) {
  probe.Sample(3);
  setup_s.push_back(seconds / probe.Recent());
}

void Report::Fail(const std::string& what) {
  ++failed;
  // Keep the log short: the count is what the result reports.
  if (failed <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void CheckExactRepeat(const Counts& first, const Counts& second,
                      Report* report) {
  if (first == second) return;
  for (const auto& [name, value] : first) {
    auto it = second.find(name);
    const uint64_t other = it == second.end() ? 0 : it->second;
    if (other != value) {
      report->Fail("count " + name + " differs between passes: " +
                   std::to_string(value) + " vs " + std::to_string(other));
    }
  }
}

void ReportTraceSummary(const Tracer& tracer,
                        const std::vector<double>& untraced_op_ms,
                        const std::vector<double>& traced_op_ms,
                        Report* report) {
  const Tracer::Summary summary = tracer.Summarize();
  report->Layer("trace.op_ms", summary.op_ms, "ms");
  report->Layer("trace.other_ms", summary.other_ms, "ms");
  report->Layer("trace.overhead_ms", Median(traced_op_ms) - Median(untraced_op_ms),
                "ms");
}

}  // namespace perfbench
