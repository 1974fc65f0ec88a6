// Shared pieces of the perfbench harness: run arguments, op samples, the
// outside-in span tracer, and the metric report every workload fills.
//
// Each workload does a fixed amount of work for a given (seed, seconds)
// pair, times every op with tracing off, checks every op's output
// untimed, and — in the traced invocation — repeats the same op sequence
// with spans recorded around the calls into each layer.

#ifndef KGM_PERFBENCH_BENCH_H_
#define KGM_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b);
// CPU time of the whole process, in ms.
double ProcessCpuMs();
// Peak resident set size of the process, in MB.
double PeakRssMb();

// Every workload runs over the same generated reference network, so runs
// with different seeds do comparable work; the run seed draws what varies
// (update batches, query bindings, op order).
constexpr uint64_t kNetworkSeed = 2022;
// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;

// Mixes a run seed with a stream index, so each derived input has its own
// independent, reproducible stream.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Restricts the calling thread, and so every thread it starts later, to
// the last `n` CPUs it may run on; keeps them all when it may run on no
// more than `n`.  Returns how many CPUs it keeps.  On a shared host, each
// CPU's speed swings on its own within a fraction of a second, and waking
// a thread on another idle CPU costs a varying hypervisor round trip; with
// the workload's threads and the speed probe on the same CPUs, the probe
// sees the speed the ops see.
size_t PinToCpus(size_t n);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump of the traced pass (empty = none)
};

// One timed op of the untraced pass.  `kind` names the op type, so
// per-type latencies are reported under their own names.
struct OpSample {
  std::string kind;
  double ms = 0;
  double speed = 1;  // SpeedProbe::Recent() when the op was recorded
};

// Host speed probe.  The shared host's effective speed drifts by tens of
// percent over seconds, and a slow spell can last a whole run.  Between
// ops the workloads call MaybeSample(), which at most every kIntervalMs
// times a fixed piece of work that runs none of the program's code and
// allocates only from memory the probe owns: a hash table build and
// lookups, a string build and sort, and a row build and copy, the kinds
// of work the program's ops spend their time on.  A sample is the
// geometric mean of the three times over their nominal times, i.e. how
// much slower than nominal the host runs right now; Recent() is the median
// of the last few samples.
class SpeedProbe {
 public:
  static constexpr double kIntervalMs = 40;

  void MaybeSample();
  void Sample(size_t n);
  // Median ratio over the whole run.
  double Factor() const;
  double Recent() const;
  size_t samples() const { return samples_.size(); }

 private:
  Clock::time_point last_{};
  std::vector<double> samples_;
};

// Raw wall-clock op times, and op times at the probe's nominal speed.
std::vector<double> Millis(const std::vector<OpSample>& ops);
std::vector<double> NominalMillis(const std::vector<OpSample>& ops);

// Linear-interpolated percentile of `values` (p in [0, 1]).
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Spans recorded in memory around calls into the program's layers.  A
// span is (name, start, end, parent, op id); spans with parent -1 are op
// spans, their direct children are the layer spans that must add back up
// to the op.
class Tracer {
 public:
  struct Span {
    std::string name;
    size_t op = 0;
    int parent = -1;
    double start_ms = 0;  // since the tracer was created
    double end_ms = 0;
  };

  Tracer();

  int Begin(std::string name, size_t op, int parent);
  void End(int span);
  // A layer duration the program measured itself inside the parent's
  // interval (e.g. a stats field): recorded as a child span ending now.
  void AddMeasured(std::string name, size_t op, int parent, double ms);
  // A layer duration the program measured outside the parent's interval
  // that still belongs to the op: recorded as a child span laid after the
  // parent's end, which moves by `ms`.
  void AppendMeasured(std::string name, size_t op, int parent, double ms);

  const std::vector<Span>& spans() const { return spans_; }
  // Per-op means over all op spans: total op time, the time of every
  // direct child by name, and what the children leave uncovered.
  struct Summary {
    size_t ops = 0;
    double op_ms = 0;
    double other_ms = 0;
    std::map<std::string, double> layer_ms;
  };
  Summary Summarize() const;
  // Writes one JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Ends a span when it goes out of scope; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, size_t op, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, op, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// What a workload hands back to main().
struct Report {
  // One entry per set-up repetition, normalized to the probe's speed.
  std::vector<double> setup_s;
  std::vector<OpSample> ops;    // untraced pass, in the order run
  SpeedProbe probe;             // sampled between ops
  size_t attempted = 0;
  size_t failed = 0;            // failed ops and failed output checks
  // Inputs that define the work, recorded with the result.
  std::vector<std::pair<std::string, double>> sizes;
  // Per-layer metrics (traced invocation only), with units.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layer;

  void Layer(const std::string& name, double value, const char* unit) {
    layer.push_back({name, {value, unit}});
  }
  // Records one set-up repetition's wall time.
  void AddSetup(double seconds);
  void Fail(const std::string& what);
};

// Deterministic counters of one pass; two passes over the same seed must
// produce identical maps (the exact-repeat check).
using Counts = std::map<std::string, uint64_t>;
// Compares the counters of two passes, counting each mismatch as a
// failure on `report`.
void CheckExactRepeat(const Counts& first, const Counts& second,
                      Report* report);
// Records the traced pass's per-op span summary and the tracing overhead
// (traced op p50 minus untraced op p50, both at the probe's nominal
// speed).
void ReportTraceSummary(const Tracer& tracer,
                        const std::vector<double>& untraced_op_ms,
                        const std::vector<double>& traced_op_ms,
                        Report* report);

// The op count of a run: `per_second` ops per requested second, at least
// `minimum`.  The traced invocation runs half as many (in each pass), so
// its two passes take about as long as one untraced run.
size_t OpCount(const Args& args, double per_second, size_t minimum);

int RunRefresh(const Args& args, Report* report);
int RunMaintain(const Args& args, Report* report);
int RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // KGM_PERFBENCH_BENCH_H_
