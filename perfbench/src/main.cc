// perfbench harness: runs one workload with a fixed amount of work and
// prints its metrics as one JSON object on the last line of stdout.
//
//   kgm_perfbench --workload refresh|maintain|serve --seed N --seconds S
//                 --trace 0|1 [--trace-out spans.jsonl]
//
// --trace 0 reports the end-to-end metrics of an untraced pass.
// --trace 1 runs the untraced pass, then the same op sequence again with
// spans recorded around every call into a layer, and reports the
// per-layer metrics, the tracing overhead, and the exact-repeat check of
// every deterministic counter between the two passes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace {

#if !defined(__OPTIMIZE__)
constexpr bool kOptimized = false;
#else
constexpr bool kOptimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args->seconds = std::atoi(value);
    } else if (std::strcmp(key, "--trace") == 0) {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(key, "--trace-out") == 0) {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void PrintMetric(bool* first, const std::string& name, double value,
                 const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name.c_str(), value, unit.c_str());
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload refresh|maintain|serve --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr,
                 "refusing to report timings from an %s build\n",
                 kSanitized ? "sanitized" : "unoptimized");
    return 3;
  }

  Report report;
  int rc = 0;
  if (args.workload == "refresh") {
    rc = RunRefresh(args, &report);
  } else if (args.workload == "maintain") {
    rc = RunMaintain(args, &report);
  } else if (args.workload == "serve") {
    rc = RunServe(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0 || report.ops.empty()) return rc != 0 ? rc : 1;

  // Op times at the probe's nominal host speed (see SpeedProbe).
  const std::vector<double> all = NominalMillis(report.ops);
  const std::vector<double> raw = Millis(report.ops);
  std::map<std::string, std::vector<double>> by_kind;
  double total_ms = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    by_kind[report.ops[i].kind].push_back(all[i]);
    total_ms += all[i];
  }

  // Host, build and size record, one line before the result, with the
  // raw wall-clock op times next to the speed factor that scales them.
  std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %d, \"trace\": %d, \"nproc\": %u, "
              "\"optimized\": %s, \"sanitized\": %s, \"ops\": %zu, "
              "\"speed_factor\": %.6f, \"probe_samples\": %zu, "
              "\"raw_op_p50_ms\": %.6f, \"raw_op_p90_ms\": %.6f",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              kOptimized ? "true" : "false", kSanitized ? "true" : "false",
              report.ops.size(), report.probe.Factor(),
              report.probe.samples(), Percentile(raw, 0.5),
              Percentile(raw, 0.9));
  for (const auto& [name, value] : report.sizes) {
    std::printf(", \"%s\": %.9g", name.c_str(), value);
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  bool first = true;
  if (!args.trace) {
    PrintMetric(&first, "setup_s", Median(report.setup_s), "s");
    PrintMetric(&first, "peak_rss_mb", PeakRssMb(), "MB");
    PrintMetric(&first, "ops_per_s",
                static_cast<double>(all.size()) / (total_ms / 1e3), "1/s");
    PrintMetric(&first, "op_p50_ms", Percentile(all, 0.5), "ms");
  } else {
    for (const auto& [name, value] : report.layer) {
      PrintMetric(&first, name, value.first, value.second);
    }
    if (by_kind.size() > 1) {
      for (const auto& [kind, values] : by_kind) {
        PrintMetric(&first, args.workload + "." + kind + "_p50_ms",
                    Median(values), "ms");
      }
    }
  }
  std::printf("}}\n");
  return 0;
}
