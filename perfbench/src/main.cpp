// perfbench — the edgedrift serving benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.jsonl>] [--source-id <id>]
//
// Prints a host/build stamp line, a diagnostics line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check failed (the JSON still says which way), 2 on
// bad arguments.
#include <sched.h>
#include <sys/prctl.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "edgedrift/linalg/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// JSON-escapes the few characters a metric name or message may hold.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--source-id <id>]\nworkloads:",
               msg);
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Transparent huge pages off for this process. With the host's THP mode
  // set to "always", the page faults of a 100k-stream stats() snapshot cost
  // 80 ms or 110 ms depending on whether the host has free 2 MB pages at
  // the time, which other tenants decide and which holds for a whole run.
  // With 4 KB pages every run pays the same faults. Allocator settings
  // stay at their defaults.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  perfbench::RunOptions opt;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
        return usage("--seconds takes a number in [1, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == opt.workload;
  if (!known) return usage(("unknown workload " + opt.workload).c_str());

  // Results from different hosts or builds are not comparable: every run
  // says which host and build produced it.
  std::printf(
      "perfbench-stamp {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %d, \"simd\": %s, \"build_type\": %s, \"build_flags\": %s, "
      "\"source\": %s}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, usable_cores(),
      quoted(edgedrift::linalg::simd::kLevelName).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(PERFBENCH_BUILD_FLAGS).c_str(), quoted(source_id).c_str());
  std::fflush(stdout);

  const perfbench::RunResult r = perfbench::run_workload(opt);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  for (const auto& d : r.diagnostics) {
    if (d.name == "bench.lag_flagged" && d.value != 0.0) {
      std::fprintf(stderr,
                   "perfbench: generator lag p90 exceeds half the latency "
                   "p50; the latency figures are distorted\n");
    }
  }
  std::printf("perfbench-diagnostics %s\n",
              metrics_json(r.diagnostics).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r.metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
