// The three named serving workloads and the phases every run goes through:
// set-up (timed, repeated), warm-up, an open-loop latency phase at a fixed
// offered rate, a closed-loop throughput phase, then untimed output checks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Harness diagnostics, printed but not part of the result contract.
  std::vector<Metric> diagnostics;
  /// One line per failed output check.
  std::vector<std::string> failures;
};

/// Names accepted by run_workload, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Runs one workload. Unknown names yield a result with a failure.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
