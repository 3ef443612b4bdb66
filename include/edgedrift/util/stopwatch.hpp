// Wall-clock timing helpers used by the evaluation harness, the benches and
// the serving layer's busy-time telemetry.
#pragma once

#include <chrono>
#include <cstdint>

namespace edgedrift::util {

/// Monotonic stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch from zero.
  void restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last restart().
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or the last restart().
  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

  /// Elapsed whole nanoseconds since construction or the last restart().
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace edgedrift::util
