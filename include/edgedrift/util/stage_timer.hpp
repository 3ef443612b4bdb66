// Named-stage time accumulation, used to reproduce the paper's Table 6
// (per-sample execution-time breakdown of the proposed method).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace edgedrift::util {

/// Accumulates wall-clock time into named stages.
///
/// Stages are created lazily on first use and remembered in first-use order,
/// which keeps breakdown tables stable across runs.
class StageTimer {
 public:
  /// RAII scope that adds its lifetime to one stage of the parent timer.
  /// A null timer makes the scope free: no clock read, no stage lookup.
  class Scope {
   public:
    Scope(StageTimer* timer, std::string_view stage) : timer_(timer) {
      if (timer_ != nullptr) start(stage);
    }
    ~Scope() {
      if (timer_ != nullptr) stop();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    void start(std::string_view stage);
    void stop();

    StageTimer* timer_;
    std::size_t index_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

  /// Adds `seconds` to the named stage directly.
  void add(std::string_view stage, double seconds);

  /// Total accumulated seconds in `stage` (0 if the stage never ran).
  double seconds(std::string_view stage) const;

  /// Number of times `stage` was entered.
  std::uint64_t count(std::string_view stage) const;

  /// Mean milliseconds per entry of `stage` (0 if never entered).
  double mean_ms(std::string_view stage) const;

  /// Stage names in first-use order.
  std::vector<std::string> stages() const;

  /// Clears all accumulated data.
  void reset();

 private:
  struct Entry {
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0;
  };

  std::size_t index_of(std::string_view stage);
  const Entry* find(std::string_view stage) const;

  std::vector<Entry> entries_;
};

}  // namespace edgedrift::util
