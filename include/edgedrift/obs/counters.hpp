// obs::Counters — relaxed-atomic per-stream serving counters.
//
// The always-on half of the observability layer (see obs/stream_obs.hpp):
// one cache-friendly block of std::atomic<uint64_t> per stream, written
// with relaxed increments by the stream's single consumer and read at any
// time by a stats() snapshot. Relaxed is enough
// because every field is an independent monotonic counter: a snapshot may
// be "torn" across fields (samples_in one increment ahead of samples_out)
// but each individual value is always a real count — the coherence
// contract tests/test_obs.cpp pins under ThreadSanitizer.
//
// Compiled out: defining EDGEDRIFT_NO_OBS (CMake -DEDGEDRIFT_NO_OBS=ON)
// turns every mutator in the obs layer into an empty inline function, so
// an MCU-class build pays zero bytes and zero cycles for instrumentation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace edgedrift::obs {

/// False when the whole obs layer is compiled to no-ops.
#if defined(EDGEDRIFT_NO_OBS)
inline constexpr bool kObsCompiled = false;
#else
inline constexpr bool kObsCompiled = true;
#endif

/// Monotonic wall clock for latency instrumentation (steady, ns).
inline std::uint64_t now_ns() {
  if constexpr (!kObsCompiled) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Plain-value copy of one Counters block (what stats() hands out). The
/// admission counters — rejected, non_finite, ring_high_water — are filled
/// by the serving layer from its per-stream telemetry (they stay 0 in a
/// lone pipeline's snapshot); the rest come from the Counters block.
struct CounterSnapshot {
  std::uint64_t samples_in = 0;      ///< Samples entering the pipeline.
  std::uint64_t samples_out = 0;     ///< Samples fully processed.
  std::uint64_t rejected = 0;        ///< Dropped by kReject backpressure.
  std::uint64_t non_finite = 0;      ///< Submits refused for a NaN/Inf.
  std::uint64_t windows_opened = 0;  ///< Detector evaluation windows opened.
  std::uint64_t drifts = 0;          ///< Drift detections fired.
  std::uint64_t retrains = 0;        ///< Recoveries completed.
  std::uint64_t chunk_trains = 0;    ///< Rank-k bucket updates applied.
  std::uint64_t chunk_train_rows = 0;  ///< Samples absorbed by those updates.
  std::uint64_t requants_saved = 0;  ///< Replica refreshes amortized away.
  std::uint64_t ring_high_water = 0; ///< Max observed ring depth.

  CounterSnapshot& operator+=(const CounterSnapshot& o) {
    samples_in += o.samples_in;
    samples_out += o.samples_out;
    rejected += o.rejected;
    non_finite += o.non_finite;
    windows_opened += o.windows_opened;
    drifts += o.drifts;
    retrains += o.retrains;
    chunk_trains += o.chunk_trains;
    chunk_train_rows += o.chunk_train_rows;
    requants_saved += o.requants_saved;
    ring_high_water = ring_high_water > o.ring_high_water
                          ? ring_high_water
                          : o.ring_high_water;
    return *this;
  }
};

/// Per-stream streaming counters, safe to read while written.
///
/// Every field has exactly one logical writer (the stream's single drain
/// task), so the mutators are plain load+store on the atomic — a regular
/// store instead of a lock-prefixed RMW, which matters at two counter bumps
/// per sample on a sub-microsecond batch path.
class Counters {
 public:
  void add_samples_in(std::uint64_t n = 1) { add(samples_in_, n); }
  void add_samples_out(std::uint64_t n = 1) { add(samples_out_, n); }
  void add_window_opened() { add(windows_opened_, 1); }
  void add_drift() { add(drifts_, 1); }
  void add_retrain() { add(retrains_, 1); }
  // Chunked-training instrumentation (written by the drain task like the
  // other consumer-side counters): rank-k bucket updates issued, samples
  // they absorbed, and f32/i8 replica requantizations the per-bucket
  // amortization avoided relative to the per-sample path.
  void add_chunk_trains(std::uint64_t n) { add(chunk_trains_, n); }
  void add_chunk_train_rows(std::uint64_t n) { add(chunk_train_rows_, n); }
  void add_requants_saved(std::uint64_t n) { add(requants_saved_, n); }

  CounterSnapshot snapshot() const {
    CounterSnapshot s;
    if constexpr (!kObsCompiled) return s;
    s.samples_in = samples_in_.load(std::memory_order_relaxed);
    s.samples_out = samples_out_.load(std::memory_order_relaxed);
    s.windows_opened = windows_opened_.load(std::memory_order_relaxed);
    s.drifts = drifts_.load(std::memory_order_relaxed);
    s.retrains = retrains_.load(std::memory_order_relaxed);
    s.chunk_trains = chunk_trains_.load(std::memory_order_relaxed);
    s.chunk_train_rows = chunk_train_rows_.load(std::memory_order_relaxed);
    s.requants_saved = requants_saved_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    if constexpr (!kObsCompiled) return;
    samples_in_.store(0, std::memory_order_relaxed);
    samples_out_.store(0, std::memory_order_relaxed);
    windows_opened_.store(0, std::memory_order_relaxed);
    drifts_.store(0, std::memory_order_relaxed);
    retrains_.store(0, std::memory_order_relaxed);
    chunk_trains_.store(0, std::memory_order_relaxed);
    chunk_train_rows_.store(0, std::memory_order_relaxed);
    requants_saved_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Single-writer increment (see class comment): load+store, not RMW.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) {
    if constexpr (!kObsCompiled) return;
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> samples_in_{0};
  std::atomic<std::uint64_t> samples_out_{0};
  std::atomic<std::uint64_t> windows_opened_{0};
  std::atomic<std::uint64_t> drifts_{0};
  std::atomic<std::uint64_t> retrains_{0};
  std::atomic<std::uint64_t> chunk_trains_{0};
  std::atomic<std::uint64_t> chunk_train_rows_{0};
  std::atomic<std::uint64_t> requants_saved_{0};
};

}  // namespace edgedrift::obs
