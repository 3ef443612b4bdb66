// Workload-independent pieces of the serving benchmark: seeded load
// generation (arrival schedules, popularity, counter-based rows),
// statistics (percentiles, histogram quantiles), the generator-lag flag and
// the span tracer. Everything here is deterministic and free of manager
// state, which is what lets tests/selftest.cpp check it on hand-made input.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/obs/latency_histogram.hpp"

namespace perfbench {

// ------------------------------------------------------------ randomness

/// SplitMix64 finalizer: a bijective 64-bit mix, good enough to derive
/// independent per-(seed, stream, row) generator states.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::uint64_t mix_key(std::uint64_t a, std::uint64_t b,
                             std::uint64_t c = 0) {
  return mix64(mix64(mix64(a) ^ b) ^ c);
}

/// Small sequential generator (SplitMix64 stream) for schedules.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }
  /// Uniform in (0, 1): never exactly 0, so log() is always finite.
  double uniform() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }
  double exponential(double mean) { return -mean * std::log(uniform()); }
  /// Knuth's product method; fine for the small means used here.
  unsigned poisson(double mean) {
    const double limit = std::exp(-mean);
    double p = 1.0;
    unsigned k = 0;
    while (true) {
      p *= uniform();
      if (p <= limit) return k;
      ++k;
    }
  }
  double gaussian() {
    const double u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t state_;
};

// ------------------------------------------------------------ popularity

/// Which stream an arrival goes to.
class Popularity {
 public:
  /// Uniform over `streams` when `zipf_s` is 0, else P(rank r) ∝ 1/r^s
  /// over a seeded permutation of the ids (so the hot set is not simply
  /// the lowest ids, which all hash to a few shards' first slots).
  Popularity(std::size_t streams, double zipf_s, std::uint64_t seed)
      : streams_(streams) {
    if (zipf_s <= 0.0) return;
    cdf_.resize(streams);
    double total = 0.0;
    for (std::size_t r = 0; r < streams; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    ids_.resize(streams);
    for (std::size_t i = 0; i < streams; ++i) ids_[i] = i;
    Rng rng(mix_key(seed, 0x7a1f));
    for (std::size_t i = streams; i > 1; --i) {
      std::swap(ids_[i - 1], ids_[rng.next() % i]);
    }
  }

  std::size_t draw(Rng& rng) const {
    if (cdf_.empty()) return static_cast<std::size_t>(rng.next() % streams_);
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), streams_ - 1);
    return ids_[rank];
  }

 private:
  std::size_t streams_;
  std::vector<double> cdf_;
  std::vector<std::size_t> ids_;
};

// --------------------------------------------------------- arrival plan

/// One open-loop arrival: `rows` rows for `stream`, due `due_ns` after the
/// phase starts.
struct Arrival {
  std::uint64_t due_ns = 0;
  std::uint32_t stream = 0;
  std::uint32_t rows = 0;

  bool operator==(const Arrival&) const = default;
};

/// Block sizes are 1 + Poisson(kBlockPoissonMean), capped at kMaxBlockRows.
inline constexpr std::size_t kMaxBlockRows = 4;
inline constexpr double kBlockPoissonMean = 1.0;

/// Mean rows per block of the capped 1 + Poisson(1) law (1 + E[min(P, 3)]).
inline double mean_block_rows() {
  double p = std::exp(-kBlockPoissonMean);  // P(P = 0)
  double mean = 0.0;
  double tail = 1.0;
  for (std::size_t k = 0; k + 1 < kMaxBlockRows; ++k) {
    mean += static_cast<double>(k) * p;
    tail -= p;
    p *= kBlockPoissonMean / static_cast<double>(k + 1);
  }
  return 1.0 + mean + static_cast<double>(kMaxBlockRows - 1) * tail;
}

/// Poisson process of blocks whose row rate is `rows_per_s`, over
/// `seconds`. The same (seed, arguments) always give the same plan.
inline std::vector<Arrival> make_arrivals(std::uint64_t seed,
                                          double rows_per_s, double seconds,
                                          const Popularity& popularity) {
  Rng rng(mix_key(seed, 0xa331));
  const double mean_gap_ns = 1e9 * mean_block_rows() / rows_per_s;
  const double end_ns = seconds * 1e9;
  std::vector<Arrival> plan;
  plan.reserve(static_cast<std::size_t>(rows_per_s * seconds /
                                        mean_block_rows() * 1.1) +
               16);
  double t = 0.0;
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= end_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::uint64_t>(t);
    a.stream = static_cast<std::uint32_t>(popularity.draw(rng));
    a.rows = 1 + std::min<unsigned>(rng.poisson(kBlockPoissonMean),
                                    kMaxBlockRows - 1);
    plan.push_back(a);
  }
  return plan;
}

// ----------------------------------------------------------------- rows

/// Counter-based row source: row k of stream s under seed n is a pure
/// function of (n, s, k), so the replay check regenerates exactly the rows
/// the manager saw without the benchmark storing them.
inline int sample_row(const edgedrift::data::GaussianConcept& source,
                      std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t k, std::span<double> out) {
  Rng rng(mix_key(seed, stream, k));
  double total = 0.0;
  for (std::size_t c = 0; c < source.num_labels(); ++c) {
    total += source.cls(c).weight;
  }
  double u = rng.uniform() * total;
  std::size_t label = source.num_labels() - 1;
  for (std::size_t c = 0; c < source.num_labels(); ++c) {
    u -= source.cls(c).weight;
    if (u < 0.0) {
      label = c;
      break;
    }
  }
  const auto& cls = source.cls(label);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double sd = cls.stddev.size() == 1 ? cls.stddev[0] : cls.stddev[j];
    out[j] = cls.mean[j] + sd * rng.gaussian();
  }
  return static_cast<int>(label);
}

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples, the
/// same rule as numpy's default; 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Bucket-wise difference `later - earlier` of two snapshots of one
/// monotonic histogram (max is taken from `later`).
inline edgedrift::obs::HistogramSnapshot hist_delta(
    const edgedrift::obs::HistogramSnapshot& later,
    const edgedrift::obs::HistogramSnapshot& earlier) {
  edgedrift::obs::HistogramSnapshot d;
  for (std::size_t b = 0; b < d.buckets.size(); ++b) {
    d.buckets[b] = later.buckets[b] - std::min(later.buckets[b],
                                               earlier.buckets[b]);
  }
  d.sum_ns = later.sum_ns - std::min(later.sum_ns, earlier.sum_ns);
  d.max_ns = later.max_ns;
  return d;
}

/// q-quantile of a log2 histogram, interpolated linearly inside the bucket
/// holding the target rank (the library's quantile_upper_ns returns the
/// bucket's upper edge, which only ever takes power-of-two values).
inline double hist_quantile_ns(const edgedrift::obs::HistogramSnapshot& h,
                               double q) {
  using edgedrift::obs::LatencyHistogram;
  const double n = static_cast<double>(h.count());
  if (n == 0.0) return 0.0;
  const double target = q * n;
  double below = 0.0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    const double in = static_cast<double>(h.buckets[b]);
    if (in > 0.0 && below + in >= target) {
      const double lo = static_cast<double>(LatencyHistogram::bucket_lower_ns(b));
      const double hi =
          b + 1 >= h.buckets.size()
              ? static_cast<double>(h.max_ns)
              : static_cast<double>(LatencyHistogram::bucket_upper_ns(b)) + 1.0;
      return lo + (hi - lo) * std::clamp((target - below) / in, 0.0, 1.0);
    }
    below += in;
  }
  return static_cast<double>(h.max_ns);
}

// ------------------------------------------------------ generator lag

/// The open-loop generator is late when it submits a block after its due
/// time. Latency is measured from the due time, so lateness is charged to
/// the system, not hidden — but once a tenth of the blocks go out later
/// than half the median latency, the median describes the harness as much
/// as the system. Such a run is flagged (and says so on stderr).
inline constexpr double kLagFlagShareOfP50 = 0.5;

inline bool lag_distorts_latency(double gen_lag_p90_us,
                                 double latency_p50_us) {
  return gen_lag_p90_us > kLagFlagShareOfP50 * latency_p50_us;
}

// ---------------------------------------------------------------- spans

/// One traced call: the benchmark's own calls into the manager, the phase
/// spans that parent them, and one synthetic span per stage-timer total.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;       ///< Index of the parent span, -1 = root.
  std::uint64_t request_id = 0;   ///< Arrival/block id (0 when none).
};

/// Append-only span buffer; preallocated so recording never allocates.
/// Full buffers drop further spans and count them.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records a span and returns its index (-1 when disabled or full).
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request_id = 0) {
    if (!enabled_) return -1;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, request_id});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Closes a span opened with add(name, start, start).
  void close(std::int64_t index, std::uint64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// One JSON object per line. Returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"end_ns\":%llu,\"parent\":%lld,\"request_id\":%llu}\n",
                   i, s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
};

}  // namespace perfbench
