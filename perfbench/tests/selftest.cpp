// Self-tests of the benchmark harness (not of the library): seeded load
// generation is reproducible, the statistics are right on hand-made
// samples, the allocator hook sees allocations, and the generator-lag flag
// trips when it should. Run with `python3 perfbench/run.py --self-test` or
// `ctest --test-dir .bench_build/perfbench`.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "alloc_hook.hpp"
#include "edgedrift/data/nsl_kdd_like.hpp"
#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void same_seed_same_load() {
  using namespace perfbench;
  const Popularity uniform(64, 0.0, 7);
  const auto a = make_arrivals(7, 20000.0, 0.5, uniform);
  const auto b = make_arrivals(7, 20000.0, 0.5, uniform);
  const auto c = make_arrivals(8, 20000.0, 0.5, uniform);
  check(!a.empty() && a == b, "same seed gives the same arrival schedule");
  check(a != c, "another seed gives another arrival schedule");

  std::size_t rows = 0;
  bool sorted = true, sizes_ok = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    rows += a[i].rows;
    sorted &= i == 0 || a[i - 1].due_ns <= a[i].due_ns;
    sizes_ok &= a[i].rows >= 1 && a[i].rows <= kMaxBlockRows;
    sizes_ok &= a[i].stream < 64;
  }
  check(sorted, "arrivals are in due-time order");
  check(sizes_ok, "block sizes are 1..4 rows on known streams");
  // 10k rows expected; a Poisson count this large is within a few percent.
  check(std::fabs(static_cast<double>(rows) - 10000.0) < 600.0,
        "the schedule offers the requested row rate");
  check(near(static_cast<double>(rows) / static_cast<double>(a.size()),
             mean_block_rows(), 0.05),
        "mean block size matches the capped Poisson law");

  const edgedrift::data::NslKddLike gen;
  std::vector<double> r1(edgedrift::data::NslKddLike::kDim);
  std::vector<double> r2(r1.size()), r3(r1.size());
  const int l1 = sample_row(gen.pre_concept(), 7, 3, 11, r1);
  const int l2 = sample_row(gen.pre_concept(), 7, 3, 11, r2);
  sample_row(gen.pre_concept(), 7, 3, 12, r3);
  check(l1 == l2 && r1 == r2, "same (seed, stream, row) gives the same row");
  check(r1 != r3, "the next row differs");

  const Popularity zipf(1000, 1.1, 7);
  Rng rng(1);
  std::vector<std::size_t> hits(1000, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.draw(rng)];
  std::size_t top = 0;
  for (const std::size_t h : hits) top = std::max(top, h);
  check(top > 2000, "Zipf popularity concentrates on a hot stream");
}

void percentiles() {
  using perfbench::percentile;
  check(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "p50 of 1..4 is 2.5");
  check(near(percentile({4, 1, 3, 2}, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile({4, 1, 3, 2}, 1.0), 4.0), "p100 is the maximum");
  check(near(percentile({10, 20, 30, 40, 50}, 0.9), 46.0),
        "p90 interpolates between ranks");
  check(near(percentile({7}, 0.9), 7.0), "a single sample is every quantile");
  check(percentile({}, 0.5) == 0.0, "an empty sample reads 0");

  // 100 values in bucket [64, 127] and 100 in [1024, 2047].
  edgedrift::obs::HistogramSnapshot h;
  h.buckets[7] = 100;
  h.buckets[11] = 100;
  h.max_ns = 2000;
  const double p25 = perfbench::hist_quantile_ns(h, 0.25);
  const double p75 = perfbench::hist_quantile_ns(h, 0.75);
  check(near(p25, 64.0 + 64.0 * 0.5), "histogram p25 interpolates its bucket");
  check(near(p75, 1024.0 + 1024.0 * 0.5),
        "histogram p75 lands in the upper bucket");
  edgedrift::obs::HistogramSnapshot later = h;
  later.buckets[7] += 5;
  check(perfbench::hist_delta(later, h).count() == 5,
        "histogram deltas count only new samples");
}

void allocator_counter() {
  const std::int64_t before = perfbench::heap_live_bytes();
  const std::uint64_t calls = perfbench::heap_alloc_calls();
  auto block = std::make_unique<char[]>(1 << 20);
  block[0] = 1;
  const std::int64_t during = perfbench::heap_live_bytes();
  check(during - before >= (1 << 20), "a 1 MiB allocation is counted");
  check(perfbench::heap_alloc_calls() > calls, "the call is counted");
  block.reset();
  check(perfbench::heap_live_bytes() - before < 1024,
        "freeing it gives the bytes back");
}

void lag_flag() {
  check(perfbench::lag_distorts_latency(100.0, 40.0),
        "lag p90 above half the p50 flags the run");
  check(!perfbench::lag_distorts_latency(10.0, 40.0),
        "small lag does not flag the run");
}

void tracer() {
  perfbench::Tracer t(2);
  check(t.add("x", 1, 2) == -1, "a disabled tracer records nothing");
  t.set_enabled(true);
  const auto root = t.add("phase", 0, 0);
  t.add("call", 1, 2, root, 9);
  check(t.add("over", 3, 4) == -1 && t.dropped() == 1,
        "a full tracer drops and counts");
  t.close(root, 5);
  check(t.spans()[0].end_ns == 5 && t.spans()[1].parent == root &&
            t.spans()[1].request_id == 9,
        "spans keep parent, request id and end");
}

}  // namespace

int main() {
  same_seed_same_load();
  percentiles();
  allocator_counter();
  lag_flag();
  tracer();
  if (g_failures == 0) std::printf("perfbench self-tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
