// Serving-layer ingestion semantics (core::PipelineManager ring buffers):
// per-stream FIFO and step-for-step equality against a sequential Pipeline
// reference under chunked drain, ring-wrap tails, backpressure kBlock vs
// kReject, manual dispatch (submit-then-poll), multi-producer submission
// into distinct streams, telemetry accounting, the typed SubmitStatus
// outcomes (unknown id, partial label span, bad width, non-finite values,
// cold restore and its failure), and the admission counters the obs
// snapshot reads from telemetry. Every single-row case runs through both
// submit() and a 1-row submit_batch(), which must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "edgedrift/core/pipeline_manager.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::BackpressurePolicy;
using edgedrift::linalg::ConstMatrixView;
using edgedrift::core::DispatchMode;
using edgedrift::core::ManagerOptions;
using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineManager;
using edgedrift::core::PipelineStep;
using edgedrift::core::StreamTelemetry;
using edgedrift::core::SubmitStatus;
using edgedrift::data::Dataset;
using edgedrift::data::GaussianClass;
using edgedrift::data::GaussianConcept;
using edgedrift::util::Rng;

GaussianConcept pre_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  a.stddev = {0.15};
  GaussianClass b;
  b.mean.assign(8, 1.2);
  b.stddev = {0.15};
  return GaussianConcept({a, b});
}

GaussianConcept post_concept() {
  GaussianClass a;
  a.mean.assign(8, 0.2);
  for (std::size_t j = 0; j < 8; j += 2) a.mean[j] += 0.9;
  a.stddev = {0.2};
  GaussianClass b;
  b.mean.assign(8, 0.55);
  for (std::size_t j = 0; j < 8; j += 2) b.mean[j] += 0.9;
  b.stddev = {0.2};
  return GaussianConcept({a, b});
}

PipelineConfig make_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 8;
  config.hidden_dim = 12;
  config.window_size = 40;
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  config.seed = 7;
  return config;
}

struct StreamData {
  Dataset train;
  Dataset test;
};

std::vector<StreamData> make_streams(std::size_t n, std::size_t samples = 1500) {
  std::vector<StreamData> streams;
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(100 + i);
    StreamData s;
    s.train = edgedrift::data::draw(pre_concept(), 600, rng);
    s.test = edgedrift::data::make_sudden_drift(pre_concept(), post_concept(),
                                                samples, samples / 2, rng);
    streams.push_back(std::move(s));
  }
  return streams;
}

std::vector<PipelineStep> sequential_reference(const PipelineConfig& config,
                                               const StreamData& data) {
  Pipeline reference(config);
  reference.fit(data.train.x, data.train.labels);
  std::vector<PipelineStep> steps;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    steps.push_back(reference.process(data.test.x.row(i)));
  }
  return steps;
}

void expect_steps_equal(const std::vector<PipelineStep>& actual,
                        const std::vector<PipelineStep>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(actual[i].prediction.label, expected[i].prediction.label);
    EXPECT_EQ(actual[i].prediction.score, expected[i].prediction.score);
    EXPECT_EQ(actual[i].drift_detected, expected[i].drift_detected);
    EXPECT_EQ(actual[i].reconstructing, expected[i].reconstructing);
    EXPECT_EQ(actual[i].reconstruction_finished,
              expected[i].reconstruction_finished);
  }
}

// A single row can enter the ring through submit() or through submit_batch()
// of a 1-row block. Both run one admission routine, so every single-row
// case below runs once per entry point and the two runs must agree.
enum class Entry { kSubmit, kOneRowBatch };
constexpr Entry kEntries[] = {Entry::kSubmit, Entry::kOneRowBatch};

const char* name_of(Entry entry) {
  return entry == Entry::kSubmit ? "submit()" : "1-row submit_batch()";
}

/// Rows accepted (0 or 1) when `row` is submitted through `entry`.
std::size_t submit_row(PipelineManager& manager, Entry entry, std::size_t id,
                       std::span<const double> row, int label = -1,
                       SubmitStatus* status = nullptr) {
  if (entry == Entry::kSubmit) {
    return manager.submit(id, row, label, status) ? 1 : 0;
  }
  return manager.submit_batch(id, ConstMatrixView(row), {&label, 1}, status);
}

/// One stream's telemetry as plain values, comparable across runs.
struct Counts {
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  std::size_t non_finite = 0;
  std::size_t blocked = 0;
  std::size_t processed = 0;
  std::size_t drain_bursts = 0;
  std::size_t queue_high_water = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const StreamTelemetry& t) {
  return {t.submitted, t.rejected.load(),  t.non_finite.load(),
          t.blocked,   t.processed,        t.drain_bursts,
          t.queue_high_water.load()};
}

// A tiny, odd ring capacity with a drain chunk that never divides it: every
// few bursts the drain hits the ring-wrap boundary, so the wrap-tail path
// (contiguous [pos, capacity) segment, then the wrapped remainder from slot
// 0) is exercised constantly. The steps must still be bit-identical to the
// sequential reference.
TEST(Ingestion, ChunkedDrainWithRingWrapsMatchesSequential) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 7;
  options.drain_batch_max = 3;
  options.backpressure = BackpressurePolicy::kBlock;

  for (const Entry entry : kEntries) {
    SCOPED_TRACE(name_of(entry));
    PipelineManager manager(make_config(), 1, options);
    manager.fit(0, data[0].train.x, data[0].train.labels);
    const auto expected = sequential_reference(manager.stream(0).config(),
                                               data[0]);

    for (std::size_t i = 0; i < data[0].test.size(); ++i) {
      EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(i)), 1u);
    }
    manager.drain();
    expect_steps_equal(manager.take_steps(0), expected);

    const StreamTelemetry& t = manager.telemetry(0);
    EXPECT_EQ(t.submitted, data[0].test.size());
    EXPECT_EQ(t.processed, data[0].test.size());
    EXPECT_EQ(t.rejected, 0u);
    EXPECT_LE(t.queue_high_water, options.queue_capacity);
  }
}

// submit_batch publishes whole blocks under one reservation; the steps must
// match both the per-sample submit path and the sequential reference, even
// when the block is far larger than the ring.
TEST(Ingestion, SubmitBatchBlocksUntilDrainedAndMatchesSequential) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 32;
  options.drain_batch_max = 16;
  options.backpressure = BackpressurePolicy::kBlock;

  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  const auto expected = sequential_reference(manager.stream(0).config(),
                                             data[0]);

  const std::size_t accepted =
      manager.submit_batch(0, data[0].test.x, data[0].test.labels);
  EXPECT_EQ(accepted, data[0].test.size());
  manager.drain();
  expect_steps_equal(manager.take_steps(0), expected);
  // The block dwarfs the 32-slot ring, so the producer must have waited at
  // least once for the consumer to free slots.
  EXPECT_GE(manager.telemetry(0).blocked, 1u);
}

// kReject must drop loudly-counted samples instead of blocking: with no
// consumer (manual dispatch, never polled), exactly queue_capacity samples
// fit and the rest are rejected.
TEST(Ingestion, RejectPolicyCountsDropsInsteadOfBlocking) {
  const auto data = make_streams(1);
  ManagerOptions options;
  options.queue_capacity = 16;
  options.backpressure = BackpressurePolicy::kReject;
  options.dispatch = DispatchMode::kManual;

  std::vector<Counts> counts;
  std::vector<std::vector<PipelineStep>> steps;
  for (const Entry entry : kEntries) {
    SCOPED_TRACE(name_of(entry));
    PipelineManager manager(make_config(), 1, options);
    manager.fit(0, data[0].train.x, data[0].train.labels);

    std::size_t accepted = 0;
    for (std::size_t i = 0; i < 50; ++i) {
      SubmitStatus status = SubmitStatus::kNonFinite;
      accepted += submit_row(manager, entry, 0, data[0].test.x.row(i),
                             data[0].test.labels[i], &status);
      // A backpressure drop is policy, not an error.
      EXPECT_EQ(status, SubmitStatus::kOk);
    }
    EXPECT_EQ(accepted, options.queue_capacity);
    EXPECT_EQ(manager.telemetry(0).rejected, 50 - options.queue_capacity);

    // Batch submit on the full ring rejects every row.
    EXPECT_EQ(manager.submit_batch(0, data[0].test.x), 0u);
    EXPECT_EQ(manager.telemetry(0).rejected,
              50 - options.queue_capacity + data[0].test.size());

    // Draining frees the ring; the accepted samples come out in FIFO order.
    manager.drain();
    EXPECT_EQ(manager.telemetry(0).processed, accepted);
    steps.push_back(manager.take_steps(0));
    EXPECT_EQ(steps.back().size(), accepted);
    EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(0)), 1u);
    counts.push_back(counts_of(manager.telemetry(0)));
  }
  EXPECT_TRUE(counts[0] == counts[1]);
  expect_steps_equal(steps[1], steps[0]);
}

// Manual dispatch: submit only enqueues; poll() drains on the calling
// thread. The single-threaded submit -> poll -> take_steps loop must match
// the sequential reference exactly.
TEST(Ingestion, ManualDispatchPollMatchesSequential) {
  const auto data = make_streams(1, 800);
  ManagerOptions options;
  options.queue_capacity = 32;
  options.drain_batch_max = 16;
  options.dispatch = DispatchMode::kManual;

  std::vector<Counts> counts;
  for (const Entry entry : kEntries) {
    SCOPED_TRACE(name_of(entry));
    PipelineManager manager(make_config(), 1, options);
    manager.fit(0, data[0].train.x, data[0].train.labels);
    const auto expected = sequential_reference(manager.stream(0).config(),
                                               data[0]);

    std::vector<PipelineStep> steps;
    steps.reserve(data[0].test.size());
    std::size_t i = 0;
    while (i < data[0].test.size()) {
      const std::size_t burst =
          std::min<std::size_t>(48, data[0].test.size() - i);
      for (std::size_t r = 0; r < burst; ++r) {
        // 48 > the 32-slot capacity with kBlock: the submitting thread
        // drains inline instead of deadlocking (there is no other consumer).
        EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(i + r)),
                  1u);
      }
      manager.poll(0);
      manager.take_steps(0, steps);
      i += burst;
    }
    manager.drain();
    manager.take_steps(0, steps);
    expect_steps_equal(steps, expected);
    EXPECT_EQ(manager.telemetry(0).processed, data[0].test.size());
    EXPECT_GE(manager.telemetry(0).blocked, 1u);
    counts.push_back(counts_of(manager.telemetry(0)));
  }
  EXPECT_TRUE(counts[0] == counts[1]);
}

// Several producer threads, each feeding its own stream through batch
// submits against a small ring: per-stream FIFO and bit-identity must hold
// for every stream.
TEST(Ingestion, MultiProducerDistinctStreamsStayIndependent) {
  constexpr std::size_t kStreams = 4;
  const auto data = make_streams(kStreams, 900);
  ManagerOptions options;
  options.queue_capacity = 48;
  options.drain_batch_max = 16;

  PipelineManager manager(make_config(), kStreams, options);
  std::vector<std::vector<PipelineStep>> expected(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    manager.fit(s, data[s].train.x, data[s].train.labels);
    expected[s] =
        sequential_reference(manager.stream(s).config(), data[s]);
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&, s] {
      // Mix batch and single-sample submits from the same producer.
      const std::size_t half = data[s].test.size() / 2;
      for (std::size_t i = 0; i < half; ++i) {
        manager.submit(s, data[s].test.x.row(i));
      }
      edgedrift::linalg::Matrix rest(data[s].test.size() - half, 8);
      for (std::size_t i = half; i < data[s].test.size(); ++i) {
        rest.set_row(i - half, data[s].test.x.row(i));
      }
      manager.submit_batch(s, rest);
    });
  }
  for (auto& t : producers) t.join();
  manager.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    expect_steps_equal(manager.take_steps(s), expected[s]);
    EXPECT_EQ(manager.telemetry(s).processed, data[s].test.size());
    EXPECT_EQ(manager.telemetry(s).rejected, 0u);
  }
}

// Telemetry invariants after a drained run: the burst histogram accounts
// for every burst, processed == submitted, and the busy clock ran.
TEST(Ingestion, TelemetryAccountsForEveryBurst) {
  const auto data = make_streams(1, 800);
  ManagerOptions options;
  options.queue_capacity = 64;
  options.drain_batch_max = 32;

  PipelineManager manager(make_config(), 1, options);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  manager.submit_batch(0, data[0].test.x);
  manager.drain();

  const StreamTelemetry& t = manager.telemetry(0);
  EXPECT_EQ(t.submitted, data[0].test.size());
  EXPECT_EQ(t.processed, data[0].test.size());
  EXPECT_GE(t.drain_bursts, 1u);
  EXPECT_GE(t.queue_high_water, 1u);
  EXPECT_LE(t.queue_high_water, options.queue_capacity);
  EXPECT_GT(t.busy_ns, 0u);
  EXPECT_GT(t.samples_per_second(), 0.0);
  const std::size_t hist_total =
      std::accumulate(t.drain_burst_hist.begin(), t.drain_burst_hist.end(),
                      std::size_t{0});
  EXPECT_EQ(hist_total, t.drain_bursts);
  // No burst can exceed drain_batch_max = 32 -> buckets above 2^5 stay 0.
  for (std::size_t b = 6; b < t.drain_burst_hist.size(); ++b) {
    EXPECT_EQ(t.drain_burst_hist[b], 0u) << "bucket " << b;
  }
}

// The GEMM batch path must actually serve the drain: after a batched run
// the pipeline's batch telemetry shows pre-scored chunks.
TEST(Ingestion, BatchDrainRoutesThroughProcessBatch) {
  const auto data = make_streams(1, 800);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data[0].train.x, data[0].train.labels);
  manager.submit_batch(0, data[0].test.x);
  manager.drain();
  EXPECT_GE(manager.stats(0).batch_chunks, 1u);
  EXPECT_GE(manager.stats(0).batch_rows, 1u);
  EXPECT_LE(manager.stats(0).batch_rows, manager.stats(0).samples);
  EXPECT_EQ(manager.totals().batch_rows, manager.stats(0).batch_rows);
}

// Malformed submissions must fail with a typed status instead of asserting:
// a serving layer fed by untrusted ids cannot crash the process on a bad
// request. A partial true_labels span in particular would silently pair
// rows with the wrong labels and corrupt the supervised error stream. A
// cold stream is restored by the next submit; a corrupt cold blob surfaces
// kRestoreFailed and leaves the stream cold.
TEST(Ingestion, SubmitReturnsTypedErrorsInsteadOfAsserting) {
  namespace fs = std::filesystem;
  const auto data = make_streams(1, 100);
  SubmitStatus status = SubmitStatus::kOk;
  {
    // The block-shaped outcomes.
    PipelineManager manager(make_config(), 1);
    manager.fit(0, data[0].train.x, data[0].train.labels);
    EXPECT_EQ(manager.submit_batch(99, data[0].test.x, {}, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kUnknownStream);

    // Partial / excess label spans: all-or-nothing.
    std::vector<int> partial(data[0].test.size() - 1, 0);
    EXPECT_EQ(manager.submit_batch(0, data[0].test.x, partial, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kBadLabelSpan);
    std::vector<int> excess(data[0].test.size() + 1, 0);
    EXPECT_EQ(manager.submit_batch(0, data[0].test.x, excess, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kBadLabelSpan);

    edgedrift::linalg::Matrix wide(2, 16);
    EXPECT_EQ(manager.submit_batch(0, wide, {}, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kDimensionMismatch);
    EXPECT_EQ(manager.telemetry(0).submitted, 0u);

    // None of the failures disturbed the stream: a good submit still lands.
    EXPECT_TRUE(manager.submit(0, data[0].test.x.row(0), -1, &status));
    EXPECT_EQ(status, SubmitStatus::kOk);
    manager.drain();
    EXPECT_EQ(manager.telemetry(0).processed, 1u);
  }

  std::vector<Counts> counts;
  std::vector<std::vector<PipelineStep>> steps;
  for (const Entry entry : kEntries) {
    SCOPED_TRACE(name_of(entry));
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("edgedrift-ingestion-spill-" +
                          std::to_string(static_cast<int>(entry)));
    fs::create_directories(dir);
    ManagerOptions options;
    options.cold_spill_dir = dir.string();
    PipelineManager manager(make_config(), 1, options);
    manager.fit(0, data[0].train.x, data[0].train.labels);

    // Unknown stream id.
    EXPECT_EQ(submit_row(manager, entry, 99, data[0].test.x.row(0), -1,
                         &status),
              0u);
    EXPECT_EQ(status, SubmitStatus::kUnknownStream);

    // Row width that does not match the configured input_dim.
    const std::vector<double> narrow(4, 0.0);
    EXPECT_EQ(submit_row(manager, entry, 0, narrow, -1, &status), 0u);
    EXPECT_EQ(status, SubmitStatus::kDimensionMismatch);

    // None of the failures disturbed the stream: a good submit still lands.
    EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(0), -1,
                         &status),
              1u);
    EXPECT_EQ(status, SubmitStatus::kOk);
    manager.drain();
    EXPECT_EQ(manager.telemetry(0).processed, 1u);

    // An evicted stream is restored transparently by the next submit.
    ASSERT_TRUE(manager.evict(0));
    EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(1), -1,
                         &status),
              1u);
    EXPECT_EQ(status, SubmitStatus::kOk);
    EXPECT_TRUE(manager.resident(0));
    manager.drain();
    EXPECT_EQ(manager.telemetry(0).processed, 2u);

    // A truncated cold blob cannot be restored: typed error, still cold.
    ASSERT_TRUE(manager.evict(0));
    const fs::path blob = dir / "edgedrift-stream-0.ckpt";
    ASSERT_TRUE(fs::exists(blob)) << "eviction must have spilled to disk";
    fs::resize_file(blob, fs::file_size(blob) / 2);
    EXPECT_EQ(submit_row(manager, entry, 0, data[0].test.x.row(2), -1,
                         &status),
              0u);
    EXPECT_EQ(status, SubmitStatus::kRestoreFailed);
    EXPECT_FALSE(manager.resident(0));

    counts.push_back(counts_of(manager.telemetry(0)));
    steps.push_back(manager.take_steps(0));
    EXPECT_EQ(steps.back().size(), 2u);
    fs::remove_all(dir);
  }
  EXPECT_TRUE(counts[0] == counts[1]);
  expect_steps_equal(steps[1], steps[0]);
}

// One NaN feature at row 500 of a stream whose real drift starts at row
// 1000. Admitted, the NaN would reach its label's running centroid: the
// detector's distance turns NaN, every threshold comparison is false, and
// the drift is never detected. Refused at admission, it never reaches the
// model, and the drift is detected as on a clean stream.
TEST(Ingestion, NonFiniteRowIsRefusedAndDriftStillDetected) {
  constexpr std::size_t kRows = 2000;  // Drift at kRows / 2 = 1000.
  constexpr std::size_t kBadRow = 500;
  const auto data = make_streams(1, kRows);
  std::vector<std::vector<PipelineStep>> runs;
  for (const Entry entry : kEntries) {
    SCOPED_TRACE(name_of(entry));
    PipelineManager manager(make_config(), 1);
    manager.fit(0, data[0].train.x, data[0].train.labels);

    std::vector<double> row(data[0].test.dim());
    for (std::size_t i = 0; i < kRows; ++i) {
      const auto src = data[0].test.x.row(i);
      std::copy(src.begin(), src.end(), row.begin());
      if (i == kBadRow) row[3] = std::numeric_limits<double>::quiet_NaN();
      SubmitStatus status = SubmitStatus::kOk;
      EXPECT_EQ(submit_row(manager, entry, 0, row, -1, &status),
                i == kBadRow ? 0u : 1u)
          << "row " << i;
      EXPECT_EQ(status,
                i == kBadRow ? SubmitStatus::kNonFinite : SubmitStatus::kOk);
    }
    manager.drain();
    const std::vector<PipelineStep> steps = manager.take_steps(0);
    ASSERT_EQ(steps.size(), kRows - 1);
    EXPECT_EQ(manager.telemetry(0).non_finite.load(), 1u);
    EXPECT_EQ(manager.telemetry(0).submitted, kRows - 1);
    // The refusal reaches the operator's snapshot, in both renderings.
    const edgedrift::obs::Snapshot snap = manager.stats();
    ASSERT_EQ(snap.streams.size(), 1u);
    EXPECT_EQ(snap.streams[0].counters.non_finite, 1u);
    EXPECT_EQ(snap.totals().non_finite, 1u);
    EXPECT_NE(snap.to_json("test").find("\"non_finite\": 1"),
              std::string::npos);
    EXPECT_NE(snap.to_text().find("non-finite"), std::string::npos);

    bool detected = false;
    for (std::size_t k = 0; k < steps.size(); ++k) {
      const std::size_t source_row = k < kBadRow ? k : k + 1;
      if (steps[k].drift_detected && source_row >= kRows / 2) detected = true;
    }
    EXPECT_TRUE(detected) << "the real drift at row " << kRows / 2
                          << " was never detected";
    runs.push_back(steps);
  }
  expect_steps_equal(runs[1], runs[0]);
}

// A block holding any NaN or Inf is refused whole, like a bad label span:
// nothing reaches the ring, and the stream keeps serving good rows.
TEST(Ingestion, NonFiniteBlockIsRefusedWhole) {
  const auto data = make_streams(1, 100);
  PipelineManager manager(make_config(), 1);
  manager.fit(0, data[0].train.x, data[0].train.labels);

  SubmitStatus status = SubmitStatus::kOk;
  edgedrift::linalg::Matrix block = data[0].test.x;
  block(block.rows() - 1, 0) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(manager.submit_batch(0, block, {}, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kNonFinite);
  block(block.rows() - 1, 0) = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(manager.submit_batch(0, block, {}, &status), 0u);
  EXPECT_EQ(status, SubmitStatus::kNonFinite);
  EXPECT_EQ(manager.telemetry(0).non_finite.load(), 2u);
  EXPECT_EQ(manager.telemetry(0).submitted, 0u);

  EXPECT_EQ(manager.submit_batch(0, data[0].test.x, {}, &status),
            data[0].test.size());
  EXPECT_EQ(status, SubmitStatus::kOk);
  manager.drain();
  EXPECT_EQ(manager.telemetry(0).processed, data[0].test.size());
}

// The snapshot's admission counters are read from the stream's telemetry,
// their only home, so they must equal telemetry(id) with obs on and off,
// across an evict/restore cycle, and while stats() races kReject
// producers (run under TSan in CI). Mid-race, a snapshot can only trail
// the telemetry read after it.
TEST(Ingestion, SnapshotAdmissionCountersMatchTelemetryAcrossEviction) {
  constexpr std::size_t kStreams = 2;
  const auto data = make_streams(kStreams, 2);
  for (const bool obs_on : {true, false}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    PipelineConfig config = make_config();
    config.obs.enabled = obs_on;
    ManagerOptions options;
    options.queue_capacity = 8;
    options.drain_batch_max = 4;
    options.backpressure = BackpressurePolicy::kReject;
    PipelineManager manager(config, kStreams, options);
    for (std::size_t s = 0; s < kStreams; ++s) {
      manager.fit(s, data[s].train.x, data[s].train.labels);
    }

    const auto expect_snapshot_matches = [&] {
      const edgedrift::obs::Snapshot snap = manager.stats();
      ASSERT_EQ(snap.streams.size(), kStreams);
      for (std::size_t s = 0; s < kStreams; ++s) {
        const StreamTelemetry& t = manager.telemetry(s);
        EXPECT_EQ(snap.streams[s].counters.rejected, t.rejected.load());
        EXPECT_EQ(snap.streams[s].counters.ring_high_water,
                  t.queue_high_water.load());
      }
    };
    // Each producer floods its stream until kReject has dropped more rows:
    // one with single rows, one with whole blocks, against an 8-slot ring.
    // The rows are in-concept, so no stream drifts into a recovery, which
    // would make it unevictable.
    const auto flood = [&] {
      const std::size_t before0 = manager.telemetry(0).rejected.load();
      const std::size_t before1 = manager.telemetry(1).rejected.load();
      std::thread rows([&] {
        for (std::size_t round = 0;
             round < 4 || manager.telemetry(0).rejected.load() == before0;
             ++round) {
          for (std::size_t i = 0; i < data[0].train.size(); ++i) {
            manager.submit(0, data[0].train.x.row(i));
          }
        }
      });
      std::thread blocks([&] {
        for (std::size_t round = 0;
             round < 4 || manager.telemetry(1).rejected.load() == before1;
             ++round) {
          manager.submit_batch(1, data[1].train.x);
        }
      });
      rows.join();
      blocks.join();
    };

    std::atomic<bool> done{false};
    std::thread poller([&] {
      while (!done.load()) {
        const edgedrift::obs::Snapshot snap = manager.stats();
        for (std::size_t s = 0; s < kStreams; ++s) {
          const StreamTelemetry& t = manager.telemetry(s);
          EXPECT_LE(snap.streams[s].counters.rejected, t.rejected.load());
          EXPECT_LE(snap.streams[s].counters.ring_high_water,
                    t.queue_high_water.load());
          EXPECT_LE(snap.streams[s].counters.ring_high_water,
                    options.queue_capacity);
        }
      }
    });

    flood();
    manager.drain();
    expect_snapshot_matches();
    for (std::size_t s = 0; s < kStreams; ++s) {
      EXPECT_GT(manager.telemetry(s).rejected.load(), 0u);
      EXPECT_GT(manager.telemetry(s).queue_high_water.load(), 0u);
    }

    // Cold: the counters outlive the pipeline. (EXPECT, not ASSERT: the
    // poller thread must still be joined.)
    EXPECT_TRUE(manager.evict(0));
    EXPECT_TRUE(manager.evict(1));
    expect_snapshot_matches();

    // Restored by the next submits, which keep counting.
    flood();
    manager.drain();
    EXPECT_TRUE(manager.resident(0));
    EXPECT_TRUE(manager.resident(1));
    expect_snapshot_matches();

    done.store(true);
    poller.join();
  }
}

}  // namespace
