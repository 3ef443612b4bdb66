// Tests for binary serialization and pipeline checkpointing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "edgedrift/core/pipeline.hpp"
#include "edgedrift/data/drift_stream.hpp"
#include "edgedrift/data/gaussian_concept.hpp"
#include "edgedrift/io/binary.hpp"
#include "edgedrift/io/checkpoint.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::core::Pipeline;
using edgedrift::core::PipelineConfig;
using edgedrift::core::PipelineStep;
using edgedrift::linalg::KernelWorkspace;
using edgedrift::linalg::NumericsTier;
using edgedrift::io::Reader;
using edgedrift::io::Writer;
using edgedrift::linalg::Matrix;
using edgedrift::util::Rng;

TEST(Binary, PrimitiveRoundTrip) {
  std::stringstream buffer;
  Writer w(buffer);
  w.write_u32(0xdeadbeef);
  w.write_u64(1234567890123ull);
  w.write_f64(-3.25);
  w.write_string("edge");
  ASSERT_TRUE(w.ok());

  Reader r(buffer);
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double f = 0.0;
  std::string s;
  EXPECT_TRUE(r.read_u32(u32));
  EXPECT_TRUE(r.read_u64(u64));
  EXPECT_TRUE(r.read_f64(f));
  EXPECT_TRUE(r.read_string(s));
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 1234567890123ull);
  EXPECT_DOUBLE_EQ(f, -3.25);
  EXPECT_EQ(s, "edge");
}

TEST(Binary, MatrixAndVectorRoundTrip) {
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(5, 7, rng);
  std::vector<double> v{1.5, -2.5, 3.5};
  std::vector<std::size_t> sizes{9, 0, 42};

  std::stringstream buffer;
  Writer w(buffer);
  w.write_matrix(m);
  w.write_doubles(v);
  w.write_sizes(sizes);
  ASSERT_TRUE(w.ok());

  Reader r(buffer);
  Matrix m2;
  std::vector<double> v2;
  std::vector<std::size_t> sizes2;
  EXPECT_TRUE(r.read_matrix(m2));
  EXPECT_TRUE(r.read_doubles(v2));
  EXPECT_TRUE(r.read_sizes(sizes2));
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(m, m2), 0.0);
  EXPECT_EQ(v, v2);
  EXPECT_EQ(sizes, sizes2);
}

TEST(Binary, HeaderRejectsWrongSection) {
  std::stringstream buffer;
  Writer w(buffer);
  w.write_header("alpha");
  Reader r(buffer);
  EXPECT_FALSE(r.read_header("beta"));
  EXPECT_FALSE(r.ok());
}

TEST(Binary, TruncatedStreamFailsLatching) {
  std::stringstream buffer;
  Writer w(buffer);
  w.write_u32(5);
  Reader r(buffer);
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.read_u64(u64));  // Only 4 bytes available.
  std::uint32_t u32 = 0;
  EXPECT_FALSE(r.read_u32(u32));  // Failure latches.
}

TEST(Binary, CorruptLengthPrefixRejected) {
  std::stringstream buffer;
  Writer w(buffer);
  w.write_u64(~0ull);  // Absurd element count.
  Reader r(buffer);
  std::vector<double> v;
  EXPECT_FALSE(r.read_doubles(v));
}

// ------------------------------------------------------------- checkpoints

struct Scenario {
  edgedrift::data::Dataset train;
  edgedrift::data::Dataset stream;
};

Scenario make_scenario(Rng& rng) {
  edgedrift::data::GaussianClass a;
  a.mean.assign(6, 0.25);
  a.stddev = {0.1};
  edgedrift::data::GaussianClass b;
  b.mean.assign(6, 0.75);
  b.stddev = {0.1};
  edgedrift::data::GaussianConcept concept_ab({a, b});
  Scenario s;
  s.train = edgedrift::data::draw(concept_ab, 300, rng);
  s.stream = edgedrift::data::draw(concept_ab, 200, rng);
  return s;
}

PipelineConfig small_config() {
  PipelineConfig config;
  config.num_labels = 2;
  config.input_dim = 6;
  config.hidden_dim = 4;
  config.window_size = 20;
  config.seed = 99;
  return config;
}

TEST(Checkpoint, RoundTripPreservesPredictions) {
  Rng rng(2);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  auto restored = edgedrift::io::load_pipeline(buffer);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->fitted());
  EXPECT_DOUBLE_EQ(restored->theta_error(), original.theta_error());
  EXPECT_DOUBLE_EQ(restored->centroid_detector()->theta_drift(),
                   original.centroid_detector()->theta_drift());

  // Every prediction and score must be bit-identical.
  for (std::size_t i = 0; i < scenario.stream.size(); ++i) {
    const auto a = original.model().predict(scenario.stream.x.row(i));
    const auto b = restored->model().predict(scenario.stream.x.row(i));
    EXPECT_EQ(a.label, b.label);
    EXPECT_DOUBLE_EQ(a.score, b.score);
  }
}

TEST(Checkpoint, RestoredPipelineKeepsStreamingIdentically) {
  Rng rng(3);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  auto restored = edgedrift::io::load_pipeline(buffer);
  ASSERT_TRUE(restored.has_value());

  // Process the same stream through both; outcomes must agree sample by
  // sample (both start from the same persisted detector state).
  for (std::size_t i = 0; i < scenario.stream.size(); ++i) {
    const auto a = original.process(scenario.stream.x.row(i));
    const auto b = restored->process(scenario.stream.x.row(i));
    EXPECT_EQ(a.prediction.label, b.prediction.label);
    EXPECT_EQ(a.drift_detected, b.drift_detected);
    EXPECT_DOUBLE_EQ(a.statistic, b.statistic);
  }
}

TEST(Checkpoint, UnfittedPipelineRefusesToSave) {
  Pipeline pipeline(small_config());
  std::stringstream buffer;
  EXPECT_FALSE(edgedrift::io::save_pipeline(buffer, pipeline));
}

TEST(Checkpoint, CorruptedBlobRejected) {
  Rng rng(4);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  std::string blob = buffer.str();
  // Flip a byte inside the projection-weight block.
  blob[blob.size() / 2] ^= 0x40;
  std::stringstream corrupted(blob);
  EXPECT_FALSE(edgedrift::io::load_pipeline(corrupted).has_value());
}

TEST(Checkpoint, TruncatedBlobRejected) {
  Rng rng(5);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  const std::string blob = buffer.str();
  std::stringstream truncated(blob.substr(0, blob.size() / 3));
  EXPECT_FALSE(edgedrift::io::load_pipeline(truncated).has_value());
}

TEST(Checkpoint, FileRoundTrip) {
  Rng rng(6);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  const std::string path = "/tmp/edgedrift_checkpoint_test.bin";
  ASSERT_TRUE(edgedrift::io::save_pipeline_file(path, original));
  auto restored = edgedrift::io::load_pipeline_file(path);
  ASSERT_TRUE(restored.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileReturnsNullopt) {
  EXPECT_FALSE(edgedrift::io::load_pipeline_file(
                   "/tmp/definitely_missing_checkpoint.bin")
                   .has_value());
}

TEST(Checkpoint, EveryTruncationPointFailsCleanly) {
  // Fuzz: a checkpoint cut at ANY byte offset must be rejected without
  // crashing (the reader's latching failure model).
  Rng rng(7);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  const std::string blob = buffer.str();
  // Sample offsets across the whole blob (checking all ~20k is slow and
  // redundant; a stride plus the first/last 64 covers every code path).
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 64 && i < blob.size(); ++i) cuts.push_back(i);
  for (std::size_t i = 64; i + 64 < blob.size(); i += 97) cuts.push_back(i);
  for (std::size_t i = blob.size() - 64; i < blob.size(); ++i) {
    cuts.push_back(i);
  }
  for (const std::size_t cut : cuts) {
    std::stringstream truncated(blob.substr(0, cut));
    EXPECT_FALSE(edgedrift::io::load_pipeline(truncated).has_value())
        << "accepted a blob truncated at byte " << cut;
  }
}

TEST(Checkpoint, RandomSingleByteCorruptionIsAlwaysRejected) {
  // Fuzz: flipping any single byte anywhere must trip either a structural
  // check or the trailing checksum.
  Rng rng(8);
  auto scenario = make_scenario(rng);
  Pipeline original(small_config());
  original.fit(scenario.train.x, scenario.train.labels);

  std::stringstream buffer;
  ASSERT_TRUE(edgedrift::io::save_pipeline(buffer, original));
  const std::string blob = buffer.str();
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = blob;
    const std::size_t pos = rng.uniform_index(corrupted.size());
    const char flip = static_cast<char>(1 + rng.uniform_index(255));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ flip);
    std::stringstream in(corrupted);
    EXPECT_FALSE(edgedrift::io::load_pipeline(in).has_value())
        << "accepted a blob with byte " << pos << " xor "
        << static_cast<int>(flip);
  }
}

// save -> load -> save must reproduce the blob byte for byte: each beta,
// a column block of the model's packed matrix, serializes losslessly in
// the dense per-instance layout, and a restore writes it straight back
// into its block. The configured theta_error
// (0 = calibrate at fit) also survives: the calibrated gate travels in its
// own field.
void expect_resave_identical(const Pipeline& pipeline) {
  std::stringstream first;
  ASSERT_TRUE(edgedrift::io::save_pipeline(first, pipeline));
  const std::string blob = first.str();
  std::stringstream in(blob);
  auto restored = edgedrift::io::load_pipeline(in);
  ASSERT_TRUE(restored.has_value());
  std::stringstream second;
  ASSERT_TRUE(edgedrift::io::save_pipeline(second, *restored));
  EXPECT_TRUE(second.str() == blob) << "re-saved blob differs";
}

class CheckpointResave : public ::testing::TestWithParam<NumericsTier> {};

TEST_P(CheckpointResave, ByteIdenticalAfterModelMutations) {
  Rng rng(5);
  auto scenario = make_scenario(rng);
  PipelineConfig config = small_config();
  config.numerics = GetParam();
  Pipeline pipeline(config);
  pipeline.fit(scenario.train.x, scenario.train.labels);
  {
    SCOPED_TRACE("after init_train");
    expect_resave_identical(pipeline);
  }

  KernelWorkspace ws;
  for (std::size_t i = 0; i < 50; ++i) {
    pipeline.model_mutable().train_closest(scenario.stream.x.row(i), ws);
  }
  {
    SCOPED_TRACE("after 50 sequential train steps");
    expect_resave_identical(pipeline);
  }

  pipeline.model_mutable().apply_permutation(std::vector<std::size_t>{1, 0});
  {
    SCOPED_TRACE("after apply_permutation");
    expect_resave_identical(pipeline);
  }
}

TEST_P(CheckpointResave, ByteIdenticalMidStreamAfterChunkedRecovery) {
  Rng rng(6);
  edgedrift::data::GaussianClass a;
  a.mean.assign(6, 0.25);
  a.stddev = {0.1};
  edgedrift::data::GaussianClass b;
  b.mean.assign(6, 0.75);
  b.stddev = {0.1};
  const edgedrift::data::GaussianConcept before({a, b});
  for (auto* cls : {&a, &b}) {
    for (std::size_t j = 0; j < 6; j += 2) cls->mean[j] += 0.6;
  }
  const edgedrift::data::GaussianConcept after({a, b});
  const auto train = edgedrift::data::draw(before, 300, rng);
  const auto stream =
      edgedrift::data::make_sudden_drift(before, after, 1200, 300, rng);

  PipelineConfig config = small_config();
  config.numerics = GetParam();
  config.detector_initial_count = 0;
  config.reconstruction.n_search = 20;
  config.reconstruction.n_update = 100;
  config.reconstruction.n_total = 400;
  config.train_chunk = 4;
  Pipeline pipeline(config);
  pipeline.fit(train.x, train.labels);

  // Drain in bursts (the chunked path trains only inside batches) until a
  // recovery has finished, then a little further into the stream.
  std::vector<PipelineStep> steps;
  std::size_t at = 0;
  std::size_t finished_at = 0;
  constexpr std::size_t kBurst = 16;
  while (at + kBurst <= stream.size() &&
         (finished_at == 0 || at < finished_at + 3 * kBurst)) {
    steps.clear();
    pipeline.process_block({stream.x, at, at + kBurst}, {}, steps);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].reconstruction_finished && finished_at == 0) {
        finished_at = at + i;
      }
    }
    at += kBurst;
  }
  ASSERT_GT(finished_at, 0u) << "no recovery finished";
  ASSERT_FALSE(pipeline.recovering());
  if (edgedrift::obs::kObsCompiled) {
    ASSERT_GT(pipeline.obs().counters.snapshot().chunk_trains, 0u)
        << "recovery did not run through the chunked path";
  }
  expect_resave_identical(pipeline);
}

INSTANTIATE_TEST_SUITE_P(Tiers, CheckpointResave,
                         ::testing::Values(NumericsTier::kExactF64,
                                           NumericsTier::kQuantI8));

}  // namespace
