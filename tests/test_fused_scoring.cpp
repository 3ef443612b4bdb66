// Pins the fused ensemble scorer to C standalone oselm::Autoencoder
// instances, bit for bit. The model stores every beta once, as a column
// block of its packed [L x C*n] matrix, and scores all instances with one
// matvec/GEMM against it; the reference instances each hold a dense beta
// and score one by one. The design rests on the two never diverging by
// even one ulp within a build:
//
//   - scores(x, out, ws)    fused: shared hidden + one packed matvec
//   - score_batch()         fused: one [rows x C*n] GEMM
//   - Autoencoder::score()  reference: dense per-instance matvec
//
// and on every beta block equalling its reference instance's beta. The
// sweep covers ensemble widths C in {2, 3, 5, 23} and tail-heavy
// dimensions (deliberately not multiples of the GEMM register tile), after
// every mutation path: init_train, init_sequential, N Sherman–Morrison
// training steps, apply_permutation and reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/workspace.hpp"
#include "edgedrift/model/multi_instance.hpp"
#include "edgedrift/oselm/autoencoder.hpp"
#include "edgedrift/util/rng.hpp"

namespace {

using edgedrift::linalg::KernelWorkspace;
using edgedrift::linalg::Matrix;
using edgedrift::model::BatchWorkspace;
using edgedrift::model::MultiInstanceModel;
using edgedrift::model::Prediction;
using edgedrift::oselm::Activation;
using edgedrift::oselm::Autoencoder;
using edgedrift::oselm::make_projection;
using edgedrift::util::Rng;

struct LabeledData {
  Matrix x;
  std::vector<int> labels;
};

/// `per_class` Gaussian samples around a distinct anchor per label.
LabeledData make_clusters(Rng& rng, std::size_t num_labels,
                          std::size_t per_class, std::size_t dim) {
  LabeledData data;
  data.x.resize_zero(num_labels * per_class, dim);
  data.labels.resize(num_labels * per_class);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    const std::size_t label = i % num_labels;
    data.labels[i] = static_cast<int>(label);
    for (std::size_t j = 0; j < dim; ++j) {
      const double center =
          0.2 + 0.7 * static_cast<double>((label + j) % num_labels);
      data.x(i, j) = rng.gaussian(center, 0.2);
    }
  }
  return data;
}

/// A model and its reference: C standalone autoencoders over the model's
/// projection, driven through the same init and train sequence.
struct Fixture {
  MultiInstanceModel model;
  std::vector<Autoencoder> reference;

  Fixture(std::size_t num_labels, std::size_t dim, std::size_t hidden,
          std::uint64_t seed)
      : model([&] {
          Rng rng(seed);
          auto proj = make_projection(dim, hidden, Activation::kSigmoid, rng);
          return MultiInstanceModel(num_labels, proj, 1e-2);
        }()) {
    for (std::size_t c = 0; c < num_labels; ++c) {
      reference.emplace_back(model.projection(), 1e-2);
    }
  }

  void init_train(const LabeledData& data) {
    model.init_train(data.x, data.labels);
    for (std::size_t c = 0; c < reference.size(); ++c) {
      std::vector<std::size_t> rows;
      for (std::size_t r = 0; r < data.x.rows(); ++r) {
        if (data.labels[r] == static_cast<int>(c)) rows.push_back(r);
      }
      Matrix block(rows.size(), data.x.cols());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        block.set_row(i, data.x.row(rows[i]));
      }
      reference[c].init_train(block);
    }
  }

  void init_sequential() {
    model.init_sequential();
    for (auto& ae : reference) ae.init_sequential();
  }

  void reset() {
    model.reset();
    for (auto& ae : reference) ae.reset();
  }

  void train_label(std::span<const double> x, std::size_t label) {
    model.train_label(x, label);
    reference[label].train(x);
  }

  /// The fused predict-then-train step against the reference's own
  /// argmin-then-train; returns both predictions.
  std::pair<Prediction, Prediction> train_closest(std::span<const double> x,
                                                  KernelWorkspace& ws) {
    const Prediction fused = model.train_closest(x, ws);
    Prediction ref{0, reference[0].score(x)};
    for (std::size_t c = 1; c < reference.size(); ++c) {
      const double s = reference[c].score(x);
      if (s < ref.score) ref = {c, s};
    }
    reference[ref.label].train(x);
    return {fused, ref};
  }

  void apply_permutation(const std::vector<std::size_t>& perm) {
    model.apply_permutation(perm);
    std::vector<Autoencoder> reordered;
    for (const std::size_t src : perm) reordered.push_back(reference[src]);
    reference = std::move(reordered);
  }
};

/// EXPECT bit-exact agreement of the fused scores with the reference
/// instances' scores on every row of `probes`.
void expect_fused_matches_reference(const Fixture& f, const Matrix& probes) {
  KernelWorkspace ws;
  std::vector<double> fused(f.model.num_labels());
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    f.model.scores(probes.row(r), fused, ws);
    for (std::size_t c = 0; c < f.model.num_labels(); ++c) {
      EXPECT_EQ(fused[c], f.reference[c].score(probes.row(r)))
          << "row " << r << " label " << c << " diverged";
    }
  }
}

/// EXPECT every beta block (and P, and the sample count) to equal its
/// reference instance's state exactly.
void expect_blocks_match_reference(const Fixture& f) {
  const MultiInstanceModel& model = f.model;
  const Matrix& packed = model.packed_beta();
  const std::size_t n = model.input_dim();
  ASSERT_EQ(packed.rows(), model.hidden_dim());
  ASSERT_EQ(packed.cols(), model.num_labels() * n);
  for (std::size_t c = 0; c < model.num_labels(); ++c) {
    const Matrix& beta = f.reference[c].net().beta();
    for (std::size_t i = 0; i < packed.rows(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(model.beta(c)(i, j), beta(i, j))
            << "block " << c << " element (" << i << ", " << j << ")";
        EXPECT_EQ(packed(i, c * n + j), beta(i, j));
      }
    }
    EXPECT_EQ(Matrix::max_abs_diff(model.p(c), f.reference[c].net().p()),
              0.0)
        << "P of instance " << c;
    EXPECT_EQ(model.samples_seen(c), f.reference[c].samples_seen());
  }
}

// Tail-heavy geometry: 37 and 23 are coprime to every SIMD tile width, so
// both the packed-panel and the scalar-tail GEMM paths are exercised.
constexpr std::size_t kDim = 37;
constexpr std::size_t kHidden = 23;

class FusedScoringSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedScoringSweep, BitIdenticalAfterInitTrain) {
  const std::size_t num_labels = GetParam();
  Rng rng(17);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  Fixture f(num_labels, kDim, kHidden, 101);
  f.init_train(data);

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(f, probes.x);
  expect_blocks_match_reference(f);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterSequentialUpdates) {
  const std::size_t num_labels = GetParam();
  Rng rng(19);
  Fixture f(num_labels, kDim, kHidden, 103);
  f.init_sequential();
  expect_blocks_match_reference(f);

  // N Sherman–Morrison steps through both fused (train_closest with a
  // workspace) and explicit-label training.
  auto stream = make_clusters(rng, num_labels, 30, kDim);
  KernelWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    if (i % 3 == 0) {
      f.train_label(stream.x.row(i),
                    static_cast<std::size_t>(stream.labels[i]));
    } else {
      const auto [fused, ref] = f.train_closest(stream.x.row(i), ws);
      ASSERT_EQ(fused.label, ref.label) << "step " << i;
    }
  }

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(f, probes.x);
  expect_blocks_match_reference(f);
}

TEST_P(FusedScoringSweep, BitIdenticalAfterPermutation) {
  const std::size_t num_labels = GetParam();
  Rng rng(23);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  Fixture f(num_labels, kDim, kHidden, 107);
  f.init_train(data);

  // Rotate the instances by one position.
  std::vector<std::size_t> perm(num_labels);
  std::iota(perm.begin(), perm.end(), 0);
  std::rotate(perm.begin(), perm.begin() + 1, perm.end());
  f.apply_permutation(perm);

  auto probes = make_clusters(rng, num_labels, 6, kDim);
  expect_fused_matches_reference(f, probes.x);
  expect_blocks_match_reference(f);
}

TEST_P(FusedScoringSweep, BatchScoresBitIdenticalToScalar) {
  const std::size_t num_labels = GetParam();
  Rng rng(29);
  auto data = make_clusters(rng, num_labels, 40, kDim);
  Fixture f(num_labels, kDim, kHidden, 109);
  f.init_train(data);

  auto probes = make_clusters(rng, num_labels, 9, kDim);
  BatchWorkspace ws;
  f.model.score_batch(probes.x, ws);
  for (std::size_t r = 0; r < probes.x.rows(); ++r) {
    for (std::size_t c = 0; c < num_labels; ++c) {
      EXPECT_EQ(ws.scores(r, c), f.reference[c].score(probes.x.row(r)))
          << "row " << r << " label " << c;
      EXPECT_EQ(ws.scores(r, c), f.model.score_of(probes.x.row(r), c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EnsembleWidths, FusedScoringSweep,
                         ::testing::Values<std::size_t>(2, 3, 5, 23));

// The fused predict-then-train step must walk the exact same trajectory as
// the reference (per-instance scoring, then training the winner with its
// own projection of the sample): same predictions, same betas, for the
// whole stream.
TEST(FusedScoring, TrainClosestMatchesReferenceTrajectory) {
  constexpr std::size_t kLabels = 5;
  Rng rng(31);
  Fixture f(kLabels, kDim, kHidden, 113);
  auto data = make_clusters(rng, kLabels, 40, kDim);
  f.init_train(data);

  auto stream = make_clusters(rng, kLabels, 25, kDim);
  KernelWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    const auto [fused, ref] = f.train_closest(stream.x.row(i), ws);
    ASSERT_EQ(fused.label, ref.label) << "step " << i;
    ASSERT_EQ(fused.score, ref.score) << "step " << i;
  }
  expect_blocks_match_reference(f);
}

// Reset must clear every block along with the reference instances, and
// training from the reset state must stay in lockstep.
TEST(FusedScoring, ResetKeepsMirrorInSync) {
  constexpr std::size_t kLabels = 3;
  Rng rng(37);
  auto data = make_clusters(rng, kLabels, 40, kDim);
  Fixture f(kLabels, kDim, kHidden, 127);
  f.init_train(data);
  f.reset();
  expect_blocks_match_reference(f);

  auto stream = make_clusters(rng, kLabels, 10, kDim);
  KernelWorkspace ws;
  for (std::size_t i = 0; i < stream.x.rows(); ++i) {
    f.train_closest(stream.x.row(i), ws);
  }
  expect_fused_matches_reference(f, stream.x);
  expect_blocks_match_reference(f);
}

}  // namespace
