// OS-ELM: Online Sequential Extreme Learning Machine (Liang et al., 2006)
// with the ONLAD forgetting mechanism (Tsukada et al., 2020) as an option.
//
// Model: y = beta^T g(A^T x + b) where the projection (A, b) is random and
// fixed; only beta (hidden_dim x output_dim) is trained. Training state is
// the pair (beta, P) with P = (H^T H + lambda I)^-1 over everything seen so
// far. The batch phase computes P by Cholesky; every subsequent sample is a
// rank-1 Sherman–Morrison step, so no inversion ever happens on-device —
// the property the paper relies on for the 264 kB Raspberry Pi Pico target.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/oselm/projection.hpp"

namespace edgedrift::oselm {

/// Hyper-parameters of one OS-ELM instance.
struct OsElmConfig {
  std::size_t output_dim = 0;      ///< Target dimensionality.
  double reg_lambda = 1e-2;        ///< Ridge term of the initial training.
  double forgetting_factor = 1.0;  ///< 1.0 = plain OS-ELM; <1.0 = ONLAD.
};

/// Asserts output_dim > 0, reg_lambda > 0 and a forgetting factor in
/// (0, 1].
void check_config(const OsElmConfig& config);

/// Grow-only scratch of the update steps below. One per trainer — a
/// standalone OsElm, or a whole MultiInstanceModel, whose instances train
/// one at a time and so share it. After reserve_block() (or the first
/// step at the high-water chunk size) the steps never touch the heap.
struct TrainScratch {
  std::vector<double> h;    ///< Projection of the trained sample.
  std::vector<double> ph;   ///< P h.
  std::vector<double> err;  ///< t - beta^T h.
  linalg::WoodburyWorkspace woodbury;  ///< Block-step P-update buffers.
  linalg::Matrix resid;                ///< Block step: T - H beta, k x out.

  TrainScratch(std::size_t hidden_dim, std::size_t output_dim)
      : h(hidden_dim), ph(hidden_dim), err(output_dim) {}

  /// Pre-grows the block-step buffers for chunks of up to `max_rows`.
  void reserve_block(std::size_t max_rows);

  std::size_t memory_bytes() const;
};

// The OS-ELM update math, written once over (P, one column block of beta):
// OsElm passes its whole dense beta, MultiInstanceModel one instance's
// block of the packed ensemble matrix.

/// P = I / reg_lambda: the data-free recursive-least-squares prior.
void set_prior(linalg::Matrix& p, double reg_lambda);

/// Batch initial training on hidden rows H and targets T:
/// P = (H^T H + lambda I)^-1, beta = P H^T T.
void batch_train(linalg::Matrix& p, linalg::ColumnBlock beta,
                 const linalg::Matrix& h, const linalg::Matrix& t,
                 double reg_lambda);

/// One sequential step on the hidden activation `h` of a sample with
/// target `t`: the forgetting-aware Sherman–Morrison P update (with the
/// covariance-resetting safeguard when forgetting_factor < 1), then
/// err = t - beta^T h with the pre-update beta and beta += (P h) err^T.
/// `h` may alias scratch.h.
void sequential_step(linalg::Matrix& p, linalg::ColumnBlock beta,
                     std::span<const double> h, std::span<const double> t,
                     const OsElmConfig& config, TrainScratch& scratch);

/// Rank-k block step on hidden rows H (k x hidden_dim) and targets T:
/// one symmetric Woodbury P update plus k rank-1 beta passes. Equivalent to
/// k sequential_step() calls in exact arithmetic when forgetting_factor ==
/// 1 (which it requires), NOT bit-identical to them (see
/// linalg/updates.hpp for the rank-1 seam contract).
void block_step(linalg::Matrix& p, linalg::ColumnBlock beta,
                const linalg::Matrix& h, const linalg::Matrix& t,
                const OsElmConfig& config, TrainScratch& scratch);

/// A single OS-ELM regressor over a shared random projection.
class OsElm {
 public:
  /// Creates an untrained instance. Before the first init_train() /
  /// init_sequential() call, predict() is invalid.
  OsElm(ProjectionPtr projection, OsElmConfig config);

  std::size_t input_dim() const { return projection_->input_dim(); }
  std::size_t hidden_dim() const { return projection_->hidden_dim(); }
  std::size_t output_dim() const { return config_.output_dim; }
  const OsElmConfig& config() const { return config_; }
  const ProjectionPtr& projection() const { return projection_; }

  bool initialized() const { return initialized_; }

  /// Batch initial training on rows of X (inputs) and T (targets):
  /// P = (H^T H + lambda I)^-1, beta = P H^T T.
  void init_train(const linalg::Matrix& x, const linalg::Matrix& t);

  /// Data-free initialization: P = I / lambda, beta = 0. This is the
  /// recursive-least-squares prior that lets a model start training purely
  /// sequentially (used by the drift-reconstruction phase, Algorithm 2).
  void init_sequential();

  /// Sequential training on one (x, t) pair — the batch-size-1 fast path.
  void train(std::span<const double> x, std::span<const double> t);

  /// Sequential training on a batch via the Woodbury identity. Equivalent to
  /// calling train() row by row when forgetting_factor == 1.
  void train_batch(const linalg::Matrix& x, const linalg::Matrix& t);

  /// y = prediction for x. `y` must have length output_dim(). The hidden
  /// activation lives on the stack (heap only for unusually wide hidden
  /// layers), so concurrent predict() calls on a frozen model never share
  /// scratch.
  void predict(std::span<const double> x, std::span<double> y) const;

  /// Batch prediction; rows of the result are predictions.
  linalg::Matrix predict_batch(const linalg::Matrix& x) const;

  /// Resets beta and P to the data-free prior, keeping the projection.
  void reset();

  /// Number of training samples absorbed since the last reset/init.
  std::size_t samples_seen() const { return samples_seen_; }

  const linalg::Matrix& beta() const { return beta_; }
  const linalg::Matrix& p() const { return p_; }

  /// Bytes of trainable state (beta + P + scratch). Pass
  /// include_projection=true to add the shared projection weights.
  std::size_t memory_bytes(bool include_projection = false) const;

 private:
  void hidden(std::span<const double> x, std::span<double> h) const {
    projection_->hidden(x, h);
  }

  ProjectionPtr projection_;
  OsElmConfig config_;
  linalg::Matrix beta_;  ///< hidden_dim x output_dim.
  linalg::Matrix p_;     ///< hidden_dim x hidden_dim.
  bool initialized_ = false;
  std::size_t samples_seen_ = 0;
  // Training scratch, reused to keep the hot path allocation-free.
  // predict() deliberately does not touch it so it is safe to call
  // concurrently on a frozen model.
  TrainScratch scratch_;
};

}  // namespace edgedrift::oselm
