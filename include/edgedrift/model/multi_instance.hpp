// The discriminative model of the paper (Section 3.1): one OS-ELM
// autoencoder instance per class label, all sharing a single random
// projection. Prediction returns the label whose instance reconstructs the
// sample best (smallest anomaly score); sequential training updates only
// that closest instance.
//
// Every instance's beta lives in exactly one place: column block c of the
// packed [hidden_dim x C * input_dim] matrix is instance c's beta. The
// fused scorer reads the whole matrix in one matvec/GEMM, and training
// runs the OS-ELM update steps (oselm/oselm.hpp) on (P_c, block c) in
// place. Per label the model holds only P and a samples-seen count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"
#include "edgedrift/linalg/numerics.hpp"
#include "edgedrift/linalg/quant.hpp"
#include "edgedrift/linalg/workspace.hpp"
#include "edgedrift/oselm/oselm.hpp"

namespace edgedrift::model {

/// Result of a model prediction.
struct Prediction {
  std::size_t label = 0;  ///< argmin-score instance index.
  double score = 0.0;     ///< Anomaly score of that instance.
};

/// Preallocated buffers for the batch scoring path. Reuse one workspace
/// across calls to keep the hot loop allocation-free; the matrices are
/// grow-only (Matrix::resize_zero never reallocates within the high-water
/// capacity), so after reserve() — or after the first batch — repeat
/// batches of any shape up to the high-water mark touch the heap zero
/// times.
struct BatchWorkspace {
  linalg::Matrix hidden;  ///< rows x hidden_dim: shared hidden activations.
  linalg::Matrix recon;   ///< rows x (num_labels * input_dim): fused recon.
  linalg::Matrix scores;  ///< rows x num_labels: per-instance MSE scores.

  // Tiered-scoring scratch (empty — zero bytes — in the f64 tier).
  linalg::MatrixF32 hidden_f32;  ///< Narrowed hidden activations.
  linalg::MatrixF32 input_f32;   ///< Narrowed input rows (f32 MSE operand).
  linalg::MatrixF32 recon_f32;   ///< f32/i8 fused reconstruction.
  linalg::AlignedVector<std::int8_t> q_row;   ///< i8: one row's hidden codes.
  linalg::AlignedVector<std::int32_t> accum;  ///< i8: int32 accumulators.

  // Chunked-training gather scratch: one winner bucket is gathered at a
  // time, so the buffers are sized by the chunk, not the batch.
  linalg::Matrix bucket_h;                 ///< Bucket rows' hidden rows.
  linalg::Matrix bucket_t;                 ///< Bucket rows' targets (inputs).
  std::vector<std::size_t> bucket_counts;  ///< Per-label winner counts.

  /// Pre-grows every buffer to the given batch geometry so the first
  /// score_batch() call is already allocation-free. Pass the pipeline's
  /// tier to also pre-grow that tier's scratch.
  void reserve(std::size_t rows, std::size_t input_dim,
               std::size_t hidden_dim, std::size_t num_labels,
               linalg::NumericsTier tier = linalg::NumericsTier::kExactF64) {
    hidden.resize_zero(rows, hidden_dim);
    recon.resize_zero(rows, num_labels * input_dim);
    scores.resize_zero(rows, num_labels);
    if (tier != linalg::NumericsTier::kExactF64) {
      hidden_f32.resize_zero(rows, hidden_dim);
      input_f32.resize_zero(rows, input_dim);
      recon_f32.resize_zero(rows, num_labels * input_dim);
    }
    if (tier == linalg::NumericsTier::kQuantI8) {
      if (q_row.size() < hidden_dim) q_row.resize(hidden_dim);
      if (accum.size() < num_labels * input_dim) {
        accum.resize(num_labels * input_dim);
      }
    }
  }

  /// Pre-grows the chunked-training gather scratch for chunks of up to
  /// `chunk` rows (allocation-free chunked training contract).
  void reserve_chunk_train(std::size_t chunk, std::size_t input_dim,
                           std::size_t hidden_dim, std::size_t num_labels) {
    bucket_h.resize_zero(chunk, hidden_dim);
    bucket_t.resize_zero(chunk, input_dim);
    if (bucket_counts.size() < num_labels) bucket_counts.resize(num_labels);
  }
};

/// What one chunked training call did — feeds the obs chunk counters.
struct ChunkTrainStats {
  std::size_t rows = 0;     ///< Samples absorbed by block updates.
  std::size_t buckets = 0;  ///< Rank-k updates issued (non-empty buckets).
  std::size_t replica_refreshes = 0;  ///< Tier replica re-derivations.
};

/// Per-label OS-ELM autoencoder bank over one packed beta matrix.
class MultiInstanceModel {
 public:
  /// `num_labels` instances over one shared projection.
  /// forgetting_factor < 1 turns every instance into an ONLAD autoencoder.
  MultiInstanceModel(std::size_t num_labels, oselm::ProjectionPtr projection,
                     double reg_lambda = 1e-2, double forgetting_factor = 1.0);

  std::size_t num_labels() const { return p_.size(); }
  std::size_t input_dim() const { return projection_->input_dim(); }
  std::size_t hidden_dim() const { return projection_->hidden_dim(); }

  /// Batch initial training: instance L trains on the rows of X whose label
  /// is L. Labels must be in [0, num_labels).
  void init_train(const linalg::Matrix& x, std::span<const int> labels);

  /// Data-free init of every instance (pure-sequential start).
  void init_sequential();

  /// Anomaly score of every instance; `out` must have length num_labels().
  /// The fused allocation-free hot path: one shared hidden projection plus
  /// a single matvec against the packed beta reconstructs all instances at
  /// once. tests/test_fused_scoring.cpp pins it bit-identical to C
  /// standalone oselm::Autoencoder instances trained the same way.
  void scores(std::span<const double> x, std::span<double> out,
              linalg::KernelWorkspace& ws) const;

  /// Label = argmin instance score (Algorithm 1 lines 6–7). Thread-safe on
  /// a frozen model: uses no shared scratch. The workspace overload is the
  /// allocation-free hot path — `ws` is caller-owned, one per thread of
  /// control; the convenience overload allocates a workspace per call.
  /// A non-empty `h` is the caller's hidden activation g(x * A + b) of this
  /// model's projection (or one with an equal fingerprint); the prediction
  /// is bit-identical to projecting here, because both run the same scalar
  /// fused scorer and the batch projection is row-independent and
  /// bit-identical to the scalar one.
  Prediction predict(std::span<const double> x, linalg::KernelWorkspace& ws,
                     std::span<const double> h = {}) const;
  Prediction predict(std::span<const double> x) const;

  /// Scores every instance on every row of X with one fused
  /// [rows x (num_labels * input_dim)] GEMM against the packed beta, then a
  /// vectorized per-label MSE reduction: ws.scores(r, l) is bit-identical
  /// to score_of(x.row(r), l). X is a row-block view (Matrix converts
  /// implicitly), so a contiguous row range — a drain burst in a ring slab,
  /// a calibration chunk — scores in place with zero copies.
  ///
  /// A non-null `h` supplies the hidden activations H = g(X * A + b) instead
  /// of projecting here: [x.rows() x hidden_dim] rows of this model's
  /// projection (or any projection with an equal fingerprint) on exactly
  /// the rows of `x`. The serving layer's coalesced drain projects one
  /// mega-batch for a whole projection group and scatters row blocks of it
  /// into each stream's scoring this way. The result is bit-identical to
  /// projecting here at f64 and identical in the approximate tiers (same
  /// narrowed / quantized operands).
  void score_batch(linalg::ConstMatrixView x, BatchWorkspace& ws,
                   const linalg::ConstMatrixView* h = nullptr) const;

  /// Batch prediction: out[r] is identical to predict(x.row(r)). `out`
  /// must have length x.rows(); `h` as for score_batch.
  void predict_batch(linalg::ConstMatrixView x, BatchWorkspace& ws,
                     std::span<Prediction> out,
                     const linalg::ConstMatrixView* h = nullptr) const;

  /// Anomaly score of one specific instance (f64, whatever the tier).
  double score_of(std::span<const double> x, std::size_t label,
                  linalg::KernelWorkspace& ws) const;
  double score_of(std::span<const double> x, std::size_t label) const;

  /// Predicts, then sequentially trains the winning instance; returns the
  /// prediction made before training. The sample is projected once and the
  /// hidden vector is shared between the fused scorer and the winner's
  /// training step (err = t - beta^T h reuses it).
  Prediction train_closest(std::span<const double> x,
                           linalg::KernelWorkspace& ws);

  /// Sequentially trains the given instance on x.
  void train_label(std::span<const double> x, std::size_t label);

  /// Chunked training: buckets the rows of `x` by `labels[r]` (the winning
  /// instance per row, chosen by the caller — typically from a batch score
  /// of the chunk against the pre-chunk model), then applies ONE rank-k
  /// Woodbury block step (oselm::block_step) per non-empty bucket and
  /// refreshes that block's f32/i8 replica once per bucket instead of once
  /// per sample — the requant amortization at the heart of the chunked
  /// path. `h` must be this model's hidden activations of exactly the rows
  /// of `x` (the score_batch contract on `h`); `labels` has one
  /// winner per row. Within a bucket, rows keep their stream order.
  /// Equivalent to the per-sample winner loop in exact arithmetic when
  /// every row's winner is computed against the same frozen pre-chunk
  /// model, NOT bit-identical — callers gate it behind an opt-in chunk
  /// size. Allocation-free after reserve_chunk_train().
  ChunkTrainStats train_buckets_from_hidden(linalg::ConstMatrixView x,
                                            linalg::ConstMatrixView h,
                                            std::span<const std::size_t> labels,
                                            BatchWorkspace& ws);

  /// Pre-grows the rank-k block-step scratch and the workspace's bucket
  /// gather buffers for chunks of up to `chunk` rows.
  void reserve_chunk_train(std::size_t chunk, BatchWorkspace& ws);

  /// Resets every instance's trainable state, keeping the projection.
  void reset();

  /// Reorders instances so position i holds the previous instance perm[i].
  /// Used after model reconstruction to re-align rebuilt clusters with the
  /// pre-drift label identities.
  void apply_permutation(std::span<const std::size_t> perm);

  /// True once init_train / init_sequential / reset / restore_label ran.
  bool initialized() const { return initialized_; }

  /// Instance `label`'s beta: its column block of packed_beta().
  linalg::ConstColumnBlock beta(std::size_t label) const;
  /// Instance `label`'s P = (H^T H + lambda I)^-1 over everything seen.
  const linalg::Matrix& p(std::size_t label) const;
  /// Training samples instance `label` absorbed since its last init/reset.
  std::size_t samples_seen(std::size_t label) const;

  /// Restores one instance's trained state (deserialization path): copies
  /// `beta` (hidden_dim x input_dim) into the label's block and refreshes
  /// its tier replica.
  void restore_label(std::size_t label, const linalg::Matrix& beta,
                     linalg::Matrix p, std::size_t samples_seen);

  const oselm::ProjectionPtr& projection() const { return projection_; }

  /// Every instance's beta, column-blocked: packed(i, c * input_dim + j) is
  /// instance c's beta(i, j). One matvec/GEMM against it reconstructs every
  /// instance at once.
  const linalg::Matrix& packed_beta() const { return packed_beta_; }

  /// Selects the scoring tier (linalg/numerics.hpp). Training and the f64
  /// packed beta are untouched in every tier; a non-f64 tier builds its
  /// shadow replica of the packed beta immediately and keeps it refreshed
  /// from the f64 beta after every mutation. Idempotent per tier value.
  void set_numerics_tier(linalg::NumericsTier tier);
  linalg::NumericsTier numerics_tier() const { return tier_; }

  /// Monotone counter bumped every time a replica block is re-narrowed /
  /// re-quantized from the f64 beta. Stays 0 while the model is in the f64
  /// tier.
  std::uint64_t quantization_epoch() const { return quantization_epoch_; }

  /// The f32 shadow replica (valid while the f32 tier is active).
  const linalg::MatrixF32& packed_beta_f32() const { return packed_beta_f32_; }
  /// The int8 replica with per-column scales (valid while the i8 tier is
  /// active).
  const linalg::QuantizedMatrix& packed_beta_q() const {
    return packed_beta_q_;
  }

  /// Bytes of the device working set (cf. mcu::StaticPipeline): the shared
  /// projection once, the packed beta, every P, the training scratch the
  /// instances share, and the per-sample score and reconstruction scratch.
  std::size_t memory_bytes() const;

  /// Heap bytes of the host-side f32 / i8 tier replica memory_bytes() leaves
  /// out (only the active tier's replica is ever allocated; 0 at f64).
  /// Together with memory_bytes() this is the model's resident serving
  /// footprint.
  std::size_t replica_bytes() const;

 private:
  /// Fused scorer core: one matvec of the shared hidden activation `h`
  /// against the active tier's packed beta reconstructs every instance,
  /// then the shared MSE kernel reduces each block against x. Dispatches on
  /// tier_; scratch comes from `ws`.
  void scores_from_hidden(std::span<const double> h,
                          std::span<const double> x, std::span<double> out,
                          linalg::KernelWorkspace& ws) const;

  /// Instance c's beta, writable.
  linalg::ColumnBlock block(std::size_t c);

  /// Records a mutation of block c: bumps its version and, in an
  /// approximate tier, re-derives its replica block.
  void block_changed(std::size_t c);

  /// Re-derives instance c's column block of the active tier's replica from
  /// the f64 beta (narrow for f32, re-quantize with fresh scales for i8)
  /// and bumps the quantization epoch. Only called when tier_ != kExactF64.
  void refresh_replica_block(std::size_t c);

  /// True when every replica block was refreshed at its block's version.
  bool replicas_in_sync() const;

  oselm::ProjectionPtr projection_;
  oselm::OsElmConfig config_;  ///< output_dim == input_dim (autoencoder).
  /// hidden_dim x (num_labels * input_dim): every beta, column-blocked.
  linalg::Matrix packed_beta_;
  std::vector<linalg::Matrix> p_;         ///< Per-label P.
  std::vector<std::size_t> samples_seen_;  ///< Per-label sample counts.
  bool initialized_ = false;
  /// One instance trains at a time, so all of them share this scratch.
  oselm::TrainScratch scratch_;

  linalg::NumericsTier tier_ = linalg::NumericsTier::kExactF64;
  /// f32 shadow of packed_beta_ (kFastF32 tier only).
  linalg::MatrixF32 packed_beta_f32_;
  /// int8 + per-column-scale replica of packed_beta_ (kQuantI8 tier only).
  linalg::QuantizedMatrix packed_beta_q_;
  /// Per-block mutation counter, and its value at the last replica refresh
  /// (the debug check that no mutation path skips the replica).
  std::vector<std::uint64_t> block_versions_;
  std::vector<std::uint64_t> replica_versions_;
  std::uint64_t quantization_epoch_ = 0;
};

}  // namespace edgedrift::model
