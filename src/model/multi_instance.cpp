#include "edgedrift/model/multi_instance.hpp"

#include <algorithm>
#include <limits>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/thread_pool.hpp"

namespace edgedrift::model {

MultiInstanceModel::MultiInstanceModel(std::size_t num_labels,
                                       oselm::ProjectionPtr projection,
                                       double reg_lambda,
                                       double forgetting_factor)
    : projection_(std::move(projection)),
      config_{projection_ ? projection_->input_dim() : 0, reg_lambda,
              forgetting_factor},
      p_(num_labels),
      samples_seen_(num_labels, 0),
      scratch_(projection_ ? projection_->hidden_dim() : 0, config_.output_dim),
      block_versions_(num_labels, 0),
      replica_versions_(num_labels, 0) {
  EDGEDRIFT_ASSERT(num_labels > 0, "need at least one label");
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  oselm::check_config(config_);
  packed_beta_.resize_zero(hidden_dim(), num_labels * input_dim());
  for (auto& p : p_) p.resize_zero(hidden_dim(), hidden_dim());
}

void MultiInstanceModel::set_numerics_tier(linalg::NumericsTier tier) {
  tier_ = tier;
  if (tier_ == linalg::NumericsTier::kExactF64) return;
  // Size the active tier's replica (grow-only storage), then derive every
  // block from the f64 master so the replica is valid before the first
  // tiered score.
  if (tier_ == linalg::NumericsTier::kFastF32) {
    packed_beta_f32_.resize_discard(packed_beta_.rows(), packed_beta_.cols());
  } else {
    packed_beta_q_.q.resize_discard(packed_beta_.rows(), packed_beta_.cols());
    if (packed_beta_q_.scales.size() < packed_beta_.cols()) {
      packed_beta_q_.scales.resize(packed_beta_.cols());
    }
  }
  for (std::size_t c = 0; c < num_labels(); ++c) refresh_replica_block(c);
}

void MultiInstanceModel::refresh_replica_block(std::size_t c) {
  const std::size_t n = input_dim();
  const std::size_t stride = packed_beta_.cols();
  if (tier_ == linalg::NumericsTier::kFastF32) {
    for (std::size_t i = 0; i < hidden_dim(); ++i) {
      const double* EDGEDRIFT_RESTRICT src =
          packed_beta_.data() + i * stride + c * n;
      float* EDGEDRIFT_RESTRICT dst =
          packed_beta_f32_.data() + i * stride + c * n;
      for (std::size_t j = 0; j < n; ++j) dst[j] = static_cast<float>(src[j]);
    }
  } else {
    // Fresh per-column scales for the block: a rank-1 train step can move
    // a column's max|w|, and a stale scale would silently saturate.
    linalg::quantize_block(packed_beta_, packed_beta_q_, c * n, n);
  }
  replica_versions_[c] = block_versions_[c];
  ++quantization_epoch_;
}

bool MultiInstanceModel::replicas_in_sync() const {
  return tier_ == linalg::NumericsTier::kExactF64 ||
         replica_versions_ == block_versions_;
}

linalg::ColumnBlock MultiInstanceModel::block(std::size_t c) {
  return {packed_beta_, c * input_dim(), input_dim()};
}

void MultiInstanceModel::block_changed(std::size_t c) {
  ++block_versions_[c];
  // Approximate tiers re-derive the whole block from the mutated beta: a
  // rank-1 step can move a column's max|w|, so the i8 scales must be
  // recomputed, and replaying the update in f32 would drift from the f64
  // beta over many steps. Full re-narrow/re-quantize keeps the replica's
  // error a pure function of the current beta.
  if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
}

void MultiInstanceModel::init_train(const linalg::Matrix& x,
                                    std::span<const int> labels) {
  EDGEDRIFT_ASSERT(x.rows() == labels.size(), "X/label row mismatch");
  // One counting pass over the labels, then one bucketed gather pass over
  // the rows — O(N + C) bookkeeping instead of rescanning all N labels for
  // each of the C instances.
  std::vector<std::size_t> counts(num_labels(), 0);
  for (const int l : labels) {
    EDGEDRIFT_ASSERT(l >= 0 && static_cast<std::size_t>(l) < num_labels(),
                     "label out of range");
    ++counts[static_cast<std::size_t>(l)];
  }
  std::vector<linalg::Matrix> blocks(num_labels());
  for (std::size_t label = 0; label < num_labels(); ++label) {
    EDGEDRIFT_ASSERT(counts[label] > 0, "every label needs initial samples");
    blocks[label].resize_zero(counts[label], x.cols());
  }
  std::vector<std::size_t> cursor(num_labels(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::size_t label = static_cast<std::size_t>(labels[r]);
    blocks[label].set_row(cursor[label]++, x.row(r));
  }
  // The per-instance solves are independent — each writes only its own P
  // and its own column block of the packed beta, and the shared projection
  // is only read — so fan them over the pool. Each solve's result is a
  // pure function of its block; the fan-out changes which thread runs a
  // solve, never its operand order, so the trained state is bit-identical
  // to the sequential loop. Nested parallel_for inside the solves runs
  // inline on the workers (ThreadPool::in_worker).
  util::ThreadPool::global().parallel_for(
      0, num_labels(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t label = lo; label < hi; ++label) {
          oselm::batch_train(p_[label], block(label),
                             projection_->hidden_batch(blocks[label]),
                             blocks[label], config_.reg_lambda);
          samples_seen_[label] = counts[label];
        }
      },
      /*min_chunk=*/1);
  // block_changed() bumps the shared quantization epoch, so it runs here,
  // single-threaded, after the fan-out.
  for (std::size_t c = 0; c < num_labels(); ++c) block_changed(c);
  initialized_ = true;
}

void MultiInstanceModel::init_sequential() {
  packed_beta_.fill(0.0);
  for (std::size_t c = 0; c < num_labels(); ++c) {
    oselm::set_prior(p_[c], config_.reg_lambda);
    samples_seen_[c] = 0;
    block_changed(c);
  }
  initialized_ = true;
}

void MultiInstanceModel::scores_from_hidden(std::span<const double> h,
                                            std::span<const double> x,
                                            std::span<double> out,
                                            linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_DASSERT(replicas_in_sync(), "tier replica missed a beta update");
  const std::size_t n = input_dim();
  const std::size_t total = num_labels() * n;
  switch (tier_) {
    case linalg::NumericsTier::kExactF64: {
      const std::span<double> recon = ws.recon(total);
      // One matvec against the packed [L x C*n] beta reconstructs all C
      // instances: element c*n+j is the same ascending-i madd chain a
      // matvec_transposed over block c alone produces for its element j
      // (scaled_accumulate is element-wise, so the wide run rounds exactly
      // like the per-block one).
      linalg::matvec_transposed(packed_beta_, h, recon);
      for (std::size_t c = 0; c < num_labels(); ++c) {
        // Same squared_l2_distance kernel as score_of() — one shared MSE
        // reduction keeps the fused path bit-identical.
        out[c] = linalg::squared_l2_distance(x, recon.subspan(c * n, n)) /
                 static_cast<double>(n);
      }
      return;
    }
    case linalg::NumericsTier::kFastF32: {
      const std::span<float> hf = ws.hidden_f32(hidden_dim());
      const std::span<float> xf = ws.input_f32(n);
      const std::span<float> rf = ws.recon_f32(total);
      linalg::narrow(h, hf);
      linalg::narrow(x, xf);
      linalg::matvec_transposed(packed_beta_f32_, hf, rf);
      for (std::size_t c = 0; c < num_labels(); ++c) {
        out[c] = static_cast<double>(
                     linalg::squared_l2_distance(xf, rf.subspan(c * n, n))) /
                 static_cast<double>(n);
      }
      return;
    }
    case linalg::NumericsTier::kQuantI8: {
      const std::span<float> xf = ws.input_f32(n);
      const std::span<float> rf = ws.recon_f32(total);
      const std::span<std::int8_t> qh = ws.hidden_i8(hidden_dim());
      const std::span<std::int32_t> acc = ws.accum_i32(total);
      linalg::narrow(x, xf);
      // Dynamic per-vector quantization of the hidden activation; the
      // integer matvec is exact, so the tier's error is just the two grids.
      const float h_scale = linalg::quantize_vector(h, qh);
      linalg::i8_matvec_transposed_dequant(packed_beta_q_, qh, h_scale, acc,
                                           rf);
      for (std::size_t c = 0; c < num_labels(); ++c) {
        out[c] = static_cast<double>(
                     linalg::squared_l2_distance(xf, rf.subspan(c * n, n))) /
                 static_cast<double>(n);
      }
      return;
    }
  }
}

void MultiInstanceModel::scores(std::span<const double> x,
                                std::span<double> out,
                                linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_ASSERT(out.size() == num_labels(), "score buffer size mismatch");
  EDGEDRIFT_ASSERT(initialized_, "scores() before initialization");
  const std::span<double> h = ws.hidden(hidden_dim());
  projection_->hidden(x, h);
  scores_from_hidden(h, x, out, ws);
}

namespace {

Prediction argmin_score(std::span<const double> s) {
  Prediction best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] < best.score) {
      best.label = i;
      best.score = s[i];
    }
  }
  return best;
}

}  // namespace

Prediction MultiInstanceModel::predict(std::span<const double> x,
                                       linalg::KernelWorkspace& ws,
                                       std::span<const double> h) const {
  const std::span<double> s = ws.scores(num_labels());
  if (h.empty()) {
    scores(x, s, ws);
  } else {
    EDGEDRIFT_DASSERT(h.size() == hidden_dim(), "hidden size mismatch");
    EDGEDRIFT_ASSERT(initialized_, "predict() before initialization");
    scores_from_hidden(h, x, s, ws);
  }
  return argmin_score(s);
}

Prediction MultiInstanceModel::predict(std::span<const double> x) const {
  linalg::KernelWorkspace ws;
  return predict(x, ws);
}

void MultiInstanceModel::score_batch(linalg::ConstMatrixView x,
                                     BatchWorkspace& ws,
                                     const linalg::ConstMatrixView* h) const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "batch feature dim mismatch");
  EDGEDRIFT_ASSERT(initialized_, "score_batch() before initialization");
  if (h == nullptr) {
    projection_->hidden_batch_into(x, ws.hidden);
  } else {
    EDGEDRIFT_ASSERT(h->rows() == x.rows() && h->cols() == hidden_dim(),
                     "hidden block shape mismatch");
  }
  const linalg::ConstMatrixView hv = h != nullptr ? *h : ws.hidden;
  EDGEDRIFT_DASSERT(replicas_in_sync(), "tier replica missed a beta update");
  ws.scores.resize_discard(x.rows(), num_labels());  // Fully written below.
  const std::size_t n = x.cols();
  const std::size_t packed_n = packed_beta_.cols();

  if (tier_ == linalg::NumericsTier::kExactF64) {
    // R = H * packed_beta, one fused [rows x C*n] GEMM: row r, columns
    // [c*n, (c+1)*n) are bit-identical to instance c's scalar reconstruction
    // of row r (same ascending-k accumulation order in both kernels).
    linalg::matmul_parallel_into(hv, packed_beta_, ws.recon);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const std::span<const double> xr{x.data() + r * n, n};
      const double* recon_row = ws.recon.data() + r * packed_n;
      for (std::size_t label = 0; label < num_labels(); ++label) {
        // Same squared_l2_distance kernel as the scalar score() — one shared
        // MSE reduction, so batch and scalar scores agree bit-for-bit.
        const std::span<const double> rr{recon_row + label * n, n};
        ws.scores(r, label) =
            linalg::squared_l2_distance(xr, rr) / static_cast<double>(n);
      }
    }
    return;
  }

  // Approximate tiers: narrow the activations and inputs once per chunk,
  // reconstruct against the tier's replica, reduce the MSE in f32. The
  // projection stays f64 (it is shared with training), so the tier boundary
  // is exactly the packed-beta product plus the reduction.
  ws.hidden_f32.resize_discard(x.rows(), hidden_dim());
  ws.input_f32.resize_discard(x.rows(), n);
  linalg::narrow({hv.data(), hv.rows() * hv.cols()}, ws.hidden_f32.flat());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    linalg::narrow(x.row(r), ws.input_f32.row(r));
  }
  if (tier_ == linalg::NumericsTier::kFastF32) {
    linalg::matmul_parallel_into(ws.hidden_f32, packed_beta_f32_,
                                 ws.recon_f32);
  } else {
    if (ws.q_row.size() < hidden_dim()) ws.q_row.resize(hidden_dim());
    if (ws.accum.size() < packed_n) ws.accum.resize(packed_n);
    linalg::i8_gemm_dequant(ws.hidden_f32, packed_beta_q_, ws.recon_f32,
                            ws.q_row, ws.accum);
  }
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::span<const float> xr{ws.input_f32.data() + r * n, n};
    const float* recon_row = ws.recon_f32.data() + r * packed_n;
    for (std::size_t label = 0; label < num_labels(); ++label) {
      const std::span<const float> rr{recon_row + label * n, n};
      ws.scores(r, label) =
          static_cast<double>(linalg::squared_l2_distance(xr, rr)) /
          static_cast<double>(n);
    }
  }
}

void MultiInstanceModel::predict_batch(linalg::ConstMatrixView x,
                                       BatchWorkspace& ws,
                                       std::span<Prediction> out,
                                       const linalg::ConstMatrixView* h) const {
  EDGEDRIFT_ASSERT(out.size() == x.rows(), "prediction buffer size mismatch");
  score_batch(x, ws, h);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = argmin_score(ws.scores.row(r));
  }
}

double MultiInstanceModel::score_of(std::span<const double> x,
                                    std::size_t label,
                                    linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  EDGEDRIFT_ASSERT(initialized_, "score_of() before initialization");
  const std::span<double> h = ws.hidden(hidden_dim());
  const std::span<double> recon = ws.recon(input_dim());
  projection_->hidden(x, h);
  linalg::matvec_transposed(beta(label), h, recon);
  return linalg::squared_l2_distance(x, recon) /
         static_cast<double>(input_dim());
}

double MultiInstanceModel::score_of(std::span<const double> x,
                                    std::size_t label) const {
  linalg::KernelWorkspace ws;
  return score_of(x, label, ws);
}

Prediction MultiInstanceModel::train_closest(std::span<const double> x,
                                             linalg::KernelWorkspace& ws) {
  EDGEDRIFT_ASSERT(initialized_, "train_closest() before initialization");
  // Project once; the hidden vector feeds both the fused scorer and the
  // winning instance's training step (whose err = t - beta^T h would
  // otherwise recompute the same projection).
  const std::span<double> h = ws.hidden(hidden_dim());
  projection_->hidden(x, h);
  const std::span<double> s = ws.scores(num_labels());
  scores_from_hidden(h, x, s, ws);
  const Prediction pred = argmin_score(s);
  oselm::sequential_step(p_[pred.label], block(pred.label), h, x, config_,
                         scratch_);
  ++samples_seen_[pred.label];
  block_changed(pred.label);
  return pred;
}

void MultiInstanceModel::train_label(std::span<const double> x,
                                     std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  EDGEDRIFT_ASSERT(initialized_, "train_label() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  projection_->hidden(x, scratch_.h);
  oselm::sequential_step(p_[label], block(label), scratch_.h, x, config_,
                         scratch_);
  ++samples_seen_[label];
  block_changed(label);
}

ChunkTrainStats MultiInstanceModel::train_buckets_from_hidden(
    linalg::ConstMatrixView x, linalg::ConstMatrixView h,
    std::span<const std::size_t> labels, BatchWorkspace& ws) {
  EDGEDRIFT_ASSERT(initialized_,
                   "train_buckets_from_hidden() before initialization");
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "chunk feature dim mismatch");
  EDGEDRIFT_ASSERT(h.rows() == x.rows() && h.cols() == hidden_dim(),
                   "chunk hidden shape mismatch");
  EDGEDRIFT_ASSERT(labels.size() == x.rows(), "chunk label count mismatch");
  ChunkTrainStats stats;
  const std::size_t rows = x.rows();
  if (rows == 0) return stats;
  if (ws.bucket_counts.size() < num_labels()) {
    ws.bucket_counts.resize(num_labels());
  }
  std::fill(ws.bucket_counts.begin(), ws.bucket_counts.begin() + num_labels(),
            std::size_t{0});
  for (const std::size_t l : labels) {
    EDGEDRIFT_ASSERT(l < num_labels(), "chunk label out of range");
    ++ws.bucket_counts[l];
  }
  const std::size_t n = input_dim();
  for (std::size_t c = 0; c < num_labels(); ++c) {
    const std::size_t m = ws.bucket_counts[c];
    if (m == 0) continue;
    // Gather the bucket's rows in stream order; the rank-k update absorbs
    // them all at once (order within the bucket only matters for the exact-
    // arithmetic equivalence argument, not the block algebra itself).
    ws.bucket_h.resize_discard(m, hidden_dim());
    ws.bucket_t.resize_discard(m, n);
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (labels[r] != c) continue;
      ws.bucket_h.set_row(cursor, h.row(r));
      ws.bucket_t.set_row(cursor, x.row(r));
      ++cursor;
    }
    oselm::block_step(p_[c], block(c), ws.bucket_h, ws.bucket_t, config_,
                      scratch_);
    samples_seen_[c] += m;
    // One replica refresh per BUCKET instead of one per sample — the i8
    // training-cost amortization.
    block_changed(c);
    if (tier_ != linalg::NumericsTier::kExactF64) ++stats.replica_refreshes;
    stats.rows += m;
    ++stats.buckets;
  }
  return stats;
}

void MultiInstanceModel::reserve_chunk_train(std::size_t chunk,
                                             BatchWorkspace& ws) {
  if (chunk == 0) return;
  scratch_.reserve_block(chunk);
  ws.reserve_chunk_train(chunk, input_dim(), hidden_dim(), num_labels());
}

void MultiInstanceModel::reset() { init_sequential(); }

void MultiInstanceModel::apply_permutation(
    std::span<const std::size_t> perm) {
  EDGEDRIFT_ASSERT(perm.size() == num_labels(), "permutation arity mismatch");
  const std::size_t n = input_dim();
  linalg::Matrix reordered(packed_beta_.rows(), packed_beta_.cols());
  std::vector<linalg::Matrix> p(num_labels());
  std::vector<std::size_t> seen(num_labels());
  for (std::size_t c = 0; c < num_labels(); ++c) {
    const std::size_t src = perm[c];
    EDGEDRIFT_ASSERT(src < num_labels(), "permutation index range");
    for (std::size_t i = 0; i < packed_beta_.rows(); ++i) {
      const std::span<const double> from = beta(src).row(i);
      std::copy(from.begin(), from.end(), reordered.data() +
                                              i * reordered.cols() + c * n);
    }
    p[c] = std::move(p_[src]);
    seen[c] = samples_seen_[src];
  }
  packed_beta_ = std::move(reordered);
  p_ = std::move(p);
  samples_seen_ = std::move(seen);
  for (std::size_t c = 0; c < num_labels(); ++c) block_changed(c);
}

linalg::ConstColumnBlock MultiInstanceModel::beta(std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return {packed_beta_, label * input_dim(), input_dim()};
}

const linalg::Matrix& MultiInstanceModel::p(std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return p_[label];
}

std::size_t MultiInstanceModel::samples_seen(std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return samples_seen_[label];
}

void MultiInstanceModel::restore_label(std::size_t label,
                                       const linalg::Matrix& beta,
                                       linalg::Matrix p,
                                       std::size_t samples_seen) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  EDGEDRIFT_ASSERT(beta.rows() == hidden_dim() && beta.cols() == input_dim(),
                   "restored beta shape mismatch");
  EDGEDRIFT_ASSERT(p.rows() == hidden_dim() && p.cols() == hidden_dim(),
                   "restored P shape mismatch");
  const linalg::ColumnBlock dst = block(label);
  for (std::size_t i = 0; i < hidden_dim(); ++i) {
    const std::span<const double> src = beta.row(i);
    std::copy(src.begin(), src.end(), dst.row(i).begin());
  }
  p_[label] = std::move(p);
  samples_seen_[label] = samples_seen;
  initialized_ = true;
  block_changed(label);
}

std::size_t MultiInstanceModel::memory_bytes() const {
  // num_labels() doubles of score scratch and C * input_dim doubles of
  // reconstruction scratch are the per-sample buffers the fused scorer
  // reads and writes — still part of the device working set.
  std::size_t bytes = projection_->memory_bytes() + packed_beta_.memory_bytes() +
                      scratch_.memory_bytes() +
                      (num_labels() + packed_beta_.cols()) * sizeof(double);
  for (const auto& p : p_) bytes += p.memory_bytes();
  return bytes;
}

std::size_t MultiInstanceModel::replica_bytes() const {
  return packed_beta_f32_.memory_bytes() + packed_beta_q_.memory_bytes();
}

}  // namespace edgedrift::model
