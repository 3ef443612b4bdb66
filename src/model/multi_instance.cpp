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
    : projection_(std::move(projection)) {
  EDGEDRIFT_ASSERT(num_labels > 0, "need at least one label");
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  instances_.reserve(num_labels);
  for (std::size_t i = 0; i < num_labels; ++i) {
    instances_.emplace_back(projection_, reg_lambda, forgetting_factor);
  }
  packed_beta_.resize_zero(projection_->hidden_dim(),
                           num_labels * projection_->input_dim());
  packed_versions_.assign(num_labels, 0);
  replica_versions_.assign(num_labels, 0);
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
  replica_versions_[c] = packed_versions_[c];
  ++quantization_epoch_;
}

bool MultiInstanceModel::replicas_in_sync() const {
  if (tier_ == linalg::NumericsTier::kExactF64) return true;
  for (std::size_t c = 0; c < num_labels(); ++c) {
    if (replica_versions_[c] != packed_versions_[c]) return false;
  }
  return true;
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
  // The per-instance solves are independent — instance state is disjoint,
  // the shared projection is only read, and repack_block() writes disjoint
  // column blocks of the mirror — so fan them over the pool. Each solve's
  // result is a pure function of its block; the fan-out changes which
  // thread runs a solve, never its operand order, so the trained state is
  // bit-identical to the sequential loop. Nested parallel_for inside the
  // solves runs inline on the workers (ThreadPool::in_worker).
  util::ThreadPool::global().parallel_for(
      0, num_labels(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t label = lo; label < hi; ++label) {
          instances_[label].init_train(blocks[label]);
          repack_block(label);
        }
      },
      /*min_chunk=*/1);
  if (tier_ != linalg::NumericsTier::kExactF64) {
    for (std::size_t c = 0; c < num_labels(); ++c) refresh_replica_block(c);
  }
}

void MultiInstanceModel::init_sequential() {
  for (auto& inst : instances_) inst.init_sequential();
  repack_ensemble();
}

void MultiInstanceModel::scores_from_hidden(std::span<const double> h,
                                            std::span<const double> x,
                                            std::span<double> out,
                                            linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_DASSERT(packed_in_sync(), "packed ensemble beta out of sync");
  EDGEDRIFT_DASSERT(replicas_in_sync(), "tier replica missed a beta update");
  const std::size_t n = input_dim();
  const std::size_t total = num_labels() * n;
  switch (tier_) {
    case linalg::NumericsTier::kExactF64: {
      const std::span<double> recon = ws.recon(total);
      // One matvec against the packed [L x C*n] beta reconstructs all C
      // instances: element c*n+j is the same ascending-i madd chain the
      // per-instance matvec_transposed produces for instance c's element j
      // (scaled_accumulate is element-wise, so the strided block rounds
      // exactly like the dense per-instance run).
      linalg::matvec_transposed(packed_beta_, h, recon);
      for (std::size_t c = 0; c < num_labels(); ++c) {
        // Same squared_l2_distance kernel as the per-instance score() — one
        // shared MSE reduction keeps the fused path bit-identical.
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
  EDGEDRIFT_ASSERT(instances_.front().initialized(),
                   "scores() before initialization");
  const std::span<double> h = ws.hidden(hidden_dim());
  projection_->hidden(x, h);
  scores_from_hidden(h, x, out, ws);
}

void MultiInstanceModel::scores(std::span<const double> x,
                                std::span<double> out) const {
  EDGEDRIFT_ASSERT(out.size() == num_labels(), "score buffer size mismatch");
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    out[i] = instances_[i].score(x);
  }
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
                                       linalg::KernelWorkspace& ws) const {
  const std::span<double> s = ws.scores(num_labels());
  scores(x, s, ws);
  return argmin_score(s);
}

Prediction MultiInstanceModel::predict_from_hidden(
    std::span<const double> x, std::span<const double> h,
    linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_DASSERT(h.size() == hidden_dim(),
                    "predict_from_hidden hidden size mismatch");
  EDGEDRIFT_ASSERT(instances_.front().initialized(),
                   "predict_from_hidden() before initialization");
  const std::span<double> s = ws.scores(num_labels());
  scores_from_hidden(h, x, s, ws);
  return argmin_score(s);
}

Prediction MultiInstanceModel::predict(std::span<const double> x) const {
  // Scores on the stack (heap fallback for very wide label sets) so
  // concurrent predict() calls on a frozen model never share scratch.
  constexpr std::size_t kStackLabels = 64;
  double stack_buf[kStackLabels];
  std::vector<double> heap_buf;
  std::span<double> s;
  if (num_labels() <= kStackLabels) {
    s = std::span<double>(stack_buf, num_labels());
  } else {
    heap_buf.resize(num_labels());
    s = heap_buf;
  }
  scores(x, s);
  return argmin_score(s);
}

void MultiInstanceModel::score_batch(linalg::ConstMatrixView x,
                                     BatchWorkspace& ws) const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "batch feature dim mismatch");
  for (const auto& inst : instances_) {
    EDGEDRIFT_ASSERT(inst.initialized(), "score_batch() before initialization");
  }
  projection_->hidden_batch_into(x, ws.hidden);
  score_batch_core(x, ws.hidden, ws);
}

void MultiInstanceModel::score_batch_from_hidden(linalg::ConstMatrixView x,
                                                 linalg::ConstMatrixView h,
                                                 BatchWorkspace& ws) const {
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "batch feature dim mismatch");
  EDGEDRIFT_ASSERT(h.rows() == x.rows() && h.cols() == hidden_dim(),
                   "hidden block shape mismatch");
  for (const auto& inst : instances_) {
    EDGEDRIFT_ASSERT(inst.initialized(), "score_batch() before initialization");
  }
  score_batch_core(x, h, ws);
}

void MultiInstanceModel::score_batch_core(linalg::ConstMatrixView x,
                                          linalg::ConstMatrixView h,
                                          BatchWorkspace& ws) const {
  EDGEDRIFT_DASSERT(packed_in_sync(), "packed ensemble beta out of sync");
  EDGEDRIFT_DASSERT(replicas_in_sync(), "tier replica missed a beta update");
  ws.scores.resize_discard(x.rows(), num_labels());  // Fully written below.
  const std::size_t n = x.cols();
  const std::size_t packed_n = packed_beta_.cols();

  if (tier_ == linalg::NumericsTier::kExactF64) {
    // R = H * packed_beta, one fused [rows x C*n] GEMM: row r, columns
    // [c*n, (c+1)*n) are bit-identical to instance c's scalar reconstruction
    // of row r (same ascending-k accumulation order in both kernels).
    linalg::matmul_parallel_into(h, packed_beta_, ws.recon);
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
  linalg::narrow({h.data(), h.rows() * h.cols()}, ws.hidden_f32.flat());
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
                                       std::span<Prediction> out) const {
  EDGEDRIFT_ASSERT(out.size() == x.rows(), "prediction buffer size mismatch");
  score_batch(x, ws);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = argmin_score(ws.scores.row(r));
  }
}

void MultiInstanceModel::predict_batch_from_hidden(
    linalg::ConstMatrixView x, linalg::ConstMatrixView h, BatchWorkspace& ws,
    std::span<Prediction> out) const {
  EDGEDRIFT_ASSERT(out.size() == x.rows(), "prediction buffer size mismatch");
  score_batch_from_hidden(x, h, ws);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out[r] = argmin_score(ws.scores.row(r));
  }
}

double MultiInstanceModel::score_of(std::span<const double> x,
                                    std::size_t label,
                                    linalg::KernelWorkspace& ws) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label].score(x, ws);
}

double MultiInstanceModel::score_of(std::span<const double> x,
                                    std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label].score(x);
}

Prediction MultiInstanceModel::train_closest(std::span<const double> x,
                                             linalg::KernelWorkspace& ws) {
  EDGEDRIFT_ASSERT(instances_.front().initialized(),
                   "train_closest() before initialization");
  // Project once; the hidden vector feeds both the fused scorer and the
  // winning instance's training step (whose err = t - beta^T h would
  // otherwise recompute the same projection).
  const std::span<double> h = ws.hidden(hidden_dim());
  projection_->hidden(x, h);
  const std::span<double> s = ws.scores(num_labels());
  scores_from_hidden(h, x, s, ws);
  const Prediction pred = argmin_score(s);
  instances_[pred.label].train_from_hidden(h, x);
  sync_block_after_train(pred.label);
  return pred;
}

Prediction MultiInstanceModel::train_closest(std::span<const double> x) {
  const Prediction pred = predict(x);
  instances_[pred.label].train(x);
  sync_block_after_train(pred.label);
  return pred;
}

void MultiInstanceModel::train_label(std::span<const double> x,
                                     std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  instances_[label].train(x);
  sync_block_after_train(label);
}

ChunkTrainStats MultiInstanceModel::train_buckets_from_hidden(
    linalg::ConstMatrixView x, linalg::ConstMatrixView h,
    std::span<const std::size_t> labels, BatchWorkspace& ws) {
  EDGEDRIFT_ASSERT(instances_.front().initialized(),
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
    instances_[c].train_batch_from_hidden(ws.bucket_h, ws.bucket_t);
    // The block step invalidates the rank-1 replay factors, so the packed
    // mirror takes a full block copy — and the tier replica one refresh per
    // BUCKET instead of one per sample, the i8 training-cost amortization.
    repack_block(c);
    if (tier_ != linalg::NumericsTier::kExactF64) {
      refresh_replica_block(c);
      ++stats.replica_refreshes;
    }
    stats.rows += m;
    ++stats.buckets;
  }
  return stats;
}

void MultiInstanceModel::reserve_chunk_train(std::size_t chunk,
                                             BatchWorkspace& ws) {
  if (chunk == 0) return;
  for (auto& inst : instances_) inst.reserve_batch(chunk);
  ws.reserve_chunk_train(chunk, input_dim(), hidden_dim(), num_labels());
}

void MultiInstanceModel::reset() {
  for (auto& inst : instances_) inst.reset();
  repack_ensemble();
}

void MultiInstanceModel::apply_permutation(
    std::span<const std::size_t> perm) {
  EDGEDRIFT_ASSERT(perm.size() == num_labels(), "permutation arity mismatch");
  std::vector<oselm::Autoencoder> reordered;
  reordered.reserve(instances_.size());
  for (const std::size_t src : perm) {
    EDGEDRIFT_ASSERT(src < instances_.size(), "permutation index range");
    reordered.push_back(std::move(instances_[src]));
  }
  instances_ = std::move(reordered);
  repack_ensemble();
}

const oselm::Autoencoder& MultiInstanceModel::instance(
    std::size_t label) const {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label];
}

oselm::Autoencoder& MultiInstanceModel::instance_mutable(std::size_t label) {
  EDGEDRIFT_ASSERT(label < num_labels(), "label out of range");
  return instances_[label];
}

void MultiInstanceModel::repack_block(std::size_t c) {
  const oselm::OsElm& net = instances_[c].net();
  const linalg::Matrix& beta = net.beta();
  const std::size_t n = input_dim();
  const std::size_t stride = packed_beta_.cols();
  for (std::size_t i = 0; i < hidden_dim(); ++i) {
    const double* src = beta.data() + i * n;
    std::copy(src, src + n, packed_beta_.data() + i * stride + c * n);
  }
  packed_versions_[c] = net.beta_version();
  // Replica refresh is the CALLER's duty after repack_block: init_train
  // fans repack_block over the pool, and refresh_replica_block bumps the
  // shared quantization epoch, which must stay single-threaded.
}

void MultiInstanceModel::sync_block_after_train(std::size_t c) {
  const oselm::OsElm& net = instances_[c].net();
  EDGEDRIFT_DASSERT(net.beta_version() == packed_versions_[c] + 1,
                    "packed block missed a beta update");
  // Replay beta += ph (x) err into the owning column block: ger_block runs
  // the identical element-wise scaled_accumulate the dense ger applied to
  // the instance's beta, so the mirror stays bit-equal without a copy.
  linalg::ger_block(packed_beta_, c * input_dim(), 1.0, net.last_update_ph(),
                    net.last_update_err());
  packed_versions_[c] = net.beta_version();
  // Approximate tiers re-derive the whole block from the mutated master:
  // a rank-1 step can move a column's max|w|, so the i8 scales must be
  // recomputed, and replaying the update in f32 would drift from the master
  // over many steps. Full re-narrow/re-quantize keeps the replica's error a
  // pure function of the current master.
  if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
}

void MultiInstanceModel::repack_ensemble() {
  for (std::size_t c = 0; c < num_labels(); ++c) {
    repack_block(c);
    if (tier_ != linalg::NumericsTier::kExactF64) refresh_replica_block(c);
  }
}

bool MultiInstanceModel::packed_in_sync() const {
  for (std::size_t c = 0; c < num_labels(); ++c) {
    if (packed_versions_[c] != instances_[c].net().beta_version()) {
      return false;
    }
  }
  return true;
}

std::size_t MultiInstanceModel::memory_bytes() const {
  // num_labels() doubles account for the per-sample score scratch predict()
  // keeps on the stack — still part of the device working set. The packed
  // ensemble mirror is deliberately excluded: the device profile stores
  // each beta exactly once (see the header comment).
  std::size_t bytes = projection_->memory_bytes() +
                      num_labels() * sizeof(double);
  for (const auto& inst : instances_) {
    bytes += inst.memory_bytes(/*include_projection=*/false);
  }
  return bytes;
}

std::size_t MultiInstanceModel::packed_mirror_bytes() const {
  return packed_beta_.memory_bytes() + packed_beta_f32_.memory_bytes() +
         packed_beta_q_.memory_bytes();
}

}  // namespace edgedrift::model
