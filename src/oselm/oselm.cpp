#include "edgedrift/oselm/oselm.hpp"

#include <algorithm>
#include <cmath>

#include "edgedrift/linalg/gemm.hpp"
#include "edgedrift/linalg/simd.hpp"
#include "edgedrift/linalg/solve.hpp"
#include "edgedrift/linalg/updates.hpp"
#include "edgedrift/linalg/vector_ops.hpp"
#include "edgedrift/util/assert.hpp"

namespace edgedrift::oselm {

void check_config(const OsElmConfig& config) {
  EDGEDRIFT_ASSERT(config.output_dim > 0, "output_dim must be positive");
  EDGEDRIFT_ASSERT(config.reg_lambda > 0.0, "reg_lambda must be positive");
  EDGEDRIFT_ASSERT(
      config.forgetting_factor > 0.0 && config.forgetting_factor <= 1.0,
      "forgetting factor must be in (0, 1]");
}

void TrainScratch::reserve_block(std::size_t max_rows) {
  if (max_rows == 0) return;
  woodbury.reserve(h.size(), max_rows);
  resid.resize_zero(max_rows, err.size());
}

std::size_t TrainScratch::memory_bytes() const {
  return (h.capacity() + ph.capacity() + err.capacity()) * sizeof(double) +
         woodbury.pu.memory_bytes() + woodbury.core.memory_bytes() +
         woodbury.vtp.memory_bytes() + woodbury.core_inv_vtp.memory_bytes() +
         woodbury.delta.memory_bytes() + woodbury.w.memory_bytes() +
         woodbury.m.memory_bytes() +
         woodbury.piv.capacity() * sizeof(std::size_t) + resid.memory_bytes();
}

void set_prior(linalg::Matrix& p, double reg_lambda) {
  p.fill(0.0);
  const double prior = 1.0 / reg_lambda;
  for (std::size_t i = 0; i < p.rows(); ++i) p(i, i) = prior;
}

void batch_train(linalg::Matrix& p, linalg::ColumnBlock beta,
                 const linalg::Matrix& h, const linalg::Matrix& t,
                 double reg_lambda) {
  EDGEDRIFT_ASSERT(h.rows() == t.rows(), "H/T row mismatch");
  EDGEDRIFT_ASSERT(h.cols() == beta.rows() && t.cols() == beta.cols(),
                   "batch_train shape mismatch");
  p = linalg::regularized_gram_inverse(h, reg_lambda);
  const linalg::Matrix solved = linalg::matmul(p, linalg::matmul_at_b(h, t));
  for (std::size_t i = 0; i < beta.rows(); ++i) {
    const std::span<const double> src = solved.row(i);
    std::copy(src.begin(), src.end(), beta.row(i).begin());
  }
}

void sequential_step(linalg::Matrix& p, linalg::ColumnBlock beta,
                     std::span<const double> h, std::span<const double> t,
                     const OsElmConfig& config, TrainScratch& scratch) {
  const std::size_t n = p.rows();
  EDGEDRIFT_ASSERT(h.size() == n && beta.rows() == n, "h size mismatch");
  EDGEDRIFT_ASSERT(t.size() == beta.cols(), "t size mismatch");
  // Covariance-resetting safeguard: with a forgetting factor, P grows like
  // alpha^-t in unexcited directions and eventually overflows (a known RLS
  // failure mode). When the trace explodes or the rank-1 step reports a
  // loss of positive definiteness, restart P from the prior while keeping
  // the learned beta — the standard RLS remedy.
  if (config.forgetting_factor < 1.0) {
    double trace = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace += p(i, i);
    if (!std::isfinite(trace) || trace > 1e9 * static_cast<double>(n)) {
      set_prior(p, config.reg_lambda);
    }
  }
  // P <- forgetting-aware Sherman–Morrison step.
  if (!linalg::oselm_p_update(p, h, config.forgetting_factor, scratch.ph)) {
    set_prior(p, config.reg_lambda);
    const bool ok =
        linalg::oselm_p_update(p, h, config.forgetting_factor, scratch.ph);
    EDGEDRIFT_ASSERT(ok, "P update failed even from the prior");
  }
  // err = t - beta^T h (prediction error with the pre-update beta). The
  // beta^T h reconstruction is the same kernel the fused ensemble scorer
  // uses, so training reuses a vectorized path instead of a strided
  // column-wise scalar loop.
  const std::span<double> err{scratch.err.data(), beta.cols()};
  linalg::matvec_transposed(beta, h, err);
  for (std::size_t o = 0; o < err.size(); ++o) err[o] = t[o] - err[o];
  // beta <- beta + (P_new h) err^T.
  linalg::matvec(p, h, scratch.ph);
  linalg::ger(beta, 1.0, scratch.ph, err);
}

void block_step(linalg::Matrix& p, linalg::ColumnBlock beta,
                const linalg::Matrix& h, const linalg::Matrix& t,
                const OsElmConfig& config, TrainScratch& scratch) {
  EDGEDRIFT_ASSERT(h.rows() == t.rows(), "H/T row mismatch");
  EDGEDRIFT_ASSERT(h.cols() == p.rows(), "H hidden dim mismatch");
  EDGEDRIFT_ASSERT(t.cols() == beta.cols(), "T target dim mismatch");
  EDGEDRIFT_ASSERT(config.forgetting_factor == 1.0,
                   "block update requires forgetting_factor == 1");
  const std::size_t k = h.rows();
  if (k == 0) return;
  // resid = T - H beta with the PRE-update beta, one row at a time through
  // the same matvec_transposed kernel the per-sample path uses (beta^T h_r).
  // Must run before the P update below.
  scratch.resid.resize_discard(k, beta.cols());
  for (std::size_t r = 0; r < k; ++r) {
    const std::span<double> resid = scratch.resid.row(r);
    linalg::matvec_transposed(beta, h.row(r), resid);
    const double* EDGEDRIFT_RESTRICT tr = t.data() + r * t.cols();
    for (std::size_t o = 0; o < resid.size(); ++o) resid[o] = tr[o] - resid[o];
  }
  // P <- (P^-1 + H^T H)^-1 via the symmetric Woodbury kernel, which takes H
  // in the row-major layout the drain hands over (no transpose staging) and
  // leaves M = (P_new H^T)^T in the workspace.
  const bool ok = linalg::woodbury_update_sym(p, h, scratch.woodbury);
  EDGEDRIFT_ASSERT(ok, "Woodbury core singular in block training");
  // beta <- beta + P_new H^T resid = beta + M^T resid, applied as k fused
  // rank-1 passes — the n^2 d GEMM the naive form needs is already folded
  // into the Woodbury solve via the P_new H^T = P H^T core^-1 identity.
  for (std::size_t r = 0; r < k; ++r) {
    linalg::ger(beta, 1.0, scratch.woodbury.m.row(r), scratch.resid.row(r));
  }
}

OsElm::OsElm(ProjectionPtr projection, OsElmConfig config)
    : projection_(std::move(projection)),
      config_(config),
      scratch_(projection_ ? projection_->hidden_dim() : 0, config.output_dim) {
  EDGEDRIFT_ASSERT(projection_ != nullptr, "projection must not be null");
  check_config(config_);
  const std::size_t h = projection_->hidden_dim();
  beta_.resize_zero(h, config_.output_dim);
  p_.resize_zero(h, h);
}

void OsElm::init_train(const linalg::Matrix& x, const linalg::Matrix& t) {
  EDGEDRIFT_ASSERT(x.rows() == t.rows(), "X/T row mismatch");
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "X feature dim mismatch");
  EDGEDRIFT_ASSERT(t.cols() == output_dim(), "T target dim mismatch");
  batch_train(p_, beta_, projection_->hidden_batch(x), t, config_.reg_lambda);
  initialized_ = true;
  samples_seen_ = x.rows();
}

void OsElm::init_sequential() {
  beta_.fill(0.0);
  set_prior(p_, config_.reg_lambda);
  initialized_ = true;
  samples_seen_ = 0;
}

void OsElm::train(std::span<const double> x, std::span<const double> t) {
  EDGEDRIFT_ASSERT(initialized_, "train() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  hidden(x, scratch_.h);
  sequential_step(p_, beta_, scratch_.h, t, config_, scratch_);
  ++samples_seen_;
}

void OsElm::train_batch(const linalg::Matrix& x, const linalg::Matrix& t) {
  EDGEDRIFT_ASSERT(initialized_, "train_batch() before initialization");
  EDGEDRIFT_ASSERT(x.rows() == t.rows(), "X/T row mismatch");
  EDGEDRIFT_ASSERT(x.cols() == input_dim(), "X feature dim mismatch");
  if (x.rows() == 0) return;
  block_step(p_, beta_, projection_->hidden_batch(x), t, config_, scratch_);
  samples_seen_ += x.rows();
}

void OsElm::predict(std::span<const double> x, std::span<double> y) const {
  EDGEDRIFT_ASSERT(initialized_, "predict() before initialization");
  EDGEDRIFT_ASSERT(x.size() == input_dim(), "x size mismatch");
  EDGEDRIFT_ASSERT(y.size() == output_dim(), "y size mismatch");
  // The hidden activation lives on the stack (heap only for unusually wide
  // hidden layers) so concurrent predict() calls on a frozen model never
  // share scratch.
  constexpr std::size_t kStackHidden = 256;
  double stack_buf[kStackHidden];
  std::vector<double> heap_buf;
  std::span<double> h;
  if (hidden_dim() <= kStackHidden) {
    h = std::span<double>(stack_buf, hidden_dim());
  } else {
    heap_buf.resize(hidden_dim());
    h = heap_buf;
  }
  hidden(x, h);
  linalg::matvec_transposed(beta_, h, y);
}

linalg::Matrix OsElm::predict_batch(const linalg::Matrix& x) const {
  EDGEDRIFT_ASSERT(initialized_, "predict_batch() before initialization");
  return linalg::matmul_parallel(projection_->hidden_batch(x), beta_);
}

void OsElm::reset() { init_sequential(); }

std::size_t OsElm::memory_bytes(bool include_projection) const {
  std::size_t bytes =
      beta_.memory_bytes() + p_.memory_bytes() + scratch_.memory_bytes();
  if (include_projection) bytes += projection_->memory_bytes();
  return bytes;
}

}  // namespace edgedrift::oselm
