// Incremental inverse updates.
//
// These are the kernels that make OS-ELM "sequential": with training batch
// size fixed to 1 (as the paper does, Section 2.2.1) the covariance inverse
// P is maintained by the Sherman–Morrison identity, eliminating every
// matrix inversion after the initial training phase. The Woodbury block
// variant supports general batch sizes and is used by tests to prove the
// rank-1 path equivalent.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg {

/// Sherman–Morrison: given P = A^-1 (n x n), updates P in place to
/// (A + u v^T)^-1 = P - (P u)(v^T P) / (1 + v^T P u).
/// Returns false (leaving P untouched) when the denominator is ~0, i.e. the
/// update would make A singular.
///
/// The scratch overload is the per-sample hot path: `pu_scratch` and
/// `vtp_scratch` must each have length n and are clobbered. The
/// convenience overload allocates them per call — never use it per sample.
bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v,
                             std::span<double> pu_scratch,
                             std::span<double> vtp_scratch);
bool sherman_morrison_update(Matrix& p, std::span<const double> u,
                             std::span<const double> v);

/// OS-ELM-specialized symmetric rank-1 step with forgetting factor `alpha`:
///   P <- (1/alpha) * [ P - (P h)(h^T P) / (alpha + h^T P h) ]
/// alpha = 1 is the standard OS-ELM update; alpha in (0,1) is the ONLAD
/// forgetting mechanism. `ph_scratch` must have length n and is clobbered.
/// Returns false (leaving P untouched) when P has numerically lost positive
/// definiteness (denominator <= 0 or non-finite) — with alpha < 1 the
/// covariance grows like alpha^-t in unexcited directions, so long streams
/// eventually overflow; callers should reset P to the prior (standard RLS
/// covariance resetting) when this happens.
bool oselm_p_update(Matrix& p, std::span<const double> h, double alpha,
                    std::span<double> ph_scratch);

/// Reusable intermediates of woodbury_update(). Every buffer (including the
/// core factorization's pivot array) grows on first use and is reused
/// across calls, so repeated block updates (oselm::block_step, behind
/// OsElm::train_batch) touch the heap zero times once the workspace
/// has reached its high-water shape — reserve() pre-grows it to a known
/// rank so even the first update after Pipeline::fit() is allocation-free.
struct WoodburyWorkspace {
  Matrix pu;                     ///< P U: n x k.
  Matrix core;                   ///< I + V^T P U: k x k (factored in place).
  Matrix vtp;                    ///< V^T P: k x n.
  Matrix core_inv_vtp;           ///< core^-1 V^T P: k x n.
  Matrix delta;                  ///< PU core^-1 V^T P: n x n.
  Matrix w;                      ///< Symmetric path: H P = (P H^T)^T, k x n.
  Matrix m;                      ///< Symmetric path: core^-1 H P, k x n.
  std::vector<std::size_t> piv;  ///< Partial-pivot rows of the core LU.

  /// Pre-grows every buffer for rank-k updates of an n x n inverse.
  void reserve(std::size_t n, std::size_t k) {
    pu.resize_zero(n, k);
    core.resize_zero(k, k);
    vtp.resize_zero(k, n);
    core_inv_vtp.resize_zero(k, n);
    delta.resize_zero(n, n);
    w.resize_zero(k, n);
    m.resize_zero(k, n);
    if (piv.size() < k) piv.resize(k);
  }
};

/// Woodbury identity for a rank-k block update:
///   (A + U V^T)^-1 = P - P U (I + V^T P U)^-1 V^T P,  with P = A^-1.
/// U is n x k, V is n x k. Returns false when the k x k core is singular.
/// The workspace overload reuses `ws` across calls; the convenience
/// overload allocates a fresh workspace per call.
///
/// Equivalence contract with the rank-1 kernels (the chunked-training
/// seam): with k = 1 the identity degenerates to Sherman–Morrison, so
/// woodbury_update(P, u, v) computes exactly the same matrix as
/// sherman_morrison_update(P, u, v) — equal in exact arithmetic, and equal
/// to ~1e-12 relative tolerance in floating point (the two paths order
/// their operations differently: the rank-1 kernel applies one fused ger,
/// the block path runs the tiny LU solve). More generally, a rank-k update
/// with U = V = H^T equals k sequential rank-1 updates with rows of H in
/// exact arithmetic — the property OS-ELM's block recursion is built on and
/// the reason chunked training (oselm::block_step) is
/// decision-equivalent, not bit-identical, to the per-sample path.
/// tests/test_chunked_train.cpp pins the k = 1 bound over random shapes.
bool woodbury_update(Matrix& p, const Matrix& u, const Matrix& v,
                     WoodburyWorkspace& ws);
bool woodbury_update(Matrix& p, const Matrix& u, const Matrix& v);

/// Woodbury rank-k update specialized for the OS-ELM training shape:
/// U = V = H^T with P symmetric (a covariance inverse), taking the chunk's
/// hidden rows H (k x n, row-major — the layout the drain hands over) with
/// no transpose staging:
///   P <- P - W^T (I + H W^T)^-1 W,   W = H P (= (P H^T)^T by symmetry).
/// Evaluated entirely through the per-sample path's lean primitives —
/// k matvecs for W, contiguous dot products for the core, k gers for the
/// P update — because at edge-sized n (tens) a GEMM's per-call packing
/// costs more than the whole update.
///
/// On success `ws.m` holds core^-1 H P = (P_new H^T)^T — the k x n factor
/// the OS-ELM beta update needs (beta += P_new H^T resid), obtained here
/// for free from the identity P_new H^T = P_old H^T core^-1 instead of an
/// n^2 d GEMM at the caller. Returns false (P untouched) when the core is
/// singular. Same equivalence contract as woodbury_update above; the
/// k = 1 degeneration to Sherman–Morrison and the block-vs-sequential
/// bound are pinned by tests/test_chunked_train.cpp.
bool woodbury_update_sym(Matrix& p, const Matrix& h, WoodburyWorkspace& ws);

}  // namespace edgedrift::linalg
