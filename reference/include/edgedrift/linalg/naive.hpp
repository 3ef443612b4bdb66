// Naive reference kernels — the pre-SIMD scalar implementations, kept
// verbatim so (a) the kernel tests can compare the vectorized layer against
// an independent, obviously-correct reference, and (b) bench_microkernels
// can report the optimized-vs-scalar speedup from within one binary
// (BENCH_kernels.json tracks that ratio over time).
//
// These are NOT used by any production path and are not part of the
// edgedrift library: they build as the edgedrift_reference target, which
// only the kernel tests and bench_microkernels link. Results match the vectorized
// kernels to the 1e-12 relative-tolerance policy, not bit-exactly: the SIMD
// backends fuse multiply-adds and reduce with multiple accumulators.
#pragma once

#include <span>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::linalg::naive {

/// C = A * B, the pre-SIMD cache-blocked scalar kernel (i-k-j loop order
/// with the historical zero-skip branch).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B, scalar outer-product accumulation.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T, scalar row-dot kernel.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// y = A * x, one scalar dot per row.
void matvec(const Matrix& a, std::span<const double> x, std::span<double> y);

/// y = A^T * x, scalar axpy accumulation with the historical zero-skip.
void matvec_transposed(const Matrix& a, std::span<const double> x,
                       std::span<double> y);

/// A += alpha * u * v^T, scalar.
void ger(Matrix& a, double alpha, std::span<const double> u,
         std::span<const double> v);

/// Plain ascending scalar dot product.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace edgedrift::linalg::naive
