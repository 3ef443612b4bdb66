// SIMD abstraction for the dense kernels (gemm.cpp / vector_ops.cpp /
// updates.cpp).
//
// Three backends, chosen at configure time (see the EDGEDRIFT_SIMD and
// EDGEDRIFT_NATIVE CMake options):
//   - AVX2/FMA  when the translation unit is compiled with -mavx2 -mfma
//     (or -march=native on such a host),
//   - NEON      on AArch64 (part of the baseline ABI there),
//   - portable  otherwise: a 4-wide unrolled-scalar struct the compiler can
//     autovectorize, with no ISA assumptions beyond plain doubles.
// Defining EDGEDRIFT_SIMD_FORCE_PORTABLE pins the portable backend even when
// the compiler flags would allow a vector ISA.
//
// The backend also picks the f64 GEMM kernel (gemm.cpp): AVX2 and NEON run
// a packed register-tile microkernel; the portable backend runs a
// row-streamed kernel built from scaled_accumulate(), because its struct
// "vectors" are too wide for a register tile to stay in registers.
//
// Numerics policy (docs/ARCHITECTURE.md, "Kernel layer & numerics policy"):
// every per-element accumulation in the kernels is one `madd()` — a fused
// multiply-add on the SIMD backends, an unfused multiply-then-add on the
// portable backend. Kernels that must stay bit-identical across the scalar
// and batch paths of one build (matvec_transposed vs. either GEMM kernel)
// accumulate each output element as a single ascending-k madd chain, so the
// result is independent of lane arrangement and tail handling. Reductions
// (dot, distances) use multiple accumulators and are only tolerance-
// comparable to a naive loop.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#if !defined(EDGEDRIFT_SIMD_FORCE_PORTABLE)
#if defined(__AVX2__) && defined(__FMA__)
#define EDGEDRIFT_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__aarch64__)
#define EDGEDRIFT_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

#if defined(__GNUC__) || defined(__clang__)
#define EDGEDRIFT_RESTRICT __restrict__
#define EDGEDRIFT_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define EDGEDRIFT_RESTRICT
#define EDGEDRIFT_ALWAYS_INLINE inline
#endif

namespace edgedrift::linalg::simd {

#if defined(EDGEDRIFT_SIMD_AVX2)
inline constexpr const char* kLevelName = "avx2-fma";
#elif defined(EDGEDRIFT_SIMD_NEON)
inline constexpr const char* kLevelName = "neon";
#else
inline constexpr const char* kLevelName = "portable";
#endif

/// The one per-element accumulation op of the kernel layer: acc + a*b,
/// fused on the SIMD backends so scalar tails round exactly like the vector
/// body (vfmadd/vfma have the same single rounding as std::fma).
EDGEDRIFT_ALWAYS_INLINE double madd(double a, double b, double acc) {
#if defined(EDGEDRIFT_SIMD_AVX2) || defined(EDGEDRIFT_SIMD_NEON)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

#if defined(EDGEDRIFT_SIMD_AVX2)

using VDouble = __m256d;
inline constexpr std::size_t kLanes = 4;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return _mm256_setzero_pd(); }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) {
  return _mm256_set1_pd(x);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) {
  return _mm256_loadu_pd(p);
}
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) {
  _mm256_storeu_pd(p, v);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  return _mm256_add_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  return _mm256_sub_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  return _mm256_mul_pd(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  return _mm256_max_pd(a, b);
}
/// a*b + acc with one rounding — the vector form of madd().
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  return _mm256_fmadd_pd(a, b, acc);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
}
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d sum1 = _mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2));
  return _mm_cvtsd_f64(sum1);
}

#elif defined(EDGEDRIFT_SIMD_NEON)

using VDouble = float64x2_t;
inline constexpr std::size_t kLanes = 2;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return vdupq_n_f64(0.0); }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) { return vdupq_n_f64(x); }
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) { return vld1q_f64(p); }
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) { vst1q_f64(p, v); }
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  return vaddq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  return vsubq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  return vmulq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  return vmaxq_f64(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  return vfmaq_f64(acc, a, b);
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) { return vabsq_f64(a); }
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  return vaddvq_f64(v);
}

#else  // portable: 4-wide unrolled scalar, autovectorizable, no ISA deps.

struct VDouble {
  double lane[4];
};
inline constexpr std::size_t kLanes = 4;

EDGEDRIFT_ALWAYS_INLINE VDouble vzero() { return VDouble{{0.0, 0.0, 0.0, 0.0}}; }
EDGEDRIFT_ALWAYS_INLINE VDouble vbroadcast(double x) {
  return VDouble{{x, x, x, x}};
}
EDGEDRIFT_ALWAYS_INLINE VDouble vload(const double* p) {
  return VDouble{{p[0], p[1], p[2], p[3]}};
}
EDGEDRIFT_ALWAYS_INLINE void vstore(double* p, VDouble v) {
  p[0] = v.lane[0];
  p[1] = v.lane[1];
  p[2] = v.lane[2];
  p[3] = v.lane[3];
}
EDGEDRIFT_ALWAYS_INLINE VDouble vadd(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vsub(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmul(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vmax(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vfmadd(VDouble a, VDouble b, VDouble acc) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.lane[i] = madd(a.lane[i], b.lane[i], acc.lane[i]);
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VDouble vabs(VDouble a) {
  VDouble r;
  for (std::size_t i = 0; i < 4; ++i) r.lane[i] = std::abs(a.lane[i]);
  return r;
}
EDGEDRIFT_ALWAYS_INLINE double vreduce_add(VDouble v) {
  return (v.lane[0] + v.lane[1]) + (v.lane[2] + v.lane[3]);
}

#endif

// --------------------------------------------------------------------------
// float32 lane set — the kFastF32 tier's kernels (linalg/numerics.hpp).
//
// Same three backends, twice the lanes per vector: AVX2 __m256 (8), NEON
// float32x4_t (4), portable 8-wide unrolled scalar. The f32 tier carries no
// bit-identity obligation (its contract is error-bounded drift-decision
// equivalence), but the kernels still accumulate per element as single
// ascending-k maddf chains so a portable and a native build differ only by
// fusion/reassociation, not by algorithm.
// --------------------------------------------------------------------------

/// float twin of madd(): acc + a*b, fused on the SIMD backends.
EDGEDRIFT_ALWAYS_INLINE float maddf(float a, float b, float acc) {
#if defined(EDGEDRIFT_SIMD_AVX2) || defined(EDGEDRIFT_SIMD_NEON)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

#if defined(EDGEDRIFT_SIMD_AVX2)

using VFloat = __m256;
inline constexpr std::size_t kLanesF32 = 8;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() { return _mm256_setzero_ps(); }
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) { return _mm256_set1_ps(x); }
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) {
  return _mm256_loadu_ps(p);
}
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) {
  _mm256_storeu_ps(p, v);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  return _mm256_add_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  return _mm256_sub_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  return _mm256_mul_ps(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  return _mm256_fmadd_ps(a, b, acc);
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x1));
  return _mm_cvtss_f32(sum);
}

#elif defined(EDGEDRIFT_SIMD_NEON)

using VFloat = float32x4_t;
inline constexpr std::size_t kLanesF32 = 4;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() { return vdupq_n_f32(0.0f); }
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) { return vdupq_n_f32(x); }
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) { return vld1q_f32(p); }
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) { vst1q_f32(p, v); }
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  return vaddq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  return vsubq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  return vmulq_f32(a, b);
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  return vfmaq_f32(acc, a, b);
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) { return vaddvq_f32(v); }

#else  // portable: 8-wide unrolled scalar, autovectorizable.

struct VFloat {
  float lane[8];
};
inline constexpr std::size_t kLanesF32 = 8;

EDGEDRIFT_ALWAYS_INLINE VFloat vzero_f() {
  return VFloat{{0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f}};
}
EDGEDRIFT_ALWAYS_INLINE VFloat vbroadcast(float x) {
  return VFloat{{x, x, x, x, x, x, x, x}};
}
EDGEDRIFT_ALWAYS_INLINE VFloat vload(const float* p) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = p[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE void vstore(float* p, VFloat v) {
  for (std::size_t i = 0; i < 8; ++i) p[i] = v.lane[i];
}
EDGEDRIFT_ALWAYS_INLINE VFloat vadd(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] + b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vsub(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] - b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vmul(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) r.lane[i] = a.lane[i] * b.lane[i];
  return r;
}
EDGEDRIFT_ALWAYS_INLINE VFloat vfmadd(VFloat a, VFloat b, VFloat acc) {
  VFloat r;
  for (std::size_t i = 0; i < 8; ++i) {
    r.lane[i] = maddf(a.lane[i], b.lane[i], acc.lane[i]);
  }
  return r;
}
EDGEDRIFT_ALWAYS_INLINE float vreduce_add(VFloat v) {
  return ((v.lane[0] + v.lane[1]) + (v.lane[2] + v.lane[3])) +
         ((v.lane[4] + v.lane[5]) + (v.lane[6] + v.lane[7]));
}

#endif

/// float overload of scaled_accumulate(): y[0:n] += s * x[0:n], one maddf
/// per element. The body of the f32 GEMM/matvec row kernels.
EDGEDRIFT_ALWAYS_INLINE void scaled_accumulate(
    float s, const float* EDGEDRIFT_RESTRICT x, float* EDGEDRIFT_RESTRICT y,
    std::size_t n) {
  const VFloat vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + 2 * kLanesF32 <= n; j += 2 * kLanesF32) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
    vstore(y + j + kLanesF32,
           vfmadd(vs, vload(x + j + kLanesF32), vload(y + j + kLanesF32)));
  }
  for (; j + kLanesF32 <= n; j += kLanesF32) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
  }
  for (; j < n; ++j) y[j] = maddf(s, x[j], y[j]);
}

/// y[0:n] = s * x[0:n] — the k=0 seed of an f32 GEMM row, saving the
/// pre-zeroing pass scaled_accumulate would need.
EDGEDRIFT_ALWAYS_INLINE void scaled_copy(float s,
                                         const float* EDGEDRIFT_RESTRICT x,
                                         float* EDGEDRIFT_RESTRICT y,
                                         std::size_t n) {
  const VFloat vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + kLanesF32 <= n; j += kLanesF32) {
    vstore(y + j, vmul(vs, vload(x + j)));
  }
  for (; j < n; ++j) y[j] = s * x[j];
}

/// float overload of the multi-accumulator dot product.
EDGEDRIFT_ALWAYS_INLINE float dot_product(const float* EDGEDRIFT_RESTRICT a,
                                          const float* EDGEDRIFT_RESTRICT b,
                                          std::size_t n) {
  VFloat acc0 = vzero_f();
  VFloat acc1 = vzero_f();
  std::size_t i = 0;
  for (; i + 2 * kLanesF32 <= n; i += 2 * kLanesF32) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    acc1 = vfmadd(vload(a + i + kLanesF32), vload(b + i + kLanesF32), acc1);
  }
  for (; i + kLanesF32 <= n; i += kLanesF32) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
  }
  float acc = vreduce_add(vadd(acc0, acc1));
  for (; i < n; ++i) acc = maddf(a[i], b[i], acc);
  return acc;
}

/// y[0:n] += s * x[0:n], one madd-chain link per element. The shared body of
/// matvec_transposed / ger / axpy and the portable row-streamed GEMM: per
/// element this is exactly `y[j] = madd(s, x[j], y[j])`, so any kernel built
/// from repeated scaled_accumulate calls (ascending k) rounds identically to
/// the AVX2/NEON register-tiled microkernel.
EDGEDRIFT_ALWAYS_INLINE void scaled_accumulate(
    double s, const double* EDGEDRIFT_RESTRICT x, double* EDGEDRIFT_RESTRICT y,
    std::size_t n) {
  const VDouble vs = vbroadcast(s);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
    vstore(y + j + kLanes,
           vfmadd(vs, vload(x + j + kLanes), vload(y + j + kLanes)));
  }
  for (; j + kLanes <= n; j += kLanes) {
    vstore(y + j, vfmadd(vs, vload(x + j), vload(y + j)));
  }
  for (; j < n; ++j) y[j] = madd(s, x[j], y[j]);
}

/// Multi-accumulator dot product. NOT order-compatible with a naive scalar
/// loop — callers relying on dot() live outside the bit-identity contract.
EDGEDRIFT_ALWAYS_INLINE double dot_product(const double* EDGEDRIFT_RESTRICT a,
                                           const double* EDGEDRIFT_RESTRICT b,
                                           std::size_t n) {
  VDouble acc0 = vzero();
  VDouble acc1 = vzero();
  std::size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
    acc1 = vfmadd(vload(a + i + kLanes), vload(b + i + kLanes), acc1);
  }
  for (; i + kLanes <= n; i += kLanes) {
    acc0 = vfmadd(vload(a + i), vload(b + i), acc0);
  }
  double acc = vreduce_add(vadd(acc0, acc1));
  for (; i < n; ++i) acc = madd(a[i], b[i], acc);
  return acc;
}

// --------------------------------------------------------------------------
// int8 accumulation lanes — the kQuantI8 tier's matvec/GEMM inner loop
// (linalg/quant.cpp).
//
// Contract: acc[j] += x * row[j] (and the two-row fused form), computed
// EXACTLY in int32. Integer accumulation is associative, so any lane width,
// unroll factor or row pairing produces the identical int32 result as the
// scalar loop — the i8 tier's accumulators stay bit-identical across the
// portable and native backends by construction. Preconditions: |x| <= 127
// and |row[j]| <= 127 (the symmetric code domain quantize() emits; -128
// never appears), so per-element products fit in int16 with headroom for
// one two-row sum (|x0*r0 + x1*r1| <= 32258 < 32767 — no saturation in the
// AVX2 maddubs path, no overflow in the NEON int16 path).
// --------------------------------------------------------------------------

#if defined(EDGEDRIFT_SIMD_AVX2)

/// acc[0:n] += x * row[0:n], exact int32. 16 codes per step: sign-extend to
/// int16, mullo (exact — |x*r| <= 16129), widen to int32, add.
EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate(
    std::int32_t x, const std::int8_t* EDGEDRIFT_RESTRICT row,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  const __m256i vx = _mm256_set1_epi16(static_cast<short>(x));
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m128i r8 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j));
    const __m256i prod = _mm256_mullo_epi16(vx, _mm256_cvtepi8_epi16(r8));
    const __m256i lo32 =
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
    const __m256i hi32 =
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
    __m256i* a0 = reinterpret_cast<__m256i*>(acc + j);
    __m256i* a1 = reinterpret_cast<__m256i*>(acc + j + 8);
    _mm256_storeu_si256(a0, _mm256_add_epi32(_mm256_loadu_si256(a0), lo32));
    _mm256_storeu_si256(a1, _mm256_add_epi32(_mm256_loadu_si256(a1), hi32));
  }
  for (; j < n; ++j) acc[j] += x * static_cast<std::int32_t>(row[j]);
}

/// acc[0:n] += x0 * row0[0:n] + x1 * row1[0:n], exact int32. The maddubs
/// scheme: interleave the two rows byte-wise so each 16-bit lane holds one
/// output's (row0[j], row1[j]) pair, put |x0|,|x1| in the unsigned operand
/// and push the signs of x0/x1 onto the row bytes via sign_epi8 — then
/// maddubs computes |x0|*sgn(x0)*row0[j] + |x1|*sgn(x1)*row1[j] =
/// x0*row0[j] + x1*row1[j] per lane, saturation-free by the |sum| <= 32258
/// bound above.
EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate2(
    std::int32_t x0, const std::int8_t* EDGEDRIFT_RESTRICT row0,
    std::int32_t x1, const std::int8_t* EDGEDRIFT_RESTRICT row1,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  const int a0 = x0 < 0 ? -x0 : x0;
  const int a1 = x1 < 0 ? -x1 : x1;
  const __m256i vmag =
      _mm256_set1_epi16(static_cast<short>(a0 | (a1 << 8)));
  const int s0 = (x0 > 0) - (x0 < 0);
  const int s1 = (x1 > 0) - (x1 < 0);
  const __m256i vsign =
      _mm256_set1_epi16(static_cast<short>((s0 & 0xff) | (s1 << 8)));
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m128i r0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row0 + j));
    const __m128i r1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row1 + j));
    const __m256i inter = _mm256_set_m128i(_mm_unpackhi_epi8(r0, r1),
                                           _mm_unpacklo_epi8(r0, r1));
    const __m256i prod =
        _mm256_maddubs_epi16(vmag, _mm256_sign_epi8(inter, vsign));
    const __m256i lo32 =
        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
    const __m256i hi32 =
        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
    __m256i* p0 = reinterpret_cast<__m256i*>(acc + j);
    __m256i* p1 = reinterpret_cast<__m256i*>(acc + j + 8);
    _mm256_storeu_si256(p0, _mm256_add_epi32(_mm256_loadu_si256(p0), lo32));
    _mm256_storeu_si256(p1, _mm256_add_epi32(_mm256_loadu_si256(p1), hi32));
  }
  for (; j < n; ++j) {
    acc[j] += x0 * static_cast<std::int32_t>(row0[j]) +
              x1 * static_cast<std::int32_t>(row1[j]);
  }
}

#if defined(__GNUC__) || defined(__clang__)
// AVX-VNNI four-row lane: vpdpbusd fuses the byte multiply, the four-way
// lane sum AND the int32 accumulate in one instruction, with no int16
// saturation stage at all (maddubs saturates; the two-row pairing above
// exists to stay under that bound). Compiled behind a function-level target
// attribute so the binary still runs on plain-AVX2 hosts; callers must gate
// on i8_vnni_available().
#define EDGEDRIFT_HAVE_I8_VNNI 1

/// Runtime gate for the VNNI lane, resolved once per process.
inline bool i8_vnni_available() {
  static const bool available = __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("avx512vl");
  return available;
}

/// acc[0:n] += sum_k x[k] * rows[k][0:n] for four rows, exact int32.
/// Column-major byte interleave puts (row0[j], row1[j], row2[j], row3[j])
/// into one 32-bit lane; |x|s ride in the unsigned vpdpbusd operand and
/// their signs are pushed onto the row bytes (sign_epi8), so each lane
/// accumulates x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]. The four-product
/// sum is bounded by 4 * 127 * 127 = 64516 and vpdpbusd widens to int32
/// before adding — no saturation anywhere, so the result is bit-identical
/// to the scalar loop (integer accumulation is associative).
__attribute__((target("avx512vnni,avx512vl"))) inline void
i8_scaled_accumulate4_vnni(const std::int32_t* EDGEDRIFT_RESTRICT x,
                           const std::int8_t* const* EDGEDRIFT_RESTRICT rows,
                           std::int32_t* EDGEDRIFT_RESTRICT acc,
                           std::size_t n) {
  const auto mag = [](std::int32_t v) {
    return static_cast<std::uint32_t>(v < 0 ? -v : v);
  };
  const auto sgn = [](std::int32_t v) { return v < 0 ? -1 : 1; };
  const __m256i vmag = _mm256_set1_epi32(static_cast<int>(
      mag(x[0]) | (mag(x[1]) << 8) | (mag(x[2]) << 16) | (mag(x[3]) << 24)));
  const __m256i vsign = _mm256_set1_epi32(
      static_cast<int>((sgn(x[0]) & 0xff) | ((sgn(x[1]) & 0xff) << 8) |
                       ((sgn(x[2]) & 0xff) << 16) |
                       (static_cast<std::uint32_t>(sgn(x[3]) & 0xff) << 24)));
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m128i r0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[0] + j));
    const __m128i r1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[1] + j));
    const __m128i r2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[2] + j));
    const __m128i r3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[3] + j));
    // Byte interleave to column-major: lane j holds r0[j],r1[j],r2[j],r3[j].
    const __m128i ab_lo = _mm_unpacklo_epi8(r0, r1);
    const __m128i ab_hi = _mm_unpackhi_epi8(r0, r1);
    const __m128i cd_lo = _mm_unpacklo_epi8(r2, r3);
    const __m128i cd_hi = _mm_unpackhi_epi8(r2, r3);
    const __m256i cols0 =
        _mm256_set_m128i(_mm_unpackhi_epi16(ab_lo, cd_lo),
                         _mm_unpacklo_epi16(ab_lo, cd_lo));  // cols j..j+7
    const __m256i cols1 =
        _mm256_set_m128i(_mm_unpackhi_epi16(ab_hi, cd_hi),
                         _mm_unpacklo_epi16(ab_hi, cd_hi));  // cols j+8..j+15
    __m256i* p0 = reinterpret_cast<__m256i*>(acc + j);
    __m256i* p1 = reinterpret_cast<__m256i*>(acc + j + 8);
    _mm256_storeu_si256(
        p0, _mm256_dpbusd_epi32(_mm256_loadu_si256(p0), vmag,
                                _mm256_sign_epi8(cols0, vsign)));
    _mm256_storeu_si256(
        p1, _mm256_dpbusd_epi32(_mm256_loadu_si256(p1), vmag,
                                _mm256_sign_epi8(cols1, vsign)));
  }
  for (; j < n; ++j) {
    acc[j] += x[0] * static_cast<std::int32_t>(rows[0][j]) +
              x[1] * static_cast<std::int32_t>(rows[1][j]) +
              x[2] * static_cast<std::int32_t>(rows[2][j]) +
              x[3] * static_cast<std::int32_t>(rows[3][j]);
  }
}
#endif  // __GNUC__ || __clang__

#elif defined(EDGEDRIFT_SIMD_NEON)

/// acc[0:n] += x * row[0:n], exact int32. 16 codes per step via the
/// widening multiply-accumulate (vmlal): int8 -> int16 -> int32.
EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate(
    std::int32_t x, const std::int8_t* EDGEDRIFT_RESTRICT row,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  const std::int16_t xs = static_cast<std::int16_t>(x);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const int8x16_t r = vld1q_s8(row + j);
    const int16x8_t lo = vmovl_s8(vget_low_s8(r));
    const int16x8_t hi = vmovl_s8(vget_high_s8(r));
    vst1q_s32(acc + j,
              vmlal_n_s16(vld1q_s32(acc + j), vget_low_s16(lo), xs));
    vst1q_s32(acc + j + 4,
              vmlal_n_s16(vld1q_s32(acc + j + 4), vget_high_s16(lo), xs));
    vst1q_s32(acc + j + 8,
              vmlal_n_s16(vld1q_s32(acc + j + 8), vget_low_s16(hi), xs));
    vst1q_s32(acc + j + 12,
              vmlal_n_s16(vld1q_s32(acc + j + 12), vget_high_s16(hi), xs));
  }
  for (; j < n; ++j) acc[j] += x * static_cast<std::int32_t>(row[j]);
}

/// acc[0:n] += x0 * row0[0:n] + x1 * row1[0:n], exact int32. Fuses the
/// per-element pair sum in int16 (|x0*r0 + x1*r1| <= 32258 — no overflow),
/// then widen-adds into the int32 accumulators.
EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate2(
    std::int32_t x0, const std::int8_t* EDGEDRIFT_RESTRICT row0,
    std::int32_t x1, const std::int8_t* EDGEDRIFT_RESTRICT row1,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  const std::int16_t xs0 = static_cast<std::int16_t>(x0);
  const std::int16_t xs1 = static_cast<std::int16_t>(x1);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const int8x16_t r0 = vld1q_s8(row0 + j);
    const int8x16_t r1 = vld1q_s8(row1 + j);
    const int16x8_t lo = vmlaq_n_s16(
        vmulq_n_s16(vmovl_s8(vget_low_s8(r0)), xs0),
        vmovl_s8(vget_low_s8(r1)), xs1);
    const int16x8_t hi = vmlaq_n_s16(
        vmulq_n_s16(vmovl_s8(vget_high_s8(r0)), xs0),
        vmovl_s8(vget_high_s8(r1)), xs1);
    vst1q_s32(acc + j, vaddw_s16(vld1q_s32(acc + j), vget_low_s16(lo)));
    vst1q_s32(acc + j + 4,
              vaddw_s16(vld1q_s32(acc + j + 4), vget_high_s16(lo)));
    vst1q_s32(acc + j + 8,
              vaddw_s16(vld1q_s32(acc + j + 8), vget_low_s16(hi)));
    vst1q_s32(acc + j + 12,
              vaddw_s16(vld1q_s32(acc + j + 12), vget_high_s16(hi)));
  }
  for (; j < n; ++j) {
    acc[j] += x0 * static_cast<std::int32_t>(row0[j]) +
              x1 * static_cast<std::int32_t>(row1[j]);
  }
}

#else  // portable: plain loops, exact by definition, autovectorizable.

EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate(
    std::int32_t x, const std::int8_t* EDGEDRIFT_RESTRICT row,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    acc[j] += x * static_cast<std::int32_t>(row[j]);
  }
}

EDGEDRIFT_ALWAYS_INLINE void i8_scaled_accumulate2(
    std::int32_t x0, const std::int8_t* EDGEDRIFT_RESTRICT row0,
    std::int32_t x1, const std::int8_t* EDGEDRIFT_RESTRICT row1,
    std::int32_t* EDGEDRIFT_RESTRICT acc, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    acc[j] += x0 * static_cast<std::int32_t>(row0[j]) +
              x1 * static_cast<std::int32_t>(row1[j]);
  }
}

#endif

}  // namespace edgedrift::linalg::simd
