#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>

// Portable fixed-width SIMD wrapper for the kernels' double-precision inner
// loops. One vector type (`simd::VecD`) whose lane count is picked at
// compile time from the target ISA:
//
//   AVX2/AVX x86-64 ....... 4 lanes (__m256d)
//   SSE2 x86-64 (baseline) . 2 lanes (__m128d)
//   NEON aarch64 ........... 2 lanes (float64x2_t)
//   anything else .......... 1 lane  (plain double)
//
// Only IEEE-754 correctly-rounded operations are exposed (+ - * / sqrt and
// bitwise selects) — no FMA contraction, no rsqrt/rcp approximations — so a
// given summation order produces bit-identical results on every ISA and at
// every width-1 fallback. Vectorized loops still reassociate sums across
// lanes, which is why the scalar paths stay around as the bit-exactness
// reference (kernels expose a runtime set_simd(false) switch).

#if defined(__AVX2__) || defined(__AVX__)
#include <immintrin.h>
#define JUNGLE_SIMD_AVX 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define JUNGLE_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define JUNGLE_SIMD_NEON 1
#endif

namespace jungle::kernels::simd {

#if defined(JUNGLE_SIMD_AVX)

inline constexpr std::size_t kWidth = 4;
inline constexpr const char* kIsa = "avx";

struct VecD {
  __m256d raw;
};

inline VecD load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
inline void store(double* p, VecD v) noexcept { _mm256_storeu_pd(p, v.raw); }
inline VecD set1(double v) noexcept { return {_mm256_set1_pd(v)}; }
inline VecD zero() noexcept { return {_mm256_setzero_pd()}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm256_add_pd(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm256_sub_pd(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm256_mul_pd(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm256_div_pd(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm256_sqrt_pd(a.raw)}; }
/// Lane mask (all-ones / all-zeros bits) for a < b.
inline VecD less(VecD a, VecD b) noexcept {
  return {_mm256_cmp_pd(a.raw, b.raw, _CMP_LT_OQ)};
}
/// mask ? a : b, per lane.
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {_mm256_blendv_pd(b.raw, a.raw, mask.raw)};
}
inline double hsum(VecD v) noexcept {
  __m128d lo = _mm256_castpd256_pd128(v.raw);
  __m128d hi = _mm256_extractf128_pd(v.raw, 1);
  // Fixed reduction tree (0+2) + (1+3): deterministic regardless of data.
  __m128d pair = _mm_add_pd(lo, hi);
  __m128d swap = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swap));
}

#elif defined(JUNGLE_SIMD_SSE2)

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kIsa = "sse2";

struct VecD {
  __m128d raw;
};

inline VecD load(const double* p) noexcept { return {_mm_loadu_pd(p)}; }
inline void store(double* p, VecD v) noexcept { _mm_storeu_pd(p, v.raw); }
inline VecD set1(double v) noexcept { return {_mm_set1_pd(v)}; }
inline VecD zero() noexcept { return {_mm_setzero_pd()}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {_mm_add_pd(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {_mm_sub_pd(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {_mm_mul_pd(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {_mm_div_pd(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {_mm_sqrt_pd(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  return {_mm_cmplt_pd(a.raw, b.raw)};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {_mm_or_pd(_mm_and_pd(mask.raw, a.raw),
                    _mm_andnot_pd(mask.raw, b.raw))};
}
inline double hsum(VecD v) noexcept {
  __m128d swap = _mm_unpackhi_pd(v.raw, v.raw);
  return _mm_cvtsd_f64(_mm_add_sd(v.raw, swap));
}

#elif defined(JUNGLE_SIMD_NEON)

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kIsa = "neon";

struct VecD {
  float64x2_t raw;
};

inline VecD load(const double* p) noexcept { return {vld1q_f64(p)}; }
inline void store(double* p, VecD v) noexcept { vst1q_f64(p, v.raw); }
inline VecD set1(double v) noexcept { return {vdupq_n_f64(v)}; }
inline VecD zero() noexcept { return {vdupq_n_f64(0.0)}; }
inline VecD operator+(VecD a, VecD b) noexcept {
  return {vaddq_f64(a.raw, b.raw)};
}
inline VecD operator-(VecD a, VecD b) noexcept {
  return {vsubq_f64(a.raw, b.raw)};
}
inline VecD operator*(VecD a, VecD b) noexcept {
  return {vmulq_f64(a.raw, b.raw)};
}
inline VecD operator/(VecD a, VecD b) noexcept {
  return {vdivq_f64(a.raw, b.raw)};
}
inline VecD sqrt(VecD a) noexcept { return {vsqrtq_f64(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  return {vreinterpretq_f64_u64(vcltq_f64(a.raw, b.raw))};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.raw), a.raw, b.raw)};
}
inline double hsum(VecD v) noexcept {
  return vgetq_lane_f64(v.raw, 0) + vgetq_lane_f64(v.raw, 1);
}

#else

inline constexpr std::size_t kWidth = 1;
inline constexpr const char* kIsa = "scalar";

struct VecD {
  double raw;
};

inline VecD load(const double* p) noexcept { return {*p}; }
inline void store(double* p, VecD v) noexcept { *p = v.raw; }
inline VecD set1(double v) noexcept { return {v}; }
inline VecD zero() noexcept { return {0.0}; }
inline VecD operator+(VecD a, VecD b) noexcept { return {a.raw + b.raw}; }
inline VecD operator-(VecD a, VecD b) noexcept { return {a.raw - b.raw}; }
inline VecD operator*(VecD a, VecD b) noexcept { return {a.raw * b.raw}; }
inline VecD operator/(VecD a, VecD b) noexcept { return {a.raw / b.raw}; }
inline VecD sqrt(VecD a) noexcept { return {std::sqrt(a.raw)}; }
inline VecD less(VecD a, VecD b) noexcept {
  std::uint64_t bits = a.raw < b.raw ? ~std::uint64_t{0} : 0;
  double mask;
  __builtin_memcpy(&mask, &bits, sizeof(mask));
  return {mask};
}
inline VecD select(VecD mask, VecD a, VecD b) noexcept {
  std::uint64_t mbits, abits, bbits;
  __builtin_memcpy(&mbits, &mask.raw, sizeof(mbits));
  __builtin_memcpy(&abits, &a.raw, sizeof(abits));
  __builtin_memcpy(&bbits, &b.raw, sizeof(bbits));
  std::uint64_t rbits = (mbits & abits) | (~mbits & bbits);
  double r;
  __builtin_memcpy(&r, &rbits, sizeof(r));
  return {r};
}
inline double hsum(VecD v) noexcept { return v.raw; }

#endif

}  // namespace jungle::kernels::simd
