// AVX-512 lane primitives for the vector tile skeleton (core/cpu_kernels.hpp)
// and the kernels' vector radial forms (core/kernels.hpp). Each operation is
// overloaded on the register type, so one template body serves fp64 lanes
// (__m512d, 8 per register) and fp32 lanes (__m512, 16 per register). Empty
// without AVX-512: every kernel then runs the portable tiles.
#pragma once

#if defined(__AVX512F__)
#include <immintrin.h>

#include <array>
#include <cstddef>
#include <utility>

namespace bltc::simd {

template <typename T>
struct LaneTraits;
template <>
struct LaneTraits<double> {
  using V = __m512d;
};
template <>
struct LaneTraits<float> {
  using V = __m512;
};

/// The register type holding lanes of `T`, and its lane count.
template <typename T>
using Vec = typename LaneTraits<T>::V;
template <typename T>
inline constexpr std::size_t kWidth = sizeof(Vec<T>) / sizeof(T);

inline __m512d set1(double a) { return _mm512_set1_pd(a); }
inline __m512 set1(float a) { return _mm512_set1_ps(a); }
inline __m512d load(const double* p) { return _mm512_loadu_pd(p); }
inline __m512 load(const float* p) { return _mm512_loadu_ps(p); }
inline __m512d sub(__m512d a, __m512d b) { return _mm512_sub_pd(a, b); }
inline __m512 sub(__m512 a, __m512 b) { return _mm512_sub_ps(a, b); }
inline __m512d mul(__m512d a, __m512d b) { return _mm512_mul_pd(a, b); }
inline __m512 mul(__m512 a, __m512 b) { return _mm512_mul_ps(a, b); }
/// a * b + c with one rounding.
inline __m512d fmadd(__m512d a, __m512d b, __m512d c) {
  return _mm512_fmadd_pd(a, b, c);
}
inline __m512 fmadd(__m512 a, __m512 b, __m512 c) {
  return _mm512_fmadd_ps(a, b, c);
}
inline double reduce_add(__m512d a) { return _mm512_reduce_add_pd(a); }
/// p[0..8) += a.
inline void add_to(double* p, __m512d a) {
  _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), a));
}

/// 1/sqrt(r2) per lane, zero where r2 == 0 (the singular guard). fp64:
/// vrsqrt14pd (relative error < 2^-14) refined by two Newton-Raphson steps
/// y <- y(3/2 - r2 y^2 / 2), error ~1e-16 with no divider.
inline __m512d rsqrt_masked(__m512d r2) {
  const __mmask8 ok = _mm512_cmp_pd_mask(r2, _mm512_setzero_pd(), _CMP_GT_OQ);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d three_halves = _mm512_set1_pd(1.5);
  const __m512d ha = _mm512_mul_pd(half, r2);
  __m512d y = _mm512_rsqrt14_pd(r2);
  y = _mm512_mul_pd(
      y, _mm512_fnmadd_pd(_mm512_mul_pd(ha, y), y, three_halves));
  y = _mm512_mul_pd(
      y, _mm512_fnmadd_pd(_mm512_mul_pd(ha, y), y, three_halves));
  return _mm512_maskz_mov_pd(ok, y);
}

/// fp32: vrsqrt14ps refined by one Newton-Raphson step, error ~2^-28 —
/// below the fp32 representation error of the tile inputs.
inline __m512 rsqrt_masked(__m512 r2) {
  const __mmask16 ok = _mm512_cmp_ps_mask(r2, _mm512_setzero_ps(), _CMP_GT_OQ);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 three_halves = _mm512_set1_ps(1.5f);
  __m512 y = _mm512_rsqrt14_ps(r2);
  y = _mm512_mul_ps(
      y, _mm512_fnmadd_ps(_mm512_mul_ps(_mm512_mul_ps(half, r2), y), y,
                          three_halves));
  return _mm512_maskz_mov_ps(ok, y);
}

/// Widen a 16-float partial sum into two fp64 accumulator registers (the
/// flush step of the fp32 tiles). The upper 256-bit extract goes through a
/// pd reinterpret so only AVX-512F is required.
inline void widen_add(__m512 v, __m512d& lo, __m512d& hi) {
  lo = _mm512_add_pd(lo, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  hi = _mm512_add_pd(
      hi, _mm512_cvtps_pd(_mm256_castpd_ps(
              _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1))));
}

namespace detail {
/// 1/k! for k = 0..Degree, each a correctly rounded division of exact
/// integers: the Taylor coefficients of e^r.
template <int Degree>
inline constexpr std::array<double, Degree + 1> kInvFactorial = [] {
  std::array<double, Degree + 1> c{};
  double factorial = 1.0;
  for (int k = 0; k <= Degree; ++k) {
    if (k > 0) factorial *= k;
    c[k] = 1.0 / factorial;
  }
  return c;
}();
}  // namespace detail

/// Vector e^x: Cody-Waite range reduction against a split ln2, then the
/// degree-`Degree` Taylor polynomial of e^r on [-ln2/2, ln2/2] in Horner
/// form, scaled by 2^n through the exponent field. Inputs are clamped to
/// +-700, so the scaling never overflows. Worst relative error measured
/// over [-700, 0]: 7.0e-9 at degree 7 (the erfc tiles' Gaussian factor,
/// far below A&S 7.1.26's own error), 3.6e-16 at degree 12 (the Yukawa and
/// Gaussian kernels, which must match std::exp to fp64 accuracy).
template <int Degree>
inline __m512d exp_pd(__m512d x) {
  const __m512d log2e = _mm512_set1_pd(1.4426950408889634);
  const __m512d ln2_hi = _mm512_set1_pd(6.93147180369123816490e-1);
  const __m512d ln2_lo = _mm512_set1_pd(1.90821492927058770002e-10);
  x = _mm512_max_pd(_mm512_set1_pd(-700.0),
                    _mm512_min_pd(_mm512_set1_pd(700.0), x));
  const __m512d n = _mm512_roundscale_pd(
      _mm512_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(n, ln2_hi, x);
  r = _mm512_fnmadd_pd(n, ln2_lo, r);
  const auto& c = detail::kInvFactorial<Degree>;
  __m512d p = _mm512_set1_pd(c[Degree]);
  [&]<int... K>(std::integer_sequence<int, K...>) {
    ((p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(c[Degree - 1 - K]))), ...);
  }(std::make_integer_sequence<int, Degree>{});
  // 2^n via exponent bits: n is integral and |n| <= 1011 after the clamp,
  // so it fits epi32 (cvtpd_epi64 would need AVX-512DQ).
  const __m512i biased = _mm512_add_epi64(
      _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n)), _mm512_set1_epi64(1023));
  const __m512d scale =
      _mm512_castsi512_pd(_mm512_slli_epi64(biased, 52));
  return _mm512_mul_pd(p, scale);
}

/// erfc(x) and e^{-x^2} for x >= 0 from one exp evaluation: Abramowitz-
/// Stegun 7.1.26 (|abs err| < 1.5e-7, far below the kPeriodicMesh split
/// tolerance). The screened field needs both factors.
inline void erfc_gauss_pd(__m512d x, __m512d& erfc_out, __m512d& gauss_out) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d t =
      _mm512_div_pd(one, _mm512_fmadd_pd(_mm512_set1_pd(0.3275911), x, one));
  __m512d p = _mm512_set1_pd(1.061405429);
  p = _mm512_fmadd_pd(p, t, _mm512_set1_pd(-1.453152027));
  p = _mm512_fmadd_pd(p, t, _mm512_set1_pd(1.421413741));
  p = _mm512_fmadd_pd(p, t, _mm512_set1_pd(-0.284496736));
  p = _mm512_fmadd_pd(p, t, _mm512_set1_pd(0.254829592));
  const __m512d gauss =
      exp_pd<7>(_mm512_sub_pd(_mm512_setzero_pd(), _mm512_mul_pd(x, x)));
  erfc_out = _mm512_mul_pd(_mm512_mul_pd(p, t), gauss);
  gauss_out = gauss;
}

}  // namespace bltc::simd

#endif  // __AVX512F__
