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
/// 1/k! for k = 0..7, each a correctly rounded division of exact integers:
/// the Taylor coefficients of e^r.
inline constexpr std::array<double, 8> kInvFactorial = [] {
  std::array<double, 8> c{};
  double factorial = 1.0;
  for (int k = 0; k < 8; ++k) {
    if (k > 0) factorial *= k;
    c[k] = 1.0 / factorial;
  }
  return c;
}();
}  // namespace detail

/// Vector e^x, table-driven (Tang, ACM TOMS 15(2), 1989). With n the
/// nearest integer to 16x/ln2 and j = n mod 16, e^x = 2^floor(n/16) *
/// 2^(j/16) * e^r, r = x - n ln2/16, |r| <= ln2/32:
///   * adding 1.5*2^52 in the same FMA rounds 16x/ln2 to the integer n and
///     leaves n's low bits in the low mantissa bits of the sum, so they
///     index the table directly;
///   * r uses the hi/lo split of ln2 divided by 16 (exact); the hi part's
///     trailing zero bits keep n*hi exact wherever e^x is finite and
///     nonzero (|n| < 2^21);
///   * e^r - 1 is its degree-7 Taylor polynomial (truncation < 2e-18);
///   * 2^(j/16) comes from 16 correctly rounded values in two registers
///     through one permute, and vscalefpd applies 2^floor(n/16), rounding
///     once, so results below the normal range come out subnormal or 0 and
///     results above it inf with no clamp.
/// Worst relative error measured over [-708, 709] (normal results):
/// 2.2e-16; subnormal results are within one subnormal spacing, and the 0
/// and inf ends match std::exp. Swept valid for |x| < 2e16, far beyond any
/// kernel argument.
inline __m512d exp_pd(__m512d x) {
  const __m512d shifter = _mm512_set1_pd(0x1.8p52);
  const __m512d sixteen_over_ln2 = _mm512_set1_pd(0x1.71547652b82fep+4);
  const __m512d ln2_hi_16 = _mm512_set1_pd(0x1.62e42feep-5);
  const __m512d ln2_lo_16 = _mm512_set1_pd(0x1.a39ef35793c76p-37);
  // 2^(j/16), j = 0..7 and 8..15.
  const __m512d table_lo = _mm512_setr_pd(
      0x1.0000000000000p+0, 0x1.0b5586cf9890fp+0, 0x1.172b83c7d517bp+0,
      0x1.2387a6e756238p+0, 0x1.306fe0a31b715p+0, 0x1.3dea64c123422p+0,
      0x1.4bfdad5362a27p+0, 0x1.5ab07dd485429p+0);
  const __m512d table_hi = _mm512_setr_pd(
      0x1.6a09e667f3bcdp+0, 0x1.7a11473eb0187p+0, 0x1.8ace5422aa0dbp+0,
      0x1.9c49182a3f090p+0, 0x1.ae89f995ad3adp+0, 0x1.c199bdd85529cp+0,
      0x1.d5818dcfba487p+0, 0x1.ea4afa2a490dap+0);
  const __m512d t = _mm512_fmadd_pd(x, sixteen_over_ln2, shifter);
  const __m512d n = _mm512_sub_pd(t, shifter);
  __m512d r = _mm512_fnmadd_pd(n, ln2_hi_16, x);
  r = _mm512_fnmadd_pd(n, ln2_lo_16, r);
  const auto& c = detail::kInvFactorial;
  __m512d p = _mm512_set1_pd(c[7]);
  for (int k = 6; k >= 1; --k) {
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(c[k]));
  }
  // The permute reads only the low 4 bits of each index lane: j.
  const __m512d tj =
      _mm512_permutex2var_pd(table_lo, _mm512_castpd_si512(t), table_hi);
  // 2^(j/16) e^r = T_j + T_j (e^r - 1).
  const __m512d m = _mm512_fmadd_pd(tj, _mm512_mul_pd(p, r), tj);
  // The all-lanes maskz form compiles to the same vscalefpd; GCC's
  // unmasked intrinsic reads an undefined register and trips
  // -Wmaybe-uninitialized.
  return _mm512_maskz_scalef_pd(0xFF, m,
                                _mm512_mul_pd(n, _mm512_set1_pd(0.0625)));
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
      exp_pd(_mm512_sub_pd(_mm512_setzero_pd(), _mm512_mul_pd(x, x)));
  erfc_out = _mm512_mul_pd(_mm512_mul_pd(p, t), gauss);
  gauss_out = gauss;
}

}  // namespace bltc::simd

#endif  // __AVX512F__
