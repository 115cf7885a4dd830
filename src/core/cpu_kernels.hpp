// Blocked CPU evaluation core — the one kernel that serves every host path.
//
// The paper's point (§3) is that batching targets against clusters turns
// both hot loops — the direct sum (Eq. 9) and the barycentric approximation
// (Eq. 11) — into the *same* high-intensity shape: a block of targets
// against a contiguous stream of weighted source points (real particles for
// Eq. 9, tensor-product Chebyshev points with modified charges for Eq. 11).
// This header exploits that on the host:
//
//   * `accumulate_tile` keeps a tile of `kTargetTile` targets' accumulators
//     (phi, and for fields ex/ey/ez) in registers and streams the source
//     block through a `#pragma omp simd` inner loop, one SIMD lane per
//     target. The singular-kernel guard is a branchless select
//     (kernel_value_masked / grad_value_masked) so the loop if-converts.
//   * A single-target variant vectorizes across *sources* with a simd
//     reduction instead — the shape a one-target list (max_batch = 1) needs.
//   * `TileSimd` is a hook for hand-tuned ISA-specific tiles; with AVX-512
//     the Coulomb kernel replaces vsqrt+vdiv with vrsqrt14pd refined by two
//     Newton iterations (relative error ~1e-16, far below the treecode's
//     interpolation error). The exact portable path remains the reference
//     (`Fast = false`), and the O(N^2) oracles in direct_sum.cpp stay on
//     their original scalar form so their results are bit-stable.
//
// One templated driver (`cpu_kernels.cpp`) executes interaction lists
// through these tiles for both traversals, potential and field.
// Per-cluster grids are expanded once per (list, cluster) visit into
// per-thread scratch that persists across evaluations (owned by CpuEngine),
// and target-leaf work blocks are executed largest-first so the parallel
// tail is made of cheap blocks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/particles.hpp"
#include "core/solver.hpp"
#include "core/tree.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace bltc {

/// Targets per tile: accumulators for one tile live in registers for the
/// whole source stream (16 doubles = two AVX-512 registers, four NEON/SSE).
inline constexpr std::size_t kTargetTile = 16;

/// fp32 tiles flush their float accumulators into fp64 every this many
/// sources, bounding the single-precision summation error to O(interval *
/// eps32) per flush block independent of the stream length — the "accumulate
/// into fp64" half of the mixed-precision contract.
inline constexpr std::size_t kF32FlushInterval = 128;

/// One tile element type's staged source streams: a cluster's Chebyshev
/// grid expanded to contiguous points (coordinates + modified charges), and
/// a direct particle range copied with its lattice shift added. Values are
/// narrowed from the fp64 sources to `T` while staging, so fp32 tiles read
/// the same source state as fp64 tiles.
/// `cached_cluster` skips re-expansion when consecutive lists on one thread
/// visit the same cluster (the common case at max_batch = 1, where a list
/// holds a single target); it is only valid within one evaluation — the
/// driver invalidates it on entry because the modified charges can change
/// between calls.
template <typename T>
struct StagedSources {
  using Buffer = std::vector<T, AlignedAllocator<T>>;

  Buffer px, py, pz, pq;
  int cached_cluster = -1;
  int cached_cluster_level = 0;  ///< ladder level of the cached expansion
  int cached_cluster_shift = 0;  ///< lattice shift id of the cached expansion

  /// A direct range's staged copy: lattice-shifted images, and under fp32
  /// every range (fp64 home-cell ranges stream the raw source arrays).
  Buffer sx, sy, sz, sq;

  void ensure(std::size_t n) {
    if (px.size() < n) {
      px.resize(n);
      py.resize(n);
      pz.resize(n);
      pq.resize(n);
    }
  }

  void ensure_direct(std::size_t n) {
    if (sx.size() < n) {
      sx.resize(n);
      sy.resize(n);
      sz.resize(n);
      sq.resize(n);
    }
  }
};

/// Per-thread scratch, reused across clusters, lists, and evaluate() calls.
struct CpuScratch {
  /// Staged sources per tile element type. Separate cache keys: one thread
  /// can alternate between fp64 and fp32 expansions of different clusters.
  StagedSources<double> f64;
  StagedSources<float> f32;

  /// Dual traversal: one *target* node's Chebyshev grid expanded to
  /// contiguous point streams (the "targets" of CP/CC tile calls).
  AlignedVector tgx, tgy, tgz;
  int cached_target = -1;
  int cached_target_level = 0;

  void ensure_target(std::size_t n) {
    if (tgx.size() < n) {
      tgx.resize(n);
      tgy.resize(n);
      tgz.resize(n);
    }
  }
};

/// Host evaluation workspace. `CpuEngine` keeps one alive across
/// `Solver::evaluate` calls so repeated evaluations allocate nothing; the
/// free evaluator functions fall back to a call-local instance.
class CpuWorkspace {
 public:
  /// Size the per-thread scratch table and invalidate the per-thread
  /// expansion caches; call from serial code before a parallel region
  /// indexes it.
  void ensure_threads();

  /// Calling thread's scratch entry (valid inside the parallel region).
  CpuScratch& scratch();

  /// Dual-traversal accumulators: per-target-node grid potentials (and, for
  /// field runs, grid fields), zeroed at the start of every dual evaluation
  /// but allocated once. `flag[n]` marks nodes whose grid holds data.
  struct DualHats {
    AlignedVector phi, ex, ey, ez;
    std::vector<unsigned char> flag;
  };
  DualHats& hats() { return hats_; }

  /// Self-mode dual traversal: the mirror slots of the leaf phase. Each
  /// fixed block of leaf groups owns one slot for the source-side writes of
  /// its symmetric direct pairs (the mirror leaf belongs to another block,
  /// so it cannot be written directly); the slots are folded into the
  /// outputs in block order, so the sums do not depend on scheduling.
  /// Zeroed at the start of every self-mode evaluation but allocated once.
  struct DualMirror {
    AlignedVector phi, ex, ey, ez;
  };
  DualMirror& mirror() { return mirror_; }

 private:
  std::vector<CpuScratch> per_thread_;
  DualHats hats_;
  DualMirror mirror_;
};

/// ISA-specific tile kernels. The primary template reports "none"; opt-in
/// specializations provide `run(...)` for one (Field, kernel functor) pair
/// and are selected only on full tiles with `Fast = true` (treecode paths).
template <bool Field, typename K>
struct TileSimd {
  static constexpr bool kAvailable = false;
};

/// ISA-specific *mutual* tiles (symmetric self-mode direct interactions):
/// same contract as TileSimd plus the target charges and the source-side
/// accumulators (a block's mirror slot, indexed by source position).
template <bool Field, typename K>
struct TileSimdMutual {
  static constexpr bool kAvailable = false;
};

/// ISA-specific fp32 tiles for tagged far-field interactions: float target
/// and source streams, fp64 output accumulators (the float partial sums are
/// widened every kF32FlushInterval sources). With AVX-512 the whole 16-
/// target tile fits one zmm register per accumulator — half the register
/// pressure and twice the lane count of the fp64 tile.
template <bool Field, typename K>
struct TileSimdF32 {
  static constexpr bool kAvailable = false;
};

#if defined(__AVX512F__)

namespace detail {

/// 1/sqrt(a) from vrsqrt14pd (relative error < 2^-14) refined by two
/// Newton-Raphson steps y <- y(3/2 - a y^2 / 2): error ~1e-16, no divider.
/// Lanes where a == 0 are zeroed by `ok`.
inline __m512d masked_rsqrt_nr2(__m512d a, __mmask8 ok) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d three_halves = _mm512_set1_pd(1.5);
  const __m512d ha = _mm512_mul_pd(half, a);
  __m512d y = _mm512_rsqrt14_pd(a);
  y = _mm512_mul_pd(
      y, _mm512_fnmadd_pd(_mm512_mul_pd(ha, y), y, three_halves));
  y = _mm512_mul_pd(
      y, _mm512_fnmadd_pd(_mm512_mul_pd(ha, y), y, three_halves));
  return _mm512_maskz_mov_pd(ok, y);
}

/// fp32 1/sqrt(a) from vrsqrt14ps (relative error < 2^-14) refined by one
/// Newton-Raphson step: error ~2^-28, below the fp32 representation error
/// of the tile inputs, so the refinement is free accuracy-wise and the
/// divider stays idle. Lanes where a == 0 are zeroed by `ok`.
inline __m512 masked_rsqrt_ps_nr1(__m512 a, __mmask16 ok) {
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 three_halves = _mm512_set1_ps(1.5f);
  __m512 y = _mm512_rsqrt14_ps(a);
  y = _mm512_mul_ps(
      y, _mm512_fnmadd_ps(_mm512_mul_ps(_mm512_mul_ps(half, a), y), y,
                          three_halves));
  return _mm512_maskz_mov_ps(ok, y);
}

/// Widen a 16-float partial sum into the two fp64 accumulator registers
/// (the flush step of the fp32 tiles). The upper 256-bit extract goes
/// through a pd reinterpret so only AVX-512F is required.
inline void flush_ps_to_pd(__m512 v, __m512d& lo, __m512d& hi) {
  lo = _mm512_add_pd(lo, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  hi = _mm512_add_pd(
      hi, _mm512_cvtps_pd(_mm256_castpd_ps(
              _mm512_extractf64x4_pd(_mm512_castps_pd(v), 1))));
}

/// Vector e^x: Cody-Waite range reduction against a split ln2 plus a
/// degree-6 polynomial on [-ln2/2, ln2/2], scaled by 2^n through the
/// exponent field. Inputs are clamped to +-700, so the scaling never
/// overflows; accuracy ~1e-13 relative across the clamp range.
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
  __m512d p = _mm512_set1_pd(1.0 / 5040.0);
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 720.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 120.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 24.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 6.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
  p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
  // 2^n via exponent bits: n is integral and |n| <= 1011 after the clamp,
  // so it fits epi32 (cvtpd_epi64 would need AVX-512DQ).
  const __m512i biased = _mm512_add_epi64(
      _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n)), _mm512_set1_epi64(1023));
  const __m512d scale =
      _mm512_castsi512_pd(_mm512_slli_epi64(biased, 52));
  return _mm512_mul_pd(p, scale);
}

/// erfc(x) e^{-x^2} fused tile helper for x >= 0: Abramowitz-Stegun 7.1.26
/// (|abs err| < 1.5e-7, far below the kPeriodicMesh split tolerance) with
/// the Gaussian factor returned separately — the screened-force tile needs
/// both erfc(ar) and e^{-a^2 r^2} and they share one exp evaluation.
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

}  // namespace detail

/// Coulomb potential tile: 16 targets in two zmm accumulator registers.
template <>
struct TileSimd<false, CoulombKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* sx, const double* sy, const double* sz,
                  const double* sq, std::size_t ns, CoulombKernel,
                  double* phi, double*, double*, double*) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    __m512d acc0 = zero, acc1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      __m512d dx = _mm512_sub_pd(tx0, xj);
      __m512d dy = _mm512_sub_pd(ty0, yj);
      __m512d dz = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      acc0 = _mm512_fmadd_pd(
          detail::masked_rsqrt_nr2(r2,
                                   _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ)),
          qj, acc0);

      dx = _mm512_sub_pd(tx1, xj);
      dy = _mm512_sub_pd(ty1, yj);
      dz = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      acc1 = _mm512_fmadd_pd(
          detail::masked_rsqrt_nr2(r2,
                                   _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ)),
          qj, acc1);
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), acc0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), acc1));
  }
};

/// Coulomb potential+field tile: slope = -1/r^3 = -(1/sqrt(r2))^3, so the
/// whole contribution is rsqrt-only — no divider at all.
template <>
struct TileSimd<true, CoulombGradKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* sx, const double* sy, const double* sz,
                  const double* sq, std::size_t ns, CoulombGradKernel,
                  double* phi, double* ex, double* ey, double* ez) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    __m512d p0 = zero, p1 = zero;
    __m512d x0 = zero, x1 = zero;
    __m512d y0 = zero, y1 = zero;
    __m512d z0 = zero, z1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      __m512d dx = _mm512_sub_pd(tx0, xj);
      __m512d dy = _mm512_sub_pd(ty0, yj);
      __m512d dz = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      __m512d inv_r = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      __m512d w = _mm512_mul_pd(
          qj, _mm512_mul_pd(inv_r, _mm512_mul_pd(inv_r, inv_r)));
      p0 = _mm512_fmadd_pd(inv_r, qj, p0);
      x0 = _mm512_fmadd_pd(w, dx, x0);
      y0 = _mm512_fmadd_pd(w, dy, y0);
      z0 = _mm512_fmadd_pd(w, dz, z0);

      dx = _mm512_sub_pd(tx1, xj);
      dy = _mm512_sub_pd(ty1, yj);
      dz = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      inv_r = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      w = _mm512_mul_pd(qj,
                        _mm512_mul_pd(inv_r, _mm512_mul_pd(inv_r, inv_r)));
      p1 = _mm512_fmadd_pd(inv_r, qj, p1);
      x1 = _mm512_fmadd_pd(w, dx, x1);
      y1 = _mm512_fmadd_pd(w, dy, y1);
      z1 = _mm512_fmadd_pd(w, dz, z1);
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), p0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), p1));
    _mm512_storeu_pd(ex, _mm512_add_pd(_mm512_loadu_pd(ex), x0));
    _mm512_storeu_pd(ex + 8, _mm512_add_pd(_mm512_loadu_pd(ex + 8), x1));
    _mm512_storeu_pd(ey, _mm512_add_pd(_mm512_loadu_pd(ey), y0));
    _mm512_storeu_pd(ey + 8, _mm512_add_pd(_mm512_loadu_pd(ey + 8), y1));
    _mm512_storeu_pd(ez, _mm512_add_pd(_mm512_loadu_pd(ez), z0));
    _mm512_storeu_pd(ez + 8, _mm512_add_pd(_mm512_loadu_pd(ez + 8), z1));
  }
};

/// Screened-Coulomb (erfc) potential tile, the kPeriodicMesh near field.
/// Fully vectorized: the distance pipeline (r^2, masked rsqrt) feeds the
/// A&S 7.1.26 erfc approximation (detail::erfc_gauss_pd) — its ~1.5e-7
/// absolute error sits far below the mesh split tolerance, and no lane
/// ever leaves the registers for libm.
template <>
struct TileSimd<false, CoulombErfcKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* sx, const double* sy, const double* sz,
                  const double* sq, std::size_t ns, CoulombErfcKernel k,
                  double* phi, double*, double*, double*) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    const __m512d va = _mm512_set1_pd(k.alpha);
    __m512d acc0 = zero, acc1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      __m512d dx = _mm512_sub_pd(tx0, xj);
      __m512d dy = _mm512_sub_pd(ty0, yj);
      __m512d dz = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      __m512d inv = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      __m512d erfc0, gauss0;
      detail::erfc_gauss_pd(_mm512_mul_pd(va, _mm512_mul_pd(r2, inv)), erfc0,
                            gauss0);
      acc0 = _mm512_fmadd_pd(_mm512_mul_pd(erfc0, inv), qj, acc0);

      dx = _mm512_sub_pd(tx1, xj);
      dy = _mm512_sub_pd(ty1, yj);
      dz = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      inv = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      __m512d erfc1, gauss1;
      detail::erfc_gauss_pd(_mm512_mul_pd(va, _mm512_mul_pd(r2, inv)), erfc1,
                            gauss1);
      acc1 = _mm512_fmadd_pd(_mm512_mul_pd(erfc1, inv), qj, acc1);
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), acc0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), acc1));
  }
};

/// Screened-Coulomb potential+field tile: same hybrid split; the per-lane
/// scalar section evaluates erfc and the Gaussian together.
template <>
struct TileSimd<true, CoulombErfcGradKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* sx, const double* sy, const double* sz,
                  const double* sq, std::size_t ns, CoulombErfcGradKernel k,
                  double* phi, double* ex, double* ey, double* ez) {
    constexpr double kTwoOverSqrtPi = 1.1283791670955126;
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    const __m512d va = _mm512_set1_pd(k.alpha);
    const __m512d vgc = _mm512_set1_pd(kTwoOverSqrtPi * k.alpha);
    __m512d p0 = zero, p1 = zero;
    __m512d x0 = zero, x1 = zero;
    __m512d y0 = zero, y1 = zero;
    __m512d z0 = zero, z1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      const __m512d dx0 = _mm512_sub_pd(tx0, xj);
      const __m512d dy0 = _mm512_sub_pd(ty0, yj);
      const __m512d dz0 = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx0, dx0, _mm512_fmadd_pd(dy0, dy0, _mm512_mul_pd(dz0, dz0)));
      __m512d inv = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      __m512d erfcv, gauss;
      detail::erfc_gauss_pd(_mm512_mul_pd(va, _mm512_mul_pd(r2, inv)), erfcv,
                            gauss);
      // g = erfc(ar)/r; -slope = (g + (2a/sqrt(pi)) e^{-a^2 r^2}) / r^2;
      // the inv factors keep masked (coincident) lanes at zero.
      __m512d g = _mm512_mul_pd(erfcv, inv);
      __m512d w = _mm512_mul_pd(
          _mm512_mul_pd(_mm512_fmadd_pd(vgc, gauss, g),
                        _mm512_mul_pd(inv, inv)),
          qj);
      p0 = _mm512_fmadd_pd(g, qj, p0);
      x0 = _mm512_fmadd_pd(w, dx0, x0);
      y0 = _mm512_fmadd_pd(w, dy0, y0);
      z0 = _mm512_fmadd_pd(w, dz0, z0);

      const __m512d dx1 = _mm512_sub_pd(tx1, xj);
      const __m512d dy1 = _mm512_sub_pd(ty1, yj);
      const __m512d dz1 = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx1, dx1, _mm512_fmadd_pd(dy1, dy1, _mm512_mul_pd(dz1, dz1)));
      inv = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      detail::erfc_gauss_pd(_mm512_mul_pd(va, _mm512_mul_pd(r2, inv)), erfcv,
                            gauss);
      g = _mm512_mul_pd(erfcv, inv);
      w = _mm512_mul_pd(
          _mm512_mul_pd(_mm512_fmadd_pd(vgc, gauss, g),
                        _mm512_mul_pd(inv, inv)),
          qj);
      p1 = _mm512_fmadd_pd(g, qj, p1);
      x1 = _mm512_fmadd_pd(w, dx1, x1);
      y1 = _mm512_fmadd_pd(w, dy1, y1);
      z1 = _mm512_fmadd_pd(w, dz1, z1);
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), p0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), p1));
    _mm512_storeu_pd(ex, _mm512_add_pd(_mm512_loadu_pd(ex), x0));
    _mm512_storeu_pd(ex + 8, _mm512_add_pd(_mm512_loadu_pd(ex + 8), x1));
    _mm512_storeu_pd(ey, _mm512_add_pd(_mm512_loadu_pd(ey), y0));
    _mm512_storeu_pd(ey + 8, _mm512_add_pd(_mm512_loadu_pd(ey + 8), y1));
    _mm512_storeu_pd(ez, _mm512_add_pd(_mm512_loadu_pd(ez), z0));
    _mm512_storeu_pd(ez + 8, _mm512_add_pd(_mm512_loadu_pd(ez + 8), z1));
  }
};

/// Mutual Coulomb potential tile: like TileSimd<false, CoulombKernel>, with
/// a per-source horizontal reduction feeding the mirror potentials.
template <>
struct TileSimdMutual<false, CoulombKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* tq, const double* sx, const double* sy,
                  const double* sz, const double* sq, std::size_t ns,
                  CoulombKernel, double* phi, double*, double*, double*,
                  double* sphi, double*, double*, double*) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    const __m512d tq0 = _mm512_loadu_pd(tq), tq1 = _mm512_loadu_pd(tq + 8);
    __m512d acc0 = zero, acc1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      __m512d dx = _mm512_sub_pd(tx0, xj);
      __m512d dy = _mm512_sub_pd(ty0, yj);
      __m512d dz = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      const __m512d inv0 = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      acc0 = _mm512_fmadd_pd(inv0, qj, acc0);

      dx = _mm512_sub_pd(tx1, xj);
      dy = _mm512_sub_pd(ty1, yj);
      dz = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx, dx, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dz, dz)));
      const __m512d inv1 = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      acc1 = _mm512_fmadd_pd(inv1, qj, acc1);

      sphi[j] += _mm512_reduce_add_pd(_mm512_fmadd_pd(
          inv0, tq0, _mm512_mul_pd(inv1, tq1)));
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), acc0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), acc1));
  }
};

/// Mutual Coulomb potential+field tile.
template <>
struct TileSimdMutual<true, CoulombGradKernel> {
  static constexpr bool kAvailable = true;

  static void run(const double* tx, const double* ty, const double* tz,
                  const double* tq, const double* sx, const double* sy,
                  const double* sz, const double* sq, std::size_t ns,
                  CoulombGradKernel, double* phi, double* ex, double* ey,
                  double* ez, double* sphi, double* sex, double* sey,
                  double* sez) {
    const __m512d zero = _mm512_setzero_pd();
    const __m512d tx0 = _mm512_loadu_pd(tx), tx1 = _mm512_loadu_pd(tx + 8);
    const __m512d ty0 = _mm512_loadu_pd(ty), ty1 = _mm512_loadu_pd(ty + 8);
    const __m512d tz0 = _mm512_loadu_pd(tz), tz1 = _mm512_loadu_pd(tz + 8);
    const __m512d tq0 = _mm512_loadu_pd(tq), tq1 = _mm512_loadu_pd(tq + 8);
    __m512d p0 = zero, p1 = zero;
    __m512d x0 = zero, x1 = zero;
    __m512d y0 = zero, y1 = zero;
    __m512d z0 = zero, z1 = zero;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512d xj = _mm512_set1_pd(sx[j]);
      const __m512d yj = _mm512_set1_pd(sy[j]);
      const __m512d zj = _mm512_set1_pd(sz[j]);
      const __m512d qj = _mm512_set1_pd(sq[j]);

      __m512d dx0 = _mm512_sub_pd(tx0, xj);
      __m512d dy0 = _mm512_sub_pd(ty0, yj);
      __m512d dz0 = _mm512_sub_pd(tz0, zj);
      __m512d r2 = _mm512_fmadd_pd(
          dx0, dx0, _mm512_fmadd_pd(dy0, dy0, _mm512_mul_pd(dz0, dz0)));
      const __m512d inv0 = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      // w = 1/r^3 (positive); target side subtracts slope*d*q with
      // slope = -w, i.e. adds w*d*q; source side adds slope*d*q = -w*d*q.
      const __m512d w0 = _mm512_mul_pd(inv0, _mm512_mul_pd(inv0, inv0));
      const __m512d wq0 = _mm512_mul_pd(w0, qj);
      p0 = _mm512_fmadd_pd(inv0, qj, p0);
      x0 = _mm512_fmadd_pd(wq0, dx0, x0);
      y0 = _mm512_fmadd_pd(wq0, dy0, y0);
      z0 = _mm512_fmadd_pd(wq0, dz0, z0);

      __m512d dx1 = _mm512_sub_pd(tx1, xj);
      __m512d dy1 = _mm512_sub_pd(ty1, yj);
      __m512d dz1 = _mm512_sub_pd(tz1, zj);
      r2 = _mm512_fmadd_pd(
          dx1, dx1, _mm512_fmadd_pd(dy1, dy1, _mm512_mul_pd(dz1, dz1)));
      const __m512d inv1 = detail::masked_rsqrt_nr2(
          r2, _mm512_cmp_pd_mask(r2, zero, _CMP_GT_OQ));
      const __m512d w1 = _mm512_mul_pd(inv1, _mm512_mul_pd(inv1, inv1));
      const __m512d wq1 = _mm512_mul_pd(w1, qj);
      p1 = _mm512_fmadd_pd(inv1, qj, p1);
      x1 = _mm512_fmadd_pd(wq1, dx1, x1);
      y1 = _mm512_fmadd_pd(wq1, dy1, y1);
      z1 = _mm512_fmadd_pd(wq1, dz1, z1);

      const __m512d wt0 = _mm512_mul_pd(w0, tq0);
      const __m512d wt1 = _mm512_mul_pd(w1, tq1);
      sphi[j] += _mm512_reduce_add_pd(_mm512_fmadd_pd(
          inv0, tq0, _mm512_mul_pd(inv1, tq1)));
      sex[j] -= _mm512_reduce_add_pd(_mm512_fmadd_pd(
          wt0, dx0, _mm512_mul_pd(wt1, dx1)));
      sey[j] -= _mm512_reduce_add_pd(_mm512_fmadd_pd(
          wt0, dy0, _mm512_mul_pd(wt1, dy1)));
      sez[j] -= _mm512_reduce_add_pd(_mm512_fmadd_pd(
          wt0, dz0, _mm512_mul_pd(wt1, dz1)));
    }
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), p0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), p1));
    _mm512_storeu_pd(ex, _mm512_add_pd(_mm512_loadu_pd(ex), x0));
    _mm512_storeu_pd(ex + 8, _mm512_add_pd(_mm512_loadu_pd(ex + 8), x1));
    _mm512_storeu_pd(ey, _mm512_add_pd(_mm512_loadu_pd(ey), y0));
    _mm512_storeu_pd(ey + 8, _mm512_add_pd(_mm512_loadu_pd(ey + 8), y1));
    _mm512_storeu_pd(ez, _mm512_add_pd(_mm512_loadu_pd(ez), z0));
    _mm512_storeu_pd(ez + 8, _mm512_add_pd(_mm512_loadu_pd(ez + 8), z1));
  }
};

/// fp32 Coulomb potential tile: 16 targets in ONE zmm accumulator register,
/// vrsqrt14ps + one Newton step, float partials widened to fp64 every
/// kF32FlushInterval sources.
template <>
struct TileSimdF32<false, CoulombKernel> {
  static constexpr bool kAvailable = true;

  static void run(const float* tx, const float* ty, const float* tz,
                  const float* sx, const float* sy, const float* sz,
                  const float* sq, std::size_t ns, CoulombKernel,
                  double* phi, double*, double*, double*) {
    const __m512 zero = _mm512_setzero_ps();
    const __m512 tx0 = _mm512_loadu_ps(tx);
    const __m512 ty0 = _mm512_loadu_ps(ty);
    const __m512 tz0 = _mm512_loadu_ps(tz);
    __m512d p0 = _mm512_setzero_pd(), p1 = _mm512_setzero_pd();
    __m512 acc = zero;
    std::size_t since_flush = 0;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512 xj = _mm512_set1_ps(sx[j]);
      const __m512 yj = _mm512_set1_ps(sy[j]);
      const __m512 zj = _mm512_set1_ps(sz[j]);
      const __m512 qj = _mm512_set1_ps(sq[j]);
      const __m512 dx = _mm512_sub_ps(tx0, xj);
      const __m512 dy = _mm512_sub_ps(ty0, yj);
      const __m512 dz = _mm512_sub_ps(tz0, zj);
      const __m512 r2 = _mm512_fmadd_ps(
          dx, dx, _mm512_fmadd_ps(dy, dy, _mm512_mul_ps(dz, dz)));
      acc = _mm512_fmadd_ps(
          detail::masked_rsqrt_ps_nr1(
              r2, _mm512_cmp_ps_mask(r2, zero, _CMP_GT_OQ)),
          qj, acc);
      if (++since_flush == kF32FlushInterval) {
        detail::flush_ps_to_pd(acc, p0, p1);
        acc = zero;
        since_flush = 0;
      }
    }
    detail::flush_ps_to_pd(acc, p0, p1);
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), p0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), p1));
  }
};

/// fp32 Coulomb potential+field tile: four zmm float accumulators, all
/// rsqrt-only, flushed into eight fp64 registers.
template <>
struct TileSimdF32<true, CoulombGradKernel> {
  static constexpr bool kAvailable = true;

  static void run(const float* tx, const float* ty, const float* tz,
                  const float* sx, const float* sy, const float* sz,
                  const float* sq, std::size_t ns, CoulombGradKernel,
                  double* phi, double* ex, double* ey, double* ez) {
    const __m512 zero = _mm512_setzero_ps();
    const __m512 tx0 = _mm512_loadu_ps(tx);
    const __m512 ty0 = _mm512_loadu_ps(ty);
    const __m512 tz0 = _mm512_loadu_ps(tz);
    __m512d pp0 = _mm512_setzero_pd(), pp1 = _mm512_setzero_pd();
    __m512d px0 = _mm512_setzero_pd(), px1 = _mm512_setzero_pd();
    __m512d py0 = _mm512_setzero_pd(), py1 = _mm512_setzero_pd();
    __m512d pz0 = _mm512_setzero_pd(), pz1 = _mm512_setzero_pd();
    __m512 ap = zero, ax = zero, ay = zero, az = zero;
    std::size_t since_flush = 0;
    for (std::size_t j = 0; j < ns; ++j) {
      const __m512 xj = _mm512_set1_ps(sx[j]);
      const __m512 yj = _mm512_set1_ps(sy[j]);
      const __m512 zj = _mm512_set1_ps(sz[j]);
      const __m512 qj = _mm512_set1_ps(sq[j]);
      const __m512 dx = _mm512_sub_ps(tx0, xj);
      const __m512 dy = _mm512_sub_ps(ty0, yj);
      const __m512 dz = _mm512_sub_ps(tz0, zj);
      const __m512 r2 = _mm512_fmadd_ps(
          dx, dx, _mm512_fmadd_ps(dy, dy, _mm512_mul_ps(dz, dz)));
      const __m512 inv_r = detail::masked_rsqrt_ps_nr1(
          r2, _mm512_cmp_ps_mask(r2, zero, _CMP_GT_OQ));
      // w = q/r^3; target side accumulates +w*d (E = -grad phi).
      const __m512 w = _mm512_mul_ps(
          qj, _mm512_mul_ps(inv_r, _mm512_mul_ps(inv_r, inv_r)));
      ap = _mm512_fmadd_ps(inv_r, qj, ap);
      ax = _mm512_fmadd_ps(w, dx, ax);
      ay = _mm512_fmadd_ps(w, dy, ay);
      az = _mm512_fmadd_ps(w, dz, az);
      if (++since_flush == kF32FlushInterval) {
        detail::flush_ps_to_pd(ap, pp0, pp1);
        detail::flush_ps_to_pd(ax, px0, px1);
        detail::flush_ps_to_pd(ay, py0, py1);
        detail::flush_ps_to_pd(az, pz0, pz1);
        ap = ax = ay = az = zero;
        since_flush = 0;
      }
    }
    detail::flush_ps_to_pd(ap, pp0, pp1);
    detail::flush_ps_to_pd(ax, px0, px1);
    detail::flush_ps_to_pd(ay, py0, py1);
    detail::flush_ps_to_pd(az, pz0, pz1);
    _mm512_storeu_pd(phi, _mm512_add_pd(_mm512_loadu_pd(phi), pp0));
    _mm512_storeu_pd(phi + 8, _mm512_add_pd(_mm512_loadu_pd(phi + 8), pp1));
    _mm512_storeu_pd(ex, _mm512_add_pd(_mm512_loadu_pd(ex), px0));
    _mm512_storeu_pd(ex + 8, _mm512_add_pd(_mm512_loadu_pd(ex + 8), px1));
    _mm512_storeu_pd(ey, _mm512_add_pd(_mm512_loadu_pd(ey), py0));
    _mm512_storeu_pd(ey + 8, _mm512_add_pd(_mm512_loadu_pd(ey + 8), py1));
    _mm512_storeu_pd(ez, _mm512_add_pd(_mm512_loadu_pd(ez), pz0));
    _mm512_storeu_pd(ez + 8, _mm512_add_pd(_mm512_loadu_pd(ez + 8), pz1));
  }
};

#endif  // __AVX512F__

/// One target against a source stream, vectorized across sources with a
/// simd reduction (one-target lists, max_batch = 1, and the edge case
/// nt == 1).
template <bool Field, typename K>
inline void accumulate_single(double tx, double ty, double tz,
                              const double* __restrict sx,
                              const double* __restrict sy,
                              const double* __restrict sz,
                              const double* __restrict sq, std::size_t ns,
                              K k, double& phi, double& ex, double& ey,
                              double& ez) {
  double accp = 0.0, accx = 0.0, accy = 0.0, accz = 0.0;
#pragma omp simd reduction(+ : accp, accx, accy, accz)
  for (std::size_t j = 0; j < ns; ++j) {
    const double dx = tx - sx[j];
    const double dy = ty - sy[j];
    const double dz = tz - sz[j];
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double qj = sq[j];
    if constexpr (Field) {
      const GradValue v = grad_value_masked(k, r2);
      accp += v.g * qj;
      accx -= v.slope * dx * qj;
      accy -= v.slope * dy * qj;
      accz -= v.slope * dz * qj;
    } else {
      accp += kernel_value_masked(k, r2) * qj;
    }
  }
  phi += accp;
  if constexpr (Field) {
    ex += accx;
    ey += accy;
    ez += accz;
  }
}

/// A tile of nt <= kTargetTile targets against ns contiguous source points:
/// the unified inner kernel of every host evaluation path. `Fast` permits
/// the ISA-specific tile (treecode paths); exact callers pass false.
template <bool Field, bool Fast, typename K>
inline void accumulate_tile(const double* __restrict tx,
                            const double* __restrict ty,
                            const double* __restrict tz, std::size_t nt,
                            const double* __restrict sx,
                            const double* __restrict sy,
                            const double* __restrict sz,
                            const double* __restrict sq, std::size_t ns, K k,
                            double* __restrict phi, double* __restrict ex,
                            double* __restrict ey, double* __restrict ez) {
  if constexpr (Fast && TileSimd<Field, K>::kAvailable) {
    if (nt == kTargetTile) {
      TileSimd<Field, K>::run(tx, ty, tz, sx, sy, sz, sq, ns, k, phi, ex, ey,
                              ez);
      return;
    }
  }
  if (nt == 1) {
    accumulate_single<Field>(tx[0], ty[0], tz[0], sx, sy, sz, sq, ns, k,
                             phi[0], Field ? ex[0] : phi[0],
                             Field ? ey[0] : phi[0], Field ? ez[0] : phi[0]);
    return;
  }
  // Portable blocked form: one SIMD lane per target, sources broadcast.
  double accp[kTargetTile] = {};
  double accx[kTargetTile] = {};
  double accy[kTargetTile] = {};
  double accz[kTargetTile] = {};
  for (std::size_t j = 0; j < ns; ++j) {
    const double xj = sx[j], yj = sy[j], zj = sz[j], qj = sq[j];
#pragma omp simd
    for (std::size_t t = 0; t < nt; ++t) {
      const double dx = tx[t] - xj;
      const double dy = ty[t] - yj;
      const double dz = tz[t] - zj;
      const double r2 = dx * dx + dy * dy + dz * dz;
      if constexpr (Field) {
        const GradValue v = grad_value_masked(k, r2);
        accp[t] += v.g * qj;
        accx[t] -= v.slope * dx * qj;
        accy[t] -= v.slope * dy * qj;
        accz[t] -= v.slope * dz * qj;
      } else {
        accp[t] += kernel_value_masked(k, r2) * qj;
      }
    }
  }
  for (std::size_t t = 0; t < nt; ++t) phi[t] += accp[t];
  if constexpr (Field) {
    for (std::size_t t = 0; t < nt; ++t) ex[t] += accx[t];
    for (std::size_t t = 0; t < nt; ++t) ey[t] += accy[t];
    for (std::size_t t = 0; t < nt; ++t) ez[t] += accz[t];
  }
}

/// fp32 twin of accumulate_single: one target against a float source
/// stream, simd-reduced in float per kF32FlushInterval block, block sums
/// accumulated in fp64.
template <bool Field, typename K>
inline void accumulate_single_f32(double tx, double ty, double tz,
                                  const float* __restrict sx,
                                  const float* __restrict sy,
                                  const float* __restrict sz,
                                  const float* __restrict sq, std::size_t ns,
                                  K k, double& phi, double& ex, double& ey,
                                  double& ez) {
  const float x = static_cast<float>(tx);
  const float y = static_cast<float>(ty);
  const float z = static_cast<float>(tz);
  double dp = 0.0, dxs = 0.0, dys = 0.0, dzs = 0.0;
  for (std::size_t j0 = 0; j0 < ns; j0 += kF32FlushInterval) {
    const std::size_t jend = std::min(ns, j0 + kF32FlushInterval);
    float accp = 0.0f, accx = 0.0f, accy = 0.0f, accz = 0.0f;
#pragma omp simd reduction(+ : accp, accx, accy, accz)
    for (std::size_t j = j0; j < jend; ++j) {
      const float dx = x - sx[j];
      const float dy = y - sy[j];
      const float dz = z - sz[j];
      const float r2 = dx * dx + dy * dy + dz * dz;
      const float qj = sq[j];
      if constexpr (Field) {
        const GradValueF v = grad_value_masked(k, r2);
        accp += v.g * qj;
        accx -= v.slope * dx * qj;
        accy -= v.slope * dy * qj;
        accz -= v.slope * dz * qj;
      } else {
        accp += kernel_value_masked(k, r2) * qj;
      }
    }
    dp += accp;
    dxs += accx;
    dys += accy;
    dzs += accz;
  }
  phi += dp;
  if constexpr (Field) {
    ex += dxs;
    ey += dys;
    ez += dzs;
  }
}

/// fp32 twin of accumulate_tile for tagged far-field interactions: fp64
/// target coordinates are narrowed once per tile (<= 16 conversions against
/// an O(ns) inner loop), sources stream as floats narrowed while staging, and
/// float partial sums are widened into the fp64 outputs every
/// kF32FlushInterval sources.
template <bool Field, bool Fast, typename K>
inline void accumulate_tile_f32(const double* __restrict tx,
                                const double* __restrict ty,
                                const double* __restrict tz, std::size_t nt,
                                const float* __restrict sx,
                                const float* __restrict sy,
                                const float* __restrict sz,
                                const float* __restrict sq, std::size_t ns,
                                K k, double* __restrict phi,
                                double* __restrict ex, double* __restrict ey,
                                double* __restrict ez) {
  if (nt == 1) {
    accumulate_single_f32<Field>(
        tx[0], ty[0], tz[0], sx, sy, sz, sq, ns, k, phi[0],
        Field ? ex[0] : phi[0], Field ? ey[0] : phi[0],
        Field ? ez[0] : phi[0]);
    return;
  }
  float ftx[kTargetTile], fty[kTargetTile], ftz[kTargetTile];
  for (std::size_t t = 0; t < nt; ++t) {
    ftx[t] = static_cast<float>(tx[t]);
    fty[t] = static_cast<float>(ty[t]);
    ftz[t] = static_cast<float>(tz[t]);
  }
  if constexpr (Fast && TileSimdF32<Field, K>::kAvailable) {
    if (nt == kTargetTile) {
      TileSimdF32<Field, K>::run(ftx, fty, ftz, sx, sy, sz, sq, ns, k, phi,
                                 ex, ey, ez);
      return;
    }
  }
  double accp[kTargetTile] = {};
  double accx[kTargetTile] = {};
  double accy[kTargetTile] = {};
  double accz[kTargetTile] = {};
  for (std::size_t j0 = 0; j0 < ns; j0 += kF32FlushInterval) {
    const std::size_t jend = std::min(ns, j0 + kF32FlushInterval);
    float bp[kTargetTile] = {};
    float bx[kTargetTile] = {};
    float by[kTargetTile] = {};
    float bz[kTargetTile] = {};
    for (std::size_t j = j0; j < jend; ++j) {
      const float xj = sx[j], yj = sy[j], zj = sz[j], qj = sq[j];
#pragma omp simd
      for (std::size_t t = 0; t < nt; ++t) {
        const float dx = ftx[t] - xj;
        const float dy = fty[t] - yj;
        const float dz = ftz[t] - zj;
        const float r2 = dx * dx + dy * dy + dz * dz;
        if constexpr (Field) {
          const GradValueF v = grad_value_masked(k, r2);
          bp[t] += v.g * qj;
          bx[t] -= v.slope * dx * qj;
          by[t] -= v.slope * dy * qj;
          bz[t] -= v.slope * dz * qj;
        } else {
          bp[t] += kernel_value_masked(k, r2) * qj;
        }
      }
    }
    for (std::size_t t = 0; t < nt; ++t) accp[t] += bp[t];
    if constexpr (Field) {
      for (std::size_t t = 0; t < nt; ++t) accx[t] += bx[t];
      for (std::size_t t = 0; t < nt; ++t) accy[t] += by[t];
      for (std::size_t t = 0; t < nt; ++t) accz[t] += bz[t];
    }
  }
  for (std::size_t t = 0; t < nt; ++t) phi[t] += accp[t];
  if constexpr (Field) {
    for (std::size_t t = 0; t < nt; ++t) ex[t] += accx[t];
    for (std::size_t t = 0; t < nt; ++t) ey[t] += accy[t];
    for (std::size_t t = 0; t < nt; ++t) ez[t] += accz[t];
  }
}

/// Mutual (symmetric) tile for self-interaction dual traversals: a tile of
/// nt targets against ns sources where targets and sources are disjoint
/// ranges of the *same* particle set. Every kernel value is computed once
/// and accumulated into both sides (Newton's third law), halving the
/// near-field kernel evaluations. Source-side results go to the mirror
/// accumulators `sphi`/`sex`/`sey`/`sez` (indexed by source position; the
/// driver points them into the calling block's mirror slot).
template <bool Field, typename K>
inline void accumulate_tile_mutual(
    const double* __restrict tx, const double* __restrict ty,
    const double* __restrict tz, const double* __restrict tq, std::size_t nt,
    const double* __restrict sx, const double* __restrict sy,
    const double* __restrict sz, const double* __restrict sq, std::size_t ns,
    K k, double* __restrict phi, double* __restrict ex,
    double* __restrict ey, double* __restrict ez, double* __restrict sphi,
    double* __restrict sex, double* __restrict sey, double* __restrict sez) {
  if constexpr (TileSimdMutual<Field, K>::kAvailable) {
    if (nt == kTargetTile) {
      TileSimdMutual<Field, K>::run(tx, ty, tz, tq, sx, sy, sz, sq, ns, k,
                                    phi, ex, ey, ez, sphi, sex, sey, sez);
      return;
    }
  }
  double accp[kTargetTile] = {};
  double accx[kTargetTile] = {};
  double accy[kTargetTile] = {};
  double accz[kTargetTile] = {};
  for (std::size_t j = 0; j < ns; ++j) {
    const double xj = sx[j], yj = sy[j], zj = sz[j], qj = sq[j];
    double sp = 0.0, sxx = 0.0, syy = 0.0, szz = 0.0;
#pragma omp simd reduction(+ : sp, sxx, syy, szz)
    for (std::size_t t = 0; t < nt; ++t) {
      const double dx = tx[t] - xj;
      const double dy = ty[t] - yj;
      const double dz = tz[t] - zj;
      const double r2 = dx * dx + dy * dy + dz * dz;
      if constexpr (Field) {
        const GradValue v = grad_value_masked(k, r2);
        accp[t] += v.g * qj;
        accx[t] -= v.slope * dx * qj;
        accy[t] -= v.slope * dy * qj;
        accz[t] -= v.slope * dz * qj;
        sp += v.g * tq[t];
        // E at the source from the target: the separation flips sign.
        sxx += v.slope * dx * tq[t];
        syy += v.slope * dy * tq[t];
        szz += v.slope * dz * tq[t];
      } else {
        const double g = kernel_value_masked(k, r2);
        accp[t] += g * qj;
        sp += g * tq[t];
      }
    }
    sphi[j] += sp;
    if constexpr (Field) {
      sex[j] += sxx;
      sey[j] += syy;
      sez[j] += szz;
    }
  }
  for (std::size_t t = 0; t < nt; ++t) phi[t] += accp[t];
  if constexpr (Field) {
    for (std::size_t t = 0; t < nt; ++t) ex[t] += accx[t];
    for (std::size_t t = 0; t < nt; ++t) ey[t] += accy[t];
    for (std::size_t t = 0; t < nt; ++t) ez[t] += accz[t];
  }
}

/// Triangular self-interaction of one leaf range (the diagonal pair of a
/// self-mode dual traversal): each unordered particle pair is evaluated
/// once and accumulated into both particles; for kernels regular at the
/// origin the G(0) self-term is added once per particle, matching the
/// direct-sum convention.
template <bool Field, typename K>
inline void accumulate_range_self(const double* __restrict x,
                                  const double* __restrict y,
                                  const double* __restrict z,
                                  const double* __restrict q, std::size_t n,
                                  K k, double* __restrict phi,
                                  double* __restrict ex,
                                  double* __restrict ey,
                                  double* __restrict ez) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i], zi = z[i], qi = q[i];
    double accp = 0.0, accx = 0.0, accy = 0.0, accz = 0.0;
#pragma omp simd reduction(+ : accp, accx, accy, accz)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = xi - x[j];
      const double dy = yi - y[j];
      const double dz = zi - z[j];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if constexpr (Field) {
        const GradValue v = grad_value_masked(k, r2);
        accp += v.g * q[j];
        accx -= v.slope * dx * q[j];
        accy -= v.slope * dy * q[j];
        accz -= v.slope * dz * q[j];
        phi[j] += v.g * qi;
        ex[j] += v.slope * dx * qi;
        ey[j] += v.slope * dy * qi;
        ez[j] += v.slope * dz * qi;
      } else {
        const double g = kernel_value_masked(k, r2);
        accp += g * q[j];
        phi[j] += g * qi;
      }
    }
    phi[i] += accp;
    if constexpr (Field) {
      ex[i] += accx;
      ey[i] += accy;
      ez[i] += accz;
    }
  }
  if constexpr (!K::kSingular) {
    double g0;
    if constexpr (Field) {
      g0 = k.grad(0.0).g;
    } else {
      g0 = k(0.0);
    }
    for (std::size_t i = 0; i < n; ++i) phi[i] += g0 * q[i];
    // grad at zero separation contributes no field (the offset is zero).
  }
}

/// child += (B1 (x) B2 (x) B3) parent — the 3-mode tensor transfer of the
/// dual downward pass (one component of a parent-to-child grid transfer),
/// applied mode-by-mode (3 m^4 instead of m^6 work). Bd is row-major m x m
/// with Bd[k*m + j] = L_j^{parent,d}(child grid point k); tmp1/tmp2 are
/// caller scratch of m^3 doubles each. Shared by both engines.
void dual_transfer_apply(const double* parent, double* child,
                         const double* b1, const double* b2,
                         const double* b3, std::size_t m, double* tmp1,
                         double* tmp2);

// ---- List-driven evaluators (implemented in cpu_kernels.cpp) -------------
//
// Each evaluator adds its eval and launch counts (and the fp32/fp64 split)
// into a non-null `stats`, so multi-piece callers sum pieces in place.

/// Potential evaluation (tree order) of either traversal's lists: executes
/// CC/CP pairs onto target-node grids (parallel over grid groups), runs the
/// downward pass (parent grids propagate to child grids, leaves interpolate
/// to particles), and executes PC/direct pairs per target leaf — all four
/// kinds through the same blocked tile core. `target_grids` and
/// `moment_levels` hold one entry per ladder degree (DualPair::level);
/// batched lists need no target grids and one moment level. `fp32` routes
/// pairs tagged fp32-eligible through the fp32 tiles, which narrow the fp64
/// sources as they stage them (false executes everything fp64).
std::vector<double> cpu_evaluate_dual(
    const OrderedParticles& targets, const ClusterTree& target_tree,
    std::span<const ClusterMoments> target_grids,
    const DualInteractionLists& lists, const ClusterTree& source_tree,
    const OrderedParticles& sources,
    std::span<const ClusterMoments> moment_levels, const KernelSpec& kernel,
    const ShiftTable* shifts = nullptr, RunStats* stats = nullptr,
    CpuWorkspace* workspace = nullptr, bool fp32 = false);

/// Potential + field evaluation, using the analytic gradient of the
/// barycentric approximation (core/fields.hpp): CP/CC accumulate the field
/// at the target grid points and the downward pass interpolates each
/// component (the interpolant of the field converges at the same rate as
/// the field of the interpolant).
FieldResult cpu_evaluate_dual_field(
    const OrderedParticles& targets, const ClusterTree& target_tree,
    std::span<const ClusterMoments> target_grids,
    const DualInteractionLists& lists, const ClusterTree& source_tree,
    const OrderedParticles& sources,
    std::span<const ClusterMoments> moment_levels, const KernelSpec& kernel,
    const ShiftTable* shifts = nullptr, RunStats* stats = nullptr,
    CpuWorkspace* workspace = nullptr, bool fp32 = false);

}  // namespace bltc
