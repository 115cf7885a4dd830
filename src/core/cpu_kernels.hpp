// Blocked CPU evaluation core — the one kernel that serves every host path.
//
// The paper's point (§3) is that batching targets against clusters turns
// both hot loops — the direct sum (Eq. 9) and the barycentric approximation
// (Eq. 11) — into the *same* high-intensity shape: a block of targets
// against a contiguous stream of weighted source points (real particles for
// Eq. 9, tensor-product Chebyshev points with modified charges for Eq. 11).
// Every interaction class (direct, PC, CP, CC) therefore runs one tile, and
// only the kernel's radial function changes. This header writes that tile
// once, over the kernel functor (core/kernels.hpp) and the staged element
// type (double, or float for fp32-tagged far-field interactions):
//
//   * `accumulate_tile` keeps a tile of `kTargetTile` targets' accumulators
//     (phi, and for fields ex/ey/ez) in registers and streams the source
//     block through a `#pragma omp simd` inner loop, one SIMD lane per
//     target. The singular-kernel guard is a branchless select
//     (kernel_value_masked / grad_value_masked) so the loop if-converts.
//     fp32 sums in float per kF32FlushInterval block and widens into fp64.
//   * A single-target variant vectorizes across *sources* with a simd
//     reduction instead — the shape a one-target list (max_batch = 1) needs.
//   * With AVX-512, every tile of two or more targets of a kernel that
//     provides a vector radial form (Coulomb in fp64 and fp32; Yukawa,
//     Gaussian and erfc in fp64) runs one vector skeleton instead: sources
//     broadcast, r^2 per lane, 1/r from vrsqrt14 plus Newton steps
//     (relative error ~1e-16 in fp64, no divider), then the kernel's radial
//     form and fused accumulation. A partial tile is padded by repeating
//     its last target, to one register when it fits and to a full tile
//     otherwise, and only its real targets' sums are kept. A mutual variant
//     serves symmetric self-mode direct pairs; its padded lanes carry
//     charge 0. The O(N^2) oracles in direct_sum.cpp stay on their scalar
//     form so their results are bit-stable.
//
// One templated driver (`cpu_kernels.cpp`) executes interaction lists
// through these tiles for both traversals, potential and field.
// Per-cluster grids are expanded once per (list, cluster) visit into
// per-thread scratch that persists across evaluations (a `CpuWorkspace`
// held by the caller's ExecContext), and target-leaf work blocks are
// executed largest-first so the parallel tail is made of cheap blocks.
// `evaluate_plan{,_field}` run a plan's source pieces through that driver,
// and `mesh_far_field` adds the kPeriodicMesh far field on the host.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/particles.hpp"
#include "core/solver.hpp"
#include "core/tree.hpp"

namespace bltc {

namespace mesh {
class MeshPlan;  // FFT far field of the Ewald split (src/mesh/mesh.hpp)
}  // namespace mesh

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

/// Host evaluation workspace. Each evaluation stream (a Solver, a
/// DistSolver rank, a leased serve context) keeps one alive across calls
/// through its ExecContext so repeated evaluations allocate nothing; the
/// evaluators fall back to a call-local instance when given none.
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

// ---- Vector tile skeleton (AVX-512) ---------------------------------------

#if defined(__AVX512F__)

/// A kernel with a vector radial form over lanes of `T` (core/kernels.hpp)
/// runs its full tiles through the vector skeleton below.
template <typename K, typename T>
concept VectorRadial = requires(const K k, simd::Vec<T> v) {
  { k.vector_value(v, v) } -> std::same_as<decltype(v)>;
  k.vector_grad(v, v, v, v);
};

namespace detail {

/// Registers per accumulator row of a full kTargetTile-target tile.
template <typename T>
inline constexpr std::size_t kTileRegs = kTargetTile / simd::kWidth<T>;

/// One broadcast source against one register of targets: the separation,
/// G and (fields only) s = -G'(r)/r from the kernel's radial form.
template <typename T>
struct LanePair {
  simd::Vec<T> dx, dy, dz, g, s;
};

template <bool Field, typename T, typename K, typename V = simd::Vec<T>>
inline LanePair<T> lane_pair(V tx, V ty, V tz, V xj, V yj, V zj, K k) {
  LanePair<T> p;
  p.dx = simd::sub(tx, xj);
  p.dy = simd::sub(ty, yj);
  p.dz = simd::sub(tz, zj);
  const V r2 = simd::fmadd(p.dx, p.dx,
                           simd::fmadd(p.dy, p.dy, simd::mul(p.dz, p.dz)));
  const V inv_r = simd::rsqrt_masked(r2);
  if constexpr (Field) {
    k.vector_grad(r2, inv_r, p.g, p.s);
  } else {
    p.g = k.vector_value(r2, inv_r);
  }
  return p;
}

/// acc[0] += g q; fields also acc[1..3] += (s q) d, which is E = -grad phi.
template <bool Field, typename T, typename V = simd::Vec<T>>
inline void accumulate_pair(const LanePair<T>& p, V q, V* acc) {
  acc[0] = simd::fmadd(p.g, q, acc[0]);
  if constexpr (Field) {
    const V w = simd::mul(p.s, q);
    acc[1] = simd::fmadd(w, p.dx, acc[1]);
    acc[2] = simd::fmadd(w, p.dy, acc[2]);
    acc[3] = simd::fmadd(w, p.dz, acc[3]);
  }
}

/// The vector tile: R registers of `T` lanes of targets (R * kWidth<T>
/// targets; a full tile by default) against `ns` broadcast sources. fp64
/// lanes accumulate in fp64 (R registers per output); fp32 lanes accumulate
/// in one float register per output and widen it into fp64 every
/// kF32FlushInterval sources.
template <bool Field, typename T, std::size_t R = kTileRegs<T>, typename K>
inline void vector_tile(const T* tx, const T* ty, const T* tz, const T* sx,
                        const T* sy, const T* sz, const T* sq, std::size_t ns,
                        K k, double* phi, double* ex, double* ey,
                        double* ez) {
  using V = simd::Vec<T>;
  static_assert(std::is_same_v<T, double> || R == 1);
  constexpr std::size_t kOut = Field ? 4 : 1;
  constexpr std::size_t W = simd::kWidth<T>;
  V ptx[R], pty[R], ptz[R], acc[R][4];
#pragma GCC unroll 2
  for (std::size_t r = 0; r < R; ++r) {
    ptx[r] = simd::load(tx + r * W);
    pty[r] = simd::load(ty + r * W);
    ptz[r] = simd::load(tz + r * W);
    for (std::size_t o = 0; o < 4; ++o) acc[r][o] = simd::set1(T(0));
  }
  __m512d wide[4][2];  // fp32 only: the widened partial sums
  for (std::size_t o = 0; o < 4; ++o) {
    wide[o][0] = wide[o][1] = _mm512_setzero_pd();
  }
  std::size_t since_flush = 0;
  for (std::size_t j = 0; j < ns; ++j) {
    const V xj = simd::set1(sx[j]);
    const V yj = simd::set1(sy[j]);
    const V zj = simd::set1(sz[j]);
    const V qj = simd::set1(sq[j]);
#pragma GCC unroll 2
    for (std::size_t r = 0; r < R; ++r) {
      accumulate_pair<Field, T>(
          lane_pair<Field, T>(ptx[r], pty[r], ptz[r], xj, yj, zj, k), qj,
          acc[r]);
    }
    if constexpr (std::is_same_v<T, float>) {
      if (++since_flush == kF32FlushInterval) {
        for (std::size_t o = 0; o < kOut; ++o) {
          simd::widen_add(acc[0][o], wide[o][0], wide[o][1]);
          acc[0][o] = simd::set1(0.0f);
        }
        since_flush = 0;
      }
    }
  }
  double* out[4] = {phi, ex, ey, ez};
  for (std::size_t o = 0; o < kOut; ++o) {
    if constexpr (std::is_same_v<T, float>) {
      simd::widen_add(acc[0][o], wide[o][0], wide[o][1]);
      simd::add_to(out[o], wide[o][0]);
      simd::add_to(out[o] + 8, wide[o][1]);
    } else {
      for (std::size_t r = 0; r < R; ++r) {
        simd::add_to(out[o] + r * W, acc[r][o]);
      }
    }
  }
}

/// The mutual variant (fp64, symmetric self-mode direct pairs) over R
/// target registers: each pair also feeds the source side, G q_t into
/// `sphi[j]` and -(s q_t) d into `sex/sey/sez[j]`, through one horizontal
/// sum over the registers (fma(g0, q0, g1 q1) for a full tile).
template <bool Field, std::size_t R = kTileRegs<double>, typename K>
inline void vector_tile_mutual(const double* tx, const double* ty,
                               const double* tz, const double* tq,
                               const double* sx, const double* sy,
                               const double* sz, const double* sq,
                               std::size_t ns, K k, double* phi, double* ex,
                               double* ey, double* ez, double* sphi,
                               double* sex, double* sey, double* sez) {
  using V = __m512d;
  constexpr std::size_t W = simd::kWidth<double>;
  V ptx[R], pty[R], ptz[R], ptq[R], acc[R][4];
  for (std::size_t r = 0; r < R; ++r) {
    ptx[r] = simd::load(tx + W * r);
    pty[r] = simd::load(ty + W * r);
    ptz[r] = simd::load(tz + W * r);
    ptq[r] = simd::load(tq + W * r);
    for (std::size_t o = 0; o < 4; ++o) acc[r][o] = simd::set1(0.0);
  }
  const auto mirror_sum = [](const V* a, const V* b) {
    V m = simd::mul(a[R - 1], b[R - 1]);
    for (std::size_t r = R - 1; r-- > 0;) m = simd::fmadd(a[r], b[r], m);
    return simd::reduce_add(m);
  };
  for (std::size_t j = 0; j < ns; ++j) {
    const V xj = simd::set1(sx[j]);
    const V yj = simd::set1(sy[j]);
    const V zj = simd::set1(sz[j]);
    const V qj = simd::set1(sq[j]);
    LanePair<double> p[R];
    V g[R];
#pragma GCC unroll 2
    for (std::size_t r = 0; r < R; ++r) {
      p[r] = lane_pair<Field, double>(ptx[r], pty[r], ptz[r], xj, yj, zj, k);
      accumulate_pair<Field, double>(p[r], qj, acc[r]);
      g[r] = p[r].g;
    }
    sphi[j] += mirror_sum(g, ptq);
    if constexpr (Field) {
      // E at the source from the target: the separation flips sign.
      V wt[R], dx[R], dy[R], dz[R];
      for (std::size_t r = 0; r < R; ++r) {
        wt[r] = simd::mul(p[r].s, ptq[r]);
        dx[r] = p[r].dx;
        dy[r] = p[r].dy;
        dz[r] = p[r].dz;
      }
      sex[j] -= mirror_sum(wt, dx);
      sey[j] -= mirror_sum(wt, dy);
      sez[j] -= mirror_sum(wt, dz);
    }
  }
  double* out[4] = {phi, ex, ey, ez};
  for (std::size_t o = 0; o < (Field ? 4u : 1u); ++o) {
    for (std::size_t r = 0; r < R; ++r) simd::add_to(out[o] + W * r, acc[r][o]);
  }
}

/// A partial tile (2 <= nt < kTargetTile targets) padded for the vector
/// skeleton: the targets narrowed to T and padded by repeating the last
/// one, and zeroed outputs of which only the first nt are kept (the padded
/// lanes' duplicate sums are discarded).
template <typename T>
struct PaddedTile {
  alignas(64) T x[kTargetTile], y[kTargetTile], z[kTargetTile];
  alignas(64) double out[4][kTargetTile] = {};
  std::size_t nt;

  PaddedTile(const double* tx, const double* ty, const double* tz,
             std::size_t n)
      : nt(n) {
    for (std::size_t t = 0; t < kTargetTile; ++t) {
      const std::size_t i = std::min(t, nt - 1);
      x[t] = static_cast<T>(tx[i]);
      y[t] = static_cast<T>(ty[i]);
      z[t] = static_cast<T>(tz[i]);
    }
  }

  /// Whether the targets fit in one register, which then runs alone.
  bool one_register() const { return nt <= simd::kWidth<T>; }

  template <bool Field>
  void add_outputs(double* phi, double* ex, double* ey, double* ez) const {
    for (std::size_t t = 0; t < nt; ++t) phi[t] += out[0][t];
    if constexpr (Field) {
      for (std::size_t t = 0; t < nt; ++t) ex[t] += out[1][t];
      for (std::size_t t = 0; t < nt; ++t) ey[t] += out[2][t];
      for (std::size_t t = 0; t < nt; ++t) ez[t] += out[3][t];
    }
  }
};

/// vector_tile over a partial tile, padded to one register or a full tile.
template <bool Field, typename T, typename K>
inline void vector_tile_padded(const double* tx, const double* ty,
                               const double* tz, std::size_t nt, const T* sx,
                               const T* sy, const T* sz, const T* sq,
                               std::size_t ns, K k, double* phi, double* ex,
                               double* ey, double* ez) {
  PaddedTile<T> p(tx, ty, tz, nt);
  auto& o = p.out;
  if (p.one_register()) {
    vector_tile<Field, T, 1>(p.x, p.y, p.z, sx, sy, sz, sq, ns, k, o[0],
                             o[1], o[2], o[3]);
  } else {
    vector_tile<Field, T>(p.x, p.y, p.z, sx, sy, sz, sq, ns, k, o[0], o[1],
                          o[2], o[3]);
  }
  p.template add_outputs<Field>(phi, ex, ey, ez);
}

/// vector_tile_mutual over a partial tile, padded likewise; the padded
/// lanes carry charge 0, so they add nothing to the source-side mirror.
template <bool Field, typename K>
inline void vector_tile_mutual_padded(
    const double* tx, const double* ty, const double* tz, const double* tq,
    std::size_t nt, const double* sx, const double* sy, const double* sz,
    const double* sq, std::size_t ns, K k, double* phi, double* ex,
    double* ey, double* ez, double* sphi, double* sex, double* sey,
    double* sez) {
  PaddedTile<double> p(tx, ty, tz, nt);
  alignas(64) double pq[kTargetTile] = {};
  std::copy_n(tq, nt, pq);
  auto& o = p.out;
  if (p.one_register()) {
    vector_tile_mutual<Field, 1>(p.x, p.y, p.z, pq, sx, sy, sz, sq, ns, k,
                                 o[0], o[1], o[2], o[3], sphi, sex, sey, sez);
  } else {
    vector_tile_mutual<Field>(p.x, p.y, p.z, pq, sx, sy, sz, sq, ns, k, o[0],
                              o[1], o[2], o[3], sphi, sex, sey, sez);
  }
  p.template add_outputs<Field>(phi, ex, ey, ez);
}

}  // namespace detail

#endif  // __AVX512F__

// ---- Portable tiles --------------------------------------------------------
//
// One template over the staged element type T serves fp64 and fp32: the
// arithmetic runs in T and the sums land in fp64 outputs. fp32 sums in
// float over blocks of kF32FlushInterval sources and adds each block's sums
// into fp64; fp64 runs the whole stream as one block.

namespace detail {

/// One target against sources [j0, j1), vectorized across sources with a
/// simd reduction in T; the sums are added into the fp64 outputs.
template <bool Field, typename T, typename K>
inline void single_block(T x, T y, T z, const T* __restrict sx,
                         const T* __restrict sy, const T* __restrict sz,
                         const T* __restrict sq, std::size_t j0,
                         std::size_t j1, K k, double& phi, double& ex,
                         double& ey, double& ez) {
  T accp = 0, accx = 0, accy = 0, accz = 0;
#pragma omp simd reduction(+ : accp, accx, accy, accz)
  for (std::size_t j = j0; j < j1; ++j) {
    const T dx = x - sx[j];
    const T dy = y - sy[j];
    const T dz = z - sz[j];
    const T r2 = dx * dx + dy * dy + dz * dz;
    const T qj = sq[j];
    if constexpr (Field) {
      const GradValue<T> v = grad_value_masked(k, r2);
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

/// nt <= kTargetTile targets against sources [j0, j1): one SIMD lane per
/// target, sources broadcast, summed in T; the sums are added into the fp64
/// outputs.
template <bool Field, typename T, typename K>
inline void tile_block(const T* __restrict tx, const T* __restrict ty,
                       const T* __restrict tz, std::size_t nt,
                       const T* __restrict sx, const T* __restrict sy,
                       const T* __restrict sz, const T* __restrict sq,
                       std::size_t j0, std::size_t j1, K k,
                       double* __restrict phi, double* __restrict ex,
                       double* __restrict ey, double* __restrict ez) {
  T accp[kTargetTile] = {};
  T accx[kTargetTile] = {};
  T accy[kTargetTile] = {};
  T accz[kTargetTile] = {};
  for (std::size_t j = j0; j < j1; ++j) {
    const T xj = sx[j], yj = sy[j], zj = sz[j], qj = sq[j];
#pragma omp simd
    for (std::size_t t = 0; t < nt; ++t) {
      const T dx = tx[t] - xj;
      const T dy = ty[t] - yj;
      const T dz = tz[t] - zj;
      const T r2 = dx * dx + dy * dy + dz * dz;
      if constexpr (Field) {
        const GradValue<T> v = grad_value_masked(k, r2);
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

/// A tile's target coordinates in T: fp64 uses them in place, fp32 narrows
/// the <= kTargetTile values once per tile into `buf`.
template <typename T>
inline const T* tile_targets(const double* t, T* buf, std::size_t nt) {
  if constexpr (std::is_same_v<T, double>) {
    return t;
  } else {
    for (std::size_t i = 0; i < nt; ++i) buf[i] = static_cast<T>(t[i]);
    return buf;
  }
}

}  // namespace detail

/// One target against a source stream of T, vectorized across sources with
/// a simd reduction (one-target lists, max_batch = 1, and the edge case
/// nt == 1).
template <bool Field, typename T, typename K>
inline void accumulate_single(double tx, double ty, double tz,
                              const T* __restrict sx,
                              const T* __restrict sy,
                              const T* __restrict sz,
                              const T* __restrict sq, std::size_t ns, K k,
                              double& phi, double& ex, double& ey,
                              double& ez) {
  const T x = static_cast<T>(tx);
  const T y = static_cast<T>(ty);
  const T z = static_cast<T>(tz);
  if constexpr (std::is_same_v<T, double>) {
    detail::single_block<Field>(x, y, z, sx, sy, sz, sq, 0, ns, k, phi, ex,
                                ey, ez);
  } else {
    double dp = 0.0, dxs = 0.0, dys = 0.0, dzs = 0.0;
    for (std::size_t j0 = 0; j0 < ns; j0 += kF32FlushInterval) {
      detail::single_block<Field>(x, y, z, sx, sy, sz, sq, j0,
                                  std::min(ns, j0 + kF32FlushInterval), k,
                                  dp, dxs, dys, dzs);
    }
    phi += dp;
    if constexpr (Field) {
      ex += dxs;
      ey += dys;
      ez += dzs;
    }
  }
}

/// A tile of nt <= kTargetTile targets against ns contiguous source points
/// of T (fp64, or fp32 for tagged far-field interactions): the inner kernel
/// of every host evaluation path. One target runs accumulate_single; tiles
/// of a kernel with a vector radial form run the AVX-512 skeleton (partial
/// ones padded); the rest run the portable tile.
template <bool Field, typename T, typename K>
inline void accumulate_tile(const double* __restrict tx,
                            const double* __restrict ty,
                            const double* __restrict tz, std::size_t nt,
                            const T* __restrict sx, const T* __restrict sy,
                            const T* __restrict sz, const T* __restrict sq,
                            std::size_t ns, K k, double* __restrict phi,
                            double* __restrict ex, double* __restrict ey,
                            double* __restrict ez) {
  if (nt == 1) {
    accumulate_single<Field>(tx[0], ty[0], tz[0], sx, sy, sz, sq, ns, k,
                             phi[0], Field ? ex[0] : phi[0],
                             Field ? ey[0] : phi[0], Field ? ez[0] : phi[0]);
    return;
  }
  T bx[kTargetTile], by[kTargetTile], bz[kTargetTile];
#if defined(__AVX512F__)
  if constexpr (VectorRadial<K, T>) {
    if (nt < kTargetTile) {
      detail::vector_tile_padded<Field>(tx, ty, tz, nt, sx, sy, sz, sq, ns,
                                        k, phi, ex, ey, ez);
    } else {
      detail::vector_tile<Field>(detail::tile_targets(tx, bx, nt),
                                 detail::tile_targets(ty, by, nt),
                                 detail::tile_targets(tz, bz, nt), sx, sy,
                                 sz, sq, ns, k, phi, ex, ey, ez);
    }
    return;
  }
#endif
  const T* ttx = detail::tile_targets(tx, bx, nt);
  const T* tty = detail::tile_targets(ty, by, nt);
  const T* ttz = detail::tile_targets(tz, bz, nt);
  if constexpr (std::is_same_v<T, double>) {
    detail::tile_block<Field>(ttx, tty, ttz, nt, sx, sy, sz, sq, 0, ns, k,
                              phi, ex, ey, ez);
  } else {
    double accp[kTargetTile] = {};
    double accx[kTargetTile] = {};
    double accy[kTargetTile] = {};
    double accz[kTargetTile] = {};
    for (std::size_t j0 = 0; j0 < ns; j0 += kF32FlushInterval) {
      detail::tile_block<Field>(ttx, tty, ttz, nt, sx, sy, sz, sq, j0,
                                std::min(ns, j0 + kF32FlushInterval), k,
                                accp, accx, accy, accz);
    }
    for (std::size_t t = 0; t < nt; ++t) phi[t] += accp[t];
    if constexpr (Field) {
      for (std::size_t t = 0; t < nt; ++t) ex[t] += accx[t];
      for (std::size_t t = 0; t < nt; ++t) ey[t] += accy[t];
      for (std::size_t t = 0; t < nt; ++t) ez[t] += accz[t];
    }
  }
}

/// Mutual (symmetric) tile for self-interaction dual traversals: a tile of
/// nt targets against ns sources where targets and sources are disjoint
/// ranges of the *same* particle set. Every kernel value is computed once
/// and accumulated into both sides (Newton's third law), halving the
/// near-field kernel evaluations. Source-side results go to the mirror
/// accumulators `sphi`/`sex`/`sey`/`sez` (indexed by source position; the
/// driver points them into the calling block's mirror slot). Tiles of two
/// or more targets of a kernel with a fp64 vector radial form run the
/// AVX-512 mutual skeleton.
template <bool Field, typename K>
inline void accumulate_tile_mutual(
    const double* __restrict tx, const double* __restrict ty,
    const double* __restrict tz, const double* __restrict tq, std::size_t nt,
    const double* __restrict sx, const double* __restrict sy,
    const double* __restrict sz, const double* __restrict sq, std::size_t ns,
    K k, double* __restrict phi, double* __restrict ex,
    double* __restrict ey, double* __restrict ez, double* __restrict sphi,
    double* __restrict sex, double* __restrict sey, double* __restrict sez) {
#if defined(__AVX512F__)
  if constexpr (VectorRadial<K, double>) {
    if (nt == kTargetTile) {
      detail::vector_tile_mutual<Field>(tx, ty, tz, tq, sx, sy, sz, sq, ns,
                                        k, phi, ex, ey, ez, sphi, sex, sey,
                                        sez);
      return;
    }
    if (nt > 1) {
      detail::vector_tile_mutual_padded<Field>(tx, ty, tz, tq, nt, sx, sy,
                                               sz, sq, ns, k, phi, ex, ey, ez,
                                               sphi, sex, sey, sez);
      return;
    }
  }
#endif
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
        const GradValue<double> v = grad_value_masked(k, r2);
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
        const GradValue<double> v = grad_value_masked(k, r2);
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
/// caller scratch of m^3 doubles each.
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

// ---- Plan evaluation (implemented in cpu_kernels.cpp) --------------------
//
// Every evaluation of a plan goes through these: `Solver`, each
// `dist::DistSolver` rank and the serve frontend. They read nothing but the
// plans they are given and keep all mutable scratch in `workspace`, so
// calls with distinct workspaces may run concurrently on one plan.

/// Potentials at the planned targets, in tree order, summing every source
/// piece in piece order (targets.lists[i] lists the targets against
/// sources[i]; a serial call passes one piece, a distributed rank its local
/// plan and then its LET pieces). Adds the eval and launch counts into
/// `stats`. Throws std::logic_error when the pieces and lists disagree.
std::vector<double> evaluate_plan(std::span<const SourcePlan> sources,
                                  const TargetPlan& targets,
                                  const KernelSpec& kernel, RunStats& stats,
                                  CpuWorkspace* workspace = nullptr);

/// Potentials and fields (E = -grad phi) over the same pieces.
FieldResult evaluate_plan_field(std::span<const SourcePlan> sources,
                                const TargetPlan& targets,
                                const KernelSpec& kernel, RunStats& stats,
                                CpuWorkspace* workspace = nullptr);

/// Add the solved mesh far field (kPeriodicMesh) at the planned targets, in
/// tree order, on top of the near field the calls above produced: the
/// B-spline-interpolated potential into `phi` when `field` is null, the
/// potential and analytic-gradient forces into `field` otherwise (`phi` is
/// then unused). `plan` must be solved; the gather only reads it, so
/// concurrent calls may share one plan. Adds the gather's seconds to
/// `stats.mesh_spread_seconds` and sets `stats.mesh_points`.
void mesh_far_field(const mesh::MeshPlan& plan, const TargetPlan& targets,
                    std::vector<double>& phi, FieldResult* field,
                    RunStats& stats);

}  // namespace bltc
