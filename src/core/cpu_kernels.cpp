#include "core/cpu_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "core/barycentric.hpp"
#include "core/chebyshev.hpp"
#include "mesh/mesh.hpp"
#include "util/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bltc {

void CpuWorkspace::ensure_threads() {
#ifdef _OPENMP
  const std::size_t n = static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t n = 1;
#endif
  if (per_thread_.size() < n) per_thread_.resize(n);
  // Expansion caches are only valid within one evaluation: the modified
  // charges behind a cached cluster id may have been rewritten since.
  for (CpuScratch& s : per_thread_) {
    s.f64.cached_cluster = -1;
    s.f32.cached_cluster = -1;
    s.cached_target = -1;
  }
}

CpuScratch& CpuWorkspace::scratch() {
#ifdef _OPENMP
  return per_thread_[static_cast<std::size_t>(omp_get_thread_num())];
#else
  return per_thread_[0];
#endif
}

namespace {

/// One staged source stream a tile call consumes: `n` weighted points of
/// element type `T`.
template <typename T>
struct SourceStream {
  const T* x;
  const T* y;
  const T* z;
  const T* q;
  std::size_t n;
};

/// Expand cluster `ci`'s tensor-product Chebyshev grid into contiguous
/// point streams, adding the entry's lattice shift to the coordinates (the
/// cached moments serve every image; only the staged grid moves). Every
/// value is narrowed to `T` before the shift add. Done once per (list,
/// cluster, shift) visit — hoisted out of the target loop, and amortized
/// over every target tile of the list. `level` is the ladder level
/// `moments` belongs to (0 outside the dual traversal); level and shift id
/// are part of the cache key.
template <typename T>
SourceStream<T> expand_cluster_points(const ClusterMoments& moments, int ci,
                                      StagedSources<T>& staged, int level,
                                      const ResolvedShift& shift) {
  const std::size_t ppc = moments.points_per_cluster();
  if (staged.cached_cluster != ci || staged.cached_cluster_level != level ||
      staged.cached_cluster_shift != shift.id) {
    const auto gx = moments.grid(ci, 0);
    const auto gy = moments.grid(ci, 1);
    const auto gz = moments.grid(ci, 2);
    const auto qhat = moments.qhat(ci);
    const std::size_t m = gx.size();
    const T shx = static_cast<T>(shift.x);
    const T shy = static_cast<T>(shift.y);
    const T shz = static_cast<T>(shift.z);
    staged.ensure(ppc);
    T* __restrict px = staged.px.data();
    T* __restrict py = staged.py.data();
    T* __restrict pz = staged.pz.data();
    T* __restrict pq = staged.pq.data();
    std::size_t p = 0;
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        const double* __restrict qrow = qhat.data() + (k1 * m + k2) * m;
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          px[p] = static_cast<T>(gx[k1]) + shx;
          py[p] = static_cast<T>(gy[k2]) + shy;
          pz[p] = static_cast<T>(gz[k3]) + shz;
          pq[p] = static_cast<T>(qrow[k3]);
          ++p;
        }
      }
    }
    staged.cached_cluster = ci;
    staged.cached_cluster_level = level;
    staged.cached_cluster_shift = shift.id;
  }
  return {staged.px.data(), staged.py.data(), staged.pz.data(),
          staged.pq.data(), ppc};
}

/// One direct-range source stream: the raw arrays for an fp64 home-cell
/// range, otherwise a staged copy narrowed to `T` with the lattice shift
/// added for an image entry.
template <typename T>
SourceStream<T> direct_stream(const OrderedParticles& sources,
                              std::size_t begin, std::size_t count,
                              const ResolvedShift& shift,
                              StagedSources<T>& staged) {
  if constexpr (std::is_same_v<T, double>) {
    if (shift.id == 0) {
      return {sources.x.data() + begin, sources.y.data() + begin,
              sources.z.data() + begin, sources.q.data() + begin, count};
    }
  }
  staged.ensure_direct(count);
  T* __restrict sx = staged.sx.data();
  T* __restrict sy = staged.sy.data();
  T* __restrict sz = staged.sz.data();
  T* __restrict sq = staged.sq.data();
  for (std::size_t j = 0; j < count; ++j) {
    sx[j] = static_cast<T>(sources.x[begin + j]);
    sy[j] = static_cast<T>(sources.y[begin + j]);
    sz[j] = static_cast<T>(sources.z[begin + j]);
    sq[j] = static_cast<T>(sources.q[begin + j]);
  }
  if (shift.id != 0) {
    const T shx = static_cast<T>(shift.x);
    const T shy = static_cast<T>(shift.y);
    const T shz = static_cast<T>(shift.z);
    for (std::size_t j = 0; j < count; ++j) {
      sx[j] += shx;
      sy[j] += shy;
      sz[j] += shz;
    }
  }
  return {sx, sy, sz, sq, count};
}

/// Run `f` on the calling thread's staged buffers of the tile precision an
/// interaction executes in: fp32 when tagged and allowed, else fp64.
template <typename F>
decltype(auto) with_staged(bool f32, CpuScratch& scratch, F&& f) {
  return f32 ? f(scratch.f32) : f(scratch.f64);
}

/// Sweep targets [begin, end) tile by tile against one staged stream; the
/// stream's element type selects fp64 or fp32 arithmetic. Returns the
/// stream length (the evals per target).
template <bool Field, typename T, typename K>
inline std::size_t sweep_targets(const double* tx, const double* ty,
                                 const double* tz, std::size_t begin,
                                 std::size_t end, const SourceStream<T>& src,
                                 K k, double* phi, double* ex, double* ey,
                                 double* ez) {
  for (std::size_t t0 = begin; t0 < end; t0 += kTargetTile) {
    const std::size_t nt = std::min(kTargetTile, end - t0);
    accumulate_tile<Field>(tx + t0, ty + t0, tz + t0, nt, src.x, src.y, src.z,
                           src.q, src.n, k, phi + t0,
                           Field ? ex + t0 : nullptr,
                           Field ? ey + t0 : nullptr,
                           Field ? ez + t0 : nullptr);
  }
  return src.n;
}

/// Expand target node `ti`'s tensor-product Chebyshev grid into contiguous
/// coordinate streams (the "targets" a CP/CC tile call consumes).
std::size_t expand_target_grid(const ClusterMoments& grids, int ti,
                               CpuScratch& scratch, int level) {
  const std::size_t ppc = grids.points_per_cluster();
  if (scratch.cached_target == ti && scratch.cached_target_level == level) {
    return ppc;
  }
  const auto gx = grids.grid(ti, 0);
  const auto gy = grids.grid(ti, 1);
  const auto gz = grids.grid(ti, 2);
  const std::size_t m = gx.size();
  scratch.ensure_target(ppc);
  double* __restrict tx = scratch.tgx.data();
  double* __restrict ty = scratch.tgy.data();
  double* __restrict tz = scratch.tgz.data();
  std::size_t p = 0;
  for (std::size_t k1 = 0; k1 < m; ++k1) {
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      for (std::size_t k3 = 0; k3 < m; ++k3) {
        tx[p] = gx[k1];
        ty[p] = gy[k2];
        tz[p] = gz[k3];
        ++p;
      }
    }
  }
  scratch.cached_target = ti;
  scratch.cached_target_level = level;
  return ppc;
}

}  // namespace

void dual_transfer_apply(const double* __restrict parent,
                         double* __restrict child,
                         const double* __restrict b1,
                         const double* __restrict b2,
                         const double* __restrict b3, std::size_t m,
                         double* tmp1, double* tmp2) {
  const std::size_t mm = m * m;
  std::fill(tmp1, tmp1 + mm * m, 0.0);
  for (std::size_t k1 = 0; k1 < m; ++k1) {
    for (std::size_t m1 = 0; m1 < m; ++m1) {
      const double c = b1[k1 * m + m1];
      if (c == 0.0) continue;
      const double* __restrict src = parent + m1 * mm;
      double* __restrict dst = tmp1 + k1 * mm;
#pragma omp simd
      for (std::size_t i = 0; i < mm; ++i) dst[i] += c * src[i];
    }
  }
  std::fill(tmp2, tmp2 + mm * m, 0.0);
  for (std::size_t k1 = 0; k1 < m; ++k1) {
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      double* __restrict dst = tmp2 + (k1 * m + k2) * m;
      for (std::size_t m2 = 0; m2 < m; ++m2) {
        const double c = b2[k2 * m + m2];
        if (c == 0.0) continue;
        const double* __restrict src = tmp1 + (k1 * m + m2) * m;
#pragma omp simd
        for (std::size_t i = 0; i < m; ++i) dst[i] += c * src[i];
      }
    }
  }
  for (std::size_t r = 0; r < mm; ++r) {
    const double* __restrict src = tmp2 + r * m;
    double* __restrict dst = child + r * m;
    for (std::size_t k3 = 0; k3 < m; ++k3) {
      const double* __restrict brow = b3 + k3 * m;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (std::size_t j = 0; j < m; ++j) acc += brow[j] * src[j];
      dst[k3] += acc;
    }
  }
}

namespace {

/// Number of work blocks the self-mode leaf phase splits its leaf groups
/// into. A constant, not a function of the thread count: the blocks fix
/// the mirror accumulation order, so the results are the same at any
/// thread count.
inline constexpr std::size_t kMirrorBlocks = 8;

/// The leaf phase's work blocks. Block b runs leaf groups
/// [group[b], group[b+1]) start to finish on one thread. In self mode its
/// mirror slot holds rows [slot[b], slot[b+1]) of the workspace's
/// DualMirror, standing for source particles from lo[b] on (`lo` and
/// `slot` stay empty otherwise). `order` lists the blocks largest
/// leaf-phase work first, so the parallel tail is made of the cheapest
/// blocks instead of whichever heavyweight the schedule dealt last.
struct LeafBlocks {
  std::vector<std::size_t> group;
  std::vector<std::size_t> lo;
  std::vector<std::size_t> slot;
  std::vector<std::size_t> order;
  std::size_t size() const { return group.size() - 1; }
};

/// One block per leaf group, or in self mode at most kMirrorBlocks
/// contiguous blocks of about equal leaf-phase kernel evaluations, each
/// with a mirror slot spanning the source ranges of its symmetric direct
/// pairs. PC pairs cost their source ladder level's points per cluster.
/// Depends on the lists, trees and ladder alone.
LeafBlocks plan_leaf_blocks(const DualInteractionLists& lists,
                            const ClusterTree& ttree,
                            const ClusterTree& stree,
                            std::span<const ClusterMoments> mlevels) {
  const std::size_t nleaf = lists.leaf_nodes.size();
  std::vector<double> work(nleaf, 0.0);
  double total = 0.0;
  for (std::size_t g = 0; g < nleaf; ++g) {
    const double count =
        static_cast<double>(ttree.node(lists.leaf_nodes[g]).count());
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.leaf_pairs[e];
      work[g] += count * static_cast<double>(
                             pair.kind == DualKind::kPC
                                 ? mlevels[pair.level].points_per_cluster()
                                 : stree.node(pair.source).count());
    }
    total += work[g];
  }

  LeafBlocks blocks;
  std::vector<double> cost;
  if (!lists.self) {
    blocks.group.resize(nleaf + 1);
    std::iota(blocks.group.begin(), blocks.group.end(), std::size_t{0});
    cost = std::move(work);
  } else {
    const std::size_t nblocks = std::min(kMirrorBlocks, nleaf);
    blocks.group.push_back(0);
    double done = 0.0;
    for (std::size_t g = 0; g < nleaf && blocks.group.size() < nblocks; ++g) {
      done += work[g];
      if (done >= total * static_cast<double>(blocks.group.size()) /
                      static_cast<double>(nblocks)) {
        blocks.group.push_back(g + 1);
      }
    }
    blocks.group.push_back(nleaf);

    blocks.slot.push_back(0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      std::size_t lo = std::numeric_limits<std::size_t>::max(), hi = 0;
      double block_work = 0.0;
      for (std::size_t g = blocks.group[b]; g < blocks.group[b + 1]; ++g) {
        block_work += work[g];
        for (std::size_t e = lists.leaf_offsets[g];
             e < lists.leaf_offsets[g + 1]; ++e) {
          const DualPair& pair = lists.leaf_pairs[e];
          if (pair.kind != DualKind::kDirect ||
              pair.source == lists.leaf_nodes[g]) {
            continue;
          }
          const ClusterNode& s = stree.node(pair.source);
          lo = std::min(lo, s.begin);
          hi = std::max(hi, s.end);
        }
      }
      if (hi < lo) lo = hi = 0;
      blocks.lo.push_back(lo);
      blocks.slot.push_back(blocks.slot.back() + (hi - lo));
      cost.push_back(block_work);
    }
  }
  blocks.order.resize(blocks.size());
  std::iota(blocks.order.begin(), blocks.order.end(), std::size_t{0});
  std::stable_sort(blocks.order.begin(), blocks.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return blocks;
}

/// The list driver behind cpu_evaluate_dual{,_field}: CC/CP onto target
/// grids (parallel over disjoint grid groups), downward pass, then
/// PC/direct per target leaf (parallel over disjoint particle ranges).
/// Batched lists hold no grid pairs, so only the leaf phase runs.
template <bool Field, typename K>
void run_dual(const OrderedParticles& targets, const ClusterTree& ttree,
              std::span<const ClusterMoments> tgrids,
              const DualInteractionLists& lists, const ClusterTree& stree,
              const OrderedParticles& sources,
              std::span<const ClusterMoments> mlevels, K k, CpuWorkspace& ws,
              const ShiftTable* shifts, bool fp32, double* __restrict phi,
              double* __restrict ex, double* __restrict ey,
              double* __restrict ez, RunStats* stats) {
  const std::size_t nn = ttree.num_nodes();
  const std::size_t nlevels = tgrids.size();

  // Per-level grid-potential storage: level l's hat rows live at
  // hat_off[l] + node * lppc[l].
  std::vector<std::size_t> lppc(nlevels), hat_off(nlevels);
  std::size_t total = 0;
  for (std::size_t l = 0; l < nlevels; ++l) {
    lppc[l] = tgrids[l].points_per_cluster();
    hat_off[l] = total;
    total += nn * lppc[l];
  }

  ws.ensure_threads();
  auto& hats = ws.hats();
  hats.phi.assign(total, 0.0);
  if constexpr (Field) {
    hats.ex.assign(total, 0.0);
    hats.ey.assign(total, 0.0);
    hats.ez.assign(total, 0.0);
  }
  hats.flag.assign(nlevels * nn, 0);  // flag[l * nn + node]
  for (const DualPair& pair : lists.grid_pairs) {
    hats.flag[static_cast<std::size_t>(pair.level) * nn +
              static_cast<std::size_t>(pair.target)] = 1;
  }

  double approx_evals = 0.0, direct_evals = 0.0;
  double cp_evals = 0.0, cc_evals = 0.0;
  double fp32_evals = 0.0;
  std::size_t approx_launches = 0, direct_launches = 0;
  std::size_t cp_launches = 0, cc_launches = 0;

  // --- Phase 1: CC/CP accumulation onto target grids. Groups own disjoint
  // grid rows (every level of one node belongs to exactly one group), so
  // the parallel loop is race-free.
  const std::size_t ngrid = lists.grid_nodes.size();
#pragma omp parallel for schedule(guided) \
    reduction(+ : cp_evals, cc_evals, fp32_evals, cp_launches, cc_launches)
  for (std::size_t g = 0; g < ngrid; ++g) {
    const int ti = lists.grid_nodes[g];
    CpuScratch& scratch = ws.scratch();

    for (std::size_t e = lists.grid_offsets[g]; e < lists.grid_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.grid_pairs[e];
      const std::size_t level = pair.level;
      const std::size_t p = lppc[level];
      expand_target_grid(tgrids[level], ti, scratch,
                         static_cast<int>(level));
      const double* tx = scratch.tgx.data();
      const double* ty = scratch.tgy.data();
      const double* tz = scratch.tgz.data();
      const std::size_t row = hat_off[level] + static_cast<std::size_t>(ti) * p;
      double* hp = hats.phi.data() + row;
      double* hx = Field ? hats.ex.data() + row : nullptr;
      double* hy = Field ? hats.ey.data() + row : nullptr;
      double* hz = Field ? hats.ez.data() + row : nullptr;

      const ResolvedShift shift = resolve_pair_shift(shifts, pair);
      const bool f32 = fp32 && pair.fp32 != 0;
      const std::size_t npts = with_staged(f32, scratch, [&](auto& staged) {
        // kCC: the source cluster's proxy points; kCP: its particles, both
        // evaluated at the target grid.
        const ClusterNode& s = stree.node(pair.source);
        return sweep_targets<Field>(
            tx, ty, tz, 0, p,
            pair.kind == DualKind::kCC
                ? expand_cluster_points(mlevels[level], pair.source, staged,
                                        static_cast<int>(level), shift)
                : direct_stream(sources, s.begin, s.count(), shift, staged),
            k, hp, hx, hy, hz);
      });
      const double evals = static_cast<double>(p) * static_cast<double>(npts);
      if (f32) fp32_evals += evals;
      if (pair.kind == DualKind::kCC) {
        cc_evals += evals;
        ++cc_launches;
      } else {
        cp_evals += evals;
        ++cp_launches;
      }
    }
  }

  // --- Phase 2 + 3, per ladder level: downward propagation (parents into
  // children; node indices are parent-before-child by construction, so one
  // ascending sweep reaches the leaves), then leaf grids interpolate to
  // their particles (disjoint ranges; race-free in parallel).
  for (std::size_t level = 0; level < nlevels; ++level) {
    const ClusterMoments& grids = tgrids[level];
    const std::size_t p = lppc[level];
    const int degree = grids.degree();
    const std::size_t m = static_cast<std::size_t>(degree) + 1;
    const std::vector<double> w = chebyshev2_weights(degree);
    unsigned char* flag = hats.flag.data() + level * nn;
    double* hat_phi = hats.phi.data() + hat_off[level];
    double* hat_ex = Field ? hats.ex.data() + hat_off[level] : nullptr;
    double* hat_ey = Field ? hats.ey.data() + hat_off[level] : nullptr;
    double* hat_ez = Field ? hats.ez.data() + hat_off[level] : nullptr;

    std::vector<double> b1(m * m), b2(m * m), b3(m * m);
    std::vector<double> tmp1(p), tmp2(p);
    for (std::size_t ni = 0; ni < nn; ++ni) {
      if (!flag[ni]) continue;
      const ClusterNode& node = ttree.node(static_cast<int>(ni));
      if (node.is_leaf()) continue;
      const auto pgx = grids.grid(static_cast<int>(ni), 0);
      const auto pgy = grids.grid(static_cast<int>(ni), 1);
      const auto pgz = grids.grid(static_cast<int>(ni), 2);
      for (int c = 0; c < node.num_children; ++c) {
        const int ci = node.children[static_cast<std::size_t>(c)];
        const auto cgx = grids.grid(ci, 0);
        const auto cgy = grids.grid(ci, 1);
        const auto cgz = grids.grid(ci, 2);
        for (std::size_t kp = 0; kp < m; ++kp) {
          barycentric_basis(pgx, w, cgx[kp], {b1.data() + kp * m, m});
          barycentric_basis(pgy, w, cgy[kp], {b2.data() + kp * m, m});
          barycentric_basis(pgz, w, cgz[kp], {b3.data() + kp * m, m});
        }
        const std::size_t prow = ni * p;
        const std::size_t crow = static_cast<std::size_t>(ci) * p;
        dual_transfer_apply(hat_phi + prow, hat_phi + crow, b1.data(), b2.data(),
                       b3.data(), m, tmp1.data(), tmp2.data());
        if constexpr (Field) {
          dual_transfer_apply(hat_ex + prow, hat_ex + crow, b1.data(), b2.data(),
                         b3.data(), m, tmp1.data(), tmp2.data());
          dual_transfer_apply(hat_ey + prow, hat_ey + crow, b1.data(), b2.data(),
                         b3.data(), m, tmp1.data(), tmp2.data());
          dual_transfer_apply(hat_ez + prow, hat_ez + crow, b1.data(), b2.data(),
                         b3.data(), m, tmp1.data(), tmp2.data());
        }
        flag[static_cast<std::size_t>(ci)] = 1;
      }
    }

    std::vector<int> flagged_leaves;
    for (std::size_t ni = 0; ni < nn; ++ni) {
      if (flag[ni] && ttree.node(static_cast<int>(ni)).is_leaf() &&
          ttree.node(static_cast<int>(ni)).count() > 0) {
        flagged_leaves.push_back(static_cast<int>(ni));
      }
    }
#pragma omp parallel for schedule(dynamic)
    for (std::size_t fi = 0; fi < flagged_leaves.size(); ++fi) {
      const int li = flagged_leaves[fi];
      const ClusterNode& node = ttree.node(li);
      const auto gx = grids.grid(li, 0);
      const auto gy = grids.grid(li, 1);
      const auto gz = grids.grid(li, 2);
      const std::size_t row = static_cast<std::size_t>(li) * p;
      const double* hp = hat_phi + row;
      const double* hx = Field ? hat_ex + row : nullptr;
      const double* hy = Field ? hat_ey + row : nullptr;
      const double* hz = Field ? hat_ez + row : nullptr;
      std::vector<double> l1(m), l2(m), l3(m);
      for (std::size_t i = node.begin; i < node.end; ++i) {
        barycentric_basis(gx, w, targets.x[i], l1);
        barycentric_basis(gy, w, targets.y[i], l2);
        barycentric_basis(gz, w, targets.z[i], l3);
        double accp = 0.0, accx = 0.0, accy = 0.0, accz = 0.0;
        for (std::size_t k1 = 0; k1 < m; ++k1) {
          if (l1[k1] == 0.0) continue;
          for (std::size_t k2 = 0; k2 < m; ++k2) {
            const double a = l1[k1] * l2[k2];
            if (a == 0.0) continue;
            const std::size_t off = (k1 * m + k2) * m;
            for (std::size_t k3 = 0; k3 < m; ++k3) {
              const double c = a * l3[k3];
              accp += c * hp[off + k3];
              if constexpr (Field) {
                accx += c * hx[off + k3];
                accy += c * hy[off + k3];
                accz += c * hz[off + k3];
              }
            }
          }
        }
        phi[i] += accp;
        if constexpr (Field) {
          ex[i] += accx;
          ey[i] += accy;
          ez[i] += accz;
        }
      }
    }
  }

  // --- Phase 4: PC/direct pairs straight onto target particles, grouped by
  // target leaf and run in blocks of whole groups (disjoint ranges;
  // race-free in parallel). In self mode,
  // direct pairs are symmetric: the target-side writes stay group-local,
  // the source-side (mirror) writes go to the mirror slot of the fixed
  // block that runs the group, and the slots are folded into the outputs
  // in block order — so every particle's sum runs in the same order at any
  // thread count.
  const LeafBlocks blocks = plan_leaf_blocks(lists, ttree, stree, mlevels);
  auto& mirror = ws.mirror();
  if (lists.self) {
    mirror.phi.assign(blocks.slot.back(), 0.0);
    if constexpr (Field) {
      mirror.ex.assign(blocks.slot.back(), 0.0);
      mirror.ey.assign(blocks.slot.back(), 0.0);
      mirror.ez.assign(blocks.slot.back(), 0.0);
    }
  }
  const std::size_t nblocks = blocks.size();
#pragma omp parallel for schedule(dynamic) \
    reduction(+ : approx_evals, direct_evals, fp32_evals, approx_launches, \
                  direct_launches)
  for (std::size_t o = 0; o < nblocks; ++o) {
    const std::size_t b = blocks.order[o];
    CpuScratch& scratch = ws.scratch();
    const double* tx = targets.x.data();
    const double* ty = targets.y.data();
    const double* tz = targets.z.data();
    // Self mode: target and source orders are identical, but only the
    // *source* particles see update_charges — the target plan caches the
    // coordinates+charges it was planned with. The symmetric paths read
    // the target-side charges from the live source array.
    const double* tq = lists.self ? sources.q.data() : targets.q.data();

    for (std::size_t g = blocks.group[b]; g < blocks.group[b + 1]; ++g) {
      const ClusterNode& node = ttree.node(lists.leaf_nodes[g]);
      const std::size_t begin = node.begin;
      const std::size_t end = node.end;
      const double count = static_cast<double>(end - begin);

      for (std::size_t e = lists.leaf_offsets[g];
           e < lists.leaf_offsets[g + 1]; ++e) {
        const DualPair& pair = lists.leaf_pairs[e];
        if (pair.kind == DualKind::kPC) {
          const bool f32 = fp32 && pair.fp32 != 0;
          const std::size_t npts =
              with_staged(f32, scratch, [&](auto& staged) {
                return sweep_targets<Field>(
                    tx, ty, tz, begin, end,
                    expand_cluster_points(mlevels[pair.level], pair.source,
                                          staged,
                                          static_cast<int>(pair.level),
                                          resolve_pair_shift(shifts, pair)),
                    k, phi, ex, ey, ez);
              });
          const double evals = count * static_cast<double>(npts);
          approx_evals += evals;
          if (f32) fp32_evals += evals;
          ++approx_launches;
        } else if (!lists.self) {  // one-directional direct
          const ClusterNode& s = stree.node(pair.source);
          sweep_targets<Field>(tx, ty, tz, begin, end,
                               direct_stream(sources, s.begin, s.count(),
                                             resolve_pair_shift(shifts, pair),
                                             scratch.f64),
                               k, phi, ex, ey, ez);
          direct_evals += count * static_cast<double>(s.count());
          ++direct_launches;
        } else if (pair.source == lists.leaf_nodes[g]) {
          // Diagonal self-pair: triangular sum within the leaf.
          accumulate_range_self<Field>(
              tx + begin, ty + begin, tz + begin, tq + begin, end - begin, k,
              phi + begin, Field ? ex + begin : nullptr,
              Field ? ey + begin : nullptr, Field ? ez + begin : nullptr);
          direct_evals += count * (count - 1.0) / 2.0;
          ++direct_launches;
        } else {
          // Symmetric off-diagonal direct: each G feeds both leaves; the
          // source side lands in this block's mirror slot.
          const ClusterNode& s = stree.node(pair.source);
          const std::size_t m0 = blocks.slot[b] + (s.begin - blocks.lo[b]);
          for (std::size_t t0 = begin; t0 < end; t0 += kTargetTile) {
            const std::size_t nt = std::min(kTargetTile, end - t0);
            accumulate_tile_mutual<Field>(
                tx + t0, ty + t0, tz + t0, tq + t0, nt,
                sources.x.data() + s.begin, sources.y.data() + s.begin,
                sources.z.data() + s.begin, sources.q.data() + s.begin,
                s.count(), k, phi + t0, Field ? ex + t0 : nullptr,
                Field ? ey + t0 : nullptr, Field ? ez + t0 : nullptr,
                mirror.phi.data() + m0,
                Field ? mirror.ex.data() + m0 : nullptr,
                Field ? mirror.ey.data() + m0 : nullptr,
                Field ? mirror.ez.data() + m0 : nullptr);
          }
          direct_evals += count * static_cast<double>(s.count());
          ++direct_launches;
        }
      }
    }
  }

  // Mirror fold (self mode): every particle adds the slots that cover it,
  // in block order.
  if (lists.self) {
    const std::size_t n = targets.size();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < nblocks; ++b) {
        if (i < blocks.lo[b]) continue;
        const std::size_t r = blocks.slot[b] + (i - blocks.lo[b]);
        if (r >= blocks.slot[b + 1]) continue;
        phi[i] += mirror.phi[r];
        if constexpr (Field) {
          ex[i] += mirror.ex[r];
          ey[i] += mirror.ey[r];
          ez[i] += mirror.ez[r];
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->approx_evals += approx_evals;
    stats->direct_evals += direct_evals;
    stats->approx_launches += approx_launches;
    stats->direct_launches += direct_launches;
    stats->cp_evals += cp_evals;
    stats->cc_evals += cc_evals;
    stats->cp_launches += cp_launches;
    stats->cc_launches += cc_launches;
    stats->fp32_evals += fp32_evals;
    stats->fp64_evals +=
        approx_evals + direct_evals + cp_evals + cc_evals - fp32_evals;
  }
}

}  // namespace

std::vector<double> cpu_evaluate_dual(
    const OrderedParticles& targets, const ClusterTree& target_tree,
    std::span<const ClusterMoments> target_grids,
    const DualInteractionLists& lists, const ClusterTree& source_tree,
    const OrderedParticles& sources,
    std::span<const ClusterMoments> moment_levels, const KernelSpec& kernel,
    const ShiftTable* shifts, RunStats* stats,
    CpuWorkspace* workspace, bool fp32) {
  std::vector<double> phi(targets.size(), 0.0);
  CpuWorkspace local;
  CpuWorkspace& ws = workspace != nullptr ? *workspace : local;
  with_kernel(kernel, [&](auto k) {
    run_dual<false>(targets, target_tree, target_grids, lists, source_tree,
                    sources, moment_levels, k, ws, shifts, fp32, phi.data(),
                    nullptr, nullptr, nullptr, stats);
  });
  return phi;
}

FieldResult cpu_evaluate_dual_field(
    const OrderedParticles& targets, const ClusterTree& target_tree,
    std::span<const ClusterMoments> target_grids,
    const DualInteractionLists& lists, const ClusterTree& source_tree,
    const OrderedParticles& sources,
    std::span<const ClusterMoments> moment_levels, const KernelSpec& kernel,
    const ShiftTable* shifts, RunStats* stats,
    CpuWorkspace* workspace, bool fp32) {
  FieldResult out;
  out.phi.assign(targets.size(), 0.0);
  out.ex.assign(targets.size(), 0.0);
  out.ey.assign(targets.size(), 0.0);
  out.ez.assign(targets.size(), 0.0);
  CpuWorkspace local;
  CpuWorkspace& ws = workspace != nullptr ? *workspace : local;
  with_kernel(kernel, [&](auto k) {
    run_dual<true>(targets, target_tree, target_grids, lists, source_tree,
                   sources, moment_levels, k, ws, shifts, fp32,
                   out.phi.data(), out.ex.data(), out.ey.data(),
                   out.ez.data(), stats);
  });
  return out;
}

namespace {

/// Elementwise `acc += contribution` (piece contributions sum into the
/// first piece's result; sizes match).
void add_into(std::vector<double>& acc,
              const std::vector<double>& contribution) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += contribution[i];
}

void add_into(FieldResult& acc, const FieldResult& contribution) {
  add_into(acc.phi, contribution.phi);
  add_into(acc.ex, contribution.ex);
  add_into(acc.ey, contribution.ey);
  add_into(acc.ez, contribution.ez);
}

/// The one body behind evaluate_plan and evaluate_plan_field.
template <bool Field>
std::conditional_t<Field, FieldResult, std::vector<double>> evaluate_pieces(
    std::span<const SourcePlan> sources, const TargetPlan& targets,
    const KernelSpec& kernel, RunStats& stats, CpuWorkspace* workspace) {
  if (sources.empty() || targets.lists.size() != sources.size()) {
    throw std::logic_error(
        "evaluate_plan: one interaction list per source piece expected");
  }
  const auto eval_piece = [&](std::size_t index) {
    const SourcePlan& piece = sources[index];
    const SourcePlanState& plan = *piece.plan;
    const DualInteractionLists& lists = targets.lists[index];
    if (lists.ladder.size() > piece.moment_levels.size()) {
      throw std::logic_error(
          "evaluate_plan: the lists reference more moment-ladder levels "
          "than the source piece provides");
    }
    if constexpr (Field) {
      return cpu_evaluate_dual_field(
          *targets.particles, *targets.tree, targets.grids, lists, plan.tree,
          plan.particles, piece.moment_levels, kernel, targets.shifts, &stats,
          workspace, piece.fp32);
    } else {
      return cpu_evaluate_dual(*targets.particles, *targets.tree,
                               targets.grids, lists, plan.tree,
                               plan.particles, piece.moment_levels, kernel,
                               targets.shifts, &stats, workspace, piece.fp32);
    }
  };
  // Pieces in order: the fixed accumulation order keeps the result
  // deterministic.
  auto out = eval_piece(0);
  for (std::size_t p = 1; p < sources.size(); ++p) {
    add_into(out, eval_piece(p));
  }
  return out;
}

}  // namespace

std::vector<double> evaluate_plan(std::span<const SourcePlan> sources,
                                  const TargetPlan& targets,
                                  const KernelSpec& kernel, RunStats& stats,
                                  CpuWorkspace* workspace) {
  return evaluate_pieces<false>(sources, targets, kernel, stats, workspace);
}

FieldResult evaluate_plan_field(std::span<const SourcePlan> sources,
                                const TargetPlan& targets,
                                const KernelSpec& kernel, RunStats& stats,
                                CpuWorkspace* workspace) {
  return evaluate_pieces<true>(sources, targets, kernel, stats, workspace);
}

void mesh_far_field(const mesh::MeshPlan& plan, const TargetPlan& targets,
                    std::vector<double>& phi, FieldResult* field,
                    RunStats& stats) {
  WallTimer timer;
  if (field != nullptr) {
    plan.add_field(*targets.particles, *field);
  } else {
    plan.add_potential(*targets.particles, phi);
  }
  stats.mesh_spread_seconds += timer.seconds();
  stats.mesh_points = plan.grid_points();
}

}  // namespace bltc
