// Parity suite for the blocked evaluation core (core/cpu_kernels.hpp): every
// tile it serves must match a naive scalar reference built on the
// independent evaluate_kernel_gradient helper. Covered: the list driver over
// batched lists — {potential, field} x all six kernel families, each at the
// test's batch cap and at max_batch = 1 (the per-target MAC) — to ~1e-12
// relative error; symmetric self-mode dual lists (the mutual tiles and the
// triangular leaf sum) at the same tolerance; and fp32-tagged far-field
// pairs (the fp32 tiles) at an fp32 tolerance. Batch and leaf caps above
// the tile width reach full kTargetTile tiles and partial tiles of several
// widths; where a kernel has a vector radial form, both run the AVX-512
// vector skeleton (partial tiles padded). The geometry is chosen
// adversarially: batch sizes that are not a multiple of the tile width
// (edge tiles), single-target lists (the nt == 1 path), coincident targets
// and sources (the singular skip convention), and duplicated source points.
#include "core/cpu_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/precision.hpp"
#include "core/tree.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

constexpr double kTol = 1e-12;

/// Per-pair error bound of the AVX-512 erfc tiles. They evaluate erfc(ar)
/// by Abramowitz-Stegun 7.1.26, whose absolute error is below 1.5e-7, where
/// the reference calls std::erfc. So G = erfc(ar)/r is off by at most
/// 1.5e-7/r, and each field component by at most 1.5e-7/r^2 (the error of
/// s = (G + (2a/sqrt(pi)) e^{-a^2 r^2})/r^2 is 1.5e-7/r^3, times |d| <= r).
/// A target's error is therefore at most 1.5e-7 sum_j |q_j|/r_j for phi and
/// 1.5e-7 sum_j |q_j|/r_j^2 per field component; the bound doubles the
/// constant to cover the fp64 rounding of the polynomial and of the
/// Newton-refined 1/r (~1e-16 relative). The vector exp behind the e^{-x^2}
/// factor is fp64-accurate (2.2e-16 relative), so it adds only fp64-level
/// error.
constexpr double kErfcPairError = 2.0 * 1.5e-7;

/// fp32 tile tolerance, relative to sum_j |q_j G_j| (phi) or
/// sum_j |q_j grad G_j| (field). Each fp32 term carries a handful of float
/// roundings (narrowed coordinates and charges, r^2, G, the product: a few
/// eps32 = 6e-8 each, amplified by at most |x|/r ~ 10 at far-field
/// separations), and each flush block of <= 128 terms is summed in float
/// (<= 127 eps32 = 7.6e-6 of its magnitude sum) before the fp64 sum.
constexpr double kFp32Tol = 5e-5;

std::vector<KernelSpec> all_kernels() {
  return {KernelSpec::coulomb(),        KernelSpec::yukawa(0.7),
          KernelSpec::gaussian(0.4),    KernelSpec::multiquadric(0.9),
          KernelSpec::inverse_square(), KernelSpec::coulomb_erfc(1.5)};
}

#if defined(__AVX512F__)
// The kernels whose multi-target tiles the vector skeleton serves.
static_assert(VectorRadial<CoulombKernel, double>);
static_assert(VectorRadial<CoulombKernel, float>);
static_assert(VectorRadial<CoulombErfcKernel, double>);
static_assert(!VectorRadial<CoulombErfcKernel, float>);
static_assert(VectorRadial<YukawaKernel, double>);
static_assert(!VectorRadial<YukawaKernel, float>);
static_assert(VectorRadial<GaussianKernel, double>);
static_assert(!VectorRadial<MultiquadricKernel, double>);
#endif

/// True when some leaf holds a full kTargetTile tile of targets.
bool has_full_tile(const ClusterTree& tree) {
  for (const int leaf : tree.leaf_indices()) {
    if (tree.node(leaf).count() >= kTargetTile) return true;
  }
  return false;
}

/// True when some leaf group with a full kTargetTile tile of targets holds
/// a pair of `kind` (fp32-tagged when `fp32`): that pair runs a full tile.
bool full_tile_runs(const DualInteractionLists& lists,
                    const ClusterTree& target_tree, DualKind kind,
                    bool fp32 = false) {
  for (std::size_t g = 0; g < lists.leaf_nodes.size(); ++g) {
    if (target_tree.node(lists.leaf_nodes[g]).count() < kTargetTile) continue;
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.leaf_pairs[e];
      if (pair.kind == kind && (!fp32 || pair.fp32 != 0)) return true;
    }
  }
  return false;
}

/// The target counts 2 <= nt < kTargetTile of the partial tiles that meet
/// a pair of `kind` (fp32-tagged when `fp32`; off-diagonal in self mode,
/// where the diagonal runs the triangular sum): each runs a padded vector
/// tile where the kernel has a vector form, a mutual one in self mode.
std::set<std::size_t> padded_tile_sizes(const DualInteractionLists& lists,
                                        const ClusterTree& target_tree,
                                        DualKind kind, bool fp32 = false) {
  std::set<std::size_t> sizes;
  for (std::size_t g = 0; g < lists.leaf_nodes.size(); ++g) {
    const std::size_t nt =
        target_tree.node(lists.leaf_nodes[g]).count() % kTargetTile;
    if (nt < 2) continue;
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.leaf_pairs[e];
      if (pair.kind == kind && (!fp32 || pair.fp32 != 0) &&
          !(lists.self && pair.source == lists.leaf_nodes[g])) {
        sizes.insert(nt);
      }
    }
  }
  return sizes;
}

/// Leaves wider than the tile reach padded tiles of several widths on both
/// sides of half a tile (fp64 pads those up to one register, the rest to a
/// full tile); a max_batch = 1 plan reaches none (its one-target lists take
/// the nt == 1 path).
void expect_padded_tiles(const std::set<std::size_t>& sizes,
                         std::size_t max_batch, const char* what) {
  if (max_batch <= kTargetTile) {
    EXPECT_TRUE(sizes.empty()) << what;
    return;
  }
  EXPECT_GE(sizes.size(), 4u) << what;
  const auto half = sizes.upper_bound(kTargetTile / 2);
  EXPECT_TRUE(half != sizes.begin() && half != sizes.end()) << what;
}

/// Shared plan for one (targets, sources) pair: batched interaction lists
/// from the target tree's leaves over the source tree.
struct EvalPlan {
  OrderedParticles src;
  ClusterTree tree;
  ClusterMoments moments;
  OrderedParticles tgt;  ///< permuted by target-tree construction
  ClusterTree target_tree;
  DualInteractionLists lists;

  EvalPlan(const Cloud& targets, const Cloud& sources, double theta, int degree,
           std::size_t max_leaf, std::size_t max_batch,
           PrecisionPolicy precision = PrecisionPolicy::kFp64) {
    src = OrderedParticles::from_cloud(sources);
    TreeParams tp;
    tp.max_leaf = max_leaf;
    tree = ClusterTree::build(src, tp);
    moments = ClusterMoments::compute(tree, src, degree);
    tgt = OrderedParticles::from_cloud(targets);
    tp.max_leaf = max_batch;
    target_tree = ClusterTree::build(tgt, tp);
    lists = build_interaction_lists(target_tree, tree, theta, degree,
                                    nullptr, precision);
  }

  std::vector<double> potential(const KernelSpec& spec, RunStats* stats,
                                CpuWorkspace* ws = nullptr,
                                bool fp32 = false) const {
    return cpu_evaluate_dual(tgt, target_tree, {}, lists, tree, src,
                             {&moments, 1}, spec, nullptr, stats, ws, fp32);
  }
  FieldResult field(const KernelSpec& spec, bool fp32 = false) const {
    return cpu_evaluate_dual_field(tgt, target_tree, {}, lists, tree, src,
                                   {&moments, 1}, spec, nullptr, nullptr,
                                   nullptr, fp32);
  }
};

/// Scalar reference sums at every target, plus the magnitude sums the
/// fp32 and erfc tolerances scale with.
struct RefResult {
  std::vector<double> phi, ex, ey, ez;
  std::vector<double> mag_phi, mag_e;  ///< sum |q G|, sum |q grad G|
  std::vector<double> q_r, q_r2;       ///< sum |q|/r, sum |q|/r^2

  explicit RefResult(std::size_t n)
      : phi(n), ex(n), ey(n), ez(n), mag_phi(n), mag_e(n), q_r(n), q_r2(n) {}

  /// Add the source point (sx, sy, sz) with charge q to target i.
  void add(const KernelSpec& spec, const OrderedParticles& targets,
           std::size_t i, double sx, double sy, double sz, double q) {
    const double tx = targets.x[i], ty = targets.y[i], tz = targets.z[i];
    double g3[3];
    const double g = evaluate_kernel_gradient(spec, tx, ty, tz, sx, sy, sz, g3);
    phi[i] += g * q;
    ex[i] -= g3[0] * q;
    ey[i] -= g3[1] * q;
    ez[i] -= g3[2] * q;
    mag_phi[i] += std::fabs(g * q);
    mag_e[i] += std::sqrt(g3[0] * g3[0] + g3[1] * g3[1] + g3[2] * g3[2]) *
                std::fabs(q);
    const double r2 = (tx - sx) * (tx - sx) + (ty - sy) * (ty - sy) +
                      (tz - sz) * (tz - sz);
    if (r2 > 0.0) {
      q_r[i] += std::fabs(q) / std::sqrt(r2);
      q_r2[i] += std::fabs(q) / r2;
    }
  }
};

/// Naive scalar reference over the lists: every target of every leaf group
/// against its group's pairs — direct particles, or the Chebyshev grid
/// points with their modified charges.
RefResult ref_batched(const KernelSpec& spec, const EvalPlan& s) {
  RefResult out(s.tgt.size());
  for (std::size_t g = 0; g < s.lists.leaf_nodes.size(); ++g) {
    const ClusterNode& leaf = s.target_tree.node(s.lists.leaf_nodes[g]);
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      for (std::size_t e = s.lists.leaf_offsets[g];
           e < s.lists.leaf_offsets[g + 1]; ++e) {
        const DualPair& pair = s.lists.leaf_pairs[e];
        if (pair.kind == DualKind::kDirect) {
          const ClusterNode& node = s.tree.node(pair.source);
          for (std::size_t j = node.begin; j < node.end; ++j) {
            out.add(spec, s.tgt, i, s.src.x[j], s.src.y[j], s.src.z[j],
                    s.src.q[j]);
          }
          continue;
        }
        const auto gx = s.moments.grid(pair.source, 0);
        const auto gy = s.moments.grid(pair.source, 1);
        const auto gz = s.moments.grid(pair.source, 2);
        const auto qhat = s.moments.qhat(pair.source);
        const std::size_t m = gx.size();
        for (std::size_t k1 = 0; k1 < m; ++k1) {
          for (std::size_t k2 = 0; k2 < m; ++k2) {
            for (std::size_t k3 = 0; k3 < m; ++k3) {
              out.add(spec, s.tgt, i, gx[k1], gy[k2], gz[k3],
                      qhat[(k1 * m + k2) * m + k3]);
            }
          }
        }
      }
    }
  }
  return out;
}

/// |got - want| <= kTol (1 + |want|) + slack * scale, elementwise.
void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what,
                  const std::string& kernel, double slack = 0.0,
                  const std::vector<double>* scale = nullptr) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double extra = scale != nullptr ? slack * (*scale)[i] : 0.0;
    EXPECT_NEAR(got[i], want[i], kTol * (1.0 + std::fabs(want[i])) + extra)
        << what << " kernel=" << kernel << " i=" << i;
  }
}

/// The erfc kernel's A&S slack (kErfcPairError); zero for every other
/// kernel, whose tiles match the reference to kTol.
double erfc_slack(const KernelSpec& spec) {
  return spec.type == KernelType::kCoulombErfc ? kErfcPairError : 0.0;
}

/// Potential and field against the reference, one kernel at a time.
void expect_matches(const RefResult& ref, const std::vector<double>& phi,
                    const FieldResult& f, const KernelSpec& spec) {
  const std::string name = spec.name();
  const double slack = erfc_slack(spec);
  expect_close(phi, ref.phi, "potential", name, slack, &ref.q_r);
  expect_close(f.phi, ref.phi, "field phi", name, slack, &ref.q_r);
  expect_close(f.ex, ref.ex, "field ex", name, slack, &ref.q_r2);
  expect_close(f.ey, ref.ey, "field ey", name, slack, &ref.q_r2);
  expect_close(f.ez, ref.ez, "field ez", name, slack, &ref.q_r2);
}

/// Both blocked paths against the reference, one kernel at a time.
void check_all_paths(const EvalPlan& s, const KernelSpec& spec) {
  const RefResult rb = ref_batched(spec, s);
  RunStats stats;
  const auto phi = s.potential(spec, &stats);
  EXPECT_EQ(stats.approx_launches, s.lists.total_pc);
  EXPECT_EQ(stats.direct_launches, s.lists.total_direct);
  expect_matches(rb, phi, s.field(spec), spec);
}

TEST(CpuKernels, ParityDisjointCloudsEdgeTiles) {
  // 403 targets with batch cap 37: every batch ends in an edge tile, and
  // none is a multiple of the tile width.
  const Cloud targets = uniform_cube(403, 11);
  const Cloud sources = uniform_cube(500, 12);
  for (const std::size_t max_batch : {37, 1}) {
    const EvalPlan s(targets, sources, 0.7, 3, 64, max_batch);
    ASSERT_GT(s.lists.total_pc, 0u);
    ASSERT_GT(s.lists.total_direct, 0u);
    ASSERT_EQ(full_tile_runs(s.lists, s.target_tree, DualKind::kDirect),
              max_batch > kTargetTile);
    expect_padded_tiles(
        padded_tile_sizes(s.lists, s.target_tree, DualKind::kDirect),
        max_batch, "direct");
    expect_padded_tiles(
        padded_tile_sizes(s.lists, s.target_tree, DualKind::kPC), max_batch,
        "pc");
    for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
  }
}

TEST(CpuKernels, ParityCoincidentTargetsAndSources) {
  // Targets are the sources: every direct cluster containing the target
  // exercises the singular skip (r2 == 0) in the blocked guard.
  Cloud c = uniform_cube(250, 13);
  // Duplicate some points so r2 == 0 also happens between distinct
  // particles, not only at self-interaction.
  for (std::size_t i = 0; i < 8; ++i) {
    c.x[i + 100] = c.x[i];
    c.y[i + 100] = c.y[i];
    c.z[i + 100] = c.z[i];
  }
  for (const std::size_t max_batch : {41, 1}) {
    const EvalPlan s(c, c, 0.6, 2, 32, max_batch);
    ASSERT_GT(s.lists.total_direct, 0u);
    ASSERT_EQ(full_tile_runs(s.lists, s.target_tree, DualKind::kDirect),
              max_batch > kTargetTile);
    expect_padded_tiles(
        padded_tile_sizes(s.lists, s.target_tree, DualKind::kDirect),
        max_batch, "direct");
    for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
  }
}

TEST(CpuKernels, ParitySingleTargetLists) {
  // One target per batch: the blocked evaluator must fall through to the
  // single-target (simd reduction) path everywhere.
  const Cloud targets = uniform_cube(9, 14);
  const Cloud sources = uniform_cube(300, 15);
  const EvalPlan s(targets, sources, 0.7, 3, 50, 1);
  for (const KernelSpec& spec : all_kernels()) check_all_paths(s, spec);
}

TEST(CpuKernels, ParitySelfModeMutualTiles) {
  // Symmetric self-mode dual lists at theta ~ 0: every pair is direct, so
  // the mutual tiles (off-diagonal leaf pairs, each G feeding both sides)
  // and the triangular diagonal sum must reproduce the scalar direct sum
  // over all pairs. Leaves of up to 40 particles give full and edge tiles;
  // duplicated points put r == 0 inside off-diagonal pairs too.
  Cloud c = uniform_cube(700, 17);
  for (std::size_t i = 0; i < 8; ++i) {
    c.x[i + 300] = c.x[i];
    c.y[i + 300] = c.y[i];
    c.z[i + 300] = c.z[i];
  }
  OrderedParticles p = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = 40;
  const ClusterTree tree = ClusterTree::build(p, tp);
  ASSERT_TRUE(has_full_tile(tree));
  const DualInteractionLists lists =
      build_dual_interaction_lists(tree, tree, 0.05, 2, /*self=*/true);
  ASSERT_TRUE(lists.self);
  ASSERT_EQ(lists.total_pc + lists.total_cp + lists.total_cc, 0u);
  ASSERT_GT(lists.total_direct, tree.num_leaves());  // off-diagonal pairs
  expect_padded_tiles(padded_tile_sizes(lists, tree, DualKind::kDirect),
                      tp.max_leaf, "mutual");
  std::vector<ClusterMoments> grids, moments;
  for (const int degree : lists.ladder) {
    grids.push_back(ClusterMoments::grids_only(tree, degree));
    moments.push_back(ClusterMoments::compute(tree, p, degree));
  }
  for (const KernelSpec& spec : all_kernels()) {
    RefResult ref(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (std::size_t j = 0; j < p.size(); ++j) {
        ref.add(spec, p, i, p.x[j], p.y[j], p.z[j], p.q[j]);
      }
    }
    RunStats stats;
    const auto phi = cpu_evaluate_dual(p, tree, grids, lists, tree, p,
                                       moments, spec, nullptr, &stats);
    EXPECT_EQ(stats.approx_evals + stats.cp_evals + stats.cc_evals, 0.0);
    const FieldResult f = cpu_evaluate_dual_field(p, tree, grids, lists,
                                                  tree, p, moments, spec);
    expect_matches(ref, phi, f, spec);
  }
}

TEST(CpuKernels, ParityFp32TaggedTiles) {
  // kFp32Far tags every admitted far-field pair fp32, so PC pairs run the
  // fp32 tiles (float arithmetic, float flush blocks) while direct pairs
  // stay fp64; at the batch cap (37) full tiles take the fp32 vector
  // skeleton where a kernel has one, at max_batch = 1 the single-target
  // path. The targets sit beside the sources, so the near leaves get
  // direct pairs and the far ones PC pairs; the PC grids of degree 5 (216
  // points) span two flush blocks. Checked against the fp64 reference at
  // kFp32Tol of the magnitude sums (plus the erfc tiles' A&S slack on the
  // fp64 direct pairs).
  Cloud targets = uniform_cube(403, 11);
  for (double& x : targets.x) x += 2.5;
  const Cloud sources = uniform_cube(3000, 12);
  for (const std::size_t max_batch : {37, 1}) {
    const EvalPlan s(targets, sources, 0.7, 5, 64, max_batch,
                     PrecisionPolicy::kFp32Far);
    ASSERT_GT(s.lists.total_fp32, 0u);
    ASSERT_GT(s.lists.total_direct, 0u);
    ASSERT_EQ(full_tile_runs(s.lists, s.target_tree, DualKind::kPC, true),
              max_batch > kTargetTile);
    expect_padded_tiles(
        padded_tile_sizes(s.lists, s.target_tree, DualKind::kPC, true),
        max_batch, "fp32 pc");
    for (const KernelSpec& spec : all_kernels()) {
      const std::string name = spec.name();
      const RefResult ref = ref_batched(spec, s);
      RunStats stats;
      const auto phi = s.potential(spec, &stats, nullptr, /*fp32=*/true);
      EXPECT_GT(stats.fp32_evals, 0.0);
      const FieldResult f = s.field(spec, /*fp32=*/true);
      const double slack = erfc_slack(spec);
      std::vector<double> tol_phi(ref.phi.size()), tol_e(ref.phi.size());
      for (std::size_t i = 0; i < tol_phi.size(); ++i) {
        tol_phi[i] = kFp32Tol * ref.mag_phi[i] + slack * ref.q_r[i];
        tol_e[i] = kFp32Tol * ref.mag_e[i] + slack * ref.q_r2[i];
      }
      expect_close(phi, ref.phi, "fp32 potential", name, 1.0, &tol_phi);
      expect_close(f.phi, ref.phi, "fp32 field phi", name, 1.0, &tol_phi);
      expect_close(f.ex, ref.ex, "fp32 field ex", name, 1.0, &tol_e);
      expect_close(f.ey, ref.ey, "fp32 field ey", name, 1.0, &tol_e);
      expect_close(f.ez, ref.ez, "fp32 field ez", name, 1.0, &tol_e);
    }
  }
}

TEST(CpuKernels, WorkspaceReuseIsDeterministic) {
  // Repeated evaluation through one persistent workspace must return
  // bitwise-identical results (scratch is overwritten, never accumulated).
  const Cloud c = uniform_cube(300, 16);
  const EvalPlan s(c, c, 0.7, 4, 64, 48);
  CpuWorkspace ws;
  const auto a = s.potential(KernelSpec::coulomb(), nullptr, &ws);
  const auto b = s.potential(KernelSpec::coulomb(), nullptr, &ws);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace bltc
