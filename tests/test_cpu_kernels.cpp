// Parity suite for the blocked evaluation core (core/cpu_kernels.hpp): the
// list driver over batched lists — {potential, field} x all five kernel
// families, each at the test's batch cap and at max_batch = 1 (the
// per-target MAC) — must match a naive scalar reference built on the
// independent evaluate_kernel / evaluate_kernel_gradient helpers to ~1e-12
// relative error. The geometry is chosen adversarially: batch sizes that
// are not a multiple of the tile width (edge tiles), single-target lists
// (the nt == 1 path), coincident targets and sources (the singular skip
// convention), and duplicated source points.
#include "core/cpu_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/tree.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

constexpr double kTol = 1e-12;

std::vector<KernelSpec> all_kernels() {
  return {KernelSpec::coulomb(), KernelSpec::yukawa(0.7),
          KernelSpec::gaussian(0.4), KernelSpec::multiquadric(0.9),
          KernelSpec::inverse_square()};
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
        std::size_t max_leaf, std::size_t max_batch) {
    src = OrderedParticles::from_cloud(sources);
    TreeParams tp;
    tp.max_leaf = max_leaf;
    tree = ClusterTree::build(src, tp);
    moments = ClusterMoments::compute(tree, src, degree);
    tgt = OrderedParticles::from_cloud(targets);
    tp.max_leaf = max_batch;
    target_tree = ClusterTree::build(tgt, tp);
    lists = build_interaction_lists(target_tree, tree, theta, degree);
  }

  std::vector<double> potential(const KernelSpec& spec, RunStats* stats,
                                CpuWorkspace* ws = nullptr) const {
    return cpu_evaluate_dual(tgt, target_tree, {}, lists, tree, src,
                             {&moments, 1}, spec, nullptr, stats, ws);
  }
};

/// Naive scalar reference: accumulate one leaf group's pairs (`begin` to
/// `end` of the lists' leaf pairs) into target i, through the scalar kernel
/// helpers (independent of the blocked core).
void ref_accumulate(const KernelSpec& spec, const OrderedParticles& targets,
                    std::size_t i, const DualInteractionLists& lists,
                    std::size_t begin, std::size_t end,
                    const ClusterTree& tree, const OrderedParticles& src,
                    const ClusterMoments& moments, double& phi, double& ex,
                    double& ey, double& ez) {
  const double txi = targets.x[i], tyi = targets.y[i], tzi = targets.z[i];
  double g3[3];
  for (std::size_t e = begin; e < end; ++e) {
    const DualPair& pair = lists.leaf_pairs[e];
    const int ci = pair.source;
    if (pair.kind == DualKind::kDirect) {
      const ClusterNode& node = tree.node(ci);
      for (std::size_t j = node.begin; j < node.end; ++j) {
        const double q = src.q[j];
        phi += evaluate_kernel_gradient(spec, txi, tyi, tzi, src.x[j],
                                        src.y[j], src.z[j], g3) *
               q;
        ex -= g3[0] * q;
        ey -= g3[1] * q;
        ez -= g3[2] * q;
      }
      continue;
    }
    const auto gx = moments.grid(ci, 0);
    const auto gy = moments.grid(ci, 1);
    const auto gz = moments.grid(ci, 2);
    const auto qhat = moments.qhat(ci);
    const std::size_t m = gx.size();
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          const double q = qhat[(k1 * m + k2) * m + k3];
          phi += evaluate_kernel_gradient(spec, txi, tyi, tzi, gx[k1],
                                          gy[k2], gz[k3], g3) *
                 q;
          ex -= g3[0] * q;
          ey -= g3[1] * q;
          ez -= g3[2] * q;
        }
      }
    }
  }
}

struct RefResult {
  std::vector<double> phi, ex, ey, ez;
};

RefResult ref_batched(const KernelSpec& spec, const EvalPlan& s) {
  RefResult out;
  const std::size_t n = s.tgt.size();
  out.phi.assign(n, 0.0);
  out.ex.assign(n, 0.0);
  out.ey.assign(n, 0.0);
  out.ez.assign(n, 0.0);
  for (std::size_t g = 0; g < s.lists.leaf_nodes.size(); ++g) {
    const ClusterNode& leaf = s.target_tree.node(s.lists.leaf_nodes[g]);
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      ref_accumulate(spec, s.tgt, i, s.lists, s.lists.leaf_offsets[g],
                     s.lists.leaf_offsets[g + 1], s.tree, s.src, s.moments,
                     out.phi[i], out.ex[i], out.ey[i], out.ez[i]);
    }
  }
  return out;
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, const char* what,
                  const std::string& kernel) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], kTol * (1.0 + std::fabs(want[i])))
        << what << " kernel=" << kernel << " i=" << i;
  }
}

/// Both blocked paths against the reference, one kernel at a time.
void check_all_paths(const EvalPlan& s, const KernelSpec& spec) {
  const std::string name = spec.name();
  const RefResult rb = ref_batched(spec, s);

  RunStats stats;
  const auto phi = s.potential(spec, &stats);
  expect_close(phi, rb.phi, "batched potential", name);
  EXPECT_EQ(stats.approx_launches, s.lists.total_pc);
  EXPECT_EQ(stats.direct_launches, s.lists.total_direct);

  const auto f = cpu_evaluate_dual_field(s.tgt, s.target_tree, {}, s.lists,
                                         s.tree, s.src, {&s.moments, 1}, spec);
  expect_close(f.phi, rb.phi, "batched field phi", name);
  expect_close(f.ex, rb.ex, "batched field ex", name);
  expect_close(f.ey, rb.ey, "batched field ey", name);
  expect_close(f.ez, rb.ez, "batched field ez", name);
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
