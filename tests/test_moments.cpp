#include "core/moments.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/chebyshev.hpp"
#include "core/kernels.hpp"
#include "core/tree.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

struct Harness {
  OrderedParticles sources;
  ClusterTree tree;
};

Harness make_setup(std::size_t n, std::size_t leaf, std::uint64_t seed = 1) {
  Harness s;
  const Cloud c = uniform_cube(n, seed);
  s.sources = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = leaf;
  s.tree = ClusterTree::build(s.sources, tp);
  return s;
}

TEST(Moments, GridsLieInClusterBoxes) {
  const Harness s = make_setup(2000, 100);
  const ClusterMoments m = ClusterMoments::grids_only(s.tree, 6);
  for (std::size_t c = 0; c < s.tree.num_nodes(); ++c) {
    const Box3& box = s.tree.node(static_cast<int>(c)).box;
    for (int d = 0; d < 3; ++d) {
      const auto g = m.grid(static_cast<int>(c), d);
      ASSERT_EQ(g.size(), 7u);
      for (const double v : g) {
        EXPECT_GE(v, box.lo[static_cast<std::size_t>(d)] - 1e-12);
        EXPECT_LE(v, box.hi[static_cast<std::size_t>(d)] + 1e-12);
      }
      // Endpoints of the grid are the box faces (minimal bounding box =>
      // guaranteed particle/grid coincidences, §2.3).
      EXPECT_DOUBLE_EQ(g.front(), box.hi[static_cast<std::size_t>(d)]);
      EXPECT_DOUBLE_EQ(g.back(), box.lo[static_cast<std::size_t>(d)]);
    }
  }
}

TEST(Moments, ModifiedChargesConserveTotalCharge) {
  // sum_k qhat_k = sum_j q_j because the Lagrange basis sums to 1 in each
  // dimension — a strong whole-pipeline invariant of Eq. (12).
  const Harness s = make_setup(3000, 150, 2);
  const ClusterMoments m = ClusterMoments::compute(s.tree, s.sources, 5);
  for (std::size_t c = 0; c < s.tree.num_nodes(); ++c) {
    const ClusterNode& node = s.tree.node(static_cast<int>(c));
    double qsum = 0.0;
    for (std::size_t j = node.begin; j < node.end; ++j) {
      qsum += s.sources.q[j];
    }
    double qhat_sum = 0.0;
    for (const double v : m.qhat(static_cast<int>(c))) qhat_sum += v;
    EXPECT_NEAR(qhat_sum, qsum, 1e-9 * (1.0 + std::fabs(qsum)))
        << "cluster " << c;
  }
}

TEST(Moments, FirstMomentsMatchDipole) {
  // Interpolation of degree >= 1 also reproduces linear functions, so
  // sum_k s_k qhat_k = sum_j y_j q_j (the dipole moment).
  const Harness s = make_setup(2000, 2000, 3);  // single-cluster tree
  const int degree = 4;
  const ClusterMoments m = ClusterMoments::compute(s.tree, s.sources, degree);
  const std::size_t npts = static_cast<std::size_t>(degree) + 1;
  const auto gx = m.grid(0, 0);
  const auto qhat = m.qhat(0);

  double dipole_exact = 0.0;
  for (std::size_t j = 0; j < s.sources.size(); ++j) {
    dipole_exact += s.sources.x[j] * s.sources.q[j];
  }
  double dipole_interp = 0.0;
  for (std::size_t k1 = 0; k1 < npts; ++k1) {
    for (std::size_t k2 = 0; k2 < npts; ++k2) {
      for (std::size_t k3 = 0; k3 < npts; ++k3) {
        dipole_interp += gx[k1] * qhat[(k1 * npts + k2) * npts + k3];
      }
    }
  }
  EXPECT_NEAR(dipole_interp, dipole_exact, 1e-9);
}

class MomentAlgorithmEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MomentAlgorithmEquivalence, FactorizedMatchesDirect) {
  // The paper's two-kernel GPU formulation (Eqs. 14-15, with delta-condition
  // cleanup) must agree with the direct accumulation of Eq. (12) to
  // rounding, including for the corner particles that coincide with grid
  // coordinates.
  const int degree = GetParam();
  const Harness s = make_setup(2500, 120, 4);
  const ClusterMoments direct = ClusterMoments::compute(
      s.tree, s.sources, degree, MomentAlgorithm::kDirect);
  const ClusterMoments fact = ClusterMoments::compute(
      s.tree, s.sources, degree, MomentAlgorithm::kFactorized);
  double scale = 0.0;
  for (const double v : direct.all_qhat()) scale = std::fmax(scale, std::fabs(v));
  for (std::size_t i = 0; i < direct.all_qhat().size(); ++i) {
    ASSERT_NEAR(direct.all_qhat()[i], fact.all_qhat()[i], 1e-11 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, MomentAlgorithmEquivalence,
                         ::testing::Values(1, 3, 6, 9));

TEST(Moments, RestrictionIsExactPolynomialTransfer) {
  // Restricting degree-n modified charges to degree n' <= n must equal
  // recomputing Eq. (12) directly at the coarse degree: degree-n
  // interpolation reproduces every degree-n' Lagrange polynomial exactly.
  const Harness s = make_setup(3000, 250, 7);
  const ClusterMoments fine =
      ClusterMoments::compute(s.tree, s.sources, 8, MomentAlgorithm::kDirect);
  for (const int coarse_degree : {2, 4, 5, 7}) {
    const ClusterMoments recomputed = ClusterMoments::compute(
        s.tree, s.sources, coarse_degree, MomentAlgorithm::kDirect);
    const ClusterMoments restricted =
        ClusterMoments::restrict_from(s.tree, fine, coarse_degree);
    double scale = 0.0;
    for (const double v : recomputed.all_qhat()) {
      scale = std::fmax(scale, std::fabs(v));
    }
    ASSERT_EQ(recomputed.all_qhat().size(), restricted.all_qhat().size());
    for (std::size_t i = 0; i < recomputed.all_qhat().size(); ++i) {
      ASSERT_NEAR(recomputed.all_qhat()[i], restricted.all_qhat()[i],
                  1e-10 * scale)
          << "degree " << coarse_degree << " entry " << i;
    }
  }
}

TEST(Moments, SingularParticlePlacedExactlyOnGridPoint) {
  // Build a tiny cluster whose extreme particle coincides with a Chebyshev
  // endpoint (guaranteed by the minimal bounding box). The delta condition
  // must route its full charge to that grid point.
  Cloud c;
  c.resize(3);
  c.x = {0.0, 0.5, 1.0};
  c.y = {0.0, 0.5, 1.0};
  c.z = {0.0, 0.5, 1.0};
  c.q = {2.0, 0.0, 0.0};  // only the corner particle carries charge
  OrderedParticles src = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = 10;
  const ClusterTree tree = ClusterTree::build(src, tp);
  const int degree = 2;
  const ClusterMoments m = ClusterMoments::compute(tree, src, degree);
  const std::size_t npts = 3;

  // The charged particle sits at the box corner (0,0,0) = grid lows, which
  // is the *last* Chebyshev index in each dimension (cos(pi) = -1).
  const auto qhat = m.qhat(0);
  const std::size_t corner = ((npts - 1) * npts + (npts - 1)) * npts +
                             (npts - 1);
  EXPECT_NEAR(qhat[corner], 2.0, 1e-12);
  double total = 0.0;
  for (const double v : qhat) total += v;
  EXPECT_NEAR(total, 2.0, 1e-12);
}

TEST(Moments, ClusterApproximationConvergesToTruePotential) {
  // End-to-end moment quality: a far-away target's potential from one
  // cluster via Eq. (11) must converge spectrally to the exact Eq. (9).
  const Harness s = make_setup(2000, 2000, 5);  // one cluster
  const std::array<double, 3> target{10.0, 9.0, 11.0};
  const KernelSpec kernel = KernelSpec::coulomb();

  double exact = 0.0;
  for (std::size_t j = 0; j < s.sources.size(); ++j) {
    exact += evaluate_kernel(kernel, target[0], target[1], target[2],
                             s.sources.x[j], s.sources.y[j], s.sources.z[j]) *
             s.sources.q[j];
  }

  double prev_err = 1e300;
  for (const int degree : {1, 2, 4, 8}) {
    const ClusterMoments m = ClusterMoments::compute(s.tree, s.sources,
                                                     degree);
    const std::size_t npts = static_cast<std::size_t>(degree) + 1;
    const auto gx = m.grid(0, 0);
    const auto gy = m.grid(0, 1);
    const auto gz = m.grid(0, 2);
    const auto qhat = m.qhat(0);
    double approx = 0.0;
    for (std::size_t k1 = 0; k1 < npts; ++k1) {
      for (std::size_t k2 = 0; k2 < npts; ++k2) {
        for (std::size_t k3 = 0; k3 < npts; ++k3) {
          approx += evaluate_kernel(kernel, target[0], target[1], target[2],
                                    gx[k1], gy[k2], gz[k3]) *
                    qhat[(k1 * npts + k2) * npts + k3];
        }
      }
    }
    const double err = std::fabs(approx - exact) / std::fabs(exact);
    EXPECT_LT(err, prev_err * 1.5) << "degree " << degree;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-8);
}

TEST(Moments, ChargesAreLinearInSourceCharges) {
  // q̂ depends linearly on q (Eq. 12): doubling all charges doubles q̂.
  const Harness s = make_setup(1500, 100, 6);
  const ClusterMoments m1 = ClusterMoments::compute(s.tree, s.sources, 4);
  OrderedParticles doubled = s.sources;
  for (double& q : doubled.q) q *= 2.0;
  const ClusterMoments m2 = ClusterMoments::compute(s.tree, doubled, 4);
  for (std::size_t i = 0; i < m1.all_qhat().size(); ++i) {
    EXPECT_NEAR(m2.all_qhat()[i], 2.0 * m1.all_qhat()[i],
                1e-12 * (1.0 + std::fabs(m1.all_qhat()[i])));
  }
}

TEST(Moments, PerClusterRecomputeMatchesBatchCompute) {
  const Harness s = make_setup(1000, 100, 7);
  const int degree = 3;
  const ClusterMoments m = ClusterMoments::compute(s.tree, s.sources, degree);
  std::vector<double> out(m.points_per_cluster());
  for (std::size_t c = 0; c < s.tree.num_nodes(); ++c) {
    const int ci = static_cast<int>(c);
    ClusterMoments::compute_cluster_direct(s.tree, s.sources, degree, ci,
                                           m.grid(ci, 0), m.grid(ci, 1),
                                           m.grid(ci, 2), out);
    const auto expect = m.qhat(ci);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_DOUBLE_EQ(out[i], expect[i]);
    }
  }
}

}  // namespace
}  // namespace bltc
