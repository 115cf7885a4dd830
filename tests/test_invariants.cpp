// Cross-module property tests: physical and algebraic invariants that must
// survive the whole pipeline (tree + moments + MAC + engines), not just a
// single module.
#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams params() {
  TreecodeParams p;
  p.theta = 0.6;
  p.degree = 6;
  p.max_leaf = 250;
  p.max_batch = 250;
  return p;
}

TEST(Invariants, PotentialIsLinearInCharges) {
  // phi depends linearly on q end-to-end: phi(a*q1 + b*q2) =
  // a*phi(q1) + b*phi(q2) with identical geometry (same tree, same MAC).
  const Cloud base = uniform_cube(4000, 1);
  Cloud q1 = base, q2 = base, combo = base;
  SplitMix64 rng(2);
  for (std::size_t i = 0; i < base.size(); ++i) {
    q1.q[i] = rng.uniform(-1.0, 1.0);
    q2.q[i] = rng.uniform(-1.0, 1.0);
    combo.q[i] = 2.0 * q1.q[i] - 3.0 * q2.q[i];
  }
  const auto phi1 = compute_potential(base, q1, KernelSpec::coulomb(),
                                      params());
  const auto phi2 = compute_potential(base, q2, KernelSpec::coulomb(),
                                      params());
  const auto phic = compute_potential(base, combo, KernelSpec::coulomb(),
                                      params());
  for (std::size_t i = 0; i < base.size(); i += 37) {
    EXPECT_NEAR(phic[i], 2.0 * phi1[i] - 3.0 * phi2[i],
                1e-9 * (1.0 + std::fabs(phic[i])));
  }
}

TEST(Invariants, TranslationInvariance) {
  // Radial kernels depend only on differences: shifting the whole system
  // must reproduce the same potentials (the tree translates with it).
  const Cloud c = uniform_cube(4000, 3);
  Cloud shifted = c;
  for (std::size_t i = 0; i < c.size(); ++i) {
    shifted.x[i] += 5.0;
    shifted.y[i] -= 2.0;
    shifted.z[i] += 11.0;
  }
  const auto a = compute_potential(c, KernelSpec::yukawa(0.5), params());
  const auto b = compute_potential(shifted, KernelSpec::yukawa(0.5),
                                   params());
  for (std::size_t i = 0; i < c.size(); i += 41) {
    EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::fabs(a[i])));
  }
}

TEST(Invariants, AxisPermutationInvariance) {
  // Swapping coordinate axes permutes nothing physical; potentials are
  // unchanged (checks for accidental x/y/z asymmetries in tree, moments,
  // or engines).
  const Cloud c = uniform_cube(3000, 4);
  Cloud rotated = c;
  rotated.x = c.z;
  rotated.y = c.x;
  rotated.z = c.y;
  const auto a = compute_potential(c, KernelSpec::coulomb(), params());
  const auto b = compute_potential(rotated, KernelSpec::coulomb(), params());
  for (std::size_t i = 0; i < c.size(); i += 29) {
    EXPECT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::fabs(a[i])));
  }
}

TEST(Invariants, ReciprocityForUnitCharges) {
  // With all charges 1, the interaction matrix G is symmetric, so for any
  // pair the contribution of j to phi_i equals that of i to phi_j. Checked
  // end-to-end via two-point target/source exchanges on the direct path
  // and treecode consistency with it.
  Cloud c = uniform_cube(2500, 5);
  for (double& q : c.q) q = 1.0;
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
  // Total interaction energy both ways: sum_i phi_i counts each symmetric
  // pair twice; compare against the direct value.
  double e_tree = 0.0, e_direct = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    e_tree += phi[i];
    e_direct += ref[i];
  }
  EXPECT_NEAR(e_tree, e_direct, 1e-5 * std::fabs(e_direct));
}

TEST(Invariants, DualTraversalCoversEveryPairExactlyOnce) {
  // Counting version of the CC correctness argument: with G == 1 (constant
  // "kernel" simulated by a multiquadric with huge shape ~ const) every
  // covered (target, source) pair contributes q_j, so phi_i = sum_j q_j
  // exactly iff no pair is missed or double counted. Use a smooth kernel
  // so r = 0 pairs are included too. Interpolation of a constant is exact
  // at any degree, so the approximated interactions contribute exactly as
  // many "pairs" as they cover.
  const Cloud c = uniform_cube(20000, 6);
  double total_q = 0.0;
  for (const double q : c.q) total_q += q;

  // G(r) = sqrt(r^2 + s^2) with s huge behaves like the constant s over the
  // domain (relative variation ~ (r/s)^2 ~ 1e-14 for s = 1e6, r <= 3.5).
  const double s = 1.0e6;
  // A low degree, small leaves, and a loose MAC make well-separated
  // clusters large against their (n+1)^3 proxy points, so CC and CP pairs
  // occur at this N.
  TreecodeParams p = params();
  p.traversal = TraversalMode::kDual;
  p.theta = 0.8;
  p.degree = 3;
  p.max_leaf = 100;
  p.max_batch = 100;
  SolverConfig config;
  config.kernel = KernelSpec::multiquadric(s);
  config.params = p;
  Solver solver(config);
  solver.set_sources(c);

  // Symmetric self mode (targets == sources: mutual direct pairs, the
  // triangular diagonal pairs, and the G(0) self term) and the asymmetric
  // one-directional mode (a distinct target cloud).
  const Cloud targets = uniform_cube(5000, 9, -1.5, 1.5);
  for (const Cloud* t : {&c, &targets}) {
    RunStats stats;
    const auto phi = solver.evaluate(*t, &stats);
    EXPECT_GT(stats.cc_launches, 0u);
    EXPECT_GT(stats.cp_launches, 0u);
    for (std::size_t i = 0; i < t->size(); i += 191) {
      EXPECT_NEAR(phi[i] / s, total_q, 1e-6 * (1.0 + std::fabs(total_q)))
          << (t == &c ? "self" : "asymmetric") << " target " << i;
    }
  }
}

TEST(Invariants, BatchEngineCoversEveryPairExactlyOnce) {
  // Same counting argument through the main solver's batch engine.
  Cloud c = uniform_cube(3000, 7);
  double total_q = 0.0;
  for (const double q : c.q) total_q += q;
  const double s = 1.0e6;
  const auto phi = compute_potential(c, KernelSpec::multiquadric(s),
                                     params());
  for (std::size_t i = 0; i < c.size(); i += 173) {
    EXPECT_NEAR(phi[i] / s, total_q, 1e-6 * (1.0 + std::fabs(total_q)));
  }
}

}  // namespace
}  // namespace bltc
