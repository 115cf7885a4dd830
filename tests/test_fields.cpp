#include "core/fields.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TEST(Fields, GradientsMatchFiniteDifferences) {
  // Property: grad_x G from the grad() functors agrees with central
  // differences
  // of evaluate_kernel for every kernel family.
  const double h = 1e-6;
  for (const KernelSpec spec :
       {KernelSpec::coulomb(), KernelSpec::yukawa(0.7),
        KernelSpec::gaussian(0.4), KernelSpec::multiquadric(0.9),
        KernelSpec::inverse_square()}) {
    const double x[3] = {0.3, -0.2, 0.9};
    const double y[3] = {1.4, 0.8, -0.5};
    double g[3];
    evaluate_kernel_gradient(spec, x[0], x[1], x[2], y[0], y[1], y[2], g);
    for (int d = 0; d < 3; ++d) {
      double xp[3] = {x[0], x[1], x[2]};
      double xm[3] = {x[0], x[1], x[2]};
      xp[d] += h;
      xm[d] -= h;
      const double fd = (evaluate_kernel(spec, xp[0], xp[1], xp[2], y[0],
                                         y[1], y[2]) -
                         evaluate_kernel(spec, xm[0], xm[1], xm[2], y[0],
                                         y[1], y[2])) /
                        (2.0 * h);
      EXPECT_NEAR(g[d], fd, 1e-5 * (1.0 + std::fabs(fd)))
          << spec.name() << " dim " << d;
    }
  }
}

TEST(Fields, GradientValueMatchesKernelValue) {
  for (const KernelSpec spec :
       {KernelSpec::coulomb(), KernelSpec::yukawa(0.5)}) {
    double g[3];
    const double v =
        evaluate_kernel_gradient(spec, 0, 0, 0, 1.0, 2.0, -1.0, g);
    EXPECT_DOUBLE_EQ(v, evaluate_kernel(spec, 0, 0, 0, 1.0, 2.0, -1.0));
  }
}

TEST(Fields, TwoParticleCoulombField) {
  // E at origin from unit charge at (2,0,0): -grad(1/r) q = (x-y)/r^3 * q
  // evaluated at target: E = -(G'/r)(x-y) q = (1/r^3)(x-y)... with x=0,
  // y=(2,0,0): E_x = -(-1/8)(0-2) = -0.25 (field points away from a
  // positive charge, i.e. in -x at the origin).
  Cloud src;
  src.resize(1);
  src.x = {2.0};
  src.y = {0.0};
  src.z = {0.0};
  src.q = {1.0};
  Cloud tgt;
  tgt.resize(1);
  tgt.x = {0.0};
  tgt.y = {0.0};
  tgt.z = {0.0};
  tgt.q = {1.0};
  const FieldResult f = direct_field(tgt, src, KernelSpec::coulomb());
  EXPECT_DOUBLE_EQ(f.phi[0], 0.5);
  EXPECT_DOUBLE_EQ(f.ex[0], -0.25);
  EXPECT_DOUBLE_EQ(f.ey[0], 0.0);
  EXPECT_DOUBLE_EQ(f.ez[0], 0.0);
}

TEST(Fields, DirectFieldConservesMomentumForCoulomb) {
  // Newton's third law: sum_i q_i E(x_i) = 0 over a closed system.
  const Cloud c = uniform_cube(400, 1);
  const FieldResult f = direct_field(c, c, KernelSpec::coulomb());
  double fx = 0.0, fy = 0.0, fz = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    fx += c.q[i] * f.ex[i];
    fy += c.q[i] * f.ey[i];
    fz += c.q[i] * f.ez[i];
    scale += std::fabs(c.q[i] * f.ex[i]);
  }
  EXPECT_NEAR(fx, 0.0, 1e-10 * scale);
  EXPECT_NEAR(fy, 0.0, 1e-10 * scale);
  EXPECT_NEAR(fz, 0.0, 1e-10 * scale);
}

class FieldAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(FieldAccuracy, TreecodeFieldMatchesDirect) {
  const int kernel_id = GetParam();
  const KernelSpec spec = (kernel_id == 0)   ? KernelSpec::coulomb()
                          : (kernel_id == 1) ? KernelSpec::yukawa(0.5)
                                             : KernelSpec::gaussian(0.5);
  const Cloud c = uniform_cube(5000, 2);
  const FieldResult ref = direct_field(c, c, spec);

  SolverConfig config;
  config.kernel = spec;
  config.params.theta = 0.6;
  config.params.degree = 8;
  config.params.max_leaf = 300;
  config.params.max_batch = 300;
  Solver solver(config);
  solver.set_sources(c);
  const FieldResult f = solver.evaluate_field(c);

  EXPECT_LT(relative_l2_error(ref.phi, f.phi), 1e-6) << spec.name();
  EXPECT_LT(relative_l2_error(ref.ex, f.ex), 1e-4) << spec.name();
  EXPECT_LT(relative_l2_error(ref.ey, f.ey), 1e-4) << spec.name();
  EXPECT_LT(relative_l2_error(ref.ez, f.ez), 1e-4) << spec.name();
}

INSTANTIATE_TEST_SUITE_P(Kernels, FieldAccuracy, ::testing::Values(0, 1, 2));

TEST(Fields, FieldErrorDecreasesWithDegree) {
  const Cloud c = uniform_cube(4000, 3);
  const FieldResult ref = direct_field(c, c, KernelSpec::coulomb());
  double prev = 1e300;
  for (const int degree : {2, 5, 8}) {
    TreecodeParams p;
    p.theta = 0.6;
    p.degree = degree;
    p.max_leaf = 300;
    p.max_batch = 300;
    const FieldResult f = compute_field(c, c, KernelSpec::coulomb(), p);
    const double err = relative_l2_error(ref.ex, f.ex);
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 1e-4);
}

TEST(Fields, PotentialMatchesPotentialOnlySolver) {
  const Cloud c = uniform_cube(3000, 4);
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 6;
  p.max_leaf = 300;
  p.max_batch = 300;
  const FieldResult f = compute_field(c, c, KernelSpec::yukawa(0.5), p);
  const auto phi = compute_potential(c, KernelSpec::yukawa(0.5), p);
  double scale = 0.0;
  for (const double v : phi) scale = std::fmax(scale, std::fabs(v));
  EXPECT_LT(max_abs_difference(f.phi, phi), 1e-11 * scale);
}

TEST(Fields, DisjointTargetsAndSources) {
  const Cloud targets = sphere_surface(1000, 5, 3.0);
  const Cloud sources = uniform_cube(4000, 6);
  const FieldResult ref = direct_field(targets, sources,
                                       KernelSpec::coulomb());
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.theta = 0.6;
  config.params.degree = 8;
  config.params.max_leaf = 300;
  config.params.max_batch = 300;
  Solver solver(config);
  solver.set_sources(sources);
  const FieldResult f = solver.evaluate_field(targets);
  EXPECT_LT(relative_l2_error(ref.ex, f.ex), 1e-6);
}

TEST(Fields, OneTargetBatchFieldMatchesDirect) {
  // max_batch = 1 (the per-target MAC) runs through the same evaluator as
  // any other batch size, fields included.
  const Cloud c = uniform_cube(2000, 21);
  const FieldResult ref = direct_field(c, c, KernelSpec::coulomb());
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.theta = 0.6;
  config.params.degree = 6;
  config.params.max_leaf = 300;
  config.params.max_batch = 1;
  Solver solver(config);
  solver.set_sources(c);
  RunStats stats;
  const FieldResult f = solver.evaluate_field(c, &stats);
  EXPECT_EQ(stats.num_batches, c.size());
  EXPECT_GT(stats.approx_launches + stats.direct_launches, 0u);
  EXPECT_LT(relative_l2_error(ref.phi, f.phi), 1e-5);
  EXPECT_LT(relative_l2_error(ref.ex, f.ex), 1e-4);
}

TEST(Fields, EmptyInputs) {
  Cloud empty;
  const Cloud c = uniform_cube(20, 7);
  TreecodeParams p;
  const FieldResult f = compute_field(c, empty, KernelSpec::coulomb(), p);
  for (const double v : f.ex) EXPECT_DOUBLE_EQ(v, 0.0);
  const FieldResult g = compute_field(empty, c, KernelSpec::coulomb(), p);
  EXPECT_TRUE(g.phi.empty());
}

}  // namespace
}  // namespace bltc
