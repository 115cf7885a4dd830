// Dual-traversal (TraversalMode::kDual) test suite: parity against the
// batched-PC solver and the O(N^2) oracles for potentials and fields over
// the singular kernel family, the variable-order moment ladder, the
// symmetric self mode, lifecycle reuse, edge cases, and the engine guards
// (DistSolver and LET rejection).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/interaction_lists.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bltc {
namespace {

TreecodeParams dual_params() {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 6;
  params.max_leaf = 400;
  params.max_batch = 400;
  params.traversal = TraversalMode::kDual;
  return params;
}

Solver make_solver(const TreecodeParams& params, const KernelSpec& kernel,
                   Backend backend = Backend::kCpu) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = backend;
  return Solver(std::move(config));
}

class DualParity : public ::testing::TestWithParam<KernelSpec> {};

TEST_P(DualParity, PotentialMatchesOracleWithinMacBound) {
  const KernelSpec kernel = GetParam();
  const Cloud c = uniform_cube(8000, 11);
  const auto oracle = direct_sum(c, c, kernel);

  TreecodeParams pc_params = dual_params();
  pc_params.traversal = TraversalMode::kBatched;
  Solver pc = make_solver(pc_params, kernel);
  pc.set_sources(c);
  RunStats pc_stats;
  const auto phi_pc = pc.evaluate(c, &pc_stats);

  Solver dual = make_solver(dual_params(), kernel);
  dual.set_sources(c);
  RunStats dual_stats;
  const auto phi_dual = dual.evaluate(c, &dual_stats);

  const double pc_err = relative_l2_error(oracle, phi_pc);
  const double dual_err = relative_l2_error(oracle, phi_dual);
  // Within the MAC error bound: the dual traversal (including its reduced-
  // order far pairs) stays in the same error regime as batched PC at the
  // nominal (theta, degree).
  EXPECT_LT(dual_err, 1e-4);
  EXPECT_LT(dual_err, 50.0 * pc_err + 1e-12);

  // The symmetric self mode must actually halve the near field.
  EXPECT_TRUE(dual_stats.dual_traversal);
  EXPECT_LT(dual_stats.total_evals(), pc_stats.total_evals());
  EXPECT_GT(dual_stats.cp_launches + dual_stats.cc_launches, 0u);

  // Convergence with degree: the error falls as the nominal degree (and
  // with it the whole reduced-order ladder) rises.
  double prev = 1e300;
  for (const int degree : {2, 4, 6, 8}) {
    TreecodeParams params = dual_params();
    params.degree = degree;
    Solver solver = make_solver(params, kernel);
    solver.set_sources(c);
    const double err = relative_l2_error(oracle, solver.evaluate(c));
    EXPECT_LT(err, prev * 1.5) << "degree " << degree;
    prev = err;
  }
  EXPECT_LT(prev, 1e-6);
}

TEST_P(DualParity, FieldMatchesOracle) {
  const KernelSpec kernel = GetParam();
  const Cloud c = uniform_cube(6000, 13);
  const FieldResult oracle = direct_field(c, c, kernel);

  Solver dual = make_solver(dual_params(), kernel);
  dual.set_sources(c);
  RunStats stats;
  const FieldResult out = dual.evaluate_field(c, &stats);

  EXPECT_LT(relative_l2_error(oracle.phi, out.phi), 1e-4);
  EXPECT_LT(relative_l2_error(oracle.ex, out.ex), 1e-3);
  EXPECT_LT(relative_l2_error(oracle.ey, out.ey), 1e-3);
  EXPECT_LT(relative_l2_error(oracle.ez, out.ez), 1e-3);
  EXPECT_GT(stats.cp_launches + stats.cc_launches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DualParity,
    ::testing::Values(KernelSpec::coulomb(), KernelSpec::yukawa(0.5)),
    [](const ::testing::TestParamInfo<KernelSpec>& info) {
      return info.param.type == KernelType::kCoulomb ? std::string("coulomb")
                                                     : std::string("yukawa");
    });

TEST(DualTraversal, DistinctTargetsUseOneDirectionalLists) {
  // Targets != sources: the self (mutual) mode must not engage, and the
  // result must still match the oracle.
  const Cloud sources = uniform_cube(5000, 17);
  Cloud targets = uniform_cube(2000, 19, -0.5, 2.0);
  const auto oracle = direct_sum(targets, sources, KernelSpec::coulomb());

  Solver dual = make_solver(dual_params(), KernelSpec::coulomb());
  dual.set_sources(sources);
  RunStats stats;
  const auto phi = dual.evaluate(targets, &stats);
  EXPECT_LT(relative_l2_error(oracle, phi), 1e-4);
}

TEST(DualTraversal, RepeatEvaluationIsIdentical) {
  const Cloud c = uniform_cube(4000, 23);
  Solver dual = make_solver(dual_params(), KernelSpec::coulomb());
  dual.set_sources(c);
  const auto phi1 = dual.evaluate(c);
  const auto phi2 = dual.evaluate(c);
  ASSERT_EQ(phi1.size(), phi2.size());
  for (std::size_t i = 0; i < phi1.size(); ++i) {
    EXPECT_DOUBLE_EQ(phi1[i], phi2[i]) << "index " << i;
  }
}

TEST(DualTraversal, SelfModeBitIdenticalAcrossThreadCounts) {
  // Symmetric self mode writes each direct pair to both leaves; the mirror
  // half must still be summed in an order fixed by the lists, not by the
  // OpenMP schedule.
  const Cloud c = uniform_cube(8000, 29);
  TreecodeParams params = dual_params();
  params.max_leaf = 100;  // many leaf groups, so every thread gets work
  params.max_batch = 100;
  Solver dual = make_solver(params, KernelSpec::coulomb());
  dual.set_sources(c);

#ifdef _OPENMP
  const int previous = omp_get_max_threads();
#endif
  std::vector<double> phi_ref;
  FieldResult field_ref;
  for (const int threads : {1, 2, 4}) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    const auto phi = dual.evaluate(c);
    const FieldResult field = dual.evaluate_field(c);
    if (threads == 1) {
      phi_ref = phi;
      field_ref = field;
      continue;
    }
    EXPECT_EQ(phi, phi_ref) << threads << " threads";
    EXPECT_EQ(field.phi, field_ref.phi) << threads << " threads";
    EXPECT_EQ(field.ex, field_ref.ex) << threads << " threads";
    EXPECT_EQ(field.ey, field_ref.ey) << threads << " threads";
    EXPECT_EQ(field.ez, field_ref.ez) << threads << " threads";
  }
#ifdef _OPENMP
  omp_set_num_threads(previous);
#endif
}

TEST(DualTraversal, UpdateChargesMatchesFreshSolverAndOracle) {
  const Cloud c = uniform_cube(4000, 29);
  Solver held = make_solver(dual_params(), KernelSpec::coulomb());
  held.set_sources(c);
  (void)held.evaluate(c);

  Cloud flipped = c;
  for (auto& q : flipped.q) q = -2.0 * q;
  held.update_charges(flipped.q);
  const auto phi_held = held.evaluate(c);

  // Against the oracle with the *new* charges: catches any path (e.g. the
  // symmetric near field) that still reads charges cached in the target
  // plan instead of the updated source charges.
  const auto oracle = direct_sum(c, flipped, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(oracle, phi_held), 1e-4);

  Solver fresh = make_solver(dual_params(), KernelSpec::coulomb());
  fresh.set_sources(flipped);
  const auto phi_fresh = fresh.evaluate(c);

  ASSERT_EQ(phi_held.size(), phi_fresh.size());
  for (std::size_t i = 0; i < phi_held.size(); ++i) {
    EXPECT_NEAR(phi_held[i], phi_fresh[i],
                1e-10 * (1.0 + std::fabs(phi_fresh[i])));
  }
}

TEST(DualTraversal, EmptyAndSingletonInputs) {
  Solver dual = make_solver(dual_params(), KernelSpec::coulomb());

  // Empty sources: zero potentials.
  dual.set_sources(Cloud{});
  const Cloud targets = uniform_cube(100, 31);
  auto phi = dual.evaluate(targets);
  for (const double v : phi) EXPECT_EQ(v, 0.0);

  // Single source particle.
  Cloud one;
  one.resize(1);
  one.x[0] = 0.25;
  one.y[0] = -0.5;
  one.z[0] = 0.125;
  one.q[0] = 3.0;
  dual.set_sources(one);
  phi = dual.evaluate(targets);
  const auto oracle = direct_sum(targets, one, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(oracle, phi), 1e-12);

  // Empty targets.
  EXPECT_TRUE(dual.evaluate(Cloud{}).empty());
}

TEST(DualTraversal, SingletonLeavesAndCoincidentPoints) {
  // max_leaf = max_batch = 1 forces the deepest possible trees (every
  // recursion path down to singleton leaf pairs).
  TreecodeParams params = dual_params();
  params.max_leaf = 1;
  params.max_batch = 1;
  params.degree = 3;
  const Cloud c = uniform_cube(64, 37);
  Solver dual = make_solver(params, KernelSpec::coulomb());
  dual.set_sources(c);
  const auto phi = dual.evaluate(c);
  const auto oracle = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(oracle, phi), 1e-3);

  // All particles coincident: singular kernels skip every pair (degenerate
  // index-bisected tree, zero-radius boxes).
  Cloud stacked;
  stacked.resize(32);
  for (std::size_t i = 0; i < stacked.size(); ++i) {
    stacked.x[i] = 0.5;
    stacked.y[i] = 0.5;
    stacked.z[i] = 0.5;
    stacked.q[i] = 1.0;
  }
  Solver dual2 = make_solver(params, KernelSpec::coulomb());
  dual2.set_sources(stacked);
  for (const double v : dual2.evaluate(stacked)) EXPECT_EQ(v, 0.0);
}

TEST(DualTraversal, SelfModeHalvesDirectEvals) {
  const Cloud c = uniform_cube(20000, 41);
  TreecodeParams params = dual_params();

  RunStats self_stats;
  Solver self = make_solver(params, KernelSpec::coulomb());
  self.set_sources(c);
  (void)self.evaluate(c, &self_stats);

  // Distinct (but geometrically identical) targets defeat the self check
  // only through coordinates; shift one coordinate by 0 to keep them equal.
  // Different leaf sizes also disable self mode:
  TreecodeParams asym = params;
  asym.max_batch = params.max_leaf / 2;
  RunStats asym_stats;
  Solver nonself = make_solver(asym, KernelSpec::coulomb());
  nonself.set_sources(c);
  (void)nonself.evaluate(c, &asym_stats);

  // The symmetric mode needs roughly half the direct kernel evaluations.
  EXPECT_LT(self_stats.direct_evals, 0.65 * asym_stats.direct_evals);
}

TEST(DualTraversal, DistSolverRejectsDualWithPreciseError) {
  dist::DistConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.treecode = dual_params();
  config.nranks = 2;
  try {
    dist::DistSolver solver(config);
    FAIL() << "DistSolver must reject TraversalMode::kDual";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("kDual"), std::string::npos) << message;
    EXPECT_NE(message.find("LET"), std::string::npos) << message;
  }
}

TEST(DualTraversal, GpuSimMatchesCpuAndStaysResident) {
  const Cloud c = uniform_cube(6000, 43);
  TreecodeParams params = dual_params();
  params.degree = 5;

  Solver cpu = make_solver(params, KernelSpec::coulomb());
  cpu.set_sources(c);
  Solver gpu = make_solver(params, KernelSpec::coulomb(), Backend::kGpuSim);
  gpu.set_sources(c);

  // Asymmetric mode (distinct targets): GpuSim models launches over the
  // host numerics, so the backends agree bit for bit.
  const Cloud targets = uniform_cube(3000, 44, -1.5, 1.5);
  EXPECT_EQ(cpu.evaluate(targets), gpu.evaluate(targets));

  // Symmetric self mode: the mirror writes are folded in a fixed block
  // order at any thread count, so the backends agree bit for bit here too.
  const auto phi_cpu = cpu.evaluate(c);
  RunStats first;
  const auto phi_gpu = gpu.evaluate(c, &first);
  EXPECT_GT(first.cc_launches + first.cp_launches, 0u);
  EXPECT_GT(first.gpu_launches, 0u);
  EXPECT_GT(first.bytes_to_device, 0u);
  EXPECT_EQ(phi_cpu, phi_gpu);

  // Repeat evaluation: everything is device resident, only results move.
  RunStats repeat;
  (void)gpu.evaluate(c, &repeat);
  EXPECT_EQ(repeat.bytes_to_device, 0u);
  EXPECT_GT(repeat.bytes_to_host, 0u);
}

TEST(DualTraversal, StatsReportInteractionClasses) {
  const Cloud c = uniform_cube(30000, 47);
  TreecodeParams params = dual_params();
  params.max_leaf = 200;
  params.max_batch = 200;
  Solver dual = make_solver(params, KernelSpec::coulomb());
  dual.set_sources(c);
  RunStats stats;
  (void)dual.evaluate(c, &stats);
  EXPECT_TRUE(stats.dual_traversal);
  EXPECT_GT(stats.num_batches, 0u);
  EXPECT_GT(stats.cc_interactions + stats.cp_interactions, 0u);
  EXPECT_GT(stats.direct_interactions, 0u);
  EXPECT_GT(stats.direct_evals, 0.0);
  EXPECT_EQ(stats.total_evals(), stats.approx_evals + stats.direct_evals +
                                     stats.cp_evals + stats.cc_evals);
}

TEST(DualLists, DeterministicConstruction) {
  const Cloud c = uniform_cube(10000, 53);
  OrderedParticles src = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = 200;
  const ClusterTree tree = ClusterTree::build(src, tp);

  const DualInteractionLists a =
      build_dual_interaction_lists(tree, tree, 0.7, 6, /*self=*/true);
  const DualInteractionLists b =
      build_dual_interaction_lists(tree, tree, 0.7, 6, /*self=*/true);
  ASSERT_EQ(a.grid_pairs.size(), b.grid_pairs.size());
  ASSERT_EQ(a.leaf_pairs.size(), b.leaf_pairs.size());
  for (std::size_t i = 0; i < a.grid_pairs.size(); ++i) {
    EXPECT_EQ(a.grid_pairs[i].target, b.grid_pairs[i].target);
    EXPECT_EQ(a.grid_pairs[i].source, b.grid_pairs[i].source);
    EXPECT_EQ(a.grid_pairs[i].level, b.grid_pairs[i].level);
    EXPECT_EQ(static_cast<int>(a.grid_pairs[i].kind),
              static_cast<int>(b.grid_pairs[i].kind));
  }
  EXPECT_EQ(a.total_cc, b.total_cc);
  EXPECT_EQ(a.total_direct, b.total_direct);
  EXPECT_TRUE(a.self);
}

}  // namespace
}  // namespace bltc
