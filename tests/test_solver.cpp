#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_sum.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams small_params() {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 6;
  p.max_leaf = 300;
  p.max_batch = 300;
  return p;
}

SolverConfig small_config(const KernelSpec& kernel,
                          Backend backend = Backend::kCpu) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = small_params();
  config.backend = backend;
  return config;
}

TEST(Solver, MatchesDirectSumWithinTreecodeAccuracy) {
  const Cloud c = uniform_cube(8000, 1);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  Solver solver(small_config(KernelSpec::coulomb()));
  solver.set_sources(c);
  RunStats stats;
  const auto phi = solver.evaluate(c, &stats);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
  EXPECT_GT(stats.num_clusters, 1u);
  EXPECT_GT(stats.num_batches, 1u);
  EXPECT_GT(stats.approx_interactions, 0u);
  EXPECT_GT(stats.direct_interactions, 0u);
  EXPECT_GT(stats.approx_evals, 0.0);
  EXPECT_GT(stats.direct_evals, 0.0);
}

TEST(Solver, GpuBackendMatchesCpuBackendNumerically) {
  // GpuSim models launches over host numerics: both backends run the same
  // host kernels in the same order, so the potentials agree bit for bit —
  // under kMixed too, where both run the tagged far field fp32.
  const Cloud c = uniform_cube(5000, 2);
  for (const PrecisionPolicy policy :
       {PrecisionPolicy::kFp64, PrecisionPolicy::kMixed}) {
    SolverConfig cpu_config = small_config(KernelSpec::yukawa(0.5));
    cpu_config.params.precision = policy;
    SolverConfig gpu_config = cpu_config;
    gpu_config.backend = Backend::kGpuSim;
    Solver cpu_solver(cpu_config);
    cpu_solver.set_sources(c);
    RunStats cstats;
    const auto cpu = cpu_solver.evaluate(c, &cstats);
    Solver gpu_solver(gpu_config);
    gpu_solver.set_sources(c);
    RunStats gstats;
    const auto gpu = gpu_solver.evaluate(c, &gstats);
    EXPECT_EQ(cpu, gpu);
    EXPECT_EQ(cstats.fp32_evals, gstats.fp32_evals);
    EXPECT_EQ(gstats.fp32_evals > 0.0, policy == PrecisionPolicy::kMixed);
    EXPECT_GT(gstats.gpu_launches, 0u);
    EXPECT_GT(gstats.bytes_to_device, 0u);
    EXPECT_GT(gstats.bytes_to_host, 0u);
    EXPECT_GT(gstats.modeled.compute, 0.0);
    EXPECT_GT(gstats.modeled.precompute, 0.0);
    EXPECT_GT(gstats.modeled.setup, 0.0);
  }
}

TEST(Solver, ResultIsInCallerOrder) {
  // The tree reorders particles internally; results must come back in the
  // caller's order. Verify against per-target brute force on a shuffled,
  // asymmetric cloud.
  Cloud c = uniform_cube(600, 3);
  c.x[17] += 3.0;  // break any accidental symmetry
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  TreecodeParams p = small_params();
  p.degree = 10;
  p.theta = 0.5;
  const auto phi = compute_potential(c, KernelSpec::coulomb(), p);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(phi[i], ref[i], 1e-6 * (1.0 + std::fabs(ref[i]))) << i;
  }
}

TEST(Solver, DisjointTargetsAndSources) {
  // BEM-style usage: targets on a sphere surface, sources in the volume.
  const Cloud targets = sphere_surface(800, 4, 3.0);
  const Cloud sources = uniform_cube(4000, 5);
  const auto ref = direct_sum(targets, sources, KernelSpec::yukawa(0.5));
  Solver solver(small_config(KernelSpec::yukawa(0.5)));
  solver.set_sources(sources);
  const auto phi = solver.evaluate(targets);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-6);
}

TEST(Solver, SmoothKernelNeedsNoSingularityGuard) {
  const Cloud c = uniform_cube(3000, 6);
  const auto ref = direct_sum(c, c, KernelSpec::gaussian(0.5));
  const auto phi = compute_potential(c, KernelSpec::gaussian(0.5),
                                     small_params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

TEST(Solver, MultiquadricKernel) {
  const Cloud c = uniform_cube(3000, 7);
  const auto ref = direct_sum(c, c, KernelSpec::multiquadric(0.1));
  const auto phi = compute_potential(c, KernelSpec::multiquadric(0.1),
                                     small_params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

TEST(Solver, FactorizedMomentsGiveSameResult) {
  const Cloud c = uniform_cube(4000, 8);
  SolverConfig config = small_config(KernelSpec::coulomb());
  Solver direct_solver(config);
  direct_solver.set_sources(c);
  const auto direct_alg = direct_solver.evaluate(c);
  config.params.moment_algorithm = MomentAlgorithm::kFactorized;
  Solver fact_solver(config);
  fact_solver.set_sources(c);
  const auto fact_alg = fact_solver.evaluate(c);
  double scale = 0.0;
  for (const double v : direct_alg) scale = std::fmax(scale, std::fabs(v));
  EXPECT_LT(max_abs_difference(direct_alg, fact_alg), 1e-11 * scale);
}

TEST(Solver, BatchMacIsMoreConservativeThanPerTargetMac) {
  // §3.2: applying the MAC to the whole batch (radius r_B > 0) is stricter
  // than per-target (r_B = 0), so it accepts fewer approximations — more
  // accurate, at the cost of extra direct work. Both stay at treecode-level
  // accuracy.
  const Cloud c = uniform_cube(4000, 9);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  TreecodeParams p = small_params();
  RunStats batch_stats, point_stats;
  const auto batch_phi =
      compute_potential(c, KernelSpec::coulomb(), p, Backend::kCpu,
                        &batch_stats);
  p.max_batch = 1;  // the per-target MAC: r_B = 0
  const auto point_phi =
      compute_potential(c, KernelSpec::coulomb(), p, Backend::kCpu,
                        &point_stats);
  const double batch_err = relative_l2_error(ref, batch_phi);
  const double point_err = relative_l2_error(ref, point_phi);
  EXPECT_LE(batch_err, point_err * 1.1);  // batching never loses accuracy
  EXPECT_LT(point_err, 1e-3);             // still treecode-level
  // Per-target traversal does no more direct work per target than batch.
  EXPECT_LE(point_stats.direct_evals / static_cast<double>(c.size()),
            batch_stats.direct_evals / static_cast<double>(c.size()) * 1.05);
}

TEST(Solver, ParameterValidation) {
  const Cloud c = uniform_cube(10, 11);
  TreecodeParams p;
  p.theta = 0.0;
  EXPECT_THROW(compute_potential(c, KernelSpec::coulomb(), p),
               std::invalid_argument);
  p = TreecodeParams{};
  p.theta = 1.0;
  EXPECT_THROW(compute_potential(c, KernelSpec::coulomb(), p),
               std::invalid_argument);
  p = TreecodeParams{};
  p.degree = -1;
  EXPECT_THROW(compute_potential(c, KernelSpec::coulomb(), p),
               std::invalid_argument);
  p = TreecodeParams{};
  p.max_leaf = 0;
  EXPECT_THROW(compute_potential(c, KernelSpec::coulomb(), p),
               std::invalid_argument);
}

TEST(Solver, EmptyCloudsReturnEmptyOrZero) {
  Cloud empty;
  const Cloud c = uniform_cube(50, 12);
  EXPECT_TRUE(
      compute_potential(empty, c, KernelSpec::coulomb(), small_params())
          .empty());
  const auto phi =
      compute_potential(c, empty, KernelSpec::coulomb(), small_params());
  ASSERT_EQ(phi.size(), c.size());
  for (const double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Solver, TinyCloudFallsBackToAllDirect) {
  // N far below (n+1)^3: the size condition forces pure direct summation,
  // and the result must be *exactly* the direct sum (same skip convention).
  const Cloud c = uniform_cube(50, 13);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  RunStats stats;
  const auto phi = compute_potential(c, KernelSpec::coulomb(), small_params(),
                                     Backend::kCpu, &stats);
  EXPECT_EQ(stats.approx_interactions, 0u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(phi[i], ref[i], 1e-12 * (1.0 + std::fabs(ref[i])));
  }
}

TEST(Solver, AsyncStreamsDoNotChangeNumerics) {
  const Cloud c = uniform_cube(3000, 14);
  SolverConfig async_config = small_config(KernelSpec::coulomb(),
                                           Backend::kGpuSim);
  async_config.gpu.async_streams = true;
  SolverConfig sync_config = async_config;
  sync_config.gpu.async_streams = false;
  Solver async_solver(async_config);
  async_solver.set_sources(c);
  const auto a = async_solver.evaluate(c);
  Solver sync_solver(sync_config);
  sync_solver.set_sources(c);
  const auto b = sync_solver.evaluate(c);
  EXPECT_EQ(a, b);  // bitwise: stream scheduling is timing-only
}

TEST(Solver, ModeledAsyncIsFasterThanModeledSync) {
  const Cloud c = uniform_cube(6000, 15);
  RunStats async_stats, sync_stats;
  GpuOptions async_opts;
  async_opts.async_streams = true;
  GpuOptions sync_opts;
  sync_opts.async_streams = false;
  compute_potential(c, c, KernelSpec::coulomb(), small_params(),
                    Backend::kGpuSim, &async_stats, &async_opts);
  compute_potential(c, c, KernelSpec::coulomb(), small_params(),
                    Backend::kGpuSim, &sync_stats, &sync_opts);
  EXPECT_LT(async_stats.modeled.compute, sync_stats.modeled.compute);
}

TEST(Solver, PhaseTimesArePopulated) {
  const Cloud c = uniform_cube(4000, 16);
  RunStats stats;
  compute_potential(c, KernelSpec::coulomb(), small_params(), Backend::kCpu,
                    &stats);
  EXPECT_GT(stats.setup_seconds, 0.0);
  EXPECT_GT(stats.precompute_seconds, 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      stats.total_seconds(),
      stats.setup_seconds + stats.precompute_seconds + stats.compute_seconds);
}

}  // namespace
}  // namespace bltc
