// PME mesh subsystem tests: FFT round-trip / naive-DFT / Parseval checks,
// spread/interpolate adjointness (operator symmetry), mesh-mode parity
// against the converged classical Ewald oracle for potentials and fields on
// both traversals and both backends, non-neutral acceptance (the
// uniform-background convention), alpha/spacing invariance of the split,
// lock-step update_charges / update_positions parity, mesh seconds landing
// on the evaluation after each lifecycle call, and serve-layer
// cache-hit bit-identity with zero extra mesh builds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "mesh/fft.hpp"
#include "mesh/mesh.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

constexpr double kBox = 1.0;

TreecodeParams mesh_params(TraversalMode mode = TraversalMode::kBatched) {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 8;
  params.max_leaf = 300;
  params.max_batch = 300;
  params.traversal = mode;
  params.boundary = BoundaryConditions::kPeriodicMesh;
  params.domain = Box3::cube(0.0, kBox);
  return params;
}

Solver make_solver(const TreecodeParams& params,
                   Backend backend = Backend::kCpu) {
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = params;
  config.backend = backend;
  return Solver(std::move(config));
}

/// The acceptance bar shared with the near field: the classical treecode
/// error target at the suite's (theta, degree).
double error_bar(const TreecodeParams& params) {
  return std::pow(params.theta, static_cast<double>(params.degree) + 1.0) /
         (1.0 - params.theta);
}

// ---- FFT -----------------------------------------------------------------

TEST(MeshFft, RoundTripRestoresRealGrid) {
  const std::size_t nx = 16, ny = 8, nz = 32;
  mesh::Fft3 fft(nx, ny, nz);
  SplitMix64 rng(11);
  std::vector<double> grid(nx * ny * nz);
  for (double& g : grid) g = rng.uniform(-1.0, 1.0);

  std::vector<double> spec(2 * fft.spectrum_bins());
  std::vector<double> back(grid.size());
  fft.forward(grid.data(), spec.data());
  fft.inverse(spec.data(), back.data());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_NEAR(back[i], grid[i], 1e-12) << "grid point " << i;
  }
}

TEST(MeshFft, MatchesNaiveDftOnSampledBins) {
  const std::size_t nx = 8, ny = 8, nz = 8;
  mesh::Fft3 fft(nx, ny, nz);
  SplitMix64 rng(12);
  std::vector<double> grid(nx * ny * nz);
  for (double& g : grid) g = rng.uniform(-1.0, 1.0);
  std::vector<double> spec(2 * fft.spectrum_bins());
  fft.forward(grid.data(), spec.data());

  const double two_pi = 2.0 * 3.14159265358979323846;
  const std::size_t nzh = nz / 2 + 1;
  for (std::size_t kx = 0; kx < nx; ++kx) {
    for (std::size_t ky = 0; ky < ny; ++ky) {
      for (std::size_t kz = 0; kz < nzh; ++kz) {
        double re = 0.0, im = 0.0;
        for (std::size_t ix = 0; ix < nx; ++ix) {
          for (std::size_t iy = 0; iy < ny; ++iy) {
            for (std::size_t iz = 0; iz < nz; ++iz) {
              const double phase =
                  -two_pi *
                  (static_cast<double>(kx * ix) / static_cast<double>(nx) +
                   static_cast<double>(ky * iy) / static_cast<double>(ny) +
                   static_cast<double>(kz * iz) / static_cast<double>(nz));
              const double g = grid[(ix * ny + iy) * nz + iz];
              re += g * std::cos(phase);
              im += g * std::sin(phase);
            }
          }
        }
        const std::size_t bin = ((kx * ny + ky) * nzh + kz) * 2;
        ASSERT_NEAR(spec[bin], re, 1e-10)
            << "re at k=(" << kx << "," << ky << "," << kz << ")";
        ASSERT_NEAR(spec[bin + 1], im, 1e-10)
            << "im at k=(" << kx << "," << ky << "," << kz << ")";
      }
    }
  }
}

TEST(MeshFft, ParsevalHoldsOverHalfSpectrum) {
  const std::size_t nx = 8, ny = 16, nz = 16;
  mesh::Fft3 fft(nx, ny, nz);
  SplitMix64 rng(13);
  std::vector<double> grid(nx * ny * nz);
  for (double& g : grid) g = rng.uniform(-1.0, 1.0);
  std::vector<double> spec(2 * fft.spectrum_bins());
  fft.forward(grid.data(), spec.data());

  double real_energy = 0.0;
  for (const double g : grid) real_energy += g * g;

  // Half-spectrum Parseval: kz = 0 and kz = nz/2 bins appear once, interior
  // kz bins stand for themselves and their conjugate mirror (weight 2).
  const std::size_t nzh = nz / 2 + 1;
  double spec_energy = 0.0;
  for (std::size_t kx = 0; kx < nx; ++kx) {
    for (std::size_t ky = 0; ky < ny; ++ky) {
      for (std::size_t kz = 0; kz < nzh; ++kz) {
        const std::size_t bin = ((kx * ny + ky) * nzh + kz) * 2;
        const double mag2 =
            spec[bin] * spec[bin] + spec[bin + 1] * spec[bin + 1];
        spec_energy += (kz == 0 || kz == nz / 2) ? mag2 : 2.0 * mag2;
      }
    }
  }
  const double total = static_cast<double>(nx * ny * nz);
  EXPECT_NEAR(spec_energy / total, real_energy, 1e-9 * real_energy);
}

TEST(MeshFft, RejectsNonPowerOfTwoDimensions) {
  EXPECT_THROW(mesh::Fft3(12, 8, 8), std::invalid_argument);
  EXPECT_THROW(mesh::Fft3(8, 8, 4), std::invalid_argument);
}

// ---- Spread / interpolate adjointness ------------------------------------

// The far-field operator is W_t^T G W_s (interpolation adjoint to
// spreading against the shared Green multiply), and both the background
// and (absent coincident points) self terms are symmetric too — so the
// interaction energy q_B . phi_far(B; A) must equal q_A . phi_far(A; B).
TEST(MeshPlanTest, SpreadInterpolateAdjointness) {
  const TreecodeParams params = mesh_params();
  Cloud a = screened_plasma(240, 21, kBox);
  Cloud b = uniform_cube(180, 22, 0.0, kBox);

  const OrderedParticles pa = OrderedParticles::from_cloud(a);
  const OrderedParticles pb = OrderedParticles::from_cloud(b);

  mesh::MeshPlan plan_a(pa, params);
  plan_a.solve();
  std::vector<double> phi_b(pb.size(), 0.0);
  plan_a.add_potential(pb, phi_b);
  double e_ab = 0.0;
  for (std::size_t i = 0; i < pb.size(); ++i) e_ab += pb.q[i] * phi_b[i];

  mesh::MeshPlan plan_b(pb, params);
  plan_b.solve();
  std::vector<double> phi_a(pa.size(), 0.0);
  plan_b.add_potential(pa, phi_a);
  double e_ba = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) e_ba += pa.q[i] * phi_a[i];

  EXPECT_NEAR(e_ab, e_ba, 1e-9 * std::max(std::abs(e_ab), 1.0));
}

// ---- Parity vs the converged Ewald oracle --------------------------------

class MeshParity : public ::testing::TestWithParam<TraversalMode> {};

TEST_P(MeshParity, PotentialMatchesEwaldOracleOnBothBackends) {
  const TreecodeParams params = mesh_params(GetParam());
  const Cloud c = ionic_lattice(10, 3, kBox, 0.6);
  const auto oracle = direct_sum_ewald(c, c, params.domain);
  const double bar = error_bar(params);

  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    Solver solver = make_solver(params, backend);
    solver.set_sources(c);
    RunStats stats;
    const auto phi = solver.evaluate(c, &stats);
    const double err = relative_l2_error(oracle, phi);
    EXPECT_LT(err, bar) << "backend " << static_cast<int>(backend);
    EXPECT_GT(stats.mesh_points, 0u);
    if (backend == Backend::kGpuSim) {
      EXPECT_GT(stats.gpu_launches, 0u);
    }
  }
}

TEST_P(MeshParity, FieldMatchesEwaldOracleOnCpu) {
  const TreecodeParams params = mesh_params(GetParam());
  const Cloud c = ionic_lattice(8, 5, kBox, 0.6);
  const FieldResult oracle = direct_field_ewald(c, c, params.domain);

  Solver solver = make_solver(params);
  solver.set_sources(c);
  const FieldResult field = solver.evaluate_field(c);

  const double bar = error_bar(params);
  EXPECT_LT(relative_l2_error(oracle.phi, field.phi), bar);
  // Field components measured jointly (per-axis norms can be tiny).
  std::vector<double> ref, got;
  for (std::size_t i = 0; i < c.size(); ++i) {
    ref.push_back(oracle.ex[i]);
    ref.push_back(oracle.ey[i]);
    ref.push_back(oracle.ez[i]);
    got.push_back(field.ex[i]);
    got.push_back(field.ey[i]);
    got.push_back(field.ez[i]);
  }
  EXPECT_LT(relative_l2_error(ref, got), bar);
}

INSTANTIATE_TEST_SUITE_P(Traversals, MeshParity,
                         ::testing::Values(TraversalMode::kBatched,
                                           TraversalMode::kDual),
                         [](const auto& info) {
                           return info.param == TraversalMode::kBatched
                                      ? "Batched"
                                      : "Dual";
                         });

// ---- Non-neutral acceptance ----------------------------------------------

TEST(MeshNonNeutral, MeltCloudAcceptedAndMatchesOracle) {
  const TreecodeParams params = mesh_params();
  const Cloud melt = ionic_melt(300, 7, kBox);
  const double net =
      std::accumulate(melt.q.begin(), melt.q.end(), 0.0);
  ASSERT_GT(std::abs(net), 1.0);  // genuinely non-neutral

  Solver solver = make_solver(params);
  solver.set_sources(melt);  // must not throw
  const auto phi = solver.evaluate(melt);
  const auto oracle = direct_sum_ewald(melt, melt, params.domain);
  EXPECT_LT(relative_l2_error(oracle, phi), error_bar(params));
}

// ---- Alpha / spacing invariance ------------------------------------------

// The converged answer must not depend on where the Ewald split is placed
// or how fine the mesh is, as long as each configuration meets its own
// tolerance: auto-tuned, explicit alpha, and explicit finer spacing all
// land within the treecode's error bar of the same oracle.
TEST(MeshInvariance, SplitPlacementAndSpacingDoNotMoveTheAnswer) {
  const Cloud c = ionic_lattice(8, 9, kBox, 0.5);
  const auto oracle = direct_sum_ewald(c, c, Box3::cube(0.0, kBox));

  TreecodeParams tuned = mesh_params();
  TreecodeParams explicit_alpha = mesh_params();
  explicit_alpha.ewald_alpha = 12.0;
  TreecodeParams fine_spacing = mesh_params();
  fine_spacing.mesh_spacing = 1.0 / 48.0;

  std::vector<std::vector<double>> results;
  for (const TreecodeParams& params :
       {tuned, explicit_alpha, fine_spacing}) {
    Solver solver = make_solver(params);
    solver.set_sources(c);
    results.push_back(solver.evaluate(c));
    EXPECT_LT(relative_l2_error(oracle, results.back()), error_bar(params));
  }
  // Pairwise agreement: the near+far sum is split-invariant well below the
  // treecode bar (both sides of the split change, the total must not).
  EXPECT_LT(relative_l2_error(results[0], results[1]),
            2.0 * error_bar(tuned));
  EXPECT_LT(relative_l2_error(results[0], results[2]),
            2.0 * error_bar(tuned));
}

// ---- Lifecycle lock-step parity ------------------------------------------

TEST(MeshLifecycle, UpdateChargesMatchesFreshSolverBitForBit) {
  const TreecodeParams params = mesh_params();
  const Cloud c = ionic_lattice(8, 13, kBox, 0.5);
  Cloud recharged = c;
  SplitMix64 rng(14);
  for (double& q : recharged.q) q *= rng.uniform(0.5, 1.5);

  Solver incremental = make_solver(params);
  incremental.set_sources(c);
  (void)incremental.evaluate(c);
  incremental.update_charges(
      std::span<const double>(recharged.q.data(), recharged.q.size()));
  const auto phi_inc = incremental.evaluate(recharged);

  Solver fresh = make_solver(params);
  fresh.set_sources(recharged);
  const auto phi_fresh = fresh.evaluate(recharged);

  ASSERT_EQ(phi_inc.size(), phi_fresh.size());
  for (std::size_t i = 0; i < phi_inc.size(); ++i) {
    ASSERT_EQ(phi_inc[i], phi_fresh[i]) << "slot " << i;
  }
}

TEST(MeshLifecycle, UpdatePositionsZeroSlackMatchesFreshBitForBit) {
  TreecodeParams params = mesh_params();
  params.position_slack = 0.0;  // exact-parity contract: full re-plan
  Cloud c = ionic_lattice(8, 15, kBox, 0.5);

  Solver incremental = make_solver(params);
  incremental.set_sources(c);
  (void)incremental.evaluate(c);

  Cloud moved = c;
  SplitMix64 rng(16);
  for (std::size_t i = 0; i < moved.size(); i += 7) {
    moved.x[i] += 1e-3 * rng.uniform(-1.0, 1.0);
    moved.y[i] += 1e-3 * rng.uniform(-1.0, 1.0);
    moved.z[i] += 1e-3 * rng.uniform(-1.0, 1.0);
  }
  incremental.update_positions(moved);
  const auto phi_inc = incremental.evaluate(moved);

  Solver fresh = make_solver(params);
  fresh.set_sources(moved);
  const auto phi_fresh = fresh.evaluate(moved);

  ASSERT_EQ(phi_inc.size(), phi_fresh.size());
  for (std::size_t i = 0; i < phi_inc.size(); ++i) {
    ASSERT_EQ(phi_inc[i], phi_fresh[i]) << "slot " << i;
  }
}

TEST(MeshLifecycle, IncrementalDriftKeepsOracleAccuracy) {
  TreecodeParams params = mesh_params();
  params.position_slack = 0.1;  // in-topology incremental updates
  Cloud c = ionic_lattice(8, 17, kBox, 0.5);

  Solver solver = make_solver(params);
  solver.set_sources(c);
  (void)solver.evaluate(c);

  SplitMix64 rng(18);
  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < c.size(); i += 5) {
      c.x[i] += 2e-4 * rng.uniform(-1.0, 1.0);
      c.y[i] += 2e-4 * rng.uniform(-1.0, 1.0);
      c.z[i] += 2e-4 * rng.uniform(-1.0, 1.0);
    }
    solver.update_positions(c);
    const auto phi = solver.evaluate(c);
    const auto oracle = direct_sum_ewald(c, c, params.domain);
    EXPECT_LT(relative_l2_error(oracle, phi), error_bar(params))
        << "step " << step;
  }
}

TEST(MeshLifecycle, MeshSecondsLandOnTheNextEvaluation) {
  // Spread and FFT seconds paid by set_sources, update_charges and
  // update_positions are reported by the evaluation after each; a repeat
  // evaluation on an unchanged mesh solves nothing.
  TreecodeParams params = mesh_params();
  params.position_slack = 0.1;
  Cloud c = ionic_lattice(8, 19, kBox, 0.5);
  Solver solver = make_solver(params);
  solver.set_sources(c);
  RunStats stats;
  (void)solver.evaluate(c, &stats);
  EXPECT_GT(stats.fft_seconds, 0.0);
  EXPECT_GT(stats.mesh_spread_seconds, 0.0);
  EXPECT_GT(stats.mesh_points, 0u);

  (void)solver.evaluate(c, &stats);
  EXPECT_EQ(stats.fft_seconds, 0.0);
  EXPECT_GT(stats.mesh_spread_seconds, 0.0);  // the per-call gather

  std::vector<double> charges = c.q;
  for (double& q : charges) q *= 0.5;
  solver.update_charges(charges);
  (void)solver.evaluate(c, &stats);
  EXPECT_GT(stats.fft_seconds, 0.0);

  for (std::size_t i = 0; i < c.size(); i += 5) c.x[i] += 1e-4;
  solver.update_positions(c);
  (void)solver.evaluate(c, &stats);
  EXPECT_TRUE(stats.incremental_update);
  EXPECT_GT(stats.fft_seconds, 0.0);

  // Under Backend::kGpuSim the mesh pipeline is modeled, but the spread and
  // FFT fields stay measured: the repeat evaluation's gather is part of its
  // measured compute, and the modeled seconds land in `modeled` only. A
  // device 1e8 times slower than Titan V makes any modeled second that
  // leaks into a measured field dwarf the measurement.
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = mesh_params();
  config.backend = Backend::kGpuSim;
  config.gpu.device.evals_per_sec = 1e3;
  Solver gpu(std::move(config));
  const Cloud lattice = ionic_lattice(8, 19, kBox, 0.5);
  gpu.set_sources(lattice);
  (void)gpu.evaluate(lattice, &stats);
  (void)gpu.evaluate(lattice, &stats);
  EXPECT_EQ(stats.fft_seconds, 0.0);
  EXPECT_GT(stats.mesh_spread_seconds, 0.0);  // the measured host gather
  EXPECT_LE(stats.mesh_spread_seconds, stats.compute_seconds);
  EXPECT_GT(stats.modeled.compute, 0.0);
}

// ---- Serving layer -------------------------------------------------------

TEST(MeshServe, CacheHitServesBitIdenticalPotentialsWithOneMeshBuild) {
  const TreecodeParams params = mesh_params();
  const Cloud c = ionic_melt(240, 19, kBox);  // non-neutral through serve too

  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 0;  // evaluate_now only: deterministic, single thread
  serve::ServeFrontend frontend(cache, options);

  serve::ServeRequest request;
  request.sources = &c;
  request.params = params;
  request.kernel = KernelSpec::coulomb();

  const serve::ServeResponse first = frontend.evaluate_now(request);
  const serve::ServeResponse second = frontend.evaluate_now(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(first.phi.size(), second.phi.size());
  for (std::size_t i = 0; i < first.phi.size(); ++i) {
    ASSERT_EQ(first.phi[i], second.phi[i]) << "slot " << i;
  }

  // One miss, one hit: the mesh far field was built and solved exactly once
  // (it lives on the cached plan; a hit never re-spreads or re-solves).
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // And the served potentials agree with the direct solver path.
  Solver solver = make_solver(params);
  solver.set_sources(c);
  const auto phi = solver.evaluate(c);
  EXPECT_LT(relative_l2_error(phi, first.phi), 1e-12);
}

TEST(MeshServe, MeshPlansVerifyAndFingerprintMeshParams) {
  const Cloud c = ionic_lattice(6, 23, kBox, 0.4);
  TreecodeParams a = mesh_params();
  TreecodeParams b = mesh_params();
  b.mesh_order = 4;  // different far-field discretization => different plan

  EXPECT_NE(serve::params_fingerprint(a), serve::params_fingerprint(b));

  serve::PlanCache cache;
  bool hit = false;
  const serve::PlanPtr plan_a = cache.get_or_build(c, a, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(plan_a->mesh, nullptr);
  EXPECT_TRUE(plan_a->mesh->solved());
  const serve::PlanPtr plan_b = cache.get_or_build(c, b, &hit);
  EXPECT_FALSE(hit);  // mesh_order change must miss
  EXPECT_NE(plan_a.get(), plan_b.get());
  EXPECT_EQ(plan_b->mesh->tuning().order, 4);
}

}  // namespace
}  // namespace bltc
