// Conformance suite for per-interaction mixed-precision execution
// (core/precision.hpp): the error-ladder tagging, fp32 execution through
// the update paths, and the policy contracts.
//
//   * under kMixed the end-to-end error stays within the nominal (theta, n)
//     target across kernels, traversals, boundaries, and backends, while
//     fp32 tiles actually execute (fp32_evals > 0);
//   * direct tiles run fp64 under every policy — even kFp32Far;
//   * kFp64 is bit-identical to the untagged execution, and a kMixed
//     configuration whose ladder demotes every tile is bit-identical too
//     (the demotion counter proves the ladder was consulted);
//   * fp32 tiles narrow the live fp64 sources, so update_charges and
//     slack-fattened update_positions match a fresh solver;
//   * the serving layer keys plans by precision policy and reports the
//     precision each response actually executed.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/periodic.hpp"
#include "core/precision.hpp"
#include "core/solver.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams params_for(TraversalMode traversal, PrecisionPolicy policy) {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 8;
  // Small leaves so a few-thousand-particle cloud has a real far field
  // (the MAC only admits clusters with more than (n+1)^3 sources).
  p.max_leaf = 100;
  p.max_batch = 100;
  p.traversal = traversal;
  p.precision = policy;
  return p;
}

/// Two tight clumps separated by ~100x their radius: every inter-clump
/// interaction is admitted with a tiny opening ratio (kappa ~ 0.03), so
/// the fp32-eligibility decision is governed purely by the nominal
/// (theta, n) target against the fp32 tile floor — the knob the
/// demote-all / promote-all contract tests need.
Cloud two_clumps(std::size_t per_clump, std::uint64_t seed) {
  Cloud a = uniform_cube(per_clump, seed);
  const Cloud b = uniform_cube(per_clump, seed + 1);
  for (std::size_t i = 0; i < b.size(); ++i) {
    a.x.push_back(b.x[i] + 100.0);
    a.y.push_back(b.y[i]);
    a.z.push_back(b.z[i]);
    a.q.push_back(b.q[i]);
  }
  return a;
}

std::vector<double> run(const Cloud& cloud, const KernelSpec& kernel,
                        const TreecodeParams& params, Backend backend,
                        RunStats* stats = nullptr) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = backend;
  Solver solver(config);
  solver.set_sources(cloud);
  return solver.evaluate(cloud, stats);
}

// ---- End-to-end error under kMixed ---------------------------------------
// {Coulomb, Yukawa} x {batched, dual} x {CPU, GpuSim}: the mixed result
// must stay within the nominal a-priori bound, must not degrade much past
// the fp64 result plus the fp32 tile floor, and must actually have run
// fp32 tiles with a clean fp32/fp64 split.

class MixedAccuracy
    : public ::testing::TestWithParam<std::tuple<int, TraversalMode, int>> {};

TEST_P(MixedAccuracy, WithinNominalBound) {
  const Backend backend =
      std::get<0>(GetParam()) == 0 ? Backend::kCpu : Backend::kGpuSim;
  const TraversalMode traversal = std::get<1>(GetParam());
  const KernelSpec kernel = std::get<2>(GetParam()) == 0
                                ? KernelSpec::coulomb()
                                : KernelSpec::yukawa(0.5);
  const Cloud c = uniform_cube(8000, 11);
  const auto sample = sample_indices(c.size(), 500);
  const auto ref = direct_sum_sampled(c, sample, c, kernel);

  RunStats sd, sm;
  const auto phi_d =
      run(c, kernel, params_for(traversal, PrecisionPolicy::kFp64), backend,
          &sd);
  const auto phi_m =
      run(c, kernel, params_for(traversal, PrecisionPolicy::kMixed), backend,
          &sm);
  std::vector<double> d_sampled(sample.size()), m_sampled(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) {
    d_sampled[s] = phi_d[sample[s]];
    m_sampled[s] = phi_m[sample[s]];
  }
  const double err_d = relative_l2_error(ref, d_sampled);
  const double err_m = relative_l2_error(ref, m_sampled);

  EXPECT_LT(err_m, nominal_error_bound(0.7, 8));
  // The ladder only demotes to fp32 when truncation + the tile floor meets
  // the nominal target, so mixed may sit on the fp32 floor but not above.
  EXPECT_LT(err_m, err_d * 10.0 + 10.0 * kFp32TileError);

  EXPECT_EQ(sd.fp32_evals, 0.0);
  EXPECT_GT(sm.fp32_evals, 0.0);
  EXPECT_DOUBLE_EQ(sm.fp32_evals + sm.fp64_evals, sm.total_evals());
  // Direct tiles never demote to fp32.
  EXPECT_GE(sm.fp64_evals, sm.direct_evals);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MixedAccuracy,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(TraversalMode::kBatched,
                                         TraversalMode::kDual),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == 0 ? "cpu" : "gpu") +
             (std::get<1>(info.param) == TraversalMode::kDual ? "_dual"
                                                              : "_batched") +
             (std::get<2>(info.param) == 0 ? "_coulomb" : "_yukawa");
    });

// ---- Fields under kMixed (CPU only) --------------------------------------

TEST(MixedPrecision, FieldWithinNominalBound) {
  const Cloud c = uniform_cube(8000, 12);
  // Reference only at a head slice of the targets: O(m*n) instead of O(n^2).
  const std::size_t m = 400;
  Cloud head;
  head.x.assign(c.x.begin(), c.x.begin() + m);
  head.y.assign(c.y.begin(), c.y.begin() + m);
  head.z.assign(c.z.begin(), c.z.begin() + m);
  head.q.assign(c.q.begin(), c.q.begin() + m);
  const auto slice = [m](const std::vector<double>& v) {
    return std::vector<double>(v.begin(), v.begin() + m);
  };
  for (const KernelSpec& kernel :
       {KernelSpec::coulomb(), KernelSpec::yukawa(0.5)}) {
    const FieldResult ref = direct_field(head, c, kernel);
    for (const TraversalMode traversal :
         {TraversalMode::kBatched, TraversalMode::kDual}) {
      SolverConfig config;
      config.kernel = kernel;
      config.params = params_for(traversal, PrecisionPolicy::kMixed);
      Solver solver(config);
      solver.set_sources(c);
      RunStats stats;
      const FieldResult f = solver.evaluate_field(c, &stats);
      EXPECT_LT(relative_l2_error(ref.phi, slice(f.phi)),
                nominal_error_bound(0.7, 8))
          << kernel.name();
      EXPECT_LT(relative_l2_error(ref.ex, slice(f.ex)), 1e-2)
          << kernel.name();
      EXPECT_LT(relative_l2_error(ref.ey, slice(f.ey)), 1e-2)
          << kernel.name();
      EXPECT_LT(relative_l2_error(ref.ez, slice(f.ez)), 1e-2)
          << kernel.name();
      EXPECT_GT(stats.fp32_evals, 0.0);
    }
  }
}

// ---- Periodic boundaries under kMixed ------------------------------------
// Yukawa (no neutrality requirement) against the image-set oracle, for the
// batched and dual CPU traversals and the batched GpuSim path.

TEST(MixedPrecision, PeriodicWithinNominalBound) {
  const double box = 1.0;
  const Cloud c = screened_plasma(3000, 13, box);
  const KernelSpec kernel = KernelSpec::yukawa(2.0);
  const auto sample = sample_indices(c.size(), 200);

  for (const auto& [backend, traversal] :
       {std::pair{Backend::kCpu, TraversalMode::kBatched},
        std::pair{Backend::kCpu, TraversalMode::kDual},
        std::pair{Backend::kGpuSim, TraversalMode::kBatched}}) {
    TreecodeParams p = params_for(traversal, PrecisionPolicy::kMixed);
    p.boundary = BoundaryConditions::kPeriodic;
    p.domain = Box3::cube(0.0, box);
    p.image_shells = 1;
    RunStats stats;
    const auto phi = run(c, kernel, p, backend, &stats);
    const auto ref = direct_sum_periodic_sampled(c, sample, c, kernel,
                                                 p.domain, p.image_shells);
    std::vector<double> phi_sampled(sample.size());
    for (std::size_t s = 0; s < sample.size(); ++s) {
      phi_sampled[s] = phi[sample[s]];
    }
    EXPECT_LT(relative_l2_error(ref, phi_sampled),
              nominal_error_bound(0.7, 8));
    EXPECT_GT(stats.fp32_evals, 0.0);
  }
}

// ---- Policy contracts ----------------------------------------------------

TEST(MixedPrecision, Fp64PolicyBitIdenticalToDefault) {
  // kFp64 must leave no trace: same bits as a solver that never mentions
  // precision, on both traversals.
  const Cloud c = uniform_cube(3000, 14);
  for (const TraversalMode traversal :
       {TraversalMode::kBatched, TraversalMode::kDual}) {
    TreecodeParams untagged = params_for(traversal, PrecisionPolicy::kFp64);
    const auto phi_default =
        run(c, KernelSpec::coulomb(), untagged, Backend::kCpu);
    untagged.precision = PrecisionPolicy::kFp64;
    const auto phi_fp64 =
        run(c, KernelSpec::coulomb(), untagged, Backend::kCpu);
    EXPECT_EQ(phi_default, phi_fp64);
  }
}

TEST(MixedPrecision, AllDemotedMixedBitIdenticalToFp64) {
  // Two clumps 100x their radius apart: the inter-clump tiles are admitted
  // at kappa ~ 0.01 whenever the clump root outnumbers the (n+1)^3
  // interpolation points. At theta = 0.28, degree = 12 the nominal target
  // 0.28^13 / 0.72 ~ 9e-8 sits below the fp32 tile floor (1e-6), so the
  // ladder demotes every far-field tile — kMixed must then be bit-identical
  // to kFp64, with the demotion counter proving the ladder actually ran.
  const Cloud c = two_clumps(3000, 15);
  for (const TraversalMode traversal :
       {TraversalMode::kBatched, TraversalMode::kDual}) {
    TreecodeParams p = params_for(traversal, PrecisionPolicy::kFp64);
    p.theta = 0.28;
    p.degree = 12;
    RunStats sd;
    const auto phi_d = run(c, KernelSpec::coulomb(), p, Backend::kCpu, &sd);
    p.precision = PrecisionPolicy::kMixed;
    RunStats sm;
    const auto phi_m = run(c, KernelSpec::coulomb(), p, Backend::kCpu, &sm);
    // Far field exists to demote.
    ASSERT_GT(sd.approx_evals + sd.cp_evals + sd.cc_evals, 0.0);
    EXPECT_EQ(phi_d, phi_m);
    EXPECT_EQ(sm.fp32_evals, 0.0);
    EXPECT_GT(sm.precision_demotions, 0u);

    // Contrast: degree 8 on the same geometry lifts the nominal target to
    // 0.28^9 / 0.72 ~ 1.5e-5, above the tile floor — the very same tiles
    // now clear the ladder and run fp32, with nothing demoted.
    p.degree = 8;
    RunStats sf;
    (void)run(c, KernelSpec::coulomb(), p, Backend::kCpu, &sf);
    EXPECT_GT(sf.fp32_evals, 0.0);
    EXPECT_EQ(sf.precision_demotions, 0u);
  }
}

TEST(MixedPrecision, DirectTilesStayFp64UnderFp32Far) {
  const Cloud c = uniform_cube(8000, 16);
  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    for (const TraversalMode traversal :
         {TraversalMode::kBatched, TraversalMode::kDual}) {
      RunStats stats;
      (void)run(c, KernelSpec::coulomb(),
                params_for(traversal, PrecisionPolicy::kFp32Far), backend,
                &stats);
      ASSERT_GT(stats.direct_evals, 0.0);
      EXPECT_GT(stats.fp32_evals, 0.0);
      // Every far-field eval is fp32 under kFp32Far, so the fp64 side is
      // exactly the direct tiles.
      EXPECT_DOUBLE_EQ(stats.fp64_evals, stats.direct_evals);
      EXPECT_EQ(stats.precision_demotions, 0u);
    }
  }
}

// ---- Update paths --------------------------------------------------------

TEST(MixedPrecision, UpdateChargesMatchesFreshSolver) {
  // Charges-only refresh: the patched solver must match a fresh solver of
  // the recharged cloud bit-for-bit (same tree, same tags, and fp32 tiles
  // narrowing the same refreshed charges).
  const Cloud start = uniform_cube(8000, 17);
  Cloud recharged = start;
  SplitMix64 rng(99);
  for (std::size_t i = 0; i < recharged.size(); ++i) {
    recharged.q[i] *= 0.5 + rng.next_double();
  }
  for (const TraversalMode traversal :
       {TraversalMode::kBatched, TraversalMode::kDual}) {
    SolverConfig config;
    config.kernel = KernelSpec::coulomb();
    config.params = params_for(traversal, PrecisionPolicy::kMixed);
    Solver patched(config);
    patched.set_sources(start);
    (void)patched.evaluate(start);
    patched.update_charges(recharged.q);

    Solver fresh(config);
    fresh.set_sources(recharged);
    EXPECT_EQ(patched.evaluate(recharged), fresh.evaluate(recharged));
  }
}

TEST(MixedPrecision, UpdatePositionsMatchesFreshSolver) {
  // Slack-fattened incremental update under kMixed: the fp32 tiles narrow
  // the patched fp64 particles and moments, so the patched solver matches a
  // fresh solver of the moved cloud at mixed tolerance (the trees differ —
  // fat boxes are kept — so bitwise equality is not expected). The dual
  // traversal needs a larger cloud: its fattened target boxes admit no
  // far-field pair at the batched case's size.
  for (const auto& [traversal, n] :
       {std::pair{TraversalMode::kBatched, std::size_t{8000}},
        std::pair{TraversalMode::kDual, std::size_t{24000}}}) {
    const Cloud start = uniform_cube(n, 18);
    Cloud moved = start;
    SplitMix64 rng(7);
    for (std::size_t i = 0; i < moved.size(); i += 8) {
      moved.x[i] += 1e-3 * (2.0 * rng.next_double() - 1.0);
      moved.y[i] += 1e-3 * (2.0 * rng.next_double() - 1.0);
      moved.z[i] += 1e-3 * (2.0 * rng.next_double() - 1.0);
    }
    SolverConfig config;
    config.kernel = KernelSpec::coulomb();
    config.params = params_for(traversal, PrecisionPolicy::kMixed);
    config.params.position_slack = 0.2;
    Solver patched(config);
    patched.set_sources(start);
    (void)patched.evaluate(start);
    patched.update_positions(moved);
    RunStats stats;
    const auto phi_patched = patched.evaluate(moved, &stats);
    EXPECT_TRUE(stats.incremental_update);
    EXPECT_GT(stats.fp32_evals, 0.0);

    Solver fresh(config);
    fresh.set_sources(moved);
    const auto phi_fresh = fresh.evaluate(moved);
    EXPECT_LT(relative_l2_error(phi_fresh, phi_patched),
              10.0 * kFp32TileError);
  }
}

// ---- Serving layer -------------------------------------------------------

TEST(MixedPrecision, CacheKeysDistinguishPrecisionPolicies) {
  TreecodeParams p = params_for(TraversalMode::kBatched,
                                PrecisionPolicy::kFp64);
  const std::uint64_t fp64_print = serve::params_fingerprint(p);
  p.precision = PrecisionPolicy::kMixed;
  const std::uint64_t mixed_print = serve::params_fingerprint(p);
  p.precision = PrecisionPolicy::kFp32Far;
  const std::uint64_t far_print = serve::params_fingerprint(p);
  EXPECT_NE(fp64_print, mixed_print);
  EXPECT_NE(fp64_print, far_print);
  EXPECT_NE(mixed_print, far_print);

  // Two policies over one cloud are two plans; re-asking for each hits.
  const Cloud c = uniform_cube(1500, 19);
  serve::PlanCache cache;
  p.precision = PrecisionPolicy::kFp64;
  const auto plan_fp64 = cache.get_or_build(c, p);
  p.precision = PrecisionPolicy::kMixed;
  const auto plan_mixed = cache.get_or_build(c, p);
  EXPECT_NE(plan_fp64.get(), plan_mixed.get());
  // fp32 tiles narrow the plan's fp64 arrays while staging them, so a mixed
  // plan holds no more state than the fp64 plan of the same cloud.
  EXPECT_EQ(serve::cached_plan_bytes(*plan_mixed),
            serve::cached_plan_bytes(*plan_fp64));
  bool hit = false;
  (void)cache.get_or_build(c, p, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(MixedPrecision, ServeReportsExecutedPrecision) {
  const Cloud c = uniform_cube(1500, 20);
  serve::PlanCache cache;
  serve::ServeFrontend frontend(cache);

  serve::ServeRequest request;
  request.sources = &c;
  request.params = params_for(TraversalMode::kBatched,
                              PrecisionPolicy::kMixed);
  request.kernel = KernelSpec::coulomb();

  const serve::ServeResponse nominal = frontend.evaluate_now(request);
  EXPECT_EQ(nominal.precision, PrecisionPolicy::kMixed);
  EXPECT_EQ(nominal.degrade_tier, 0);

  // A degraded tier executes a deeper ladder level all-fp64 (the fp32 tags
  // were proved against the nominal degree) and must say so, whatever the
  // request's policy.
  request.degrade_tier = 1;
  const serve::ServeResponse degraded = frontend.evaluate_now(request);
  ASSERT_GT(degraded.degrade_tier, 0);
  EXPECT_EQ(degraded.precision, PrecisionPolicy::kFp64);
}

// ---- GpuSim throughput model ---------------------------------------------

TEST(MixedPrecision, GpuModeledComputeOrdering) {
  // fp32 launches run at the 2:1 modeled FP32:FP64 throughput, so the
  // far-field-heavy modeled compute must strictly improve as the policy
  // loosens: fp32far <= mixed < fp64. The run must be device-bound for
  // the 2:1 ratio to surface: many small launches hide behind the modeled
  // per-launch queue overhead and the min_kernel_time floor. Two clumps
  // that are each a single 4000-particle leaf give a handful of launches
  // whose approx tiles are 4000 x 729 evals — far above both.
  const Cloud c = two_clumps(4000, 21);
  const auto params = [](PrecisionPolicy policy) {
    TreecodeParams p = params_for(TraversalMode::kBatched, policy);
    p.max_leaf = 4000;
    p.max_batch = 4000;
    return p;
  };
  RunStats fp64, mixed, fp32far;
  (void)run(c, KernelSpec::coulomb(), params(PrecisionPolicy::kFp64),
            Backend::kGpuSim, &fp64);
  (void)run(c, KernelSpec::coulomb(), params(PrecisionPolicy::kMixed),
            Backend::kGpuSim, &mixed);
  (void)run(c, KernelSpec::coulomb(), params(PrecisionPolicy::kFp32Far),
            Backend::kGpuSim, &fp32far);
  EXPECT_LT(mixed.modeled.compute, fp64.modeled.compute);
  EXPECT_LE(fp32far.modeled.compute, mixed.modeled.compute);
  EXPECT_GT(mixed.fp32_evals, 0.0);
}

}  // namespace
}  // namespace bltc
