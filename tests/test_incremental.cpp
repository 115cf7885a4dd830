// Incremental dynamics: amortized-O(moved) update_positions with
// slack-fattened leaf boxes, dirty-cluster-only moment rebuilds, and reused
// interaction lists. Covers the exact-parity contract at position_slack = 0,
// accuracy of the incremental path against full-rebuild and direct-sum
// oracles, adversarial leaf-crossing re-buckets, periodic wrap composition,
// the plan.incremental_rebucket / gpusim.partial_restage failpoints' clean
// full-rebuild fallback, proportional GpuSim restage traffic, the
// commutative serve-layer fingerprint update, and the distributed LET
// refresh path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/moments.hpp"
#include "core/solver.hpp"
#include "core/tree.hpp"
#include "dist/dist_solver.hpp"
#include "serve/plan_cache.hpp"
#include "util/failpoints.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams base_params() {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 6;
  p.max_leaf = 300;
  p.max_batch = 300;
  return p;
}

SolverConfig config_with(const TreecodeParams& params,
                         Backend backend = Backend::kCpu) {
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = params;
  config.backend = backend;
  return config;
}

/// Displace every particle by a uniform random step of at most `scale` per
/// axis (deterministic in `seed`).
Cloud jitter(const Cloud& cloud, double scale, std::uint64_t seed) {
  Cloud out = cloud;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.x[i] += scale * (2.0 * rng.next_double() - 1.0);
    out.y[i] += scale * (2.0 * rng.next_double() - 1.0);
    out.z[i] += scale * (2.0 * rng.next_double() - 1.0);
  }
  return out;
}

// ---- Exact parity at slack = 0 -------------------------------------------

TEST(Incremental, ZeroSlackUpdateIsBitIdenticalToSetSources) {
  const Cloud before = uniform_cube(4000, 11);
  const Cloud after = jitter(before, 1e-3, 12);
  TreecodeParams params = base_params();  // position_slack = 0

  Solver incremental(config_with(params));
  incremental.set_sources(before);
  (void)incremental.evaluate(before);
  incremental.update_positions(after);
  RunStats stats;
  const auto phi_update = incremental.evaluate(after, &stats);
  EXPECT_FALSE(stats.incremental_update);  // slack = 0 => full re-plan

  Solver fresh(config_with(params));
  fresh.set_sources(after);
  const auto phi_fresh = fresh.evaluate(after);
  EXPECT_EQ(phi_update, phi_fresh);
}

// ---- Incremental accuracy -------------------------------------------------

TEST(Incremental, SmallDisplacementUpdateStaysTreecodeAccurate) {
  const Cloud start = uniform_cube(5000, 21);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  Solver solver(config_with(params));
  solver.set_sources(start);
  (void)solver.evaluate(start);

  Cloud cloud = start;
  bool saw_incremental = false;
  for (int step = 1; step <= 4; ++step) {
    cloud = jitter(cloud, 5e-4, 100 + static_cast<std::uint64_t>(step));
    solver.update_positions(cloud);
    RunStats stats;
    const auto phi = solver.evaluate(cloud, &stats);
    saw_incremental = saw_incremental || stats.incremental_update;

    // The incremental result must stay at the treecode's own accuracy
    // against the direct sum, and within the far-field error level of a
    // from-scratch plan of the same parameters.
    const auto ref = direct_sum(cloud, cloud, KernelSpec::coulomb());
    EXPECT_LT(relative_l2_error(ref, phi), 1e-4);

    Solver oracle(config_with(params));
    oracle.set_sources(cloud);
    const auto phi_full = oracle.evaluate(cloud);
    EXPECT_LT(relative_l2_error(phi_full, phi), 1e-4);
  }
  EXPECT_TRUE(saw_incremental);
}

TEST(Incremental, UpdateRebuildsOnlyDirtyClustersAndReusesLists) {
  const Cloud start = uniform_cube(6000, 31);
  TreecodeParams params = base_params();
  params.position_slack = 0.3;

  Solver solver(config_with(params));
  solver.set_sources(start);
  RunStats stats;
  (void)solver.evaluate(start, &stats);
  const std::size_t clusters = stats.num_clusters;

  // Move a handful of particles by a whisker: the dirty set must be a
  // strict subset of the clusters, and no tree or full moment build may
  // happen anywhere in the update.
  Cloud moved = start;
  for (std::size_t i = 0; i < 16; ++i) {
    moved.x[137 * i] += 1e-6;
  }
  const std::size_t trees_before = ClusterTree::build_count();
  const std::size_t moments_before = ClusterMoments::build_count();
  solver.update_positions(moved);
  EXPECT_EQ(ClusterTree::build_count(), trees_before);
  EXPECT_EQ(ClusterMoments::build_count(), moments_before);

  (void)solver.evaluate(moved, &stats);
  EXPECT_TRUE(stats.incremental_update);
  EXPECT_EQ(stats.moved_particles, 16u);
  EXPECT_EQ(stats.rebucketed_particles, 0u);
  EXPECT_GT(stats.dirty_clusters, 0u);
  EXPECT_LT(stats.dirty_clusters, clusters);
  // Source lists and the self-target plan both survived.
  EXPECT_GE(stats.lists_reused, 2u);
}

TEST(Incremental, NoOpUpdateMarksNothingDirty) {
  const Cloud cloud = uniform_cube(3000, 41);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  Solver solver(config_with(params));
  solver.set_sources(cloud);
  const auto phi_before = solver.evaluate(cloud);
  solver.update_positions(cloud);  // identical positions
  RunStats stats;
  const auto phi_after = solver.evaluate(cloud, &stats);
  EXPECT_TRUE(stats.incremental_update);
  EXPECT_EQ(stats.moved_particles, 0u);
  EXPECT_EQ(stats.dirty_clusters, 0u);
  EXPECT_EQ(phi_before, phi_after);
}

// ---- Adversarial re-bucketing ---------------------------------------------

TEST(Incremental, LeafCrossingMarchRebucketsAndStaysCorrect) {
  // March a block of particles clear across the cloud in steps large enough
  // to escape their fattened leaves: the incremental path must re-bucket
  // them into their new leaves (same topology) and keep treecode accuracy.
  const Cloud start = uniform_cube(5000, 51);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  Solver solver(config_with(params));
  solver.set_sources(start);
  (void)solver.evaluate(start);

  Cloud cloud = start;
  std::size_t total_rebucketed = 0;
  bool any_incremental = false;
  for (int step = 0; step < 3; ++step) {
    for (std::size_t i = 0; i < 64; ++i) {
      // 0.5 per step spans several leaves of a [-1,1]^3 cloud.
      cloud.x[29 * i] = std::fmod(cloud.x[29 * i] + 1.0 + 0.5, 2.0) - 1.0;
    }
    solver.update_positions(cloud);
    RunStats stats;
    const auto phi = solver.evaluate(cloud, &stats);
    if (stats.incremental_update) {
      any_incremental = true;
      total_rebucketed += stats.rebucketed_particles;
    }
    const auto ref = direct_sum(cloud, cloud, KernelSpec::coulomb());
    EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
  }
  EXPECT_TRUE(any_incremental);
  EXPECT_GT(total_rebucketed, 0u);
}

// ---- Periodic composition -------------------------------------------------

TEST(Incremental, PeriodicWrapComposesWithIncrementalUpdate) {
  TreecodeParams params = base_params();
  params.theta = 0.6;
  params.boundary = BoundaryConditions::kPeriodic;
  params.domain = Box3::cube(0.0, 1.0);
  params.image_shells = 1;
  params.position_slack = 0.2;

  Cloud cloud = screened_plasma(3000, 61, 1.0);
  cloud.q.assign(cloud.size(), 1.0);  // Yukawa needs no neutrality

  SolverConfig config = config_with(params);
  config.kernel = KernelSpec::yukawa(4.0);
  Solver solver(config);
  solver.set_sources(cloud);
  (void)solver.evaluate(cloud);

  // Drift everything; several particles cross the boundary and must be
  // wrapped back into the primary cell before the escape test.
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    cloud.x[i] += 3e-3;  // some cross x = 1
    cloud.y[i] += 1e-4;
  }
  solver.update_positions(cloud);
  RunStats stats;
  const auto phi = solver.evaluate(cloud, &stats);
  EXPECT_TRUE(stats.incremental_update);

  Solver oracle(config);
  oracle.set_sources(cloud);
  const auto phi_full = oracle.evaluate(cloud);
  EXPECT_LT(relative_l2_error(phi_full, phi), 1e-4);
}

// ---- Failpoints: clean full-rebuild fallback ------------------------------

TEST(Incremental, RebucketFailpointFallsBackToFullRebuild) {
  const Cloud before = uniform_cube(3000, 71);
  const Cloud after = jitter(before, 1e-3, 72);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  Solver solver(config_with(params));
  solver.set_sources(before);
  (void)solver.evaluate(before);
  {
    FailpointConfig config;
    config.probability = 1.0;
    failpoints::FailpointScope scope(
        failpoints::sites::kPlanIncrementalRebucket, config);
    EXPECT_NO_THROW(solver.update_positions(after));
  }
  RunStats stats;
  const auto phi = solver.evaluate(after, &stats);
  EXPECT_FALSE(stats.incremental_update);  // fell back to the full re-plan

  Solver fresh(config_with(params));
  fresh.set_sources(after);
  EXPECT_EQ(phi, fresh.evaluate(after));
}

TEST(Incremental, GpuPartialRestageFailpointIsRetryable) {
  // The delta upload happens in the first evaluate after the update; a
  // tripped partial restage fails that call before touching the device,
  // and the retry uploads exactly the delta an unfaulted solver uploads.
  const Cloud before = uniform_cube(3000, 81);
  const Cloud after = jitter(before, 1e-3, 82);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  const auto moved_solver = [&](Solver& solver) {
    solver.set_sources(before);
    (void)solver.evaluate(before);
    solver.update_positions(after);
  };
  Solver solver(config_with(params, Backend::kGpuSim));
  moved_solver(solver);
  {
    FailpointConfig config;
    config.probability = 1.0;
    failpoints::FailpointScope scope(failpoints::sites::kGpuPartialRestage,
                                     config);
    EXPECT_THROW((void)solver.evaluate(after), FailpointError);
  }
  RunStats stats;
  const auto phi = solver.evaluate(after, &stats);
  EXPECT_TRUE(stats.incremental_update);

  Solver clean(config_with(params, Backend::kGpuSim));
  moved_solver(clean);
  RunStats clean_stats;
  EXPECT_EQ(phi, clean.evaluate(after, &clean_stats));
  EXPECT_EQ(stats.bytes_to_device, clean_stats.bytes_to_device);
  EXPECT_EQ(stats.gpu_launches, clean_stats.gpu_launches);
}

// ---- GpuSim: restage traffic proportional to the delta --------------------

TEST(Incremental, GpuRestageBytesProportionalToMovedData) {
  const Cloud start = uniform_cube(20000, 91);
  TreecodeParams params = base_params();
  params.position_slack = 0.3;

  Solver solver(config_with(params, Backend::kGpuSim));
  solver.set_sources(start);
  RunStats stats;
  (void)solver.evaluate(start, &stats);
  const std::size_t full_bytes = stats.bytes_to_device;
  ASSERT_GT(full_bytes, 0u);

  // Nudge 1% of the particles: the restage must ship the moved coordinate
  // ranges and dirty-cluster charges, not the whole source/target state.
  Cloud moved = start;
  for (std::size_t i = 0; i < moved.size() / 100; ++i) {
    moved.x[100 * i] += 1e-6;
  }
  solver.update_positions(moved);
  (void)solver.evaluate(moved, &stats);
  ASSERT_TRUE(stats.incremental_update);
  EXPECT_GT(stats.bytes_to_device, 0u);
  EXPECT_LT(stats.bytes_to_device, full_bytes / 4);
}

// ---- Dual traversal: self-target plan preservation ------------------------

TEST(Incremental, DualSelfPlanSurvivesInPlaceUpdate) {
  const Cloud start = uniform_cube(4000, 101);
  TreecodeParams params = base_params();
  params.traversal = TraversalMode::kDual;
  params.position_slack = 0.3;

  Solver solver(config_with(params));
  solver.set_sources(start);
  (void)solver.evaluate(start);

  const Cloud moved = jitter(start, 1e-6, 102);
  const std::size_t trees_before = ClusterTree::build_count();
  solver.update_positions(moved);
  RunStats stats;
  const auto phi = solver.evaluate(moved, &stats);
  ASSERT_TRUE(stats.incremental_update);
  if (stats.rebucketed_particles == 0) {
    // No escapes: the dual self-target plan (identical trees) must have
    // been carried along with zero tree builds anywhere.
    EXPECT_GE(stats.lists_reused, 2u);
    EXPECT_EQ(ClusterTree::build_count(), trees_before);
  }
  const auto ref = direct_sum(moved, moved, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

// ---- Serve layer: commutative fingerprint update --------------------------

TEST(Incremental, FingerprintUpdateMatchesFullRehash) {
  const Cloud before = uniform_cube(2000, 111);
  TreecodeParams params = base_params();
  params.position_slack = 0.2;

  Cloud after = before;
  std::vector<std::size_t> moved;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t j = 47 * i;
    after.x[j] += 1e-4;
    after.q[j] += 0.5;
    moved.push_back(j);
  }
  const std::uint64_t fp_before = serve::cloud_fingerprint(before, params);
  const std::uint64_t fp_after = serve::cloud_fingerprint(after, params);
  EXPECT_NE(fp_before, fp_after);
  EXPECT_EQ(serve::cloud_fingerprint_update(fp_before, before, after, moved,
                                            params),
            fp_after);
}

TEST(Incremental, FingerprintUpdateIsWrapAware) {
  TreecodeParams params = base_params();
  params.boundary = BoundaryConditions::kPeriodic;
  params.domain = Box3::cube(0.0, 1.0);
  params.position_slack = 0.2;

  Cloud before = screened_plasma(500, 121, 1.0);
  Cloud after = before;
  // One particle drifts across the boundary, another moves inside the cell:
  // the O(moved) update must agree with a full wrap-aware rehash.
  after.x[7] += 1.002;
  after.y[19] -= 3e-4;
  const std::vector<std::size_t> moved = {7, 19};
  const std::uint64_t fp = serve::cloud_fingerprint(before, params);
  EXPECT_EQ(serve::cloud_fingerprint_update(fp, before, after, moved, params),
            serve::cloud_fingerprint(after, params));
  EXPECT_NE(serve::cloud_fingerprint(after, params), fp);
}

TEST(Incremental, PositionSlackIsPartOfThePlanKey) {
  TreecodeParams a = base_params();
  TreecodeParams b = base_params();
  b.position_slack = 0.25;
  EXPECT_NE(serve::params_fingerprint(a), serve::params_fingerprint(b));

  // And the cache must not serve a slack-fattened plan for an exact-plan
  // request: distinct entries, no collision fallback.
  const Cloud cloud = uniform_cube(1000, 131);
  serve::PlanCache cache;
  const auto plan_a = cache.get_or_build(cloud, a);
  const auto plan_b = cache.get_or_build(cloud, b);
  EXPECT_NE(plan_a->key, plan_b->key);
  EXPECT_EQ(cache.stats().collisions, 0u);
}

// ---- Parameter validation -------------------------------------------------

TEST(Incremental, InvalidPositionSlackIsRejected) {
  TreecodeParams params = base_params();
  params.position_slack = -0.1;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.position_slack = 5.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.position_slack = 0.5;
  EXPECT_NO_THROW(params.validate());
}

// ---- Distributed: LET refresh through live windows ------------------------

TEST(Incremental, DistributedUpdateRefreshesLetWithoutReplan) {
  const Cloud start = uniform_cube(4000, 141);
  dist::DistParams dp;
  dp.treecode = base_params();
  dp.treecode.position_slack = 0.3;
  dp.backend = Backend::kCpu;

  dist::DistConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = dp;
  config.nranks = 4;
  dist::DistSolver solver(config);
  solver.set_sources(start);
  (void)solver.evaluate();

  const Cloud moved = jitter(start, 1e-6, 142);
  const std::size_t trees_before = ClusterTree::build_count();
  solver.update_positions(moved);
  dist::DistStats stats;
  const auto phi = solver.evaluate(&stats);
  // Tiny displacements cannot escape the fattened leaves: the incremental
  // path must have patched in place with zero tree builds on any rank...
  EXPECT_EQ(ClusterTree::build_count(), trees_before);
  std::size_t tree_builds = 0;
  for (const dist::RankStats& st : stats.per_rank) {
    tree_builds += st.tree_builds;
  }
  EXPECT_EQ(tree_builds, 0u);

  // ...and the refreshed LET must give full-replan accuracy.
  const auto ref = direct_sum(moved, moved, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);

  dist::DistSolver oracle(config);
  oracle.set_sources(moved);
  EXPECT_LT(relative_l2_error(oracle.evaluate(), phi), 1e-4);
}

TEST(Incremental, DistributedEscapeFallsBackToFullReplan) {
  const Cloud start = uniform_cube(4000, 151);
  dist::DistParams dp;
  dp.treecode = base_params();
  dp.treecode.position_slack = 0.2;
  dp.backend = Backend::kCpu;

  dist::DistConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = dp;
  config.nranks = 4;
  dist::DistSolver solver(config);
  solver.set_sources(start);
  (void)solver.evaluate();

  // Teleport a block of particles across the domain: some rank re-buckets
  // (or fails to locate), which the distributed path must answer with a
  // lock-step full re-plan — and the answer must still be right.
  Cloud moved = start;
  for (std::size_t i = 0; i < 64; ++i) {
    moved.x[13 * i] = -moved.x[13 * i];
  }
  EXPECT_NO_THROW(solver.update_positions(moved));
  const auto phi = solver.evaluate();
  const auto ref = direct_sum(moved, moved, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

}  // namespace
}  // namespace bltc
