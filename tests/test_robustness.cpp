// Robustness and failure-injection tests: determinism, degenerate inputs
// (duplicate particles, collinear clouds, extreme separations), numerical
// edge cases a production treecode must survive, plus the overload /
// fault-injection layer: input validation, seeded failpoint storms against
// the plan cache and the serving frontend, shed/deadline/cancel accounting
// (every future resolves exactly once), graceful degradation bit-identity,
// simmpi fault containment, retry convergence, and tripped GpuSim staging
// never serving stale moments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "util/failpoints.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams params() {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 5;
  p.max_leaf = 200;
  p.max_batch = 200;
  return p;
}

TEST(Robustness, SolverIsDeterministic) {
  // Identical input must give bitwise-identical output regardless of
  // OpenMP scheduling: every batch writes only its own targets and the
  // accumulation order within a batch is fixed.
  const Cloud c = uniform_cube(5000, 1);
  const auto a = compute_potential(c, KernelSpec::coulomb(), params());
  const auto b = compute_potential(c, KernelSpec::coulomb(), params());
  EXPECT_EQ(a, b);
}

TEST(Robustness, DistributedSolverIsDeterministic) {
  const Cloud c = uniform_cube(4000, 2);
  dist::DistParams p;
  p.treecode = params();
  p.backend = Backend::kCpu;
  const auto a = dist::compute_potential_distributed(c, KernelSpec::coulomb(),
                                                     p, 4);
  const auto b = dist::compute_potential_distributed(c, KernelSpec::coulomb(),
                                                     p, 4);
  EXPECT_EQ(a, b);
}

TEST(Robustness, DuplicateParticlesMatchDirectSumConvention) {
  // Exact duplicates: the r = 0 pair is skipped (the standard convention);
  // the treecode must agree with direct summation, not blow up.
  Cloud c = uniform_cube(2000, 3);
  for (std::size_t i = 0; i < 100; ++i) {  // duplicate 100 particles exactly
    c.x.push_back(c.x[i]);
    c.y.push_back(c.y[i]);
    c.z.push_back(c.z[i]);
    c.q.push_back(0.5);
  }
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  for (const double v : phi) EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(Robustness, CollinearCloud) {
  // All particles on a line: degenerate boxes in two dimensions, aspect
  // logic must bisect only along the line.
  Cloud c;
  c.resize(3000);
  SplitMix64 rng(4);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c.x[i] = rng.uniform(-1.0, 1.0);
    c.y[i] = 0.25;
    c.z[i] = -0.5;
    c.q[i] = rng.uniform(-1.0, 1.0);
  }
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(Robustness, PlanarCloud) {
  Cloud c = uniform_cube(3000, 5);
  for (double& z : c.z) z = 0.0;
  const auto ref = direct_sum(c, c, KernelSpec::yukawa(0.5));
  const auto phi = compute_potential(c, KernelSpec::yukawa(0.5), params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(Robustness, DumbbellDistribution) {
  // Two well-separated clumps: the MAC should approximate the far clump
  // aggressively and the accuracy must hold.
  const Cloud c = dumbbell(6000, 6, 8.0);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  RunStats stats;
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params(),
                                     Backend::kCpu, &stats);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
  EXPECT_GT(stats.approx_interactions, 0u);
}

TEST(Robustness, TinyCoordinatesAndCharges) {
  // Scale invariance stress: everything at 1e-6 scale must not underflow
  // through the barycentric weights or the MAC.
  Cloud c = uniform_cube(2000, 7);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c.x[i] *= 1e-6;
    c.y[i] *= 1e-6;
    c.z[i] *= 1e-6;
    c.q[i] *= 1e-6;
  }
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(Robustness, HugeCoordinateOffset) {
  // Cloud far from the origin: differences stay small while absolute
  // coordinates are large (catastrophic-cancellation stress).
  Cloud c = uniform_cube(2000, 8);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c.x[i] += 1e6;
    c.y[i] -= 1e6;
  }
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(Robustness, AllChargesZero) {
  Cloud c = uniform_cube(1000, 9);
  for (double& q : c.q) q = 0.0;
  const auto phi = compute_potential(c, KernelSpec::coulomb(), params());
  for (const double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Robustness, SingleSourceManyTargets) {
  Cloud src;
  src.resize(1);
  src.x = {0.1};
  src.y = {0.2};
  src.z = {0.3};
  src.q = {2.5};
  const Cloud tgt = uniform_cube(500, 10);
  const auto phi = compute_potential(tgt, src, KernelSpec::coulomb(),
                                     params());
  for (std::size_t i = 0; i < tgt.size(); ++i) {
    const double expect = evaluate_kernel(KernelSpec::coulomb(), tgt.x[i],
                                          tgt.y[i], tgt.z[i], 0.1, 0.2, 0.3) *
                          2.5;
    EXPECT_NEAR(phi[i], expect, 1e-12 * (1.0 + std::fabs(expect)));
  }
}

TEST(Robustness, GpuBackendSurvivesDegenerateInputs) {
  Cloud c = uniform_cube(1500, 11);
  for (double& z : c.z) z = 0.0;  // planar
  const auto cpu = compute_potential(c, KernelSpec::coulomb(), params(),
                                     Backend::kCpu);
  const auto gpu = compute_potential(c, KernelSpec::coulomb(), params(),
                                     Backend::kGpuSim);
  double scale = 0.0;
  for (const double v : cpu) scale = std::fmax(scale, std::fabs(v));
  EXPECT_LT(max_abs_difference(cpu, gpu), 1e-11 * scale);
}

// ---- Input validation ----------------------------------------------------

using failpoints::FailpointScope;

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

serve::ServeRequest make_request(const Cloud& cloud,
                                 const TreecodeParams& p) {
  serve::ServeRequest request;
  request.sources = &cloud;
  request.params = p;
  request.kernel = KernelSpec::coulomb();
  return request;
}

TEST(Validation, SolverRejectsNonFiniteInputs) {
  Cloud bad = uniform_cube(100, 41);
  bad.x[7] = std::numeric_limits<double>::quiet_NaN();
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = params();
  Solver solver{std::move(config)};
  try {
    solver.set_sources(bad);
    FAIL() << "set_sources accepted a NaN coordinate";
  } catch (const std::invalid_argument& e) {
    // The message must name the entry point, the array, and the index.
    EXPECT_NE(std::string(e.what()).find("Solver::set_sources"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("index 7"), std::string::npos)
        << e.what();
  }

  const Cloud good = uniform_cube(100, 41);
  solver.set_sources(good);
  std::vector<double> q(good.size(), 1.0);
  q[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver.update_charges(q), std::invalid_argument);
  // The rejected update must not have poisoned the solver.
  EXPECT_NO_THROW(solver.evaluate(good));
}

TEST(Validation, NonFiniteParamsAndCloudsRejectedAtTheServeBoundary) {
  const Cloud good = uniform_cube(64, 42);
  Cloud bad = good;
  bad.q[5] = std::numeric_limits<double>::quiet_NaN();

  serve::PlanCache cache;
  EXPECT_THROW(cache.get_or_build(bad, params()), std::invalid_argument);

  serve::ServeOptions options;
  options.workers = 1;
  serve::ServeFrontend frontend(cache, options);
  // submit() validates synchronously: the bad request never enqueues.
  EXPECT_THROW(frontend.submit(make_request(bad, params())),
               std::invalid_argument);
  serve::ServeRequest bad_targets = make_request(good, params());
  bad_targets.targets = &bad;
  EXPECT_THROW(frontend.evaluate_now(bad_targets), std::invalid_argument);

  TreecodeParams nan_theta = params();
  nan_theta.theta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(frontend.submit(make_request(good, nan_theta)),
               std::invalid_argument);
  EXPECT_EQ(frontend.stats().submitted, 0u);

  // A valid request still sails through the same frontend.
  EXPECT_NO_THROW(frontend.submit(make_request(good, params())).get());
}

// ---- Failpoint-driven cache robustness -----------------------------------

TEST(FailpointServe, CacheBuildFailureEvictsPendingAndRecovers) {
  const Cloud cloud = uniform_cube(2000, 51);
  serve::PlanCache cache;
  {
    FailpointConfig config;
    config.fail_on_hit = 1;
    FailpointScope scope(failpoints::sites::kPlanCacheBuild, config);
    EXPECT_THROW(cache.get_or_build(cloud, params()), FailpointError);
  }
  // The poisoned single-flight entry must be gone and unaccounted.
  auto stats = cache.stats();
  EXPECT_EQ(stats.build_failures, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);

  // The next build must succeed and serve bit-identical to a fresh cache.
  serve::PlanCache fresh;
  serve::ServeOptions options;
  options.workers = 1;
  serve::ServeFrontend recovered(cache, options);
  serve::ServeFrontend reference(fresh, options);
  const auto a = recovered.evaluate_now(make_request(cloud, params()));
  const auto b = reference.evaluate_now(make_request(cloud, params()));
  EXPECT_FALSE(a.cache_hit);
  expect_bits_equal(a.phi, b.phi);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(FailpointServe, CacheBuildFailureMidStormRecoversBitIdentically) {
  // A request storm against one cloud while the first build attempt is
  // rigged to fail: the frontend retries the transient build, every future
  // resolves with a correct value, and the cache ends consistent.
  const Cloud cloud = uniform_cube(2500, 52);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 4;
  options.max_batch = 4;
  options.max_retries = 4;
  options.retry_backoff_ms = 0.0;
  serve::ServeFrontend frontend(cache, options);

  std::vector<std::future<serve::ServeResponse>> futures;
  {
    FailpointConfig config;
    config.fail_on_hit = 1;
    FailpointScope scope(failpoints::sites::kPlanCacheBuild, config);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(frontend.submit(make_request(cloud, params())));
    }
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
  }
  EXPECT_GE(cache.stats().build_failures, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(frontend.stats().retries, 1u);

  serve::PlanCache fresh;
  serve::ServeFrontend reference(fresh, options);
  const auto expect = reference.evaluate_now(make_request(cloud, params()));
  const auto got = frontend.evaluate_now(make_request(cloud, params()));
  EXPECT_TRUE(got.cache_hit);
  expect_bits_equal(got.phi, expect.phi);
}

// ---- Graceful degradation ------------------------------------------------

TEST(Degradation, ForcedTierIsBitIdenticalToDirectEvaluate) {
  const Cloud cloud = uniform_cube(3000, 53);
  const TreecodeParams p = params();  // degree 5 -> ladder {5, 4, 3, 2}
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 1;
  serve::ServeFrontend frontend(cache, options);

  serve::ServeRequest degraded = make_request(cloud, p);
  degraded.degrade_tier = 2;  // degree 3
  const auto response = frontend.submit(degraded).get();
  EXPECT_EQ(response.degrade_tier, 2);
  EXPECT_EQ(response.degree, p.degree - 2);
  const double bound =
      std::pow(p.theta, p.degree - 2 + 1.0) / (1.0 - p.theta);
  EXPECT_DOUBLE_EQ(response.error_bound, bound);

  // The acceptance bar: a degraded storm response matches a direct
  // evaluate at the same tier of the same plan bit for bit.
  const auto direct = frontend.evaluate_now(degraded);
  EXPECT_EQ(direct.degrade_tier, 2);
  expect_bits_equal(response.phi, direct.phi);

  // Degraded is genuinely different from nominal but still accurate.
  const auto nominal = frontend.evaluate_now(make_request(cloud, p));
  EXPECT_EQ(nominal.degrade_tier, 0);
  EXPECT_EQ(nominal.degree, p.degree);
  EXPECT_NE(response.phi, nominal.phi);
  EXPECT_LT(relative_l2_error(nominal.phi, response.phi), 1e-2);
  EXPECT_EQ(frontend.stats().degraded, 2u);  // storm + direct, not nominal

  // Out-of-range tiers clamp to the deepest ladder level (degree 2).
  serve::ServeRequest deep = make_request(cloud, p);
  deep.degrade_tier = 99;
  EXPECT_EQ(frontend.evaluate_now(deep).degree, 2);
}

// ---- Shed policies (deterministic: admission-only frontend) --------------

TEST(Overload, RejectNewShedsTheNewcomer) {
  const Cloud cloud = uniform_cube(256, 54);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 0;  // admission only: the queue state is deterministic
  options.max_queue_requests = 2;
  options.shed_policy = serve::ShedPolicy::kRejectNew;
  std::vector<std::future<serve::ServeResponse>> futures;
  {
    serve::ServeFrontend frontend(cache, options);
    for (int i = 0; i < 3; ++i) {
      futures.push_back(frontend.submit(make_request(cloud, params())));
    }
    const auto stats = frontend.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.queue_depth, 2u);
    EXPECT_GT(stats.queue_bytes, 0u);
    EXPECT_THROW(futures[2].get(), serve::RequestShed);  // the newcomer
  }
  // Destruction sheds what never executed — exactly once each.
  EXPECT_THROW(futures[0].get(), serve::RequestShed);
  EXPECT_THROW(futures[1].get(), serve::RequestShed);
}

TEST(Overload, ShedOldestEvictsTheOldest) {
  const Cloud cloud = uniform_cube(256, 55);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 0;
  options.max_queue_requests = 2;
  options.shed_policy = serve::ShedPolicy::kShedOldest;
  std::vector<std::future<serve::ServeResponse>> futures;
  {
    serve::ServeFrontend frontend(cache, options);
    for (int i = 0; i < 3; ++i) {
      futures.push_back(frontend.submit(make_request(cloud, params())));
    }
    EXPECT_EQ(frontend.stats().shed, 1u);
    EXPECT_THROW(futures[0].get(), serve::RequestShed);  // the oldest
  }
  EXPECT_THROW(futures[1].get(), serve::RequestShed);
  EXPECT_THROW(futures[2].get(), serve::RequestShed);
}

TEST(Overload, ByteBudgetAdmitsOversizedRequestToEmptyQueue) {
  const Cloud cloud = uniform_cube(256, 56);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 0;
  options.max_queue_bytes = 1;  // smaller than any request
  options.shed_policy = serve::ShedPolicy::kRejectNew;
  std::vector<std::future<serve::ServeResponse>> futures;
  {
    serve::ServeFrontend frontend(cache, options);
    // The first oversized request is admitted (empty queue); the second is
    // over budget and rejected.
    futures.push_back(frontend.submit(make_request(cloud, params())));
    futures.push_back(frontend.submit(make_request(cloud, params())));
    EXPECT_EQ(frontend.stats().queue_depth, 1u);
    EXPECT_EQ(frontend.stats().shed, 1u);
    EXPECT_THROW(futures[1].get(), serve::RequestShed);
  }
  EXPECT_THROW(futures[0].get(), serve::RequestShed);
}

// ---- Deadlines and cancellation ------------------------------------------

TEST(Overload, ExpiredDeadlineResolvesWithDeadlineExceeded) {
  const Cloud cloud = uniform_cube(2000, 57);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 1;
  options.max_batch = 4;       // group never fills...
  options.max_delay_ms = 25.0;  // ...so the worker waits past the deadline
  serve::ServeFrontend frontend(cache, options);
  serve::ServeRequest request = make_request(cloud, params());
  request.deadline_ms = 1e-3;
  auto future = frontend.submit(request);
  EXPECT_THROW(future.get(), serve::DeadlineExceeded);
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_bytes, 0u);
}

TEST(Overload, CancelledRequestResolvesWithRequestCancelled) {
  const Cloud cloud = uniform_cube(2000, 58);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.max_delay_ms = 25.0;
  serve::ServeFrontend frontend(cache, options);
  serve::ServeRequest request = make_request(cloud, params());
  request.cancel = std::make_shared<serve::CancelToken>();
  request.cancel->cancel();  // fired before the worker ever sees it
  auto future = frontend.submit(request);
  EXPECT_THROW(future.get(), serve::RequestCancelled);
  EXPECT_EQ(frontend.stats().cancelled, 1u);
  EXPECT_EQ(frontend.stats().completed, 1u);
}

// ---- Overload storm ------------------------------------------------------

TEST(Overload, StormResolvesEveryFutureExactlyOnce) {
  // Offered load far above capacity: a queue bounded at 8 requests is fed
  // 64 in one burst, with mixed deadlines, under kShedOldest with graceful
  // degradation enabled. Every future must resolve exactly once with a
  // value or a precise error, and every success must be bit-identical to a
  // direct evaluate at its reported tier.
  const KernelSpec kernel = KernelSpec::coulomb();
  std::vector<Cloud> clouds;
  for (int i = 0; i < 4; ++i) clouds.push_back(uniform_cube(1200, 60 + i));

  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 2;
  options.max_batch = 4;
  options.max_delay_ms = 0.05;
  options.max_queue_requests = 8;
  options.shed_policy = serve::ShedPolicy::kShedOldest;
  options.max_degrade_tier = 2;
  options.overload_factor = 1.0;  // trip the detector readily
  options.ewma_alpha = 0.5;
  serve::ServeFrontend frontend(cache, options);

  constexpr std::size_t kTotal = 64;
  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    serve::ServeRequest request =
        make_request(clouds[i % clouds.size()], params());
    request.kernel = kernel;
    if (i % 4 == 3) request.deadline_ms = 0.5;
    futures.push_back(frontend.submit(request));
  }

  std::size_t ok = 0, shed = 0, deadline = 0;
  std::vector<std::pair<std::size_t, serve::ServeResponse>> successes;
  for (std::size_t i = 0; i < kTotal; ++i) {
    try {
      successes.emplace_back(i, futures[i].get());
      ++ok;
    } catch (const serve::RequestShed&) {
      ++shed;
    } catch (const serve::DeadlineExceeded&) {
      ++deadline;
    }
  }
  EXPECT_EQ(ok + shed + deadline, kTotal);  // nothing lost, nothing extra
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);  // 8x over the queue bound must shed

  const auto stats = frontend.stats();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.completed, kTotal);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.deadline_exceeded, deadline);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_bytes, 0u);

  for (const auto& [i, response] : successes) {
    serve::ServeRequest reference =
        make_request(clouds[i % clouds.size()], params());
    reference.kernel = kernel;
    reference.degrade_tier = response.degrade_tier;
    expect_bits_equal(response.phi, frontend.evaluate_now(reference).phi);
  }
}

// ---- Chaos storm: every failpoint armed ----------------------------------

TEST(FailpointServe, ChaosStormWithAllSitesArmedStaysCorrect) {
  // All failpoints at p = 0.05 with retries: every non-shed request must
  // still produce the exact answer. (simmpi sites are armed but idle here;
  // the dist suite exercises them.)
  std::vector<Cloud> clouds;
  for (int i = 0; i < 3; ++i) clouds.push_back(uniform_cube(1000, 70 + i));

  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 2;
  options.max_batch = 4;
  options.max_delay_ms = 0.05;
  options.max_retries = 8;
  options.retry_backoff_ms = 0.0;
  serve::ServeFrontend frontend(cache, options);

  constexpr std::size_t kRequests = 32;
  std::vector<std::future<serve::ServeResponse>> futures;
  {
    std::vector<std::unique_ptr<FailpointScope>> scopes;
    for (const char* site : failpoints::all_sites()) {
      FailpointConfig config;
      config.probability = 0.05;
      config.seed = 7;
      scopes.push_back(std::make_unique<FailpointScope>(site, config));
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(
          frontend.submit(make_request(clouds[i % clouds.size()], params())));
    }
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
  }

  // References computed with the chaos disarmed: cached plans built under
  // injection must already have been correct.
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto future = frontend.submit(make_request(clouds[i % clouds.size()],
                                               params()));
    const auto reference =
        frontend.evaluate_now(make_request(clouds[i % clouds.size()],
                                           params()));
    expect_bits_equal(future.get().phi, reference.phi);
  }
  EXPECT_EQ(frontend.stats().completed, frontend.stats().submitted);
}

// ---- simmpi fault containment --------------------------------------------

TEST(FailpointDist, RmaFaultDuringExchangeFailsCleanlyWithoutHang) {
  const Cloud cloud = uniform_cube(3000, 80);
  dist::DistParams dp;
  dp.treecode = params();
  dp.backend = Backend::kCpu;
  const auto good =
      dist::compute_potential_distributed(cloud, KernelSpec::coulomb(), dp, 4);

  {
    FailpointConfig config;
    config.fail_on_hit = 3;  // mid-exchange, after some gets succeeded
    FailpointScope scope(failpoints::sites::kSimmpiGet, config);
    try {
      dist::compute_potential_distributed(cloud, KernelSpec::coulomb(), dp,
                                          4);
      FAIL() << "the injected RMA fault did not surface";
    } catch (const FailpointError& e) {
      // The root cause surfaces — not the secondary CommAborted the other
      // ranks died with — and all ranks joined (no hang under the test
      // timeout, no leaked threads under sanitizers).
      EXPECT_EQ(e.site(), std::string(failpoints::sites::kSimmpiGet));
    }
  }

  // A fresh team after the fault reproduces the original answer exactly.
  const auto again =
      dist::compute_potential_distributed(cloud, KernelSpec::coulomb(), dp, 4);
  EXPECT_EQ(good, again);
}

// ---- Retry convergence ---------------------------------------------------

TEST(FailpointServe, WorkspaceAcquireRetryConverges) {
  // Both execution paths lease their CpuWorkspace inside the transient
  // retry loop, so a failed lease is retried like any transient fault.
  const Cloud cloud = uniform_cube(1500, 81);
  serve::PlanCache cache;
  serve::ServeOptions options;
  options.workers = 1;
  options.max_retries = 4;
  options.retry_backoff_ms = 0.0;
  serve::ServeFrontend frontend(cache, options);

  const serve::ServeRequest request = make_request(cloud, params());
  serve::ServeResponse response;
  {
    FailpointConfig config;
    config.probability = 1.0;  // every lease attempt fails...
    config.max_trips = 2;      // ...until the cap; retries then converge
    FailpointScope scope(failpoints::sites::kWorkspaceAcquire, config);
    response = frontend.submit(request).get();
  }
  EXPECT_GE(frontend.stats().retries, 1u);

  const auto reference = frontend.evaluate_now(request);
  EXPECT_TRUE(reference.cache_hit);
  expect_bits_equal(response.phi, reference.phi);

  // The fused path: two target sets on one plan share one evaluation,
  // whose lease is retried the same way.
  serve::ServeOptions fused_options = options;
  fused_options.max_batch = 2;
  fused_options.max_delay_ms = 1e4;  // the group fills at two requests
  serve::ServeFrontend fused(cache, fused_options);
  const Cloud other = uniform_cube(400, 82);
  serve::ServeRequest to_other = request;
  to_other.targets = &other;
  serve::ServeResponse self_response, other_response;
  {
    FailpointConfig config;
    config.probability = 1.0;
    config.max_trips = 2;
    FailpointScope scope(failpoints::sites::kWorkspaceAcquire, config);
    auto self_future = fused.submit(request);
    auto other_future = fused.submit(to_other);
    self_response = self_future.get();
    other_response = other_future.get();
  }
  EXPECT_EQ(fused.stats().fused_requests, 2u);
  EXPECT_GE(fused.stats().retries, 1u);
  expect_bits_equal(self_response.phi, reference.phi);
  expect_bits_equal(other_response.phi, fused.evaluate_now(to_other).phi);
}

// ---- Failed GpuSim staging never serves stale moments ---------------------

/// Arms gpusim.stage to trip on its first hit across `mutate` and the
/// evaluate after it, wherever the staging happens. That evaluate must then
/// throw or match `reference` bitwise, and a retried evaluate must match it
/// bitwise.
void expect_staging_fault_recovers(
    const std::function<void()>& mutate,
    const std::function<std::vector<double>()>& evaluate,
    const std::vector<double>& reference) {
  std::vector<double> first;
  bool threw = false;
  {
    FailpointConfig config;
    config.fail_on_hit = 1;
    FailpointScope scope(failpoints::sites::kGpuStage, config);
    try {
      mutate();
    } catch (const TransientError&) {
    }
    try {
      first = evaluate();
    } catch (const TransientError&) {
      threw = true;
    }
    EXPECT_EQ(scope.stats().trips, 1u);
  }
  if (!threw) expect_bits_equal(first, reference);
  expect_bits_equal(evaluate(), reference);
}

TEST(FailpointGpu, TrippedStagingNeverServesStaleMoments) {
  TreecodeParams p = params();
  p.degree = 6;
  const SolverConfig config{KernelSpec::coulomb(), p, Backend::kGpuSim, {}};
  const auto fresh = [&](const Cloud& c) {
    Solver solver(config);
    solver.set_sources(c);
    return solver.evaluate(c);
  };
  const auto recharged = [](Cloud c, std::uint64_t seed) {
    SplitMix64 rng(seed);
    for (double& q : c.q) q = rng.uniform(-1.0, 1.0);
    return c;
  };
  const Cloud small = uniform_cube(3000, 90);

  {  // set_sources onto a larger cloud
    const Cloud large = uniform_cube(12000, 91);
    Solver solver(config);
    solver.set_sources(small);
    (void)solver.evaluate(small);
    expect_staging_fault_recovers([&] { solver.set_sources(large); },
                                  [&] { return solver.evaluate(large); },
                                  fresh(large));
  }
  {  // update_charges
    const Cloud next = recharged(small, 92);
    Solver solver(config);
    solver.set_sources(small);
    (void)solver.evaluate(small);
    expect_staging_fault_recovers([&] { solver.update_charges(next.q); },
                                  [&] { return solver.evaluate(next); },
                                  fresh(next));
  }
  {  // 2-rank DistSolver::update_charges
    dist::DistParams dp;
    dp.treecode = p;
    dp.backend = Backend::kGpuSim;
    const dist::DistConfig dist_config{KernelSpec::coulomb(), dp, 2};
    const Cloud cloud = uniform_cube(8000, 93);
    const Cloud next = recharged(cloud, 94);
    dist::DistSolver reference(dist_config);
    reference.set_sources(next);
    dist::DistSolver solver(dist_config);
    solver.set_sources(cloud);
    (void)solver.evaluate();
    expect_staging_fault_recovers([&] { solver.update_charges(next.q); },
                                  [&] { return solver.evaluate(); },
                                  reference.evaluate());
  }
}

// ---- A transient rank fault leaves the persistent team usable -------------

TEST(FailpointDist, FailedSetSourcesCommitsNoSources) {
  // A set_sources whose LET exchange fails commits no plan: evaluate throws
  // instead of summing a partial LET, and a retried set_sources matches an
  // unfaulted solver bit for bit.
  dist::DistParams dp;
  dp.treecode = params();
  dp.backend = Backend::kCpu;
  const dist::DistConfig config{KernelSpec::coulomb(), dp, 2};
  const Cloud cloud = uniform_cube(8000, 98);
  dist::DistSolver reference(config);
  reference.set_sources(cloud);
  dist::DistSolver solver(config);
  {
    FailpointConfig fc;
    fc.fail_on_hit = 3;
    FailpointScope scope(failpoints::sites::kSimmpiGet, fc);
    EXPECT_THROW(solver.set_sources(cloud), FailpointError);
  }
  EXPECT_FALSE(solver.has_sources());
  EXPECT_THROW((void)solver.evaluate(), std::logic_error);
  ASSERT_NO_THROW(solver.set_sources(cloud));
  expect_bits_equal(solver.evaluate(), reference.evaluate());
}

TEST(FailpointDist, TransientEvaluateFaultLeavesTeamUsable) {
  // One gpusim.stage trip inside a 2-rank GpuSim evaluate aborts the team's
  // communicator while the ranks unwind. The failure is retry-safe and
  // leaves every LET window registered, so the team must stay usable: after
  // the retried evaluate, the collectives of update_charges and set_sources
  // run, and every result matches an unfaulted solver bit for bit.
  dist::DistParams dp;
  dp.treecode = params();
  dp.treecode.degree = 6;
  dp.backend = Backend::kGpuSim;
  const dist::DistConfig config{KernelSpec::coulomb(), dp, 2};
  const Cloud cloud = uniform_cube(8000, 95);
  Cloud recharged = cloud;
  SplitMix64 rng(96);
  for (double& q : recharged.q) q = rng.uniform(-1.0, 1.0);
  const Cloud moved = uniform_cube(8000, 97);

  dist::DistSolver reference(config);
  reference.set_sources(cloud);
  const auto ref_first = reference.evaluate();
  reference.update_charges(recharged.q);
  const auto ref_recharged = reference.evaluate();
  reference.set_sources(moved);
  const auto ref_moved = reference.evaluate();

  dist::DistSolver solver(config);
  solver.set_sources(cloud);
  {
    FailpointConfig fc;
    fc.fail_on_hit = 1;
    FailpointScope scope(failpoints::sites::kGpuStage, fc);
    EXPECT_THROW((void)solver.evaluate(), FailpointError);
    EXPECT_EQ(scope.stats().trips, 1u);
  }
  expect_bits_equal(solver.evaluate(), ref_first);
  ASSERT_NO_THROW(solver.update_charges(recharged.q));
  expect_bits_equal(solver.evaluate(), ref_recharged);
  ASSERT_NO_THROW(solver.set_sources(moved));
  expect_bits_equal(solver.evaluate(), ref_moved);
}

}  // namespace
}  // namespace bltc
