// Serving-layer test suite: PlanCache hit/miss/eviction/collision behavior
// (bit-identical hits with zero extra tree or moment builds, wrap-aware
// translated hits, LRU eviction under a tiny budget, single-flight builds),
// re-entrant execution (N threads hammering one cached plan bit-identical
// to serial), and the batching frontend (fused groups bit-identical to
// individual evaluation, storm end-to-end against Solver references).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/moments.hpp"
#include "core/solver.hpp"
#include "core/tree.hpp"
#include "serve/exec_context.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "serve/storm.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

using serve::PlanCache;
using serve::PlanPtr;
using serve::ServeFrontend;
using serve::ServeOptions;
using serve::ServeRequest;
using serve::ServeResponse;

TreecodeParams serving_params() {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 6;
  params.max_leaf = 128;
  params.max_batch = 128;
  return params;
}

TreecodeParams periodic_params(double box = 1.0) {
  TreecodeParams params = serving_params();
  params.boundary = BoundaryConditions::kPeriodic;
  params.domain = Box3::cube(0.0, box);
  params.image_shells = 1;
  return params;
}

TreecodeParams dual_params() {
  TreecodeParams params = serving_params();
  params.traversal = TraversalMode::kDual;
  params.max_leaf = 96;  // != max_batch: asymmetric (deterministic) dual
  return params;
}

std::vector<double> solver_reference(const Cloud& sources,
                                     const Cloud& targets,
                                     const TreecodeParams& params,
                                     const KernelSpec& kernel) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  Solver solver{std::move(config)};
  solver.set_sources(sources);
  return solver.evaluate(targets);
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---- PlanCache -----------------------------------------------------------

TEST(PlanCache, HitIsBitIdenticalWithZeroExtraBuilds) {
  const Cloud cloud = uniform_cube(1500, 42);
  const TreecodeParams params = serving_params();
  const KernelSpec kernel = KernelSpec::coulomb();

  PlanCache cache;
  ServeFrontend frontend(cache);

  ServeRequest request;
  request.sources = &cloud;
  request.params = params;
  request.kernel = kernel;

  const ServeResponse cold = frontend.evaluate_now(request);
  EXPECT_FALSE(cold.cache_hit);

  // A hit replans nothing: no tree builds, no moment builds.
  const std::size_t trees = ClusterTree::build_count();
  const std::size_t moments = ClusterMoments::build_count();
  const ServeResponse warm = frontend.evaluate_now(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(ClusterTree::build_count(), trees);
  EXPECT_EQ(ClusterMoments::build_count(), moments);

  expect_bits_equal(cold.phi, warm.phi);
  expect_bits_equal(cold.phi, solver_reference(cloud, cloud, params, kernel));

  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PlanCache, DualTraversalHitMatchesSolver) {
  const Cloud cloud = uniform_cube(1200, 7);
  const TreecodeParams params = dual_params();
  const KernelSpec kernel = KernelSpec::coulomb();

  PlanCache cache;
  ServeFrontend frontend(cache);
  ServeRequest request;
  request.sources = &cloud;
  request.params = params;
  request.kernel = kernel;

  const ServeResponse cold = frontend.evaluate_now(request);
  const ServeResponse warm = frontend.evaluate_now(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  expect_bits_equal(cold.phi, warm.phi);
  expect_bits_equal(cold.phi, solver_reference(cloud, cloud, params, kernel));
}

TEST(PlanCache, WrapAwareTranslatedCloudHits) {
  const double box = 1.0;
  const Cloud base = screened_plasma(512, 11, box);
  Cloud shifted = base;
  for (double& v : shifted.x) v += 2.0 * box;
  for (double& v : shifted.y) v -= box;

  const TreecodeParams params = periodic_params(box);
  const KernelSpec kernel = KernelSpec::yukawa(2.0);

  PlanCache cache;
  bool hit = true;
  const PlanPtr plan = cache.get_or_build(base, params, &hit);
  EXPECT_FALSE(hit);
  const PlanPtr again =
      cache.get_or_build(shifted, params, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(plan.get(), again.get());

  // And the served potentials are bit-identical between the two namings of
  // the same periodic system.
  ServeFrontend frontend(cache);
  ServeRequest request;
  request.params = params;
  request.kernel = kernel;
  request.sources = &base;
  const ServeResponse a = frontend.evaluate_now(request);
  request.sources = &shifted;
  const ServeResponse b = frontend.evaluate_now(request);
  EXPECT_TRUE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  expect_bits_equal(a.phi, b.phi);
  expect_bits_equal(a.phi, solver_reference(base, base, params, kernel));
}

TEST(PlanCache, ChargeChangeMissesCoordinateChangeMisses) {
  const Cloud cloud = uniform_cube(600, 3);
  Cloud recharged = cloud;
  recharged.q[0] += 0.5;
  Cloud moved = cloud;
  moved.x[0] += 1e-3;

  PlanCache cache;
  const TreecodeParams params = serving_params();
  bool hit = true;
  cache.get_or_build(cloud, params, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_build(recharged, params, &hit);
  EXPECT_FALSE(hit);
  cache.get_or_build(moved, params, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 3u);

  // Different params on the same cloud are a different plan.
  TreecodeParams other = params;
  other.degree = 7;
  cache.get_or_build(cloud, other, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(PlanCache, LruEvictionUnderTinyBudget) {
  PlanCache::Options options;
  options.max_bytes = 1;  // every insert overflows; MRU survives
  PlanCache cache(options);
  const TreecodeParams params = serving_params();

  const Cloud a = uniform_cube(400, 1);
  const Cloud b = uniform_cube(400, 2);

  bool hit = true;
  cache.get_or_build(a, params, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.get_or_build(b, params, &hit);  // evicts a
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.get_or_build(b, params, &hit);  // MRU still resident
  EXPECT_TRUE(hit);

  cache.get_or_build(a, params, &hit);  // rebuilt
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PlanCache, EvictedPlanStaysAliveForHolders) {
  PlanCache::Options options;
  options.max_bytes = 1;
  PlanCache cache(options);
  const TreecodeParams params = serving_params();
  const Cloud a = uniform_cube(300, 5);
  const Cloud b = uniform_cube(300, 6);

  const PlanPtr held = cache.get_or_build(a, params);
  cache.get_or_build(b, params);  // evicts a's entry
  EXPECT_EQ(cache.stats().entries, 1u);
  // The held plan is still fully usable.
  EXPECT_EQ(held->source.size(), a.size());
  EXPECT_NE(held->self_target_plan(), nullptr);
}

TEST(PlanCache, SingleFlightConcurrentMisses) {
  const Cloud cloud = uniform_cube(1000, 9);
  const TreecodeParams params = serving_params();
  PlanCache cache;

  constexpr int kThreads = 4;
  std::vector<PlanPtr> plans(kThreads);
  const std::size_t trees = ClusterTree::build_count();
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        plans[static_cast<std::size_t>(t)] =
            cache.get_or_build(cloud, params);
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[0].get(), plans[static_cast<std::size_t>(t)].get());
  }
  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
  // One source tree + one self-target tree, built once.
  EXPECT_EQ(ClusterTree::build_count(), trees + 2);
}

TEST(PlanCache, RejectsEmptyCloud) {
  PlanCache cache;
  const Cloud empty;
  EXPECT_THROW(cache.get_or_build(empty, serving_params()),
               std::invalid_argument);
}

// ---- Re-entrant execution ------------------------------------------------

TEST(Serving, ConcurrentHammerIsBitIdenticalToSerial) {
  const Cloud cloud = uniform_cube(1500, 17);
  const TreecodeParams params = serving_params();
  const KernelSpec kernel = KernelSpec::coulomb();

  PlanCache cache;
  ServeFrontend frontend(cache);
  ServeRequest request;
  request.sources = &cloud;
  request.params = params;
  request.kernel = kernel;

  const ServeResponse serial = frontend.evaluate_now(request);

  constexpr int kThreads = 4;
  constexpr int kRepeats = 3;
  std::vector<std::vector<double>> results(kThreads * kRepeats);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRepeats; ++r) {
          results[static_cast<std::size_t>(t * kRepeats + r)] =
              frontend.evaluate_now(request).phi;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (const auto& phi : results) expect_bits_equal(serial.phi, phi);
}

TEST(Serving, ConcurrentPeriodicAndDualHammer) {
  const Cloud open_cloud = uniform_cube(900, 23);
  const Cloud periodic_cloud = screened_plasma(600, 29);
  PlanCache cache;
  ServeFrontend frontend(cache);

  ServeRequest dual_request;
  dual_request.sources = &open_cloud;
  dual_request.params = dual_params();
  dual_request.kernel = KernelSpec::coulomb();

  ServeRequest periodic_request;
  periodic_request.sources = &periodic_cloud;
  periodic_request.params = periodic_params();
  periodic_request.kernel = KernelSpec::yukawa(2.0);

  const std::vector<double> dual_ref =
      frontend.evaluate_now(dual_request).phi;
  const std::vector<double> periodic_ref =
      frontend.evaluate_now(periodic_request).phi;

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> dual_got(kThreads);
  std::vector<std::vector<double>> periodic_got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        dual_got[static_cast<std::size_t>(t)] =
            frontend.evaluate_now(dual_request).phi;
        periodic_got[static_cast<std::size_t>(t)] =
            frontend.evaluate_now(periodic_request).phi;
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    expect_bits_equal(dual_ref, dual_got[static_cast<std::size_t>(t)]);
    expect_bits_equal(periodic_ref,
                      periodic_got[static_cast<std::size_t>(t)]);
  }
}

TEST(Serving, ExecContextPoolRecycles) {
  serve::ExecContextPool pool;
  EXPECT_EQ(pool.idle(), 0u);
  auto a = pool.acquire();
  auto b = pool.acquire();
  EXPECT_NE(a.get(), b.get());
  ExecContext* const raw = a.get();
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle(), 1u);
  auto c = pool.acquire();
  EXPECT_EQ(c.get(), raw);  // warmed context reused
  EXPECT_EQ(pool.idle(), 0u);
  pool.release(std::move(b));
  pool.release(std::move(c));
  EXPECT_EQ(pool.idle(), 2u);
  { serve::ExecContextPool::Lease lease(pool); EXPECT_EQ(pool.idle(), 1u); }
  EXPECT_EQ(pool.idle(), 2u);
}

// ---- Batching frontend ---------------------------------------------------

TEST(Frontend, FusedGroupIsBitIdenticalToIndividualEvaluates) {
  // Open Coulomb, image-periodic Yukawa (the fused forest carries the
  // pairs' shift ids) and kPeriodicMesh (the fused targets gather the mesh
  // far field).
  TreecodeParams mesh = serving_params();
  mesh.boundary = BoundaryConditions::kPeriodicMesh;
  mesh.domain = Box3::cube(0.0, 1.0);
  const std::vector<std::pair<TreecodeParams, KernelSpec>> cases{
      {serving_params(), KernelSpec::coulomb()},
      {periodic_params(), KernelSpec::yukawa(2.0)},
      {mesh, KernelSpec::coulomb()}};
  for (const auto& [params, kernel] : cases) {
    const Cloud sources = uniform_cube(1200, 31, 0.0, 1.0);
    std::vector<Cloud> target_clouds;
    for (std::uint64_t i = 0; i < 5; ++i) {
      target_clouds.push_back(uniform_cube(200, 100 + i, 0.0, 1.0));
    }

    const auto request_for = [&](const Cloud& targets) {
      ServeRequest request;
      request.sources = &sources;
      request.targets = &targets;
      request.params = params;
      request.kernel = kernel;
      return request;
    };

    // Individual references through the synchronous path.
    PlanCache reference_cache;
    ServeFrontend reference(reference_cache);
    std::vector<std::vector<double>> expected;
    for (const Cloud& targets : target_clouds) {
      expected.push_back(reference.evaluate_now(request_for(targets)).phi);
    }

    // Batched path: a generous delay so the group coalesces.
    PlanCache cache;
    ServeOptions options;
    options.max_batch = 8;
    options.max_delay_ms = 250.0;
    options.workers = 1;
    ServeFrontend frontend(cache, options);
    std::vector<std::future<ServeResponse>> futures;
    for (const Cloud& targets : target_clouds) {
      futures.push_back(frontend.submit(request_for(targets)));
    }
    std::vector<ServeResponse> responses;
    for (auto& f : futures) responses.push_back(f.get());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      expect_bits_equal(expected[i], responses[i].phi);
    }

    const serve::FrontendStats stats = frontend.stats();
    EXPECT_EQ(stats.submitted, target_clouds.size());
    EXPECT_EQ(stats.completed, target_clouds.size());
    // All five distinct target sets against one plan should coalesce into
    // far fewer engine calls than requests (one, when the group fills).
    EXPECT_LT(stats.executions, target_clouds.size());
    EXPECT_GT(stats.fused_requests, 0u);
    EXPECT_GT(stats.max_group, 1u);
  }
}

TEST(Frontend, IdenticalTargetsShareOneExecution) {
  const Cloud sources = uniform_cube(1000, 37);
  const TreecodeParams params = serving_params();
  const KernelSpec kernel = KernelSpec::coulomb();

  PlanCache cache;
  ServeOptions options;
  options.max_batch = 4;
  options.max_delay_ms = 250.0;
  ServeFrontend frontend(cache, options);

  ServeRequest request;
  request.sources = &sources;
  request.params = params;
  request.kernel = kernel;

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(frontend.submit(request));
  std::vector<ServeResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (int i = 1; i < 4; ++i) {
    expect_bits_equal(responses[0].phi,
                      responses[static_cast<std::size_t>(i)].phi);
  }
  expect_bits_equal(responses[0].phi,
                    solver_reference(sources, sources, params, kernel));
  // Four identical requests dedupe to one execution when grouped; even
  // under adversarial scheduling they cannot exceed one call each.
  EXPECT_LE(frontend.stats().executions, 4u);
  EXPECT_EQ(frontend.stats().completed, 4u);
}

TEST(Frontend, StormEndToEndMatchesSolver) {
  StormSpec spec;
  spec.num_requests = 12;
  spec.num_shared = 2;
  spec.shared_size = 700;
  spec.small_size = 150;
  const RequestStorm storm = request_storm(spec, 1234);
  const serve::StormParams presets = serve::default_storm_params(storm.box);

  PlanCache cache;
  ServeOptions options;
  options.max_batch = 4;
  options.max_delay_ms = 5.0;
  options.workers = 2;
  ServeFrontend frontend(cache, options);

  std::vector<std::future<ServeResponse>> futures;
  for (const StormRequest& req : storm.requests) {
    futures.push_back(
        frontend.submit(serve::storm_request(storm, req, presets)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResponse response = futures[i].get();
    const ServeRequest request =
        serve::storm_request(storm, storm.requests[i], presets);
    expect_bits_equal(response.phi,
                      solver_reference(*request.sources, *request.sources,
                                       request.params, request.kernel));
  }
  const serve::FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.submitted, storm.requests.size());
  EXPECT_EQ(stats.completed, storm.requests.size());
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(Frontend, EmptyAndNullRequests) {
  PlanCache cache;
  ServeFrontend frontend(cache);
  ServeRequest request;
  EXPECT_THROW(frontend.submit(request), std::invalid_argument);

  const Cloud empty;
  request.sources = &empty;
  request.params = serving_params();
  const ServeResponse response = frontend.submit(request).get();
  EXPECT_TRUE(response.phi.empty());
}

}  // namespace
}  // namespace bltc
