// Lifecycle tests for the plan/execute Solver API: plan reuse, incremental
// charge updates, position re-plans, aliasing, device-residency accounting,
// and empty-cloud edges through the handle.
#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

SolverConfig base_config(Backend backend = Backend::kCpu) {
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.theta = 0.7;
  config.params.degree = 6;
  config.params.max_leaf = 300;
  config.params.max_batch = 300;
  config.backend = backend;
  return config;
}

TEST(SolverLifecycle, RepeatEvaluateMatchesAndSkipsSetup) {
  const Cloud c = uniform_cube(6000, 1);
  Solver solver(base_config());
  solver.set_sources(c);
  RunStats first, second;
  const auto phi1 = solver.evaluate(c, &first);
  const auto phi2 = solver.evaluate(c, &second);
  EXPECT_EQ(phi1, phi2);  // bitwise: identical plan, identical arithmetic
  EXPECT_GT(first.setup_seconds, 0.0);
  EXPECT_GT(first.precompute_seconds, 0.0);
  // The repeat run re-executes the cached plan: no tree/list/moment work.
  EXPECT_EQ(second.precompute_seconds, 0.0);
  EXPECT_LT(second.setup_seconds, first.setup_seconds * 0.5);
  EXPECT_EQ(second.num_clusters, first.num_clusters);
  EXPECT_EQ(second.num_batches, first.num_batches);
}

TEST(SolverLifecycle, UpdateChargesMatchesFreshSolve) {
  const Cloud original = uniform_cube(5000, 2);
  Cloud changed = original;
  SplitMix64 rng(3);
  for (double& q : changed.q) q = rng.uniform(-2.0, 2.0);

  Solver solver(base_config());
  solver.set_sources(original);
  solver.evaluate(original);  // plan + first solve against old charges

  RunStats incr_stats;
  solver.update_charges(changed.q);
  const auto incremental = solver.evaluate(original, &incr_stats);

  Solver fresh(base_config());
  fresh.set_sources(changed);
  const auto scratch = fresh.evaluate(original);

  // Same tree geometry, same lists, same moment arithmetic: bitwise equal.
  EXPECT_EQ(incremental, scratch);
  // The incremental path re-ran precompute but not setup.
  EXPECT_GT(incr_stats.precompute_seconds, 0.0);
  EXPECT_LT(incr_stats.setup_seconds, 1e-3);
}

TEST(SolverLifecycle, UpdateChargesOnGpuMatchesFreshSolve) {
  const Cloud original = uniform_cube(4000, 4);
  Cloud changed = original;
  for (double& q : changed.q) q *= -1.5;

  Solver solver(base_config(Backend::kGpuSim));
  solver.set_sources(original);
  solver.evaluate(original);

  solver.update_charges(changed.q);
  RunStats incr_stats;
  const auto incremental = solver.evaluate(original, &incr_stats);

  Solver fresh(base_config(Backend::kGpuSim));
  fresh.set_sources(changed);
  const auto scratch = fresh.evaluate(original);
  EXPECT_EQ(incremental, scratch);
  // Only the charges and the recomputed modified charges crossed the bus.
  const std::size_t q_bytes = changed.q.size() * sizeof(double);
  EXPECT_GT(incr_stats.bytes_to_device, 0u);
  EXPECT_LT(incr_stats.bytes_to_device,
            4 * q_bytes + incr_stats.num_clusters * 1000 * sizeof(double));
}

TEST(SolverLifecycle, UpdateChargesValidatesSize) {
  const Cloud c = uniform_cube(100, 5);
  Solver solver(base_config());
  EXPECT_THROW(solver.update_charges(c.q), std::logic_error);
  solver.set_sources(c);
  std::vector<double> wrong(c.size() + 1, 0.0);
  EXPECT_THROW(solver.update_charges(wrong), std::invalid_argument);
}

TEST(SolverLifecycle, UpdatePositionsReplansFully) {
  Cloud c = uniform_cube(4000, 6);
  Solver solver(base_config());
  solver.set_sources(c);
  solver.evaluate(c);

  for (std::size_t i = 0; i < c.size(); ++i) c.x[i] += 0.01 * (i % 7);
  solver.update_positions(c);
  RunStats stats;
  const auto phi = solver.evaluate(c, &stats);
  EXPECT_GT(stats.setup_seconds, 0.0);      // tree + lists rebuilt
  EXPECT_GT(stats.precompute_seconds, 0.0); // moments rebuilt

  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

TEST(SolverLifecycle, TargetsAliasingSourcesIsSafe) {
  // The classic N-body configuration: the same Cloud object is sources and
  // targets, and the solver reorders both sides internally.
  const Cloud c = uniform_cube(3000, 7);
  Solver solver(base_config());
  solver.set_sources(c);
  const auto via_alias = solver.evaluate(c);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, via_alias), 1e-5);
  // And evaluating at a copy gives bitwise the same answer.
  const Cloud copy = c;
  EXPECT_EQ(via_alias, solver.evaluate(copy));
}

TEST(SolverLifecycle, GpuRepeatEvaluateTransfersNoSourceData) {
  const Cloud c = uniform_cube(5000, 8);
  Solver solver(base_config(Backend::kGpuSim));
  solver.set_sources(c);
  RunStats first, second, third;
  const auto phi1 = solver.evaluate(c, &first);
  const auto phi2 = solver.evaluate(c, &second);
  const auto phi3 = solver.evaluate(c, &third);
  EXPECT_EQ(phi1, phi2);
  EXPECT_EQ(phi1, phi3);
  // First call carries the staging: sources, targets, grids, charges.
  EXPECT_GT(first.bytes_to_device, 0u);
  // Repeats re-upload nothing — not sources, not targets, not cluster data.
  EXPECT_EQ(second.bytes_to_device, 0u);
  EXPECT_EQ(third.bytes_to_device, 0u);
  // Results still come back every call.
  EXPECT_EQ(second.bytes_to_host, c.size() * sizeof(double));
  // And compute still runs on the device.
  EXPECT_GT(second.gpu_launches, 0u);
  EXPECT_GT(second.modeled.compute, 0.0);
  EXPECT_EQ(second.modeled.precompute, 0.0);
}

TEST(SolverLifecycle, NewTargetsRestageOnlyTargets) {
  const Cloud sources = uniform_cube(5000, 9);
  const Cloud probes_a = sphere_surface(1000, 10, 2.0);
  const Cloud probes_b = sphere_surface(1500, 11, 3.0);
  Solver solver(base_config(Backend::kGpuSim));
  solver.set_sources(sources);
  solver.evaluate(probes_a);
  RunStats b_stats;
  solver.evaluate(probes_b, &b_stats);
  // Switching targets uploads the new target coordinates, nothing else.
  EXPECT_EQ(b_stats.bytes_to_device, 3 * probes_b.size() * sizeof(double));

  const auto ref = direct_sum(probes_b, sources, KernelSpec::coulomb());
  RunStats again;
  const auto phi = solver.evaluate(probes_b, &again);
  EXPECT_EQ(again.bytes_to_device, 0u);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

TEST(SolverLifecycle, FieldSharesThePotentialPlan) {
  const Cloud c = uniform_cube(4000, 12);
  Solver solver(base_config());
  solver.set_sources(c);
  RunStats pot_stats, field_stats;
  const auto phi = solver.evaluate(c, &pot_stats);
  const FieldResult f = solver.evaluate_field(c, &field_stats);
  // The field run reuses the cached plan: no setup, no precompute.
  EXPECT_EQ(field_stats.precompute_seconds, 0.0);
  EXPECT_LT(field_stats.setup_seconds, pot_stats.setup_seconds * 0.5);
  EXPECT_EQ(field_stats.num_batches, pot_stats.num_batches);
  // Potentials agree between the two entry points at treecode accuracy
  // (the gradient path accumulates in a different order).
  double scale = 0.0;
  for (const double v : phi) scale = std::fmax(scale, std::fabs(v));
  EXPECT_LT(max_abs_difference(phi, f.phi), 1e-10 * scale);
}

TEST(SolverLifecycle, EvaluateWithoutSourcesThrows) {
  Solver solver(base_config());
  const Cloud c = uniform_cube(10, 13);
  EXPECT_THROW(solver.evaluate(c), std::logic_error);
}

TEST(SolverLifecycle, EmptySourcesGiveZeros) {
  Cloud empty;
  const Cloud targets = uniform_cube(64, 14);
  Solver solver(base_config());
  solver.set_sources(empty);
  RunStats stats;
  const auto phi = solver.evaluate(targets, &stats);
  ASSERT_EQ(phi.size(), targets.size());
  for (const double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(stats.num_clusters, 0u);
  EXPECT_EQ(stats.num_batches, 0u);
  const FieldResult f = solver.evaluate_field(targets);
  for (const double v : f.ex) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SolverLifecycle, EmptyTargetsGiveEmptyResult) {
  const Cloud sources = uniform_cube(64, 15);
  Cloud empty;
  Solver solver(base_config(Backend::kGpuSim));
  solver.set_sources(sources);
  EXPECT_TRUE(solver.evaluate(empty).empty());
  // And the solver stays usable afterwards.
  const auto phi = solver.evaluate(sources);
  EXPECT_EQ(phi.size(), sources.size());
}

TEST(SolverLifecycle, EmptyThenRealSourcesRecovers) {
  Cloud empty;
  const Cloud c = uniform_cube(500, 16);
  Solver solver(base_config());
  solver.set_sources(empty);
  solver.evaluate(c);
  solver.set_sources(c);
  const auto phi = solver.evaluate(c);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(SolverLifecycle, OneTargetBatchesCountOneListPerTarget) {
  const Cloud c = uniform_cube(4000, 17);
  SolverConfig config = base_config();
  config.params.max_batch = 1;
  // Clusters must outweigh (n+1)^3 interpolation points for the MAC to
  // accept approximations; degree 4 keeps that true with 300-particle
  // leaves.
  config.params.degree = 4;
  Solver solver(config);
  solver.set_sources(c);
  RunStats stats;
  solver.evaluate(c, &stats);
  // One interaction list per target particle, and the counts refer to them.
  EXPECT_EQ(stats.num_batches, c.size());
  EXPECT_GT(stats.approx_interactions, 0u);
}

TEST(SolverLifecycle, GpuFieldEvaluationRejected) {
  const Cloud c = uniform_cube(500, 18);
  Solver solver(base_config(Backend::kGpuSim));
  solver.set_sources(c);
  EXPECT_THROW(solver.evaluate_field(c), std::invalid_argument);
}

TEST(SolverLifecycle, WrapperMatchesHandle) {
  // The free function is a thin wrapper over a temporary Solver; both entry
  // points must agree bitwise.
  const Cloud c = uniform_cube(3000, 19);
  SolverConfig config = base_config();
  Solver solver(config);
  solver.set_sources(c);
  const auto held = solver.evaluate(c);
  const auto oneshot =
      compute_potential(c, config.kernel, config.params, Backend::kCpu);
  EXPECT_EQ(held, oneshot);
}

}  // namespace
}  // namespace bltc
