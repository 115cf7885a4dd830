// Lifecycle tests for the plan/execute DistSolver handle: single-rank
// parity with the serial Solver, distributed field evaluation, plan-reuse
// amortization (zero RMA, zero tree work on repeat evaluations),
// charge-only LET refreshes, position re-plans, one-target batches (the
// per-target MAC) through the distributed wrapper, and per-rank work counts
// with their bulk-synchronous reduction.
#include "dist/dist_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/solver.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc::dist {
namespace {

DistConfig base_config(int nranks, Backend backend = Backend::kCpu) {
  DistConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.treecode.theta = 0.7;
  config.params.treecode.degree = 6;
  config.params.treecode.max_leaf = 300;
  config.params.treecode.max_batch = 300;
  config.params.backend = backend;
  config.nranks = nranks;
  return config;
}

SolverConfig serial_config(const DistConfig& dist) {
  SolverConfig config;
  config.kernel = dist.kernel;
  config.params = dist.params.treecode;
  config.backend = dist.params.backend;
  return config;
}

TEST(DistLifecycle, OneRankMatchesSerialSolverBitwise) {
  // One rank = identity decomposition, no communication: the distributed
  // handle must reproduce the serial handle bit for bit, for both the
  // potential and the field.
  const Cloud c = uniform_cube(5000, 21);
  DistConfig config = base_config(1);

  Solver serial(serial_config(config));
  serial.set_sources(c);
  const auto serial_phi = serial.evaluate(c);
  const FieldResult serial_f = serial.evaluate_field(c);

  DistSolver dist(config);
  dist.set_sources(c);
  const auto dist_phi = dist.evaluate();
  const FieldResult dist_f = dist.evaluate_field();

  EXPECT_EQ(serial_phi, dist_phi);
  EXPECT_EQ(serial_f.phi, dist_f.phi);
  EXPECT_EQ(serial_f.ex, dist_f.ex);
  EXPECT_EQ(serial_f.ey, dist_f.ey);
  EXPECT_EQ(serial_f.ez, dist_f.ez);
}

TEST(DistLifecycle, FourRankFieldMatchesSerialField) {
  // Across ranks the union of local trees differs from the serial tree, so
  // agreement is at treecode accuracy, not bitwise.
  const Cloud c = uniform_cube(8000, 22);
  DistConfig config = base_config(4);

  Solver serial(serial_config(config));
  serial.set_sources(c);
  const FieldResult ref = serial.evaluate_field(c);

  DistSolver dist(config);
  dist.set_sources(c);
  const FieldResult f = dist.evaluate_field();

  EXPECT_LT(relative_l2_error(ref.phi, f.phi), 1e-5);
  EXPECT_LT(relative_l2_error(ref.ex, f.ex), 1e-3);
  EXPECT_LT(relative_l2_error(ref.ey, f.ey), 1e-3);
  EXPECT_LT(relative_l2_error(ref.ez, f.ez), 1e-3);

  // And both stay anchored to the O(N^2) reference.
  const FieldResult direct = direct_field(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(direct.ex, f.ex), 1e-3);
}

TEST(DistLifecycle, RepeatEvaluatePerformsNoCommunicationOrTreeWork) {
  const Cloud c = uniform_cube(8000, 23);
  DistSolver solver(base_config(4));
  solver.set_sources(c);

  DistStats first, second;
  const auto phi1 = solver.evaluate(&first);
  const auto phi2 = solver.evaluate(&second);
  EXPECT_EQ(phi1, phi2);  // identical cached plans, identical arithmetic

  for (const RankStats& st : first.per_rank) {
    // The first evaluation carries the whole plan: tree build, LET
    // exchange, precompute.
    EXPECT_EQ(st.tree_builds, 1u);
    EXPECT_GT(st.rma_gets, 0u);
    EXPECT_GT(st.rma_bytes, st.let_charge_bytes)
        << "the LET exchange moves geometry on top of charges";
  }
  EXPECT_GT(first.setup_seconds, 0.0);
  EXPECT_GT(first.precompute_seconds, 0.0);

  for (const RankStats& st : second.per_rank) {
    // The repeat evaluation re-executes cached plans: no RMA, no trees.
    EXPECT_EQ(st.tree_builds, 0u);
    EXPECT_EQ(st.rma_gets, 0u);
    EXPECT_EQ(st.rma_bytes, 0u);
  }
  EXPECT_EQ(second.precompute_seconds, 0.0);
  EXPECT_LT(second.setup_seconds, first.setup_seconds * 0.5);
}

TEST(DistLifecycle, GpuRepeatEvaluateKeepsLetDeviceResident) {
  const Cloud c = uniform_cube(6000, 24);
  DistSolver solver(base_config(4, Backend::kGpuSim));
  solver.set_sources(c);

  DistStats first, second;
  const auto phi1 = solver.evaluate(&first);
  const auto phi2 = solver.evaluate(&second);
  EXPECT_EQ(phi1, phi2);

  for (const RankStats& st : first.per_rank) {
    EXPECT_GT(st.bytes_to_device, 0u);  // local sources + LET staged once
  }
  for (const RankStats& st : second.per_rank) {
    // Device-resident LET: repeats upload nothing, download only results.
    EXPECT_EQ(st.bytes_to_device, 0u);
    EXPECT_EQ(st.rma_gets, 0u);
    EXPECT_GT(st.bytes_to_host, 0u);
    EXPECT_GT(st.modeled.compute, 0.0);
    EXPECT_EQ(st.modeled.precompute, 0.0);
  }
}

TEST(DistLifecycle, UpdateChargesRefetchesOnlyChargeBytes) {
  const Cloud original = uniform_cube(8000, 25);
  Cloud changed = original;
  SplitMix64 rng(26);
  for (double& q : changed.q) q = rng.uniform(-2.0, 2.0);

  DistSolver solver(base_config(4));
  solver.set_sources(original);
  solver.evaluate();  // consume the plan-construction attribution

  solver.update_charges(changed.q);
  DistStats incr;
  const auto incremental = solver.evaluate(&incr);

  for (const RankStats& st : incr.per_rank) {
    // The refresh kept every tree, list, grid, and coordinate: the only
    // bytes on the wire are modified charges of MAC-accepted clusters and
    // raw charges of direct-fetched ranges.
    EXPECT_EQ(st.tree_builds, 0u);
    EXPECT_GT(st.rma_bytes, 0u);
    EXPECT_EQ(st.rma_bytes, st.let_charge_bytes);
  }
  EXPECT_GT(incr.precompute_seconds, 0.0);

  // Same geometry, same lists, same moment arithmetic as a fresh solve on
  // the changed cloud: bitwise equal.
  DistSolver fresh(base_config(4));
  fresh.set_sources(changed);
  EXPECT_EQ(incremental, fresh.evaluate());
}

TEST(DistLifecycle, UpdateChargesOnGpuMovesChargesOnly) {
  const Cloud original = uniform_cube(6000, 27);
  Cloud changed = original;
  for (double& q : changed.q) q *= -1.5;

  DistSolver solver(base_config(4, Backend::kGpuSim));
  solver.set_sources(original);
  DistStats first;
  solver.evaluate(&first);

  solver.update_charges(changed.q);
  DistStats incr;
  const auto incremental = solver.evaluate(&incr);

  for (std::size_t r = 0; r < incr.per_rank.size(); ++r) {
    const RankStats& st = incr.per_rank[r];
    EXPECT_EQ(st.rma_bytes, st.let_charge_bytes);
    // Charge refresh uploads charges + modified charges, far less than the
    // full staging of the first evaluation.
    EXPECT_GT(st.bytes_to_device, 0u);
    EXPECT_LT(st.bytes_to_device, first.per_rank[r].bytes_to_device);
  }

  DistSolver fresh(base_config(4, Backend::kGpuSim));
  fresh.set_sources(changed);
  EXPECT_EQ(incremental, fresh.evaluate());
}

TEST(DistLifecycle, UpdatePositionsReplansAndRepartitions) {
  Cloud c = uniform_cube(6000, 28);
  DistSolver solver(base_config(4));
  solver.set_sources(c);
  solver.evaluate();

  for (std::size_t i = 0; i < c.size(); ++i) {
    c.x[i] += 0.01 * static_cast<double>(i % 7);
  }
  solver.update_positions(c);
  DistStats stats;
  const auto phi = solver.evaluate(&stats);
  for (const RankStats& st : stats.per_rank) {
    EXPECT_EQ(st.tree_builds, 1u);  // full re-plan
    EXPECT_GT(st.rma_gets, 0u);     // fresh LET exchange
  }

  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

TEST(DistLifecycle, WrapperRunsOneTargetBatches) {
  // max_batch = 1 (the per-target MAC) through the distributed wrapper.
  const Cloud c = uniform_cube(4000, 30);
  DistParams params = base_config(2).params;
  params.treecode.max_batch = 1;
  params.treecode.degree = 4;
  const std::vector<double> phi =
      compute_potential_distributed(c, KernelSpec::coulomb(), params, 2);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-3);
}

TEST(DistLifecycle, GpuFieldEvaluationIsPrecise) {
  const Cloud c = uniform_cube(500, 31);
  DistSolver solver(base_config(2, Backend::kGpuSim));
  solver.set_sources(c);
  EXPECT_THROW(solver.evaluate_field(), std::invalid_argument);
}

TEST(DistLifecycle, EvaluateWithoutSourcesThrows) {
  DistSolver solver(base_config(2));
  EXPECT_THROW(solver.evaluate(), std::logic_error);
  EXPECT_THROW(solver.update_charges(std::vector<double>(3, 0.0)),
               std::logic_error);
}

TEST(DistLifecycle, EmptyCloudGivesEmptyResult) {
  Cloud empty;
  DistSolver solver(base_config(2));
  solver.set_sources(empty);
  DistStats stats;
  EXPECT_TRUE(solver.evaluate(&stats).empty());
  EXPECT_EQ(stats.per_rank.size(), 2u);
  // And the handle recovers when real sources arrive.
  const Cloud c = uniform_cube(600, 32);
  solver.set_sources(c);
  const auto phi = solver.evaluate();
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
}

TEST(DistLifecycle, WrapperMatchesHandle) {
  const Cloud c = uniform_cube(5000, 33);
  DistConfig config = base_config(3);
  DistSolver solver(config);
  solver.set_sources(c);
  const auto held = solver.evaluate();
  const std::vector<double> oneshot = compute_potential_distributed(
      c, config.kernel, config.params, config.nranks);
  EXPECT_EQ(held, oneshot);
}

TEST(DistLifecycle, FieldSharesThePlanWithPotential) {
  const Cloud c = uniform_cube(6000, 34);
  DistSolver solver(base_config(4));
  solver.set_sources(c);
  DistStats pot, field;
  solver.evaluate(&pot);
  const FieldResult f = solver.evaluate_field(&field);
  for (const RankStats& st : field.per_rank) {
    EXPECT_EQ(st.tree_builds, 0u);
    EXPECT_EQ(st.rma_gets, 0u);
  }
  double scale = 0.0;
  for (const double v : f.phi) scale = std::fmax(scale, std::fabs(v));
  // Potentials agree between the two entry points at accumulation-order
  // accuracy.
  const auto phi = solver.evaluate();
  EXPECT_LT(max_abs_difference(phi, f.phi), 1e-10 * scale);
}

TEST(DistLifecycle, RankStatsCarryWorkCounts) {
  const Cloud c = uniform_cube(5000, 35);
  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    // One rank: the rank's work counts are the serial solver's.
    const DistConfig one = base_config(1, backend);
    Solver serial(serial_config(one));
    serial.set_sources(c);
    RunStats want;
    (void)serial.evaluate(c, &want);
    DistSolver single(one);
    single.set_sources(c);
    DistStats got;
    (void)single.evaluate(&got);
    ASSERT_EQ(got.per_rank.size(), 1u);
    const RankStats& rank = got.per_rank[0];
    EXPECT_EQ(rank.approx_evals, want.approx_evals);
    EXPECT_EQ(rank.direct_evals, want.direct_evals);
    EXPECT_EQ(rank.fp64_evals, want.fp64_evals);
    EXPECT_EQ(rank.approx_launches, want.approx_launches);
    EXPECT_EQ(rank.direct_launches, want.direct_launches);
    EXPECT_EQ(rank.gpu_launches, want.gpu_launches);
    EXPECT_EQ(rank.num_clusters, want.num_clusters);
    EXPECT_EQ(rank.num_batches, want.num_batches);
    EXPECT_EQ(rank.approx_interactions, want.approx_interactions);
    EXPECT_EQ(rank.direct_interactions, want.direct_interactions);

    // Two ranks: the bulk-synchronous view sums counts over ranks and takes
    // the slowest rank's phase seconds.
    DistSolver pair(base_config(2, backend));
    pair.set_sources(c);
    DistStats stats;
    (void)pair.evaluate(&stats);
    ASSERT_EQ(stats.per_rank.size(), 2u);
    RunStats reduced;
    for (const RankStats& st : stats.per_rank) {
      EXPECT_GT(st.approx_evals + st.direct_evals, 0.0);
      reduced.approx_evals += st.approx_evals;
      reduced.direct_evals += st.direct_evals;
      reduced.approx_launches += st.approx_launches;
      reduced.direct_launches += st.direct_launches;
      reduced.gpu_launches += st.gpu_launches;
      reduced.num_clusters += st.num_clusters;
      reduced.setup_seconds =
          std::max(reduced.setup_seconds, st.setup_seconds);
      reduced.precompute_seconds =
          std::max(reduced.precompute_seconds, st.precompute_seconds);
      reduced.compute_seconds =
          std::max(reduced.compute_seconds, st.compute_seconds);
      reduced.modeled.compute =
          std::max(reduced.modeled.compute, st.modeled.compute);
    }
    EXPECT_EQ(stats.approx_evals, reduced.approx_evals);
    EXPECT_EQ(stats.direct_evals, reduced.direct_evals);
    EXPECT_EQ(stats.approx_launches, reduced.approx_launches);
    EXPECT_EQ(stats.direct_launches, reduced.direct_launches);
    EXPECT_EQ(stats.gpu_launches, reduced.gpu_launches);
    EXPECT_EQ(stats.num_clusters, reduced.num_clusters);
    EXPECT_EQ(stats.setup_seconds, reduced.setup_seconds);
    EXPECT_EQ(stats.precompute_seconds, reduced.precompute_seconds);
    EXPECT_EQ(stats.compute_seconds, reduced.compute_seconds);
    EXPECT_EQ(stats.modeled.compute, reduced.modeled.compute);
  }
}

}  // namespace
}  // namespace bltc::dist
