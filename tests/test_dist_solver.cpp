#include "dist/dist_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/direct_sum.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc::dist {
namespace {

DistParams cpu_params() {
  DistParams p;
  p.treecode.theta = 0.7;
  p.treecode.degree = 6;
  p.treecode.max_leaf = 300;
  p.treecode.max_batch = 300;
  p.backend = Backend::kCpu;
  return p;
}

class DistRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistRanks, MatchesDirectSumAccuracy) {
  const int nranks = GetParam();
  const Cloud c = uniform_cube(8000, 1);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const std::vector<double> phi =
      compute_potential_distributed(c, KernelSpec::coulomb(), cpu_params(),
                                    nranks);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5) << nranks;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistRanks,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(DistSolver, GpuBackendMatchesCpuBackend) {
  const Cloud c = uniform_cube(6000, 2);
  DistParams pc = cpu_params();
  DistParams pg = cpu_params();
  pg.backend = Backend::kGpuSim;
  const auto cpu = compute_potential_distributed(c, KernelSpec::yukawa(0.5),
                                                 pc, 4);
  const auto gpu = compute_potential_distributed(c, KernelSpec::yukawa(0.5),
                                                 pg, 4);
  // GpuSim models launches over the host numerics, LET pieces included.
  EXPECT_EQ(cpu, gpu);
}

TEST(DistSolver, GpuBackendMatchesCpuBackendUnderMixedPrecision) {
  // Under kMixed the local piece runs its tagged far-field tiles fp32
  // (SourcePlan::fp32) and the LET pieces run fp64 — on both backends. N
  // is large enough that each rank's local tree has far-field pairs of its
  // own.
  const Cloud c = uniform_cube(20000, 4);
  DistParams pc = cpu_params();
  pc.treecode.precision = PrecisionPolicy::kMixed;
  DistParams pg = pc;
  pg.backend = Backend::kGpuSim;
  const auto cpu = compute_potential_distributed(c, KernelSpec::coulomb(),
                                                 pc, 2);
  const auto gpu = compute_potential_distributed(c, KernelSpec::coulomb(),
                                                 pg, 2);
  EXPECT_EQ(cpu, gpu);
  // Non-vacuous: fp32 tiles actually ran.
  const auto fp64 = compute_potential_distributed(c, KernelSpec::coulomb(),
                                                  cpu_params(), 2);
  EXPECT_NE(cpu, fp64);
}

TEST(DistSolver, SingleRankMatchesSerialSolverExactly) {
  // One rank = no decomposition, no communication: the distributed pipeline
  // degenerates to the serial one, including batch/tree construction.
  const Cloud c = uniform_cube(5000, 3);
  TreecodeParams tp = cpu_params().treecode;
  const auto serial = compute_potential(c, KernelSpec::coulomb(), tp);
  const auto dist =
      compute_potential_distributed(c, KernelSpec::coulomb(), cpu_params(), 1);
  EXPECT_EQ(serial.size(), dist.size());
  double scale = 0.0;
  for (const double v : serial) scale = std::fmax(scale, std::fabs(v));
  EXPECT_LT(max_abs_difference(serial, dist), 1e-12 * scale);
}

TEST(DistSolver, RankStatsAccounting) {
  const Cloud c = uniform_cube(8000, 4);
  DistStats res;
  compute_potential_distributed(c, KernelSpec::coulomb(), cpu_params(), 4,
                                &res);
  ASSERT_EQ(res.per_rank.size(), 4u);
  std::size_t total_local = 0;
  for (const RankStats& st : res.per_rank) {
    total_local += st.local_particles;
    EXPECT_GT(st.num_clusters, 0u);
    // Every rank must have pulled something from somewhere.
    EXPECT_GT(st.rma_gets, 0u);
    EXPECT_GT(st.rma_bytes, 0u);
    EXPECT_GT(st.let_remote_clusters, 0u);
  }
  EXPECT_EQ(total_local, c.size());
}

TEST(DistSolver, SingleRankHasNoCommunication) {
  const Cloud c = uniform_cube(3000, 5);
  DistStats res;
  compute_potential_distributed(c, KernelSpec::coulomb(), cpu_params(), 1,
                                &res);
  EXPECT_EQ(res.per_rank[0].rma_gets, 0u);
  EXPECT_EQ(res.per_rank[0].rma_bytes, 0u);
  EXPECT_EQ(res.per_rank[0].let_remote_clusters, 0u);
}

TEST(DistSolver, ModeledPhasesArePopulatedOnGpuBackend) {
  const Cloud c = uniform_cube(6000, 6);
  DistParams p = cpu_params();
  p.backend = Backend::kGpuSim;
  DistStats res;
  compute_potential_distributed(c, KernelSpec::coulomb(), p, 4, &res);
  EXPECT_GT(res.modeled.setup, 0.0);
  EXPECT_GT(res.modeled.precompute, 0.0);
  EXPECT_GT(res.modeled.compute, 0.0);
  for (const RankStats& st : res.per_rank) {
    EXPECT_LE(st.modeled.setup, res.modeled.setup);
    EXPECT_LE(st.modeled.compute, res.modeled.compute);
  }
}

TEST(DistSolver, LetTrafficIsSubquadraticInRanks) {
  // The LET property (§3.1): each rank's pulled data grows slowly with the
  // number of ranks; total fetched remote particles per rank is far below
  // "everything remote" when the MAC approximates far partitions.
  const Cloud c = uniform_cube(16000, 7);
  DistParams p = cpu_params();
  p.treecode.theta = 0.9;  // aggressive approximation
  p.treecode.degree = 2;   // small clusters qualify: (2+1)^3 = 27 sources
  p.treecode.max_leaf = 100;
  p.treecode.max_batch = 100;
  DistStats res;
  compute_potential_distributed(c, KernelSpec::coulomb(), p, 8, &res);
  for (const RankStats& st : res.per_rank) {
    const std::size_t remote_total = c.size() - st.local_particles;
    EXPECT_LT(st.let_remote_particles, remote_total / 2)
        << "LET pulled more than half of all remote particles";
  }
}

TEST(DistSolver, IrregularPlummerDistribution) {
  // Future-work distribution in the paper; the RCB load balance and the
  // adaptive trees must still deliver treecode-level accuracy.
  const Cloud c = plummer_sphere(8000, 8);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  DistStats res;
  const std::vector<double> phi = compute_potential_distributed(
      c, KernelSpec::coulomb(), cpu_params(), 4, &res);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-4);
  // RCB balance: no rank owns more than 2x the ideal share.
  for (const RankStats& st : res.per_rank) {
    EXPECT_LT(st.local_particles, c.size() / 2);
  }
}

TEST(DistSolver, DisjointChargeSignsPreserved) {
  // Regression guard for index mapping: potentials must land on the right
  // particles after the RCB scatter + tree permutation round trip.
  Cloud c = uniform_cube(4000, 9);
  const auto ref = direct_sum(c, c, KernelSpec::coulomb());
  const std::vector<double> phi = compute_potential_distributed(
      c, KernelSpec::coulomb(), cpu_params(), 3);
  for (std::size_t i = 0; i < c.size(); i += 173) {
    EXPECT_NEAR(phi[i], ref[i], 1e-4 * (1.0 + std::fabs(ref[i])))
        << i;
  }
}

TEST(DistSolver, YukawaAccuracy) {
  const Cloud c = uniform_cube(6000, 10);
  const auto ref = direct_sum(c, c, KernelSpec::yukawa(0.5));
  const std::vector<double> phi = compute_potential_distributed(
      c, KernelSpec::yukawa(0.5), cpu_params(), 4);
  EXPECT_LT(relative_l2_error(ref, phi), 1e-5);
}

}  // namespace
}  // namespace bltc::dist
