// Periodic-boundary test suite: parity against the periodic direct-sum
// oracle over the identical image set (Yukawa + Gaussian, batched + dual
// traversals, CPU + simulated-GPU engines), bit-for-bit translation
// invariance, the boundary-mode/kernel rule (Coulomb runs under
// kPeriodicMesh, not image sums) at every entry point, open-vs-periodic
// consistency at zero shells, the one-shared-source-plan structural
// assertions, and the DistSolver guard.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "serve/frontend.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

constexpr double kBox = 1.0;
constexpr int kShells = 1;

TreecodeParams periodic_params(TraversalMode mode = TraversalMode::kBatched,
                               int shells = kShells) {
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 8;
  params.max_leaf = 300;
  params.max_batch = 300;
  params.traversal = mode;
  params.boundary = BoundaryConditions::kPeriodic;
  params.domain = Box3::cube(0.0, kBox);
  params.image_shells = shells;
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

/// The headline periodic workload/kernel pairing: a screened plasma under
/// Yukawa.
struct ParityCase {
  const char* name;
  KernelSpec kernel;
};

class PeriodicParity
    : public ::testing::TestWithParam<std::tuple<ParityCase, TraversalMode>> {
 protected:
  Cloud cloud() const { return screened_plasma(2000, 3, kBox); }
};

/// Explicit 27-copy replication of `c` over the image set — what the
/// image-shifted traversal computes without ever materializing.
Cloud replicate_images(const Cloud& c, int shells) {
  const ShiftTable table = ShiftTable::build(Box3::cube(0.0, kBox), shells);
  Cloud out;
  out.resize(c.size() * table.size());
  std::size_t p = 0;
  for (std::size_t s = 0; s < table.size(); ++s) {
    for (std::size_t j = 0; j < c.size(); ++j, ++p) {
      out.x[p] = c.x[j] + table.sx[s];
      out.y[p] = c.y[j] + table.sy[s];
      out.z[p] = c.z[j] + table.sz[s];
      out.q[p] = c.q[j];
    }
  }
  return out;
}

TEST_P(PeriodicParity, PotentialMatchesPeriodicOracleOnBothEngines) {
  const auto [pc, mode] = GetParam();
  const Cloud c = cloud();
  const auto oracle =
      direct_sum_periodic(c, c, pc.kernel, Box3::cube(0.0, kBox), kShells);

  // The acceptance bar — "no worse than the open-boundary tolerance" —
  // measured apples-to-apples: an *open* solver over the explicitly
  // replicated image cloud approximates the far image cells exactly the
  // way the shifted traversal approximates them, so its error against the
  // same oracle is the honest open tolerance for this image set. (At test
  // scale a single home cell is all-direct and near-exact, which would
  // make the comparison vacuous.) Degree 6 keeps the replicated tree's
  // clusters above the (n+1)^3 size condition so approximations really
  // run on the open side too.
  TreecodeParams params = periodic_params(mode);
  params.degree = 6;
  TreecodeParams open = params;
  open.boundary = BoundaryConditions::kOpen;
  Solver open_solver = make_solver(open, pc.kernel);
  open_solver.set_sources(replicate_images(c, kShells));
  const double open_err =
      relative_l2_error(oracle, open_solver.evaluate(c));
  EXPECT_GT(open_err, 1e-10);  // non-vacuous: the open side approximated

  std::vector<double> phi_cpu;
  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    Solver solver = make_solver(params, pc.kernel, backend);
    solver.set_sources(c);
    RunStats stats;
    const auto phi = solver.evaluate(c, &stats);
    if (backend == Backend::kCpu) {
      phi_cpu = phi;
    } else {
      // GpuSim models launches over the host numerics, and both traversals
      // sum in an order fixed by their lists: bitwise parity.
      EXPECT_EQ(phi, phi_cpu) << pc.name;
    }
    const double err = relative_l2_error(oracle, phi);
    // The trees differ (one tree over 27N replicated particles vs 27
    // shifted walks of the home tree), so the errors are not identical —
    // but they must share the (theta, n) regime.
    EXPECT_LT(err, 10.0 * open_err + 1e-12)
        << pc.name << " backend=" << static_cast<int>(backend);
    EXPECT_LT(err, 1e-4) << pc.name;
    // The image shells must actually generate extra interactions.
    EXPECT_GT(stats.total_evals(),
              static_cast<double>(c.size()) * static_cast<double>(c.size()));
  }
}

TEST_P(PeriodicParity, FieldMatchesPeriodicOracle) {
  const auto [pc, mode] = GetParam();
  const Cloud c = cloud();
  const FieldResult oracle =
      direct_field_periodic(c, c, pc.kernel, Box3::cube(0.0, kBox), kShells);

  Solver solver = make_solver(periodic_params(mode), pc.kernel);
  solver.set_sources(c);
  const FieldResult out = solver.evaluate_field(c);
  EXPECT_LT(relative_l2_error(oracle.phi, out.phi), 1e-5);
  EXPECT_LT(relative_l2_error(oracle.ex, out.ex), 1e-4);
  EXPECT_LT(relative_l2_error(oracle.ey, out.ey), 1e-4);
  EXPECT_LT(relative_l2_error(oracle.ez, out.ez), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PeriodicParity,
    ::testing::Combine(
        ::testing::Values(
            ParityCase{"yukawa_plasma", KernelSpec::yukawa(2.0)}),
        ::testing::Values(TraversalMode::kBatched, TraversalMode::kDual)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) == TraversalMode::kDual ? "_dual"
                                                              : "_batched");
    });

TEST(Periodic, PerTargetMacMatchesPeriodicOracle) {
  const Cloud c = screened_plasma(1500, 17, kBox);
  const KernelSpec kernel = KernelSpec::yukawa(2.0);
  const auto oracle =
      direct_sum_periodic(c, c, kernel, Box3::cube(0.0, kBox), kShells);
  TreecodeParams params = periodic_params();
  params.max_batch = 1;  // the per-target MAC
  Solver solver = make_solver(params, kernel);
  solver.set_sources(c);
  EXPECT_LT(relative_l2_error(oracle, solver.evaluate(c)), 1e-5);
}

TEST(Periodic, GaussianConvergesAbsolutely) {
  // The other headline periodic kernel family: smooth, absolutely
  // convergent, no neutrality requirement (all-positive charges).
  Cloud c = screened_plasma(1200, 23, kBox);
  for (double& q : c.q) q = 1.0;
  const KernelSpec kernel = KernelSpec::gaussian(6.0);
  const auto oracle =
      direct_sum_periodic(c, c, kernel, Box3::cube(0.0, kBox), kShells);
  Solver solver = make_solver(periodic_params(), kernel);
  solver.set_sources(c);
  EXPECT_LT(relative_l2_error(oracle, solver.evaluate(c)), 1e-5);
}

TEST(Periodic, TranslationByLatticeVectorIsBitForBit) {
  // Workload coordinates are quantized (see util/workloads.hpp), so adding
  // a lattice vector is exact; the plan layer wraps into the primary cell
  // and must reproduce potentials and fields to the last bit.
  const Cloud c = ionic_lattice(8, 29, kBox, 0.5);
  Cloud shifted = c;
  for (std::size_t i = 0; i < c.size(); ++i) {
    shifted.x[i] += 1.0 * kBox;
    shifted.y[i] -= 2.0 * kBox;
    shifted.z[i] += 3.0 * kBox;
  }

  for (const TraversalMode mode :
       {TraversalMode::kBatched, TraversalMode::kDual}) {
    Solver a = make_solver(periodic_params(mode), KernelSpec::yukawa(2.0));
    a.set_sources(c);
    Solver b = make_solver(periodic_params(mode), KernelSpec::yukawa(2.0));
    b.set_sources(shifted);
    const FieldResult fa = a.evaluate_field(c);
    const FieldResult fb = b.evaluate_field(shifted);
    ASSERT_EQ(fa.phi.size(), fb.phi.size());
    for (std::size_t i = 0; i < fa.phi.size(); ++i) {
      ASSERT_EQ(fa.phi[i], fb.phi[i]) << "mode " << static_cast<int>(mode);
      ASSERT_EQ(fa.ex[i], fb.ex[i]);
      ASSERT_EQ(fa.ey[i], fb.ey[i]);
      ASSERT_EQ(fa.ez[i], fb.ez[i]);
    }
  }
}

TEST(Periodic, TranslatedCloudHitsTheCachedTargetPlan) {
  // Wrap-aware plan matching: a lattice-translated cloud is the same
  // canonical target set, so the second evaluation re-executes the cached
  // plan (zero setup) instead of re-planning.
  const Cloud c = ionic_lattice(6, 31, kBox, 0.5);
  Cloud shifted = c;
  for (std::size_t i = 0; i < c.size(); ++i) shifted.x[i] += kBox;

  Solver solver = make_solver(periodic_params(), KernelSpec::yukawa(2.0));
  solver.set_sources(c);
  const auto phi = solver.evaluate(c);
  RunStats stats;
  const auto phi2 = solver.evaluate(shifted, &stats);
  EXPECT_EQ(phi, phi2);
  EXPECT_LT(stats.setup_seconds, 1e-4);
}

TEST(Periodic, ZeroShellsMatchesOpenBitForBit) {
  // shells = 0 is the home cell only: for in-domain particles the shift
  // table is {0} and every code path must degenerate to the open result.
  const Cloud c = screened_plasma(1800, 37, kBox);
  const KernelSpec kernel = KernelSpec::yukawa(1.0);
  for (const TraversalMode mode :
       {TraversalMode::kBatched, TraversalMode::kDual}) {
    TreecodeParams params = periodic_params(mode, /*shells=*/0);
    // The dual traversal's symmetric self mode is disabled under periodic
    // boundaries; unequal leaf/batch sizes keep the *open* run off it too,
    // so both sides execute the identical asymmetric pair set.
    params.max_batch = params.max_leaf + 1;
    Solver periodic = make_solver(params, kernel);
    periodic.set_sources(c);
    TreecodeParams open = params;
    open.boundary = BoundaryConditions::kOpen;
    Solver free_space = make_solver(open, kernel);
    free_space.set_sources(c);
    EXPECT_EQ(periodic.evaluate(c), free_space.evaluate(c))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(Periodic, BoundaryKernelMismatchNamesTheModeToUse) {
  // Coulomb image sums are only conditionally convergent (periodic Coulomb
  // runs under kPeriodicMesh), and the Ewald split serves Coulomb alone.
  // Both rules hold at Solver construction and at ServeFrontend admission,
  // for neutral and non-neutral clouds alike: no path scans the charges.
  struct Mismatch {
    BoundaryConditions boundary;
    KernelSpec kernel;
    const char* use;
  };
  const Mismatch cases[] = {
      {BoundaryConditions::kPeriodic, KernelSpec::coulomb(),
       "use BoundaryConditions::kPeriodicMesh"},
      {BoundaryConditions::kPeriodicMesh, KernelSpec::yukawa(2.0),
       "use BoundaryConditions::kPeriodic image sums"},
  };
  Cloud neutral = screened_plasma(200, 71, kBox);
  Cloud charged = neutral;
  charged.q.assign(charged.size(), 1.0);
  serve::PlanCache cache;
  serve::ServeFrontend frontend(cache);
  for (const Mismatch& m : cases) {
    TreecodeParams params = periodic_params();
    params.boundary = m.boundary;
    const auto expect_rejected = [&](const std::function<void()>& call,
                                     const char* path) {
      try {
        call();
        ADD_FAILURE() << path << " accepted " << m.kernel.name();
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(m.use), std::string::npos)
            << path << ": " << e.what();
      }
    };
    expect_rejected([&] { (void)make_solver(params, m.kernel); }, "Solver");
    for (const Cloud* cloud : {&neutral, &charged}) {
      serve::ServeRequest request;
      request.sources = cloud;
      request.params = params;
      request.kernel = m.kernel;
      expect_rejected([&] { (void)frontend.evaluate_now(request); },
                      "evaluate_now");
      expect_rejected([&] { (void)frontend.submit(request); }, "submit");
    }
  }
}

TEST(Periodic, ValidateRejectsBadDomainAndShells) {
  TreecodeParams params = periodic_params();
  params.domain = Box3{};  // zero extents
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params = periodic_params();
  params.image_shells = -1;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.image_shells = 7;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  EXPECT_NO_THROW(periodic_params().validate());
}

TEST(Periodic, OneMomentBuildServesAllShells) {
  // The tentpole's structural claim, CPU side: the number of full moment
  // builds is independent of the image-shell count (the shifted traversals
  // reuse the one cached build).
  const Cloud c = screened_plasma(1500, 43, kBox);
  const KernelSpec kernel = KernelSpec::yukawa(1.0);

  const auto builds_for = [&](int shells) {
    const std::size_t before = ClusterMoments::build_count();
    Solver solver = make_solver(periodic_params(TraversalMode::kBatched,
                                                shells),
                                kernel);
    solver.set_sources(c);
    solver.evaluate(c);
    return ClusterMoments::build_count() - before;
  };
  const std::size_t builds_home = builds_for(0);
  const std::size_t builds_two_shells = builds_for(2);
  EXPECT_EQ(builds_home, builds_two_shells);
  EXPECT_EQ(builds_two_shells, 1u);
}

TEST(Periodic, OneSourceUploadServesAllShells) {
  // Device side: going periodic costs exactly one shift-table upload —
  // sources, grids, and modified charges transfer the same bytes as the
  // open run, and image shells add zero further traffic.
  const Cloud c = screened_plasma(1500, 47, kBox);
  const KernelSpec kernel = KernelSpec::yukawa(1.0);

  const auto bytes_for = [&](BoundaryConditions boundary, int shells,
                             std::size_t& table_bytes) {
    TreecodeParams params = periodic_params(TraversalMode::kBatched, shells);
    params.boundary = boundary;
    table_bytes = params.periodic()
                      ? ShiftTable::build(params.domain, shells).bytes()
                      : 0;
    Solver solver = make_solver(params, kernel, Backend::kGpuSim);
    solver.set_sources(c);
    RunStats stats;
    solver.evaluate(c, &stats);
    std::size_t bytes = stats.bytes_to_device;
    // Repeat evaluation on the cached plan: everything (including the
    // shift table) is already resident.
    solver.evaluate(c, &stats);
    EXPECT_EQ(stats.bytes_to_device, 0u);
    return bytes;
  };

  std::size_t t0 = 0, t1 = 0, t2 = 0;
  const std::size_t open_bytes = bytes_for(BoundaryConditions::kOpen, 1, t0);
  const std::size_t one_shell = bytes_for(BoundaryConditions::kPeriodic, 1, t1);
  const std::size_t two_shells =
      bytes_for(BoundaryConditions::kPeriodic, 2, t2);
  EXPECT_EQ(one_shell, open_bytes + t1);
  EXPECT_EQ(two_shells, open_bytes + t2);
  EXPECT_EQ(t1, 27u * 3u * sizeof(double));
  EXPECT_EQ(t2, 125u * 3u * sizeof(double));
}

TEST(Periodic, DualListsCarryImageInteractions) {
  const Cloud c = screened_plasma(1500, 53, kBox);
  Solver solver =
      make_solver(periodic_params(TraversalMode::kDual), KernelSpec::yukawa(1.0));
  solver.set_sources(c);
  RunStats stats;
  solver.evaluate(c, &stats);
  EXPECT_TRUE(stats.dual_traversal);
  // Far images are absorbed by cluster interactions (CC/CP/PC), which must
  // therefore outnumber what a single home cell could produce.
  EXPECT_GT(stats.cc_interactions + stats.cp_interactions +
                stats.approx_interactions,
            0u);
}

TEST(Periodic, DistSolverRejectsPeriodicWithPreciseError) {
  dist::DistConfig config;
  config.kernel = KernelSpec::yukawa(2.0);
  config.params.treecode = periodic_params();
  config.nranks = 2;
  try {
    dist::DistSolver solver(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("periodic"), std::string::npos);
    EXPECT_NE(message.find("shift table"), std::string::npos);
    EXPECT_NE(message.find("serial Solver"), std::string::npos);
  }
}

TEST(Periodic, RepeatEvaluationIsIdentical) {
  const Cloud c = ionic_lattice(8, 59, kBox, 0.4);
  Solver solver = make_solver(periodic_params(), KernelSpec::yukawa(2.0));
  solver.set_sources(c);
  const auto phi1 = solver.evaluate(c);
  const auto phi2 = solver.evaluate(c);
  EXPECT_EQ(phi1, phi2);
}

TEST(Periodic, ShellConvergenceIsMonotoneForYukawa) {
  // The absolutely convergent image sum: errors against a deep-shell
  // reference must shrink as shells are added (the README convergence
  // table's property, asserted at test scale).
  const Cloud c = screened_plasma(600, 61, kBox);
  const KernelSpec kernel = KernelSpec::yukawa(3.0);
  const Box3 domain = Box3::cube(0.0, kBox);
  const auto reference = direct_sum_periodic(c, c, kernel, domain, 4);
  double prev = 1e300;
  for (int shells = 0; shells <= 2; ++shells) {
    Solver solver =
        make_solver(periodic_params(TraversalMode::kBatched, shells), kernel);
    solver.set_sources(c);
    const double err = relative_l2_error(reference, solver.evaluate(c));
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 5e-3);  // two shells at kappa=3: truncation ~ e^-6
}

}  // namespace
}  // namespace bltc
