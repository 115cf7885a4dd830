// PME bench: what does periodic Coulomb cost through the mesh far field
// compared with no periodicity at all? Two runs over the same neutral ionic
// cell at the same (theta, n):
//
//   * open — the same cloud with open boundaries: the near-field eval-count
//            baseline (what the treecode costs with no periodicity);
//   * mesh — kPeriodicMesh: screened erfc(ar)/r near field with a range
//            cutoff + FFT mesh far field. The headline claim: near-field
//            kernel evals stay within ~1.3x of the open baseline, and the
//            error matches the *converged* Ewald sum at the treecode's
//            nominal error target.
//
// kPeriodicMesh is the one periodic Coulomb mode; Coulomb image shells are
// rejected because their truncated sum does not converge (README, PME).
// The mesh run is scored against the converged classical Ewald oracle
// (direct_sum_ewald_sampled). Results are written to BENCH_pme.json
// (override with --json) for cross-PR tracking.
//
// BLTC_PME_N rescales the run (default ~40k: 34^3 lattice sites).
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/direct_sum.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "mesh/mesh.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace bltc;

namespace {

TreecodeParams base_params() {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 8;
  p.max_leaf = 500;
  p.max_batch = 500;
  return p;
}

struct RunResult {
  double evals = 0.0;      ///< near-field (treecode) kernel evaluations
  double error = 0.0;      ///< sampled rel-2-norm vs the matching oracle
  double compute = 0.0;    ///< treecode compute seconds
  double mesh_cost = 0.0;  ///< spread+gather + k-space seconds (mesh only)
  std::size_t mesh_points = 0;
};

RunResult run_case(const Cloud& cloud, const TreecodeParams& params,
                   std::span<const std::size_t> sample,
                   const std::vector<double>& oracle) {
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params = params;
  Solver solver(config);
  solver.set_sources(cloud);
  RunStats stats;
  const std::vector<double> phi = solver.evaluate(cloud, &stats);

  RunResult r;
  r.evals = stats.approx_evals + stats.direct_evals;
  r.compute = stats.compute_seconds;
  r.mesh_cost = stats.mesh_spread_seconds + stats.fft_seconds;
  r.mesh_points = stats.mesh_points;
  std::vector<double> approx(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) approx[s] = phi[sample[s]];
  r.error = relative_l2_error(oracle, approx);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "PME periodic Coulomb — mesh far field vs open boundaries",
      "BLTC_PME_N (default 39304 = 34^3 lattice sites)");

  const std::size_t n = env_size("BLTC_PME_N", 39304);
  auto cells = static_cast<std::size_t>(std::cbrt(static_cast<double>(n)));
  if (cells < 2) cells = 2;
  const double box = 1.0;
  const Cloud cloud = ionic_lattice(cells, 4242, box, 0.5);

  TreecodeParams params = base_params();
  params.domain = Box3::cube(0.0, box);

  const auto sample = sample_indices(cloud.size(), 300);
  // The mesh run is scored against the converged Ewald reference, the open
  // run against the plain direct sum over the same sample.
  WallTimer oracle_timer;
  const std::vector<double> ewald =
      direct_sum_ewald_sampled(cloud, sample, cloud, params.domain);
  const std::vector<double> open_ref =
      direct_sum_sampled(cloud, sample, cloud, KernelSpec::coulomb());
  std::printf("oracle: converged Ewald + open direct sum over %zu samples "
              "(%.1f s)\n\n",
              sample.size(), oracle_timer.seconds());

  TreecodeParams open_params = params;  // kOpen, same theta/n/leaf/batch
  TreecodeParams mesh_params = params;
  mesh_params.boundary = BoundaryConditions::kPeriodicMesh;

  const RunResult open_run = run_case(cloud, open_params, sample, open_ref);
  const RunResult mesh_run = run_case(cloud, mesh_params, sample, ewald);

  const mesh::MeshTuning tuning = mesh::tune_mesh(mesh_params);
  bench::Table table({"mode", "near evals", "vs open", "error", "compute[s]",
                      "far cost[s]"});
  const auto row = [&](const char* label, const RunResult& r) {
    table.add_row({label, bench::Table::sci(r.evals),
                   bench::Table::num(r.evals / open_run.evals, 2),
                   bench::Table::sci(r.error), bench::Table::num(r.compute, 3),
                   bench::Table::num(r.mesh_cost, 3)});
  };
  row("open (baseline)", open_run);
  row("mesh (kPeriodicMesh)", mesh_run);
  table.print();
  std::printf("\nmesh tuning: order %d, alpha %.2f, r_cut %.3f, grid "
              "%dx%dx%d (%zu points), target error %.1e\n",
              tuning.order, tuning.alpha, tuning.r_cut, tuning.nx, tuning.ny,
              tuning.nz, mesh_run.mesh_points, tuning.target_error);
  std::printf("near-field eval ratio vs open: mesh %.2fx\n",
              mesh_run.evals / open_run.evals);

  bench::JsonReport report("bench_pme");
  report.note("n", std::to_string(cloud.size()));
  report.note("theta", bench::Table::num(params.theta, 2));
  report.note("degree", std::to_string(params.degree));
  report.note("mesh_grid", std::to_string(tuning.nx) + "x" +
                               std::to_string(tuning.ny) + "x" +
                               std::to_string(tuning.nz));
  report.metric("open_evals", open_run.evals);
  report.metric("mesh_near_evals", mesh_run.evals);
  report.metric("mesh_eval_ratio", mesh_run.evals / open_run.evals);
  report.metric("mesh_error_vs_ewald", mesh_run.error);
  report.metric("open_error", open_run.error);
  report.metric("mesh_points", static_cast<double>(mesh_run.mesh_points));
  report.metric("mesh_far_seconds", mesh_run.mesh_cost);
  report.metric("open_compute_seconds", open_run.compute);
  report.metric("mesh_compute_seconds", mesh_run.compute);
  report.metric("nominal_error_target", tuning.target_error);
  report.write(bench::json_output_path(argc, argv, "BENCH_pme.json"));

  std::printf("\nThe mesh far field carries the whole lattice sum: "
              "near-field work stays at the\nopen-boundary level while the "
              "error tracks the converged Ewald sum.\n");
  return 0;
}
