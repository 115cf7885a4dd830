// §4 conclusion (4): "while the GPU direct sum is faster than the CPU
// treecode for this problem size, this will not be the case for large
// enough problems due to the O(N^2) scaling of direct summation."
// This bench sweeps N and reports the three modeled curves — GPU direct
// sum, GPU treecode, 6-core CPU treecode — so the crossovers are visible.
//
// It also runs the BLDTT section: batched particle-cluster (PC) vs the
// dual traversal (TraversalMode::kDual) at N = BLTC_BLDTT_N, theta = 0.7,
// degree = 8, default leaf sizes, on the sphere-surface (BEM quadrature)
// and uniform-cube workloads, reporting total kernel evaluations, launch
// counts, wall clock, and the sampled relative error of each against the
// direct-sum oracle. Results go to BENCH_bldtt.json.
//
// The periodic section (N = BLTC_PERIODIC_N, Yukawa screened plasma)
// compares open boundaries against periodic runs at 0/1/2 image shells:
// kernel-evaluation growth vs the (2k+1)^3 image count, steady-state wall
// time, the sampled error against the matching-image-set periodic oracle
// (parity: stays at the open tolerance), and the error against a
// deep-shell reference (the shell-convergence ladder the README tabulates).
// Results go to BENCH_periodic.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/direct_sum.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace bltc;

namespace {

/// One PC-vs-dual comparison; returns metrics through the report with the
/// given key prefix ("" for the headline workload).
void bldtt_compare(const std::string& label, const std::string& prefix,
                   const Cloud& cloud, bench::Table& table,
                   bench::JsonReport& report) {
  const KernelSpec kernel = KernelSpec::coulomb();
  TreecodeParams params;
  params.theta = 0.7;
  params.degree = 8;

  const auto run = [&](TraversalMode mode, RunStats& stats) {
    SolverConfig config;
    config.kernel = kernel;
    config.params = params;
    config.params.traversal = mode;
    Solver solver(config);
    solver.set_sources(cloud);
    // First evaluation builds and caches the target plan; the timed repeat
    // is the steady-state compute phase both modes are compared on.
    std::vector<double> phi = solver.evaluate(cloud);
    WallTimer timer;
    phi = solver.evaluate(cloud, &stats);
    const double seconds = timer.seconds();
    const double err = bench::sampled_error(cloud, phi, kernel, 500);
    return std::pair<double, double>{seconds, err};
  };

  RunStats pc, dual;
  const auto [pc_seconds, pc_err] = run(TraversalMode::kBatched, pc);
  const auto [dual_seconds, dual_err] = run(TraversalMode::kDual, dual);

  table.add_row({label, "PC", bench::Table::sci(pc.total_evals()),
                 std::to_string(pc.approx_launches + pc.direct_launches),
                 bench::Table::num(pc_seconds, 3), bench::Table::sci(pc_err)});
  table.add_row(
      {label, "dual", bench::Table::sci(dual.total_evals()),
       std::to_string(dual.approx_launches + dual.direct_launches +
                      dual.cp_launches + dual.cc_launches),
       bench::Table::num(dual_seconds, 3), bench::Table::sci(dual_err)});

  report.metric(prefix + "pc_total_evals", pc.total_evals());
  report.metric(prefix + "dual_total_evals", dual.total_evals());
  report.metric(prefix + "evals_ratio",
                pc.total_evals() / dual.total_evals());
  report.metric(prefix + "pc_rel_err", pc_err);
  report.metric(prefix + "dual_rel_err", dual_err);
  report.metric(prefix + "pc_seconds", pc_seconds);
  report.metric(prefix + "dual_seconds", dual_seconds);
  report.metric(prefix + "dual_cc_evals", dual.cc_evals);
  report.metric(prefix + "dual_cp_evals", dual.cp_evals);
  report.metric(prefix + "dual_pc_evals", dual.approx_evals);
  report.metric(prefix + "dual_direct_evals", dual.direct_evals);
  report.metric(prefix + "dual_cc_interactions",
                static_cast<double>(dual.cc_interactions));
  report.metric(prefix + "dual_cp_interactions",
                static_cast<double>(dual.cp_interactions));
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "§4 crossover — direct sum vs treecode scaling (Coulomb, theta=0.8, "
      "n=8)",
      "BLTC_CROSS_NMAX (default 160000), BLTC_CROSS_BATCH (default 2000)");

  const std::size_t n_max = env_size("BLTC_CROSS_NMAX", 160000);
  const std::size_t batch = env_size("BLTC_CROSS_BATCH", 2000);
  const KernelSpec kernel = KernelSpec::coulomb();
  const gpusim::DeviceSpec gpu = gpusim::DeviceSpec::titan_v();
  const gpusim::DeviceSpec cpu = gpusim::DeviceSpec::xeon_x5650_6core();

  bench::Table table({"N", "direct_gpu[s]", "treecode_gpu[s]",
                      "treecode_cpu6[s]", "error", "winner_gpu"});

  for (std::size_t n = 10000; n <= n_max; n *= 2) {
    const Cloud cloud = uniform_cube(n, 999);
    TreecodeParams params;
    params.theta = 0.8;
    params.degree = 8;
    params.max_leaf = batch;
    params.max_batch = batch;

    SolverConfig config;
    config.kernel = kernel;
    config.params = params;
    config.backend = Backend::kGpuSim;
    Solver solver(config);
    solver.set_sources(cloud);
    RunStats stats;
    const auto phi = solver.evaluate(cloud, &stats);
    const double err = bench::sampled_error(cloud, phi, kernel, 500);

    const double pairs = static_cast<double>(n) * static_cast<double>(n);
    const double t_direct_gpu = pairs / gpu.evals_per_sec;
    const double t_tree_gpu = stats.modeled.total();
    const double t_tree_cpu =
        (stats.approx_evals + stats.direct_evals) / cpu.evals_per_sec;

    table.add_row({std::to_string(n), bench::Table::num(t_direct_gpu, 4),
                   bench::Table::num(t_tree_gpu, 4),
                   bench::Table::num(t_tree_cpu, 3), bench::Table::sci(err),
                   t_tree_gpu < t_direct_gpu ? "treecode" : "direct"});
  }
  table.print();
  std::printf(
      "\nShape checks vs paper: direct_gpu grows ~4x per doubling (O(N^2)); "
      "treecode columns grow\n~2x per doubling (O(N log N)); the GPU "
      "treecode overtakes the GPU direct sum as N grows,\nwhile the GPU "
      "direct sum stays ahead of the 6-core CPU treecode at small N.\n");

  // ---- BLDTT: dual traversal vs batched PC --------------------------------
  std::printf(
      "\nBLDTT section — dual traversal vs batched PC "
      "(theta=0.7, n=8, default leaf sizes, CPU engine)\n");
  const std::size_t bldtt_n = env_size("BLTC_BLDTT_N", 100000);
  bench::Table bldtt_table(
      {"workload", "mode", "kernel_evals", "launches", "wall[s]", "rel_err"});
  bench::JsonReport report("bench_crossover_bldtt");
  report.note("n", std::to_string(bldtt_n));
  report.note("theta", "0.7");
  report.note("degree", "8");
  report.note("headline_workload", "sphere_surface (BEM quadrature)");

  // Headline: the sphere-surface (BEM quadrature) workload, where the far
  // field dominates and the cluster-cluster collapse shows its full effect.
  const std::string size_label = std::to_string(bldtt_n / 1000) + "k";
  bldtt_compare("sphere_" + size_label, "", sphere_surface(bldtt_n, 42),
                bldtt_table, report);
  // The paper's uniform-cube distribution rides along for reference.
  bldtt_compare("uniform_" + size_label, "uniform_", uniform_cube(bldtt_n, 42),
                bldtt_table, report);
  // Scaling trend: the PC/dual evaluation-count gap widens with N. The
  // floor keeps tiny BLTC_BLDTT_N values from spinning (n = 0 would never
  // grow) and keeps the "<size>k" metric labels distinct.
  for (std::size_t n = std::max<std::size_t>(1000, bldtt_n / 4);
       n < bldtt_n; n *= 2) {
    bldtt_compare("sphere_" + std::to_string(n / 1000) + "k",
                  "sphere_" + std::to_string(n / 1000) + "k_",
                  sphere_surface(n, 42), bldtt_table, report);
  }
  bldtt_table.print();

  const std::string json_path =
      bench::json_output_path(argc, argv, "BENCH_bldtt.json");
  if (!json_path.empty()) report.write(json_path);

  // ---- Periodic boundaries: image-shifted traversals vs open --------------
  std::printf(
      "\nPeriodic section — open vs image shells (Yukawa screened plasma, "
      "kappa=4, box [0,1)^3,\ntheta=0.8, n=8, CPU engine). One source plan "
      "serves every image shell.\n");
  const std::size_t pn = env_size("BLTC_PERIODIC_N", 40000);
  const KernelSpec pkernel = KernelSpec::yukawa(4.0);
  const Box3 domain = Box3::cube(0.0, 1.0);
  const Cloud plasma = screened_plasma(pn, 7);
  const auto psample = sample_indices(pn, 300);
  // Deep-shell reference: at kappa=4 the image sum truncation decays like
  // exp(-4k), so 4 shells is converged far below the treecode tolerance.
  const auto converged = direct_sum_periodic_sampled(plasma, psample, plasma,
                                                     pkernel, domain, 4);

  bench::Table ptable({"boundary", "shells", "kernel_evals", "evals_ratio",
                       "wall[s]", "err_vs_imageset", "err_vs_converged"});
  bench::JsonReport preport("bench_crossover_periodic");
  preport.note("n", std::to_string(pn));
  preport.note("kernel", "yukawa kappa=4");
  preport.note("theta", "0.8");
  preport.note("degree", "8");
  preport.note("workload", "screened_plasma, box [0,1)^3");
  preport.note("reference", "periodic direct sum at 4 shells");

  double open_evals = 0.0;
  for (int shells = -1; shells <= 2; ++shells) {
    TreecodeParams params;
    params.theta = 0.8;
    params.degree = 8;
    if (shells >= 0) {
      params.boundary = BoundaryConditions::kPeriodic;
      params.domain = domain;
      params.image_shells = shells;
    }
    SolverConfig config;
    config.kernel = pkernel;
    config.params = params;
    Solver solver(config);
    solver.set_sources(plasma);
    RunStats stats;
    std::vector<double> phi = solver.evaluate(plasma);  // plan + cache
    WallTimer timer;
    phi = solver.evaluate(plasma, &stats);  // steady-state repeat
    const double seconds = timer.seconds();
    if (shells < 0) open_evals = stats.total_evals();

    std::vector<double> phi_sampled(psample.size());
    for (std::size_t s = 0; s < psample.size(); ++s) {
      phi_sampled[s] = phi[psample[s]];
    }
    // Parity against the identical image set (open: the plain oracle).
    const auto own = shells < 0
                         ? direct_sum_sampled(plasma, psample, plasma, pkernel)
                         : direct_sum_periodic_sampled(plasma, psample, plasma,
                                                       pkernel, domain,
                                                       shells);
    const double err_own = relative_l2_error(own, phi_sampled);
    const double err_conv = relative_l2_error(converged, phi_sampled);

    const std::string label = shells < 0 ? "open" : "periodic";
    const std::string key =
        shells < 0 ? "open_" : "shells" + std::to_string(shells) + "_";
    ptable.add_row({label, shells < 0 ? "-" : std::to_string(shells),
                    bench::Table::sci(stats.total_evals()),
                    bench::Table::num(stats.total_evals() / open_evals, 2),
                    bench::Table::num(seconds, 3), bench::Table::sci(err_own),
                    bench::Table::sci(err_conv)});
    preport.metric(key + "total_evals", stats.total_evals());
    preport.metric(key + "seconds", seconds);
    preport.metric(key + "err_vs_imageset", err_own);
    preport.metric(key + "err_vs_converged", err_conv);
  }
  ptable.print();
  std::printf(
      "\nShape checks: kernel evals grow far slower than the (2k+1)^3 image "
      "count (far images are\nabsorbed high in the shifted trees); "
      "err_vs_imageset stays at the open tolerance (parity);\n"
      "err_vs_converged falls ~exp(-kappa k L) until it hits the treecode "
      "floor (shell convergence).\n");
  preport.write("BENCH_periodic.json");
  return 0;
}
