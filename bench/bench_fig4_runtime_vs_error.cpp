// Figure 4 reproduction: run time vs error for 1M random particles in a
// cube, Coulomb (a) and Yukawa kappa=0.5 (b), curves of constant MAC
// theta in {0.5, 0.7, 0.9} with degree n = 1:2:13 (or until machine
// precision), GPU (Titan V, modeled) vs 6-core CPU (Xeon X5650, modeled)
// vs direct summation reference lines.
//
// Measured host seconds are real wall clock for the full algorithm on this
// machine (scaled-down N); modeled seconds project the measured operation
// counts onto the paper's hardware. Paper claims to check: (1) BLTC beats
// direct summation across the whole error range, (2) GPU >= 100x CPU,
// (3) Yukawa ~1.8x (CPU) / ~1.5x (GPU) slower than Coulomb.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "gpusim/cost_model.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace bltc;

namespace {

struct DirectModel {
  double gpu_seconds;  ///< one giant batch-cluster direct kernel (paper)
  double cpu_seconds;  ///< 6-core direct summation
};

DirectModel model_direct(std::size_t n, const KernelSpec& kernel) {
  const double pairs = static_cast<double>(n) * static_cast<double>(n);
  const gpusim::DeviceSpec gpu = gpusim::DeviceSpec::titan_v();
  const gpusim::DeviceSpec cpu = gpusim::DeviceSpec::xeon_x5650_6core();
  DirectModel m;
  m.gpu_seconds =
      pairs * gpusim::kernel_eval_weight(kernel, true) / gpu.evals_per_sec;
  m.cpu_seconds =
      pairs * gpusim::kernel_eval_weight(kernel, false) / cpu.evals_per_sec;
  return m;
}

void run_kernel_panel(const Cloud& cloud, const KernelSpec& kernel,
                      int max_degree, std::size_t batch_size) {
  std::printf("\n--- %s, N = %zu, N_B = N_L = %zu ---\n",
              kernel.name().c_str(), cloud.size(), batch_size);

  const DirectModel ds = model_direct(cloud.size(), kernel);
  std::printf("direct sum reference: modeled GPU %.3f s, modeled 6-core CPU "
              "%.3f s\n\n",
              ds.gpu_seconds, ds.cpu_seconds);

  bench::Table table({"theta", "n", "error", "t_gpu_model[s]",
                      "t_cpu_model[s]", "gpu_speedup", "host_measured[s]",
                      "launches"});

  const gpusim::DeviceSpec cpu_dev = gpusim::DeviceSpec::xeon_x5650_6core();
  for (const double theta : {0.5, 0.7, 0.9}) {
    for (int n = 1; n <= max_degree; n += 2) {
      TreecodeParams params;
      params.theta = theta;
      params.degree = n;
      params.max_leaf = batch_size;
      params.max_batch = batch_size;

      SolverConfig config;
      config.kernel = kernel;
      config.params = params;
      config.backend = Backend::kGpuSim;
      RunStats stats;
      WallTimer timer;
      Solver solver(config);
      solver.set_sources(cloud);
      const auto phi = solver.evaluate(cloud, &stats);
      const double host_seconds = timer.seconds();
      const double err = bench::sampled_error(cloud, phi, kernel);

      // 6-core CPU model: the potential evaluation dominates the paper's
      // CPU runs; weight the counted kernel evaluations by the CPU per-eval
      // cost ratio.
      const double cpu_evals = (stats.approx_evals + stats.direct_evals) *
                               gpusim::kernel_eval_weight(kernel, false);
      const double t_cpu = cpu_evals / cpu_dev.evals_per_sec;
      const double t_gpu = stats.modeled.total();

      table.add_row({bench::Table::num(theta, 1), std::to_string(n),
                     bench::Table::sci(err), bench::Table::num(t_gpu, 4),
                     bench::Table::num(t_cpu, 3),
                     bench::Table::num(t_cpu / t_gpu, 0),
                     bench::Table::num(host_seconds, 2),
                     std::to_string(stats.gpu_launches)});

      if (err < 5e-15) break;  // machine precision reached (paper's rule)
    }
  }
  table.print();
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 4 — BLTC run time vs error, single GPU (Titan V, modeled) vs "
      "6-core CPU (modeled)",
      "BLTC_FIG4_N (default 100000; paper used 1000000), BLTC_FIG4_NMAX "
      "(default 9; paper 13), BLTC_FIG4_BATCH (default 2000)");

  const std::size_t n = env_size("BLTC_FIG4_N", 100000);
  const int max_degree =
      static_cast<int>(env_size("BLTC_FIG4_NMAX", 9));
  const std::size_t batch = env_size("BLTC_FIG4_BATCH", 2000);
  const Cloud cloud = uniform_cube(n, 4242);

  run_kernel_panel(cloud, KernelSpec::coulomb(), max_degree, batch);
  run_kernel_panel(cloud, KernelSpec::yukawa(0.5), max_degree, batch);

  std::printf(
      "\nShape checks vs paper: treecode beats the direct-sum lines over the "
      "whole error range;\nGPU speedup >= 100x; Yukawa rows ~1.5x (GPU) / "
      "~1.8x (CPU) above Coulomb rows.\n");
  return 0;
}
