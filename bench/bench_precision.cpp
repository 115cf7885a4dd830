// Mixed-precision frontier: speed vs error for the three precision
// policies across both traversals and both backends —
//   {fp64, mixed, fp32far} x {batched, dual} x {CPU, GpuSim}.
//
// The quantity that moves is the *far-field* interaction rate: fp32 tiles
// double the SIMD lanes and halve the bandwidth of the dominant
// batch-cluster work (and run at the 2:1 FP32:FP64 modeled throughput on
// the simulated device), while direct tiles stay fp64 under every policy.
// kMixed demotes a tile back to fp64 whenever the fp32 representation
// error on top of the error ladder's truncation bound would exceed the
// nominal (theta, n) target, so its error column should track fp64's;
// kFp32Far takes the whole far field to fp32 unconditionally and marks
// the accuracy floor of the trade. GpuSim runs the host numerics under a
// launch-cost model, so its errors equal the CPU rows (the parity is
// tested) and only the CPU error is measured.
//
// Results are written to BENCH_precision.json (override with --json) for
// cross-PR tracking. BLTC_PREC_N / BLTC_PREC_REPS rescale the run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "util/env.hpp"

using namespace bltc;

namespace {

const char* policy_tag(PrecisionPolicy policy) {
  switch (policy) {
    case PrecisionPolicy::kFp64: return "fp64";
    case PrecisionPolicy::kMixed: return "mixed";
    case PrecisionPolicy::kFp32Far: return "fp32far";
  }
  return "?";
}

struct Cell {
  double error = 0.0;
  double compute_seconds = 0.0;  ///< min over reps (modeled on GpuSim)
  double far_evals = 0.0;
  double far_rate = 0.0;
  double fp32_evals = 0.0;
  double fp64_evals = 0.0;
  std::size_t demotions = 0;
};

Cell run_cell(const Cloud& cloud, const KernelSpec& kernel, Backend backend,
              TraversalMode traversal, PrecisionPolicy policy, int reps) {
  TreecodeParams params;
  params.theta = 0.8;
  params.degree = 8;
  params.max_leaf = 2000;
  params.max_batch = 2000;
  params.traversal = traversal;
  params.precision = policy;

  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = backend;
  Solver solver(config);
  solver.set_sources(cloud);

  Cell cell;
  std::vector<double> phi;
  for (int r = 0; r < reps; ++r) {
    RunStats stats;
    phi = solver.evaluate(cloud, &stats);
    const double compute = backend == Backend::kGpuSim
                               ? stats.modeled.compute
                               : stats.compute_seconds;
    if (r == 0 || compute < cell.compute_seconds) {
      cell.compute_seconds = compute;
    }
    cell.far_evals = stats.approx_evals + stats.cp_evals + stats.cc_evals;
    cell.fp32_evals = stats.fp32_evals;
    cell.fp64_evals = stats.fp64_evals;
    cell.demotions = stats.precision_demotions;
  }
  cell.far_rate = cell.far_evals / cell.compute_seconds;
  if (backend == Backend::kCpu) {
    cell.error = bench::sampled_error(cloud, phi, kernel, 500);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Mixed-precision frontier — per-interaction fp32 tiles vs fp64",
      "BLTC_PREC_N (default 60000), BLTC_PREC_REPS (default 3)");

  const std::size_t n = env_size("BLTC_PREC_N", 60000);
  const int reps = static_cast<int>(env_size("BLTC_PREC_REPS", 3));
  const Cloud cloud = uniform_cube(n, 2718);
  const KernelSpec kernel = KernelSpec::coulomb();

  bench::JsonReport report("bench_precision");
  report.note("n", std::to_string(n));
  report.note("reps", std::to_string(reps));
  report.note("kernel", kernel.name());
  report.note("theta_degree", "0.8 / 8");
  report.note("compute_units",
              "cpu: wall seconds; gpu: modeled Titan V seconds");
  report.note("gpu_error", "equals the cpu row (GpuSim-vs-CPU parity)");

  bench::Table table({"backend", "traversal", "policy", "error",
                      "compute[s]", "far_rate[evals/s]", "fp32_evals",
                      "demotions"});

  // cpu/gpu x batched/dual x fp64 cells, indexed for the speedup summary.
  double base_rate[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  double mixed_rate[2][2] = {{0.0, 0.0}, {0.0, 0.0}};

  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    for (const TraversalMode traversal :
         {TraversalMode::kBatched, TraversalMode::kDual}) {
      for (const PrecisionPolicy policy :
           {PrecisionPolicy::kFp64, PrecisionPolicy::kMixed,
            PrecisionPolicy::kFp32Far}) {
        const Cell cell =
            run_cell(cloud, kernel, backend, traversal, policy, reps);
        const bool gpu = backend == Backend::kGpuSim;
        const char* backend_tag = gpu ? "gpu" : "cpu";
        const char* traversal_tag =
            traversal == TraversalMode::kDual ? "dual" : "batched";
        table.add_row({backend_tag, traversal_tag, policy_tag(policy),
                       gpu ? "= cpu" : bench::Table::sci(cell.error),
                       bench::Table::num(cell.compute_seconds, 4),
                       bench::Table::sci(cell.far_rate),
                       bench::Table::sci(cell.fp32_evals),
                       std::to_string(cell.demotions)});
        const std::string prefix = std::string(backend_tag) + "_" +
                                   traversal_tag + "_" + policy_tag(policy);
        if (!gpu) report.metric(prefix + "_error", cell.error);
        report.metric(prefix + "_compute_seconds", cell.compute_seconds);
        report.metric(prefix + "_far_rate", cell.far_rate);
        report.metric(prefix + "_fp32_evals", cell.fp32_evals);
        report.metric(prefix + "_fp64_evals", cell.fp64_evals);
        report.metric(prefix + "_demotions",
                      static_cast<double>(cell.demotions));

        const int bi = gpu ? 1 : 0;
        const int ti = traversal == TraversalMode::kDual ? 1 : 0;
        if (policy == PrecisionPolicy::kFp64) {
          base_rate[bi][ti] = cell.far_rate;
        } else if (policy == PrecisionPolicy::kMixed) {
          mixed_rate[bi][ti] = cell.far_rate;
        }
      }
    }
  }
  table.print();

  // Headline: kMixed's far-field interaction rate over kFp64 at the same
  // nominal (theta, n) target. The acceptance bar is >= 1.5x on the CPU.
  const double cpu_batched = mixed_rate[0][0] / base_rate[0][0];
  const double cpu_dual = mixed_rate[0][1] / base_rate[0][1];
  const double gpu_batched = mixed_rate[1][0] / base_rate[1][0];
  const double gpu_dual = mixed_rate[1][1] / base_rate[1][1];
  std::printf(
      "\nkMixed far-field rate over kFp64: cpu batched %.2fx, cpu dual "
      "%.2fx; gpu (modeled) batched %.2fx, dual %.2fx\n",
      cpu_batched, cpu_dual, gpu_batched, gpu_dual);
  report.metric("cpu_batched_mixed_far_speedup", cpu_batched);
  report.metric("cpu_dual_mixed_far_speedup", cpu_dual);
  report.metric("gpu_batched_mixed_far_speedup", gpu_batched);
  report.metric("gpu_dual_mixed_far_speedup", gpu_dual);

  const std::string json_path =
      bench::json_output_path(argc, argv, "BENCH_precision.json");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
