// Execution-mode studies. pme: periodic Coulomb through the mesh far field
// (kPeriodicMesh) against the same ionic cell with open boundaries, scored
// against the converged Ewald sum. precision: speed against error of the
// three precision policies across both traversals and both backends.
#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "mesh/mesh.hpp"
#include "study.hpp"
#include "util/stats.hpp"

namespace bltc::study {

void pme(bool quick) {
  constexpr int kRepeats = 3;
  const std::size_t n = quick ? 8000 : 39304;
  const auto cells = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::cbrt(static_cast<double>(n))));
  const Cloud cloud = ionic_lattice(cells, 4242, 1.0, 0.5);

  TreecodeParams open;
  open.theta = 0.7;
  open.degree = 8;
  open.max_leaf = 500;
  open.max_batch = 500;
  open.domain = Box3::cube(0.0, 1.0);
  TreecodeParams mesh = open;
  mesh.boundary = BoundaryConditions::kPeriodicMesh;
  const mesh::MeshTuning tuning = mesh::tune_mesh(mesh);

  Report rep("pme", quick, kRepeats);
  rep.config("n", std::to_string(cloud.size()) + " ionic lattice in [0,1)^3");
  rep.config("theta_degree_leaf", "0.7 / 8 / 500");
  rep.config("mesh", "order " + std::to_string(tuning.order) + ", alpha " +
                         fmt(tuning.alpha) + ", r_cut " + fmt(tuning.r_cut) +
                         ", grid " + std::to_string(tuning.nx) + "x" +
                         std::to_string(tuning.ny) + "x" +
                         std::to_string(tuning.nz));
  rep.config("oracle", "converged Ewald sum (mesh), direct sum (open)");
  rep.count("nominal_error_target", "1", tuning.target_error);

  const auto sample = sample_indices(cloud.size(), 300);
  const std::vector<double> ewald =
      direct_sum_ewald_sampled(cloud, sample, cloud, open.domain);
  const std::vector<double> direct =
      direct_sum_sampled(cloud, sample, cloud, KernelSpec::coulomb());

  // A fresh solve per repeat: the mesh spread and k-space solve land in the
  // first evaluation of a plan.
  double open_evals = 0.0;
  for (const bool is_mesh : {false, true}) {
    const std::string tag = is_mesh ? "mesh_" : "open_";
    for (int r = 0; r < kRepeats; ++r) {
      Solver solver({KernelSpec::coulomb(), is_mesh ? mesh : open,
                     Backend::kCpu, {}});
      solver.set_sources(cloud);
      RunStats stats;
      const std::vector<double> phi = solver.evaluate(cloud, &stats);
      const double evals = stats.approx_evals + stats.direct_evals;
      if (!is_mesh) open_evals = evals;
      rep.wall(tag + "compute_seconds", "s", stats.compute_seconds);
      rep.count(tag + "near_evals", "evals", evals);
      std::vector<double> approx(sample.size());
      for (std::size_t s = 0; s < sample.size(); ++s) {
        approx[s] = phi[sample[s]];
      }
      rep.count(tag + "error", "1",
                relative_l2_error(is_mesh ? ewald : direct, approx));
      if (is_mesh) {
        rep.count("mesh_eval_ratio_vs_open", "ratio", evals / open_evals);
        rep.wall("mesh_far_seconds", "s",
                 stats.mesh_spread_seconds + stats.fft_seconds);
        rep.count("mesh_points", "points",
                  static_cast<double>(stats.mesh_points));
      }
    }
  }
  rep.write();
}

void precision(bool quick) {
  // Far-field rate (approx + CP + CC evals per compute second) is the
  // quantity the policies move: direct tiles stay fp64 under every policy.
  // GpuSim runs the host numerics, so its errors are the CPU rows' and only
  // its modeled compute is reported.
  constexpr int kRepeats = 3;
  const std::size_t n = quick ? 30000 : 60000;
  Report rep("precision", quick, kRepeats);
  rep.config("n", std::to_string(n));
  rep.config("kernel_theta_degree_leaf", "coulomb / 0.8 / 8 / 2000");
  rep.config("compute", "cpu: measured seconds; gpu: modeled Titan V seconds");
  const Cloud cloud = uniform_cube(n, 2718);
  const KernelSpec kernel = KernelSpec::coulomb();
  const std::pair<PrecisionPolicy, const char*> policies[] = {
      {PrecisionPolicy::kFp64, "fp64"},
      {PrecisionPolicy::kMixed, "mixed"},
      {PrecisionPolicy::kFp32Far, "fp32far"}};

  std::map<std::string, std::vector<double>> far_rate;  // per repeat
  for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
    const bool gpu = backend == Backend::kGpuSim;
    for (const auto traversal :
         {TraversalMode::kBatched, TraversalMode::kDual}) {
      for (const auto& [policy, policy_tag] : policies) {
        TreecodeParams params;
        params.theta = 0.8;
        params.degree = 8;
        params.max_leaf = 2000;
        params.max_batch = 2000;
        params.traversal = traversal;
        params.precision = policy;
        Solver solver({kernel, params, backend, {}});
        solver.set_sources(cloud);
        const std::string cell =
            std::string(gpu ? "gpu_" : "cpu_") +
            (traversal == TraversalMode::kDual ? "dual_" : "batched_") +
            policy_tag;
        std::vector<double> phi;
        RunStats stats;
        // Modeled seconds are deterministic: one GpuSim evaluation suffices.
        for (int r = 0; r < (gpu ? 1 : kRepeats); ++r) {
          stats = RunStats{};
          phi = solver.evaluate(cloud, &stats);
          const double compute =
              gpu ? stats.modeled.compute : stats.compute_seconds;
          const double rate =
              (stats.approx_evals + stats.cp_evals + stats.cc_evals) / compute;
          rep.add(cell + "_compute_seconds", "s",
                  gpu ? Kind::kModeled : Kind::kWall, compute);
          rep.add(cell + "_far_rate", "evals/s",
                  gpu ? Kind::kModeled : Kind::kWall, rate);
          far_rate[cell].push_back(rate);
        }
        if (!gpu) {
          rep.count(cell + "_error", "1",
                    sampled_error(cloud, phi, kernel, 500));
        }
        rep.count(cell + "_fp32_evals", "evals", stats.fp32_evals);
        rep.count(cell + "_fp64_evals", "evals", stats.fp64_evals);
        rep.count(cell + "_demotions", "tiles",
                  static_cast<double>(stats.precision_demotions));
      }
    }
  }
  // Headline: kMixed's far-field rate over kFp64's, per repeat.
  for (const char* backend : {"cpu", "gpu"}) {
    for (const char* traversal : {"batched", "dual"}) {
      const std::string cell = std::string(backend) + "_" + traversal + "_";
      const std::vector<double>& mixed = far_rate[cell + "mixed"];
      for (std::size_t r = 0; r < mixed.size(); ++r) {
        rep.add(cell + "mixed_far_speedup", "ratio",
                backend[0] == 'g' ? Kind::kModeled : Kind::kWall,
                mixed[r] / far_rate[cell + "fp64"][r]);
      }
    }
  }
  rep.write();
}

}  // namespace bltc::study
