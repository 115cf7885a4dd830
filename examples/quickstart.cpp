// Quickstart: compute Coulomb potentials for 20k random particles with the
// barycentric Lagrange treecode and verify the accuracy against direct
// summation on a sample of targets.
//
// Build & run:  ./build/quickstart
// BLTC_QUICKSTART_N rescales the problem (CI smoke runs use a tiny value).
#include <cstdio>

#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

int main() {
  using namespace bltc;

  // 1. Make a particle system: positions in [-1,1]^3, charges in [-1,1]
  //    (swap in your own Cloud with x/y/z/q arrays).
  const std::size_t n = env_size("BLTC_QUICKSTART_N", 20000);
  const Cloud particles = uniform_cube(n, /*seed=*/1);

  // 2. Configure a solver. theta controls the MAC (smaller = more
  //    accurate), degree is the interpolation degree. Both backends run
  //    the OpenMP host evaluators; Backend::kGpuSim also reports the
  //    modeled device times of the paper's GPU port.
  SolverConfig config;
  config.kernel = KernelSpec::coulomb();
  config.params.theta = 0.7;
  config.params.degree = 8;
  config.params.max_leaf = 2000;   // N_L
  config.params.max_batch = 2000;  // N_B
  config.backend = Backend::kCpu;
  Solver solver(config);

  // 3. Plan once (tree + modified charges), then evaluate. The plan is
  //    reusable: repeated evaluations at the same targets skip setup and
  //    precompute entirely, and update_charges() refreshes only the
  //    modified charges when source charges change.
  solver.set_sources(particles);
  RunStats stats;
  const std::vector<double> phi = solver.evaluate(particles, &stats);

  std::printf("BLTC solved %zu particles (%s)\n", n,
              config.kernel.name().c_str());
  std::printf("  clusters: %zu   batches: %zu\n", stats.num_clusters,
              stats.num_batches);
  std::printf("  phases: setup %.3f s, precompute %.3f s, compute %.3f s\n",
              stats.setup_seconds, stats.precompute_seconds,
              stats.compute_seconds);

  // A second evaluation reuses the whole plan — setup/precompute ~ 0.
  RunStats again;
  solver.evaluate(particles, &again);
  std::printf("  replan-free 2nd call: setup %.6f s, precompute %.6f s, "
              "compute %.3f s\n",
              again.setup_seconds, again.precompute_seconds,
              again.compute_seconds);

  // 4. Check the error against direct summation on 500 sampled targets
  //    (Eq. 16 of the paper).
  const auto sample = sample_indices(n, 500);
  const auto ref = direct_sum_sampled(particles, sample, particles,
                                      config.kernel);
  std::vector<double> phi_sampled(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) {
    phi_sampled[s] = phi[sample[s]];
  }
  std::printf("  relative 2-norm error vs direct sum: %.3e\n",
              relative_l2_error(ref, phi_sampled));
  std::printf("  (expect ~1e-7 with theta=0.7, n=8)\n");
  return 0;
}
