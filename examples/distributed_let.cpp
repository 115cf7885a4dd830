// Distributed-memory walkthrough (§3 of the paper): RCB domain
// decomposition, one simulated GPU per rank, locally essential trees built
// with one-sided RMA gets, and a bulk-synchronous potential evaluation —
// driven through the persistent `dist::DistSolver` handle. The walkthrough
// shows the full lifecycle:
//   1. set_sources — RCB + local trees + LET exchange (all communication);
//   2. evaluate    — per-rank engines execute the cached plans;
//   3. evaluate    — again: zero RMA, zero tree work, kernels only;
//   4. update_charges — LET *charge* refresh: only charge bytes on the wire.
// Prints the per-rank accounting so the LET property is visible: each rank
// fetches far less remote data than "everything".
#include <cstdio>

#include "core/direct_sum.hpp"
#include "dist/dist_solver.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace {

void print_rank_table(const char* title, const bltc::dist::DistStats& stats) {
  std::printf("\n%s\n", title);
  std::printf("%-5s %-10s %-9s %-12s %-13s %-9s %-9s %-11s %-6s\n", "rank",
              "particles", "clusters", "LET clusters", "LET particles",
              "RMA gets", "RMA KiB", "chargeKiB", "trees");
  for (std::size_t r = 0; r < stats.per_rank.size(); ++r) {
    const bltc::dist::RankStats& st = stats.per_rank[r];
    std::printf("%-5zu %-10zu %-9zu %-12zu %-13zu %-9zu %-9.1f %-11.1f %-6zu\n",
                r, st.local_particles, st.num_clusters,
                st.let_remote_clusters, st.let_remote_particles, st.rma_gets,
                static_cast<double>(st.rma_bytes) / 1024.0,
                static_cast<double>(st.let_charge_bytes) / 1024.0,
                st.tree_builds);
  }
}

}  // namespace

int main() {
  using namespace bltc;

  const std::size_t n = 64000;
  const int nranks = 4;
  const Cloud particles = uniform_cube(n, 11);
  const KernelSpec kernel = KernelSpec::yukawa(0.5);

  dist::DistConfig config;
  config.kernel = kernel;
  config.params.treecode.theta = 0.8;
  config.params.treecode.degree = 8;
  config.params.treecode.max_leaf = 1000;
  config.params.treecode.max_batch = 1000;
  config.params.backend = Backend::kGpuSim;
  config.params.device = gpusim::DeviceSpec::p100();
  config.nranks = nranks;

  std::printf("Distributed BLTC: %zu particles on %d ranks (P100 per rank, "
              "modeled)\n",
              n, nranks);

  dist::DistSolver solver(config);
  solver.set_sources(particles);  // RCB + local trees + LET exchange, once

  dist::DistStats first;
  const std::vector<double> phi = solver.evaluate(&first);
  print_rank_table("first evaluate — carries the whole plan + LET exchange:",
                   first);

  dist::DistStats repeat;
  solver.evaluate(&repeat);
  print_rank_table(
      "repeat evaluate — cached plans: no RMA, no trees, kernels only:",
      repeat);

  // Charges change (a new right-hand side, a BEM iteration, a field
  // re-weighting): the LET refresh moves *only* charge bytes — modified
  // charges of MAC-accepted clusters plus direct-range particle charges.
  std::vector<double> rescaled = particles.q;
  for (double& q : rescaled) q *= 0.5;
  solver.update_charges(rescaled);
  dist::DistStats refresh;
  solver.evaluate(&refresh);
  print_rank_table(
      "after update_charges — RMA bytes == charge bytes (no geometry):",
      refresh);

  std::printf("\nmodeled bulk-synchronous phases, first evaluate "
              "(max over ranks):\n");
  std::printf("  setup (tree+LET+transfers): %.4f s\n", first.modeled.setup);
  std::printf("  precompute (modified charges): %.4f s\n",
              first.modeled.precompute);
  std::printf("  compute (potential kernels): %.4f s\n",
              first.modeled.compute);
  std::printf("repeat evaluate compute-only total: %.4f s (vs %.4f s)\n",
              repeat.modeled.total(), first.modeled.total());

  const auto sample = sample_indices(n, 400);
  const auto ref = direct_sum_sampled(particles, sample, particles, kernel);
  std::vector<double> phi_sampled(sample.size());
  for (std::size_t s = 0; s < sample.size(); ++s) {
    phi_sampled[s] = phi[sample[s]];
  }
  std::printf("\nrelative 2-norm error vs direct sum: %.3e\n",
              relative_l2_error(ref, phi_sampled));
  std::printf("note: every rank pulled only its locally essential subset of "
              "remote data,\nnot the full remote trees (LET property, "
              "§3.1).\n");
  return 0;
}
