// The paper's figures and its §3.2/§4 claims: Fig. 2 (RCB), Fig. 4 (run
// time vs error), Figs. 5-6 (weak and strong scaling), the §4 crossover
// (with the BLDTT dual-vs-PC and periodic image-shell sections), and the
// §3.2 ablations (batch MAC, leaf size, asynchronous streams).
//
// GPU and 6-core CPU times are modeled from real operation and byte counts
// (gpusim::CostModel on the paper's Titan V, P100 and Xeon X5650) and are
// reported as modeled; sizes are scaled down from the paper's.
#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "gpusim/cost_model.hpp"
#include "partition/rcb.hpp"
#include "study.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace bltc::study {

namespace {

/// A Solver over `cloud` with the paper's equal leaf and batch size.
Solver make_solver(const Cloud& cloud, const KernelSpec& kernel,
                   double theta, int degree, std::size_t leaf,
                   Backend backend) {
  SolverConfig config;
  config.kernel = kernel;
  config.params.theta = theta;
  config.params.degree = degree;
  config.params.max_leaf = leaf;
  config.params.max_batch = leaf;
  config.backend = backend;
  Solver solver(config);
  solver.set_sources(cloud);
  return solver;
}

/// The distributed handle at the paper's Figs. 5-6 parameters (theta 0.8,
/// n = 8) with one modeled P100 per rank.
dist::DistSolver make_dist(const Cloud& cloud, const KernelSpec& kernel,
                           int ranks) {
  dist::DistConfig config;
  config.kernel = kernel;
  config.params.treecode.theta = 0.8;
  config.params.treecode.degree = 8;
  config.params.treecode.max_leaf = 1000;
  config.params.treecode.max_batch = 1000;
  config.params.backend = Backend::kGpuSim;
  config.params.device = gpusim::DeviceSpec::p100();
  config.nranks = ranks;
  dist::DistSolver solver(config);
  solver.set_sources(cloud);
  return solver;
}

const std::pair<const char*, KernelSpec> kPaperKernels[] = {
    {"coulomb", KernelSpec::coulomb()}, {"yukawa", KernelSpec::yukawa(0.5)}};

/// Modeled 6-core CPU seconds for `evals` kernel evaluations.
double cpu_model_seconds(double evals, const KernelSpec& kernel) {
  return evals * gpusim::kernel_eval_weight(kernel, false) /
         gpusim::DeviceSpec::xeon_x5650_6core().evals_per_sec;
}

/// One batched-PC vs dual comparison of steady-state (cached-plan)
/// evaluations, Coulomb, theta 0.7, n 8, default leaf sizes.
void bldtt_compare(const std::string& prefix, const Cloud& cloud,
                   int repeats, Report& rep) {
  const KernelSpec kernel = KernelSpec::coulomb();
  for (const auto mode : {TraversalMode::kBatched, TraversalMode::kDual}) {
    const std::string key =
        prefix + (mode == TraversalMode::kDual ? "dual_" : "pc_");
    SolverConfig config;
    config.kernel = kernel;
    config.params.theta = 0.7;
    config.params.degree = 8;
    config.params.traversal = mode;
    Solver solver(config);
    solver.set_sources(cloud);
    std::vector<double> phi = solver.evaluate(cloud);  // plans the targets
    RunStats stats;
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      phi = solver.evaluate(cloud, &stats);
      rep.wall(key + "seconds", "s", timer.seconds());
    }
    rep.count(key + "total_evals", "evals", stats.total_evals());
    rep.count(key + "launches", "launches",
              static_cast<double>(stats.approx_launches +
                                  stats.direct_launches + stats.cp_launches +
                                  stats.cc_launches));
    rep.count(key + "rel_err", "1", sampled_error(cloud, phi, kernel, 500));
    if (mode == TraversalMode::kDual) {
      rep.count(key + "cc_evals", "evals", stats.cc_evals);
      rep.count(key + "cp_evals", "evals", stats.cp_evals);
      rep.count(key + "pc_evals", "evals", stats.approx_evals);
      rep.count(key + "direct_evals", "evals", stats.direct_evals);
      rep.count(key + "cc_interactions", "pairs",
                static_cast<double>(stats.cc_interactions));
      rep.count(key + "cp_interactions", "pairs",
                static_cast<double>(stats.cp_interactions));
    }
  }
}

/// Open boundaries against periodic runs at 0, 1 and 2 image shells
/// (screened plasma, Yukawa kappa 4, theta 0.8, n 8): eval growth against
/// the (2k+1)^3 image count, steady-state wall time, the error against the
/// identical image set (parity) and against a 4-shell reference.
void periodic_shells(bool quick) {
  constexpr int kRepeats = 3;
  const std::size_t n = quick ? 20000 : 40000;
  Report rep("periodic", quick, kRepeats);
  rep.config("n", std::to_string(n));
  rep.config("kernel", "yukawa kappa=4");
  rep.config("theta_degree", "0.8 / 8");
  rep.config("workload", "screened_plasma, box [0,1)^3");
  rep.config("reference", "periodic direct sum at 4 shells");

  const KernelSpec kernel = KernelSpec::yukawa(4.0);
  const Box3 domain = Box3::cube(0.0, 1.0);
  const Cloud plasma = screened_plasma(n, 7);
  const auto sample = sample_indices(n, 300);
  // At kappa = 4 the image-sum truncation decays like exp(-4k): 4 shells
  // is converged far below the treecode tolerance.
  const auto converged =
      direct_sum_periodic_sampled(plasma, sample, plasma, kernel, domain, 4);

  double open_evals = 0.0;
  for (int shells = -1; shells <= 2; ++shells) {
    SolverConfig config;
    config.kernel = kernel;
    config.params.theta = 0.8;
    config.params.degree = 8;
    if (shells >= 0) {
      config.params.boundary = BoundaryConditions::kPeriodic;
      config.params.domain = domain;
      config.params.image_shells = shells;
    }
    Solver solver(config);
    solver.set_sources(plasma);
    std::vector<double> phi = solver.evaluate(plasma);  // plans the targets
    const std::string key =
        shells < 0 ? "open_" : "shells" + std::to_string(shells) + "_";
    RunStats stats;
    for (int r = 0; r < kRepeats; ++r) {
      WallTimer timer;
      phi = solver.evaluate(plasma, &stats);
      rep.wall(key + "seconds", "s", timer.seconds());
    }
    if (shells < 0) open_evals = stats.total_evals();

    std::vector<double> at_sample(sample.size());
    for (std::size_t s = 0; s < sample.size(); ++s) {
      at_sample[s] = phi[sample[s]];
    }
    const auto own =
        shells < 0 ? direct_sum_sampled(plasma, sample, plasma, kernel)
                   : direct_sum_periodic_sampled(plasma, sample, plasma,
                                                 kernel, domain, shells);
    rep.count(key + "total_evals", "evals", stats.total_evals());
    rep.count(key + "evals_over_open", "ratio",
              stats.total_evals() / open_evals);
    rep.count(key + "err_vs_imageset", "1", relative_l2_error(own, at_sample));
    rep.count(key + "err_vs_converged", "1",
              relative_l2_error(converged, at_sample));
  }
  rep.write();
}

}  // namespace

void fig2(bool quick) {
  const std::size_t n = quick ? 20000 : 100000;
  Report rep("fig2", quick, 1);
  rep.config("points", std::to_string(n) + " uniform on the unit square");
  rep.config("policy", "RCB, y bisected first (kCycleYXZ)");
  rep.config("paper", "every part's area is 1/parts");
  Cloud c = uniform_cube(n, 2020, 0.0, 1.0);
  for (double& z : c.z) z = 0.0;
  Box3 domain;
  domain.lo = {0.0, 0.0, 0.0};
  domain.hi = {1.0, 1.0, 0.0};
  for (const std::size_t parts : {4, 6}) {
    const RcbResult r = rcb_partition(c.x, c.y, c.z, parts, domain,
                                      RcbAxisPolicy::kCycleYXZ);
    for (std::size_t p = 0; p < parts; ++p) {
      const Box3& b = r.part_box[p];
      const std::string key = "parts" + std::to_string(parts) + "_part" +
                              std::to_string(p) + "_";
      rep.count(key + "area", "1",
                (b.hi[0] - b.lo[0]) * (b.hi[1] - b.lo[1]));
      rep.count(key + "points", "points",
                static_cast<double>(r.part_count[p]));
    }
  }
  rep.write();
}

void fig4(bool quick) {
  const std::size_t n = quick ? 10000 : 100000;
  const int max_degree = quick ? 5 : 9;
  const std::size_t leaf = 2000;
  Report rep("fig4", quick, 1);
  rep.config("n", std::to_string(n) + " uniform cube (paper: 1M)");
  rep.config("degrees", "1:2:" + std::to_string(max_degree) +
                            " (paper: to 13 or machine precision)");
  rep.config("leaf_batch", std::to_string(leaf));
  rep.config("devices", "Titan V GPU and 6-core Xeon X5650, both modeled");
  rep.config("paper_claims",
             "treecode beats direct sum over the whole error range; GPU "
             ">= 100x CPU; Yukawa ~1.8x (CPU) / ~1.5x (GPU) Coulomb's time");

  const Cloud cloud = uniform_cube(n, 4242);
  const gpusim::DeviceSpec gpu = gpusim::DeviceSpec::titan_v();
  for (const auto& [tag, kernel] : kPaperKernels) {
    const std::string k = tag;
    const double pairs = static_cast<double>(n) * static_cast<double>(n);
    rep.modeled(k + "_direct_gpu_seconds", "s",
                pairs * gpusim::kernel_eval_weight(kernel, true) /
                    gpu.evals_per_sec);
    rep.modeled(k + "_direct_cpu6_seconds", "s",
                cpu_model_seconds(pairs, kernel));
    for (const double theta : {0.5, 0.7, 0.9}) {
      for (int degree = 1; degree <= max_degree; degree += 2) {
        Solver solver =
            make_solver(cloud, kernel, theta, degree, leaf, Backend::kGpuSim);
        RunStats stats;
        const auto phi = solver.evaluate(cloud, &stats);
        const double err = sampled_error(cloud, phi, kernel);
        const std::string key =
            k + "_theta" + fmt(theta) + "_n" + std::to_string(degree) + "_";
        rep.count(key + "error", "1", err);
        rep.modeled(key + "gpu_seconds", "s", stats.modeled.total());
        rep.modeled(key + "cpu6_seconds", "s",
                    cpu_model_seconds(stats.approx_evals + stats.direct_evals,
                                      kernel));
        rep.modeled(key + "gpu_launches", "launches",
                    static_cast<double>(stats.gpu_launches));
        if (err < 5e-15) break;  // machine precision (the paper's rule)
      }
    }
  }
  rep.write();
}

void fig5(bool quick) {
  const std::size_t base = quick ? 2000 : 5000;
  const int max_ranks = quick ? 4 : 8;
  Report rep("fig5", quick, 1);
  rep.config("per_rank_base", std::to_string(base) + " (paper: 8/16/32 M)");
  rep.config("max_ranks", std::to_string(max_ranks) + " (paper: 32)");
  rep.config("theta_degree_leaf", "0.8 / 8 / 1000, one modeled P100 a rank");
  for (const auto& [tag, kernel] : kPaperKernels) {
    for (const std::size_t per_rank : {base, 2 * base, 4 * base}) {
      for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
        const std::size_t n = per_rank * static_cast<std::size_t>(ranks);
        const Cloud cloud = uniform_cube(n, 555);
        dist::DistSolver solver = make_dist(cloud, kernel, ranks);
        dist::DistStats first, repeat;
        const std::vector<double> phi = solver.evaluate(&first);
        // Steady state: the cached plan re-executes with zero RMA and zero
        // tree work, the per-step price of a time-stepping driver.
        solver.evaluate(&repeat);
        const std::string key = std::string(tag) + "_n" +
                                std::to_string(per_rank) + "_r" +
                                std::to_string(ranks) + "_";
        rep.modeled(key + "model_total_seconds", "s", first.modeled.total());
        rep.modeled(key + "model_setup_seconds", "s", first.modeled.setup);
        rep.modeled(key + "model_precompute_seconds", "s",
                    first.modeled.precompute);
        rep.modeled(key + "model_compute_seconds", "s", first.modeled.compute);
        rep.modeled(key + "model_repeat_seconds", "s", repeat.modeled.total());
        rep.count(key + "error", "1", sampled_error(cloud, phi, kernel, 500));
      }
    }
  }
  rep.write();
}

void fig6(bool quick) {
  const std::size_t n_small = quick ? 6000 : 12000;
  const std::size_t n_large = quick ? 12000 : 48000;
  const int max_ranks = quick ? 4 : 8;
  Report rep("fig6", quick, 1);
  rep.config("n_small", std::to_string(n_small) + " (paper: 16 M)");
  rep.config("n_large", std::to_string(n_large) + " (paper: 64 M)");
  rep.config("max_ranks", std::to_string(max_ranks) + " (paper: 32)");
  rep.config("theta_degree_leaf", "0.8 / 8 / 1000, one modeled P100 a rank");
  for (const auto& [tag, kernel] : kPaperKernels) {
    for (const auto& [size, n, seed] :
         {std::tuple{"small", n_small, 66}, std::tuple{"large", n_large, 67}}) {
      const Cloud cloud = uniform_cube(n, static_cast<std::uint64_t>(seed));
      double t1 = 0.0;
      for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
        dist::DistSolver solver = make_dist(cloud, kernel, ranks);
        dist::DistStats stats;
        const std::vector<double> phi = solver.evaluate(&stats);
        const ModeledTimes& m = stats.modeled;
        if (ranks == 1) t1 = m.total();
        const std::string key = std::string(tag) + "_" + size + "_r" +
                                std::to_string(ranks) + "_";
        rep.modeled(key + "model_total_seconds", "s", m.total());
        rep.modeled(key + "efficiency", "ratio",
                    t1 / (static_cast<double>(ranks) * m.total()));
        rep.modeled(key + "setup_share", "ratio", m.setup / m.total());
        rep.modeled(key + "precompute_share", "ratio",
                    m.precompute / m.total());
        rep.modeled(key + "compute_share", "ratio", m.compute / m.total());
        rep.count(key + "error", "1", sampled_error(cloud, phi, kernel, 500));
      }
    }
  }
  rep.write();
}

void crossover(bool quick) {
  // §4: the GPU direct sum beats the CPU treecode at small N but, being
  // O(N^2), loses to the GPU treecode as N grows.
  {
    const std::size_t n_max = quick ? 40000 : 160000;
    Report rep("crossover", quick, 1);
    rep.config("n", "10000 doubling to " + std::to_string(n_max));
    rep.config("kernel_theta_degree_leaf", "coulomb / 0.8 / 8 / 2000");
    const KernelSpec kernel = KernelSpec::coulomb();
    const double gpu_rate = gpusim::DeviceSpec::titan_v().evals_per_sec;
    const double cpu_rate =
        gpusim::DeviceSpec::xeon_x5650_6core().evals_per_sec;
    for (std::size_t n = 10000; n <= n_max; n *= 2) {
      const Cloud cloud = uniform_cube(n, 999);
      Solver solver =
          make_solver(cloud, kernel, 0.8, 8, 2000, Backend::kGpuSim);
      RunStats stats;
      const auto phi = solver.evaluate(cloud, &stats);
      const std::string key = "n" + std::to_string(n) + "_";
      rep.modeled(key + "direct_gpu_seconds", "s",
                  static_cast<double>(n) * static_cast<double>(n) / gpu_rate);
      rep.modeled(key + "treecode_gpu_seconds", "s", stats.modeled.total());
      rep.modeled(key + "treecode_cpu6_seconds", "s",
                  (stats.approx_evals + stats.direct_evals) / cpu_rate);
      rep.count(key + "error", "1", sampled_error(cloud, phi, kernel, 500));
    }
    rep.write();
  }

  // BLDTT: the dual traversal against batched PC at matched parameters, on
  // the sphere-surface (BEM quadrature) headline workload, the uniform
  // cube, and smaller spheres for the trend with N.
  {
    constexpr int kRepeats = 3;
    const std::size_t n = quick ? 40000 : 100000;
    Report rep("bldtt", quick, kRepeats);
    rep.config("n", std::to_string(n));
    rep.config("kernel_theta_degree", "coulomb / 0.7 / 8, default leaf sizes");
    rep.config("headline_workload", "sphere_surface (BEM quadrature)");
    bldtt_compare("", sphere_surface(n, 42), kRepeats, rep);
    bldtt_compare("uniform_", uniform_cube(n, 42), kRepeats, rep);
    for (std::size_t m = n / 4; m < n; m *= 2) {
      bldtt_compare("sphere_" + std::to_string(m / 1000) + "k_",
                    sphere_surface(m, 42), kRepeats, rep);
    }
    rep.write();
  }

  periodic_shells(quick);
}

void batchmac(bool quick) {
  // §3.2: the MAC is applied per target batch, not per target. Per-target
  // acceptance is max_batch = 1: less direct work per target, but one
  // launch per target on a GPU.
  const std::size_t n = quick ? 4000 : 20000;
  Report rep("batchmac", quick, 1);
  rep.config("n", std::to_string(n));
  rep.config("kernel_degree_leaf", "coulomb / 6 / 1000");
  const KernelSpec kernel = KernelSpec::coulomb();
  const Cloud cloud = uniform_cube(n, 31415);
  for (const double theta : {0.6, 0.8}) {
    for (const std::size_t batch : {1000, 1}) {
      SolverConfig config;
      config.kernel = kernel;
      config.backend = Backend::kGpuSim;
      config.params.theta = theta;
      config.params.degree = 6;
      config.params.max_leaf = 1000;
      config.params.max_batch = batch;
      Solver solver(config);
      solver.set_sources(cloud);
      RunStats stats;
      const auto phi = solver.evaluate(cloud, &stats);
      const double targets = static_cast<double>(n);
      const std::string key =
          "theta" + fmt(theta) + "_batch" + std::to_string(batch) + "_";
      rep.count(key + "error", "1", sampled_error(cloud, phi, kernel, 500));
      rep.count(key + "batches", "batches",
                static_cast<double>(stats.num_batches));
      rep.count(key + "direct_evals_per_target", "evals",
                stats.direct_evals / targets);
      rep.count(key + "approx_evals_per_target", "evals",
                stats.approx_evals / targets);
      rep.modeled(key + "gpu_compute_seconds", "s", stats.modeled.compute);
      rep.modeled(key + "gpu_launches", "launches",
                  static_cast<double>(stats.gpu_launches));
    }
  }
  rep.write();
}

void leafsize(bool quick) {
  // §3.2: N_B = N_L ~ 2000 fills the GPU; small leaves are launch bound,
  // large leaves do too much direct work.
  const std::size_t n = quick ? 8000 : 40000;
  Report rep("leafsize", quick, 1);
  rep.config("n", std::to_string(n));
  rep.config("kernel_theta_degree", "coulomb / 0.8 / 8");
  const KernelSpec kernel = KernelSpec::coulomb();
  const Cloud cloud = uniform_cube(n, 1234);
  for (const std::size_t leaf : {250, 500, 1000, 2000, 4000, 8000}) {
    Solver solver = make_solver(cloud, kernel, 0.8, 8, leaf, Backend::kGpuSim);
    RunStats stats;
    const auto phi = solver.evaluate(cloud, &stats);
    const std::string key = "leaf" + std::to_string(leaf) + "_";
    rep.count(key + "error", "1", sampled_error(cloud, phi, kernel, 500));
    rep.count(key + "direct_evals", "evals", stats.direct_evals);
    rep.count(key + "approx_evals", "evals", stats.approx_evals);
    rep.modeled(key + "gpu_compute_seconds", "s", stats.modeled.compute);
    rep.modeled(key + "gpu_total_seconds", "s", stats.modeled.total());
    rep.modeled(key + "gpu_launches", "launches",
                static_cast<double>(stats.gpu_launches));
  }
  rep.write();
}

void async_streams(bool quick) {
  // §3.2: asynchronous streams cut compute time by about 25% (1M case).
  const std::size_t n = quick ? 4000 : 15000;
  Report rep("async_streams", quick, 1);
  rep.config("n", std::to_string(n));
  rep.config("degree_leaf", "8 / 2000");
  const Cloud cloud = uniform_cube(n, 777);
  for (const auto& [tag, kernel] : kPaperKernels) {
    for (const double theta : {0.7, 0.8}) {
      double compute[2] = {0.0, 0.0};
      for (const bool async : {false, true}) {
        SolverConfig config;
        config.kernel = kernel;
        config.params.theta = theta;
        config.params.degree = 8;
        config.params.max_leaf = 2000;
        config.params.max_batch = 2000;
        config.backend = Backend::kGpuSim;
        config.gpu.async_streams = async;
        Solver solver(config);
        solver.set_sources(cloud);
        RunStats stats;
        solver.evaluate(cloud, &stats);
        compute[async] = stats.modeled.compute;
      }
      const std::string key = std::string(tag) + "_theta" + fmt(theta) + "_";
      rep.modeled(key + "sync_compute_seconds", "s", compute[0]);
      rep.modeled(key + "async_compute_seconds", "s", compute[1]);
      rep.modeled(key + "async_reduction", "ratio",
                  (compute[0] - compute[1]) / compute[0]);
    }
  }
  rep.write();
}

}  // namespace bltc::study
