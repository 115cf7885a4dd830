// Plan lifecycle studies. replan: what a held Solver (and DistSolver) saves
// over one-shot calls that re-run setup and precompute every time.
// dynamics: what update_positions costs once the plan is slack-fattened,
// for an MD-like drift of every particle and for a localized patch of 1%
// of them, against the slack-0 full re-plan.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "study.hpp"
#include "util/rng.hpp"

namespace bltc::study {

namespace {

TreecodeParams lifecycle_params(double slack = 0.0) {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 8;
  p.max_leaf = 2000;
  p.max_batch = 2000;
  p.position_slack = slack;
  return p;
}

/// Move `who` (every particle when empty) by a uniform step of at most
/// `scale` per axis.
void drift(Cloud& cloud, const std::vector<std::size_t>& who, double scale,
           std::uint64_t seed) {
  SplitMix64 rng(seed);
  const auto move = [&](std::size_t i) {
    cloud.x[i] += scale * (2.0 * rng.next_double() - 1.0);
    cloud.y[i] += scale * (2.0 * rng.next_double() - 1.0);
    cloud.z[i] += scale * (2.0 * rng.next_double() - 1.0);
  };
  if (who.empty()) {
    for (std::size_t i = 0; i < cloud.size(); ++i) move(i);
  } else {
    for (const std::size_t i : who) move(i);
  }
}

/// The `count` particles nearest to (p, p, p): a spatially localized patch,
/// the shape of a local relaxation or an accepted Monte-Carlo move, so the
/// dirty clusters and restaged bytes scale with the patch, not with N.
std::vector<std::size_t> nearest_patch(const Cloud& cloud, std::size_t count,
                                       double p) {
  std::vector<std::size_t> idx(cloud.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const auto dist2 = [&](std::size_t i) {
    const double dx = cloud.x[i] - p, dy = cloud.y[i] - p,
                 dz = cloud.z[i] - p;
    return dx * dx + dy * dy + dz * dz;
  };
  std::nth_element(idx.begin(),
                   idx.begin() + static_cast<std::ptrdiff_t>(count), idx.end(),
                   [&](std::size_t a, std::size_t b) {
                     return dist2(a) < dist2(b);
                   });
  idx.resize(count);
  return idx;
}

}  // namespace

void replan(bool quick) {
  constexpr int kRepeats = 3;
  const std::size_t n = quick ? 10000 : 30000;
  const int calls = quick ? 3 : 5;
  constexpr int kRanks = 4;
  Report rep("replan", quick, kRepeats);
  rep.config("n", std::to_string(n));
  rep.config("calls", std::to_string(calls));
  rep.config("dist_ranks", std::to_string(kRanks));
  rep.config("kernel_theta_degree_leaf", "coulomb / 0.7 / 8 / 2000");
  const Cloud cloud = uniform_cube(n, 4242);
  const KernelSpec kernel = KernelSpec::coulomb();
  const TreecodeParams params = lifecycle_params();

  for (int r = 0; r < kRepeats; ++r) {
    for (const Backend backend : {Backend::kCpu, Backend::kGpuSim}) {
      const std::string tag = backend == Backend::kGpuSim ? "gpusim_" : "cpu_";
      double oneshot = 0.0, held = 0.0;
      for (int c = 0; c < calls; ++c) {
        RunStats stats;
        compute_potential(cloud, kernel, params, backend, &stats);
        oneshot += stats.total_seconds();
      }
      Solver solver({kernel, params, backend, {}});
      solver.set_sources(cloud);
      RunStats last;
      for (int c = 0; c < calls; ++c) {
        solver.evaluate(cloud, &last);
        held += last.total_seconds();
      }
      rep.wall(tag + "oneshot_total_seconds", "s", oneshot);
      rep.wall(tag + "held_total_seconds", "s", held);
      rep.wall(tag + "repeat_setup_seconds", "s", last.setup_seconds);
      rep.wall(tag + "repeat_compute_seconds", "s", last.compute_seconds);
      rep.count(tag + "approx_launches", "launches",
                static_cast<double>(last.approx_launches));
      rep.count(tag + "direct_launches", "launches",
                static_cast<double>(last.direct_launches));
      if (backend == Backend::kGpuSim) {
        // A held solver's repeat ships results only: no fresh HtD bytes.
        rep.modeled(tag + "repeat_bytes_to_device", "bytes",
                    static_cast<double>(last.bytes_to_device));
      }
    }

    // A held DistSolver re-executes its cached per-rank plans with zero
    // RMA and zero tree builds.
    dist::DistConfig config;
    config.kernel = kernel;
    config.params.treecode = params;
    config.params.backend = Backend::kCpu;
    config.nranks = kRanks;
    const auto total_of = [](const dist::DistStats& s) {
      return s.setup_seconds + s.precompute_seconds + s.compute_seconds;
    };
    double oneshot = 0.0, held_total = 0.0;
    for (int c = 0; c < calls; ++c) {
      dist::DistSolver solver(config);
      solver.set_sources(cloud);
      dist::DistStats stats;
      solver.evaluate(&stats);
      oneshot += total_of(stats);
    }
    dist::DistSolver held(config);
    held.set_sources(cloud);
    dist::DistStats last;
    for (int c = 0; c < calls; ++c) {
      held.evaluate(&last);
      held_total += total_of(last);
    }
    std::size_t gets = 0, trees = 0;
    for (const dist::RankStats& st : last.per_rank) {
      gets += st.rma_gets;
      trees += st.tree_builds;
    }
    rep.wall("dist_oneshot_total_seconds", "s", oneshot);
    rep.wall("dist_held_total_seconds", "s", held_total);
    rep.wall("dist_repeat_compute_seconds", "s", last.compute_seconds);
    rep.count("dist_repeat_rma_gets", "gets", static_cast<double>(gets));
    rep.count("dist_repeat_tree_builds", "trees", static_cast<double>(trees));
  }
  rep.write();
}

void dynamics(bool quick) {
  constexpr int kRepeats = 3;
  constexpr double kSlack = 0.1;
  const std::size_t n = quick ? 30000 : 200000;
  const int steps = quick ? 3 : 4;
  Report rep("dynamics", quick, kRepeats);
  rep.config("n", std::to_string(n));
  rep.config("steps", std::to_string(steps));
  rep.config("slack", fmt(kSlack));
  rep.config("kernel_theta_degree_leaf", "coulomb / 0.7 / 8 / 2000");
  const Cloud start = uniform_cube(n, 777);
  const std::vector<std::size_t> patch =
      nearest_patch(start, std::max<std::size_t>(n / 100, 1), 0.25);
  const KernelSpec kernel = KernelSpec::coulomb();

  // slack = 0 is the exact-parity contract: update_positions is a fresh
  // plan of the moved cloud, bit for bit.
  {
    Cloud moved = start;
    drift(moved, {}, 1e-4, 1);
    Solver a({kernel, lifecycle_params(), Backend::kCpu, {}});
    a.set_sources(start);
    (void)a.evaluate(start);
    a.update_positions(moved);
    Solver b({kernel, lifecycle_params(), Backend::kCpu, {}});
    b.set_sources(moved);
    rep.count("slack0_bit_identical", "bool",
              a.evaluate(moved) == b.evaluate(moved) ? 1.0 : 0.0);
  }

  // Per-step replan (setup + precompute) and evaluate (compute) seconds,
  // leapfrog (everyone drifts) and sparse (the patch moves), full re-plan
  // (slack 0) against incremental (slack 0.1).
  for (int r = 0; r < kRepeats; ++r) {
    for (const bool sparse : {false, true}) {
      const std::string tag = sparse ? "sparse_" : "leapfrog_";
      double replan_s[2] = {0.0, 0.0}, evaluate_s = 0.0;
      RunStats last;
      for (const bool incremental : {false, true}) {
        Solver solver({kernel, lifecycle_params(incremental ? kSlack : 0.0),
                       Backend::kCpu, {}});
        Cloud cloud = start;
        solver.set_sources(cloud);
        (void)solver.evaluate(cloud);
        for (int c = 1; c <= steps; ++c) {
          drift(cloud, sparse ? patch : std::vector<std::size_t>{}, 1e-4,
                static_cast<std::uint64_t>((sparse ? 20 : 10) + c));
          solver.update_positions(cloud);
          solver.evaluate(cloud, &last);
          replan_s[incremental] +=
              (last.setup_seconds + last.precompute_seconds) / steps;
          if (incremental) evaluate_s += last.compute_seconds / steps;
        }
      }
      rep.wall(tag + "full_replan_seconds", "s", replan_s[0]);
      rep.wall(tag + "incremental_replan_seconds", "s", replan_s[1]);
      rep.wall(tag + "replan_speedup", "ratio", replan_s[0] / replan_s[1]);
      rep.wall(tag + "replan_over_evaluate", "ratio", replan_s[1] / evaluate_s);
      rep.count(tag + "moved_particles", "particles",
                static_cast<double>(last.moved_particles));
      rep.count(tag + "dirty_clusters", "clusters",
                static_cast<double>(last.dirty_clusters));
      rep.count(tag + "num_clusters", "clusters",
                static_cast<double>(last.num_clusters));
      rep.count(tag + "lists_reused", "lists",
                static_cast<double>(last.lists_reused));
    }
  }

  // GpuSim: the restage after a sparse move ships the moved coordinates
  // and dirty-cluster charges only.
  {
    Solver solver({kernel, lifecycle_params(kSlack), Backend::kGpuSim, {}});
    Cloud cloud = start;
    solver.set_sources(cloud);
    RunStats stats;
    (void)solver.evaluate(cloud, &stats);
    const auto full = static_cast<double>(stats.bytes_to_device);
    drift(cloud, patch, 1e-4, 31);
    solver.update_positions(cloud);
    (void)solver.evaluate(cloud, &stats);
    const auto delta = static_cast<double>(stats.bytes_to_device);
    rep.modeled("gpusim_full_stage_bytes", "bytes", full);
    rep.modeled("gpusim_incremental_restage_bytes", "bytes", delta);
    rep.modeled("gpusim_restage_fraction", "ratio", delta / full);
    rep.count("gpusim_incremental_update", "bool",
              stats.incremental_update ? 1.0 : 0.0);
  }
  rep.write();
}

}  // namespace bltc::study
