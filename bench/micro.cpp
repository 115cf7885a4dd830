// Micro study over the hot building blocks: the blocked direct and
// barycentric-approximation evaluators (the two kernels the paper's
// speedups come from), full-tile kernel rates, the barycentric basis,
// per-cluster modified charges (both algebraic forms), tree construction,
// traversal, and RCB. Each timing is the mean over enough calls to fill
// 0.2 s; the study repeats it five times.
#include <functional>
#include <string>
#include <vector>

#include "core/barycentric.hpp"
#include "core/chebyshev.hpp"
#include "core/cpu_kernels.hpp"
#include "core/direct_sum.hpp"
#include "core/interaction_lists.hpp"
#include "core/moments.hpp"
#include "core/tree.hpp"
#include "partition/rcb.hpp"
#include "study.hpp"
#include "util/timer.hpp"

namespace bltc::study {

namespace {

double g_sink = 0.0;  ///< defeats dead-code elimination

/// Mean seconds per call of `fn` over enough calls to fill `min_seconds`.
double time_call(const std::function<void()>& fn, double min_seconds = 0.2) {
  fn();  // warm-up (and first-touch of any lazily sized buffers)
  WallTimer timer;
  fn();
  double elapsed = timer.seconds();
  std::size_t reps = 1;
  if (elapsed < min_seconds) {
    reps = static_cast<std::size_t>(min_seconds / (elapsed + 1e-9)) + 1;
    timer.reset();
    for (std::size_t r = 0; r < reps; ++r) fn();
    elapsed = timer.seconds();
  }
  return elapsed / static_cast<double>(reps);
}

/// Source and target trees, batched lists and moments for one (targets,
/// sources) pair, executed through the one list driver.
struct EvalSetup {
  OrderedParticles src, tgt;
  ClusterTree tree, target_tree;
  ClusterMoments moments;
  DualInteractionLists lists;

  EvalSetup(const Cloud& targets, const Cloud& sources, double theta) {
    src = OrderedParticles::from_cloud(sources);
    TreeParams tp;
    tp.max_leaf = 2000;
    tree = ClusterTree::build(src, tp);
    moments = ClusterMoments::compute(tree, src, 8);
    tgt = OrderedParticles::from_cloud(targets);
    target_tree = ClusterTree::build(tgt, tp);
    lists = build_interaction_lists(target_tree, tree, theta, 8);
  }

  /// One evaluation (potential, or field when `field`); returns its stats.
  RunStats run(bool field, CpuWorkspace& ws) const {
    RunStats stats;
    if (field) {
      g_sink += cpu_evaluate_dual_field(tgt, target_tree, {}, lists, tree,
                                        src, {&moments, 1},
                                        KernelSpec::coulomb(), nullptr,
                                        &stats, &ws)
                    .ex[0];
    } else {
      g_sink += cpu_evaluate_dual(tgt, target_tree, {}, lists, tree, src,
                                  {&moments, 1}, KernelSpec::coulomb(),
                                  nullptr, &stats, &ws)[0];
    }
    return stats;
  }
};

/// One accumulate_tile call of all of `t`'s targets (at most kTargetTile)
/// against every point of `s`; returns the sum of every output so that no
/// target's lanes are dead code.
template <bool Field>
double full_tile(const KernelSpec& spec, const Cloud& t, const Cloud& s) {
  double phi[kTargetTile] = {}, ex[kTargetTile] = {}, ey[kTargetTile] = {},
         ez[kTargetTile] = {};
  with_kernel(spec, [&](auto k) {
    accumulate_tile<Field, double>(t.x.data(), t.y.data(), t.z.data(),
                                   t.size(), s.x.data(), s.y.data(),
                                   s.z.data(), s.q.data(), s.size(), k, phi,
                                   ex, ey, ez);
  });
  double sum = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += phi[i] + ex[i] + ey[i] + ez[i];
  }
  return sum;
}

Cloud shifted(Cloud c, double by) {
  for (auto* axis : {&c.x, &c.y, &c.z}) {
    for (double& v : *axis) v += by;
  }
  return c;
}

}  // namespace

void micro(bool quick) {
  constexpr int kRepeats = 5;
  constexpr std::size_t kDirectN = 8000, kApproxN = 20000;
  Report rep("micro", quick, kRepeats);
  rep.config("direct_n", std::to_string(kDirectN));
  rep.config("approx_n", std::to_string(kApproxN));
  rep.config("timing", "mean over calls filling 0.2 s, per repeat");

  // Direct rate (Eq. 9): theta ~ 0 makes every pair direct. Approx rate
  // (Eq. 11): far-away targets, every cluster passes the MAC.
  const Cloud direct_cloud = uniform_cube(kDirectN, 7);
  const Cloud approx_cloud = uniform_cube(kApproxN, 7);
  const EvalSetup direct(direct_cloud, direct_cloud, 0.05);
  const EvalSetup approx(shifted(approx_cloud, 6.0), approx_cloud, 0.8);

  // Full tiles: one kTargetTile-target tile against 1024 sources, the inner
  // loop of every interaction class.
  constexpr std::size_t kSources = 1024;
  const Cloud tile_t = uniform_cube(kTargetTile, 11);
  const Cloud tile_s = uniform_cube(kSources, 12);
  const std::vector<std::pair<std::string, KernelSpec>> tile_kernels{
      {"coulomb", KernelSpec::coulomb()},
      {"yukawa", KernelSpec::yukawa(0.5)},
      {"gaussian", KernelSpec::gaussian(0.4)},
      {"erfc", KernelSpec::coulomb_erfc(3.0)}};

  const Cloud moment_cloud = uniform_cube(2000, 1);
  OrderedParticles moment_src = OrderedParticles::from_cloud(moment_cloud);
  TreeParams one_leaf;
  one_leaf.max_leaf = 2000;
  const ClusterTree moment_tree = ClusterTree::build(moment_src, one_leaf);
  const ClusterMoments grids = ClusterMoments::grids_only(moment_tree, 8);

  const Cloud tree_cloud = uniform_cube(50000, 2);
  const Cloud traversal_cloud = uniform_cube(30000, 3);
  TreeParams leaf500;
  leaf500.max_leaf = 500;
  OrderedParticles trav_src = OrderedParticles::from_cloud(traversal_cloud);
  const ClusterTree trav_tree = ClusterTree::build(trav_src, leaf500);
  const Cloud rcb_cloud = uniform_cube(50000, 4);
  const Cloud naive_cloud = uniform_cube(4000, 5);

  CpuWorkspace ws;
  for (int r = 0; r < kRepeats; ++r) {
    // Interaction rates: pair evaluations per second through the evaluator.
    for (const bool field : {false, true}) {
      const std::string mode = field ? "_field" : "";
      RunStats stats;
      double sec = time_call([&] { stats = direct.run(field, ws); });
      rep.wall("direct" + mode + "_interactions_per_sec", "1/s",
               stats.direct_evals / sec);
      sec = time_call([&] { stats = approx.run(field, ws); });
      rep.wall("approx" + mode + "_interactions_per_sec", "1/s",
               stats.approx_evals / sec);
    }

    double coulomb_ns[2] = {0.0, 0.0};
    for (const auto& [name, spec] : tile_kernels) {
      for (const bool field : {false, true}) {
        const double sec = time_call([&] {
          g_sink += field ? full_tile<true>(spec, tile_t, tile_s)
                          : full_tile<false>(spec, tile_t, tile_s);
        });
        const double ns = sec * 1e9 / static_cast<double>(kTargetTile *
                                                          kSources);
        const std::string mode = field ? "field" : "potential";
        rep.wall("tile_" + name + "_" + mode + "_ns_per_pair", "ns", ns);
        if (name == "coulomb") coulomb_ns[field] = ns;
        if (name == "yukawa") {
          rep.wall("tile_yukawa_over_coulomb_" + mode, "ratio",
                   ns / coulomb_ns[field]);
        }
      }
    }

    const auto pts = chebyshev2_points(8);
    const auto wts = chebyshev2_weights(8);
    std::vector<double> basis(pts.size());
    double t = 0.1234;
    rep.wall("barycentric_basis_deg8_seconds", "s", time_call([&] {
               barycentric_basis(pts, wts, t, basis);
               g_sink += basis[0];
               t += 1e-9;
             }));

    std::vector<double> qhat(grids.points_per_cluster());
    rep.wall("moments_direct_deg8_seconds", "s", time_call([&] {
               ClusterMoments::compute_cluster_direct(
                   moment_tree, moment_src, 8, 0, grids.grid(0, 0),
                   grids.grid(0, 1), grids.grid(0, 2), qhat);
               g_sink += qhat[0];
             }));
    rep.wall("moments_factorized_deg8_seconds", "s", time_call([&] {
               ClusterMoments::compute_cluster_factorized(
                   moment_tree, moment_src, 8, 0, grids.grid(0, 0),
                   grids.grid(0, 1), grids.grid(0, 2), qhat);
               g_sink += qhat[0];
             }));

    rep.wall("tree_build_50k_seconds", "s", time_call([&] {
               OrderedParticles p = OrderedParticles::from_cloud(tree_cloud);
               g_sink += static_cast<double>(
                   ClusterTree::build(p, leaf500).num_nodes());
             }));
    rep.wall("traversal_30k_seconds", "s", time_call([&] {
               g_sink += static_cast<double>(
                   build_interaction_lists(trav_tree, trav_tree, 0.8, 8)
                       .total_pc);
             }));
    rep.wall("dual_traversal_30k_seconds", "s", time_call([&] {
               g_sink += static_cast<double>(
                   build_dual_interaction_lists(trav_tree, trav_tree, 0.8, 8,
                                                /*self=*/true)
                       .total_cc);
             }));
    rep.wall("rcb_50k_32parts_seconds", "s", time_call([&] {
               g_sink += static_cast<double>(
                   rcb_partition(rcb_cloud.x, rcb_cloud.y, rcb_cloud.z, 32,
                                 Box3::cube(-1.0, 1.0))
                       .assignment[0]);
             }));
    // The O(N^2) reference direct sum (the exact oracle, kept scalar).
    rep.wall("direct_sum_naive_4k_seconds", "s", time_call([&] {
               g_sink += direct_sum(naive_cloud, naive_cloud,
                                    KernelSpec::coulomb())[0];
             }));
  }
  rep.config("sink", fmt(g_sink));
  rep.write();
}

}  // namespace bltc::study
