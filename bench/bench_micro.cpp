// Micro suite over the hot building blocks of the BLTC: the blocked
// direct-sum and barycentric-approximation evaluators (the two kernels the
// paper's speedups come from), full-tile kernel rates, barycentric basis,
// per-cluster modified charges (both algebraic forms), tree construction,
// traversal, and RCB.
//
// The headline metrics are `direct_interactions_per_sec` and
// `approx_interactions_per_sec`: G(x,y) pair-evaluations per second through
// the engine's blocked kernel core (core/cpu_kernels.hpp), measured on an
// all-direct and an all-approx interaction pattern respectively. Results
// are printed as a table and written to BENCH_micro.json (override with
// `--json out.json`, disable with `--json -`) so the perf trajectory is
// tracked across PRs.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/barycentric.hpp"
#include "core/chebyshev.hpp"
#include "core/cpu_kernels.hpp"
#include "core/direct_sum.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/tree.hpp"
#include "partition/rcb.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"
#include "util/workloads.hpp"

using namespace bltc;

namespace {

double g_sink = 0.0;  ///< defeats dead-code elimination across benchmarks

/// Average seconds per call of `fn`, with reps chosen for a stable reading.
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

/// Source and target trees + batched lists + moments for one (targets,
/// sources) pair, executed through the one list driver.
struct EvalSetup {
  OrderedParticles src, tgt;
  ClusterTree tree, target_tree;
  ClusterMoments moments;
  DualInteractionLists lists;

  EvalSetup(const Cloud& targets, const Cloud& sources, double theta,
            int degree) {
    src = OrderedParticles::from_cloud(sources);
    TreeParams tp;
    tp.max_leaf = 2000;
    tree = ClusterTree::build(src, tp);
    moments = ClusterMoments::compute(tree, src, degree);
    tgt = OrderedParticles::from_cloud(targets);
    target_tree = ClusterTree::build(tgt, tp);
    lists = build_interaction_lists(target_tree, tree, theta, degree);
  }

  std::vector<double> potential(RunStats& stats, CpuWorkspace& ws) const {
    return cpu_evaluate_dual(tgt, target_tree, {}, lists, tree, src,
                             {&moments, 1}, KernelSpec::coulomb(), nullptr,
                             &stats, &ws);
  }
  FieldResult field(RunStats& stats, CpuWorkspace& ws) const {
    return cpu_evaluate_dual_field(tgt, target_tree, {}, lists, tree, src,
                                   {&moments, 1}, KernelSpec::coulomb(),
                                   nullptr, &stats, &ws);
  }
};

/// One accumulate_tile call of all of `t`'s targets (at most kTargetTile)
/// against every point of `s`. Returns the sum of every output, so that no
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

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Micro benchmarks — blocked evaluators and treecode building blocks",
      "BLTC_MICRO_DIRECT_N (default 8000), BLTC_MICRO_APPROX_N (default "
      "20000)");

  const std::size_t direct_n = env_size("BLTC_MICRO_DIRECT_N", 8000);
  const std::size_t approx_n = env_size("BLTC_MICRO_APPROX_N", 20000);

  bench::Table table({"benchmark", "time", "rate"});
  bench::JsonReport report("bench_micro");
  report.note("direct_n", std::to_string(direct_n));
  report.note("approx_n", std::to_string(approx_n));
  report.note("rate_unit", "per second");

  const auto row = [&](const std::string& name, double seconds, double items,
                       const std::string& what) {
    table.add_row({name, bench::Table::sci(seconds) + " s",
                   bench::Table::sci(items / seconds) + " " + what + "/s"});
    report.metric(name + "_seconds", seconds);
    report.metric(name + "_per_sec", items / seconds);
  };

  // --- Blocked direct-sum rate (Eq. 9): theta ~ 0 makes every list entry a
  // direct cluster, so the evaluator streams real particles only.
  {
    const Cloud c = uniform_cube(direct_n, 7);
    EvalSetup s(c, c, 0.05, 8);
    RunStats stats;
    CpuWorkspace ws;
    const double sec = time_call([&] {
      stats = RunStats{};  // the evaluators add into it
      g_sink += s.potential(stats, ws)[0];
    });
    row("direct_interactions", sec, stats.direct_evals, "inter");
  }

  // --- Blocked approx rate (Eq. 11): far-away targets, every cluster
  // passes the MAC, the evaluator streams Chebyshev points only.
  {
    const Cloud c = uniform_cube(approx_n, 7);
    Cloud far = c;
    for (auto& v : far.x) v += 6.0;
    for (auto& v : far.y) v += 6.0;
    for (auto& v : far.z) v += 6.0;
    EvalSetup s(far, c, 0.8, 8);
    RunStats stats;
    CpuWorkspace ws;
    const double sec = time_call([&] {
      stats = RunStats{};  // the evaluators add into it
      g_sink += s.potential(stats, ws)[0];
    });
    row("approx_interactions", sec, stats.approx_evals, "inter");

    // Same pattern through the field evaluator (potential + E).
    RunStats fstats;
    const double fsec = time_call([&] {
      fstats = RunStats{};
      g_sink += s.field(fstats, ws).ex[0];
    });
    row("approx_field_interactions", fsec, fstats.approx_evals, "inter");
  }

  // --- Field direct rate.
  {
    const Cloud c = uniform_cube(direct_n, 7);
    EvalSetup s(c, c, 0.05, 8);
    RunStats stats;
    CpuWorkspace ws;
    const double sec = time_call([&] {
      stats = RunStats{};
      g_sink += s.field(stats, ws).ex[0];
    });
    row("direct_field_interactions", sec, stats.direct_evals, "inter");
  }

  // --- Full-tile rates: one kTargetTile-target tile against a 1024-point
  // source block through accumulate_tile, the inner loop of every
  // interaction class, in ns per (target, source) pair. With AVX-512 these
  // are the vector tiles the evaluators run; the ratio rows compare
  // Yukawa's tile with Coulomb's.
  {
    constexpr std::size_t kSources = 1024;
    const Cloud t = uniform_cube(kTargetTile, 11);
    const Cloud s = uniform_cube(kSources, 12);
    const std::vector<std::pair<std::string, KernelSpec>> tile_cases{
        {"coulomb", KernelSpec::coulomb()},
        {"yukawa", KernelSpec::yukawa(0.5)},
        {"gaussian", KernelSpec::gaussian(0.4)},
        {"erfc", KernelSpec::coulomb_erfc(3.0)}};
    const double pairs = static_cast<double>(kTargetTile * kSources);
    double coulomb_ns[2] = {0.0, 0.0};
    for (const auto& [name, spec] : tile_cases) {
      for (const bool field : {false, true}) {
        const double sec = time_call([&] {
          g_sink += field ? full_tile<true>(spec, t, s)
                          : full_tile<false>(spec, t, s);
        });
        const double ns = sec * 1e9 / pairs;
        const std::string mode = field ? "field" : "potential";
        const std::string row_name = "tile_" + name + "_" + mode;
        table.add_row({row_name, bench::Table::sci(sec) + " s",
                       bench::Table::num(ns, 3) + " ns/pair"});
        report.metric(row_name + "_ns_per_pair", ns);
        if (name == "coulomb") coulomb_ns[field] = ns;
        if (name == "yukawa") {
          const std::string ratio_name = "tile_yukawa_over_coulomb_" + mode;
          const double ratio = ns / coulomb_ns[field];
          table.add_row({ratio_name, "-",
                         bench::Table::num(ratio, 2) + "x"});
          report.metric(ratio_name, ratio);
        }
      }
    }
  }

  // --- Barycentric basis at degree 8.
  {
    const auto pts = chebyshev2_points(8);
    const auto wts = chebyshev2_weights(8);
    std::vector<double> out(pts.size());
    double t = 0.1234;
    const double sec = time_call([&] {
      barycentric_basis(pts, wts, t, out);
      g_sink += out[0];
      t += 1e-9;
    });
    row("barycentric_basis_deg8", sec, 1.0, "call");
  }

  // --- Per-cluster modified charges, both algebraic forms (degree 8).
  {
    const Cloud c = uniform_cube(2000, 1);
    OrderedParticles sources = OrderedParticles::from_cloud(c);
    TreeParams tp;
    tp.max_leaf = 2000;
    const ClusterTree tree = ClusterTree::build(sources, tp);
    const ClusterMoments grids = ClusterMoments::grids_only(tree, 8);
    std::vector<double> out(grids.points_per_cluster());
    const double dsec = time_call([&] {
      ClusterMoments::compute_cluster_direct(tree, sources, 8, 0,
                                             grids.grid(0, 0),
                                             grids.grid(0, 1),
                                             grids.grid(0, 2), out);
      g_sink += out[0];
    });
    row("moments_direct_deg8", dsec, 2000.0, "particle");
    const double fsec = time_call([&] {
      ClusterMoments::compute_cluster_factorized(tree, sources, 8, 0,
                                                 grids.grid(0, 0),
                                                 grids.grid(0, 1),
                                                 grids.grid(0, 2), out);
      g_sink += out[0];
    });
    row("moments_factorized_deg8", fsec, 2000.0, "particle");
  }

  // --- Tree construction.
  {
    const Cloud c = uniform_cube(50000, 2);
    const double sec = time_call([&] {
      OrderedParticles p = OrderedParticles::from_cloud(c);
      TreeParams tp;
      tp.max_leaf = 500;
      const ClusterTree tree = ClusterTree::build(p, tp);
      g_sink += static_cast<double>(tree.num_nodes());
    });
    row("tree_build_50k", sec, 50000.0, "particle");
  }

  // --- Batched traversal (list construction, parallel over batches).
  {
    const Cloud c = uniform_cube(30000, 3);
    OrderedParticles src = OrderedParticles::from_cloud(c);
    TreeParams tp;
    tp.max_leaf = 500;
    const ClusterTree tree = ClusterTree::build(src, tp);
    OrderedParticles tgt = OrderedParticles::from_cloud(c);
    const ClusterTree target_tree = ClusterTree::build(tgt, tp);
    const double sec = time_call([&] {
      const DualInteractionLists lists =
          build_interaction_lists(target_tree, tree, 0.8, 8);
      g_sink += static_cast<double>(lists.total_pc);
    });
    row("traversal_30k", sec, 1.0, "call");

    // Dual (pairwise) traversal over the same trees, self mode included.
    const double dsec = time_call([&] {
      const DualInteractionLists lists =
          build_dual_interaction_lists(tree, tree, 0.8, 8, /*self=*/true);
      g_sink += static_cast<double>(lists.total_cc);
    });
    row("dual_traversal_30k", dsec, 1.0, "call");
  }

  // --- RCB partition.
  {
    const Cloud c = uniform_cube(50000, 4);
    const Box3 domain = Box3::cube(-1.0, 1.0);
    const double sec = time_call([&] {
      const RcbResult r = rcb_partition(c.x, c.y, c.z, 32, domain);
      g_sink += static_cast<double>(r.assignment[0]);
    });
    row("rcb_50k_32parts", sec, 50000.0, "particle");
  }

  // --- O(N^2) reference direct sum (the exact oracle, kept scalar).
  {
    const Cloud c = uniform_cube(4000, 5);
    const double sec = time_call([&] {
      g_sink += direct_sum(c, c, KernelSpec::coulomb())[0];
    });
    row("direct_sum_naive_4k", sec, 4000.0 * 4000.0, "inter");
  }

  table.print();
  std::printf("(sink %.3g)\n", g_sink);

  const std::string json_path =
      bench::json_output_path(argc, argv, "BENCH_micro.json");
  if (!json_path.empty()) report.write(json_path);
  return 0;
}
