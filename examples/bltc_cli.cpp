// Standalone BLTC executable — the paper's code ships "as both a stand
// alone executable and a library"; this is the executable half. Generates a
// workload (or reads one), runs the treecode, and reports phases, structure
// counts, the modeled device report (--backend gpu), and optionally the
// sampled error against direct summation.
//
// Examples:
//   bltc_cli --n 100000 --kernel yukawa --kappa 0.5 --theta 0.8 --degree 8
//   bltc_cli --n 50000 --backend gpu --check-error
//   bltc_cli --n 200000 --ranks 4 --backend gpu     # distributed pipeline
//   bltc_cli --distribution plummer --n 30000 --check-error
//   bltc_cli --distribution plasma --kernel yukawa --periodic --box 1 \
//            --shells 2 --check-error               # periodic lattice sum
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/direct_sum.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "mesh/mesh.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "serve/storm.hpp"
#include "util/cli.hpp"
#include "util/failpoints.hpp"
#include "util/io.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/workloads.hpp"

using namespace bltc;

namespace {

void usage() {
  std::printf(
      "bltc_cli — barycentric Lagrange treecode driver\n"
      "  --n <count>            particles (default 100000)\n"
      "  --distribution <name>  uniform | plummer | sphere | dumbbell |\n"
      "                         ionic | plasma | melt (periodic workloads\n"
      "                         in [0, box)^3; melt is non-neutral)\n"
      "  --kernel <name>        coulomb | yukawa | gaussian | multiquadric |\n"
      "                         inverse_square (default coulomb)\n"
      "  --kappa <value>        kernel parameter (default 0.5)\n"
      "  --theta <value>        MAC parameter (default 0.8)\n"
      "  --degree <n>           interpolation degree (default 8)\n"
      "  --leaf <count>         N_L source leaf size (default 2000)\n"
      "  --batch <count>        N_B target batch size (default 2000)\n"
      "  --backend <name>       cpu | gpu (default cpu); gpu adds the\n"
      "                         modeled device report (not with --serve)\n"
      "  --precision <name>     fp64 | mixed | fp32far (default fp64):\n"
      "                         per-interaction execution precision — mixed\n"
      "                         demotes far-field tiles to fp32 only when\n"
      "                         the ladder still meets the nominal error\n"
      "                         target; direct tiles always run fp64\n"
      "  --ranks <count>        >1 runs the distributed pipeline\n"
      "  --periodic             periodic boundary conditions over [0, L)^3\n"
      "                         (serial only; image sums serve yukawa and\n"
      "                         gaussian, periodic coulomb runs under --pme)\n"
      "  --box <L>              periodic cell edge length (default 1.0)\n"
      "  --shells <k>           image shells: (2k+1)^3 lattice images\n"
      "                         (default 1)\n"
      "  --pme                  PME-style periodic Coulomb over [0, L)^3:\n"
      "                         screened erfc(ar)/r treecode near field +\n"
      "                         FFT mesh far field (Coulomb only; accepts\n"
      "                         non-neutral clouds — uniform background)\n"
      "  --mesh-order <p>       PME B-spline order, even: 4 | 6 | 8 (6)\n"
      "  --mesh-spacing <h>     PME target grid spacing (0 = auto-tuned to\n"
      "                         the treecode's nominal error target)\n"
      "  --alpha <a>            PME Ewald splitting parameter (0 = auto)\n"
      "  --seed <value>         workload seed (default 1)\n"
      "  --input <file>         read particles (x y z q per line) instead of\n"
      "                         generating a distribution\n"
      "  --output <file>        write potentials, one per line\n"
      "  --check-error          sampled direct-sum error (Eq. 16)\n"
      "  --serve                multi-tenant serving mode: run a seeded\n"
      "                         request storm through the PlanCache +\n"
      "                         batching frontend and report latency\n"
      "                         percentiles, throughput, and cache counters\n"
      "  --requests <count>     serve: storm request count (default 64)\n"
      "  --clients <count>      serve: concurrent closed-loop clients\n"
      "                         (default 4)\n"
      "  --serve-batch <count>  serve: max requests per fused group\n"
      "                         (default 16)\n"
      "  --serve-delay-ms <ms>  serve: max admission delay (default 0.2)\n"
      "  --serve-workers <n>    serve: executor threads (default 2)\n"
      "  --shared-fraction <f>  serve: fraction of requests revisiting a\n"
      "                         shared cloud (default 0.5)\n"
      "  --periodic-fraction <f> serve: periodic-boundary fraction (0.25)\n"
      "  --dual-fraction <f>    serve: dual-traversal fraction (0.25)\n"
      "  --cache-mb <mb>        serve: plan-cache budget in MiB (256)\n"
      "  --chaos                serve: arm every failpoint site (seeded\n"
      "                         fault injection) and run the storm with\n"
      "                         retries; exits non-zero if any request\n"
      "                         fails with other than a precise serve\n"
      "                         error\n"
      "  --chaos-p <p>          serve: per-hit failpoint probability\n"
      "                         (default 0.05)\n"
      "  --help                 this text\n");
}

KernelSpec parse_kernel(const std::string& name, double kappa) {
  if (name == "coulomb") return KernelSpec::coulomb();
  if (name == "yukawa") return KernelSpec::yukawa(kappa);
  if (name == "gaussian") return KernelSpec::gaussian(kappa);
  if (name == "multiquadric") return KernelSpec::multiquadric(kappa);
  if (name == "inverse_square") return KernelSpec::inverse_square();
  std::fprintf(stderr, "unknown kernel '%s'\n", name.c_str());
  std::exit(2);
}

PrecisionPolicy parse_precision(const std::string& name) {
  if (name == "fp64") return PrecisionPolicy::kFp64;
  if (name == "mixed") return PrecisionPolicy::kMixed;
  if (name == "fp32far") return PrecisionPolicy::kFp32Far;
  std::fprintf(stderr, "unknown precision '%s' (fp64 | mixed | fp32far)\n",
               name.c_str());
  std::exit(2);
}

Backend parse_backend(const std::string& name) {
  if (name == "cpu") return Backend::kCpu;
  if (name == "gpu") return Backend::kGpuSim;
  std::fprintf(stderr, "unknown backend '%s' (cpu | gpu)\n", name.c_str());
  std::exit(2);
}

Cloud make_cloud(const std::string& dist, std::size_t n, std::uint64_t seed,
                 double box) {
  if (dist == "uniform") return uniform_cube(n, seed);
  if (dist == "plummer") return plummer_sphere(n, seed);
  if (dist == "sphere") return sphere_surface(n, seed);
  if (dist == "dumbbell") return dumbbell(n, seed);
  if (dist == "ionic") {
    // n is the total particle count; pick the nearest even lattice side.
    auto cells = static_cast<std::size_t>(std::cbrt(static_cast<double>(n)));
    if (cells < 2) cells = 2;
    return ionic_lattice(cells, seed, box, 0.5);
  }
  if (dist == "plasma") return screened_plasma(n, seed, box);
  if (dist == "melt") return ionic_melt(n, seed, box);
  std::fprintf(stderr, "unknown distribution '%s'\n", dist.c_str());
  std::exit(2);
}

/// Serving mode: closed-loop clients drive a seeded request storm through
/// the PlanCache + ServeFrontend; reports per-request latency percentiles,
/// throughput, and cache/frontend counters.
int run_serve(const ArgParser& args, std::uint64_t seed, double box) {
  StormSpec spec;
  spec.num_requests = args.get_size("requests", 64);
  spec.shared_fraction = args.get_double("shared-fraction", 0.5);
  spec.periodic_fraction = args.get_double("periodic-fraction", 0.25);
  spec.dual_fraction = args.get_double("dual-fraction", 0.25);
  spec.box = box;
  const RequestStorm storm = request_storm(spec, seed);
  serve::StormParams presets = serve::default_storm_params(storm.box);
  // One precision policy across all three storm presets; each response
  // reports what actually executed (degraded tiers fall back to fp64).
  const PrecisionPolicy precision =
      parse_precision(args.get_string("precision", "fp64"));
  presets.open.precision = precision;
  presets.dual.precision = precision;
  presets.periodic.precision = precision;

  serve::PlanCache::Options cache_options;
  cache_options.max_bytes = args.get_size("cache-mb", 256) << 20;
  serve::PlanCache cache(cache_options);

  serve::ServeOptions serve_options;
  serve_options.max_batch = args.get_size("serve-batch", 16);
  serve_options.max_delay_ms = args.get_double("serve-delay-ms", 0.2);
  serve_options.workers = args.get_size("serve-workers", 2);

  // Chaos mode: arm every failpoint site with a seeded per-hit fault
  // probability and let the frontend's transient-retry machinery absorb
  // the injected failures. Scopes stay armed for the whole storm.
  const bool chaos = args.has("chaos");
  std::vector<std::unique_ptr<failpoints::FailpointScope>> chaos_scopes;
  if (chaos) {
    serve_options.max_retries = 8;
    serve_options.retry_backoff_ms = 0.1;
    FailpointConfig config;
    config.probability = args.get_double("chaos-p", 0.05);
    config.seed = seed;
    for (const char* site : failpoints::all_sites()) {
      chaos_scopes.push_back(
          std::make_unique<failpoints::FailpointScope>(site, config));
    }
  }
  serve::ServeFrontend frontend(cache, serve_options);

  const std::size_t clients = std::max<std::size_t>(
      1, args.get_size("clients", 4));
  std::printf("serving storm: %zu requests (%zu clouds), %zu clients, "
              "group<=%zu, delay %.2f ms, %zu workers, cache %zu MiB\n",
              storm.requests.size(), storm.clouds.size(), clients,
              serve_options.max_batch, serve_options.max_delay_ms,
              serve_options.workers, cache_options.max_bytes >> 20);

  std::vector<double> latency(storm.requests.size(), 0.0);
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> ok{0}, shed{0}, expired{0}, failed{0};
  std::atomic<std::size_t> served_fp64{0}, served_reduced{0};
  WallTimer wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= storm.requests.size()) return;
          const serve::ServeRequest request =
              serve::storm_request(storm, storm.requests[i], presets);
          WallTimer timer;
          try {
            const serve::ServeResponse response =
                frontend.submit(request).get();
            ++ok;
            if (response.precision == PrecisionPolicy::kFp64) {
              ++served_fp64;
            } else {
              ++served_reduced;
            }
          } catch (const serve::RequestShed&) {
            ++shed;
          } catch (const serve::DeadlineExceeded&) {
            ++expired;
          } catch (const std::exception& e) {
            ++failed;
            std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
          }
          latency[i] = timer.seconds();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = wall.seconds();

  std::sort(latency.begin(), latency.end());
  const auto pct = [&](double p) {
    const std::size_t idx = std::min(
        latency.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latency.size())));
    return latency[idx];
  };
  std::printf("latency: p50 %.3f ms, p99 %.3f ms; throughput %.1f req/s "
              "(%.3f s wall)\n",
              pct(0.50) * 1e3, pct(0.99) * 1e3,
              static_cast<double>(storm.requests.size()) / elapsed, elapsed);
  const serve::CacheStats cs = cache.stats();
  std::printf("plan cache: %zu hits, %zu misses, %zu evictions, "
              "%zu collisions; %zu plans resident (%.1f MiB)\n",
              cs.hits, cs.misses, cs.evictions, cs.collisions, cs.entries,
              static_cast<double>(cs.bytes) / (1024.0 * 1024.0));
  const serve::FrontendStats fs = frontend.stats();
  std::printf("frontend: %zu completed in %zu evaluations, %zu fused, "
              "largest group %zu\n",
              fs.completed, fs.executions, fs.fused_requests, fs.max_group);
  std::printf("precision: policy %s; %zu responses served with fp32 tiles, "
              "%zu all-fp64 (degraded tiers always report fp64)\n",
              precision_policy_name(precision), served_reduced.load(),
              served_fp64.load());
  if (chaos) {
    std::printf("chaos: %zu ok, %zu shed, %zu deadline, %zu failed; "
                "%zu retries\n",
                ok.load(), shed.load(), expired.load(), failed.load(),
                fs.retries);
    for (const auto& scope : chaos_scopes) {
      const FailpointStats stats = scope->stats();
      std::printf("  failpoint %-20s %6zu hits, %4zu trips\n",
                  scope->site().c_str(), static_cast<std::size_t>(stats.hits),
                  static_cast<std::size_t>(stats.trips));
    }
    // Under chaos every request must still resolve precisely: a value, a
    // shed, or a deadline — anything else is a robustness bug.
    return failed.load() == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    usage();
    return 0;
  }
  static const char* known[] = {"n",      "distribution", "kernel", "kappa",
                                "theta",  "degree",       "leaf",   "batch",
                                "backend", "ranks",       "seed",  "precision",
                                "check-error", "input",    "output",
                                "periodic", "box",         "shells",
                                "pme",      "mesh-order",  "mesh-spacing",
                                "alpha",
                                "serve",   "requests",     "clients",
                                "serve-batch", "serve-delay-ms",
                                "serve-workers", "shared-fraction",
                                "periodic-fraction", "dual-fraction",
                                "cache-mb", "chaos", "chaos-p"};
  for (const std::string& key : args.keys()) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) {
      std::fprintf(stderr, "unknown option --%s (try --help)\n", key.c_str());
      return 2;
    }
  }

  const std::size_t n = args.get_size("n", 100000);
  const std::string dist = args.get_string("distribution", "uniform");
  const KernelSpec kernel = parse_kernel(args.get_string("kernel", "coulomb"),
                                         args.get_double("kappa", 0.5));
  TreecodeParams params;
  params.theta = args.get_double("theta", 0.8);
  params.degree = args.get_int("degree", 8);
  params.max_leaf = args.get_size("leaf", 2000);
  params.max_batch = args.get_size("batch", 2000);
  params.precision = parse_precision(args.get_string("precision", "fp64"));
  const double box = args.get_double("box", 1.0);
  if (args.has("periodic")) {
    params.boundary = BoundaryConditions::kPeriodic;
    params.domain = Box3::cube(0.0, box);
    params.image_shells = args.get_int("shells", 1);
  }
  if (args.has("pme")) {
    params.boundary = BoundaryConditions::kPeriodicMesh;
    params.domain = Box3::cube(0.0, box);
    params.mesh_order = args.get_int("mesh-order", 6);
    params.mesh_spacing = args.get_double("mesh-spacing", 0.0);
    params.ewald_alpha = args.get_double("alpha", 0.0);
  }
  const std::string backend_name = args.get_string("backend", "cpu");
  const Backend backend = parse_backend(backend_name);
  const int ranks = args.get_int("ranks", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_size("seed", 1));

  if (args.has("serve")) {
    if (backend != Backend::kCpu) {
      std::fprintf(stderr,
                   "serving has no backend: --serve reports measured costs "
                   "only; drop --backend %s\n",
                   backend_name.c_str());
      return 2;
    }
    try {
      return run_serve(args, seed, box);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serving error: %s\n", e.what());
      return 2;
    }
  }

  const Cloud cloud = args.has("input")
                          ? read_cloud(args.get_string("input", ""))
                          : make_cloud(dist, n, seed, box);
  std::printf("bltc_cli: %zu %s particles, %s, theta=%.2f n=%d N_L=%zu "
              "N_B=%zu, backend=%s, ranks=%d\n",
              cloud.size(),
              args.has("input") ? args.get_string("input", "").c_str()
                                : dist.c_str(),
              kernel.name().c_str(), params.theta,
              params.degree, params.max_leaf, params.max_batch,
              backend_name.c_str(), ranks);
  if (params.mesh()) {
    const mesh::MeshTuning tuning = mesh::tune_mesh(params);
    std::printf("pme: box [0, %g)^3, order %d, alpha %.3f, r_cut %.3f, "
                "grid %dx%dx%d (target error %.1e)\n",
                box, tuning.order, tuning.alpha, tuning.r_cut, tuning.nx,
                tuning.ny, tuning.nz, tuning.target_error);
  } else if (params.periodic()) {
    std::printf("periodic: box [0, %g)^3, %d image shell(s) => %d lattice "
                "images per source plan\n",
                box, params.image_shells,
                (2 * params.image_shells + 1) * (2 * params.image_shells + 1) *
                    (2 * params.image_shells + 1));
  }

  std::vector<double> phi;
  WallTimer timer;
  try {
  if (ranks > 1) {
    dist::DistParams dp;
    dp.treecode = params;
    dp.backend = backend;
    dist::DistStats res;
    phi = dist::compute_potential_distributed(cloud, kernel, dp, ranks, &res);
    std::printf("wall time: %.3f s\n", timer.seconds());
    std::printf("modeled phases (max over ranks): setup %.4f s, precompute "
                "%.4f s, compute %.4f s\n",
                res.modeled.setup, res.modeled.precompute,
                res.modeled.compute);
    for (int r = 0; r < ranks; ++r) {
      const dist::RankStats& st = res.per_rank[static_cast<std::size_t>(r)];
      std::printf("  rank %d: %zu local, %zu RMA gets, %.1f KiB pulled\n", r,
                  st.local_particles, st.rma_gets,
                  static_cast<double>(st.rma_bytes) / 1024.0);
    }
  } else {
    SolverConfig config;
    config.kernel = kernel;
    config.params = params;
    config.backend = backend;
    Solver solver(std::move(config));
    solver.set_sources(cloud);
    RunStats stats;
    phi = solver.evaluate(cloud, &stats);
    std::printf("wall time: %.3f s  (setup %.3f, precompute %.3f, compute "
                "%.3f)\n",
                timer.seconds(), stats.setup_seconds,
                stats.precompute_seconds, stats.compute_seconds);
    std::printf("structure: %zu clusters, %zu leaves, %zu batches; %zu "
                "approx + %zu direct interactions\n",
                stats.num_clusters, stats.num_leaves, stats.num_batches,
                stats.approx_interactions, stats.direct_interactions);
    if (params.mesh()) {
      std::printf("pme split: near %.3g kernel evals; far %zu mesh points "
                  "(spread+gather %.3f s, k-space %.3f s)\n",
                  stats.approx_evals + stats.direct_evals + stats.cp_evals +
                      stats.cc_evals,
                  stats.mesh_points, stats.mesh_spread_seconds,
                  stats.fft_seconds);
    }
    if (params.precision != PrecisionPolicy::kFp64) {
      std::printf("precision: %s — %.3g fp32 evals, %.3g fp64 evals "
                  "(direct tiles stay fp64), %zu demotions\n",
                  precision_policy_name(params.precision), stats.fp32_evals,
                  stats.fp64_evals, stats.precision_demotions);
    }
    if (backend == Backend::kGpuSim) {
      std::printf("modeled %s: setup %.4f s, precompute %.4f s, compute "
                  "%.4f s (%zu launches)\n",
                  gpusim::DeviceSpec::titan_v().name.c_str(),
                  stats.modeled.setup, stats.modeled.precompute,
                  stats.modeled.compute, stats.gpu_launches);
    }
  }
  } catch (const std::invalid_argument& e) {
    // Configuration rejected by the library (Coulomb under image sums,
    // periodic distributed runs, out-of-range parameters): report like any
    // other bad input instead of aborting.
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  if (args.has("output")) {
    write_values(args.get_string("output", ""), phi);
    std::printf("wrote %zu potentials to %s\n", phi.size(),
                args.get_string("output", "").c_str());
  }

  if (args.has("check-error")) {
    const auto sample = sample_indices(cloud.size(), 1000);
    // The oracle matches the run's boundary conditions: the periodic
    // reference sums the identical lattice-image set the treecode used.
    const auto ref =
        params.mesh()
            ? direct_sum_ewald_sampled(cloud, sample, cloud, params.domain)
            : params.periodic()
                  ? direct_sum_periodic_sampled(cloud, sample, cloud, kernel,
                                                params.domain,
                                                params.image_shells)
                  : direct_sum_sampled(cloud, sample, cloud, kernel);
    std::vector<double> phi_sampled(sample.size());
    for (std::size_t s = 0; s < sample.size(); ++s) {
      phi_sampled[s] = phi[sample[s]];
    }
    std::printf("sampled relative 2-norm error vs %sdirect sum: %.3e\n",
                params.mesh() ? "converged Ewald "
                              : params.periodic() ? "periodic " : "",
                relative_l2_error(ref, phi_sampled));
  }
  return 0;
}
