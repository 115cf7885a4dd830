// The four benchmark workloads (perfbench/METRICS.md describes them). Each
// builds its inputs from the seed, times fresh set-ups, runs a warm-up,
// measures ops for the requested number of seconds, and checks the outputs
// against an oracle. The closed loops step kReplicas independent systems
// round-robin; their traced run interleaves untraced and traced rounds of
// ops. Every traced run then probes single layers on the workload's inputs.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/direct_sum.hpp"
#include "core/fields.hpp"
#include "core/moments.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "mesh/mesh.hpp"
#include "partition/rcb.hpp"
#include "serve/frontend.hpp"
#include "serve/plan_cache.hpp"
#include "serve/storm.hpp"
#include "util/box.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/workloads.hpp"

namespace perfbench {
namespace {

using namespace bltc;

/// Closed-loop workloads step this many independent systems round-robin,
/// each from its own sub-seed, so one run's medians average over several
/// input geometries instead of resting on one.
constexpr std::size_t kReplicas = 4;
constexpr std::size_t kSmokeOps = 2 * kReplicas;
constexpr std::size_t kFrames = 16;  ///< trajectory length (played ping-pong)

/// Thread budget: busy threads stay within nproc (perfbench/METRICS.md,
/// Steadiness). perfbench/run.py sets OMP_NUM_THREADS=1, which every simmpi
/// rank and serve worker, each an OS thread with its own OpenMP team, reads;
/// the MD workloads' one caller runs a team of pair_threads().
constexpr std::size_t kWorkers = 1;  ///< serve_open: + the arrival generator

/// The MD workloads' OpenMP team, dist_yukawa's simmpi ranks and the team
/// of the traced run's kernel speedup probe: two where the machine has two
/// processors.
int pair_threads() { return std::min(2, omp_get_num_procs()); }

/// Timed segments per run. Contention from other tenants of a shared
/// machine comes and goes over seconds and moved set-up time up to 1.7x
/// between one second and the next (serve_open: 26 or 45 ms), so set-ups
/// done back to back reported one moment of the machine. Each segment
/// starts with one round of fresh set-ups (one per replica; serve_open:
/// kReplicas fresh servers), so they spread over the run like the ops.
/// setup_s is their median. A first round of set-ups builds the handles the
/// ops use and is discarded: a process's first set-ups ran about twice as
/// long as later ones.
std::size_t segments(const Args& a) { return a.smoke ? 1 : 5; }

/// Extra systems md_open and dist_yukawa evaluate, untimed, after the timed
/// loop for the accuracy gate. Their error moves with the geometry (with
/// the 4 replicas alone, accuracy_digits spread 3.1% over ten seeds);
/// pooling over 4x as many systems steadies it.
constexpr std::size_t kGateExtra = 12;

/// Sub-seeds `first` .. `first + n - 1` of `seed`: the replicas take the
/// first kReplicas, the extra gate systems the next kGateExtra.
std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, std::size_t first,
                                     std::size_t n) {
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < first; ++i) rng.next_u64();
  std::vector<std::uint64_t> seeds(n);
  for (std::uint64_t& s : seeds) s = rng.next_u64();
  return seeds;
}

/// The classical a-priori bound theta^(n+1) / (1 - theta) the library's
/// parameters promise; the correctness gates are derived from it.
double nominal_error(const TreecodeParams& p) {
  return std::pow(p.theta, p.degree + 1) / (1.0 - p.theta);
}

/// A seeded random walk of kFrames frames starting at `base`: every
/// particle moves by up to `step` per axis per frame. Generated up front
/// and never integrated with computed forces, so a rounding change in the
/// library cannot change the work a later op does.
std::vector<Cloud> trajectory(const Cloud& base, double step,
                              std::uint64_t seed) {
  std::vector<Cloud> frames{base};
  SplitMix64 rng(seed ^ 0x7261'6a65'6374'6f72ULL);
  for (std::size_t f = 1; f < kFrames; ++f) {
    Cloud next = frames.back();
    for (std::size_t i = 0; i < next.size(); ++i) {
      next.x[i] += rng.uniform(-step, step);
      next.y[i] += rng.uniform(-step, step);
      next.z[i] += rng.uniform(-step, step);
    }
    frames.push_back(std::move(next));
  }
  return frames;
}

/// Frame of op `k`: 0, 1, ..., F-1, F-2, ..., 1, 0, 1, ... so consecutive
/// ops always move by one walk step.
std::size_t frame_of(std::size_t k) {
  const std::size_t period = 2 * kFrames - 2;
  const std::size_t m = k % period;
  return m < kFrames ? m : period - m;
}

Cloud subset(const Cloud& c, std::span<const std::size_t> idx) {
  Cloud out;
  for (const std::size_t i : idx) {
    out.x.push_back(c.x[i]);
    out.y.push_back(c.y[i]);
    out.z.push_back(c.z[i]);
    out.q.push_back(c.q[i]);
  }
  return out;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// Relative 2-norm error of sampled outputs against an oracle, pooled over
/// every value added: sqrt(sum (got-ref)^2 / sum ref^2), the paper's Eq. 16.
struct ErrorAccumulator {
  double diff2 = 0.0;
  double ref2 = 0.0;
  void add(double ref, double got) {
    diff2 += (got - ref) * (got - ref);
    ref2 += ref * ref;
  }
  double norm2() const { return ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0; }
};

/// Add the sampled field vectors E: `ref` holds one entry per sample,
/// `got` one per particle.
void add_field_error(ErrorAccumulator& acc, const FieldResult& ref,
                     const FieldResult& got,
                     std::span<const std::size_t> sample) {
  for (std::size_t s = 0; s < sample.size(); ++s) {
    acc.add(ref.ex[s], got.ex[sample[s]]);
    acc.add(ref.ey[s], got.ey[sample[s]]);
    acc.add(ref.ez[s], got.ez[sample[s]]);
  }
}

void add_potential_error(ErrorAccumulator& acc, const std::vector<double>& ref,
                         const std::vector<double>& got,
                         std::span<const std::size_t> sample) {
  for (std::size_t s = 0; s < sample.size(); ++s) acc.add(ref[s], got[sample[s]]);
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_between(t0, Clock::now());
}

/// Median wall time of `reps` calls of `fn`, ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) t.push_back(time_ms(fn));
  return median(t);
}

/// core.plan probe: time the plan layer's public build calls on `cloud`.
void probe_plan(const Cloud& cloud, const TreecodeParams& p, bool self,
                Report& rep) {
  SourcePlanState source;
  rep.layers["plan.tree_ms"] =
      median_ms(3, [&] { source = SourcePlanState::build(cloud, p); });
  rep.layers["plan.lists_ms"] = median_ms(3, [&] {
    TargetPlanState targets = TargetPlanState::plan(cloud, p);
    targets.append_lists(source.tree, p, self);
  });
  rep.layers["plan.moments_ms"] = median_ms(3, [&] {
    ClusterMoments::compute(source.tree, source.particles, p.degree,
                            p.moment_algorithm);
  });
}

/// core.kernels from the RunStats of measured ops.
void kernel_layers(const std::vector<RunStats>& stats, Report& rep) {
  std::vector<double> compute, direct, pc, cp, cc, total;
  for (const RunStats& s : stats) {
    compute.push_back(s.compute_seconds);
    direct.push_back(s.direct_evals);
    pc.push_back(s.approx_evals);
    cp.push_back(s.cp_evals);
    cc.push_back(s.cc_evals);
    total.push_back(s.total_evals());
  }
  rep.layers["kernels.compute_ms"] = median(compute) * 1e3;
  rep.layers["kernels.evals.direct"] = median(direct);
  rep.layers["kernels.evals.pc"] = median(pc);
  rep.layers["kernels.evals.cp"] = median(cp);
  rep.layers["kernels.evals.cc"] = median(cc);
  const double evals = median(total);
  rep.layers["kernels.ns_per_eval"] =
      evals > 0.0 ? median(compute) * 1e9 / evals : 0.0;
}

/// kernels.speedup_vs_1thread: compute seconds of `eval` at one OpenMP
/// thread over those at pair_threads(), median of three alternating repeats
/// each after one discarded call at pair_threads() (the first call at a new
/// thread count sizes the per-thread scratch). `eval` must re-execute an
/// unchanged plan (compute only) and return RunStats.
template <typename Eval>
void probe_speedup(Report& rep, Eval&& eval) {
  const int threads = omp_get_max_threads();
  omp_set_num_threads(pair_threads());
  eval();
  std::vector<double> one, many;
  for (int r = 0; r < 3; ++r) {
    omp_set_num_threads(1);
    one.push_back(eval().compute_seconds);
    omp_set_num_threads(pair_threads());
    many.push_back(eval().compute_seconds);
  }
  omp_set_num_threads(threads);
  rep.config["probe_threads"] = std::to_string(pair_threads());
  rep.layers["kernels.speedup_vs_1thread"] = median(one) / median(many);
}

/// core.kernels for ops that return no eval counts (the distributed step,
/// a served request): a serial Solver over `cloud` with the same kernel and
/// parameters.
void probe_kernels_serial(const Cloud& cloud, const KernelSpec& kernel,
                          const TreecodeParams& p, Report& rep) {
  Solver serial({kernel, p, Backend::kCpu, {}});
  serial.set_sources(cloud);
  const auto eval = [&] {
    RunStats st;
    serial.evaluate(cloud, &st);
    return st;
  };
  eval();  // plans the targets
  kernel_layers({eval(), eval(), eval()}, rep);
  probe_speedup(rep, eval);
}

/// Closed loop with one caller over the replicas. `setup(r, keep)` runs one
/// fresh set-up of replica r and returns its seconds; with keep, the ops use
/// the handle it built. Round 0 (keep, discarded) builds those handles; then
/// each of segments(a) segments runs a round of set-ups, one discarded
/// warm-up round of ops and ops for its share of `a.seconds` (kSmokeOps in
/// smoke mode). The traced run traces every odd round, so traced and
/// untraced ops interleave under the same conditions and over the same
/// replicas. `op(k, measured)` runs op k on replica k % kReplicas and
/// returns false for a failed op. Throughput counts the segments' time only.
template <typename Setup, typename Op>
void closed_loop(const Args& a, Trace& trace, Report& rep, Setup&& setup,
                 Op&& op) {
  for (std::size_t r = 0; r < kReplicas; ++r) setup(r, true);
  std::size_t k = kReplicas;
  double timed_s = 0.0;
  for (std::size_t seg = 0; seg < segments(a); ++seg) {
    for (std::size_t r = 0; r < kReplicas; ++r) {
      rep.setup_s.push_back(setup(r, false));
    }
    for (const std::size_t end = k + kReplicas; k < end; ++k) op(k, false);
    const double until_s =
        a.seconds * static_cast<double>(seg + 1) / static_cast<double>(segments(a));
    const auto start = Clock::now();
    for (bool done = false; !done; ++k) {
      const bool traced = a.trace && (k / kReplicas) % 2 == 1;
      trace.set_enabled(traced);
      bool ok = false;
      const auto t0 = Clock::now();
      try {
        ok = op(k, true);
      } catch (const std::exception&) {
        rep.extra["last_error_op"] = static_cast<double>(k);
      }
      const double ms = ms_between(t0, Clock::now());
      trace.set_enabled(false);
      ++rep.attempted;
      if (!ok) ++rep.failed;
      (traced ? rep.traced_ms : rep.latency_ms).push_back(ms);
      const double elapsed_s = timed_s + ms_between(start, Clock::now()) / 1e3;
      done = a.smoke ? rep.attempted >= kSmokeOps : elapsed_s >= until_s;
      if (done) timed_s = elapsed_s;
    }
  }
  rep.throughput_per_s =
      static_cast<double>(rep.attempted - rep.failed) / timed_s;
}

}  // namespace

// ---- md_open / md_pme --------------------------------------------------

Report run_md(const Args& a, Trace& trace, bool pme) {
  Report rep;
  // A team of two runs the library's parallel paths (the dual traversal's
  // per-thread reduction, the slab-owned mesh spread) inside the bounded
  // metrics. Alternating one- and two-thread runs over eight seeds, two
  // threads were the steadier: p50 IQR 5.4% against 11.6% (md_open) and
  // 20% against 29% (md_pme).
  omp_set_num_threads(pair_threads());
  TreecodeParams p;
  p.theta = 0.7;
  p.position_slack = 0.1;
  std::size_t particles = 0;
  double step = 0.0;
  if (pme) {
    // Batched erfc near field + FFT mesh far field on a non-neutral melt.
    p.boundary = BoundaryConditions::kPeriodicMesh;
    p.domain = Box3::cube(0.0, 1.0);
    p.degree = 6;
    p.max_leaf = p.max_batch = 200;
    particles = 3000;
    step = 2e-4;
  } else {
    // Dual traversal in symmetric self mode (max_leaf == max_batch and
    // targets == sources) on a centrally concentrated cloud.
    p.traversal = TraversalMode::kDual;
    p.degree = 4;
    p.max_leaf = p.max_batch = 64;
    particles = 6000;
    step = 2e-3;
  }
  const KernelSpec kernel = KernelSpec::coulomb();
  const SolverConfig config{kernel, p, Backend::kCpu, {}};
  rep.config["threads"] = std::to_string(omp_get_max_threads());
  rep.config["replicas"] = std::to_string(kReplicas);
  rep.config["particles"] = std::to_string(particles);
  rep.config["theta"] = Json::number(p.theta);
  rep.config["degree"] = std::to_string(p.degree);
  rep.config["max_leaf"] = std::to_string(p.max_leaf);
  rep.config["position_slack"] = Json::number(p.position_slack);
  rep.config["walk_step"] = Json::number(step);

  struct Replica {
    std::vector<Cloud> frames;
    std::unique_ptr<Solver> solver;
    FieldResult last;
    std::size_t last_frame = 0;
  };
  std::vector<Replica> replicas(kReplicas);
  const auto seeds = sub_seeds(a.seed, 0, kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    const Cloud base = pme ? ionic_melt(particles, seeds[r])
                           : plummer_sphere(particles, seeds[r]);
    replicas[r].frames = trajectory(base, step, seeds[r]);
  }
  // Set-up: handle + source plan + target plan (the cold first op minus its
  // kernel time). A handle that is not kept is dropped after the timing.
  const auto setup = [&](std::size_t r, bool keep) {
    Replica& rp = replicas[r];
    std::unique_ptr<Solver> solver;
    FieldResult out;
    RunStats st;
    const double ms = time_ms([&] {
      solver = std::make_unique<Solver>(config);
      solver->set_sources(rp.frames[0]);
      out = solver->evaluate_field(rp.frames[0], &st);
    });
    if (keep) {
      rp.solver = std::move(solver);
      rp.last = std::move(out);
    }
    return ms / 1e3 - st.compute_seconds;
  };

  std::vector<RunStats> stats;
  closed_loop(a, trace, rep, setup, [&](std::size_t k, bool measured) {
    Replica& rp = replicas[k % kReplicas];
    const std::size_t f = frame_of(k / kReplicas);
    auto step_span = trace.span("md.step", k);
    RunStats st;
    {
      auto s = trace.span("plan.update_positions", k);
      rp.solver->update_positions(rp.frames[f]);
    }
    {
      auto s = trace.span("kernels.evaluate_field", k);
      rp.last = rp.solver->evaluate_field(rp.frames[f], &st);
    }
    rp.last_frame = f;
    if (measured) stats.push_back(st);
    return all_finite(rp.last.phi) && all_finite(rp.last.ex);
  });

  // Correctness gate on every replica's last output, errors pooled. md_open
  // adds kGateExtra fresh systems; md_pme does not: its converged Ewald
  // oracle takes about 1.8 s per system, and its accuracy_digits repeated
  // within 1.3% over ten seeds from the replicas alone.
  const auto gate_start = Clock::now();
  ErrorAccumulator field, potential;
  const auto gate = [&](const Cloud& frame, const FieldResult& out) {
    const auto sample = sample_indices(frame.size(), pme ? 150 : 2000);
    const Cloud probes = subset(frame, sample);
    const FieldResult ref = pme ? direct_field_ewald(probes, frame, p.domain)
                                : direct_field(probes, frame, kernel);
    add_field_error(field, ref, out, sample);
    add_potential_error(potential, ref.phi, out.phi, sample);
  };
  for (const Replica& rp : replicas) gate(rp.frames[rp.last_frame], rp.last);
  if (!pme) {
    for (const std::uint64_t seed : sub_seeds(a.seed, kReplicas, kGateExtra)) {
      const Cloud cloud = plummer_sphere(particles, seed);
      Solver solver(config);
      solver.set_sources(cloud);
      gate(cloud, solver.evaluate_field(cloud));
    }
  }
  rep.extra["gate_s"] = ms_between(gate_start, Clock::now()) / 1e3;
  // The mesh tuner budgets the Ewald split at 0.05x the nominal target.
  // rel_error is the potential error, the paper's accuracy measure; the
  // field the step returns is gated too.
  rep.tolerance = nominal_error(p) * (pme ? 1.05 : 1.0);
  rep.rel_error = potential.norm2();
  const std::string oracle = pme ? "Ewald" : "direct sum";
  rep.check(rep.rel_error <= rep.tolerance,
            "potential vs " + oracle + " rel error " +
                Json::number(rep.rel_error) + " <= " +
                Json::number(rep.tolerance));
  rep.check(field.norm2() <= rep.tolerance,
            "field vs " + oracle + " rel error " + Json::number(field.norm2()) +
                " <= " + Json::number(rep.tolerance));
  rep.extra["field_rel_error"] = field.norm2();


  std::size_t incremental = 0;
  for (const RunStats& s : stats) incremental += s.incremental_update ? 1 : 0;
  rep.extra["incremental_steps"] = static_cast<double>(incremental);
  if (!a.trace) return rep;

  // ---- Per-layer probes (traced run only), on replica 0.
  rep.layers["plan.update_ms"] = median(trace.durations("plan.update_positions"));
  rep.layers["plan.incremental_ratio"] =
      static_cast<double>(incremental) / static_cast<double>(stats.size());
  kernel_layers(stats, rep);
  Replica& rp = replicas[0];
  const Cloud& frame = rp.frames[rp.last_frame];
  probe_plan(frame, p, /*self=*/!pme, rep);
  probe_speedup(rep, [&] {
    RunStats st;
    rp.solver->evaluate_field(frame, &st);
    return st;
  });
  if (pme) {
    std::vector<double> spread, fft;
    for (const RunStats& s : stats) {
      spread.push_back(s.mesh_spread_seconds);
      fft.push_back(s.fft_seconds);
    }
    rep.layers["mesh.spread_ms"] = median(spread) * 1e3;
    rep.layers["mesh.fft_ms"] = median(fft) * 1e3;
    rep.layers["mesh.points"] = static_cast<double>(stats.back().mesh_points);
    const SourcePlanState source = SourcePlanState::build(frame, p);
    mesh::MeshPlan plan(source.particles, p);
    plan.solve();
    rep.layers["mesh.gather_ms"] = median_ms(3, [&] {
      FieldResult out;
      for (auto* v : {&out.phi, &out.ex, &out.ey, &out.ez}) {
        v->assign(source.size(), 0.0);
      }
      plan.add_field(source.particles, out);
    });
  }
  return rep;
}

// ---- dist_yukawa -------------------------------------------------------

Report run_dist(const Args& a, Trace& trace) {
  Report rep;
  // Each op waits for the slower of two rank threads, so a core the host
  // takes away from either rank lands in the upper tail: p90 spread 31%
  // over ten seeds, p75 16%.
  rep.tail_quantile = 0.75;
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 4;
  p.max_leaf = p.max_batch = 128;
  p.position_slack = 0.1;
  constexpr std::size_t kParticles = 4000;
  constexpr double kStep = 1e-3;
  const KernelSpec kernel = KernelSpec::yukawa(0.5);
  dist::DistConfig config;
  config.kernel = kernel;
  config.params.treecode = p;
  config.params.backend = Backend::kCpu;
  config.nranks = pair_threads();
  rep.config["ranks"] = std::to_string(config.nranks);
  rep.config["threads_per_rank"] = std::to_string(omp_get_max_threads());
  rep.config["replicas"] = std::to_string(kReplicas);
  rep.config["particles"] = std::to_string(kParticles);
  rep.config["theta"] = Json::number(p.theta);
  rep.config["degree"] = std::to_string(p.degree);
  rep.config["max_leaf"] = std::to_string(p.max_leaf);
  rep.config["position_slack"] = Json::number(p.position_slack);
  rep.config["walk_step"] = Json::number(kStep);
  rep.config["kappa"] = "0.5";

  struct Replica {
    std::vector<Cloud> frames;
    std::unique_ptr<dist::DistSolver> solver;
    std::vector<double> last;
    std::size_t last_frame = 0;
  };
  std::vector<Replica> replicas(kReplicas);
  const auto seeds = sub_seeds(a.seed, 0, kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    replicas[r].frames =
        trajectory(uniform_cube(kParticles, seeds[r]), kStep, seeds[r]);
  }
  const auto setup = [&](std::size_t r, bool keep) {
    Replica& rp = replicas[r];
    std::unique_ptr<dist::DistSolver> solver;
    std::vector<double> out;
    dist::DistStats st;
    const double ms = time_ms([&] {
      solver = std::make_unique<dist::DistSolver>(config);
      solver->set_sources(rp.frames[0]);
      out = solver->evaluate(&st);
    });
    if (keep) {
      rp.solver = std::move(solver);
      rp.last = std::move(out);
    }
    return ms / 1e3 - st.compute_seconds;
  };

  std::vector<dist::DistStats> stats;
  closed_loop(a, trace, rep, setup, [&](std::size_t k, bool measured) {
    Replica& rp = replicas[k % kReplicas];
    const std::size_t f = frame_of(k / kReplicas);
    auto step_span = trace.span("dist.step", k);
    dist::DistStats st;
    {
      auto s = trace.span("dist.update_positions", k);
      rp.solver->update_positions(rp.frames[f]);
    }
    {
      auto s = trace.span("dist.evaluate", k);
      rp.last = rp.solver->evaluate(&st);
    }
    rp.last_frame = f;
    if (measured) stats.push_back(std::move(st));
    return all_finite(rp.last);
  });

  // Correctness gate on every replica's last output and kGateExtra fresh
  // systems, errors pooled.
  const auto gate_start = Clock::now();
  ErrorAccumulator potential;
  const auto gate = [&](const Cloud& frame, const std::vector<double>& out) {
    const auto sample = sample_indices(frame.size(), frame.size());
    const auto ref = direct_sum_sampled(frame, sample, frame, kernel);
    add_potential_error(potential, ref, out, sample);
  };
  for (const Replica& rp : replicas) gate(rp.frames[rp.last_frame], rp.last);
  for (const std::uint64_t seed : sub_seeds(a.seed, kReplicas, kGateExtra)) {
    const Cloud cloud = uniform_cube(kParticles, seed);
    dist::DistSolver solver(config);
    solver.set_sources(cloud);
    gate(cloud, solver.evaluate());
  }
  rep.extra["gate_s"] = ms_between(gate_start, Clock::now()) / 1e3;
  rep.tolerance = nominal_error(p);
  rep.rel_error = potential.norm2();
  rep.check(rep.rel_error <= rep.tolerance,
            "potential vs direct sum rel error " +
                Json::number(rep.rel_error) + " <= " +
                Json::number(rep.tolerance));

  std::size_t incremental = 0;
  std::vector<double> gets, bytes, remote, imbalance;
  for (const dist::DistStats& st : stats) {
    double g = 0, b = 0, r = 0, builds = 0, sum = 0, worst = 0;
    for (const dist::RankStats& rs : st.per_rank) {
      g += static_cast<double>(rs.rma_gets);
      b += static_cast<double>(rs.rma_bytes);
      r += static_cast<double>(rs.let_remote_particles);
      builds += static_cast<double>(rs.tree_builds);
      sum += rs.compute_seconds;
      worst = std::max(worst, rs.compute_seconds);
    }
    incremental += builds == 0 ? 1 : 0;
    gets.push_back(g);
    bytes.push_back(b);
    remote.push_back(r);
    imbalance.push_back(
        sum > 0 ? worst * static_cast<double>(st.per_rank.size()) / sum : 1.0);
  }
  rep.extra["incremental_steps"] = static_cast<double>(incremental);
  if (!a.trace) return rep;

  rep.layers["plan.incremental_ratio"] =
      static_cast<double>(incremental) / static_cast<double>(stats.size());
  rep.layers["dist.update_ms"] = median(trace.durations("dist.update_positions"));
  rep.layers["dist.rma_gets"] = median(gets);
  rep.layers["dist.rma_bytes"] = median(bytes);
  rep.layers["dist.let_remote_particles"] = median(remote);
  rep.layers["dist.rank_imbalance"] = median(imbalance);
  const Cloud& frame = replicas[0].frames[replicas[0].last_frame];
  rep.layers["partition.rcb_ms"] = median_ms(3, [&] {
    rcb_partition(frame.x, frame.y, frame.z,
                  static_cast<std::size_t>(pair_threads()),
                  minimal_bounding_box_range(frame.x, frame.y, frame.z, 0,
                                             frame.size()));
  });
  probe_plan(frame, p, false, rep);
  probe_kernels_serial(frame, kernel, p, rep);
  return rep;
}

// ---- serve_open --------------------------------------------------------

namespace {

/// The frontend and the cache it serves from, destroyed frontend first.
struct Server {
  explicit Server(serve::ServeOptions options) : frontend(cache, options) {}
  serve::PlanCache cache;
  serve::ServeFrontend frontend;
};

}  // namespace

Report run_serve(const Args& a, Trace& trace) {
  Report rep;
  // p90 lands among requests that queued behind another, a share that
  // moves with each seed's arrival pattern; p75 repeats.
  rep.tail_quantile = 0.75;
  constexpr std::size_t kWarmupOps = 3;
  constexpr double kRatePerS = 20.0;
  constexpr double kDeadlineMs = 250.0;
  constexpr std::size_t kChecked = 24;  ///< responses checked against oracles
  const std::size_t scheduled =
      a.smoke ? 8 : static_cast<std::size_t>(kRatePerS * a.seconds);

  // The storm draws every request's class at random. To keep each run's
  // latency quantiles inside the same classes, a run takes exact class
  // counts (40% misses, 60% shared-cloud hits; a quarter of each under the
  // dual traversal) from a storm three times its size, then shuffles them.
  const std::size_t total = kWarmupOps + scheduled;
  StormSpec spec;
  spec.num_requests = std::max<std::size_t>(3 * total, 200);
  spec.num_shared = 3;
  spec.shared_size = 4096;
  spec.small_size = 256;
  spec.shared_fraction = 0.6;
  spec.periodic_fraction = 0.0;
  spec.dual_fraction = 0.25;
  const RequestStorm storm = request_storm(spec, a.seed);
  const auto count = [&](double share) {
    return static_cast<std::size_t>(std::llround(share * static_cast<double>(total)));
  };
  std::size_t wanted[2][2] = {{count(0.30), count(0.10)},   // miss: batched, dual
                              {count(0.45), 0}};            // hit: batched, dual
  wanted[1][1] = total - wanted[0][0] - wanted[0][1] - wanted[1][0];
  std::vector<const StormRequest*> mix;
  for (const StormRequest& r : storm.requests) {
    std::size_t& left = wanted[r.shared][r.traversal == StormTraversal::kDual];
    if (left > 0) {
      --left;
      mix.push_back(&r);
    }
  }
  if (mix.size() != total) throw std::runtime_error("storm too small for the mix");
  SplitMix64 shuffle(a.seed ^ 0x6d69'7865'6421ULL);
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[shuffle.next_u64() % (i + 1)]);
  }
  const serve::StormParams presets = serve::default_storm_params(storm.box);
  std::vector<serve::ServeRequest> requests;
  for (const StormRequest* r : mix) {
    requests.push_back(serve::storm_request(storm, *r, presets));
    requests.back().deadline_ms = kDeadlineMs;
  }
  // Arrival schedule: `scheduled` arrivals spread uniformly at random over
  // the run (a Poisson process conditioned on its count), from the seed.
  std::vector<double> due_ms(scheduled);
  SplitMix64 rng(a.seed ^ 0x6172'7269'7661'6c73ULL);
  for (double& t : due_ms) t = rng.uniform(0.0, a.seconds * 1e3);
  std::sort(due_ms.begin(), due_ms.end());
  rep.config["workers"] = std::to_string(kWorkers);
  rep.config["threads_per_worker"] = std::to_string(omp_get_max_threads());
  rep.config["rate_per_s"] = Json::number(kRatePerS);
  rep.config["deadline_ms"] = Json::number(kDeadlineMs);
  rep.config["requests"] = std::to_string(scheduled);
  rep.config["shared_clouds"] = "3 x 4096";
  rep.config["small_cloud"] = "256";
  rep.config["mix"] = "open boundary; 60% shared clouds, 25% dual traversal";

  serve::ServeOptions options;
  options.workers = kWorkers;
  // Set-up: a fresh frontend plus its hot set (every shared cloud under
  // both presets) built into the cache. The first kReplicas are discarded
  // (segments()); the last of them serves the run.
  std::unique_ptr<Server> server;
  const auto setup = [&] {
    std::unique_ptr<Server> fresh;
    const double ms = time_ms([&] {
      fresh = std::make_unique<Server>(options);
      for (std::size_t c = 0; c < spec.num_shared; ++c) {
        for (const TreecodeParams* p : {&presets.open, &presets.dual}) {
          fresh->cache.get_or_build(storm.clouds[c], *p);
        }
      }
    });
    return std::pair{ms / 1e3, std::move(fresh)};
  };
  for (std::size_t s = 0; s < kReplicas; ++s) server = setup().second;
  for (std::size_t w = 0; w < kWarmupOps; ++w) {
    server->frontend.submit(requests[w]).get();
  }

  struct Outcome {
    double latency_ms = 0.0;
    bool ok = false;
    serve::ServeResponse response;
  };
  std::vector<Outcome> outcomes(scheduled);
  std::vector<double> late_ms, submit_begin_ms, submit_end_ms, trace_origin_ms;
  struct Outstanding {
    std::size_t i;
    std::future<serve::ServeResponse> future;
  };
  std::vector<Outstanding> outstanding;
  // Each segment sets up kReplicas fresh servers, then plays its window of
  // the schedule and drains. The schedule's clock stops in between, so
  // arrivals keep their spacing and every request is timed from its due
  // time.
  const double window_ms = a.seconds * 1e3 / static_cast<double>(segments(a));
  double active_ms = 0.0;
  std::size_t next = 0;
  for (std::size_t seg = 0; seg < segments(a); ++seg) {
    for (std::size_t s = 0; s < kReplicas; ++s) {
      rep.setup_s.push_back(setup().first);
    }
    const double seg_begin_ms = window_ms * static_cast<double>(seg);
    const std::size_t seg_end =
        seg + 1 == segments(a)
            ? scheduled
            : static_cast<std::size_t>(
                  std::lower_bound(due_ms.begin(), due_ms.end(),
                                   seg_begin_ms + window_ms) -
                  due_ms.begin());
    const auto origin =
        Clock::now() - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(seg_begin_ms));
    const double trace_origin = trace.now_ms() - seg_begin_ms;
    double last_resolve_ms = seg_begin_ms;
    while (next < seg_end || !outstanding.empty()) {
      double now = ms_between(origin, Clock::now());
      while (next < seg_end && now >= due_ms[next]) {
        late_ms.push_back(now - due_ms[next]);
        submit_begin_ms.push_back(now);
        trace_origin_ms.push_back(trace_origin);
        outstanding.push_back(
            {next, server->frontend.submit(requests[kWarmupOps + next])});
        now = ms_between(origin, Clock::now());
        submit_end_ms.push_back(now);
        ++next;
      }
      for (std::size_t j = 0; j < outstanding.size();) {
        auto& f = outstanding[j].future;
        if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++j;
          continue;
        }
        const std::size_t i = outstanding[j].i;
        Outcome& o = outcomes[i];
        o.latency_ms = now - due_ms[i];
        try {
          o.response = f.get();
          o.ok = o.latency_ms <= kDeadlineMs;
        } catch (const std::exception&) {
          o.ok = false;
        }
        last_resolve_ms = now;
        outstanding[j] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      const double wake = next < seg_end ? std::min(due_ms[next], now + 0.1)
                                         : now + 0.1;
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(wake)));
    }
    active_ms += last_resolve_ms - seg_begin_ms;
  }

  std::size_t ok = 0;
  for (std::size_t i = 0; i < scheduled; ++i) {
    const Outcome& o = outcomes[i];
    ++rep.attempted;
    if (o.ok) ++ok;
    else ++rep.failed;
    rep.latency_ms.push_back(o.latency_ms);
    if (a.trace) {
      // Spans are recorded here, after the run, from times taken during it,
      // so tracing costs no request anything and serve_open reports no
      // trace.overhead_pct. The request span runs from due time to
      // resolution. Its children are the timed submit call and the
      // queue/execute intervals the response reports about itself.
      const double t0 = trace_origin_ms[i] + due_ms[i];
      const int parent = trace.add("serve.request", t0, t0 + o.latency_ms, -1, i);
      const double begin = trace_origin_ms[i] + submit_begin_ms[i];
      const double end = trace_origin_ms[i] + submit_end_ms[i];
      const double q = o.response.queue_seconds * 1e3;
      const double x = o.response.execute_seconds * 1e3;
      trace.add("serve.submit", begin, end, parent, i);
      trace.add("serve.queue", end, end + q, parent, i);
      trace.add("serve.execute", end + q, end + q + x, parent, i);
    }
  }
  rep.throughput_per_s = static_cast<double>(ok) / (active_ms / 1e3);
  rep.extra["generator_late_ms_p50"] = percentile(late_ms, 0.5);
  rep.extra["generator_late_ms_max"] = percentile(late_ms, 1.0);

  // Correctness: evenly spaced responses against the synchronous path and
  // against a direct sum over each request's own cloud.
  ErrorAccumulator direct, sync;
  double tolerance = 0.0;
  std::size_t checked = 0;
  for (std::size_t c = 0; c < std::min(kChecked, scheduled); ++c) {
    const std::size_t i = c * scheduled / std::min(kChecked, scheduled);
    if (outcomes[i].response.phi.empty()) continue;
    const serve::ServeRequest& req = requests[kWarmupOps + i];
    const std::vector<double>& phi = outcomes[i].response.phi;
    add_potential_error(sync, server->frontend.evaluate_now(req).phi, phi,
                        sample_indices(phi.size(), phi.size()));
    const auto sample = sample_indices(phi.size(), 256);
    add_potential_error(
        direct,
        direct_sum_sampled(*req.sources, sample, *req.sources, req.kernel),
        phi, sample);
    tolerance = std::max(tolerance, nominal_error(req.params));
    ++checked;
  }
  rep.tolerance = tolerance;
  rep.rel_error = direct.norm2();
  rep.check(checked > 0, std::to_string(checked) + " responses checked");
  rep.check(sync.norm2() <= 1e-12, "fused vs evaluate_now rel error " +
                                      Json::number(sync.norm2()) + " <= 1e-12");
  rep.check(rep.rel_error <= tolerance,
            "potential vs direct sum rel error " + Json::number(rep.rel_error) +
                " <= " + Json::number(tolerance));
  if (!a.trace) return rep;

  std::vector<double> queue, execute;
  double hits = 0, group = 0, answered = 0;
  for (const Outcome& o : outcomes) {
    if (o.response.phi.empty()) continue;
    queue.push_back(o.response.queue_seconds * 1e3);
    execute.push_back(o.response.execute_seconds * 1e3);
    hits += o.response.cache_hit ? 1 : 0;
    group += static_cast<double>(o.response.group_size);
    answered += 1;
  }
  const serve::FrontendStats fs = server->frontend.stats();
  rep.layers["serve.queue_ms.p50"] = percentile(queue, 0.5);
  rep.layers["serve.queue_ms.tail"] = percentile(queue, rep.tail_quantile);
  rep.layers["serve.execute_ms.p50"] = percentile(execute, 0.5);
  rep.layers["serve.cache_hit_ratio"] = answered > 0 ? hits / answered : 0.0;
  rep.layers["serve.group_size_mean"] = answered > 0 ? group / answered : 0.0;
  rep.layers["serve.fused_share"] =
      fs.completed > 0 ? static_cast<double>(fs.fused_requests) /
                             static_cast<double>(fs.completed)
                       : 0.0;
  rep.layers["serve.failed"] = static_cast<double>(rep.failed);

  // Plan layer on a unique small cloud (what every miss builds); kernel
  // layer on a shared cloud (what every hit executes).
  const auto miss = std::find_if(mix.begin(), mix.end(),
                                 [](const StormRequest* r) { return !r->shared; });
  probe_plan(storm.clouds[(*miss)->cloud], presets.open, false, rep);
  probe_kernels_serial(storm.clouds[0], presets.open_kernel, presets.open, rep);
  return rep;
}

}  // namespace perfbench
