// Public single-node BLTC API.
//
// The paper's pipeline (§2-§4) has an explicit three-phase structure —
// setup (trees, batches, interaction lists), precompute (modified charges),
// compute (potential evaluation) — and `Solver` exposes it as a
// plan/execute handle so setup and precompute are paid once and amortized
// over many evaluations:
//
//   Solver solver({KernelSpec::coulomb(), params, Backend::kGpuSim});
//   solver.set_sources(cloud);              // tree + modified charges, once
//   auto phi  = solver.evaluate(targets);   // plans targets on first use
//   auto phi2 = solver.evaluate(targets);   // re-executes the cached plan
//   solver.update_charges(new_q);           // moments only, tree kept
//   solver.update_positions(moved_cloud);   // amortized-O(moved) with
//                                           // position_slack > 0, else full
//
// The handle owns the plan (core/plan.hpp), modified charges included, and
// executes it through the host evaluators (core/cpu_kernels.hpp). Under
// Backend::kGpuSim it also owns a modeled device (gpusim/cost_model.hpp)
// that reports what the paper's GPU port would have cost; the device
// remembers which plan version it holds, so a repeat evaluation models no
// transfer but the results. Field (force) evaluation shares the same plan
// through `evaluate_field`.
//
// The free functions `compute_potential` / `compute_field` are one-shot
// wrappers over a temporary Solver, kept for compatibility; new code should
// hold a Solver.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/particles.hpp"
#include "core/plan.hpp"
#include "core/tree.hpp"
#include "gpusim/device.hpp"
#include "gpusim/perf_model.hpp"
#include "util/workloads.hpp"

namespace bltc {

class CpuWorkspace;  // host evaluation scratch (src/core/cpu_kernels.hpp)

namespace gpusim {
class CostModel;  // modeled device cost (src/gpusim/cost_model.hpp)
}  // namespace gpusim

namespace mesh {
class MeshPlan;  // FFT far field of the Ewald split (src/mesh/mesh.hpp)
}  // namespace mesh

/// What an evaluation reports besides its measured costs. The numerics are
/// the host evaluators' under both values, bit for bit.
enum class Backend {
  kCpu,  ///< measured costs only (the paper's 6-core CPU comparator)
  /// Measured costs plus the modeled device report of the paper's OpenACC
  /// port: launches, device bytes and `RunStats::modeled` seconds
  /// (gpusim/cost_model.hpp). Potentials only; fields are rejected.
  kGpuSim,
};

/// Options for the modeled device (Backend::kGpuSim).
struct GpuOptions {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::titan_v();
  bool async_streams = true;  ///< paper default: 4 async streams
  /// Host CPU model for the phases that stay on the host (tree, batches,
  /// lists, LET assembly), feeding the modeled setup seconds.
  gpusim::HostSpec host = gpusim::HostSpec::comet_haswell();
};

/// Modeled wall-clock on the paper's hardware (Backend::kGpuSim only).
struct ModeledTimes {
  double setup = 0.0;       ///< host tree/list work + PCIe transfers
  double precompute = 0.0;  ///< preprocessing kernels
  double compute = 0.0;     ///< potential kernels
  double total() const { return setup + precompute + compute; }
};

/// Measured and modeled statistics for one evaluation: the one record of
/// its work counts, phase seconds, and device deltas. Producers add into it
/// directly — the CPU kernels their eval/launch counts, the GpuSim cost
/// model its device deltas, the solvers phase seconds and structure counts
/// (the distributed RankStats / DistStats extend it). Costs paid in an earlier
/// lifecycle call (set_sources / update_charges / update_positions) are
/// attributed to the first evaluation that uses them; a repeat evaluation
/// on an unchanged plan reports setup_seconds and precompute_seconds near
/// zero and, under Backend::kGpuSim, zero fresh host-to-device source bytes.
struct RunStats {
  // Measured on this machine, paper phase boundaries (§4).
  double setup_seconds = 0.0;
  double precompute_seconds = 0.0;
  double compute_seconds = 0.0;
  double total_seconds() const {
    return setup_seconds + precompute_seconds + compute_seconds;
  }

  // Structure counts.
  std::size_t num_clusters = 0;
  std::size_t num_leaves = 0;
  /// Number of target batches: the target tree's non-empty leaves.
  std::size_t num_batches = 0;
  std::size_t approx_interactions = 0;  ///< MAC-accepted list-cluster pairs
  std::size_t direct_interactions = 0;  ///< direct list-cluster pairs
  /// True when the dual traversal produced these counts: the cp_/cc_
  /// fields below are populated.
  bool dual_traversal = false;
  std::size_t cp_interactions = 0;  ///< cluster-particle pairs (dual only)
  std::size_t cc_interactions = 0;  ///< cluster-cluster pairs (dual only)

  // Work counts: G(x,y) evaluations. The approximation counts one per
  // target-Chebyshev-point pair, because Eq. 11 has direct-sum form.
  double approx_evals = 0.0;
  double direct_evals = 0.0;
  double cp_evals = 0.0;  ///< dual traversal: source particles x target grid
  double cc_evals = 0.0;  ///< dual traversal: source proxy x target grid
  /// Total G(x,y) evaluations across every interaction class.
  double total_evals() const {
    return approx_evals + direct_evals + cp_evals + cc_evals;
  }
  /// Mixed-precision split (TreecodeParams::precision): evaluations
  /// executed in fp32 vs fp64 tiles (fp32 + fp64 == total_evals()), and
  /// far-field interactions that wanted fp32 under kMixed but failed the
  /// error-ladder bound and stayed fp64.
  double fp32_evals = 0.0;
  double fp64_evals = 0.0;
  std::size_t precision_demotions = 0;
  /// Launch granularity: how many (list, cluster) kernel invocations the
  /// host executed — batch-cluster pairs (target-cluster pairs at
  /// max_batch = 1). Together with the eval counts this tells
  /// benches how much work each launch amortizes.
  std::size_t approx_launches = 0;
  std::size_t direct_launches = 0;
  std::size_t cp_launches = 0;  ///< dual traversal only
  std::size_t cc_launches = 0;  ///< dual traversal only

  // Incremental-dynamics accounting: filled when a preceding
  // update_positions took the amortized-O(moved) path (position_slack > 0,
  // no particle escaped the fat geometry's reach), attributed to the first
  // evaluation after the update like the phase seconds above.
  bool incremental_update = false;  ///< the last update was incremental
  std::size_t moved_particles = 0;  ///< particles whose stored data changed
  std::size_t rebucketed_particles = 0;  ///< moved particles changing leaves
  std::size_t dirty_clusters = 0;  ///< clusters whose moments were rebuilt
  /// Cached interaction-list sets reused verbatim by the update instead of
  /// re-traversing (the source-side set, plus the target-side set when the
  /// cached target plan was preserved). The dual traversal's list build is
  /// its dominant setup cost, so this counter is what makes the
  /// amortization visible in BENCH_dynamics.json.
  std::size_t lists_reused = 0;

  // Mesh far field (BoundaryConditions::kPeriodicMesh only): grid-side
  // particle work (charge spreading + potential/force gather), the k-space
  // solve (forward FFT, Green multiply, inverse FFT), and the grid size.
  // Attributed like the phase seconds: spread/FFT costs paid in lifecycle
  // calls land on the first evaluation that uses them.
  double mesh_spread_seconds = 0.0;
  double fft_seconds = 0.0;
  std::size_t mesh_points = 0;

  // Modeled device accounting (Backend::kGpuSim only); deltas for this
  // evaluation.
  std::size_t gpu_launches = 0;
  std::size_t bytes_to_device = 0;
  std::size_t bytes_to_host = 0;
  ModeledTimes modeled;
};

/// Potential and field at every target: E = -grad phi (per unit target
/// charge; multiply by q_i for the force on particle i).
struct FieldResult {
  std::vector<double> phi;
  std::vector<double> ex, ey, ez;
};

/// Everything needed to construct a Solver. The kernel is part of the
/// configuration because the modified charges are kernel-independent but
/// the modeled device cost is not.
struct SolverConfig {
  KernelSpec kernel;
  TreecodeParams params;
  Backend backend = Backend::kCpu;
  GpuOptions gpu;
};

/// Plan/execute treecode handle (see file comment for the lifecycle).
/// Not thread-safe: one Solver serves one stream of evaluations, mirroring
/// one-rank-per-device in the paper.
class Solver {
 public:
  /// Validates `config` (throws std::invalid_argument); under
  /// Backend::kGpuSim creates the modeled device.
  explicit Solver(SolverConfig config);
  ~Solver();
  Solver(Solver&&) noexcept;
  Solver& operator=(Solver&&) noexcept;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const SolverConfig& config() const { return config_; }
  bool has_sources() const { return have_sources_; }
  std::size_t num_sources() const { return source_.size(); }

  /// Build the source-side plan: cluster tree over `sources` plus its
  /// modified charges.
  /// Invalidates any cached target plan: interaction lists depend on the
  /// source tree, so the next evaluate() re-plans its targets in full.
  void set_sources(const Cloud& sources);

  /// Incremental path: charges changed, positions did not. Keeps the tree
  /// and every list; recomputes only the modified charges (the paper's
  /// precompute phase). `charges` is in caller order, one per source.
  void update_charges(std::span<const double> charges);

  /// Incremental path: positions changed. With `position_slack > 0` and
  /// every particle still reachable within the slack-fattened geometry,
  /// this is amortized O(moved): the tree topology, interaction lists, and
  /// interpolation grids are kept, only escaped particles re-bucket, and
  /// only dirty clusters' moments rebuild (the modeled device re-stages
  /// only the moved ranges and dirty charges). A cached self-target plan (the
  /// MD case: targets == sources) is preserved and updated in place. With
  /// `position_slack == 0` (default), or whenever the incremental update
  /// is infeasible, this falls back to a full re-plan bit-identical to
  /// set_sources. RunStats of the next evaluation report which path ran.
  void update_positions(const Cloud& sources);

  /// Compute potentials at `targets` (Eq. 1), in the caller's target order.
  /// The target plan (batches + interaction lists) is built on first use
  /// and cached; calling again with identical target coordinates re-executes
  /// the cached plan with zero setup work. Targets may alias the sources.
  std::vector<double> evaluate(const Cloud& targets,
                               RunStats* stats = nullptr);

  /// Compute potentials and fields E = -grad phi at `targets`, sharing the
  /// same cached plan as `evaluate` (both MAC modes). Backend::kCpu only:
  /// the device model has no field launches.
  FieldResult evaluate_field(const Cloud& targets, RunStats* stats = nullptr);

 private:
  void plan_sources(const Cloud& sources);
  void plan_targets(const Cloud& targets);
  /// Shared front half of evaluate/evaluate_field: empty handling, target
  /// planning, the lazy mesh solve, and copying `pending_` into `stats`.
  /// Returns false when the result is trivially zero (stats already
  /// written).
  bool begin_evaluation(const Cloud& targets, RunStats& stats);
  /// Shared back half, after the evaluation succeeded: clear `pending_`
  /// (the evaluation took its costs over) and fill the structure counts.
  void finish_evaluation(RunStats& stats);

  SolverConfig config_;
  /// The modeled device (Backend::kGpuSim only, null otherwise).
  std::unique_ptr<gpusim::CostModel> gpu_;
  /// Per-handle execution scratch: the mutable evaluation state (per-thread
  /// expansion caches, dual grid accumulators) lives here and persists
  /// across evaluate() calls.
  std::unique_ptr<CpuWorkspace> workspace_;

  // Source plan (core/plan.hpp owns the construction pipeline).
  bool have_sources_ = false;
  SourcePlanState source_;
  /// Mesh far field (kPeriodicMesh only, null otherwise): lives beside the
  /// source plan — it spreads the *source* charges onto the grid — and
  /// follows the same lifecycle (built in plan_sources, charges re-spread
  /// by update_charges, moved ranges re-spread by update_positions, solved
  /// lazily at the first evaluation after any mutation).
  std::unique_ptr<mesh::MeshPlan> mesh_;

  // Target plan cache. The plan-match key is the stored tree-ordered
  // targets themselves (TargetPlanState::matches).
  bool targets_valid_ = false;
  TargetPlanState targets_;
  /// Whether the cached target plan was planned over the source
  /// coordinates themselves (the MD self-target case) — the only case an
  /// incremental update_positions can carry the target plan along.
  bool targets_follow_sources_ = false;

  /// Costs paid in lifecycle calls (phase and mesh seconds, incremental-
  /// update accounting); the next evaluation takes them over.
  RunStats pending_;
};

/// One-shot convenience wrapper (deprecated for hot paths): builds a
/// temporary Solver, plans, evaluates, discards. Dynamics drivers calling
/// this per step rebuild the tree and re-upload device data every call —
/// hold a Solver instead.
std::vector<double> compute_potential(const Cloud& targets,
                                      const Cloud& sources,
                                      const KernelSpec& kernel,
                                      const TreecodeParams& params,
                                      Backend backend = Backend::kCpu,
                                      RunStats* stats = nullptr,
                                      const GpuOptions* gpu = nullptr);

/// Convenience overload for the common targets == sources case.
inline std::vector<double> compute_potential(const Cloud& particles,
                                             const KernelSpec& kernel,
                                             const TreecodeParams& params,
                                             Backend backend = Backend::kCpu,
                                             RunStats* stats = nullptr,
                                             const GpuOptions* gpu = nullptr) {
  return compute_potential(particles, particles, kernel, params, backend,
                           stats, gpu);
}

}  // namespace bltc
