#include "core/solver.hpp"

#include <stdexcept>
#include <utility>

#include "core/cpu_kernels.hpp"
#include "core/periodic.hpp"
#include "core/plan.hpp"
#include "gpusim/cost_model.hpp"
#include "mesh/mesh.hpp"
#include "serve/exec_context.hpp"
#include "util/failpoints.hpp"
#include "util/timer.hpp"
#include "util/validate.hpp"

namespace bltc {

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  config_.params.validate();
  require_boundary_kernel(config_.params, config_.kernel);
  if (config_.backend == Backend::kGpuSim) {
    gpu_ = std::make_unique<gpusim::CostModel>(config_.gpu);
  }
  exec_ = std::make_unique<ExecContext>();
}

Solver::~Solver() = default;
Solver::Solver(Solver&&) noexcept = default;
Solver& Solver::operator=(Solver&&) noexcept = default;

void Solver::plan_sources(const Cloud& sources) {
  WallTimer timer;
  source_ = SourcePlanState::build(sources, config_.params);
  if (config_.params.mesh()) {
    // Spread the (wrapped, tree-ordered) charges onto the far-field grid;
    // the k-space solve itself is deferred to the first evaluation.
    WallTimer mesh_timer;
    mesh_ = std::make_unique<mesh::MeshPlan>(source_.particles,
                                             config_.params);
    pending_.mesh_spread_seconds += mesh_timer.seconds();
  } else {
    mesh_.reset();
  }
  pending_.setup_seconds += timer.seconds();

  timer.reset();
  source_.build_moments(traversal_ladder_levels(config_.params));
  pending_.precompute_seconds += timer.seconds();
}

void Solver::set_sources(const Cloud& sources) {
  // A NaN coordinate corrupts the tree bounds silently; reject at the
  // boundary with the offending index instead.
  require_finite(sources, "Solver::set_sources");
  have_sources_ = true;
  // Interaction lists reference the source tree; any cached target plan
  // must be re-listed against the new tree.
  targets_valid_ = false;
  targets_follow_sources_ = false;
  // A full re-plan supersedes whatever incremental bookkeeping was pending;
  // the seconds already paid still land on the next evaluation.
  pending_.incremental_update = false;
  pending_.moved_particles = pending_.rebucketed_particles = 0;
  pending_.dirty_clusters = pending_.lists_reused = 0;
  if (sources.size() == 0) {
    source_ = SourcePlanState{};
    mesh_.reset();
    return;
  }
  plan_sources(sources);
}

void Solver::update_charges(std::span<const double> charges) {
  if (!have_sources_) {
    throw std::logic_error("Solver::update_charges: no sources set");
  }
  if (charges.size() != source_.size()) {
    throw std::invalid_argument(
        "Solver::update_charges: charge count does not match the sources");
  }
  require_finite(charges, "Solver::update_charges", "charge");
  if (source_.size() == 0) return;
  // Charges arrive in caller order; the plan stores tree order.
  WallTimer timer;
  source_.update_charges(charges);
  if (mesh_ != nullptr) {
    WallTimer mesh_timer;
    mesh_->update_charges(source_.particles);
    pending_.mesh_spread_seconds += mesh_timer.seconds();
  }
  pending_.precompute_seconds += timer.seconds();
}

void Solver::update_positions(const Cloud& sources) {
  // Incremental path: same particle count, slack-fattened boxes, and an
  // existing plan to patch. Anything else — including position_slack == 0,
  // which is the exact-parity contract — is a full re-plan.
  const bool eligible = have_sources_ && source_.size() > 0 &&
                        sources.size() == source_.size() &&
                        config_.params.position_slack > 0.0;
  if (!eligible) {
    set_sources(sources);
    return;
  }
  require_finite(sources, "Solver::update_positions");
  WallTimer timer;
  bool patched = false;
  try {
    patched = source_.update_positions(sources);
  } catch (const TransientError&) {
    // Failpoint fired before any mutation; the plan is intact but the new
    // positions were not applied — fall through to the full rebuild.
    patched = false;
  }
  if (!patched) {
    // A rejected attempt is setup work too: it lands on the next evaluation
    // ahead of the full re-plan's own cost.
    pending_.setup_seconds += timer.seconds();
    set_sources(sources);
    return;
  }
  const PlanChange& update = source_.change;
  if (mesh_ != nullptr) {
    // O(moved) grid patch: only the moved tree-order ranges re-spread (the
    // k-space re-solve happens lazily at the next evaluation).
    WallTimer mesh_timer;
    mesh_->update_positions(source_.particles, update.moved_ranges);
    pending_.mesh_spread_seconds += mesh_timer.seconds();
  }
  // The in-place particle and moment patch is the update's precompute.
  pending_.precompute_seconds += timer.seconds();

  pending_.incremental_update = true;
  pending_.moved_particles += update.moved;
  pending_.rebucketed_particles += update.rebucketed;
  pending_.dirty_clusters += update.dirty_clusters.size();
  // The source-side interaction-list set survives verbatim: fat-box geometry
  // is unchanged, so every MAC admission still holds and node ranges are
  // read live from the (re-bucketed) tree.
  ++pending_.lists_reused;

  if (!targets_valid_) return;
  if (!targets_follow_sources_) {
    // Fixed targets: they did not move, and their cached lists reference
    // source nodes whose fat geometry is unchanged — the plan stays valid.
    ++pending_.lists_reused;
    return;
  }
  // Self-targets (targets == sources): carry the cached target plan along by
  // rewriting its coordinates in place; a re-bucketed source kills the dual
  // self mode (it requires bitwise tree identity), in which case the next
  // evaluate re-plans the targets.
  timer.reset();
  const bool kept =
      targets_.update_positions_self(sources, update.rebucketed > 0);
  pending_.setup_seconds += timer.seconds();
  if (!kept) {
    targets_valid_ = false;
    return;
  }
  ++pending_.lists_reused;
}

void Solver::plan_targets(const Cloud& targets) {
  require_finite(targets, "Solver::plan_targets");
  targets_ = TargetPlanState::plan(targets, config_.params);
  // Dual traversal: when the targets are exactly the sources and both trees
  // are built with the same leaf size, the trees are identical (the build
  // is deterministic) and the traversal can walk unordered pairs, executing
  // direct interactions symmetrically (one G evaluation per point pair).
  // Periodic boundaries disable the self mode: a lattice-shifted image
  // breaks the target/source exchange symmetry the mutual walk exploits, so
  // every image (including the home cell) uses the asymmetric traversal.
  const bool follows = source_.matches(targets);
  const bool self = config_.params.traversal == TraversalMode::kDual &&
                    !config_.params.periodic() &&
                    config_.params.max_leaf == config_.params.max_batch &&
                    follows;
  targets_.append_lists(source_.tree, config_.params, self);
  targets_valid_ = true;
  // Remember whether this plan targets the sources themselves: an
  // incremental update_positions then moves the cached target plan in
  // lock-step instead of invalidating it.
  targets_follow_sources_ = follows;
}

bool Solver::begin_evaluation(const Cloud& targets, RunStats& stats) {
  if (!have_sources_) {
    throw std::logic_error("Solver::evaluate: call set_sources first");
  }
  if (source_.size() == 0 || targets.size() == 0) {
    stats = RunStats{};
    return false;
  }
  WallTimer timer;
  if (!(targets_valid_ && targets_.matches(targets))) plan_targets(targets);
  pending_.setup_seconds += timer.seconds();
  if (mesh_ != nullptr && !mesh_->solved()) {
    timer.reset();
    mesh_->solve();
    const double solve_seconds = timer.seconds();
    pending_.fft_seconds += solve_seconds;
    pending_.precompute_seconds += solve_seconds;
  }
  // A copy: the pending costs move over only once the evaluation succeeds
  // (finish_evaluation), so a failed call can be retried.
  stats = pending_;
  if (mesh_ != nullptr) stats.mesh_points = mesh_->grid_points();
  return true;
}

void Solver::finish_evaluation(RunStats& stats) {
  pending_ = RunStats{};
  stats.num_clusters = source_.tree.num_nodes();
  stats.num_leaves = source_.tree.num_leaves();
  targets_.add_counts(stats);
}

std::vector<double> Solver::evaluate(const Cloud& targets, RunStats* stats) {
  RunStats local;
  if (!begin_evaluation(targets, local)) {
    if (stats != nullptr) *stats = local;
    return std::vector<double>(targets.size(), 0.0);
  }
  WallTimer timer;
  // Mesh mode: the treecode evaluates the *screened* near field; the user
  // still configures plain Coulomb (the split is an internal detail).
  const KernelSpec exec_kernel = config_.params.mesh()
                                     ? mesh::mesh_near_kernel(config_.params)
                                     : config_.kernel;
  const SourcePlan source = source_.view();
  const TargetPlan view = targets_.view();
  if (gpu_ != nullptr) gpu_->stage({&source, 1}, view);
  std::vector<double> phi_tree_order = evaluate_plan(
      {&source, 1}, view, exec_kernel, local, &exec_->cpu_workspace());
  if (gpu_ != nullptr) {
    gpu_->model_potential({&source, 1}, view, exec_kernel, local);
  }
  if (mesh_ != nullptr) {
    mesh_far_field(*mesh_, view, phi_tree_order, nullptr, local);
    if (gpu_ != nullptr) {
      gpu_->model_mesh(*mesh_, view.particles->size(), false, local);
    }
  }
  local.compute_seconds = timer.seconds();
  finish_evaluation(local);
  if (stats != nullptr) *stats = local;
  return targets_.particles.scatter_to_original(phi_tree_order);
}

FieldResult Solver::evaluate_field(const Cloud& targets, RunStats* stats) {
  // Reject before any target planning: the failing case may not consume
  // the pending phase accounting or burn list-build work.
  if (config_.backend == Backend::kGpuSim) {
    throw std::invalid_argument(
        "field evaluation has no GpuSim device model; use Backend::kCpu");
  }
  RunStats local;
  if (!begin_evaluation(targets, local)) {
    if (stats != nullptr) *stats = local;
    FieldResult out;
    out.phi.assign(targets.size(), 0.0);
    out.ex.assign(targets.size(), 0.0);
    out.ey.assign(targets.size(), 0.0);
    out.ez.assign(targets.size(), 0.0);
    return out;
  }
  WallTimer timer;
  const KernelSpec exec_kernel = config_.params.mesh()
                                     ? mesh::mesh_near_kernel(config_.params)
                                     : config_.kernel;
  const SourcePlan source = source_.view();
  const TargetPlan view = targets_.view();
  FieldResult tree_order = evaluate_plan_field(
      {&source, 1}, view, exec_kernel, local, &exec_->cpu_workspace());
  if (mesh_ != nullptr) {
    std::vector<double> unused;
    mesh_far_field(*mesh_, view, unused, &tree_order, local);
  }
  local.compute_seconds = timer.seconds();
  finish_evaluation(local);
  if (stats != nullptr) *stats = local;
  FieldResult out;
  out.phi = targets_.particles.scatter_to_original(tree_order.phi);
  out.ex = targets_.particles.scatter_to_original(tree_order.ex);
  out.ey = targets_.particles.scatter_to_original(tree_order.ey);
  out.ez = targets_.particles.scatter_to_original(tree_order.ez);
  return out;
}

std::vector<double> compute_potential(const Cloud& targets,
                                      const Cloud& sources,
                                      const KernelSpec& kernel,
                                      const TreecodeParams& params,
                                      Backend backend, RunStats* stats,
                                      const GpuOptions* gpu) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = backend;
  if (gpu != nullptr) config.gpu = *gpu;
  Solver solver(std::move(config));
  solver.set_sources(sources);
  return solver.evaluate(targets, stats);
}

}  // namespace bltc
