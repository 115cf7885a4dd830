// Engine interface behind the `Solver` and `dist::DistSolver` handles. A
// plan (source tree, target batches, interaction lists — see core/plan.hpp)
// is built by the solvers on the host; an Engine turns a plan into
// potentials or fields and owns all backend-specific state that should
// persist across `evaluate()` calls — the host engine keeps the modified
// charges, the simulated-GPU engine additionally keeps sources, grids, and
// cluster data device-resident so repeated evaluations transfer nothing but
// fresh targets and results.
//
// The distributed path reuses the same interface: each rank owns one Engine
// whose prepared sources are the rank's local particles, and attaches the
// remote halves of its locally essential tree as extra source pieces
// (`attach_let_pieces`). Evaluation then sums the contribution of every
// piece in piece order, with one interaction list per piece carried by the
// TargetPlan.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/particles.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "core/tree.hpp"

namespace bltc {

class ExecContext;  // per-call mutable scratch (serve/exec_context.hpp)

namespace mesh {
class MeshPlan;  // FFT far field of the Ewald split (src/mesh/mesh.hpp)
}  // namespace mesh

/// Elementwise `acc += contribution` (piece contributions sum into the
/// first piece's result; sizes must match).
void add_into(std::vector<double>& acc,
              const std::vector<double>& contribution);
void add_into(FieldResult& acc, const FieldResult& contribution);

/// One remote piece of a locally essential tree, handed to
/// `Engine::attach_let_pieces`. `plan.moments` is always non-null (the
/// modified charges were fetched over the network and assembled by the
/// caller); `fetched_particles` is how many source particles were actually
/// pulled for direct interactions — the particle arrays are sized to the
/// full remote count with never-referenced zero placeholders elsewhere, so
/// a device engine stages (and accounts) only the fetched subset.
struct LetPiece {
  SourcePlan plan;
  std::size_t fetched_particles = 0;
};

/// Delta description for `Engine::update_sources` — the incremental
/// counterpart of a full prepare_sources after an in-topology position
/// update (see SourcePlanState::update_positions). Spans view caller
/// storage valid for the duration of the call.
struct SourceUpdate {
  /// Ascending node indices whose particle data changed; exactly these
  /// clusters' modified charges must be recomputed (boxes and grids are
  /// unchanged by construction).
  std::span<const std::size_t> dirty_clusters;
  /// Coalesced tree-order slot ranges whose stored particle data changed;
  /// device engines re-stage exactly these ranges.
  std::span<const std::pair<std::size_t, std::size_t>> moved_ranges;
  /// Pre-update values of the changed slots, sorted by slot (empty when the
  /// update re-bucketed particles). When present, host engines patch dirty
  /// clusters' moments in O(moved): subtract each old contribution, add the
  /// new one, and only recompute a cluster outright when the patch volume
  /// approaches its particle count.
  std::span<const MovedSlot> before;
};

/// Backend evaluation engine. One engine instance lives inside one solver
/// handle (one rank, in the distributed case) and sees every lifecycle
/// transition, so it can cache whatever makes repeated evaluation cheap.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual Backend backend() const = 0;

  /// Whether evaluate_field is implemented.
  virtual bool supports_fields() const = 0;

  /// Build (or refresh) source-side state for the engine-owned piece of
  /// `plan`: modified charges, and on device engines the device-resident
  /// copies of sources and cluster data. With `charges_only` the tree
  /// geometry is unchanged since the last call and only the charges were
  /// rewritten — engines keep their grids and recompute the modified
  /// charges alone, in place.
  virtual void prepare_sources(const SourcePlan& plan,
                               const TreecodeParams& params,
                               bool charges_only) = 0;

  /// Incremental counterpart of prepare_sources after an in-topology
  /// position update: the tree, boxes, and grids are unchanged; only the
  /// particle data of `update.moved_ranges` and consequently the modified
  /// charges of `update.dirty_clusters` are stale. Engines recompute the
  /// dirty clusters in place (and on device engines re-stage only the
  /// moved ranges plus dirty charges, accounting the proportional byte
  /// delta). The default implementation falls back to a full
  /// prepare_sources, which is always correct.
  virtual void update_sources(const SourcePlan& plan,
                              const TreecodeParams& params,
                              const SourceUpdate& update);

  /// Incremental target refresh: the cached target plan's structure
  /// (batches, lists, trees, grids) is unchanged but the target
  /// coordinates of `moved_ranges` (tree-order slots) were rewritten in
  /// place. Host engines read target data from the plan and need do
  /// nothing (the default); device engines overwrite the staged ranges so
  /// a following evaluate with fresh_targets == false stays coherent.
  virtual void update_targets(const TargetPlan& plan,
                              std::span<const std::pair<std::size_t,
                                                        std::size_t>>
                                  moved_ranges);

  /// Incremental counterpart of attach_let_pieces after the caller
  /// refreshed the piece storage in place (same piece set, same trees,
  /// same fetched ranges; coordinates, charges, and modified charges were
  /// rewritten). Device engines re-stage the fetched particle data and
  /// charges without re-staging tree geometry. The default implementation
  /// falls back to a full attach_let_pieces.
  virtual void refresh_let_positions(std::span<const LetPiece> pieces,
                                     const TreecodeParams& params);

  /// Distributed LET path: attach the remote source pieces this engine
  /// evaluates in addition to its prepared local sources. The piece storage
  /// (particles, trees, moments) is owned by the caller and must stay alive
  /// and in place until the pieces are replaced. With `charges_only` the
  /// piece set and every tree are unchanged — only the externally stored
  /// charges (modified charges and direct-range particle charges) were
  /// re-fetched, so device engines re-stage charges alone. The default
  /// implementation rejects non-empty piece sets: serial-only backends need
  /// not support LET evaluation.
  virtual void attach_let_pieces(std::span<const LetPiece> pieces,
                                 const TreecodeParams& params,
                                 bool charges_only);

  /// Flat modified-charge array of the engine-owned prepared sources
  /// (layout of ClusterMoments::all_qhat). The distributed path exposes
  /// this through an RMA window so remote ranks can fetch the charges of
  /// MAC-accepted clusters; it must stay at a stable address across
  /// `prepare_sources(..., charges_only=true)` refreshes. Default: empty
  /// (backends that keep no host-readable moments cannot serve a LET).
  virtual std::span<const double> prepared_qhat() const;

  /// Evaluate potentials at the planned targets, in tree order, summing the
  /// prepared sources (targets.lists[0]) and every attached LET piece
  /// (targets.lists[1 + i]) in piece order. `fresh_targets` marks a target
  /// plan the engine has not executed yet (device engines stage target data
  /// exactly then). Engines add their work counts (evals, launches, the
  /// fp32/fp64 split) and device/modeled deltas into `stats`; the solvers
  /// fill phase seconds and structure counts.
  ///
  /// Re-entrancy contract (the serving layer depends on it): evaluation is
  /// `const`, and all mutable per-call scratch lives in `ctx` (null falls
  /// back to call-local scratch). The CPU engine given per-call contexts is
  /// safe to call concurrently from any number of threads as long as every
  /// source piece carries caller-owned moments (`SourcePlan::moments` /
  /// `moment_levels` non-null) — the engine then reads nothing but the plan.
  /// The simulated-GPU engine stages device-resident state and is instead
  /// internally serialized: concurrent calls are safe but run one at a time.
  virtual std::vector<double> evaluate_potential(const SourcePlan& sources,
                                                 const TargetPlan& targets,
                                                 const KernelSpec& kernel,
                                                 bool fresh_targets,
                                                 RunStats& stats,
                                                 ExecContext* ctx =
                                                     nullptr) const = 0;

  /// Evaluate potential + field (E = -grad phi) at the planned targets, in
  /// tree order, over the same pieces as evaluate_potential and under the
  /// same re-entrancy contract. Throws std::invalid_argument when
  /// unsupported.
  virtual FieldResult evaluate_field(const SourcePlan& sources,
                                     const TargetPlan& targets,
                                     const KernelSpec& kernel,
                                     bool fresh_targets, RunStats& stats,
                                     ExecContext* ctx = nullptr) const = 0;

  /// Accumulate the solved mesh far field (kPeriodicMesh) at the planned
  /// targets, in tree order, on top of the treecode near field the calls
  /// above produced: B-spline-interpolated potential into `phi` when
  /// `field` is null, potential + analytic-gradient forces into `field`
  /// otherwise (`phi` is then unused). `plan` must be solved. Const and
  /// re-entrant like evaluation (the serving layer gathers from one shared
  /// solved mesh concurrently). The default implementation gathers on the
  /// host; device engines override to model the device-resident mesh
  /// pipeline. Adds into the mesh_* fields of `stats`.
  virtual void mesh_far_field(const mesh::MeshPlan& plan,
                              const TargetPlan& targets,
                              std::vector<double>& phi, FieldResult* field,
                              RunStats& stats) const;
};

/// Instantiate the engine for `backend`.
std::unique_ptr<Engine> make_engine(Backend backend, const GpuOptions& gpu);

}  // namespace bltc
