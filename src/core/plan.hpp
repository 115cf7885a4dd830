// Shared plan-construction layer: the paper's setup phase as a reusable
// subsystem. A "plan" is everything the evaluators need before any kernel
// runs — tree-ordered particles, the source cluster tree, the target tree
// whose leaves are the target batches, and the MAC-driven interaction lists
// — and both public handles build it
// through this file:
//
//   * the serial `Solver` (core/solver.hpp) plans one source piece against
//     one target set;
//   * the distributed `dist::DistSolver` plans one *local* source piece per
//     rank plus one locally-essential remote piece per peer rank, re-listing
//     the same target leaves against every piece's tree.
//
// `SourcePlanState` / `TargetPlanState` own the storage — the source state
// includes the modified charges, so every handle shares one moment build,
// one charge refresh and one incremental position patch. The `SourcePlan` /
// `TargetPlan` structs are non-owning views handed to the evaluators
// (core/cpu_kernels.hpp) for the duration of a call. Nothing keeps any of a
// plan between calls but the version the modeled GpuSim device last
// uploaded (`PlanChange`, gpusim/cost_model.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/moments.hpp"
#include "core/particles.hpp"
#include "core/periodic.hpp"
#include "core/precision.hpp"
#include "core/tree.hpp"
#include "util/box.hpp"
#include "util/workloads.hpp"

namespace bltc {

struct RunStats;  // core/solver.hpp

/// How the interaction lists are built (and therefore what kinds of
/// interactions the evaluators execute).
enum class TraversalMode {
  /// The paper's BLTC: every target batch descends the source tree, all
  /// far-field work is particle-cluster (default).
  kBatched,
  /// BLDTT-style dual traversal: a target cluster tree is built too, the
  /// MAC is applied to (target node, source node) pairs, and well-separated
  /// work is emitted as cluster-cluster / cluster-particle / particle-
  /// cluster interactions plus direct leaf-leaf pairs. Far-field work
  /// collapses from O(N log N) toward O(N). Serial Solver only for now:
  /// DistSolver's LET fetch rule pulls modified charges for PC pairs and
  /// particles for direct pairs, but has no rule for the CP/CC pairs'
  /// target grids, so it rejects this mode.
  kDual,
};

/// Treecode parameters (paper notation: theta, n, N_L, N_B).
struct TreecodeParams {
  double theta = 0.8;           ///< MAC parameter
  int degree = 8;               ///< interpolation degree n
  std::size_t max_leaf = 2000;  ///< N_L, source leaf size
  std::size_t max_batch = 2000; ///< N_B, target batch size
  /// Which algebraic form computes the modified charges.
  MomentAlgorithm moment_algorithm = MomentAlgorithm::kDirect;
  /// Interaction-list construction scheme (see TraversalMode).
  TraversalMode traversal = TraversalMode::kBatched;

  /// Far-field execution precision (core/precision.hpp). Under kMixed the
  /// traversals tag each admitted interaction fp32 when its truncation
  /// bound plus the fp32 tile floor still meets the nominal (theta, n)
  /// target; kFp32Far tags every admitted far-field interaction. Direct
  /// tiles are fp64 under every policy, and kFp64 (the default) is
  /// bit-identical to the pre-policy behavior.
  PrecisionPolicy precision = PrecisionPolicy::kFp64;

  /// Incremental-dynamics slack: fatten every cluster and batch bounding
  /// box by this fraction of its tight longest extent (half per side), so
  /// `update_positions` can keep the tree topology, interaction lists, and
  /// interpolation grids fixed while particles drift within the fat leaves
  /// — amortized-O(moved) instead of a full replan. 0 (the default)
  /// disables fattening and forces update_positions down the exact-parity
  /// full-rebuild path (bit-identical to set_sources). Typical MD values:
  /// 0.05–0.3. Larger slack means fewer rebuilds but a slightly more
  /// conservative MAC (more direct work) and marginally larger grids.
  double position_slack = 0.0;

  /// Boundary conditions (core/periodic.hpp). Under kPeriodic the plan
  /// layer wraps all positions into `domain`, the traversals run the MAC
  /// against lattice-shifted copies of the source tree, and the finite
  /// image sum covers every shift with max(|i|,|j|,|k|) <= image_shells.
  /// One source plan (one moment build, one device upload) serves all
  /// shifts — the moments are translation invariant.
  BoundaryConditions boundary = BoundaryConditions::kOpen;
  /// Primary cell (kPeriodic only); must be valid with positive extents.
  Box3 domain{};
  /// Image-shell count k (kPeriodic only): (2k+1)^3 lattice images. k == 0
  /// reproduces the open-boundary result for in-domain particles exactly.
  int image_shells = 1;

  /// kPeriodicMesh (src/mesh) only — the Ewald-split mesh far field.
  /// B-spline interpolation order of the charge spreading / force gather
  /// (even, one of {4, 6, 8}; higher = smoother far field per grid point).
  int mesh_order = 6;
  /// Target mesh spacing h; 0 (default) lets the tuner derive it from the
  /// nominal (theta, n) error target. The grid is the next power of two of
  /// L_d / h per dimension.
  double mesh_spacing = 0.0;
  /// Ewald splitting parameter alpha; 0 (default) lets the tuner pick it
  /// (near-field cutoff at a fixed fraction of the shortest box edge).
  double ewald_alpha = 0.0;

  /// Any periodic mode: positions wrap into `domain`, traversals are
  /// image-shifted, plan matching is wrap-aware.
  bool periodic() const { return boundary != BoundaryConditions::kOpen; }
  /// The Ewald-split mesh mode specifically.
  bool mesh() const { return boundary == BoundaryConditions::kPeriodicMesh; }

  /// Throws std::invalid_argument when parameters are out of range.
  void validate() const;
};

struct SourcePlanState;

/// Residency key of one plan state: a process-unique version per mutation,
/// and what changed relative to the version before it. A modeled device that
/// holds `base` uploads just that delta; one holding anything else (or
/// nothing) uploads the whole plan.
struct PlanChange {
  enum class Kind : std::uint8_t {
    kRebuilt,    ///< new plan: nothing carries over
    kCharges,    ///< charges and modified charges rewritten in place
    kPositions,  ///< in-topology position update (fields below)
  };
  Kind kind = Kind::kRebuilt;
  std::uint64_t version = 0;
  std::uint64_t base = 0;  ///< the version a kCharges/kPositions change patches

  // kPositions only.
  /// Coalesced tree-order slot ranges [begin, end) whose stored particle
  /// data (coordinates, charge, or slot contents after re-bucketing)
  /// changed. The modeled device re-stages exactly these ranges.
  std::vector<std::pair<std::size_t, std::size_t>> moved_ranges;
  // Source plans only.
  std::size_t moved = 0;       ///< particles whose stored data changed
  std::size_t rebucketed = 0;  ///< moved particles that changed leaves
  /// Node indices (ascending) whose particle set or particle data changed:
  /// the leaf-to-root paths of every moved particle's old and new leaf.
  /// Exactly these clusters' modified charges were patched (boxes and
  /// grids are unchanged by construction).
  std::vector<std::size_t> dirty_clusters;
};

/// Source side of a plan as one evaluate call sees it: a plan state and the
/// moment ladder its pairs' levels index. A non-owning view, valid for the
/// duration of the call.
struct SourcePlan {
  const SourcePlanState* plan = nullptr;
  /// [0] is the executed degree — the nominal one, or a degraded serve
  /// tier's — and lower degrees its exact restrictions.
  std::span<const ClusterMoments> moment_levels;
  /// Whether interactions tagged fp32-eligible run the fp32 tiles for this
  /// piece (they narrow its fp64 sources while staging them). True for a
  /// plan state's `view()`: a solver's own piece, and a cached plan at its
  /// nominal tier. False for a degraded serve tier, which executes a deeper
  /// ladder level than the tags were proved against, and for distributed
  /// LET pieces, which stay all-fp64.
  bool fp32 = false;
};

/// Target side of a plan: tree-ordered targets, their cluster tree (its
/// non-empty leaves are the target batches, N_B), and the MAC-driven
/// interaction lists — one list set per source piece, in piece order (the
/// serial solver has exactly one).
struct TargetPlan {
  const OrderedParticles* particles = nullptr;
  const ClusterTree* tree = nullptr;
  /// Dual traversal only (empty otherwise): the target tree's per-node
  /// Chebyshev grids at every ladder degree (grids[l] matches
  /// DualPair::level l).
  std::span<const ClusterMoments> grids;
  std::span<const DualInteractionLists> lists;
  /// Lattice shift table the list entries' shift ids index (kPeriodic only,
  /// null under open boundaries). Owned by the target plan state; one table
  /// is shared by every list of the plan.
  const ShiftTable* shifts = nullptr;
  /// The owning state's residency key; null for an ad-hoc view that no
  /// state owns (the modeled device then stages it on every call).
  const PlanChange* change = nullptr;
};

/// Ladder levels the configured traversal's lists reference: the whole
/// dual_degree_ladder under the dual traversal, the nominal degree alone
/// under the batched one.
std::size_t traversal_ladder_levels(const TreecodeParams& params);

/// Owning storage behind `SourcePlan`: the source half of the paper's setup
/// phase (tree-order permutation + cluster tree) and its precompute phase
/// (the modified charges at every ladder degree the plan serves). Every
/// holder of source state — Solver, each DistSolver rank and its LET
/// pieces, and the serving layer's cached plans — builds and mutates it
/// through these members; evaluators only read it.
struct SourcePlanState {
  OrderedParticles particles;
  ClusterTree tree;
  /// The parameters the plan was built with. Under periodic boundaries the
  /// stored particles are wrapped into `params.domain`, and `matches` wraps
  /// incoming coordinates before comparing (so a cloud translated by a
  /// lattice vector matches the cached plan whenever the translation was
  /// exact); the moment degree and algorithm and the precision policy come
  /// from here too.
  TreecodeParams params;
  /// Modified charges per ladder degree: [0] at the nominal degree, then
  /// exact restrictions of it (ClusterMoments::restrict_from). Empty until
  /// `build_moments`. The [0] charges keep their address across
  /// `update_charges` and `update_positions` (the distributed path exposes
  /// them through an RMA window).
  std::vector<ClusterMoments> moment_levels;
  /// Particles holding real data: all of them for a built plan. A
  /// distributed LET piece holds only its fetched direct-interaction ranges;
  /// its other slots are zero placeholders no list references, and the
  /// modeled device uploads only the fetched ones.
  std::size_t held_particles = 0;
  PlanChange change;  ///< this state's residency key

  /// Build the tree-ordered particle set and its cluster tree (no moments).
  static SourcePlanState build(const Cloud& sources,
                               const TreecodeParams& params);

  /// Compute the modified charges: the nominal degree plus the next
  /// `levels - 1` rungs of its degree ladder (clamped to the ladder).
  /// Solvers pass their traversal's length (traversal_ladder_levels); the
  /// serving layer's cached plans pass the whole ladder, whose deeper levels
  /// are its degraded tiers.
  void build_moments(std::size_t levels);

  /// Rewrite the charges in place (caller order, one per source) and
  /// recompute every ladder level's modified charges in place, grids kept.
  /// Storage addresses are preserved, so RMA windows exposing `particles.q`
  /// and `moment_levels[0]` stay valid.
  void update_charges(std::span<const double> charges);

  /// Whether this plan was built over exactly these coordinates (charges
  /// may differ). Used to detect targets == sources for the dual
  /// traversal's symmetric self mode.
  bool matches(const Cloud& cloud) const;

  /// Incremental position update over a fixed tree topology (requires the
  /// tree to have been built with slack > 0 to be useful). Particles that
  /// stayed inside their leaf's fat box move in place; particles that
  /// escaped re-bucket into the leaf whose cell now contains them (a
  /// minimal in-range permutation that preserves the slot order of
  /// unmoved particles). Returns false — with this state completely
  /// untouched — when any particle cannot be re-bucketed (it left the
  /// root's fat box, its destination leaf's fat box does not contain it,
  /// or the descent crosses a degenerate split); callers then fall back
  /// to a full rebuild. On success `change` describes the delta, and the
  /// moments of the dirty clusters are patched in O(moved): each moved
  /// particle's old Lagrange contribution is subtracted and the new one
  /// added, unless a re-bucket permuted the slots or the cluster's patch
  /// volume approaches its size, in which case the cluster is recomputed
  /// outright. Trips failpoint `plan.incremental_rebucket` before mutating
  /// anything.
  bool update_positions(const Cloud& sources);

  /// Record an in-place change made by the holder (a LET piece whose
  /// fetched data was refreshed): a new version of `kind` on top of the
  /// current one.
  void mark_changed(PlanChange::Kind kind);

  std::size_t size() const { return particles.size(); }
  /// The piece at its nominal degree, fp32 tags honoured.
  SourcePlan view() const { return {this, moment_levels, true}; }

 private:
  /// Per-cluster count of particles patched into the moments by delta
  /// updates since the last full recompute of that cluster. Once it
  /// approaches the cluster's size the cluster is recomputed outright,
  /// keeping the rounding drift of repeated subtract/add cycles bounded
  /// without giving up the amortized-O(moved) update cost.
  std::vector<std::size_t> delta_patched_;
};

/// Whether a target plan runs the symmetric self traversal
/// (`TargetPlanState::append_lists`' `self`). It does under the dual
/// traversal when the targets are exactly the sources (`targets_are_sources`,
/// i.e. `SourcePlanState::matches`) and both trees are built with the same
/// leaf size: the trees are then identical (the build is deterministic) and
/// the traversal can walk unordered pairs, executing direct interactions
/// symmetrically (one G evaluation per point pair). Periodic boundaries
/// disable it: a lattice-shifted image breaks the target/source exchange
/// symmetry the mutual walk exploits, so every image (including the home
/// cell) uses the asymmetric traversal.
bool symmetric_self_mode(const TreecodeParams& params,
                         bool targets_are_sources);

/// Owning storage behind `TargetPlan`: the target tree plus the interaction
/// lists of every source tree the targets interact with. `plan()` builds the
/// geometry half once; `append_lists()` runs the configured traversal
/// (batched or dual) against one source tree per call, so the distributed
/// path can list the same target leaves against its local tree and every
/// remote LET tree.
struct TargetPlanState {
  OrderedParticles particles;
  /// Boundary handling (see SourcePlanState): wrapped targets, wrap-aware
  /// plan matching, and the one shift table every traversal and evaluator
  /// of this plan shares.
  BoundaryConditions boundary = BoundaryConditions::kOpen;
  Box3 domain{};
  ShiftTable shifts;
  /// The target cluster tree (leaf size N_B) and, under the dual traversal
  /// only, its per-node Chebyshev grids per ladder degree.
  ClusterTree tree;
  std::vector<ClusterMoments> grids;
  std::vector<DualInteractionLists> lists;  ///< one per source piece
  PlanChange change;  ///< this state's residency key

  /// Tree-order the targets and build their tree (no lists yet).
  static TargetPlanState plan(const Cloud& targets,
                              const TreecodeParams& params);

  /// Traverse `source_tree` from the target leaves (pairwise against the
  /// whole target tree under the dual traversal) and append the resulting
  /// lists; returns the piece index the lists belong to. `self` (dual
  /// traversal only) asserts that the source tree is identical to the
  /// target tree — same particles, same order, same node indexing —
  /// enabling the symmetric mutual traversal.
  std::size_t append_lists(const ClusterTree& source_tree,
                           const TreecodeParams& params, bool self = false);

  /// Whether this plan was built over exactly these target coordinates
  /// (the plan-cache key: the stored permutation maps tree order back to
  /// caller order for comparison).
  bool matches(const Cloud& targets) const;

  /// Incremental position update for the targets == sources case: rewrite
  /// the stored target coordinates in place, keeping the tree, grids, and
  /// every interaction list. Valid only while each target stays inside its
  /// target leaf's fat box; a plan holding symmetric self lists
  /// additionally dies whenever the source side re-bucketed (they rely on
  /// identical source/target trees). Returns false — state untouched — when
  /// the plan cannot be preserved; the caller then invalidates the target
  /// plan. On success `change` records the moved slots.
  bool update_positions_self(const Cloud& targets, bool source_rebucketed);

  /// Add the plan's structure counts — batches (non-empty target leaves),
  /// interaction pairs per class, and precision demotions, summed over
  /// every source piece — into `stats`.
  void add_counts(RunStats& stats) const;

  TargetPlan view() const {
    TargetPlan plan;
    plan.particles = &particles;
    plan.tree = &tree;
    plan.grids = grids;
    plan.lists = lists;
    if (boundary != BoundaryConditions::kOpen) plan.shifts = &shifts;
    plan.change = &change;
    return plan;
  }
};

}  // namespace bltc
