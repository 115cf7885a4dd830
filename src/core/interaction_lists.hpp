// Interaction lists (BLTC algorithm lines 8-20): the MAC traversals that
// decide, for every target leaf, which source clusters it approximates and
// which it sums directly. The traversal is separated from potential
// evaluation so that the same interaction lists can be executed by the host
// evaluators, walked by the GpuSim cost model, or shipped across ranks
// during LET construction — exactly the structure the paper's implementation uses (the
// CPU builds the lists, the GPU consumes them). Both traversals, the paper's
// batched one and the pairwise dual one, emit the one list format below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/mac.hpp"
#include "core/periodic.hpp"
#include "core/precision.hpp"
#include "core/tree.hpp"

namespace bltc {

/// Interaction kinds of an admissible (target node, source node) pair. The
/// batched traversal emits kPC and kDirect only; the dual traversal emits
/// all four. Which kind applies follows the size logic of Eq. (13) applied
/// to each side: a side is interpolated only when it holds more particles
/// than interpolation points.
enum class DualKind : std::uint8_t {
  kPC,      ///< source proxy charges -> target particles (Eq. 11)
  kCP,      ///< source particles -> target Chebyshev grid
  kCC,      ///< source proxy charges -> target Chebyshev grid
  kDirect,  ///< source particles -> target particles (Eq. 9)
};

/// Interpolation-degree ladder of the variable-order dual traversal:
/// descending degrees {n, n-1, ..., 2} (just {n} for n <= 2). Ladder
/// moments are exact restrictions of the nominal-degree moments
/// (ClusterMoments::restrict_from), so a pair separated comfortably below
/// theta can interact through a much smaller Chebyshev grid while staying
/// within the nominal (theta, n) error bound.
std::vector<int> dual_degree_ladder(int degree);

/// One admissible pair. `target`/`source` index the target/source cluster
/// trees; for kPC and kDirect the target node is always a *leaf* (the
/// traversal pushes particle-accumulating work down to leaves so the
/// executor can parallelize over disjoint particle ranges). `level` indexes
/// the degree ladder: the lowest degree whose per-pair error bound
/// kappa^(n_l+1), kappa = (r_T + r_S)/R, still meets the nominal
/// theta^(n+1) bound (always 0, the nominal degree, for kDirect).
struct DualPair {
  DualKind kind;
  std::uint8_t level = 0;
  /// fp32 tag (core/precision.hpp): 1 = this far-field pair may execute
  /// fp32 (always 0 for kDirect and under PrecisionPolicy::kFp64).
  std::uint8_t fp32 = 0;
  int target = -1;
  int source = -1;
  std::uint16_t shift = 0;  ///< lattice shift id (0 = home cell / open)
};

/// Interaction lists of one traversal, pre-grouped by target node so both
/// evaluators can execute groups in parallel without write conflicts:
/// grid groups accumulate onto per-node Chebyshev grids (disjoint rows),
/// leaf groups accumulate onto leaf particle ranges (disjoint ranges).
/// Group order and in-group pair order are deterministic (independent of
/// thread count), so the floating-point accumulation order is reproducible.
struct DualInteractionLists {
  /// CP + CC pairs, grouped by target node: group g holds
  /// grid_pairs[grid_offsets[g] .. grid_offsets[g+1]) and accumulates onto
  /// the grid of target node grid_nodes[g].
  std::vector<DualPair> grid_pairs;
  std::vector<std::size_t> grid_offsets;
  std::vector<int> grid_nodes;

  /// PC + direct pairs, grouped by target *leaf* (same CSR layout).
  std::vector<DualPair> leaf_pairs;
  std::vector<std::size_t> leaf_offsets;
  std::vector<int> leaf_nodes;

  // Aggregate pair counts for stats and the performance model.
  std::size_t total_pc = 0;
  std::size_t total_cp = 0;
  std::size_t total_cc = 0;
  std::size_t total_direct = 0;
  std::size_t total_fp32 = 0;  ///< far-field pairs tagged fp32-eligible
  /// Pairs that wanted fp32 under kMixed but failed the error bound.
  std::size_t precision_demotions = 0;

  /// The degree ladder the pairs' `level` fields index: dual_degree_ladder
  /// of the nominal degree, or just {degree} for the batched traversal.
  std::vector<int> ladder;

  /// Self-interaction (mutual) traversal: targets and sources are the same
  /// particle set under the same tree. Every unordered node pair appears
  /// once; kDirect pairs are *symmetric* — the executor computes each G
  /// value once and accumulates it into both sides (Newton's third law),
  /// halving the near-field kernel evaluations. Far-field kinds are emitted
  /// explicitly for both directions. kDirect pairs with target == source
  /// are the diagonal leaf self-interactions (triangular sum).
  bool self = false;
};

/// Simultaneous recursion over (target node, source node) with the pairwise
/// MAC. Parallelized over an initial task frontier; the output ordering is
/// deterministic regardless of thread count. With `self` the two trees must
/// be identical (same particle order and node indexing); the traversal then
/// walks unordered pairs (see DualInteractionLists::self). A non-null
/// `shifts` table (periodic boundaries) traverses one lattice-shifted copy
/// of the source tree per shift, tagging pairs with their shift id; the
/// symmetric self mode is incompatible with shifts (the solver disables it
/// under periodic boundaries) and asserts against the combination.
/// `range_cutoff` prunes node pairs whose sphere-to-sphere minimum distance
/// exceeds the cutoff (the kPeriodicMesh near field; infinity = no pruning).
DualInteractionLists build_dual_interaction_lists(
    const ClusterTree& ttree, const ClusterTree& stree, double theta,
    int degree, bool self = false, const ShiftTable* shifts = nullptr,
    PrecisionPolicy precision = PrecisionPolicy::kFp64,
    double range_cutoff = std::numeric_limits<double>::infinity());

/// The paper's batched traversal: every non-empty leaf of `ttree` (a target
/// batch of at most N_B targets) descends `stree` under the batch-level MAC
/// (Eq. 13). The lists hold one leaf group per non-empty target leaf, in
/// leaf_indices() order; each group holds all its kPC pairs, then all its
/// kDirect pairs, at ladder level 0 (`ladder = {degree}`, no grid pairs).
/// A non-null `shifts` table (periodic boundaries) descends one copy of the
/// source tree per lattice shift, testing the MAC against shifted cluster
/// centers and tagging every pair with its shift id; within each kind the
/// pairs are shift-major, home cell first, so the ordering is
/// deterministic. `range_cutoff` (kPeriodicMesh near field): prune any
/// subtree whose closest possible point to the batch sphere exceeds the
/// cutoff — min-distance(batch sphere, cluster sphere) > range_cutoff. Sound
/// for range-limited kernels because every particle of a cluster lies
/// inside its bounding sphere; the default (infinity) prunes nothing.
DualInteractionLists build_interaction_lists(
    const ClusterTree& ttree, const ClusterTree& stree, double theta,
    int degree, const ShiftTable* shifts = nullptr,
    PrecisionPolicy precision = PrecisionPolicy::kFp64,
    double range_cutoff = std::numeric_limits<double>::infinity());

/// Resolve a pair's lattice shift (see ResolvedShift in core/periodic.hpp;
/// every evaluator executes pairs through this).
inline ResolvedShift resolve_pair_shift(const ShiftTable* shifts,
                                        const DualPair& pair) {
  if (shifts == nullptr || pair.shift == 0) return {};
  const std::size_t s = pair.shift;
  return {shifts->sx[s], shifts->sy[s], shifts->sz[s], static_cast<int>(s)};
}

}  // namespace bltc
