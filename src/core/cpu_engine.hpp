// Host potential-evaluation engine — the paper's CPU comparator (§4). Both
// traversals' lists (potential and field) execute through the one list
// driver in core/cpu_kernels.hpp; `CpuEngine` wraps its free evaluation
// functions behind the Engine interface and keeps the modified charges
// alive across evaluate() calls. Evaluation
// itself is const and re-entrant: all mutable scratch lives in the caller's
// ExecContext (serve/exec_context.hpp), so the serving layer runs many
// concurrent evaluations of one cached plan through one engine — each call
// passes its own context, and a piece carrying caller-owned moments reads
// nothing but the plan. In the distributed path each rank's CpuEngine also
// holds the attached LET pieces (views into DistSolver-owned storage) and
// sums their contributions after the local piece, in piece order, so the
// accumulation is deterministic and backend-independent.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "core/cpu_kernels.hpp"
#include "core/engine.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "core/particles.hpp"

namespace bltc {

/// Engine-interface wrapper over the host evaluation paths. Source state is
/// one ClusterMoments instance, recomputed in full on prepare and charges-
/// only on update_charges (grids depend only on the tree geometry), plus
/// the currently attached LET pieces.
class CpuEngine final : public Engine {
 public:
  Backend backend() const override { return Backend::kCpu; }
  bool supports_fields() const override { return true; }

  void prepare_sources(const SourcePlan& plan, const TreecodeParams& params,
                       bool charges_only) override;
  void update_sources(const SourcePlan& plan, const TreecodeParams& params,
                      const SourceUpdate& update) override;
  void attach_let_pieces(std::span<const LetPiece> pieces,
                         const TreecodeParams& params,
                         bool charges_only) override;
  void refresh_let_positions(std::span<const LetPiece> pieces,
                             const TreecodeParams& params) override;
  std::span<const double> prepared_qhat() const override {
    return moments_.all_qhat();
  }
  std::vector<double> evaluate_potential(const SourcePlan& sources,
                                         const TargetPlan& targets,
                                         const KernelSpec& kernel,
                                         bool fresh_targets, RunStats& stats,
                                         ExecContext* ctx) const override;
  FieldResult evaluate_field(const SourcePlan& sources,
                             const TargetPlan& targets,
                             const KernelSpec& kernel, bool fresh_targets,
                             RunStats& stats,
                             ExecContext* ctx) const override;

  /// The prepared moments evaluation reads for the engine-owned piece: the
  /// whole degree ladder under the dual traversal, the nominal level alone
  /// otherwise.
  std::span<const ClusterMoments> prepared_levels() const {
    if (!dual_levels_.empty()) return dual_levels_;
    return {&moments_, 1};
  }

 private:
  template <bool Field>
  using Result = std::conditional_t<Field, FieldResult, std::vector<double>>;
  /// The one body behind evaluate_potential and evaluate_field.
  template <bool Field>
  Result<Field> evaluate(const SourcePlan& sources, const TargetPlan& targets,
                         const KernelSpec& kernel, RunStats& stats,
                         ExecContext* ctx) const;

  ClusterMoments moments_;
  /// Dual traversal only: moments at every ladder degree ([0] is the
  /// nominal degree, lower degrees are exact restrictions of it).
  std::vector<ClusterMoments> dual_levels_;
  std::vector<LetPiece> let_;  ///< attached remote pieces (caller-owned data)
  /// Per-cluster count of particles patched into the moments by delta
  /// updates since the last full recompute of that cluster. Once it
  /// approaches the cluster's size, the cluster is recomputed outright —
  /// keeping the rounding drift of repeated subtract/add cycles bounded
  /// without giving up the amortized-O(moved) update cost.
  std::vector<std::size_t> delta_patched_;
};

}  // namespace bltc
