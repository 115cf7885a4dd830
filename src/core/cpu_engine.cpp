#include "core/cpu_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/chebyshev.hpp"
#include "serve/exec_context.hpp"

namespace bltc {
void CpuEngine::prepare_sources(const SourcePlan& plan,
                                const TreecodeParams& params,
                                bool charges_only) {
  const ClusterTree& tree = *plan.tree;
  const OrderedParticles& sources = *plan.particles;
  // Dual traversal: the pairs reference moments at every ladder degree;
  // level 0 is the nominal moments, lower levels are exact restrictions.
  // On a charges-only refresh the grids are unchanged, so level 0 copies
  // just the charge array instead of the whole moments object.
  const auto build_ladder = [&](bool refresh) {
    if (params.traversal != TraversalMode::kDual) {
      dual_levels_.clear();
      return;
    }
    const std::vector<int> ladder = dual_degree_ladder(params.degree);
    if (refresh && dual_levels_.size() == ladder.size()) {
      const auto src = moments_.all_qhat();
      const auto dst = dual_levels_.front().all_qhat_mutable();
      std::copy(src.begin(), src.end(), dst.begin());
      for (std::size_t l = 1; l < ladder.size(); ++l) {
        dual_levels_[l] =
            ClusterMoments::restrict_from(tree, moments_, ladder[l]);
      }
      return;
    }
    dual_levels_.clear();
    for (const int d : ladder) {
      dual_levels_.push_back(d == params.degree
                                 ? moments_
                                 : ClusterMoments::restrict_from(tree,
                                                                 moments_, d));
    }
  };
  if (!charges_only) {
    moments_ = ClusterMoments::compute(tree, sources, params.degree,
                                       params.moment_algorithm);
    delta_patched_.assign(tree.num_nodes(), 0);
    build_ladder(false);
    // New source geometry orphans whatever LET pieces were attached (their
    // lists referenced the old trees); the caller re-attaches after the
    // exchange.
    let_.clear();
    return;
  }
  // Charges-only refresh: the grids depend only on the tree geometry, so
  // only the modified charges are recomputed, in place (the storage is an
  // RMA exposure in the distributed path and must not move).
  const std::size_t nc = tree.num_nodes();
#pragma omp parallel for schedule(dynamic)
  for (std::size_t c = 0; c < nc; ++c) {
    ClusterMoments::recompute_cluster(tree, sources, params.moment_algorithm,
                                      static_cast<int>(c), moments_);
  }
  build_ladder(true);
}

void CpuEngine::update_sources(const SourcePlan& plan,
                               const TreecodeParams& params,
                               const SourceUpdate& update) {
  const ClusterTree& tree = *plan.tree;
  const OrderedParticles& sources = *plan.particles;
  if (moments_.num_clusters() != tree.num_nodes()) {
    // No prepared state to patch (or the tree changed shape): full build.
    prepare_sources(plan, params, /*charges_only=*/false);
    return;
  }
  // The boxes (and hence grids) are unchanged by an in-topology position
  // update, so only the dirty clusters' modified charges change — and a
  // dirty path reaches the root, whose cluster holds every particle. To
  // keep the update O(moved) rather than O(N), a cluster is patched by
  // subtracting each moved particle's old Lagrange contribution and adding
  // the new one (`update.before` carries the old values, sorted by slot;
  // with zero re-buckets a particle's containing clusters are exactly the
  // nodes whose slot range covers it). A cluster is recomputed outright
  // when the patch volume approaches its size: at that point the recompute
  // is no more expensive, and it resets the rounding drift that repeated
  // subtract/add cycles would otherwise accumulate.
  if (delta_patched_.size() != tree.num_nodes()) {
    delta_patched_.assign(tree.num_nodes(), 0);
  }
  const std::size_t nd = update.dirty_clusters.size();
  const std::span<const MovedSlot> before = update.before;
  const std::vector<double> weights = chebyshev2_weights(params.degree);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < nd; ++i) {
    const int ci = static_cast<int>(update.dirty_clusters[i]);
    const ClusterNode& node = tree.node(ci);
    const auto lo = std::lower_bound(
        before.begin(), before.end(), node.begin,
        [](const MovedSlot& s, std::size_t v) { return s.slot < v; });
    const auto hi = std::lower_bound(
        lo, before.end(), node.end,
        [](const MovedSlot& s, std::size_t v) { return s.slot < v; });
    const std::size_t patch = static_cast<std::size_t>(hi - lo);
    const bool use_delta = !before.empty() && patch > 0 &&
                           2 * patch < node.count() &&
                           delta_patched_[static_cast<std::size_t>(ci)] +
                                   patch <
                               node.count();
    if (use_delta) {
      delta_patched_[static_cast<std::size_t>(ci)] += patch;
      const auto qhat = moments_.qhat_mutable(ci);
      for (auto it = lo; it != hi; ++it) {
        ClusterMoments::accumulate_particle(
            params.degree, moments_.grid(ci, 0), moments_.grid(ci, 1),
            moments_.grid(ci, 2), weights, it->x, it->y, it->z, -it->q,
            qhat);
        ClusterMoments::accumulate_particle(
            params.degree, moments_.grid(ci, 0), moments_.grid(ci, 1),
            moments_.grid(ci, 2), weights, sources.x[it->slot],
            sources.y[it->slot], sources.z[it->slot], sources.q[it->slot],
            qhat);
      }
      continue;
    }
    delta_patched_[static_cast<std::size_t>(ci)] = 0;
    ClusterMoments::recompute_cluster(tree, sources, params.moment_algorithm,
                                      ci, moments_);
  }
  // Dual ladder: level 0 copies the dirty charges, lower levels restrict
  // them — per dirty cluster, never a full pass.
  if (params.traversal == TraversalMode::kDual && !dual_levels_.empty()) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < nd; ++i) {
      const int ci = static_cast<int>(update.dirty_clusters[i]);
      const auto src = moments_.qhat(ci);
      const auto dst = dual_levels_.front().qhat_mutable(ci);
      std::copy(src.begin(), src.end(), dst.begin());
      for (std::size_t l = 1; l < dual_levels_.size(); ++l) {
        ClusterMoments::restrict_cluster(moments_, ci, dual_levels_[l]);
      }
    }
  }
}

void CpuEngine::refresh_let_positions(std::span<const LetPiece> pieces,
                                      const TreecodeParams& /*params*/) {
  // The stored views already point at the caller-owned piece storage that
  // was refreshed in place; only the piece set must be unchanged.
  if (pieces.size() != let_.size()) {
    throw std::logic_error(
        "CpuEngine::refresh_let_positions: refresh with a different piece "
        "count");
  }
}

void CpuEngine::attach_let_pieces(std::span<const LetPiece> pieces,
                                  const TreecodeParams& /*params*/,
                                  bool charges_only) {
  if (charges_only) {
    // The piece set is unchanged and the refreshed charges live in the
    // caller-owned storage the stored views already point at.
    if (pieces.size() != let_.size()) {
      throw std::logic_error(
          "CpuEngine::attach_let_pieces: charges_only refresh with a "
          "different piece count");
    }
    return;
  }
  let_.assign(pieces.begin(), pieces.end());
}

template <bool Field>
CpuEngine::Result<Field> CpuEngine::evaluate(const SourcePlan& sources,
                                             const TargetPlan& targets,
                                             const KernelSpec& kernel,
                                             RunStats& stats,
                                             ExecContext* ctx) const {
  if (targets.lists.size() != 1 + let_.size()) {
    throw std::logic_error(
        "CpuEngine: one interaction list per source piece expected");
  }
  CpuWorkspace* const workspace =
      ctx != nullptr ? &ctx->cpu_workspace() : nullptr;
  const auto eval_piece = [&](const SourcePlan& piece,
                              std::size_t index) -> Result<Field> {
    // The moment ladder the pairs' levels index: caller-owned ladders
    // (serving-layer cached plans) ride in piece.moment_levels, a LET piece
    // carries its one fetched level, and the engine-owned piece uses what
    // prepare_sources built.
    const std::span<const ClusterMoments> levels =
        !piece.moment_levels.empty() ? piece.moment_levels
        : piece.moments != nullptr
            ? std::span<const ClusterMoments>(piece.moments, 1)
            : prepared_levels();
    const DualInteractionLists& lists = targets.lists[index];
    if (lists.ladder.size() > levels.size()) {
      throw std::logic_error(
          "CpuEngine: the lists reference more moment-ladder levels than "
          "the source piece provides (dual-traversal pieces with external "
          "moments need SourcePlan::moment_levels)");
    }
    if constexpr (Field) {
      return cpu_evaluate_dual_field(
          *targets.particles, *targets.tree, targets.grids, lists, *piece.tree,
          *piece.particles, levels, kernel, targets.shifts, &stats, workspace,
          piece.fp32);
    } else {
      return cpu_evaluate_dual(*targets.particles, *targets.tree,
                               targets.grids, lists, *piece.tree,
                               *piece.particles, levels, kernel,
                               targets.shifts, &stats, workspace, piece.fp32);
    }
  };
  // Local piece first, then the attached LET pieces in piece order: the
  // fixed accumulation order keeps the result deterministic.
  Result<Field> out = eval_piece(sources, 0);
  for (std::size_t p = 0; p < let_.size(); ++p) {
    add_into(out, eval_piece(let_[p].plan, 1 + p));
  }
  return out;
}

std::vector<double> CpuEngine::evaluate_potential(const SourcePlan& sources,
                                                  const TargetPlan& targets,
                                                  const KernelSpec& kernel,
                                                  bool /*fresh_targets*/,
                                                  RunStats& stats,
                                                  ExecContext* ctx) const {
  return evaluate<false>(sources, targets, kernel, stats, ctx);
}

FieldResult CpuEngine::evaluate_field(const SourcePlan& sources,
                                      const TargetPlan& targets,
                                      const KernelSpec& kernel,
                                      bool /*fresh_targets*/, RunStats& stats,
                                      ExecContext* ctx) const {
  return evaluate<true>(sources, targets, kernel, stats, ctx);
}

}  // namespace bltc
