#include "core/cpu_engine.hpp"

#include <stdexcept>

#include "core/cpu_kernels.hpp"
#include "serve/exec_context.hpp"

namespace bltc {

template <bool Field>
CpuEngine::Result<Field> CpuEngine::evaluate(
    std::span<const SourcePlan> sources, const TargetPlan& targets,
    const KernelSpec& kernel, RunStats& stats, ExecContext* ctx) const {
  if (sources.empty() || targets.lists.size() != sources.size()) {
    throw std::logic_error(
        "CpuEngine: one interaction list per source piece expected");
  }
  CpuWorkspace* const workspace =
      ctx != nullptr ? &ctx->cpu_workspace() : nullptr;
  const auto eval_piece = [&](std::size_t index) -> Result<Field> {
    const SourcePlan& piece = sources[index];
    const SourcePlanState& plan = *piece.plan;
    const DualInteractionLists& lists = targets.lists[index];
    if (lists.ladder.size() > piece.moment_levels.size()) {
      throw std::logic_error(
          "CpuEngine: the lists reference more moment-ladder levels than "
          "the source piece provides");
    }
    if constexpr (Field) {
      return cpu_evaluate_dual_field(
          *targets.particles, *targets.tree, targets.grids, lists, plan.tree,
          plan.particles, piece.moment_levels, kernel, targets.shifts, &stats,
          workspace, piece.fp32);
    } else {
      return cpu_evaluate_dual(*targets.particles, *targets.tree,
                               targets.grids, lists, plan.tree,
                               plan.particles, piece.moment_levels, kernel,
                               targets.shifts, &stats, workspace, piece.fp32);
    }
  };
  // Pieces in order: the fixed accumulation order keeps the result
  // deterministic.
  Result<Field> out = eval_piece(0);
  for (std::size_t p = 1; p < sources.size(); ++p) {
    add_into(out, eval_piece(p));
  }
  return out;
}

std::vector<double> CpuEngine::evaluate_potential(
    std::span<const SourcePlan> sources, const TargetPlan& targets,
    const KernelSpec& kernel, RunStats& stats, ExecContext* ctx) const {
  return evaluate<false>(sources, targets, kernel, stats, ctx);
}

FieldResult CpuEngine::evaluate_field(std::span<const SourcePlan> sources,
                                      const TargetPlan& targets,
                                      const KernelSpec& kernel,
                                      RunStats& stats,
                                      ExecContext* ctx) const {
  return evaluate<true>(sources, targets, kernel, stats, ctx);
}

}  // namespace bltc
