// Host potential-evaluation engine — the paper's CPU comparator (§4). Both
// traversals' lists (potential and field) execute through the one list
// driver in core/cpu_kernels.hpp; `CpuEngine` wraps its free evaluation
// functions behind the Engine interface. It holds no state: every source
// piece brings its own moment ladder, and all mutable scratch lives in the
// caller's ExecContext (serve/exec_context.hpp), so evaluation is const and
// re-entrant — the serving layer runs many concurrent evaluations of one
// cached plan through one engine, each call with its own context. Pieces
// are summed in piece order (a distributed rank's local plan first, then
// its LET pieces), so the accumulation is deterministic and
// backend-independent.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"

namespace bltc {

/// Engine-interface wrapper over the host evaluation paths.
class CpuEngine final : public Engine {
 public:
  Backend backend() const override { return Backend::kCpu; }
  bool supports_fields() const override { return true; }

  std::vector<double> evaluate_potential(std::span<const SourcePlan> sources,
                                         const TargetPlan& targets,
                                         const KernelSpec& kernel,
                                         RunStats& stats,
                                         ExecContext* ctx) const override;
  FieldResult evaluate_field(std::span<const SourcePlan> sources,
                             const TargetPlan& targets,
                             const KernelSpec& kernel, RunStats& stats,
                             ExecContext* ctx) const override;

 private:
  template <bool Field>
  using Result = std::conditional_t<Field, FieldResult, std::vector<double>>;
  /// The one body behind evaluate_potential and evaluate_field.
  template <bool Field>
  Result<Field> evaluate(std::span<const SourcePlan> sources,
                         const TargetPlan& targets, const KernelSpec& kernel,
                         RunStats& stats, ExecContext* ctx) const;
};

}  // namespace bltc
