// Engine interface behind the `Solver` and `dist::DistSolver` handles and
// the serving layer. A plan (source tree and modified charges, target tree,
// interaction lists — see core/plan.hpp) is built and mutated by the plan
// layer on the host; an Engine only executes it, turning a plan into
// potentials or fields. Engines own no plan data: the host engine holds
// nothing at all, and the simulated-GPU engine holds only residency
// bookkeeping — which plan versions its modeled device already holds — so an
// evaluation uploads only what changed since the one before.
//
// Every evaluate call takes its source pieces explicitly. A serial call
// passes one; a distributed rank passes its local plan followed by the
// remote halves of its locally essential tree, and the engine sums the
// contribution of every piece in piece order, with one interaction list per
// piece carried by the TargetPlan.
#pragma once

#include <memory>
#include <span>
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

/// Backend evaluation engine: executes plans it does not own (see the file
/// comment).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual Backend backend() const = 0;

  /// Whether evaluate_field is implemented.
  virtual bool supports_fields() const = 0;

  /// Evaluate potentials at the planned targets, in tree order, summing
  /// every source piece (targets.lists[i] lists the targets against
  /// sources[i]) in piece order. Engines add their work counts (evals,
  /// launches, the fp32/fp64 split) and device/modeled deltas into `stats`;
  /// the solvers fill phase seconds and structure counts.
  ///
  /// Re-entrancy contract (the serving layer depends on it): evaluation is
  /// `const`, and all mutable per-call scratch lives in `ctx` (null falls
  /// back to call-local scratch). The CPU engine reads nothing but the plans
  /// it is given, so with per-call contexts it is safe to call concurrently
  /// from any number of threads. The simulated-GPU engine updates its
  /// residency bookkeeping and device timeline and is instead internally
  /// serialized: concurrent calls are safe but run one at a time.
  virtual std::vector<double> evaluate_potential(
      std::span<const SourcePlan> sources, const TargetPlan& targets,
      const KernelSpec& kernel, RunStats& stats,
      ExecContext* ctx = nullptr) const = 0;

  /// Evaluate potential + field (E = -grad phi) at the planned targets, in
  /// tree order, over the same pieces as evaluate_potential and under the
  /// same re-entrancy contract. Throws std::invalid_argument when
  /// unsupported.
  virtual FieldResult evaluate_field(std::span<const SourcePlan> sources,
                                     const TargetPlan& targets,
                                     const KernelSpec& kernel,
                                     RunStats& stats,
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
