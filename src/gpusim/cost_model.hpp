// Modeled device cost of the paper's OpenACC port (§3.2). GpuSim computes
// nothing: every number an evaluation returns comes from the host
// evaluators (core/cpu_kernels.hpp). What `CostModel` adds is what that
// evaluation would cost on the paper's GPU. It walks the interaction lists
// the host executed and records the paper's launch schedule on a
// `gpusim::Device` timeline:
//   1. preprocessing kernel 1 — intermediate charges q̃_j (Eq. 14), one
//      block per source particle;
//   2. preprocessing kernel 2 — modified charges q̂_k (Eq. 15), one block
//      per Chebyshev point;
//   3. batch-cluster direct sum kernel (Eq. 9), one block per target;
//   4. batch-cluster approximation kernel (Eq. 11), one block per target;
// plus, under the dual traversal, one launch per CC/CP pair, the
// downward-pass chain and the moment-ladder restrictions, and under
// kPeriodicMesh the spread/FFT/gather pipeline. Launches cycle round-robin
// over the device's asynchronous streams, and transfers follow the paper's
// data-region schedule: sources HtD before the precompute, modified charges
// DtH after it, targets + cluster data HtD before the compute, potentials
// DtH at the end.
//
// The model treats sources, grids, and modified charges as device-resident
// across evaluations. It owns no plan data, only residency bookkeeping: the
// version (PlanChange) of the source plan, the target plan and each LET
// piece its device last received. The first evaluation that sees a new
// version charges its upload — the recorded delta when the device holds the
// version it patches (a charges-only refresh ships the charge arrays, an
// in-topology position update the moved ranges and dirty clusters), the
// whole plan otherwise — so a Solver that evaluates repeatedly uploads
// source data exactly once, and a distributed rank keeps its locally
// essential tree resident the same way.
//
// The model writes only modeled quantities into RunStats: `modeled.*`,
// `gpu_launches` and the device bytes, as deltas per evaluation. Measured
// fields stay measured. A `Solver` under Backend::kGpuSim holds one, as
// does each DistSolver rank; a model serves one evaluation stream and is
// not thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "gpusim/device.hpp"

namespace bltc {

namespace mesh {
class MeshPlan;  // FFT far field of the Ewald split (src/mesh/mesh.hpp)
}  // namespace mesh

namespace gpusim {

/// Relative cost of one kernel evaluation by kernel family, used to weight
/// KernelCost::evals. Calibrated to the paper's observation that Yukawa runs
/// ~1.5x slower than Coulomb on the GPU and ~1.8x on the CPU (§4, Fig. 4).
double kernel_eval_weight(const KernelSpec& spec, bool on_gpu);

/// One simulated device and the residency of the plans it has seen (see
/// the file comment). Each evaluation calls `stage` before the numerics and
/// `model_potential` after them; a kPeriodicMesh evaluation then calls
/// `model_mesh`.
class CostModel {
 public:
  explicit CostModel(const GpuOptions& options);

  /// Bring the device up to the plan versions of one evaluation (source
  /// pieces, then targets, then the shift table on first use). Trips
  /// failpoint `gpusim.stage` (a whole or charges-only upload) or
  /// `gpusim.partial_restage` (a position delta) before any device
  /// operation, so a tripped staging commits no residency and the
  /// evaluation can be retried.
  void stage(std::span<const SourcePlan> sources, const TargetPlan& targets);

  /// Model the launches of the lists the host just executed, piece by piece,
  /// and the download of the potentials; then report this evaluation's
  /// modeled seconds (the staging's included), launches and device bytes
  /// into `stats`.
  void model_potential(std::span<const SourcePlan> sources,
                       const TargetPlan& targets, const KernelSpec& kernel,
                       RunStats& stats);

  /// Model the device-resident mesh pipeline of a kPeriodicMesh evaluation
  /// of `num_targets` targets (`field` for force evaluations): a new mesh
  /// version stages and solves the grid, every call interpolates and
  /// downloads the far field. Reports like model_potential.
  void model_mesh(const mesh::MeshPlan& plan, std::size_t num_targets,
                  bool field, RunStats& stats);

  /// Cumulative device counters (tests and benches).
  const Device& device() const { return device_; }

 private:
  /// Model the two preprocessing kernels for every non-empty cluster of
  /// `clusters` and the DtH of their modified charges.
  void model_precompute(const SourcePlan& piece,
                        std::span<const std::size_t> clusters);
  /// Model one restriction launch per coarse level of the first `levels`
  /// ladder levels (those the lists reference), each over `clusters`
  /// clusters.
  void model_restrictions(const SourcePlan& piece, std::size_t levels,
                          std::size_t clusters);
  /// Model the launches of one source piece's lists: CC/CP pairs and the
  /// downward pass (dual lists only), then the batch-cluster PC/direct
  /// launches per target leaf.
  void model_lists(const TargetPlan& targets,
                   const DualInteractionLists& lists, const SourcePlan& piece,
                   double weight);
  /// Add the launches and device bytes since the last report into `stats`
  /// and move the report snapshots to `now`.
  void report(const TimeMarker& now, RunStats& stats);

  GpuOptions options_;
  Device device_;

  // Residency bookkeeping: the plan versions the modeled device holds
  // (0 = nothing).
  std::uint64_t source_version_ = 0;
  std::uint64_t target_version_ = 0;
  std::vector<std::uint64_t> let_versions_;  ///< per LET piece
  /// Periodic boundaries: the plan's lattice shift table is uploaded once
  /// per model lifetime (it depends only on the solver's domain/shell
  /// configuration). Its one upload is the entire device-footprint cost of
  /// periodic images — sources, grids, and modified charges are shared by
  /// every shift.
  bool shift_table_staged_ = false;
  /// Mesh-mode (kPeriodicMesh) device residency: version of the MeshPlan
  /// whose solved k-space grid was last staged/solved on the device. A
  /// version change models the full spread → FFT → Green multiply →
  /// inverse-FFT pipeline; matching versions model only the per-call
  /// interpolation launch plus the result download.
  std::uint64_t mesh_version_staged_ = 0;

  /// What the last stage() modeled, reported by the next model_potential:
  /// the preprocessing kernel seconds and the host-side setup particles.
  double staged_precompute_ = 0.0;
  std::size_t staged_host_particles_ = 0;

  // Snapshots of the device's cumulative counters at the last report.
  TimeMarker reported_marker_;
  std::size_t reported_launches_ = 0;
  std::size_t reported_bytes_htd_ = 0;
  std::size_t reported_bytes_dth_ = 0;
};

}  // namespace gpusim
}  // namespace bltc
