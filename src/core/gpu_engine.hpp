// Simulated-GPU backend (§3.2): GpuSim models launches over host numerics.
// Every number it returns is computed by the host engine (`CpuEngine` and
// the cpu_kernels list drivers), so the two backends agree bit for bit.
// What this engine adds is what the paper's OpenACC run would cost. It
// walks the same interaction lists the host executes and records the
// paper's launch schedule on a `gpusim::Device` timeline:
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
// The engine models sources, grids, and modified charges as device-resident
// across evaluate() calls: a Solver that evaluates repeatedly uploads
// source data exactly once, and target data only when the target plan
// changes. In the distributed path each rank's engine additionally keeps
// its locally essential tree device-resident — attached LET pieces stage
// their fetched particles, grids, and modified charges once, and a
// charges-only refresh re-uploads exactly the charge arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/cpu_engine.hpp"
#include "core/engine.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels.hpp"
#include "core/moments.hpp"
#include "gpusim/device.hpp"

namespace bltc {

/// Relative cost of one kernel evaluation by kernel family, used to weight
/// KernelCost::evals. Calibrated to the paper's observation that Yukawa runs
/// ~1.5x slower than Coulomb on the GPU and ~1.8x on the CPU (§4, Fig. 4).
double kernel_eval_weight(const KernelSpec& spec, bool on_gpu);

/// Engine-interface wrapper owning one simulated device for the lifetime of
/// its Solver. The numerics run through a composed `CpuEngine`; this class
/// keeps the device residency bookkeeping (which arrays are staged, so
/// repeat evaluations move only results) and turns list walks into modeled
/// launches. Statistics are reported as deltas per evaluation, so a repeat
/// evaluation on an unchanged plan shows zero host-to-device bytes.
class GpuSimEngine final : public Engine {
 public:
  explicit GpuSimEngine(const GpuOptions& options);

  Backend backend() const override { return Backend::kGpuSim; }
  bool supports_fields() const override { return false; }

  void prepare_sources(const SourcePlan& plan, const TreecodeParams& params,
                       bool charges_only) override;
  void update_sources(const SourcePlan& plan, const TreecodeParams& params,
                      const SourceUpdate& update) override;
  void update_targets(const TargetPlan& plan,
                      std::span<const std::pair<std::size_t, std::size_t>>
                          moved_ranges) override;
  void attach_let_pieces(std::span<const LetPiece> pieces,
                         const TreecodeParams& params,
                         bool charges_only) override;
  void refresh_let_positions(std::span<const LetPiece> pieces,
                             const TreecodeParams& params) override;
  std::span<const double> prepared_qhat() const override {
    return host_.prepared_qhat();
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
  void mesh_far_field(const mesh::MeshPlan& plan, const TargetPlan& targets,
                      std::vector<double>& phi, FieldResult* field,
                      RunStats& stats) const override;

  /// Cumulative device counters (tests and benches).
  const gpusim::Device& device() const { return device_; }

 private:
  /// Model the two preprocessing kernels for every non-empty cluster of
  /// `clusters` and the DtH of their modified charges; the modeled kernel
  /// seconds are attributed to the next evaluation's precompute phase.
  void model_precompute(const ClusterTree& tree,
                        std::span<const std::size_t> clusters);
  /// Model one restriction launch per coarse ladder level, each over
  /// `clusters` clusters (the whole tree on prepare, the dirty set on
  /// update).
  void model_restrictions(std::size_t clusters);
  /// Model the launches of one source piece's lists: CC/CP pairs and the
  /// downward pass (dual lists only), then the batch-cluster PC/direct
  /// launches per target leaf. `levels` is the piece's moment ladder.
  void model_lists(const TargetPlan& targets,
                   const DualInteractionLists& lists,
                   const ClusterTree& source_tree,
                   std::span<const ClusterMoments> levels, double weight,
                   bool fp32) const;
  void stage_piece_particles(const LetPiece& piece, bool charges_only);

  // Deliberate `mutable` audit: evaluation is const under the Engine
  // re-entrancy contract, but a simulated device accumulates time/transfer
  // counters and stages target data on first use — physically mutable state
  // that is logically part of executing a read-only plan. Everything touched
  // by evaluate_potential is marked mutable and serialized by `eval_mutex_`
  // (one device executes one evaluation at a time — the "one rank per
  // device" shape of the paper); all remaining members are written only by
  // the non-const prepare/attach lifecycle calls.
  mutable std::mutex eval_mutex_;

  GpuOptions options_;
  CpuEngine host_;  ///< computes every number this engine returns
  mutable gpusim::Device device_;

  // Residency bookkeeping: what the modeled device currently holds.
  bool sources_staged_ = false;
  std::size_t staged_sources_ = 0;   ///< resident source particles
  std::size_t staged_clusters_ = 0;  ///< clusters of the resident tree
  mutable bool targets_staged_ = false;
  mutable std::size_t staged_targets_ = 0;
  /// Periodic boundaries: the plan's lattice shift table is uploaded once
  /// per engine lifetime (it depends only on the solver's domain/shell
  /// configuration). Its one upload is the entire device-footprint cost of
  /// periodic images — sources, grids, and modified charges are shared by
  /// every shift.
  mutable bool shift_table_staged_ = false;
  std::vector<LetPiece> let_;  ///< resident LET pieces (caller-owned data)

  // Phase accounting pending attribution to the next evaluation.
  mutable double pending_modeled_precompute_ = 0.0;
  mutable std::size_t pending_host_setup_particles_ = 0;

  /// Mesh-mode (kPeriodicMesh) device residency: version of the MeshPlan
  /// whose solved k-space grid was last staged/solved on the device. A
  /// version change models the full spread → FFT → Green multiply →
  /// inverse-FFT pipeline; matching versions model only the per-call
  /// interpolation launch plus the result download.
  mutable std::uint64_t mesh_version_staged_ = 0;

  // Snapshots of the device's cumulative counters at the last report.
  mutable gpusim::TimeMarker reported_marker_;
  mutable std::size_t reported_launches_ = 0;
  mutable std::size_t reported_bytes_htd_ = 0;
  mutable std::size_t reported_bytes_dth_ = 0;
};

}  // namespace bltc
