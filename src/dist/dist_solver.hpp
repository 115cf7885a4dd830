// Distributed BLTC pipeline (§3 of the paper): RCB domain decomposition
// (the role Zoltan plays), one rank per simulated device, locally essential
// trees built with one-sided RMA gets over the simmpi substrate, and a
// bulk-synchronous potential evaluation. Ranks are in-process threads; the
// communication accounting and the per-rank device models project the run
// onto the paper's multi-GPU hardware.
//
// `DistSolver` is the plan/execute handle, with the same lifecycle as the
// serial `Solver` (core/solver.hpp):
//
//   DistSolver solver({KernelSpec::coulomb(), params, /*nranks=*/4});
//   solver.set_sources(cloud);          // RCB + local trees + LET, once
//   auto phi  = solver.evaluate();      // every rank runs its cached plan
//   auto phi2 = solver.evaluate();      // no RMA, no tree work: kernels only
//   solver.update_charges(new_q);       // moments + LET *charge* refresh
//   solver.update_positions(moved);     // LET window refresh when
//                                       // position_slack > 0, else re-plan
//
// Each rank executes its plan through the host evaluators
// (core/cpu_kernels.hpp), so the distributed path inherits the blocked CPU
// kernels. Under Backend::kGpuSim each rank also owns a modeled device
// (gpusim/cost_model.hpp) with its persistent-residency model: a rank's
// LET (local sources, remote trees, fetched charges and particles) is
// staged on its device once and repeat evaluations model no transfer but
// the results. `compute_potential_distributed`
// remains the one-shot wrapper.
//
// Statistics extend the serial RunStats: each rank reports a RankStats (its
// own eval counts, phase seconds, and device deltas plus its LET traffic),
// and DistStats is the bulk-synchronous view over all ranks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "gpusim/device.hpp"
#include "gpusim/perf_model.hpp"
#include "util/workloads.hpp"

namespace bltc::simmpi {
class RankTeam;
}  // namespace bltc::simmpi

namespace bltc::dist {

/// Parameters for one distributed solve.
struct DistParams {
  TreecodeParams treecode;
  /// Backend::kGpuSim adds each rank's modeled device report.
  Backend backend = Backend::kCpu;
  /// Device modeled on every rank (Backend::kGpuSim; the paper runs one GPU
  /// per MPI rank).
  gpusim::DeviceSpec device = gpusim::DeviceSpec::p100();
  bool async_streams = true;
  /// Host and interconnect models feeding the modeled phase times.
  gpusim::HostSpec host = gpusim::HostSpec::comet_haswell();
  gpusim::NetworkSpec network = gpusim::NetworkSpec::comet_infiniband();
};

/// One rank's statistics for one evaluation: the RunStats its evaluation
/// and plan produced (eval and launch counts, structure counts of the local
/// plan summed over its pieces, phase seconds, device deltas) plus the LET
/// fields RunStats lacks. As in RunStats, phase seconds, RMA counters, tree
/// builds and device bytes are deltas — costs paid in a lifecycle call land
/// on the first evaluation that uses them — so a repeat evaluation on an
/// unchanged plan reports zero RMA gets, zero tree builds, and near-zero
/// setup/precompute seconds. The incremental-update fields stay zero; an
/// incremental update_positions shows as tree_builds == 0.
struct RankStats : RunStats {
  // Structure of the rank's LET (stable while the plan is unchanged).
  std::size_t local_particles = 0;
  std::size_t let_remote_clusters = 0;   ///< remote clusters in this rank's LET
  std::size_t let_remote_particles = 0;  ///< remote particles actually fetched

  // LET refresh deltas for this evaluation.
  std::size_t tree_builds = 0;  ///< local tree constructions paid here
  std::size_t rma_gets = 0;     ///< one-sided gets issued since last report
  std::size_t rma_bytes = 0;    ///< bytes pulled since last report
  /// Bytes of *charge* data fetched by the most recent LET exchange or
  /// refresh: modified charges of MAC-accepted clusters plus raw charges of
  /// direct-fetched ranges. After update_charges, rma_bytes equals exactly
  /// this (no tree geometry or coordinates cross the network again).
  std::size_t let_charge_bytes = 0;
};

/// Statistics for one distributed evaluation. The inherited RunStats is the
/// bulk-synchronous view: phase seconds and modeled times are the maximum
/// over ranks, counts (evals, launches, structure, device bytes) the sum.
struct DistStats : RunStats {
  std::vector<RankStats> per_rank;
};

/// Everything needed to construct a DistSolver.
struct DistConfig {
  KernelSpec kernel;
  DistParams params;
  int nranks = 1;
};

/// Plan/execute distributed treecode handle (see file comment for the
/// lifecycle). Targets are the sources themselves (the paper's distributed
/// configuration: every rank evaluates the potential at its own particles).
/// Not thread-safe externally; internally each lifecycle call is a
/// bulk-synchronous phase over the in-process ranks.
class DistSolver {
 public:
  /// Validates the configuration (throws std::invalid_argument on bad
  /// treecode parameters, nranks < 1, the dual traversal, or periodic
  /// boundaries); under Backend::kGpuSim creates one modeled device per
  /// rank.
  explicit DistSolver(DistConfig config);
  ~DistSolver();
  DistSolver(DistSolver&&) noexcept;
  DistSolver& operator=(DistSolver&&) noexcept;
  DistSolver(const DistSolver&) = delete;
  DistSolver& operator=(const DistSolver&) = delete;

  const DistConfig& config() const { return config_; }
  int nranks() const { return config_.nranks; }
  bool has_sources() const { return have_sources_; }
  std::size_t num_sources() const { return num_sources_; }

  /// Build the distributed plan: RCB decomposition, per-rank source trees
  /// and target batches, moment precompute, and the LET exchange (remote
  /// trees, modified charges of MAC-accepted clusters, particle ranges of
  /// direct clusters) over freshly registered RMA windows. The windows stay
  /// live for later charge refreshes. If it throws, the handle holds no
  /// sources until a later set_sources succeeds.
  void set_sources(const Cloud& cloud);

  /// Incremental path: charges changed, positions did not. Keeps every
  /// tree, list, and window; recomputes the local modified charges and
  /// re-fetches only the *charge* bytes of each rank's LET (modified
  /// charges + direct-range particle charges) through the existing windows.
  /// `charges` is in caller order, one per source.
  void update_charges(std::span<const double> charges);

  /// Positions changed. With `position_slack > 0` and a live plan, each rank
  /// patches its local source plan in place (dirty-cluster moment rebuilds)
  /// and refreshes its LET — modified charges of MAC-accepted clusters plus
  /// coordinates and charges of direct-fetched ranges — through the existing
  /// RMA windows, with no re-partition, no tree builds, and no list
  /// rebuilds. The incremental path additionally requires that no particle
  /// escaped its slack-fattened leaf on any rank: a re-bucket permutes
  /// (reallocates) the tree-ordered particle storage the RMA windows expose
  /// and shifts the node ranges remote direct fetches reference. If any rank
  /// cannot patch (escape, failpoint, size change, or
  /// `position_slack == 0`), every rank falls back in lock-step to the full
  /// re-plan including the RCB re-partition.
  void update_positions(const Cloud& cloud);

  /// Compute potentials at every source particle, in the caller's order.
  /// Repeat calls on an unchanged plan re-execute the cached per-rank plans
  /// with zero communication and zero tree work.
  std::vector<double> evaluate(DistStats* stats = nullptr);

  /// Compute potentials and fields E = -grad phi at every source particle,
  /// sharing the cached plans. Backend::kCpu only: the device model has no
  /// field launches.
  FieldResult evaluate_field(DistStats* stats = nullptr);

 private:
  struct RankState;

  void plan(const Cloud& cloud);
  void release_plan();  ///< collective teardown of windows + per-rank state
  /// Shared back half of evaluate/evaluate_field: on every rank, take over
  /// the pending lifecycle costs and run `execute` (evaluation + result
  /// scatter, adding into the rank's RankStats), then fill the RMA deltas
  /// and LET counts, and reduce the
  /// bulk-synchronous view.
  void run_evaluation(DistStats& stats,
                      const std::function<void(RankState&, RankStats&)>&
                          execute);

  DistConfig config_;
  std::unique_ptr<simmpi::RankTeam> team_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  bool have_sources_ = false;
  std::size_t num_sources_ = 0;
};

/// Compute potentials of `cloud` on itself across `nranks` in-process ranks
/// (targets == sources, the paper's distributed configuration), in the
/// caller's order; fills `stats` when non-null. One rank degenerates to the
/// serial pipeline with no communication. One-shot wrapper over a temporary
/// DistSolver; drivers that evaluate repeatedly should hold a DistSolver
/// instead.
std::vector<double> compute_potential_distributed(const Cloud& cloud,
                                                  const KernelSpec& kernel,
                                                  const DistParams& params,
                                                  int nranks,
                                                  DistStats* stats = nullptr);

}  // namespace bltc::dist
