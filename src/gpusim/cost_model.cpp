#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "gpusim/perf_model.hpp"
#include "mesh/mesh.hpp"
#include "util/failpoints.hpp"

namespace bltc::gpusim {

double kernel_eval_weight(const KernelSpec& spec, bool on_gpu) {
  switch (spec.type) {
    case KernelType::kCoulomb:
      return 1.0;
    case KernelType::kYukawa:
      // exp + div: the paper measures ~1.5x (GPU) / ~1.8x (CPU) vs Coulomb.
      return on_gpu ? 1.5 : 1.8;
    case KernelType::kGaussian:
      return on_gpu ? 1.3 : 1.5;
    case KernelType::kMultiquadric:
      return 1.1;
    case KernelType::kInverseSquare:
      return 0.9;
    case KernelType::kCoulombErfc:
      // erfc + exp + div: comparable transcendental load to Yukawa.
      return on_gpu ? 1.5 : 1.8;
  }
  return 1.0;
}

namespace {

/// Element size of the resident cluster arrays (grids + modified charges).
/// Under a non-fp64 precision policy they are fp32-resident: only far-field
/// launches read them, so a real implementation ships them as floats and
/// the modeled transfer is half the bytes.
std::size_t cluster_elem_bytes(const TreecodeParams& params) {
  return params.precision != PrecisionPolicy::kFp64 ? sizeof(float)
                                                    : sizeof(double);
}

/// What a device holding plan version `resident` must upload for a plan at
/// `change`: nothing, the recorded delta, or the whole plan.
enum class Upload { kNone, kWhole, kCharges, kPositions };

Upload upload_for(const PlanChange* change, std::uint64_t resident) {
  if (change == nullptr) return Upload::kWhole;  // unversioned view
  if (change->version == resident) return Upload::kNone;
  if (resident == 0 || change->base != resident) return Upload::kWhole;
  switch (change->kind) {
    case PlanChange::Kind::kCharges:
      return Upload::kCharges;
    case PlanChange::Kind::kPositions:
      return Upload::kPositions;
    case PlanChange::Kind::kRebuilt:
      break;
  }
  return Upload::kWhole;
}

/// Slots covered by a change's moved ranges.
std::size_t moved_slots(const PlanChange& change) {
  std::size_t moved = 0;
  for (const auto& range : change.moved_ranges) {
    moved += range.second - range.first;
  }
  return moved;
}

/// Modeled weight of a launch's evaluations: tiles the host executed fp32
/// run at the 2:1 FP32:FP64 throughput of the paper's GPUs (Titan V).
double precision_factor(bool fp32) { return fp32 ? 0.5 : 1.0; }

}  // namespace

CostModel::CostModel(const GpuOptions& options)
    : options_(options), device_(options.device, options.async_streams) {}

void CostModel::model_precompute(const SourcePlan& piece,
                                 std::span<const std::size_t> clusters) {
  const ClusterTree& tree = piece.plan->tree;
  const ClusterMoments& nominal = piece.moment_levels.front();
  const std::size_t m = static_cast<std::size_t>(nominal.degree()) + 1;
  const std::size_t ppc = nominal.points_per_cluster();
  const TimeMarker before = device_.marker();
  for (const std::size_t c : clusters) {
    const ClusterNode& node = tree.node(static_cast<int>(c));
    if (node.count() == 0) continue;
    // Preprocessing kernel 1 (Eq. 14): one block per source particle,
    // threads over the 3(n+1) denominator terms. O((n+1) N_C) work.
    KernelCost k1;
    k1.evals = static_cast<double>(node.count()) * static_cast<double>(m);
    k1.blocks = node.count();
    device_.launch(device_.next_stream(), k1);
    // Preprocessing kernel 2 (Eq. 15): one block per Chebyshev point,
    // threads over the cluster's source particles. O((n+1)^3 N_C) work.
    KernelCost k2;
    k2.evals = static_cast<double>(ppc) * static_cast<double>(node.count());
    k2.blocks = ppc;
    device_.launch(device_.next_stream(), k2);
  }
  device_.synchronize();
  // DtH: the modified charges return to the host, where (in the
  // distributed code) they are exposed through RMA windows.
  device_.device_to_host(clusters.size() * ppc * sizeof(double));
  staged_precompute_ +=
      device_.marker().kernel_seconds - before.kernel_seconds;
}

void CostModel::model_restrictions(const SourcePlan& piece,
                                   std::size_t levels, std::size_t clusters) {
  // Dual traversal: the coarse ladder levels are small tensor transfers of
  // the resident nominal charges, one launch per level.
  for (std::size_t l = 1; l < levels; ++l) {
    KernelCost cost;
    cost.evals = static_cast<double>(clusters) *
                 static_cast<double>(piece.moment_levels[l].points_per_cluster());
    cost.blocks = clusters;
    const TimeMarker before = device_.marker();
    device_.launch(device_.next_stream(), cost);
    device_.synchronize();
    staged_precompute_ +=
        device_.marker().kernel_seconds - before.kernel_seconds;
  }
}

void CostModel::stage(std::span<const SourcePlan> sources,
                      const TargetPlan& targets) {
  if (sources.empty() || targets.lists.size() != sources.size()) {
    throw std::logic_error(
        "CostModel::stage: one interaction list per source piece expected");
  }
  const SourcePlan& local = sources.front();
  const SourcePlanState& plan = *local.plan;
  // uploads[0] the local sources, [1] the targets, [2 + p] LET piece p.
  let_versions_.resize(sources.size() - 1, 0);
  std::vector<Upload> uploads = {upload_for(&plan.change, source_version_),
                                 upload_for(targets.change, target_version_)};
  for (std::size_t p = 1; p < sources.size(); ++p) {
    uploads.push_back(
        upload_for(&sources[p].plan->change, let_versions_[p - 1]));
  }
  // Injected before any device operation: a tripped staging leaves the
  // residency bookkeeping and the device timeline untouched, so the whole
  // call is retryable.
  const auto wants = [&](Upload u) {
    return std::find(uploads.begin(), uploads.end(), u) != uploads.end();
  };
  if (wants(Upload::kWhole) || wants(Upload::kCharges)) {
    failpoint(failpoints::sites::kGpuStage);
  }
  if (wants(Upload::kPositions)) {
    failpoint(failpoints::sites::kGpuPartialRestage);
  }
  // Uploads run in lifecycle order: the source plan, the target delta that
  // moved with it, the LET pieces assembled after it, and a new target
  // plan last, just ahead of the compute phase.
  const Upload source_upload = uploads[0];
  const Upload target_upload = uploads[1];

  // Local sources (§3.2 data management): the four source streams enter
  // the device data region once per source plan, the preprocessing kernels
  // and ladder restrictions run on the device, and the cluster data (grids
  // + modified charges of every ladder level the lists reference) stays
  // resident for the compute phase. A charges-only version re-uploads the
  // charge arrays alone; an in-topology position update ships only the
  // moved tree-order ranges and re-runs the kernels for the dirty clusters
  // — the grids are unchanged by construction.
  const std::size_t n = plan.size();
  const std::size_t nn = plan.tree.num_nodes();
  const std::size_t levels = targets.lists.front().ladder.size();
  const std::size_t elem = cluster_elem_bytes(plan.params);
  if (source_upload == Upload::kWhole || source_upload == Upload::kCharges) {
    const bool whole = source_upload == Upload::kWhole;
    for (int stream = 0; stream < (whole ? 4 : 1); ++stream) {
      device_.host_to_device(n * sizeof(double));
    }
    if (whole) staged_host_particles_ += n;
    std::vector<std::size_t> all(nn);
    std::iota(all.begin(), all.end(), std::size_t{0});
    model_precompute(local, all);
    model_restrictions(local, levels, nn);
    for (std::size_t l = 0; l < levels; ++l) {
      const ClusterMoments& level = local.moment_levels[l];
      if (whole) device_.host_to_device(level.all_grids().size() * elem);
      device_.host_to_device(level.all_qhat().size() * elem);
    }
  } else if (source_upload == Upload::kPositions) {
    const std::span<const std::size_t> dirty = plan.change.dirty_clusters;
    device_.host_to_device(4 * moved_slots(plan.change) * sizeof(double));
    model_precompute(local, dirty);
    model_restrictions(local, levels, dirty.size());
    for (std::size_t l = 0; l < levels; ++l) {
      device_.host_to_device(
          dirty.size() * local.moment_levels[l].points_per_cluster() * elem);
    }
  }
  source_version_ = plan.change.version;

  // Targets moved in place: only the moved coordinate ranges cross PCIe.
  if (target_upload == Upload::kPositions) {
    device_.host_to_device(3 * moved_slots(*targets.change) * sizeof(double));
  }

  // LET pieces: only the fetched particle subset crosses PCIe (the
  // placeholders outside the fetched ranges are never referenced), plus the
  // piece's cluster data — grids recomputed locally from the remote boxes
  // and the fetched modified charges (the LET's device footprint,
  // §3.1-3.2). Refreshes re-upload the charges, and the fetched coordinates
  // after a position update; grids and tree geometry stay resident.
  for (std::size_t p = 0; p + 1 < sources.size(); ++p) {
    const SourcePlan& piece = sources[1 + p];
    const std::size_t fetched = piece.plan->held_particles;
    const ClusterMoments& moments = piece.moment_levels.front();
    switch (uploads[2 + p]) {
      case Upload::kNone:
        break;
      case Upload::kWhole:
        device_.host_to_device(3 * fetched * sizeof(double));
        device_.host_to_device(fetched * sizeof(double));
        device_.host_to_device(moments.all_grids().size() * sizeof(double));
        device_.host_to_device(moments.all_qhat().size() * sizeof(double));
        // LET assembly is host-side setup work, like the local tree build.
        staged_host_particles_ += fetched;
        break;
      case Upload::kCharges:
        device_.host_to_device(moments.all_qhat().size() * sizeof(double));
        device_.host_to_device(fetched * sizeof(double));
        break;
      case Upload::kPositions:
        device_.host_to_device(4 * fetched * sizeof(double));
        device_.host_to_device(moments.all_qhat().size() * sizeof(double));
        break;
    }
    let_versions_[p] = piece.plan->change.version;
  }

  // A new target plan: coordinates, plus under the dual traversal the
  // target cluster grids (every ladder level); the per-node grid potentials
  // the CC/CP kernels accumulate into are a device-side allocation (no
  // transfer).
  if (target_upload == Upload::kWhole) {
    const std::size_t nt = targets.particles->size();
    for (int axis = 0; axis < 3; ++axis) {
      device_.host_to_device(nt * sizeof(double));
    }
    staged_host_particles_ += nt;
    if (!targets.grids.empty()) {
      std::size_t grid_doubles = 0;
      for (const ClusterMoments& g : targets.grids) {
        grid_doubles += g.all_grids().size();
      }
      device_.host_to_device(grid_doubles * sizeof(double));
    }
  }
  target_version_ = targets.change != nullptr ? targets.change->version : 0;

  if (targets.shifts != nullptr && !shift_table_staged_) {
    device_.host_to_device(targets.shifts->bytes());
    shift_table_staged_ = true;
  }
}

void CostModel::model_lists(const TargetPlan& targets,
                            const DualInteractionLists& lists,
                            const SourcePlan& piece, double weight) {
  const ClusterTree& source_tree = piece.plan->tree;
  const std::span<const ClusterMoments> levels = piece.moment_levels;
  const bool fp32 = piece.fp32;
  // The CPU walks the interaction lists and queues one kernel per
  // interaction, cycling the stream id (§3.2 asynchronous streams).
  const ClusterTree& target_tree = *targets.tree;
  const std::span<const ClusterMoments> grids = targets.grids;
  const std::size_t nn = target_tree.num_nodes();
  std::vector<unsigned char> flag(grids.size() * nn, 0);

  // CC / CP kernels: one launch per pair, one target grid point per block,
  // threads over the source stream (proxy points or particles).
  for (std::size_t g = 0; g < lists.grid_nodes.size(); ++g) {
    const int ti = lists.grid_nodes[g];
    for (std::size_t e = lists.grid_offsets[g]; e < lists.grid_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.grid_pairs[e];
      const std::size_t ppc = grids[pair.level].points_per_cluster();
      flag[pair.level * nn + static_cast<std::size_t>(ti)] = 1;
      const double sources =
          pair.kind == DualKind::kCC
              ? static_cast<double>(ppc)
              : static_cast<double>(source_tree.node(pair.source).count());
      KernelCost cost;
      cost.evals = weight * precision_factor(fp32 && pair.fp32 != 0) *
                   (static_cast<double>(ppc) * sources);
      cost.blocks = ppc;
      device_.launch(device_.next_stream(), cost);
    }
  }

  // Downward pass kernel chain, per ladder level: parent-to-children grid
  // transfers in node index order (parents before children), then one
  // leaf-to-particle interpolation per reached leaf. Interpolation is
  // kernel-independent work, so these launches carry no kernel weight.
  for (std::size_t level = 0; level < grids.size(); ++level) {
    const double ppc = static_cast<double>(grids[level].points_per_cluster());
    unsigned char* lflag = flag.data() + level * nn;
    for (std::size_t ni = 0; ni < nn; ++ni) {
      const ClusterNode& node = target_tree.node(static_cast<int>(ni));
      if (!lflag[ni] || node.is_leaf()) continue;
      KernelCost cost;
      cost.evals = static_cast<double>(node.num_children) * ppc;
      cost.blocks = static_cast<std::size_t>(node.num_children);
      device_.launch(device_.next_stream(), cost);
      for (int c = 0; c < node.num_children; ++c) {
        lflag[static_cast<std::size_t>(
            node.children[static_cast<std::size_t>(c)])] = 1;
      }
    }
    for (std::size_t ni = 0; ni < nn; ++ni) {
      const ClusterNode& node = target_tree.node(static_cast<int>(ni));
      if (!lflag[ni] || !node.is_leaf() || node.count() == 0) continue;
      KernelCost cost;
      cost.evals = static_cast<double>(node.count()) * ppc;
      cost.blocks = node.count();
      device_.launch(device_.next_stream(), cost);
    }
  }

  // PC / direct kernels with target leaves as batches: the batch-cluster
  // launch shapes (Eqs. 9 and 11), one target per block, threads over the
  // cluster's Chebyshev points or source particles; direct launches run
  // fp64 under every policy. Self mode evaluates each direct pair once for
  // both sides, and the diagonal pair is a triangular sum.
  for (std::size_t g = 0; g < lists.leaf_nodes.size(); ++g) {
    const ClusterNode& leaf = target_tree.node(lists.leaf_nodes[g]);
    const double count = static_cast<double>(leaf.count());
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.leaf_pairs[e];
      const double sources =
          pair.kind == DualKind::kPC
              ? static_cast<double>(levels[pair.level].points_per_cluster())
              : static_cast<double>(source_tree.node(pair.source).count());
      KernelCost cost;
      cost.blocks = leaf.count();
      if (pair.kind == DualKind::kPC) {
        cost.evals = weight * precision_factor(fp32 && pair.fp32 != 0) *
                     (count * sources);
      } else if (!lists.self) {
        cost.evals = weight * count * sources;
      } else if (pair.source == lists.leaf_nodes[g]) {
        cost.evals = weight * (count * (count - 1.0) / 2.0);
      } else {
        cost.evals = weight * (count * sources);
      }
      device_.launch(device_.next_stream(), cost);
    }
  }
  device_.synchronize();
}

void CostModel::model_potential(std::span<const SourcePlan> sources,
                                const TargetPlan& targets,
                                const KernelSpec& kernel, RunStats& stats) {
  // fp32 is charged exactly where the host ran fp32 tiles — tagged
  // interactions of a piece whose SourcePlan::fp32 is set.
  const double weight = kernel_eval_weight(kernel, /*on_gpu=*/true);
  const TimeMarker before = device_.marker();
  for (std::size_t p = 0; p < sources.size(); ++p) {
    model_lists(targets, targets.lists[p], sources[p], weight);
  }
  // DtH: final potentials (every evaluation downloads its results).
  device_.device_to_host(targets.particles->size() * sizeof(double));
  const TimeMarker after = device_.marker();

  // Modeled times on the paper's hardware: host-side setup work plus all
  // PCIe transfers since the last report are attributed to the setup phase
  // (the paper's setup includes data movement); kernel time splits by phase.
  stats.modeled.setup +=
      host_setup_seconds(options_.host, staged_host_particles_) +
      (after.transfer_seconds - reported_marker_.transfer_seconds);
  stats.modeled.precompute += staged_precompute_;
  stats.modeled.compute += after.kernel_seconds - before.kernel_seconds;
  staged_precompute_ = 0.0;
  staged_host_particles_ = 0;
  report(after, stats);
}

void CostModel::model_mesh(const mesh::MeshPlan& plan,
                           std::size_t num_targets, bool field,
                           RunStats& stats) {
  const mesh::MeshTuning& tuning = plan.tuning();
  const double grid = static_cast<double>(plan.grid_points());
  const double p3 = static_cast<double>(tuning.order) *
                    static_cast<double>(tuning.order) *
                    static_cast<double>(tuning.order);
  const TimeMarker before = device_.marker();

  if (plan.version() != mesh_version_staged_) {
    // Stage + solve the device-resident mesh for this source version:
    // charge spreading (one block per 128 sources, p^3 scattered grid
    // accumulations each), one batched-pencil launch per FFT dimension for
    // the forward and inverse transforms, and the k-space Green multiply
    // over the half spectrum. The solved grid then stays device-resident
    // until the sources change again.
    const double nsrc = static_cast<double>(plan.num_sources());
    {
      KernelCost cost;
      cost.evals = nsrc * p3;
      cost.blocks = (plan.num_sources() + 127) / 128;
      device_.launch(device_.next_stream(), cost);
    }
    const std::size_t dims[3] = {tuning.nx, tuning.ny, tuning.nz};
    for (int pass = 0; pass < 2; ++pass) {  // forward, then inverse
      for (int d = 0; d < 3; ++d) {
        KernelCost cost;
        cost.evals = grid * std::log2(static_cast<double>(dims[d]));
        // One block per pencil.
        cost.blocks = static_cast<std::size_t>(grid) / dims[d] + 1;
        device_.launch(device_.next_stream(), cost);
      }
      if (pass == 0) {
        KernelCost cost;
        cost.evals = grid / 2.0;  // Hermitian half spectrum
        cost.blocks = static_cast<std::size_t>(grid / 2.0) / 256 + 1;
        device_.launch(device_.next_stream(), cost);
      }
    }
    mesh_version_staged_ = plan.version();
  }

  // Per-call interpolation: one block per 128 targets, p^3 grid reads per
  // target (4x the accumulation work with analytic-gradient forces), then
  // the far-field results come down over PCIe.
  {
    KernelCost cost;
    cost.evals = static_cast<double>(num_targets) * p3 * (field ? 4.0 : 1.0);
    cost.blocks = num_targets / 128 + 1;
    device_.launch(device_.next_stream(), cost);
  }
  device_.device_to_host(num_targets * sizeof(double) * (field ? 4 : 1));
  const TimeMarker after = device_.marker();

  stats.modeled.compute += after.kernel_seconds - before.kernel_seconds;
  stats.modeled.setup += after.transfer_seconds - before.transfer_seconds;
  report(after, stats);
}

void CostModel::report(const TimeMarker& now, RunStats& stats) {
  // Device counters are cumulative; report deltas for this evaluation.
  stats.gpu_launches += device_.launches() - reported_launches_;
  stats.bytes_to_device += device_.bytes_to_device() - reported_bytes_htd_;
  stats.bytes_to_host += device_.bytes_to_host() - reported_bytes_dth_;
  reported_marker_ = now;
  reported_launches_ = device_.launches();
  reported_bytes_htd_ = device_.bytes_to_device();
  reported_bytes_dth_ = device_.bytes_to_host();
}

}  // namespace bltc::gpusim
