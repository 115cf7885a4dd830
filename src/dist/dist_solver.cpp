#include "dist/dist_solver.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/cpu_kernels.hpp"
#include "core/plan.hpp"
#include "dist/let.hpp"
#include "gpusim/cost_model.hpp"
#include "serve/exec_context.hpp"
#include "partition/rcb.hpp"
#include "simmpi/comm.hpp"
#include "util/box.hpp"
#include "util/failpoints.hpp"
#include "util/timer.hpp"

namespace bltc::dist {

/// Everything one rank owns across lifecycle calls: its modeled device
/// (Backend::kGpuSim), its local plan, the assembled remote LET pieces, and
/// the storage its RMA windows expose. The windows outlive individual team
/// runs (simmpi::RankTeam keeps the Context and Comm handles alive), so a
/// charge refresh re-fetches through the windows registered at plan time.
struct DistSolver::RankState {
  int rank = 0;
  /// The rank's modeled device (Backend::kGpuSim only, null otherwise).
  std::unique_ptr<gpusim::CostModel> gpu;
  /// Per-rank execution scratch (one rank = one evaluation stream, so the
  /// context is never shared across threads).
  ExecContext exec;

  // Local plan.
  std::vector<std::size_t> owned;  ///< original indices of local particles
  SourcePlanState source;
  TargetPlanState targets;

  /// One remote rank's LET slice, a source plan of its own: the remote
  /// tree, grids recomputed locally from its boxes with the fetched
  /// modified charges (its one ladder level), and the fetched particle
  /// ranges (unfetched slots stay zero and are never referenced by the
  /// lists; `plan.held_particles` counts the fetched ones).
  struct Remote {
    int rank = -1;
    SourcePlanState plan;
    std::vector<int> approx_nodes;  ///< MAC-accepted clusters (charge fetch)
    std::vector<std::pair<std::size_t, std::size_t>> ranges;  ///< direct fetch
    std::size_t clusters_in_let = 0;

    /// Fetch the modified charges of the MAC-accepted clusters through
    /// `qhat_win` into the piece's ladder level; returns the bytes pulled.
    std::size_t fetch_qhat(simmpi::Window<double>& qhat_win) {
      ClusterMoments& moments = plan.moment_levels.front();
      const std::size_t ppc = moments.points_per_cluster();
      for (const int ci : approx_nodes) {
        qhat_win.get(rank, static_cast<std::size_t>(ci) * ppc,
                     moments.qhat_mutable(ci));
      }
      return approx_nodes.size() * ppc * sizeof(double);
    }
  };
  std::vector<Remote> remotes;

  // RMA window exposures. The vectors (and the source plan's modified and
  // raw charge arrays) must stay alive and in place while windows live.
  std::vector<double> tree_blob;
  std::vector<double> coords;  ///< tree-order x y z interleaved
  std::unique_ptr<simmpi::Window<double>> tree_win, qhat_win, coord_win,
      charge_win;

  /// Costs paid in lifecycle calls (phase seconds, tree builds); the next
  /// evaluation takes them over.
  RankStats pending;
  /// Charge bytes of the most recent LET exchange or refresh.
  std::size_t let_charge_bytes = 0;

  // Snapshots of the cumulative per-rank communication counters.
  std::size_t reported_gets = 0;
  std::size_t reported_bytes = 0;

  /// Collective window teardown (must run on this rank's thread so the
  /// destructor barriers pair across ranks).
  void release_windows() {
    charge_win.reset();
    coord_win.reset();
    qhat_win.reset();
    tree_win.reset();
  }

  /// The evaluate call's source pieces: the local plan, then the LET pieces
  /// in rank order, all-fp64.
  std::vector<SourcePlan> pieces() const {
    std::vector<SourcePlan> out{source.view()};
    for (const Remote& rem : remotes) {
      SourcePlan piece = rem.plan.view();
      piece.fp32 = false;
      out.push_back(piece);
    }
    return out;
  }
};

namespace {

Cloud gather_cloud(const Cloud& cloud, const std::vector<std::size_t>& idx) {
  Cloud local;
  local.resize(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    local.x[i] = cloud.x[idx[i]];
    local.y[i] = cloud.y[idx[i]];
    local.z[i] = cloud.z[idx[i]];
    local.q[i] = cloud.q[idx[i]];
  }
  return local;
}

}  // namespace

DistSolver::DistSolver(DistConfig config) : config_(std::move(config)) {
  config_.params.treecode.validate();
  if (config_.nranks < 1) {
    throw std::invalid_argument("DistSolver: nranks must be >= 1");
  }
  GpuOptions gpu;
  gpu.device = config_.params.device;
  gpu.async_streams = config_.params.async_streams;
  gpu.host = config_.params.host;
  team_ = std::make_unique<simmpi::RankTeam>(config_.nranks);
  ranks_.reserve(static_cast<std::size_t>(config_.nranks));
  for (int r = 0; r < config_.nranks; ++r) {
    auto state = std::make_unique<RankState>();
    state->rank = r;
    if (config_.params.backend == Backend::kGpuSim) {
      state->gpu = std::make_unique<gpusim::CostModel>(gpu);
    }
    ranks_.push_back(std::move(state));
  }
  if (config_.params.treecode.traversal == TraversalMode::kDual) {
    throw std::invalid_argument(
        "DistSolver: TraversalMode::kDual is not supported in the "
        "distributed solver yet — the LET fetches modified charges for PC "
        "pairs and particles for direct pairs, and has no fetch rule for "
        "the CP/CC pairs' target grids. Use TraversalMode::kBatched here, "
        "or the serial Solver for the dual traversal.");
  }
  if (config_.params.treecode.periodic()) {
    throw std::invalid_argument(
        "DistSolver: periodic boundary conditions are not supported in the "
        "distributed solver yet — the LET exchange ships remote trees and "
        "modified charges but no shift tables, so locally essential trees "
        "cannot be traversed against lattice images (a remote cluster that "
        "fails the MAC only through a shifted image would never be "
        "fetched), and kPeriodicMesh's FFT far field is a global solve "
        "with no rank decomposition. Use BoundaryConditions::kOpen here, "
        "or the serial Solver for periodic domains.");
  }
}

DistSolver::~DistSolver() {
  try {
    release_plan();
  } catch (...) {
    // Destructor teardown must not throw; a failed collective here means a
    // rank already died with its own exception.
  }
}

DistSolver::DistSolver(DistSolver&&) noexcept = default;

DistSolver& DistSolver::operator=(DistSolver&& other) noexcept {
  if (this != &other) {
    // A defaulted move-assign would destroy this solver's RankTeam before
    // the RankStates' live windows, whose destructors barrier on it —
    // collective teardown must happen first, inside a team run.
    try {
      release_plan();
    } catch (...) {
    }
    config_ = std::move(other.config_);
    team_ = std::move(other.team_);
    ranks_ = std::move(other.ranks_);
    have_sources_ = other.have_sources_;
    num_sources_ = other.num_sources_;
  }
  return *this;
}

void DistSolver::release_plan() {
  if (team_ == nullptr || ranks_.empty()) return;
  const bool have_windows = ranks_.front()->tree_win != nullptr;
  if (!have_windows) return;
  team_->run([&](simmpi::Comm& comm) {
    RankState& s = *ranks_[static_cast<std::size_t>(comm.rank())];
    s.release_windows();
    s.remotes.clear();
  });
}

void DistSolver::plan(const Cloud& cloud) {
  const TreecodeParams& tc = config_.params.treecode;
  const std::size_t n = cloud.size();
  const int nranks = config_.nranks;

  // Domain decomposition (the paper's Zoltan step): deterministic RCB over
  // the full cloud, computed once up front. Each rank owns the particles of
  // one part, kept in original order so one rank reproduces the serial
  // pipeline exactly.
  const Box3 domain =
      minimal_bounding_box_range(cloud.x, cloud.y, cloud.z, 0, n);
  const RcbResult rcb =
      rcb_partition(cloud.x, cloud.y, cloud.z,
                    static_cast<std::size_t>(nranks), domain);
  std::vector<std::vector<std::size_t>> owned =
      rcb_owned_indices(rcb, static_cast<std::size_t>(nranks));

  team_->run([&](simmpi::Comm& comm) {
    const int rank = comm.rank();
    RankState& s = *ranks_[static_cast<std::size_t>(rank)];

    // ---- Local setup: source tree, target batches, local lists.
    WallTimer timer;
    s.owned = std::move(owned[static_cast<std::size_t>(rank)]);
    const Cloud local = gather_cloud(cloud, s.owned);
    s.source = SourcePlanState::build(local, tc);
    s.targets = TargetPlanState::plan(local, tc);
    s.targets.append_lists(s.source.tree, tc);
    s.pending.tree_builds += 1;
    s.pending.setup_seconds += timer.seconds();

    // ---- Local precompute: modified charges for every local cluster.
    timer.reset();
    s.source.build_moments(traversal_ladder_levels(tc));
    s.pending.precompute_seconds += timer.seconds();

    // ---- Exposure: serialize the local tree and expose tree blob,
    // modified charges, tree-ordered coordinates, and tree-ordered charges
    // through collective RMA windows. Coordinates and charges are separate
    // windows so a charge refresh can re-fetch charges alone.
    timer.reset();
    s.tree_blob = serialize_tree(s.source.tree);
    const OrderedParticles& src = s.source.particles;
    s.coords.resize(3 * src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      s.coords[3 * i + 0] = src.x[i];
      s.coords[3 * i + 1] = src.y[i];
      s.coords[3 * i + 2] = src.z[i];
    }
    s.tree_win = std::make_unique<simmpi::Window<double>>(
        comm, std::span<double>(s.tree_blob));
    s.qhat_win = std::make_unique<simmpi::Window<double>>(
        comm, s.source.moment_levels.front().all_qhat_mutable());
    s.coord_win = std::make_unique<simmpi::Window<double>>(
        comm, std::span<double>(s.coords));
    s.charge_win = std::make_unique<simmpi::Window<double>>(
        comm, std::span<double>(s.source.particles.q));

    // ---- LET construction: pull each remote tree, traverse it with the
    // local batches, and fetch only what the traversal needs.
    s.remotes.clear();
    s.let_charge_bytes = 0;
    s.remotes.reserve(static_cast<std::size_t>(nranks) - 1);
    for (int r = 0; r < nranks; ++r) {
      if (r == rank) continue;
      RankState::Remote rem;
      rem.rank = r;
      SourcePlanState& piece = rem.plan;
      piece.params = tc;

      std::vector<double> head(1);
      s.tree_win->get(r, 0, head);
      const std::size_t rnodes = static_cast<std::size_t>(head[0]);
      std::vector<double> rblob(1 + rnodes * kNodeRecordSize);
      rblob[0] = head[0];
      s.tree_win->get(r, 1, std::span<double>(rblob).subspan(1));
      piece.tree = deserialize_tree(rblob);

      const std::size_t index = s.targets.append_lists(piece.tree, tc);
      const DualInteractionLists& rlists = s.targets.lists[index];

      rem.approx_nodes = collect_unique_nodes(rlists, DualKind::kPC);
      const std::vector<int> direct_nodes =
          collect_unique_nodes(rlists, DualKind::kDirect);
      rem.clusters_in_let = rem.approx_nodes.size() + direct_nodes.size();

      // Grids are geometry-determined: recompute locally from the remote
      // boxes; only the modified charges cross the network.
      piece.moment_levels.push_back(
          ClusterMoments::grids_only(piece.tree, tc.degree));
      s.let_charge_bytes += rem.fetch_qhat(*s.qhat_win);

      // Remote particles for direct interactions: coalesced tree-order
      // ranges. Unfetched slots stay zero and are never indexed.
      const std::size_t rcount = piece.tree.node(piece.tree.root()).end;
      piece.particles.x.assign(rcount, 0.0);
      piece.particles.y.assign(rcount, 0.0);
      piece.particles.z.assign(rcount, 0.0);
      piece.particles.q.assign(rcount, 0.0);
      rem.ranges = merge_node_ranges(piece.tree, direct_nodes);
      std::vector<double> buf;
      for (const auto& range : rem.ranges) {
        const std::size_t count = range.second - range.first;
        buf.resize(3 * count);
        s.coord_win->get(r, 3 * range.first, buf);
        for (std::size_t i = 0; i < count; ++i) {
          piece.particles.x[range.first + i] = buf[3 * i + 0];
          piece.particles.y[range.first + i] = buf[3 * i + 1];
          piece.particles.z[range.first + i] = buf[3 * i + 2];
        }
        s.charge_win->get(
            r, range.first,
            std::span<double>(piece.particles.q.data() + range.first, count));
        s.let_charge_bytes += count * sizeof(double);
        piece.held_particles += count;
      }
      piece.mark_changed(PlanChange::Kind::kRebuilt);
      s.remotes.push_back(std::move(rem));
    }
    s.pending.setup_seconds += timer.seconds();

    // Exposures must stay readable until every rank finished fetching.
    comm.barrier();
  });
}

void DistSolver::set_sources(const Cloud& cloud) {
  release_plan();
  // A failed plan commits no sources: the handle must not evaluate over a
  // partial LET.
  have_sources_ = false;
  num_sources_ = cloud.size();
  if (cloud.size() != 0) plan(cloud);
  have_sources_ = true;
}

void DistSolver::update_charges(std::span<const double> charges) {
  if (!have_sources_) {
    throw std::logic_error("DistSolver::update_charges: no sources set");
  }
  if (charges.size() != num_sources_) {
    throw std::invalid_argument(
        "DistSolver::update_charges: charge count does not match the "
        "sources");
  }
  if (num_sources_ == 0) return;

  team_->run([&](simmpi::Comm& comm) {
    RankState& s = *ranks_[static_cast<std::size_t>(comm.rank())];

    // ---- Local precompute: rewrite the local charges in place (the charge
    // window exposes this storage) and recompute the modified charges (the
    // qhat window exposure refreshes in place too).
    WallTimer timer;
    std::vector<double> local_q(s.owned.size());
    for (std::size_t i = 0; i < s.owned.size(); ++i) {
      local_q[i] = charges[s.owned[i]];
    }
    s.source.update_charges(local_q);
    s.pending.precompute_seconds += timer.seconds();

    // Every rank's exposures must be refreshed before anyone re-fetches.
    comm.barrier();

    // ---- LET charge refresh: re-fetch only the charge bytes — modified
    // charges of MAC-accepted clusters and raw charges of direct-fetched
    // ranges. Trees, lists, grids, and coordinates are untouched.
    timer.reset();
    s.let_charge_bytes = 0;
    for (RankState::Remote& rem : s.remotes) {
      s.let_charge_bytes += rem.fetch_qhat(*s.qhat_win);
      for (const auto& range : rem.ranges) {
        const std::size_t count = range.second - range.first;
        s.charge_win->get(
            rem.rank, range.first,
            std::span<double>(rem.plan.particles.q.data() + range.first,
                              count));
        s.let_charge_bytes += count * sizeof(double);
      }
      rem.plan.mark_changed(PlanChange::Kind::kCharges);
    }
    s.pending.setup_seconds += timer.seconds();

    // Fetches must complete before any rank mutates its exposures again.
    comm.barrier();
  });
}

void DistSolver::update_positions(const Cloud& cloud) {
  const TreecodeParams& tc = config_.params.treecode;
  const bool eligible = have_sources_ && num_sources_ > 0 &&
                        cloud.size() == num_sources_ &&
                        tc.position_slack > 0.0 && !ranks_.empty() &&
                        ranks_.front()->tree_win != nullptr;
  if (!eligible) {
    set_sources(cloud);
    return;
  }

  // Any rank that cannot patch in place raises this flag; the checks sit
  // immediately after barriers so every rank takes the same branch and the
  // collective barrier counts stay uniform across ranks.
  std::atomic<bool> fallback{false};
  team_->run([&](simmpi::Comm& comm) {
    RankState& s = *ranks_[static_cast<std::size_t>(comm.rank())];

    // ---- Phase 1: patch the local source plan in place — particles and
    // dirty-cluster moments, which refreshes the qhat window exposure in
    // place. A re-bucket is fatal here even though the serial solver
    // tolerates it: the permutation reallocates the tree-ordered charge
    // storage the charge window exposes and shifts node ranges that remote
    // direct fetches reference by offset.
    WallTimer timer;
    bool ok = false;
    const Cloud local = gather_cloud(cloud, s.owned);
    try {
      ok = s.source.update_positions(local) && s.source.change.rebucketed == 0;
    } catch (const TransientError&) {
      ok = false;
    }
    if (!ok) fallback.store(true, std::memory_order_relaxed);
    s.pending.precompute_seconds += timer.seconds();
    comm.barrier();
    if (fallback.load(std::memory_order_relaxed)) return;

    // ---- Phase 2: the local targets are the same physical particles:
    // patch them too, or a moved source sits epsilon away from its stale
    // target twin and the singular self-interaction guard (exact r == 0)
    // stops firing. Mirror the moved slots into the coordinate window; the
    // charge window already sees the in-place charge writes.
    timer.reset();
    if (!s.targets.update_positions_self(local, /*source_rebucketed=*/false)) {
      fallback.store(true, std::memory_order_relaxed);
    }
    const OrderedParticles& src = s.source.particles;
    for (const auto& range : s.source.change.moved_ranges) {
      for (std::size_t i = range.first; i < range.second; ++i) {
        s.coords[3 * i + 0] = src.x[i];
        s.coords[3 * i + 1] = src.y[i];
        s.coords[3 * i + 2] = src.z[i];
      }
    }
    s.pending.setup_seconds += timer.seconds();
    // Every rank's exposures must be coherent before anyone re-fetches.
    comm.barrier();
    if (fallback.load(std::memory_order_relaxed)) return;

    // ---- Phase 3: LET refresh through the existing windows — modified
    // charges of MAC-accepted clusters plus coordinates and charges of the
    // direct-fetched ranges. Trees, lists, and grids are untouched (remote
    // fat boxes still contain their particles, so every MAC admission
    // holds), and with zero re-buckets everywhere the fetched ranges still
    // address the same remote slots.
    timer.reset();
    try {
      s.let_charge_bytes = 0;
      std::vector<double> buf;
      for (RankState::Remote& rem : s.remotes) {
        OrderedParticles& particles = rem.plan.particles;
        s.let_charge_bytes += rem.fetch_qhat(*s.qhat_win);
        for (const auto& range : rem.ranges) {
          const std::size_t count = range.second - range.first;
          buf.resize(3 * count);
          s.coord_win->get(rem.rank, 3 * range.first, buf);
          for (std::size_t i = 0; i < count; ++i) {
            particles.x[range.first + i] = buf[3 * i + 0];
            particles.y[range.first + i] = buf[3 * i + 1];
            particles.z[range.first + i] = buf[3 * i + 2];
          }
          s.charge_win->get(
              rem.rank, range.first,
              std::span<double>(particles.q.data() + range.first, count));
          s.let_charge_bytes += 4 * count * sizeof(double);
        }
        rem.plan.mark_changed(PlanChange::Kind::kPositions);
      }
    } catch (const TransientError&) {
      fallback.store(true, std::memory_order_relaxed);
    }
    s.pending.setup_seconds += timer.seconds();
    // Fetches must complete before any rank mutates its exposures again.
    comm.barrier();
  });
  if (fallback.load(std::memory_order_relaxed)) {
    // Lock-step fallback: the plan on some rank could not be patched;
    // rebuild everything from the caller's cloud.
    set_sources(cloud);
  }
}

void DistSolver::run_evaluation(
    DistStats& stats,
    const std::function<void(RankState&, RankStats&)>& execute) {
  const bool on_gpu = config_.params.backend == Backend::kGpuSim;
  team_->run([&](simmpi::Comm& comm) {
    RankState& s = *ranks_[static_cast<std::size_t>(comm.rank())];
    // The pending costs move over only once the evaluation succeeded, so a
    // failed call can be retried.
    RankStats st = s.pending;
    execute(s, st);
    s.pending = RankStats{};

    st.local_particles = s.owned.size();
    st.num_clusters = s.source.tree.num_nodes();
    st.num_leaves = s.source.tree.num_leaves();
    s.targets.add_counts(st);
    for (const RankState::Remote& rem : s.remotes) {
      st.let_remote_clusters += rem.clusters_in_let;
      st.let_remote_particles += rem.plan.held_particles;
    }
    st.let_charge_bytes = s.let_charge_bytes;

    const std::size_t gets = team_->context().gets_issued(s.rank);
    const std::size_t bytes = team_->context().bytes_gotten(s.rank);
    st.rma_gets = gets - s.reported_gets;
    st.rma_bytes = bytes - s.reported_bytes;
    s.reported_gets = gets;
    s.reported_bytes = bytes;
    if (on_gpu) {
      st.modeled.setup += gpusim::comm_seconds(config_.params.network,
                                               st.rma_gets, st.rma_bytes);
    }
    stats.per_rank[static_cast<std::size_t>(comm.rank())] = std::move(st);
  });

  // Bulk-synchronous view: the slowest rank sets each phase's time, counts
  // add up over ranks (the distributed path is batched-only and open: no
  // CP/CC pairs, no mesh).
  for (const RankStats& st : stats.per_rank) {
    stats.setup_seconds = std::max(stats.setup_seconds, st.setup_seconds);
    stats.precompute_seconds =
        std::max(stats.precompute_seconds, st.precompute_seconds);
    stats.compute_seconds = std::max(stats.compute_seconds, st.compute_seconds);
    stats.modeled.setup = std::max(stats.modeled.setup, st.modeled.setup);
    stats.modeled.precompute =
        std::max(stats.modeled.precompute, st.modeled.precompute);
    stats.modeled.compute = std::max(stats.modeled.compute, st.modeled.compute);
    stats.num_clusters += st.num_clusters;
    stats.num_leaves += st.num_leaves;
    stats.num_batches += st.num_batches;
    stats.approx_interactions += st.approx_interactions;
    stats.direct_interactions += st.direct_interactions;
    stats.precision_demotions += st.precision_demotions;
    stats.approx_evals += st.approx_evals;
    stats.direct_evals += st.direct_evals;
    stats.fp32_evals += st.fp32_evals;
    stats.fp64_evals += st.fp64_evals;
    stats.approx_launches += st.approx_launches;
    stats.direct_launches += st.direct_launches;
    stats.gpu_launches += st.gpu_launches;
    stats.bytes_to_device += st.bytes_to_device;
    stats.bytes_to_host += st.bytes_to_host;
  }
}

std::vector<double> DistSolver::evaluate(DistStats* stats) {
  if (!have_sources_) {
    throw std::logic_error("DistSolver::evaluate: call set_sources first");
  }
  DistStats local;
  local.per_rank.resize(static_cast<std::size_t>(config_.nranks));
  std::vector<double> result(num_sources_, 0.0);
  if (num_sources_ == 0) {
    if (stats != nullptr) *stats = std::move(local);
    return result;
  }

  run_evaluation(local, [&](RankState& s, RankStats& st) {
    WallTimer timer;
    const std::vector<SourcePlan> pieces = s.pieces();
    const TargetPlan view = s.targets.view();
    if (s.gpu != nullptr) s.gpu->stage(pieces, view);
    const std::vector<double> phi = evaluate_plan(
        pieces, view, config_.kernel, st, &s.exec.cpu_workspace());
    if (s.gpu != nullptr) {
      s.gpu->model_potential(pieces, view, config_.kernel, st);
    }
    st.compute_seconds = timer.seconds();

    // ---- Scatter: local tree-order potentials back to the caller's
    // original indices (ranks own disjoint index sets).
    const std::vector<double> local_phi =
        s.targets.particles.scatter_to_original(phi);
    for (std::size_t i = 0; i < s.owned.size(); ++i) {
      result[s.owned[i]] = local_phi[i];
    }
  });
  if (stats != nullptr) *stats = std::move(local);
  return result;
}

FieldResult DistSolver::evaluate_field(DistStats* stats) {
  if (!have_sources_) {
    throw std::logic_error("DistSolver::evaluate_field: call set_sources "
                           "first");
  }
  if (config_.params.backend == Backend::kGpuSim) {
    throw std::invalid_argument(
        "distributed field evaluation has no GpuSim device model; use "
        "Backend::kCpu");
  }
  DistStats local;
  local.per_rank.resize(static_cast<std::size_t>(config_.nranks));
  FieldResult result;
  result.phi.assign(num_sources_, 0.0);
  result.ex.assign(num_sources_, 0.0);
  result.ey.assign(num_sources_, 0.0);
  result.ez.assign(num_sources_, 0.0);
  if (num_sources_ == 0) {
    if (stats != nullptr) *stats = std::move(local);
    return result;
  }

  run_evaluation(local, [&](RankState& s, RankStats& st) {
    WallTimer timer;
    const FieldResult tree_order =
        evaluate_plan_field(s.pieces(), s.targets.view(), config_.kernel, st,
                            &s.exec.cpu_workspace());
    st.compute_seconds = timer.seconds();

    const OrderedParticles& tgt = s.targets.particles;
    const std::vector<double> phi = tgt.scatter_to_original(tree_order.phi);
    const std::vector<double> ex = tgt.scatter_to_original(tree_order.ex);
    const std::vector<double> ey = tgt.scatter_to_original(tree_order.ey);
    const std::vector<double> ez = tgt.scatter_to_original(tree_order.ez);
    for (std::size_t i = 0; i < s.owned.size(); ++i) {
      result.phi[s.owned[i]] = phi[i];
      result.ex[s.owned[i]] = ex[i];
      result.ey[s.owned[i]] = ey[i];
      result.ez[s.owned[i]] = ez[i];
    }
  });
  if (stats != nullptr) *stats = std::move(local);
  return result;
}

std::vector<double> compute_potential_distributed(const Cloud& cloud,
                                                  const KernelSpec& kernel,
                                                  const DistParams& params,
                                                  int nranks,
                                                  DistStats* stats) {
  DistConfig config;
  config.kernel = kernel;
  config.params = params;
  config.nranks = nranks;
  DistSolver solver(std::move(config));
  solver.set_sources(cloud);
  return solver.evaluate(stats);
}

}  // namespace bltc::dist
