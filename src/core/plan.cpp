#include "core/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/chebyshev.hpp"
#include "core/solver.hpp"
#include "mesh/mesh.hpp"
#include "util/failpoints.hpp"

namespace bltc {

void TreecodeParams::validate() const {
  if (!std::isfinite(theta)) {
    throw std::invalid_argument("TreecodeParams: theta must be finite");
  }
  if (!(theta > 0.0) || theta >= 1.0) {
    throw std::invalid_argument("TreecodeParams: theta must be in (0, 1)");
  }
  if (degree < 0 || degree > 40) {
    throw std::invalid_argument("TreecodeParams: degree must be in [0, 40]");
  }
  if (max_leaf == 0 || max_batch == 0) {
    throw std::invalid_argument(
        "TreecodeParams: max_leaf and max_batch must be positive");
  }
  if (!std::isfinite(position_slack) || position_slack < 0.0 ||
      position_slack > 4.0) {
    throw std::invalid_argument(
        "TreecodeParams: position_slack must be finite and in [0, 4]");
  }
  if (precision != PrecisionPolicy::kFp64 &&
      precision != PrecisionPolicy::kMixed &&
      precision != PrecisionPolicy::kFp32Far) {
    throw std::invalid_argument(
        "TreecodeParams: precision must be kFp64, kMixed, or kFp32Far");
  }
  if (boundary != BoundaryConditions::kOpen) {
    for (int d = 0; d < 3; ++d) {
      const auto i = static_cast<std::size_t>(d);
      if (!std::isfinite(domain.lo[i]) || !std::isfinite(domain.hi[i])) {
        throw std::invalid_argument(
            "TreecodeParams: periodic domain bounds must be finite");
      }
    }
    if (!domain.valid() || domain.shortest() <= 0.0) {
      throw std::invalid_argument(
          "TreecodeParams: periodic boundary conditions require a valid "
          "domain box with positive extents");
    }
  }
  if (boundary == BoundaryConditions::kPeriodic) {
    if (image_shells < 0 || image_shells > 6) {
      throw std::invalid_argument(
          "TreecodeParams: image_shells must be in [0, 6] ((2k+1)^3 lattice "
          "images; 6 shells is already 2197 copies of the source tree)");
    }
  }
  if (boundary == BoundaryConditions::kPeriodicMesh) {
    if (mesh_order != 4 && mesh_order != 6 && mesh_order != 8) {
      throw std::invalid_argument(
          "TreecodeParams: mesh_order must be 4, 6, or 8 (even B-spline "
          "orders; odd orders center poorly on the grid)");
    }
    if (!std::isfinite(mesh_spacing) || mesh_spacing < 0.0) {
      throw std::invalid_argument(
          "TreecodeParams: mesh_spacing must be finite and >= 0 "
          "(0 = auto-tune)");
    }
    if (!std::isfinite(ewald_alpha) || ewald_alpha < 0.0) {
      throw std::invalid_argument(
          "TreecodeParams: ewald_alpha must be finite and >= 0 "
          "(0 = auto-tune)");
    }
  }
}

namespace {

/// Wrap tree-ordered particle coordinates into the primary cell in place
/// (the plan stores canonical representatives, making plan matching and
/// image arithmetic translation invariant).
void wrap_particles(OrderedParticles& particles, const Box3& domain) {
  const auto len = domain.lengths();
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles.x[i] = wrap_coordinate(particles.x[i], domain.lo[0], len[0]);
    particles.y[i] = wrap_coordinate(particles.y[i], domain.lo[1], len[1]);
    particles.z[i] = wrap_coordinate(particles.z[i], domain.lo[2], len[2]);
  }
}

/// Plan-match comparison shared by both plan states: stored coordinates are
/// canonical (wrapped under kPeriodic), so incoming coordinates wrap before
/// comparing.
bool matches_impl(const OrderedParticles& particles,
                  BoundaryConditions boundary, const Box3& domain,
                  const Cloud& cloud) {
  if (cloud.size() != particles.size()) return false;
  const bool periodic = boundary != BoundaryConditions::kOpen;
  const auto len = domain.lengths();
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const std::size_t o = particles.original_index[i];
    double cx = cloud.x[o];
    double cy = cloud.y[o];
    double cz = cloud.z[o];
    if (periodic) {
      cx = wrap_coordinate(cx, domain.lo[0], len[0]);
      cy = wrap_coordinate(cy, domain.lo[1], len[1]);
      cz = wrap_coordinate(cz, domain.lo[2], len[2]);
    }
    if (cx != particles.x[i] || cy != particles.y[i] ||
        cz != particles.z[i]) {
      return false;
    }
  }
  return true;
}

/// Coalesce the set bits of `changed` into [begin, end) slot ranges.
void append_changed_ranges(
    const std::vector<unsigned char>& changed,
    std::vector<std::pair<std::size_t, std::size_t>>& out) {
  std::size_t i = 0;
  const std::size_t n = changed.size();
  while (i < n) {
    if (changed[i] == 0) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && changed[j] != 0) ++j;
    out.emplace_back(i, j);
    i = j;
  }
}

/// A new version of `kind` on top of `current` (process-unique, so a modeled
/// device never mistakes one plan state's version for another's).
PlanChange next_change(const PlanChange& current, PlanChange::Kind kind) {
  static std::atomic<std::uint64_t> versions{0};
  PlanChange next;
  next.kind = kind;
  next.base = current.version;
  next.version = versions.fetch_add(1, std::memory_order_relaxed) + 1;
  return next;
}

/// Refresh the coarse ladder levels of `clusters` from the nominal level;
/// exact, so equal to restricting the whole level anew.
void restrict_ladder(std::vector<ClusterMoments>& levels,
                     std::span<const std::size_t> clusters) {
  if (levels.size() < 2) return;
  const std::size_t nd = clusters.size();
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < nd; ++i) {
    for (std::size_t l = 1; l < levels.size(); ++l) {
      ClusterMoments::restrict_cluster(levels.front(),
                                       static_cast<int>(clusters[i]),
                                       levels[l]);
    }
  }
}

/// One changed tree-order slot's pre-update state (coordinates + charge).
struct MovedSlot {
  std::size_t slot = 0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  double q = 0.0;
};

/// Bring the modified charges of `dirty` clusters up to date after an
/// in-topology position update. The boxes (and hence grids) are unchanged,
/// so only the dirty clusters' charges change — and a dirty path reaches the
/// root, whose cluster holds every particle. To keep the update O(moved)
/// rather than O(N), a cluster is patched by subtracting each moved
/// particle's old Lagrange contribution and adding the new one (`before`
/// holds the old values sorted by slot; with zero re-buckets a particle's
/// containing clusters are exactly the nodes whose slot range covers it).
/// A cluster is recomputed outright when `before` is empty (a re-bucket
/// permuted the slots) or the patch volume approaches its size: the
/// recompute is then no more expensive, and it resets the rounding drift
/// that repeated subtract/add cycles accumulate (`delta_patched`).
void patch_moments(const ClusterTree& tree, const OrderedParticles& sources,
                   const TreecodeParams& params,
                   std::span<const std::size_t> dirty,
                   std::span<const MovedSlot> before,
                   std::vector<std::size_t>& delta_patched,
                   std::vector<ClusterMoments>& levels) {
  ClusterMoments& moments = levels.front();
  const std::vector<double> weights = chebyshev2_weights(params.degree);
  const std::size_t nd = dirty.size();
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < nd; ++i) {
    const int ci = static_cast<int>(dirty[i]);
    const ClusterNode& node = tree.node(ci);
    const auto lo = std::lower_bound(
        before.begin(), before.end(), node.begin,
        [](const MovedSlot& s, std::size_t v) { return s.slot < v; });
    const auto hi = std::lower_bound(
        lo, before.end(), node.end,
        [](const MovedSlot& s, std::size_t v) { return s.slot < v; });
    const std::size_t patch = static_cast<std::size_t>(hi - lo);
    std::size_t& patched = delta_patched[static_cast<std::size_t>(ci)];
    if (patch == 0 || 2 * patch >= node.count() ||
        patched + patch >= node.count()) {
      patched = 0;
      ClusterMoments::recompute_cluster(tree, sources,
                                        params.moment_algorithm, ci, moments);
      continue;
    }
    patched += patch;
    const auto qhat = moments.qhat_mutable(ci);
    for (auto it = lo; it != hi; ++it) {
      ClusterMoments::accumulate_particle(
          params.degree, moments.grid(ci, 0), moments.grid(ci, 1),
          moments.grid(ci, 2), weights, it->x, it->y, it->z, -it->q, qhat);
      ClusterMoments::accumulate_particle(
          params.degree, moments.grid(ci, 0), moments.grid(ci, 1),
          moments.grid(ci, 2), weights, sources.x[it->slot],
          sources.y[it->slot], sources.z[it->slot], sources.q[it->slot],
          qhat);
    }
  }
  restrict_ladder(levels, dirty);
}

}  // namespace

std::size_t traversal_ladder_levels(const TreecodeParams& params) {
  return params.traversal == TraversalMode::kDual
             ? dual_degree_ladder(params.degree).size()
             : 1;
}

SourcePlanState SourcePlanState::build(const Cloud& sources,
                                       const TreecodeParams& params) {
  SourcePlanState state;
  state.particles = OrderedParticles::from_cloud(sources);
  state.params = params;
  if (params.periodic()) wrap_particles(state.particles, params.domain);
  TreeParams tree_params;
  tree_params.max_leaf = params.max_leaf;
  tree_params.slack = params.position_slack;
  state.tree = ClusterTree::build(state.particles, tree_params);
  state.held_particles = state.particles.size();
  state.mark_changed(PlanChange::Kind::kRebuilt);
  return state;
}

void SourcePlanState::build_moments(std::size_t levels) {
  const std::vector<int> ladder = dual_degree_ladder(params.degree);
  levels = std::clamp<std::size_t>(levels, 1, ladder.size());
  moment_levels.clear();
  moment_levels.reserve(levels);
  moment_levels.push_back(ClusterMoments::compute(
      tree, particles, params.degree, params.moment_algorithm));
  for (std::size_t l = 1; l < levels; ++l) {
    moment_levels.push_back(
        ClusterMoments::restrict_from(tree, moment_levels.front(), ladder[l]));
  }
  delta_patched_.assign(tree.num_nodes(), 0);
}

bool SourcePlanState::matches(const Cloud& cloud) const {
  return matches_impl(particles, params.boundary, params.domain, cloud);
}

void SourcePlanState::mark_changed(PlanChange::Kind kind) {
  change = next_change(change, kind);
}

void SourcePlanState::update_charges(std::span<const double> charges) {
  if (charges.size() != particles.size()) {
    throw std::invalid_argument(
        "SourcePlanState::update_charges: charge count does not match the "
        "sources");
  }
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles.q[i] = charges[particles.original_index[i]];
  }
  if (!moment_levels.empty()) {
    // The grids depend only on the tree geometry, so only the modified
    // charges are recomputed, in place.
    const std::size_t nc = tree.num_nodes();
#pragma omp parallel for schedule(dynamic)
    for (std::size_t c = 0; c < nc; ++c) {
      ClusterMoments::recompute_cluster(tree, particles,
                                        params.moment_algorithm,
                                        static_cast<int>(c),
                                        moment_levels.front());
    }
    std::vector<std::size_t> all(nc);
    std::iota(all.begin(), all.end(), std::size_t{0});
    restrict_ladder(moment_levels, all);
  }
  mark_changed(PlanChange::Kind::kCharges);
}

bool SourcePlanState::update_positions(const Cloud& sources) {
  const std::size_t n = particles.size();
  if (sources.size() != n) return false;
  if (n == 0) return true;
  const bool periodic = params.periodic();
  const Box3& domain = params.domain;
  const auto len = domain.lengths();
  PlanChange out = next_change(change, PlanChange::Kind::kPositions);
  // Map every tree-order slot to its leaf.
  std::vector<int> leaf_of(n, -1);
  for (const int li : tree.leaf_indices()) {
    const ClusterNode& leaf = tree.node(li);
    for (std::size_t s = leaf.begin; s < leaf.end; ++s) leaf_of[s] = li;
  }

  std::vector<unsigned char> dirty(tree.num_nodes(), 0);
  const auto mark_path = [&](int node) {
    while (node >= 0 && dirty[static_cast<std::size_t>(node)] == 0) {
      dirty[static_cast<std::size_t>(node)] = 1;
      node = tree.node(node).parent;
    }
  };

  // Phase 1, read-only: wrapped new data, move/escape classification, and
  // destination leaves. Nothing is mutated until every particle has a
  // home, so any infeasibility (or a tripped failpoint) leaves this state
  // exactly as it was and the caller can rebuild from scratch.
  std::vector<double> nx(n), ny(n), nz(n), nq(n);
  std::vector<unsigned char> changed(n, 0);
  struct Escape {
    std::size_t slot;
    int to;
  };
  std::vector<Escape> escapes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t o = particles.original_index[i];
    double cx = sources.x[o];
    double cy = sources.y[o];
    double cz = sources.z[o];
    if (periodic) {
      cx = wrap_coordinate(cx, domain.lo[0], len[0]);
      cy = wrap_coordinate(cy, domain.lo[1], len[1]);
      cz = wrap_coordinate(cz, domain.lo[2], len[2]);
    }
    nx[i] = cx;
    ny[i] = cy;
    nz[i] = cz;
    nq[i] = sources.q[o];
    const bool pos_changed =
        cx != particles.x[i] || cy != particles.y[i] || cz != particles.z[i];
    if (!pos_changed && nq[i] == particles.q[i]) continue;
    changed[i] = 1;
    ++out.moved;
    const int home = leaf_of[i];
    mark_path(home);
    if (pos_changed && !tree.node(home).box.contains(cx, cy, cz)) {
      const int dest = tree.locate_leaf(cx, cy, cz);
      if (dest < 0 || !tree.node(dest).box.contains(cx, cy, cz)) {
        return false;
      }
      escapes.push_back({i, dest});
      mark_path(dest);
    }
  }
  out.rebucketed = escapes.size();
  if (out.moved == 0) {
    change = std::move(out);
    return true;
  }

  failpoint(failpoints::sites::kPlanIncrementalRebucket);

  // Phase 2, mutation (cannot fail): write the changed data in place at
  // the old slots, then apply the minimal in-range permutation that moves
  // escaped particles to their destination leaves while preserving the
  // slot order of everything else. The displaced values are recorded first
  // (ascending slot order) so the moments can be patched by subtraction
  // instead of recomputing root-path clusters.
  std::vector<MovedSlot> before;
  before.reserve(out.moved);
  for (std::size_t i = 0; i < n; ++i) {
    if (changed[i] == 0) continue;
    before.push_back(
        {i, particles.x[i], particles.y[i], particles.z[i], particles.q[i]});
    particles.x[i] = nx[i];
    particles.y[i] = ny[i];
    particles.z[i] = nz[i];
    particles.q[i] = nq[i];
  }

  if (!escapes.empty()) {
    std::vector<std::size_t> counts(tree.num_nodes(), 0);
    std::vector<int> leaves = tree.leaf_indices();
    for (const int li : leaves) {
      counts[static_cast<std::size_t>(li)] = tree.node(li).count();
    }
    std::vector<unsigned char> departing(n, 0);
    std::vector<std::vector<std::size_t>> arrivals(tree.num_nodes());
    for (const Escape& e : escapes) {  // ascending slot order by construction
      departing[e.slot] = 1;
      --counts[static_cast<std::size_t>(leaf_of[e.slot])];
      ++counts[static_cast<std::size_t>(e.to)];
      arrivals[static_cast<std::size_t>(e.to)].push_back(e.slot);
    }
    // Tie-break equal begins (possible once a leaf has emptied) by node
    // index — reassign_leaf_counts lays ranges out in the same total order.
    std::sort(leaves.begin(), leaves.end(), [&](int a, int b) {
      if (tree.node(a).begin != tree.node(b).begin) {
        return tree.node(a).begin < tree.node(b).begin;
      }
      return a < b;
    });
    std::vector<std::size_t> perm;
    perm.reserve(n);
    for (const int li : leaves) {
      const ClusterNode& leaf = tree.node(li);
      for (std::size_t s = leaf.begin; s < leaf.end; ++s) {
        if (departing[s] == 0) perm.push_back(s);
      }
      for (const std::size_t s : arrivals[static_cast<std::size_t>(li)]) {
        perm.push_back(s);
      }
    }
    particles.permute(perm);
    tree.reassign_leaf_counts(counts);
    // Slot contents shifted: the recorded old values no longer address the
    // slots they describe, so the delta-moment shortcut is off the table.
    before.clear();
    // A slot whose occupant changed under the permutation changed too.
    std::vector<unsigned char> after(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (perm[i] != i || changed[perm[i]] != 0) after[i] = 1;
    }
    changed.swap(after);
  }

  for (std::size_t c = 0; c < dirty.size(); ++c) {
    if (dirty[c] != 0) out.dirty_clusters.push_back(c);
  }
  append_changed_ranges(changed, out.moved_ranges);
  change = std::move(out);
  if (!moment_levels.empty()) {
    patch_moments(tree, particles, params, change.dirty_clusters, before,
                  delta_patched_, moment_levels);
  }
  return true;
}

TargetPlanState TargetPlanState::plan(const Cloud& targets,
                                      const TreecodeParams& params) {
  TargetPlanState state;
  state.particles = OrderedParticles::from_cloud(targets);
  state.boundary = params.boundary;
  state.domain = params.domain;
  if (params.periodic()) {
    wrap_particles(state.particles, state.domain);
    // Mesh mode needs exactly one image shell: the near field is cut off at
    // r_cut <= 0.45 * L_min, so the home cell plus adjacent images cover
    // every in-range pair; all farther images belong to the FFT far field.
    state.shifts = ShiftTable::build(state.domain,
                                     params.mesh() ? 1 : params.image_shells);
  }
  // The target tree's non-empty leaves are the target batches (N_B). The
  // dual traversal walks the whole tree and additionally needs per-node
  // Chebyshev grids at every ladder degree for the CP/CC accumulation and
  // the downward pass.
  TreeParams tree_params;
  tree_params.max_leaf = params.max_batch;
  tree_params.slack = params.position_slack;
  state.tree = ClusterTree::build(state.particles, tree_params);
  if (params.traversal == TraversalMode::kDual) {
    for (const int d : dual_degree_ladder(params.degree)) {
      state.grids.push_back(ClusterMoments::grids_only(state.tree, d));
    }
  }
  state.change = next_change(state.change, PlanChange::Kind::kRebuilt);
  return state;
}

std::size_t TargetPlanState::append_lists(const ClusterTree& source_tree,
                                          const TreecodeParams& params,
                                          bool self) {
  const ShiftTable* table = params.periodic() ? &shifts : nullptr;
  // Mesh mode: the erfc near field is negligible beyond the tuned cutoff,
  // so the traversals prune any node pair that cannot come within range.
  const double cutoff = params.mesh()
                            ? mesh::tune_mesh(params).r_cut
                            : std::numeric_limits<double>::infinity();
  lists.push_back(
      params.traversal == TraversalMode::kDual
          ? build_dual_interaction_lists(tree, source_tree, params.theta,
                                         params.degree, self, table,
                                         params.precision, cutoff)
          : build_interaction_lists(tree, source_tree, params.theta,
                                    params.degree, table, params.precision,
                                    cutoff));
  return lists.size() - 1;
}

void TargetPlanState::add_counts(RunStats& stats) const {
  if (!grids.empty()) stats.dual_traversal = true;
  for (const int li : tree.leaf_indices()) {
    if (tree.node(li).count() > 0) ++stats.num_batches;
  }
  for (const DualInteractionLists& piece : lists) {
    stats.approx_interactions += piece.total_pc;
    stats.direct_interactions += piece.total_direct;
    stats.cp_interactions += piece.total_cp;
    stats.cc_interactions += piece.total_cc;
    stats.precision_demotions += piece.precision_demotions;
  }
}

bool TargetPlanState::matches(const Cloud& targets) const {
  return matches_impl(particles, boundary, domain, targets);
}

bool TargetPlanState::update_positions_self(const Cloud& targets,
                                            bool source_rebucketed) {
  const std::size_t n = particles.size();
  if (targets.size() != n) return false;
  // Symmetric self lists rely on the source and target trees being the
  // same tree (same particles, same order, same node indexing); a source
  // re-bucket breaks that identity.
  if (source_rebucketed &&
      std::any_of(lists.begin(), lists.end(),
                  [](const DualInteractionLists& l) { return l.self; })) {
    return false;
  }
  const bool periodic = boundary != BoundaryConditions::kOpen;
  const auto len = domain.lengths();

  // Phase 1, read-only: wrapped new coordinates and fat-box containment
  // (target charges do not enter the potential, so only coordinates
  // matter here).
  std::vector<double> nx(n), ny(n), nz(n);
  std::vector<unsigned char> changed(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t o = particles.original_index[i];
    double cx = targets.x[o];
    double cy = targets.y[o];
    double cz = targets.z[o];
    if (periodic) {
      cx = wrap_coordinate(cx, domain.lo[0], len[0]);
      cy = wrap_coordinate(cy, domain.lo[1], len[1]);
      cz = wrap_coordinate(cz, domain.lo[2], len[2]);
    }
    nx[i] = cx;
    ny[i] = cy;
    nz[i] = cz;
    if (cx != particles.x[i] || cy != particles.y[i] ||
        cz != particles.z[i]) {
      changed[i] = 1;
    }
  }
  const auto contained = [&](const Box3& box, std::size_t begin,
                             std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      if (changed[s] != 0 && !box.contains(nx[s], ny[s], nz[s])) return false;
    }
    return true;
  };
  for (const int li : tree.leaf_indices()) {
    const ClusterNode& leaf = tree.node(li);
    if (!contained(leaf.box, leaf.begin, leaf.end)) return false;
  }

  // Phase 2, mutation: in-place coordinate rewrite; the trees,
  // grids, and lists all stay valid because every target remains inside
  // the fat geometry the lists were built over.
  PlanChange out = next_change(change, PlanChange::Kind::kPositions);
  for (std::size_t i = 0; i < n; ++i) {
    if (changed[i] == 0) continue;
    particles.x[i] = nx[i];
    particles.y[i] = ny[i];
    particles.z[i] = nz[i];
  }
  append_changed_ranges(changed, out.moved_ranges);
  change = std::move(out);
  return true;
}

}  // namespace bltc
