#include "core/interaction_lists.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bltc {
namespace {

/// One lattice image of the source tree: the shift vector added to every
/// cluster center during the MAC test, and the shift id stamped on emitted
/// pairs. The home cell (and the whole open-boundary path) is the zero
/// shift with id 0.
struct ImageShift {
  double x = 0.0, y = 0.0, z = 0.0;
  std::uint16_t id = 0;
};

/// One target leaf's batched-traversal output, each kind in emission order.
struct BatchPairs {
  std::vector<DualPair> pc;
  std::vector<DualPair> direct;
};

void traverse(const ClusterTree& tree, int ci, const ClusterNode& batch,
              int leaf, double theta, int degree, const ImageShift& shift,
              PrecisionPolicy precision, double range_cutoff,
              BatchPairs& out) {
  const ClusterNode& cluster = tree.node(ci);
  if (cluster.count() == 0) return;
  const std::array<double, 3> shifted{cluster.center[0] + shift.x,
                                      cluster.center[1] + shift.y,
                                      cluster.center[2] + shift.z};
  // Range-limited kernels (the kPeriodicMesh erfc near field): no particle
  // of this subtree can come closer than the sphere-to-sphere gap.
  if (range_cutoff != std::numeric_limits<double>::infinity() &&
      distance(batch.center, shifted) - batch.radius - cluster.radius >
          range_cutoff) {
    return;
  }
  const DualPair direct{DualKind::kDirect, 0, 0, leaf, ci, shift.id};
  switch (evaluate_mac(batch.center, batch.radius, shifted, cluster.radius,
                       cluster.count(), theta, degree)) {
    case MacResult::kApprox: {
      // The admitted interaction's own opening ratio decides whether its
      // truncation budget can absorb the fp32 tile floor.
      std::uint8_t fp32 = 0;
      if (precision != PrecisionPolicy::kFp64) {
        const double kappa = (batch.radius + cluster.radius) /
                             distance(batch.center, shifted);
        fp32 = fp32_admissible(precision, kappa, degree, theta, degree) ? 1
                                                                        : 0;
      }
      out.pc.push_back({DualKind::kPC, 0, fp32, leaf, ci, shift.id});
      return;
    }
    case MacResult::kClusterSmall:
      out.direct.push_back(direct);
      return;
    case MacResult::kTooClose:
      if (cluster.is_leaf()) {
        out.direct.push_back(direct);
      } else {
        for (int c = 0; c < cluster.num_children; ++c) {
          traverse(tree, cluster.children[static_cast<std::size_t>(c)], batch,
                   leaf, theta, degree, shift, precision, range_cutoff, out);
        }
      }
      return;
  }
}

/// Expand `shifts` into per-image traversal descriptors. A null or
/// single-entry table yields the one home cell.
std::vector<ImageShift> image_shifts(const ShiftTable* shifts) {
  if (shifts == nullptr || shifts->size() <= 1) return {ImageShift{}};
  std::vector<ImageShift> images(shifts->size());
  for (std::size_t s = 0; s < shifts->size(); ++s) {
    images[s] = {shifts->sx[s], shifts->sy[s], shifts->sz[s],
                 static_cast<std::uint16_t>(s)};
  }
  return images;
}

}  // namespace

DualInteractionLists build_interaction_lists(const ClusterTree& ttree,
                                             const ClusterTree& stree,
                                             double theta, int degree,
                                             const ShiftTable* shifts,
                                             PrecisionPolicy precision,
                                             double range_cutoff) {
  DualInteractionLists lists;
  lists.grid_offsets.assign(1, 0);
  lists.leaf_offsets.assign(1, 0);
  lists.ladder = {degree};
  for (const int li : ttree.leaf_indices()) {
    if (ttree.node(li).count() > 0) lists.leaf_nodes.push_back(li);
  }
  const std::size_t nleaf = lists.leaf_nodes.size();
  std::vector<std::vector<DualPair>> groups(nleaf);
  if (stree.num_nodes() > 0) {
    const std::vector<ImageShift> images = image_shifts(shifts);
#pragma omp parallel
    {
      BatchPairs pairs;  // per-thread scratch, reused across leaves
#pragma omp for schedule(dynamic)
      for (std::size_t g = 0; g < nleaf; ++g) {
        const int leaf = lists.leaf_nodes[g];
        pairs.pc.clear();
        pairs.direct.clear();
        for (const ImageShift& image : images) {
          traverse(stree, stree.root(), ttree.node(leaf), leaf, theta, degree,
                   image, precision, range_cutoff, pairs);
        }
        std::vector<DualPair>& group = groups[g];
        group.reserve(pairs.pc.size() + pairs.direct.size());
        group.insert(group.end(), pairs.pc.begin(), pairs.pc.end());
        group.insert(group.end(), pairs.direct.begin(), pairs.direct.end());
      }
    }
  }

  std::size_t total = 0;
  for (const auto& group : groups) total += group.size();
  lists.leaf_pairs.reserve(total);
  for (std::vector<DualPair>& group : groups) {
    for (const DualPair& p : group) {
      if (p.kind == DualKind::kPC) {
        ++lists.total_pc;
        lists.total_fp32 += p.fp32;
      } else {
        ++lists.total_direct;
      }
    }
    lists.leaf_pairs.insert(lists.leaf_pairs.end(), group.begin(),
                            group.end());
    lists.leaf_offsets.push_back(lists.leaf_pairs.size());
    std::vector<DualPair>().swap(group);
  }
  if (precision == PrecisionPolicy::kMixed) {
    lists.precision_demotions = lists.total_pc - lists.total_fp32;
  }
  return lists;
}

namespace {

/// Recursive half of the dual traversal: emits admissible pairs for the
/// (ti, si) subproblem into `out` in a deterministic depth-first order.
struct DualTraversal {
  const ClusterTree& ttree;
  const ClusterTree& stree;
  double theta;
  int degree;                ///< nominal interpolation degree n
  PrecisionPolicy precision = PrecisionPolicy::kFp64;
  std::vector<int> ladder;   ///< dual_degree_ladder(degree)
  std::vector<double> lppc;  ///< (ladder[l]+1)^3 per level
  /// Sphere-to-sphere pruning distance for range-limited kernels.
  double range_cutoff = std::numeric_limits<double>::infinity();

  /// fp32 tag for a far-field pair: the error ladder already chose the
  /// degree this pair executes at, so the precision question is whether
  /// that degree's truncation bound at this kappa still leaves room for
  /// the fp32 tile floor under the nominal target.
  std::uint8_t pair_fp32(double kappa, std::uint8_t level) const {
    return fp32_admissible(precision, kappa, ladder[level], theta, degree)
               ? 1
               : 0;
  }

  /// Chebyshev interpolation of a kernel analytic outside the cluster
  /// converges geometrically with the Bernstein-ellipse parameter
  /// rho(kappa) = (1 + sqrt(1 - kappa^2)) / kappa > 1, where kappa is the
  /// separation ratio (r_T + r_S)/R: error ~ rho^-(n+1).
  static double log_rho(double kappa) {
    const double k2 = std::min(kappa * kappa, 1.0);
    return std::log((1.0 + std::sqrt(1.0 - k2)) / kappa);
  }

  /// Extra interpolation orders beyond the model's minimum, absorbing the
  /// model's neglected constants (and the doubled constant of CC's two-
  /// sided interpolation) so a reduced-order pair never dominates the
  /// nominal (theta, n) error.
  static constexpr double kOrderSafety = 0.75;

  /// Lowest ladder level (cheapest grid) whose per-pair error *contribution*
  /// still meets the nominal bound. On top of the geometric rate
  /// rho(kappa)^-(n_l+1) <= rho(theta)^-(n+1) come share bumps — a source
  /// cluster far larger than the nominal grid contributes a proportionally
  /// larger slice of the potential (full weight), and a pair touching many
  /// targets weighs more in the L2 norm (half weight, errors across targets
  /// add incoherently) — plus kOrderSafety constant extra orders.
  std::uint8_t pick_level(double kappa, double source_count,
                          double target_count) const {
    if (ladder.size() == 1) return 0;
    if (!(kappa > 0.0)) return static_cast<std::uint8_t>(ladder.size() - 1);
    const double lr = log_rho(kappa);
    const double share_bump =
        std::max(0.0, std::log(source_count / lppc[0])) +
        0.5 * std::max(0.0, std::log(target_count / lppc[0]));
    const double need = (static_cast<double>(degree + 1) * log_rho(theta) +
                         share_bump) /
                            lr +
                        kOrderSafety;
    for (std::size_t l = ladder.size(); l-- > 1;) {
      if (static_cast<double>(ladder[l] + 1) >= need) {
        return static_cast<std::uint8_t>(l);
      }
    }
    return 0;
  }

  /// Emit `kind` once per non-empty target leaf under `ti` (particle-
  /// accumulating kinds are anchored at leaves so their particle ranges are
  /// disjoint across groups).
  void emit_at_leaves(DualKind kind, std::uint8_t level, std::uint8_t fp32,
                      int ti, int si, std::uint16_t sid,
                      std::vector<DualPair>& out) const {
    const ClusterNode& t = ttree.node(ti);
    if (t.count() == 0) return;
    if (t.is_leaf()) {
      out.push_back({kind, level, fp32, ti, si, sid});
      return;
    }
    for (int c = 0; c < t.num_children; ++c) {
      emit_at_leaves(kind, level, fp32,
                     t.children[static_cast<std::size_t>(c)], si, sid, out);
    }
  }

  /// Asymmetric recursion against one lattice image of the source tree:
  /// `image` offsets every source cluster center (the open path is the
  /// untagged zero shift).
  void traverse(int ti, int si, const ImageShift& image,
                std::vector<DualPair>& out) const {
    const ClusterNode& t = ttree.node(ti);
    const ClusterNode& s = stree.node(si);
    if (t.count() == 0 || s.count() == 0) return;

    const std::array<double, 3> sc{s.center[0] + image.x,
                                   s.center[1] + image.y,
                                   s.center[2] + image.z};
    const double r = distance(t.center, sc);
    if (r - t.radius - s.radius > range_cutoff) return;  // beyond the kernel
    if (t.radius + s.radius < theta * r) {
      // Separated: pick the ladder level the pair's separation ratio
      // admits, then the cheapest interaction kind at that level.
      const double kappa = (t.radius + s.radius) / r;
      const std::uint8_t level =
          pick_level(kappa, static_cast<double>(s.count()),
                     static_cast<double>(t.count()));
      const std::uint8_t fp32 = pair_fp32(kappa, level);
      const double p = lppc[level];
      const double ct = static_cast<double>(t.count());
      const double cs = static_cast<double>(s.count());
      const double cost_direct = ct * cs;
      const double cost_pc = ct * p;
      const double cost_cp = p * cs;
      const double cost_cc = p * p;
      if (cost_direct <= cost_pc && cost_direct <= cost_cp &&
          cost_direct <= cost_cc) {
        emit_at_leaves(DualKind::kDirect, 0, 0, ti, si, image.id, out);
      } else if (cost_cc <= cost_pc && cost_cc <= cost_cp) {
        out.push_back({DualKind::kCC, level, fp32, ti, si, image.id});
      } else if (cost_pc <= cost_cp) {
        emit_at_leaves(DualKind::kPC, level, fp32, ti, si, image.id, out);
      } else {
        out.push_back({DualKind::kCP, level, fp32, ti, si, image.id});
      }
      return;
    }

    // Not separated: recurse into the fatter splittable side; direct sum
    // when both sides are leaves.
    const bool t_splittable = !t.is_leaf();
    const bool s_splittable = !s.is_leaf();
    if (!t_splittable && !s_splittable) {
      out.push_back({DualKind::kDirect, 0, 0, ti, si, image.id});
      return;
    }
    const bool split_target =
        t_splittable && (!s_splittable || t.radius >= s.radius);
    if (split_target) {
      for (int c = 0; c < t.num_children; ++c) {
        traverse(t.children[static_cast<std::size_t>(c)], si, image, out);
      }
    } else {
      for (int c = 0; c < s.num_children; ++c) {
        traverse(ti, s.children[static_cast<std::size_t>(c)], image, out);
      }
    }
  }

  // ---- Self (mutual) traversal: targets == sources under one tree. ------

  /// Emit one *symmetric* direct pair per (target leaf under ti, source
  /// leaf under si): both sides of the recursion are split to leaves so the
  /// executor's leaf grouping sees leaf-anchored targets, and the G-sharing
  /// mirror writes stay within whole leaf ranges.
  void emit_direct_at_leaf_pairs(int ti, int si,
                                 std::vector<DualPair>& out) const {
    const ClusterNode& t = ttree.node(ti);
    if (t.count() == 0) return;
    if (!t.is_leaf()) {
      for (int c = 0; c < t.num_children; ++c) {
        emit_direct_at_leaf_pairs(t.children[static_cast<std::size_t>(c)], si,
                                  out);
      }
      return;
    }
    const ClusterNode& s = stree.node(si);
    if (s.count() == 0) return;
    if (!s.is_leaf()) {
      for (int c = 0; c < s.num_children; ++c) {
        emit_direct_at_leaf_pairs(ti, s.children[static_cast<std::size_t>(c)],
                                  out);
      }
      return;
    }
    out.push_back({DualKind::kDirect, 0, 0, ti, si});
  }

  /// Unordered pair of disjoint nodes of the one tree. Far-field kinds are
  /// emitted for both directions (their ladder levels may differ: the share
  /// bumps are direction-dependent); direct pairs are emitted once and
  /// executed symmetrically.
  void mutual(int i, int j, std::vector<DualPair>& out) const {
    const ClusterNode& a = ttree.node(i);
    const ClusterNode& b = stree.node(j);
    if (a.count() == 0 || b.count() == 0) return;

    const double r = distance(a.center, b.center);
    if (a.radius + b.radius < theta * r) {
      const double kappa = (a.radius + b.radius) / r;
      const double ca = static_cast<double>(a.count());
      const double cb = static_cast<double>(b.count());
      const std::uint8_t l1 = pick_level(kappa, cb, ca);  // a <- b
      const std::uint8_t l2 = pick_level(kappa, ca, cb);  // b <- a
      const double p1 = lppc[l1];
      const double p2 = lppc[l2];
      // If direct wins either directional cost comparison, the symmetric
      // direct sum (one G per unordered point pair) beats both.
      const bool direct1 = ca * cb <= std::min({ca * p1, p1 * cb, p1 * p1});
      const bool direct2 = cb * ca <= std::min({cb * p2, p2 * ca, p2 * p2});
      if (direct1 || direct2) {
        emit_direct_at_leaf_pairs(i, j, out);
        return;
      }
      const auto emit_dir = [&](int ti, int si, std::uint8_t level,
                                double ct, double cs) {
        const std::uint8_t fp32 = pair_fp32(kappa, level);
        const double p = lppc[level];
        const double cost_pc = ct * p;
        const double cost_cp = p * cs;
        const double cost_cc = p * p;
        if (cost_cc <= cost_pc && cost_cc <= cost_cp) {
          out.push_back({DualKind::kCC, level, fp32, ti, si});
        } else if (cost_pc <= cost_cp) {
          emit_at_leaves(DualKind::kPC, level, fp32, ti, si, 0, out);
        } else {
          out.push_back({DualKind::kCP, level, fp32, ti, si});
        }
      };
      emit_dir(i, j, l1, ca, cb);
      emit_dir(j, i, l2, cb, ca);
      return;
    }

    const bool a_splittable = !a.is_leaf();
    const bool b_splittable = !b.is_leaf();
    if (!a_splittable && !b_splittable) {
      out.push_back({DualKind::kDirect, 0, 0, i, j});
      return;
    }
    const bool split_a =
        a_splittable && (!b_splittable || a.radius >= b.radius);
    if (split_a) {
      for (int c = 0; c < a.num_children; ++c) {
        mutual(a.children[static_cast<std::size_t>(c)], j, out);
      }
    } else {
      for (int c = 0; c < b.num_children; ++c) {
        mutual(i, b.children[static_cast<std::size_t>(c)], out);
      }
    }
  }

  /// Diagonal recursion: node i against itself. Leaves become triangular
  /// self-interactions; internal nodes recurse on children (diagonal) and
  /// distinct child pairs (mutual).
  void traverse_self(int i, std::vector<DualPair>& out) const {
    const ClusterNode& a = ttree.node(i);
    if (a.count() == 0) return;
    if (a.is_leaf()) {
      out.push_back({DualKind::kDirect, 0, 0, i, i});
      return;
    }
    for (int c = 0; c < a.num_children; ++c) {
      traverse_self(a.children[static_cast<std::size_t>(c)], out);
    }
    for (int c1 = 0; c1 < a.num_children; ++c1) {
      for (int c2 = c1 + 1; c2 < a.num_children; ++c2) {
        mutual(a.children[static_cast<std::size_t>(c1)],
               a.children[static_cast<std::size_t>(c2)], out);
      }
    }
  }
};

/// Group `pairs` matching `pred` into a CSR keyed by target node, keeping
/// the pair order within each group. Bucket order is first-appearance order,
/// which depends only on the pair sequence — deterministic.
void group_by_target(const std::vector<DualPair>& pairs,
                     bool (*pred)(DualKind), std::vector<DualPair>& out_pairs,
                     std::vector<std::size_t>& out_offsets,
                     std::vector<int>& out_nodes) {
  std::vector<int> slot;  // target node -> group index, lazily grown
  std::vector<std::vector<DualPair>> groups;
  for (const DualPair& p : pairs) {
    if (!pred(p.kind)) continue;
    const std::size_t t = static_cast<std::size_t>(p.target);
    if (slot.size() <= t) slot.resize(t + 1, -1);
    if (slot[t] < 0) {
      slot[t] = static_cast<int>(groups.size());
      groups.emplace_back();
      out_nodes.push_back(p.target);
    }
    groups[static_cast<std::size_t>(slot[t])].push_back(p);
  }
  out_offsets.assign(1, 0);
  for (const auto& g : groups) {
    out_pairs.insert(out_pairs.end(), g.begin(), g.end());
    out_offsets.push_back(out_pairs.size());
  }
}

}  // namespace

std::vector<int> dual_degree_ladder(int degree) {
  std::vector<int> ladder{degree};
  for (int d = degree - 1; d >= 2; --d) ladder.push_back(d);
  return ladder;
}

DualInteractionLists build_dual_interaction_lists(const ClusterTree& ttree,
                                                  const ClusterTree& stree,
                                                  double theta, int degree,
                                                  bool self,
                                                  const ShiftTable* shifts,
                                                  PrecisionPolicy precision,
                                                  double range_cutoff) {
  DualInteractionLists lists;
  lists.grid_offsets.assign(1, 0);
  lists.leaf_offsets.assign(1, 0);
  lists.ladder = dual_degree_ladder(degree);
  lists.self = self;
  if (ttree.num_nodes() == 0 || stree.num_nodes() == 0) return lists;
  const std::vector<ImageShift> images = image_shifts(shifts);
  // The symmetric self mode exploits targets == sources within one cell; a
  // shifted image breaks that symmetry, so the solver never combines them.
  if (self && images.size() > 1) {
    throw std::invalid_argument(
        "build_dual_interaction_lists: the symmetric self mode cannot be "
        "combined with a lattice shift table (a shifted image breaks the "
        "target/source exchange symmetry); pass self = false under "
        "periodic boundaries");
  }

  DualTraversal walker{ttree, stree, theta, degree, precision, lists.ladder,
                       {}, range_cutoff};
  walker.lppc.reserve(walker.ladder.size());
  for (const int d : walker.ladder) {
    walker.lppc.push_back(
        static_cast<double>(interpolation_point_count(d)));
  }

  // Task frontier for parallel construction: diagonal (self) and mutual
  // node-pair subproblems whose recursions are independent — one subproblem
  // tree per lattice image under periodic boundaries. Expansion follows the
  // recursion rules exactly, so the concatenation of per-task outputs in
  // task order is deterministic regardless of thread count.
  struct Task {
    int i;
    int j;  ///< j == i: diagonal subproblem (self mode only)
    std::uint16_t image = 0;  ///< index into `images`
  };
  std::vector<Task> frontier;
  std::vector<DualPair> preamble;  // pairs resolved during expansion
  if (self) {
    frontier.push_back({ttree.root(), ttree.root(), 0});
  } else {
    for (std::uint16_t s = 0; s < images.size(); ++s) {
      frontier.push_back({ttree.root(), stree.root(), s});
    }
  }
  const std::size_t task_goal = 256;
  bool grew = true;
  while (grew && frontier.size() < task_goal) {
    grew = false;
    std::vector<Task> next;
    next.reserve(frontier.size() * 4);
    for (const Task& task : frontier) {
      const ClusterNode& t = ttree.node(task.i);
      const ClusterNode& s = stree.node(task.j);
      if (t.count() == 0 || s.count() == 0) continue;
      if (self && task.i == task.j) {
        if (t.is_leaf()) {
          walker.traverse_self(task.i, preamble);
          continue;
        }
        grew = true;
        for (int c = 0; c < t.num_children; ++c) {
          next.push_back({t.children[static_cast<std::size_t>(c)],
                          t.children[static_cast<std::size_t>(c)], 0});
        }
        for (int c1 = 0; c1 < t.num_children; ++c1) {
          for (int c2 = c1 + 1; c2 < t.num_children; ++c2) {
            next.push_back({t.children[static_cast<std::size_t>(c1)],
                            t.children[static_cast<std::size_t>(c2)], 0});
          }
        }
        continue;
      }
      const ImageShift& image = images[task.image];
      const std::array<double, 3> sc{s.center[0] + image.x,
                                     s.center[1] + image.y,
                                     s.center[2] + image.z};
      const bool separated =
          pair_well_separated(t.center, t.radius, sc, s.radius, theta);
      const bool t_splittable = !t.is_leaf();
      const bool s_splittable = !s.is_leaf();
      if (separated || (!t_splittable && !s_splittable)) {
        // Resolvable without recursion: emit now, in frontier order.
        if (self) {
          walker.mutual(task.i, task.j, preamble);
        } else {
          walker.traverse(task.i, task.j, image, preamble);
        }
        continue;
      }
      grew = true;
      const bool split_target =
          t_splittable && (!s_splittable || t.radius >= s.radius);
      if (split_target) {
        for (int c = 0; c < t.num_children; ++c) {
          next.push_back({t.children[static_cast<std::size_t>(c)], task.j,
                          task.image});
        }
      } else {
        for (int c = 0; c < s.num_children; ++c) {
          next.push_back({task.i, s.children[static_cast<std::size_t>(c)],
                          task.image});
        }
      }
    }
    frontier = std::move(next);
  }

  std::vector<std::vector<DualPair>> task_pairs(frontier.size());
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Task& task = frontier[i];
    if (self && task.i == task.j) {
      walker.traverse_self(task.i, task_pairs[i]);
    } else if (self) {
      walker.mutual(task.i, task.j, task_pairs[i]);
    } else {
      walker.traverse(task.i, task.j, images[task.image], task_pairs[i]);
    }
  }

  std::vector<DualPair> all = std::move(preamble);
  for (const auto& tp : task_pairs) {
    all.insert(all.end(), tp.begin(), tp.end());
  }

  group_by_target(
      all,
      [](DualKind k) { return k == DualKind::kCP || k == DualKind::kCC; },
      lists.grid_pairs, lists.grid_offsets, lists.grid_nodes);
  group_by_target(
      all,
      [](DualKind k) { return k == DualKind::kPC || k == DualKind::kDirect; },
      lists.leaf_pairs, lists.leaf_offsets, lists.leaf_nodes);

  for (const DualPair& p : all) {
    switch (p.kind) {
      case DualKind::kPC: ++lists.total_pc; break;
      case DualKind::kCP: ++lists.total_cp; break;
      case DualKind::kCC: ++lists.total_cc; break;
      case DualKind::kDirect: ++lists.total_direct; break;
    }
    lists.total_fp32 += p.fp32;
  }
  if (precision == PrecisionPolicy::kMixed) {
    lists.precision_demotions =
        lists.total_pc + lists.total_cp + lists.total_cc - lists.total_fp32;
  }
  return lists;
}

}  // namespace bltc
