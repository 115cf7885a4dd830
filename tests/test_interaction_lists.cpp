#include "core/interaction_lists.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/plan.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

struct Harness {
  OrderedParticles sources;
  OrderedParticles targets;
  ClusterTree tree;
  ClusterTree target_tree;  ///< leaves of at most N_B targets (the batches)
};

Harness make_setup(std::size_t n, std::size_t leaf, std::size_t batch,
                 std::uint64_t seed = 1) {
  Harness s;
  const Cloud c = uniform_cube(n, seed);
  s.sources = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = leaf;
  s.tree = ClusterTree::build(s.sources, tp);
  s.targets = OrderedParticles::from_cloud(c);
  tp.max_leaf = batch;
  s.target_tree = ClusterTree::build(s.targets, tp);
  return s;
}

DualInteractionLists batched_lists(const Harness& s, double theta,
                                   int degree) {
  return build_interaction_lists(s.target_tree, s.tree, theta, degree);
}

/// Call `f(leaf node, pair)` for every leaf pair of `kind`.
template <typename F>
void for_each_pair(const Harness& s, const DualInteractionLists& lists,
                   DualKind kind, F&& f) {
  for (std::size_t g = 0; g < lists.leaf_nodes.size(); ++g) {
    const ClusterNode& leaf = s.target_tree.node(lists.leaf_nodes[g]);
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      if (lists.leaf_pairs[e].kind == kind) f(leaf, lists.leaf_pairs[e]);
    }
  }
}

/// The one list format plus the fundamental traversal invariant: one leaf
/// group per non-empty target leaf, in order; every pair a level-0 PC or
/// direct pair anchored at its group's leaf, PC before direct, each kind
/// shift-major; totals that match the pairs; and, per lattice image, the
/// particle ranges of a group's clusters tile the full source set exactly
/// once — no source is missed, none is double counted.
void check_lists(const Harness& s, const DualInteractionLists& lists,
                 std::size_t images = 1) {
  std::vector<int> leaves;
  for (const int li : s.target_tree.leaf_indices()) {
    if (s.target_tree.node(li).count() > 0) leaves.push_back(li);
  }
  ASSERT_TRUE(lists.grid_pairs.empty());
  ASSERT_EQ(lists.leaf_nodes, leaves);
  ASSERT_EQ(lists.leaf_offsets.back(), lists.leaf_pairs.size());
  const std::size_t n = s.sources.size();
  std::size_t pc = 0, direct = 0, fp32 = 0;
  for (std::size_t g = 0; g < lists.leaf_nodes.size(); ++g) {
    std::vector<int> covered(images * n, 0);
    DualPair prev{DualKind::kPC};
    for (std::size_t e = lists.leaf_offsets[g]; e < lists.leaf_offsets[g + 1];
         ++e) {
      const DualPair& pair = lists.leaf_pairs[e];
      const bool is_direct = pair.kind == DualKind::kDirect;
      ASSERT_TRUE(is_direct || pair.kind == DualKind::kPC);
      EXPECT_EQ(pair.level, 0);
      EXPECT_EQ(pair.target, lists.leaf_nodes[g]);
      EXPECT_FALSE(is_direct && pair.fp32 != 0);
      if (pair.kind == prev.kind) {
        EXPECT_GE(pair.shift, prev.shift) << "not shift-major, group " << g;
      } else {
        EXPECT_TRUE(is_direct) << "PC after direct, group " << g;
      }
      prev = pair;
      (is_direct ? direct : pc) += 1;
      fp32 += pair.fp32;
      const ClusterNode& c = s.tree.node(pair.source);
      for (std::size_t i = c.begin; i < c.end; ++i) {
        ++covered[pair.shift * n + i];
      }
    }
    ASSERT_EQ(covered, std::vector<int>(images * n, 1)) << "leaf group " << g;
  }
  EXPECT_EQ(lists.total_pc, pc);
  EXPECT_EQ(lists.total_direct, direct);
  EXPECT_EQ(lists.total_cp + lists.total_cc, 0u);
  EXPECT_EQ(lists.total_fp32, fp32);
}

class InteractionListsSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(InteractionListsSweep, CoverageHoldsAcrossParameters) {
  const auto [theta, degree] = GetParam();
  const Harness s = make_setup(3000, 150, 150, 2);
  check_lists(s, batched_lists(s, theta, degree));
}

INSTANTIATE_TEST_SUITE_P(
    ThetaDegree, InteractionListsSweep,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(1, 4, 8)));

TEST(InteractionLists, BatchedListsUseTheOneFormat) {
  // Lattice shift ids and fp32 tags ride in the same format; every image of
  // the source tree is covered once per leaf.
  const Harness s = make_setup(2000, 100, 100, 10);
  const ShiftTable shifts = ShiftTable::build(Box3::cube(-1.0, 1.0), 1);
  const DualInteractionLists lists = build_interaction_lists(
      s.target_tree, s.tree, 0.7, 4, &shifts, PrecisionPolicy::kMixed);
  check_lists(s, lists, shifts.size());
  EXPECT_EQ(lists.ladder, std::vector<int>{4});
  EXPECT_FALSE(lists.self);
  EXPECT_GT(lists.total_pc, 0u);
  EXPECT_EQ(lists.precision_demotions, lists.total_pc - lists.total_fp32);
}

TEST(InteractionLists, ApproxClustersAreLargeEnough) {
  // The size condition of Eq. (13): an approximated cluster always holds
  // more sources than interpolation points.
  const int degree = 3;
  const Harness s = make_setup(4000, 200, 200, 3);
  for_each_pair(s, batched_lists(s, 0.8, degree), DualKind::kPC,
                [&](const ClusterNode&, const DualPair& pair) {
                  EXPECT_GT(s.tree.node(pair.source).count(),
                            interpolation_point_count(degree));
                });
}

TEST(InteractionLists, ApproxClustersSatisfyGeometricMac) {
  const double theta = 0.7;
  const Harness s = make_setup(4000, 200, 200, 4);
  for_each_pair(s, batched_lists(s, theta, 4), DualKind::kPC,
                [&](const ClusterNode& leaf, const DualPair& pair) {
                  const ClusterNode& n = s.tree.node(pair.source);
                  const double r = distance(leaf.center, n.center);
                  EXPECT_LT(leaf.radius + n.radius, theta * r);
                });
}

TEST(InteractionLists, SmallerThetaMeansMoreDirectWork) {
  // Direct-pair work is non-decreasing as theta tightens, and strictly
  // grows between the extremes (until it saturates at full N^2).
  const Harness s = make_setup(6000, 100, 100, 5);
  const auto direct_pairs = [&](double theta) {
    double pairs = 0.0;
    for_each_pair(s, batched_lists(s, theta, 2), DualKind::kDirect,
                  [&](const ClusterNode&, const DualPair& pair) {
                    pairs += static_cast<double>(
                        s.tree.node(pair.source).count());
                  });
    return pairs;
  };
  double prev = -1.0;
  for (const double theta : {0.9, 0.7, 0.5}) {
    const double pairs = direct_pairs(theta);
    EXPECT_GE(pairs, prev);
    prev = pairs;
  }
  EXPECT_GT(direct_pairs(0.5), direct_pairs(0.9));
}

TEST(InteractionLists, WellSeparatedCloudsUseOnlyApprox) {
  // Targets far from all sources: the root (or its top clusters) should be
  // approximated; no direct interactions at all.
  const Cloud src_cloud = uniform_cube(4000, 6);
  Cloud tgt_cloud = uniform_cube(500, 7);
  for (std::size_t i = 0; i < tgt_cloud.size(); ++i) tgt_cloud.x[i] += 50.0;

  OrderedParticles src = OrderedParticles::from_cloud(src_cloud);
  TreeParams tp;
  tp.max_leaf = 200;
  const ClusterTree tree = ClusterTree::build(src, tp);
  OrderedParticles tgt = OrderedParticles::from_cloud(tgt_cloud);
  const ClusterTree target_tree = ClusterTree::build(tgt, tp);
  const DualInteractionLists lists =
      build_interaction_lists(target_tree, tree, 0.5, 2);
  EXPECT_EQ(lists.total_direct, 0u);
  EXPECT_GT(lists.total_pc, 0u);
}

TEST(InteractionLists, OneTargetBatchesCoverAllSources) {
  // max_batch = 1 is the per-target MAC of §3.2: one list per target.
  const Harness s = make_setup(2000, 100, 1, 8);
  const DualInteractionLists lists = batched_lists(s, 0.7, 4);
  ASSERT_EQ(lists.leaf_nodes.size(), s.targets.size());
  check_lists(s, lists);
}

TEST(InteractionLists, OneTargetBatchesDoNoMoreDirectWorkThanBatches) {
  // A point target is never farther from passing the MAC than the batch
  // containing it, so per-target traversal does at most the batch's direct
  // work (this is §3.2's "sub-optimal for individual targets").
  const Harness batched = make_setup(4000, 200, 200, 9);
  const Harness point = make_setup(4000, 200, 1, 9);
  // Direct source-particle pairs per target, averaged: every target of a
  // batch does the batch's direct work.
  const auto mean_direct_pairs = [](const Harness& s) {
    double pairs = 0.0;
    for_each_pair(s, batched_lists(s, 0.7, 4), DualKind::kDirect,
                  [&](const ClusterNode& leaf, const DualPair& pair) {
                    pairs += static_cast<double>(
                        s.tree.node(pair.source).count() * leaf.count());
                  });
    return pairs / static_cast<double>(s.targets.size());
  };
  EXPECT_LE(mean_direct_pairs(point), mean_direct_pairs(batched) * 1.05);
}

TEST(InteractionLists, TargetPlanLeavesAreTheBatches) {
  // The batches are the target plan's non-empty leaves: every target lies
  // in exactly one leaf group, no leaf exceeds N_B, leaf geometry matches
  // its contents, leaves are localized (what makes the batch-level MAC
  // near-optimal, §3.2), N <= N_B gives one leaf, no targets give none.
  const auto plan = [](const Cloud& c, std::size_t nb) {
    TreecodeParams p;
    p.max_leaf = p.max_batch = nb;
    TargetPlanState t = TargetPlanState::plan(c, p);
    t.append_lists(SourcePlanState::build(c, p).tree, p);
    return t;
  };
  const Cloud c = uniform_cube(4000, 2);
  for (const std::size_t nb : {100u, 500u, 5000u}) {
    const TargetPlanState t = plan(c, nb);
    const std::vector<int>& leaves = t.lists.front().leaf_nodes;
    std::vector<int> covered(c.size(), 0);
    for (const int li : leaves) {
      const ClusterNode& leaf = t.tree.node(li);
      EXPECT_LE(leaf.count(), nb);
      EXPECT_DOUBLE_EQ(leaf.radius, leaf.box.radius());
      EXPECT_EQ(leaf.center, leaf.box.center());
      if (nb == 100) EXPECT_LT(leaf.radius, 0.4 * std::sqrt(3.0));
      for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
        ++covered[i];
        EXPECT_TRUE(leaf.box.contains(t.particles.x[i], t.particles.y[i],
                                      t.particles.z[i]));
      }
    }
    EXPECT_EQ(covered, std::vector<int>(c.size(), 1));
    if (nb >= c.size()) EXPECT_EQ(leaves.size(), 1u);
  }
  EXPECT_TRUE(plan(Cloud{}, 100).lists.front().leaf_nodes.empty());
}

}  // namespace
}  // namespace bltc
