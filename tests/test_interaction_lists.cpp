#include "core/interaction_lists.hpp"

#include <gtest/gtest.h>

#include "core/batches.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

struct Harness {
  OrderedParticles sources;
  OrderedParticles targets;
  ClusterTree tree;
  std::vector<TargetBatch> batches;
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
  s.batches = build_target_batches(s.targets, batch);
  return s;
}

/// The fundamental traversal invariant: for every batch, the particle
/// ranges of its approx+direct clusters tile the full source set exactly
/// once — no source is missed, none is double counted.
void check_coverage(const Harness& s, const InteractionLists& lists) {
  ASSERT_EQ(lists.per_batch.size(), s.batches.size());
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    std::vector<int> covered(s.sources.size(), 0);
    const auto mark = [&](int ci) {
      const ClusterNode& n = s.tree.node(ci);
      for (std::size_t i = n.begin; i < n.end; ++i) ++covered[i];
    };
    for (const int ci : lists.per_batch[b].approx) mark(ci);
    for (const int ci : lists.per_batch[b].direct) mark(ci);
    for (std::size_t i = 0; i < covered.size(); ++i) {
      ASSERT_EQ(covered[i], 1) << "batch " << b << " source " << i;
    }
  }
}

TEST(InteractionLists, EveryBatchCoversAllSourcesExactlyOnce) {
  const Harness s = make_setup(4000, 200, 200);
  const InteractionLists lists = build_interaction_lists(s.batches, s.tree,
                                                         0.7, 4);
  check_coverage(s, lists);
  EXPECT_GT(lists.total_approx, 0u);
  EXPECT_GT(lists.total_direct, 0u);
}

class InteractionListsSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(InteractionListsSweep, CoverageHoldsAcrossParameters) {
  const auto [theta, degree] = GetParam();
  const Harness s = make_setup(3000, 150, 150, 2);
  const InteractionLists lists =
      build_interaction_lists(s.batches, s.tree, theta, degree);
  check_coverage(s, lists);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaDegree, InteractionListsSweep,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(1, 4, 8)));

TEST(InteractionLists, ApproxClustersAreLargeEnough) {
  // The size condition of Eq. (13): an approximated cluster always holds
  // more sources than interpolation points.
  const int degree = 3;
  const Harness s = make_setup(4000, 200, 200, 3);
  const InteractionLists lists =
      build_interaction_lists(s.batches, s.tree, 0.8, degree);
  for (const auto& bi : lists.per_batch) {
    for (const int ci : bi.approx) {
      EXPECT_GT(s.tree.node(ci).count(), interpolation_point_count(degree));
    }
  }
}

TEST(InteractionLists, ApproxClustersSatisfyGeometricMac) {
  const double theta = 0.7;
  const Harness s = make_setup(4000, 200, 200, 4);
  const InteractionLists lists =
      build_interaction_lists(s.batches, s.tree, theta, 4);
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    for (const int ci : lists.per_batch[b].approx) {
      const ClusterNode& n = s.tree.node(ci);
      const double r = distance(s.batches[b].center, n.center);
      EXPECT_LT(s.batches[b].radius + n.radius, theta * r);
    }
  }
}

TEST(InteractionLists, SmallerThetaMeansMoreDirectWork) {
  // Direct-pair work is non-decreasing as theta tightens, and strictly
  // grows between the extremes (until it saturates at full N^2).
  const Harness s = make_setup(6000, 100, 100, 5);
  const auto direct_pairs = [&](double theta) {
    const InteractionLists lists =
        build_interaction_lists(s.batches, s.tree, theta, 2);
    double pairs = 0.0;
    for (std::size_t b = 0; b < s.batches.size(); ++b) {
      for (const int ci : lists.per_batch[b].direct) {
        pairs += static_cast<double>(s.tree.node(ci).count());
      }
    }
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
  const auto batches = build_target_batches(tgt, 200);
  const InteractionLists lists = build_interaction_lists(batches, tree, 0.5,
                                                         2);
  EXPECT_EQ(lists.total_direct, 0u);
  EXPECT_GT(lists.total_approx, 0u);
}

TEST(InteractionLists, OneTargetBatchesCoverAllSources) {
  // max_batch = 1 is the per-target MAC of §3.2: one list per target.
  const Harness s = make_setup(2000, 100, 1, 8);
  const InteractionLists lists =
      build_interaction_lists(s.batches, s.tree, 0.7, 4);
  ASSERT_EQ(lists.per_batch.size(), s.targets.size());
  check_coverage(s, lists);
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
    const InteractionLists l =
        build_interaction_lists(s.batches, s.tree, 0.7, 4);
    double pairs = 0.0;
    for (std::size_t b = 0; b < l.per_batch.size(); ++b) {
      for (const int ci : l.per_batch[b].direct) {
        pairs += static_cast<double>(s.tree.node(ci).count() *
                                     s.batches[b].count());
      }
    }
    return pairs / static_cast<double>(s.targets.size());
  };
  EXPECT_LE(mean_direct_pairs(point), mean_direct_pairs(batched) * 1.05);
}

}  // namespace
}  // namespace bltc
