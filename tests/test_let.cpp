#include "dist/let.hpp"

#include <gtest/gtest.h>

#include "util/workloads.hpp"

namespace bltc::dist {
namespace {

ClusterTree build_tree(std::size_t n, std::size_t leaf,
                       OrderedParticles& out_particles,
                       std::uint64_t seed = 1) {
  const Cloud c = uniform_cube(n, seed);
  out_particles = OrderedParticles::from_cloud(c);
  TreeParams tp;
  tp.max_leaf = leaf;
  return ClusterTree::build(out_particles, tp);
}

TEST(Let, SerializeDeserializeRoundTrip) {
  OrderedParticles p;
  const ClusterTree tree = build_tree(3000, 150, p);
  const std::vector<double> blob = serialize_tree(tree);
  EXPECT_EQ(blob.size(), 1 + tree.num_nodes() * kNodeRecordSize);

  const ClusterTree copy = deserialize_tree(blob);
  ASSERT_EQ(copy.num_nodes(), tree.num_nodes());
  EXPECT_EQ(copy.num_leaves(), tree.num_leaves());
  EXPECT_EQ(copy.max_level(), tree.max_level());
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const ClusterNode& a = tree.node(static_cast<int>(i));
    const ClusterNode& b = copy.node(static_cast<int>(i));
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.num_children, b.num_children);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.level, b.level);
    EXPECT_DOUBLE_EQ(a.radius, b.radius);
    for (int d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(a.center[static_cast<std::size_t>(d)],
                       b.center[static_cast<std::size_t>(d)]);
      EXPECT_DOUBLE_EQ(a.box.lo[static_cast<std::size_t>(d)],
                       b.box.lo[static_cast<std::size_t>(d)]);
      EXPECT_DOUBLE_EQ(a.box.hi[static_cast<std::size_t>(d)],
                       b.box.hi[static_cast<std::size_t>(d)]);
    }
    for (int c = 0; c < a.num_children; ++c) {
      EXPECT_EQ(a.children[static_cast<std::size_t>(c)],
                b.children[static_cast<std::size_t>(c)]);
    }
  }
}

TEST(Let, DeserializeRejectsMalformedBlobs) {
  EXPECT_THROW(deserialize_tree({}), std::invalid_argument);
  EXPECT_THROW(deserialize_tree({2.0, 1.0, 1.0}), std::invalid_argument);
}

TEST(Let, RemoteTraversalOnDeserializedTreeMatchesOriginal) {
  OrderedParticles p;
  const ClusterTree tree = build_tree(4000, 200, p, 2);
  OrderedParticles targets;
  const ClusterTree target_tree = build_tree(1000, 200, targets, 3);

  const DualInteractionLists direct_lists =
      build_interaction_lists(target_tree, tree, 0.7, 4);
  const ClusterTree remote = deserialize_tree(serialize_tree(tree));
  const DualInteractionLists remote_lists =
      build_interaction_lists(target_tree, remote, 0.7, 4);

  EXPECT_EQ(direct_lists.total_pc, remote_lists.total_pc);
  EXPECT_EQ(direct_lists.total_direct, remote_lists.total_direct);
  EXPECT_EQ(direct_lists.leaf_nodes, remote_lists.leaf_nodes);
  EXPECT_EQ(direct_lists.leaf_offsets, remote_lists.leaf_offsets);
  ASSERT_EQ(direct_lists.leaf_pairs.size(), remote_lists.leaf_pairs.size());
  for (std::size_t e = 0; e < direct_lists.leaf_pairs.size(); ++e) {
    const DualPair& a = direct_lists.leaf_pairs[e];
    const DualPair& b = remote_lists.leaf_pairs[e];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.source, b.source);
  }
}

TEST(Let, CollectUniqueNodesDeduplicatesAcrossBatches) {
  DualInteractionLists lists;
  for (const int ci : {5, 2, 9, 2, 5, 9, 1}) {
    lists.leaf_pairs.push_back({DualKind::kPC, 0, 0, 10 + ci % 3, ci});
  }
  for (const int ci : {4, 4, 3}) {
    lists.leaf_pairs.push_back({DualKind::kDirect, 0, 0, 10 + ci % 2, ci});
  }
  const auto approx = collect_unique_nodes(lists, DualKind::kPC);
  EXPECT_EQ(approx, (std::vector<int>{1, 2, 5, 9}));
  const auto direct = collect_unique_nodes(lists, DualKind::kDirect);
  EXPECT_EQ(direct, (std::vector<int>{3, 4}));
}

TEST(Let, MergeNodeRangesCoalescesOverlapsAndAdjacency) {
  OrderedParticles p;
  const ClusterTree tree = build_tree(2000, 100, p, 4);
  // Parent + its children: the children tile the parent range, so merging
  // parent and children must give exactly the parent range.
  const ClusterNode& root = tree.node(0);
  std::vector<int> nodes{0};
  for (int c = 0; c < root.num_children; ++c) {
    nodes.push_back(root.children[static_cast<std::size_t>(c)]);
  }
  const auto merged = merge_node_ranges(tree, nodes);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].first, root.begin);
  EXPECT_EQ(merged[0].second, root.end);
}

TEST(Let, MergeNodeRangesKeepsDisjointRangesSeparate) {
  OrderedParticles p;
  const ClusterTree tree = build_tree(4000, 100, p, 5);
  // Two non-adjacent leaves.
  const auto leaves = tree.leaf_indices();
  ASSERT_GE(leaves.size(), 4u);
  // Find two leaves with a gap between their ranges.
  int a = leaves[0];
  int b = -1;
  for (const int li : leaves) {
    if (tree.node(li).begin > tree.node(a).end) {
      b = li;
      break;
    }
  }
  ASSERT_NE(b, -1);
  const auto merged = merge_node_ranges(tree, {a, b});
  EXPECT_EQ(merged.size(), 2u);
}

TEST(Let, MergeNodeRangesSkipsEmptyNodes) {
  OrderedParticles p;
  Cloud empty_cloud;
  OrderedParticles ep = OrderedParticles::from_cloud(empty_cloud);
  const ClusterTree tree = ClusterTree::build(ep, TreeParams{});
  const auto merged = merge_node_ranges(tree, {0});
  EXPECT_TRUE(merged.empty());
}

}  // namespace
}  // namespace bltc::dist
