#include "dist/let.hpp"

#include <algorithm>
#include <stdexcept>

namespace bltc::dist {

std::vector<double> serialize_tree(const ClusterTree& tree) {
  std::vector<double> blob;
  blob.reserve(1 + tree.num_nodes() * kNodeRecordSize);
  blob.push_back(static_cast<double>(tree.num_nodes()));
  for (std::size_t c = 0; c < tree.num_nodes(); ++c) {
    const ClusterNode& node = tree.node(static_cast<int>(c));
    for (int d = 0; d < 3; ++d) {
      blob.push_back(node.box.lo[static_cast<std::size_t>(d)]);
    }
    for (int d = 0; d < 3; ++d) {
      blob.push_back(node.box.hi[static_cast<std::size_t>(d)]);
    }
    for (int d = 0; d < 3; ++d) {
      blob.push_back(node.center[static_cast<std::size_t>(d)]);
    }
    blob.push_back(node.radius);
    blob.push_back(static_cast<double>(node.begin));
    blob.push_back(static_cast<double>(node.end));
    blob.push_back(static_cast<double>(node.parent));
    blob.push_back(static_cast<double>(node.level));
    blob.push_back(static_cast<double>(node.num_children));
    for (std::size_t k = 0; k < node.children.size(); ++k) {
      blob.push_back(static_cast<double>(node.children[k]));
    }
  }
  return blob;
}

ClusterTree deserialize_tree(const std::vector<double>& blob) {
  if (blob.empty()) {
    throw std::invalid_argument("deserialize_tree: empty blob");
  }
  const double count = blob[0];
  if (!(count >= 0.0) ||
      blob.size() != 1 + static_cast<std::size_t>(count) * kNodeRecordSize) {
    throw std::invalid_argument(
        "deserialize_tree: blob size inconsistent with its node count");
  }
  const std::size_t num_nodes = static_cast<std::size_t>(count);
  std::vector<ClusterNode> nodes(num_nodes);
  const double* p = blob.data() + 1;
  for (std::size_t c = 0; c < num_nodes; ++c) {
    ClusterNode& node = nodes[c];
    for (int d = 0; d < 3; ++d) {
      node.box.lo[static_cast<std::size_t>(d)] = *p++;
    }
    for (int d = 0; d < 3; ++d) {
      node.box.hi[static_cast<std::size_t>(d)] = *p++;
    }
    for (int d = 0; d < 3; ++d) {
      node.center[static_cast<std::size_t>(d)] = *p++;
    }
    node.radius = *p++;
    node.begin = static_cast<std::size_t>(*p++);
    node.end = static_cast<std::size_t>(*p++);
    node.parent = static_cast<int>(*p++);
    node.level = static_cast<int>(*p++);
    node.num_children = static_cast<int>(*p++);
    for (std::size_t k = 0; k < node.children.size(); ++k) {
      node.children[k] = static_cast<int>(*p++);
    }
  }
  return ClusterTree::from_nodes(std::move(nodes));
}

std::vector<int> collect_unique_nodes(const DualInteractionLists& lists,
                                      DualKind kind) {
  std::vector<int> out;
  for (const DualPair& pair : lists.leaf_pairs) {
    if (pair.kind == kind) out.push_back(pair.source);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> merge_node_ranges(
    const ClusterTree& tree, const std::vector<int>& nodes) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(nodes.size());
  for (const int ci : nodes) {
    const ClusterNode& node = tree.node(ci);
    if (node.count() == 0) continue;
    ranges.emplace_back(node.begin, node.end);
  }
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  for (const auto& r : ranges) {
    if (!merged.empty() && r.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

}  // namespace bltc::dist
