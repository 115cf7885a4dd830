// Locally essential tree (LET) building blocks (§3.1): each rank serializes
// its cluster tree into a flat double blob exposed through an RMA window;
// remote ranks pull the blob, rebuild the tree, run the MAC traversal
// against it locally, and then fetch only the data the traversal actually
// needs — modified charges for MAC-accepted clusters, particle ranges for
// direct-interaction clusters. Helper routines here are pure (no
// communication) so they are unit-testable without ranks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/tree.hpp"

namespace bltc::dist {

/// Doubles per serialized ClusterNode record: box lo/hi (6), center (3),
/// radius (1), begin/end (2), parent/level/num_children (3), children (8).
inline constexpr std::size_t kNodeRecordSize = 23;

/// Flatten a tree into [num_nodes, node records...] for window exposure.
std::vector<double> serialize_tree(const ClusterTree& tree);

/// Rebuild a tree from a serialized blob. Throws std::invalid_argument on
/// malformed input (empty, or size inconsistent with the node count).
ClusterTree deserialize_tree(const std::vector<double>& blob);

/// Sorted, deduplicated source cluster indices of the lists' leaf pairs of
/// `kind` (kPC: modified charges to fetch; kDirect: particle ranges).
std::vector<int> collect_unique_nodes(const DualInteractionLists& lists,
                                      DualKind kind);

/// Coalesce the particle ranges of `nodes` into a minimal set of disjoint
/// [begin, end) ranges (overlapping and adjacent ranges merge; empty nodes
/// are skipped). Fetching merged ranges keeps the number of one-sided gets
/// proportional to the LET surface, not the cluster count.
std::vector<std::pair<std::size_t, std::size_t>> merge_node_ranges(
    const ClusterTree& tree, const std::vector<int>& nodes);

}  // namespace bltc::dist
