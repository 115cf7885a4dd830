// Multipole acceptance criterion, Eq. (13):
//   (r_B + r_C)/R < theta   and   (n+1)^3 < N_C.
// The geometric condition controls accuracy; the size condition ensures the
// approximation is only used when it is cheaper (and it is also more
// accurate to sum small clusters directly).
#pragma once

#include <array>
#include <cstddef>

#include "util/box.hpp"

namespace bltc {

/// Outcome of testing a target batch against a source cluster.
enum class MacResult {
  kApprox,        ///< both conditions hold: use the barycentric approximation
  kTooClose,      ///< geometric condition failed: recurse or go direct at leaf
  kClusterSmall,  ///< cluster has <= (n+1)^3 sources: direct sum immediately
};

/// Number of interpolation points for degree n: (n+1)^3.
constexpr std::size_t interpolation_point_count(int degree) {
  const auto m = static_cast<std::size_t>(degree) + 1;
  return m * m * m;
}

/// Batch-level MAC (§3.2): applied to the whole batch so that all targets in
/// a batch follow the same interaction path (no thread divergence on a GPU).
inline MacResult evaluate_mac(const std::array<double, 3>& batch_center,
                              double batch_radius,
                              const std::array<double, 3>& cluster_center,
                              double cluster_radius,
                              std::size_t cluster_count, double theta,
                              int degree) {
  const double r = distance(batch_center, cluster_center);
  if (batch_radius + cluster_radius >= theta * r) return MacResult::kTooClose;
  if (interpolation_point_count(degree) >= cluster_count)
    return MacResult::kClusterSmall;
  return MacResult::kApprox;
}

/// Pairwise MAC of the dual traversal (BLDTT): the geometric condition of
/// Eq. (13) applied to a (target node, source node) pair. The size
/// conditions are applied per side by the traversal itself (a side is only
/// interpolated when it holds more particles than interpolation points).
inline bool pair_well_separated(const std::array<double, 3>& target_center,
                                double target_radius,
                                const std::array<double, 3>& source_center,
                                double source_radius, double theta) {
  return target_radius + source_radius <
         theta * distance(target_center, source_center);
}

}  // namespace bltc
