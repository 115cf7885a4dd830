// Cluster interpolation data: per-cluster tensor-product Chebyshev grids and
// modified charges q̂_k (Eq. 12). Two algebraically equivalent computation
// paths are provided:
//   * `kDirect`      — accumulate L_{k1} L_{k2} L_{k3} q_j per particle, the
//                      natural host formulation of Eq. (12);
//   * `kFactorized`  — the paper's two-kernel GPU formulation, Eq. (14)-(15):
//                      first q̃_j = q_j / (D_1 D_2 D_3), then
//                      q̂_k = sum_j [w/(y-s)]^3 q̃_j, with explicit handling
//                      of particles whose coordinates coincide with grid
//                      coordinates (which the minimal-bounding-box policy
//                      guarantees will happen).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/particles.hpp"
#include "core/tree.hpp"

namespace bltc {

/// Which algebraic formulation computes the modified charges. Both are
/// exact; they differ only in cost.
enum class MomentAlgorithm { kDirect, kFactorized };

/// Per-cluster interpolation grids and modified charges for a whole tree.
/// Storage is flat: cluster c owns grid coords [c*3*(n+1), ...) and modified
/// charges [c*(n+1)^3, ...), mirroring the device-friendly array layout the
/// paper uses for its cluster data.
class ClusterMoments {
 public:
  /// Compute grids and modified charges for every cluster of `tree`.
  static ClusterMoments compute(const ClusterTree& tree,
                                const OrderedParticles& sources, int degree,
                                MomentAlgorithm algorithm =
                                    MomentAlgorithm::kDirect);

  /// Process-wide count of full `compute` passes (not grids_only, not
  /// restrict_from, not charges-only refreshes). Tests use deltas of this
  /// counter to assert structural claims — e.g. that periodic image shells
  /// share one moment build with the home cell.
  static std::size_t build_count();

  int degree() const { return degree_; }
  std::size_t points_per_cluster() const { return ppc_; }
  std::size_t num_clusters() const { return num_clusters_; }

  /// Chebyshev coordinates of cluster `c` along dimension `dim` (size n+1).
  std::span<const double> grid(int c, int dim) const {
    const std::size_t m = static_cast<std::size_t>(degree_) + 1;
    return {grids_.data() +
                (static_cast<std::size_t>(c) * 3 +
                 static_cast<std::size_t>(dim)) *
                    m,
            m};
  }

  /// Modified charges of cluster `c`, flattened k = (k1*(n+1)+k2)*(n+1)+k3.
  std::span<const double> qhat(int c) const {
    return {qhat_.data() + static_cast<std::size_t>(c) * ppc_, ppc_};
  }

  /// Mutable access used by the distributed solver when filling a locally
  /// essential tree with remotely fetched charges.
  std::span<double> qhat_mutable(int c) {
    return {qhat_.data() + static_cast<std::size_t>(c) * ppc_, ppc_};
  }

  /// Whole flattened charge array (RMA window exposure).
  std::span<const double> all_qhat() const { return qhat_; }
  std::span<double> all_qhat_mutable() { return qhat_; }
  std::span<const double> all_grids() const { return grids_; }

  /// Build only the grids (no charges); the distributed solver uses this for
  /// remote clusters whose charges arrive over the network.
  static ClusterMoments grids_only(const ClusterTree& tree, int degree);

  /// Recompute the modified charges of a single cluster into `out`
  /// (size (n+1)^3); exposed for tests.
  static void compute_cluster_direct(const ClusterTree& tree,
                                     const OrderedParticles& sources,
                                     int degree, int cluster,
                                     std::span<const double> gx,
                                     std::span<const double> gy,
                                     std::span<const double> gz,
                                     std::span<double> out);

  static void compute_cluster_factorized(const ClusterTree& tree,
                                         const OrderedParticles& sources,
                                         int degree, int cluster,
                                         std::span<const double> gx,
                                         std::span<const double> gy,
                                         std::span<const double> gz,
                                         std::span<double> out);

  /// Recompute cluster `cluster`'s modified charges in place with the
  /// formulation `algorithm` resolves to for that cluster's size — the one
  /// per-cluster body behind `compute` and the plans' charges-only and
  /// position refreshes.
  static void recompute_cluster(const ClusterTree& tree,
                                const OrderedParticles& sources,
                                MomentAlgorithm algorithm, int cluster,
                                ClusterMoments& moments);

  /// Accumulate one particle's signed contribution q * L_k1(x) L_k2(y)
  /// L_k3(z) into a cluster's modified charges in place. With a negative
  /// `q` this subtracts a stale contribution, which is the whole delta
  /// position update: -old +new per moved particle per containing cluster,
  /// O(moved) instead of O(cluster size). `w` are the Chebyshev barycentric
  /// weights for `degree` (hoisted so callers pay for them once per batch).
  static void accumulate_particle(int degree, std::span<const double> gx,
                                  std::span<const double> gy,
                                  std::span<const double> gz,
                                  std::span<const double> w, double x,
                                  double y, double z, double q,
                                  std::span<double> out);

  /// Restrict modified charges to a lower interpolation degree on the same
  /// boxes: q̂'_k = sum_m L_m(s'_k) q̂_m per dimension. Exact (not an
  /// approximation): degree-n interpolation reproduces the degree-n' <= n
  /// Lagrange polynomials, so the result equals recomputing Eq. (12) at the
  /// coarse degree. This is what makes the variable-order dual traversal's
  /// moment ladder essentially free — one O((n'+1)(n+1)^3) tensor transfer
  /// per cluster instead of a full O(N_C (n'+1)^3) pass over the particles.
  static ClusterMoments restrict_from(const ClusterTree& tree,
                                      const ClusterMoments& fine,
                                      int coarse_degree);

  /// Per-cluster body of `restrict_from`: restrict one cluster's
  /// fine-degree modified charges into `coarse` (same boxes,
  /// coarse.degree() <= fine.degree()). Exposed so incremental position
  /// updates can refresh the moment ladder for dirty clusters only.
  static void restrict_cluster(const ClusterMoments& fine, int cluster,
                               ClusterMoments& coarse);

 private:
  int degree_ = 0;
  std::size_t ppc_ = 0;  ///< (n+1)^3
  std::size_t num_clusters_ = 0;
  std::vector<double> grids_;  ///< [cluster][dim][n+1]
  std::vector<double> qhat_;   ///< [cluster][(n+1)^3]
};

}  // namespace bltc
