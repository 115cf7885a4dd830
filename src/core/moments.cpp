#include "core/moments.hpp"

#include <atomic>
#include <cassert>

#include "core/barycentric.hpp"
#include "core/chebyshev.hpp"
#include "core/mac.hpp"

namespace bltc {

namespace {
std::atomic<std::size_t> moment_build_count{0};
}  // namespace

std::size_t ClusterMoments::build_count() {
  return moment_build_count.load(std::memory_order_relaxed);
}

ClusterMoments ClusterMoments::grids_only(const ClusterTree& tree,
                                          int degree) {
  ClusterMoments m;
  m.degree_ = degree;
  m.ppc_ = interpolation_point_count(degree);
  m.num_clusters_ = tree.num_nodes();
  const std::size_t npts = static_cast<std::size_t>(degree) + 1;
  m.grids_.assign(m.num_clusters_ * 3 * npts, 0.0);
  m.qhat_.assign(m.num_clusters_ * m.ppc_, 0.0);
  for (std::size_t c = 0; c < m.num_clusters_; ++c) {
    const Box3& box = tree.node(static_cast<int>(c)).box;
    for (int d = 0; d < 3; ++d) {
      chebyshev2_points_into(
          degree, box.lo[static_cast<std::size_t>(d)],
          box.hi[static_cast<std::size_t>(d)],
          {m.grids_.data() + (c * 3 + static_cast<std::size_t>(d)) * npts,
           npts});
    }
  }
  return m;
}

void ClusterMoments::compute_cluster_direct(
    const ClusterTree& tree, const OrderedParticles& sources, int degree,
    int cluster, std::span<const double> gx, std::span<const double> gy,
    std::span<const double> gz, std::span<double> out) {
  const ClusterNode& node = tree.node(cluster);
  const std::size_t m = static_cast<std::size_t>(degree) + 1;
  const std::vector<double> w = chebyshev2_weights(degree);
  std::vector<double> l1(m), l2(m), l3(m);

  for (double& v : out) v = 0.0;
  for (std::size_t j = node.begin; j < node.end; ++j) {
    barycentric_basis(gx, w, sources.x[j], l1);
    barycentric_basis(gy, w, sources.y[j], l2);
    barycentric_basis(gz, w, sources.z[j], l3);
    const double qj = sources.q[j];
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      const double a = l1[k1] * qj;
      if (a == 0.0) continue;
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        const double ab = a * l2[k2];
        if (ab == 0.0) continue;
        double* row = out.data() + (k1 * m + k2) * m;
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          row[k3] += ab * l3[k3];
        }
      }
    }
  }
}

void ClusterMoments::accumulate_particle(int degree,
                                         std::span<const double> gx,
                                         std::span<const double> gy,
                                         std::span<const double> gz,
                                         std::span<const double> w, double x,
                                         double y, double z, double q,
                                         std::span<double> out) {
  const std::size_t m = static_cast<std::size_t>(degree) + 1;
  std::vector<double> l1(m), l2(m), l3(m);
  barycentric_basis(gx, w, x, l1);
  barycentric_basis(gy, w, y, l2);
  barycentric_basis(gz, w, z, l3);
  for (std::size_t k1 = 0; k1 < m; ++k1) {
    const double a = l1[k1] * q;
    if (a == 0.0) continue;
    for (std::size_t k2 = 0; k2 < m; ++k2) {
      const double ab = a * l2[k2];
      if (ab == 0.0) continue;
      double* __restrict row = out.data() + (k1 * m + k2) * m;
#pragma omp simd
      for (std::size_t k3 = 0; k3 < m; ++k3) {
        row[k3] += ab * l3[k3];
      }
    }
  }
}

void ClusterMoments::compute_cluster_factorized(
    const ClusterTree& tree, const OrderedParticles& sources, int degree,
    int cluster, std::span<const double> gx, std::span<const double> gy,
    std::span<const double> gz, std::span<double> out) {
  const ClusterNode& node = tree.node(cluster);
  const std::size_t m = static_cast<std::size_t>(degree) + 1;
  const std::vector<double> w = chebyshev2_weights(degree);

  for (double& v : out) v = 0.0;

  // Kernel 1 (Eq. 14): intermediate charges for particles whose coordinates
  // do not coincide with any grid coordinate. Particles with a coincidence
  // are deferred to the delta-condition cleanup below, because 1/(y-s)
  // factors are undefined for them.
  std::vector<unsigned char> hit(node.count(), 0);
  bool any_hit = false;
  // Kernel 2 scratch: per-dimension w[k]/(s - g[k]) tables for one particle.
  // Hoisting them out of the m^3 accumulation turns its inner loop into
  // pure multiply-add (the original grid-point-outer formulation redid
  // three divisions per (particle, grid point) pair — the reason the
  // factorized form lost to the direct one on the host).
  std::vector<double> ax(m), ay(m), az(m);
  for (std::size_t j = 0; j < node.count(); ++j) {
    const std::size_t p = node.begin + j;
    const Denominator d1 = barycentric_denominator(gx, w, sources.x[p]);
    const Denominator d2 = barycentric_denominator(gy, w, sources.y[p]);
    const Denominator d3 = barycentric_denominator(gz, w, sources.z[p]);
    if (d1.hit >= 0 || d2.hit >= 0 || d3.hit >= 0) {
      hit[j] = 1;
      any_hit = true;
      continue;
    }
    const double qtilde = sources.q[p] / (d1.value * d2.value * d3.value);

    // Kernel 2 (Eq. 15), particle-outer form: q̂_k += [w/(y-s)]^3 q̃_j.
    const double sx = sources.x[p], sy = sources.y[p], sz = sources.z[p];
    for (std::size_t k = 0; k < m; ++k) {
      ax[k] = w[k] / (sx - gx[k]);
      ay[k] = w[k] / (sy - gy[k]);
      az[k] = w[k] / (sz - gz[k]);
    }
    const double* __restrict azp = az.data();
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      const double a = ax[k1] * qtilde;
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        const double ab = a * ay[k2];
        double* __restrict row = out.data() + (k1 * m + k2) * m;
#pragma omp simd
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          row[k3] += ab * azp[k3];
        }
      }
    }
  }
  if (!any_hit) return;

  // Cleanup for coincident particles: enforce L_k = delta in the hit
  // dimension(s) and the ordinary barycentric basis elsewhere.
  std::vector<double> l1(m), l2(m), l3(m);
  for (std::size_t j = 0; j < node.count(); ++j) {
    if (!hit[j]) continue;
    const std::size_t p = node.begin + j;
    barycentric_basis(gx, w, sources.x[p], l1);
    barycentric_basis(gy, w, sources.y[p], l2);
    barycentric_basis(gz, w, sources.z[p], l3);
    const double qj = sources.q[p];
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      const double a = l1[k1] * qj;
      if (a == 0.0) continue;
      for (std::size_t k2 = 0; k2 < m; ++k2) {
        const double ab = a * l2[k2];
        if (ab == 0.0) continue;
        double* row = out.data() + (k1 * m + k2) * m;
        for (std::size_t k3 = 0; k3 < m; ++k3) {
          row[k3] += ab * l3[k3];
        }
      }
    }
  }
}

void ClusterMoments::restrict_cluster(const ClusterMoments& fine, int cluster,
                                      ClusterMoments& coarse) {
  const std::size_t mf = static_cast<std::size_t>(fine.degree()) + 1;
  const std::size_t mc = static_cast<std::size_t>(coarse.degree()) + 1;
  const std::vector<double> w = chebyshev2_weights(coarse.degree());
  const int ci = cluster;
  // Modified charges transform with the *adjoint* of value interpolation:
  // q̂'_k = sum_m L'_k(s_m) q̂_m, with the coarse basis L' evaluated at
  // the fine grid points s_m. Per-dimension matrices stored fine-point-
  // major: Bd[m * mc + k] = L'_k(s^{fine}_m).
  std::vector<double> b1(mf * mc), b2(mf * mc), b3(mf * mc);
  for (std::size_t j = 0; j < mf; ++j) {
    barycentric_basis(coarse.grid(ci, 0), w, fine.grid(ci, 0)[j],
                      {b1.data() + j * mc, mc});
    barycentric_basis(coarse.grid(ci, 1), w, fine.grid(ci, 1)[j],
                      {b2.data() + j * mc, mc});
    barycentric_basis(coarse.grid(ci, 2), w, fine.grid(ci, 2)[j],
                      {b3.data() + j * mc, mc});
  }
  // Mode-by-mode application of B1^T (x) B2^T (x) B3^T.
  const std::span<const double> q = fine.qhat(ci);
  std::vector<double> tmp1(mc * mf * mf, 0.0);
  for (std::size_t j1 = 0; j1 < mf; ++j1) {
    const double* src = q.data() + j1 * mf * mf;
    for (std::size_t k1 = 0; k1 < mc; ++k1) {
      const double coeff = b1[j1 * mc + k1];
      if (coeff == 0.0) continue;
      double* dst = tmp1.data() + k1 * mf * mf;
      for (std::size_t i = 0; i < mf * mf; ++i) dst[i] += coeff * src[i];
    }
  }
  std::vector<double> tmp2(mc * mc * mf, 0.0);
  for (std::size_t k1 = 0; k1 < mc; ++k1) {
    for (std::size_t j2 = 0; j2 < mf; ++j2) {
      const double* src = tmp1.data() + (k1 * mf + j2) * mf;
      for (std::size_t k2 = 0; k2 < mc; ++k2) {
        const double coeff = b2[j2 * mc + k2];
        if (coeff == 0.0) continue;
        double* dst = tmp2.data() + (k1 * mc + k2) * mf;
        for (std::size_t i = 0; i < mf; ++i) dst[i] += coeff * src[i];
      }
    }
  }
  const std::span<double> out = coarse.qhat_mutable(ci);
  for (double& v : out) v = 0.0;
  for (std::size_t r = 0; r < mc * mc; ++r) {
    const double* src = tmp2.data() + r * mf;
    double* dst = out.data() + r * mc;
    for (std::size_t j = 0; j < mf; ++j) {
      const double* brow = b3.data() + j * mc;
      const double s = src[j];
      if (s == 0.0) continue;
      for (std::size_t k3 = 0; k3 < mc; ++k3) dst[k3] += brow[k3] * s;
    }
  }
}

ClusterMoments ClusterMoments::restrict_from(const ClusterTree& tree,
                                             const ClusterMoments& fine,
                                             int coarse_degree) {
  ClusterMoments coarse = grids_only(tree, coarse_degree);
  const std::size_t nc = coarse.num_clusters_;
#pragma omp parallel for schedule(dynamic)
  for (std::size_t c = 0; c < nc; ++c) {
    restrict_cluster(fine, static_cast<int>(c), coarse);
  }
  return coarse;
}

ClusterMoments ClusterMoments::compute(const ClusterTree& tree,
                                       const OrderedParticles& sources,
                                       int degree,
                                       MomentAlgorithm algorithm) {
  moment_build_count.fetch_add(1, std::memory_order_relaxed);
  ClusterMoments m = grids_only(tree, degree);
  const std::size_t nc = m.num_clusters_;
#pragma omp parallel for schedule(dynamic)
  for (std::size_t c = 0; c < nc; ++c) {
    recompute_cluster(tree, sources, algorithm, static_cast<int>(c), m);
  }
  return m;
}

void ClusterMoments::recompute_cluster(const ClusterTree& tree,
                                       const OrderedParticles& sources,
                                       MomentAlgorithm algorithm, int cluster,
                                       ClusterMoments& moments) {
  const int degree = moments.degree_;
  const auto gx = moments.grid(cluster, 0);
  const auto gy = moments.grid(cluster, 1);
  const auto gz = moments.grid(cluster, 2);
  const std::span<double> out = moments.qhat_mutable(cluster);
  if (algorithm == MomentAlgorithm::kDirect) {
    compute_cluster_direct(tree, sources, degree, cluster, gx, gy, gz, out);
  } else {
    compute_cluster_factorized(tree, sources, degree, cluster, gx, gy, gz,
                               out);
  }
}

}  // namespace bltc
