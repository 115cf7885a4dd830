// Periodic boundary conditions (§5 future work direction; the lattice-sum
// setting of molecular dynamics, screened plasmas, and cosmological boxes).
//
// The key observation is that the barycentric cluster moments are
// *translation invariant*: q̂_k depends only on source positions relative to
// the cluster's own Chebyshev grid (Eq. 12). A lattice image of a cluster is
// therefore the same cluster with its grid rigidly shifted by a lattice
// vector — identical modified charges, identical grids up to the shift. One
// source plan (one tree, one moment build, one device upload) serves every
// image: the traversal runs the MAC against lattice-shifted copies of the
// source tree root, and every interaction-list entry carries a compact
// shift id indexing the shared `ShiftTable`. Executors add the shift to the
// source stream (cluster proxy points or particle coordinates) as they
// stage it — the tile kernels themselves are unchanged.
//
// Image-set semantics: the computed potential is the *finite* lattice sum
//   phi(x_i) = sum_{s in shifts} sum_j G(x_i - y_j - s) q_j
// over the (2k+1)^3 images with |i|,|j|,|k| <= image_shells (self-term
// skipped at s = 0 for singular kernels, the usual treecode convention; a
// particle does interact with its own images). Near-field (MAC-failing)
// work only ever arises from the home cell and the adjacent image shell, so
// the direct tiles realize the minimum-image convention; far images are
// absorbed by cluster approximations high in the shifted trees. Yukawa and
// Gaussian sums converge absolutely in the shell count and are the image-sum
// kernels; the Coulomb lattice sum is conditionally convergent, so more
// shells do not converge it, and periodic Coulomb runs under kPeriodicMesh
// instead (`require_boundary_kernel`).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "util/box.hpp"
#include "util/workloads.hpp"

namespace bltc {

struct TreecodeParams;

/// Boundary conditions of the evaluation domain.
enum class BoundaryConditions {
  kOpen,      ///< free space (every workload of the original paper)
  kPeriodic,  ///< periodic images of `TreecodeParams::domain`
  /// Ewald split over `TreecodeParams::domain`: screened treecode near field
  /// (erfc(alpha r)/r, one image shell, range cutoff) plus an FFT mesh far
  /// field (src/mesh). Coulomb only; the infinite lattice sum under the
  /// tinfoil / uniform-background convention, so non-neutral systems are
  /// legal (a homogeneous compensating background is implied).
  kPeriodicMesh,
};

/// Shared table of lattice shift vectors. Entry 0 is always the home cell
/// (zero shift); the remaining entries enumerate the integer triples
/// (i, j, k) != 0 with max(|i|,|j|,|k|) <= shells in lexicographic order,
/// so the table — and therefore every interaction-list ordering built from
/// it — is deterministic. Interaction-list entries store the index as a
/// 16-bit shift id; executors resolve it here (the GpuSim cost model charges
/// one upload of a device-resident copy).
struct ShiftTable {
  std::vector<double> sx, sy, sz;  ///< SoA shift components, home cell first
  int shells = 0;

  std::size_t size() const { return sx.size(); }

  std::array<double, 3> shift(std::size_t id) const {
    return {sx[id], sy[id], sz[id]};
  }

  /// Bytes a device-resident copy occupies (three doubles per entry).
  std::size_t bytes() const { return 3 * size() * sizeof(double); }

  /// Build the table for `shells` image shells of `domain` ((2k+1)^3
  /// entries). `shells == 0` yields the home cell only, which makes a
  /// periodic run bit-identical to an open run over in-domain particles.
  static ShiftTable build(const Box3& domain, int shells);
};

/// One interaction-list entry's lattice shift, resolved from the shared
/// table by its compact id. The zero shift (id 0) is the home cell and the
/// whole open-boundary path; executors on every backend resolve through
/// resolve_pair_shift (core/interaction_lists.hpp), so the id semantics
/// live in exactly one place.
struct ResolvedShift {
  double x = 0.0, y = 0.0, z = 0.0;
  int id = 0;
};

/// Wrap one coordinate into the half-open interval [lo, lo + len). Exact
/// (bit-for-bit inverse of adding a lattice vector) whenever the lattice
/// translation itself was exact in double precision, because fmod is
/// correctly rounded and its result here is always representable.
double wrap_coordinate(double v, double lo, double len);

/// Wrap a cloud into `domain` (positions only; charges pass through).
Cloud wrap_cloud(const Cloud& cloud, const Box3& domain);

/// Which boundary mode serves which kernel: kPeriodic image sums reject
/// Coulomb (conditionally convergent; use kPeriodicMesh), and kPeriodicMesh
/// serves Coulomb only (the Ewald split is a property of 1/r). Throws
/// std::invalid_argument naming the mode to use. Called by the Solver
/// constructor and at ServeFrontend admission.
void require_boundary_kernel(const TreecodeParams& params,
                             const KernelSpec& kernel);

// ---- Periodic O(N^2) oracles ---------------------------------------------
// Reference sums over the *identical* image set the treecode uses: inputs
// are wrapped into `domain` exactly as the plan layer wraps them, then every
// target sums every source over every entry of ShiftTable::build(domain,
// shells). Parity between treecode and oracle is therefore a statement
// about the approximation alone, not about image-set conventions.

/// Periodic potential at every target (OpenMP over targets).
std::vector<double> direct_sum_periodic(const Cloud& targets,
                                        const Cloud& sources,
                                        const KernelSpec& kernel,
                                        const Box3& domain, int shells);

/// Periodic potential at the sampled targets only.
std::vector<double> direct_sum_periodic_sampled(
    const Cloud& targets, std::span<const std::size_t> sample,
    const Cloud& sources, const KernelSpec& kernel, const Box3& domain,
    int shells);

}  // namespace bltc
