// Particle-mesh Ewald far field (smooth PME) behind the plan/execute
// lifecycle.
//
// Under BoundaryConditions::kPeriodicMesh the periodic Coulomb kernel is
// split 1/r = erfc(alpha r)/r + erf(alpha r)/r. The screened short-range
// part runs through the existing treecode traversals (KernelType::
// kCoulombErfc) with a range cutoff that prunes everything the screening
// already killed, so the near field costs ~an open-boundary run instead of
// the 4.4-6.6x image-shell multiplier. The smooth long-range part is solved
// here: cardinal-B-spline charge spreading onto a power-of-two grid, one
// real-to-complex FFT, a pointwise multiply by the screened Green's
// function
//     G(k) = (4 pi / V) exp(-k^2 / 4 alpha^2) / k^2 / |D(m)|^2
// (the |D|^2 factor deconvolves both spline passes; the k = 0 term is
// dropped -- the tinfoil / uniform-background convention, which makes
// non-neutral clouds legal), the inverse FFT, and spline interpolation of
// potentials and analytic-gradient fields at the targets.
//
// Lifecycle mirrors SourcePlanState: build once over the tree-ordered
// sources, `update_charges` re-accumulates the grid from cached geometry
// weights (bit-identical to a fresh spread), `update_positions` applies
// O(moved) subtract/re-spread/add deltas over exactly the rewritten slot
// ranges, and `solve()` runs the FFT pipeline once per mutation.
// Interpolation (`add_potential` / `add_field`) is const and re-entrant, so
// a solved MeshPlan can be shared by the serving layer like any other
// compiled artifact.
//
// Determinism: spreading is slab-owned -- every x-plane of the grid is
// accumulated by exactly one thread, in a canonical (plane offset, slot)
// order -- so results are independent of the thread count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/particles.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "mesh/fft.hpp"

namespace bltc::mesh {

/// Everything the Ewald split needs agreed between the near and far field.
struct MeshTuning {
  int order = 6;          ///< B-spline order p (even: 4, 6, or 8)
  double alpha = 0.0;     ///< Ewald splitting parameter
  double r_cut = 0.0;     ///< near-field range cutoff (erfc horizon)
  std::size_t nx = 0, ny = 0, nz = 0;  ///< grid dimensions (powers of two)
  double target_error = 0.0;  ///< the split tolerance the tuner aimed at
};

/// Derive the Ewald split from the treecode parameters. The split tolerance
/// is tied to the nominal (theta, degree) treecode error target so the mesh
/// never dominates the error budget; explicit `ewald_alpha` /
/// `mesh_spacing` / `mesh_order` overrides in `params` win over the tuner.
/// The cutoff is capped at 0.45 * min domain length so a shells=1 shift
/// table always covers every image inside it.
MeshTuning tune_mesh(const TreecodeParams& params);

/// The screened near-field kernel the treecode evaluates under
/// kPeriodicMesh: erfc(alpha r)/r with the tuned alpha.
KernelSpec mesh_near_kernel(const TreecodeParams& params);

/// The compiled far-field artifact: grid, cached per-slot spreading
/// weights, screened Green's table, and (after solve()) the potential grid.
class MeshPlan {
 public:
  /// Build over the tree-ordered, domain-wrapped sources of a source plan.
  MeshPlan(const OrderedParticles& sources, const TreecodeParams& params);

  /// Charges changed, geometry did not: refresh the cached charges and
  /// re-accumulate the grid from the cached weights in canonical order --
  /// bit-identical to a fresh build over the same geometry.
  void update_charges(const OrderedParticles& sources);

  /// Positions changed in exactly the tree-order slot ranges
  /// `moved_ranges` (half-open): subtract each rewritten slot's cached
  /// contribution, recompute its weights from the new coordinates, and add
  /// it back -- O(moved * p^3) grid work.
  void update_positions(
      const OrderedParticles& sources,
      std::span<const std::pair<std::size_t, std::size_t>> moved_ranges);

  /// Run spread deltas' consequence: forward FFT, Green multiply, inverse
  /// FFT. No-op when nothing changed since the last solve.
  void solve();
  bool solved() const { return !dirty_; }

  /// Interpolate the far-field potential at `targets` (wrapped, any order)
  /// and add it into `phi` (one entry per target, same order). Includes the
  /// Ewald self-term correction for targets coincident with sources and the
  /// non-neutral uniform-background term. Const and re-entrant; requires
  /// solved().
  void add_potential(const OrderedParticles& targets,
                     std::span<double> phi) const;

  /// Interpolate potential and field E = -grad phi via analytic B-spline
  /// derivatives, adding into `out` (sized to targets). Requires solved().
  void add_field(const OrderedParticles& targets, FieldResult& out) const;

  const MeshTuning& tuning() const { return tuning_; }
  std::size_t grid_points() const { return nx_ * ny_ * nz_; }
  std::size_t num_sources() const { return charge_.size(); }
  /// Monotonic mutation counter: bumps on every build/update, so the
  /// modeled device can key its staged mesh state on it.
  std::uint64_t version() const { return version_; }
  /// Heap footprint (cache budget accounting).
  std::size_t bytes() const;

 private:
  struct Coincident {
    std::array<std::uint64_t, 3> key;
    double q = 0.0;
  };

  void cache_slot(std::size_t slot, const OrderedParticles& sources);
  void accumulate_all();
  void apply_slot_deltas(std::span<const std::uint32_t> slots, double sign,
                         bool use_cache);
  void rebuild_buckets();
  double coincident_charge(double x, double y, double z) const;

  MeshTuning tuning_;
  Box3 domain_;
  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  double hx_ = 0.0, hy_ = 0.0, hz_ = 0.0;  ///< grid spacings
  int p_ = 0;                              ///< spline order

  // Cached per-slot spreading state (tree-order slots).
  std::vector<int> base_;         ///< 3 per slot: wrapped base grid indices
  std::vector<double> weights_;   ///< 3p per slot: wx[p], wy[p], wz[p]
  std::vector<double> charge_;    ///< cached charges
  std::vector<std::array<std::uint64_t, 3>> keys_;  ///< coord bit patterns
  /// Slab ownership: slots listed under their base x-plane, ascending.
  std::vector<std::vector<std::uint32_t>> plane_slots_;

  std::vector<double> rho_;       ///< charge grid (spread state)
  std::vector<double> phi_grid_;  ///< solved potential grid
  std::vector<double> green_;     ///< screened Green's table (half spectrum)
  std::vector<double> spec_;      ///< FFT scratch (half spectrum, complex)
  Fft3 fft_;

  std::vector<Coincident> coincident_;  ///< sorted by key (built in solve)
  double q_total_ = 0.0;
  double self_factor_ = 0.0;  ///< 2 alpha / sqrt(pi)
  double background_ = 0.0;   ///< -pi q_total / (alpha^2 V), set in solve

  bool dirty_ = true;
  std::uint64_t version_ = 0;
  std::size_t updates_since_rebuild_ = 0;
};

}  // namespace bltc::mesh
