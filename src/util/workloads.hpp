// Workload generators for the paper's experiments and the domain examples:
// uniform particles in a cube (all paper experiments), a Plummer sphere
// (irregular astrophysical distribution, listed by the paper as future work),
// and quadrature points on a sphere surface (boundary-element scenario).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bltc {

/// Structure-of-arrays particle cloud with charges.
struct Cloud {
  std::vector<double> x, y, z, q;

  std::size_t size() const { return x.size(); }
  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    z.resize(n);
    q.resize(n);
  }
};

/// N particles uniformly random in [lo, hi]^3 with charges uniform in
/// [-1, 1] — the distribution used by every experiment in the paper (§4).
Cloud uniform_cube(std::size_t n, std::uint64_t seed, double lo = -1.0,
                   double hi = 1.0);

/// N particles drawn from a Plummer model (scale radius a), a centrally
/// concentrated distribution typical of star clusters. Charges are set to
/// equal masses 1/N. Positions are clamped to radius `rmax * a`.
Cloud plummer_sphere(std::size_t n, std::uint64_t seed, double a = 1.0,
                     double rmax = 20.0);

/// N quasi-uniform points on the sphere of radius r (Fibonacci lattice),
/// with charges uniform in [-1, 1]; models boundary-element quadrature
/// points on a molecular surface.
Cloud sphere_surface(std::size_t n, std::uint64_t seed, double r = 1.0);

/// Two well-separated uniform clusters (a "dumbbell"); stresses the MAC and
/// the adaptive tree with a strongly non-uniform box population.
Cloud dumbbell(std::size_t n, std::uint64_t seed, double separation = 6.0);

// ---- Periodic workloads --------------------------------------------------
// Both generators fill the half-open cube [0, box)^3 — the canonical
// primary cell of a periodic run — and quantize coordinates to multiples of
// box * 2^-26. Quantization makes lattice translations x + i*box exact in
// double precision (for |i| up to ~2^25 and power-of-two boxes), which is
// what lets translation-invariance tests demand bit-for-bit equality.

/// NaCl-style cubic ionic lattice: `cells`^3 sites at cell centers with
/// alternating charges (-1)^(i+j+k), optionally jittered by a uniform
/// displacement of up to `jitter` * (half the site spacing) per axis
/// (seeded, deterministic). `cells` is rounded up to the next even number
/// so the lattice is exactly charge neutral, like a real rock-salt crystal.
/// Returns cells^3 particles.
Cloud ionic_lattice(std::size_t cells, std::uint64_t seed, double box = 1.0,
                    double jitter = 0.0);

/// Homogeneous two-species screened plasma: n particles uniform in
/// [0, box)^3 with alternating charges +1/-1 (exactly neutral for even n).
/// The Yukawa kernel is the physical pairing (Debye screening); its image
/// sum converges absolutely, so neutrality is not required there.
Cloud screened_plasma(std::size_t n, std::uint64_t seed, double box = 1.0);

/// Non-neutral ionic melt: n particles uniform in [0, box)^3 carrying a
/// 2:1 mix of +2 and -1 charges (think a molten-salt cell holding only the
/// cations of a divalent species plus half the compensating anions), so the
/// cell carries net charge n - floor(n/3)*3-dependent surplus > 0. Its
/// periodic Coulomb potential is defined under
/// BoundaryConditions::kPeriodicMesh, whose tinfoil / uniform-background
/// convention neutralizes the net monopole on the mesh. Coordinates are quantized like the other
/// periodic workloads so lattice translations stay exact.
Cloud ionic_melt(std::size_t n, std::uint64_t seed, double box = 1.0);

// ---- Request storms ------------------------------------------------------
// Serving-shaped workload: a seeded stream of evaluation requests over a
// mix of a few large *shared* clouds (requests repeat them — plan-cache
// hits after warmup), many unique small clouds (every request plans), and
// lattice-translated copies of shared periodic clouds (distinct storage,
// identical wrapped coordinates — the wrap-aware cache-hit case). Clouds
// are generated in [0, box)^3 with quantized coordinates so translations
// are exact; all cloud sizes are rounded up to even for charge neutrality.
// This layer is pure geometry + mix tags: mapping a tag to treecode
// parameters/kernels happens in the serving layer (serve/storm.hpp), which
// keeps util/ free of core types.

/// Boundary/traversal mix tag of one storm request.
enum class StormBoundary { kOpen, kPeriodic };
enum class StormTraversal { kBatched, kDual };

/// Storm shape. Fractions are probabilities per request.
struct StormSpec {
  std::size_t num_requests = 64;
  std::size_t num_shared = 3;       ///< large clouds requests keep revisiting
  std::size_t shared_size = 4096;   ///< particles per shared cloud
  std::size_t small_size = 256;     ///< particles per unique small cloud
  double shared_fraction = 0.5;     ///< request targets a shared cloud
  double translate_fraction = 0.5;  ///< periodic shared request arrives
                                    ///< lattice-translated
  double periodic_fraction = 0.25;
  double dual_fraction = 0.25;      ///< dual traversal (open requests only)
  double box = 1.0;                 ///< periodic cell edge
};

/// One request of the storm: which cloud plus its mix tags.
struct StormRequest {
  std::size_t cloud = 0;    ///< index into RequestStorm::clouds
  StormBoundary boundary = StormBoundary::kOpen;
  StormTraversal traversal = StormTraversal::kBatched;
  bool shared = false;      ///< revisits a shared cloud's plan
  bool translated = false;  ///< lattice-translated shared periodic cloud
};

/// A generated storm. `clouds` is stable storage for the whole run (the
/// serving layer's requests point into it); the first `num_shared` entries
/// are the shared clouds.
struct RequestStorm {
  std::vector<Cloud> clouds;
  std::vector<StormRequest> requests;
  double box = 1.0;
};

/// Generate a storm (deterministic in `seed`).
RequestStorm request_storm(const StormSpec& spec, std::uint64_t seed);

}  // namespace bltc
