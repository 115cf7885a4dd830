// Potentials *and* fields (negative potential gradients). The BLTC
// approximation interpolates G in the source variable only (Eq. 8), so it
// can be differentiated analytically in the target variable:
//   E(x) = -grad phi(x) ~ -sum_k grad_x G(x, s_k) q̂_k,
// which converges at the same rate as the potential itself. For radial
// kernels G(|x-y|), grad_x G = (G'(r)/r) (x - y), so each kernel only needs
// one extra scalar function. This enables force evaluation for dynamics
// (gravitational N-body, molecular dynamics) on top of the paper's
// machinery.
#pragma once

#include <cmath>
#include <vector>

#include "core/kernels.hpp"
#include "core/periodic.hpp"
#include "core/solver.hpp"
#include "util/workloads.hpp"

namespace bltc {

// FieldResult lives in core/solver.hpp: fields are evaluated through the
// same Solver handle as potentials (`Solver::evaluate_field`), sharing one
// plan. Each kernel's gradient is its functor's `grad` (core/kernels.hpp);
// this header keeps the scalar field helpers and the one-shot wrappers.

/// Accumulate potential and field at one target from one source point
/// (either a real particle or a Chebyshev point with modified charge).
/// Shared by the O(N^2) reference and the treecode field evaluator so the
/// singular-kernel guard and the E = -grad phi convention live once.
template <typename K>
inline void accumulate_field_contribution(double tx, double ty, double tz,
                                          double sx, double sy, double sz,
                                          double q, K k, double& phi,
                                          double& ex, double& ey,
                                          double& ez) {
  const double dx = tx - sx;
  const double dy = ty - sy;
  const double dz = tz - sz;
  const double r2 = dx * dx + dy * dy + dz * dz;
  const GradValue<double> v = grad_value_masked(k, r2);
  phi += v.g * q;
  // E = -grad phi = -(G'(r)/r) (x - y) q.
  ex -= v.slope * dx * q;
  ey -= v.slope * dy * q;
  ez -= v.slope * dz * q;
}

/// Scalar gradient evaluation for tests: writes grad_x G(x, y) into g[3];
/// returns G. Zero for coincident points with singular kernels.
double evaluate_kernel_gradient(const KernelSpec& spec, double x1, double x2,
                                double x3, double y1, double y2, double y3,
                                double g[3]);

/// Treecode potentials + fields at `targets` due to `sources`.
/// One-shot wrapper over a temporary Solver (deprecated for hot paths —
/// dynamics drivers should hold a Solver and call evaluate_field per step).
FieldResult compute_field(const Cloud& targets, const Cloud& sources,
                          const KernelSpec& kernel,
                          const TreecodeParams& params,
                          RunStats* stats = nullptr);

/// O(N^2) reference for fields.
FieldResult direct_field(const Cloud& targets, const Cloud& sources,
                         const KernelSpec& kernel);

/// O(N^2) reference for periodic fields: the lattice-image sum over the
/// identical image set the treecode uses under BoundaryConditions::kPeriodic
/// (see core/periodic.hpp for the image-set semantics; inputs are wrapped
/// into `domain` exactly as the plan layer wraps them).
FieldResult direct_field_periodic(const Cloud& targets, const Cloud& sources,
                                  const KernelSpec& kernel, const Box3& domain,
                                  int shells);

/// Well-converged Ewald reference for periodic *Coulomb* fields under the
/// tinfoil / uniform-background convention (the kPeriodicMesh oracle; see
/// direct_sum_ewald in core/direct_sum.hpp for the shared semantics).
/// `alpha` <= 0 picks a convergence-safe default from the domain.
FieldResult direct_field_ewald(const Cloud& targets, const Cloud& sources,
                               const Box3& domain, double alpha = 0.0);

}  // namespace bltc
