#include "core/fields.hpp"

#include "util/timer.hpp"

namespace bltc {

double evaluate_kernel_gradient(const KernelSpec& spec, double x1, double x2,
                                double x3, double y1, double y2, double y3,
                                double g[3]) {
  const double d1 = x1 - y1;
  const double d2 = x2 - y2;
  const double d3 = x3 - y3;
  const double r2 = d1 * d1 + d2 * d2 + d3 * d3;
  if (r2 == 0.0 && spec.singular_at_origin()) {
    g[0] = g[1] = g[2] = 0.0;
    return 0.0;
  }
  return with_kernel(spec, [&](auto k) {
    const GradValue<double> v = k.grad(r2);
    g[0] = v.slope * d1;
    g[1] = v.slope * d2;
    g[2] = v.slope * d3;
    return v.g;
  });
}

FieldResult direct_field(const Cloud& targets, const Cloud& sources,
                         const KernelSpec& kernel) {
  FieldResult out;
  out.phi.assign(targets.size(), 0.0);
  out.ex.assign(targets.size(), 0.0);
  out.ey.assign(targets.size(), 0.0);
  out.ez.assign(targets.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < targets.size(); ++i) {
      double phi = 0.0, ex = 0.0, ey = 0.0, ez = 0.0;
      for (std::size_t j = 0; j < sources.size(); ++j) {
        accumulate_field_contribution(targets.x[i], targets.y[i],
                                      targets.z[i], sources.x[j], sources.y[j],
                                      sources.z[j], sources.q[j], k, phi, ex,
                                      ey, ez);
      }
      out.phi[i] = phi;
      out.ex[i] = ex;
      out.ey[i] = ey;
      out.ez[i] = ez;
    }
  });
  return out;
}

// direct_field_periodic lives in periodic.cpp, next to the potential
// oracle, so the image-set semantics (wrapping, shift order, self-term
// skip) are defined in exactly one translation unit.

FieldResult compute_field(const Cloud& targets, const Cloud& sources,
                          const KernelSpec& kernel,
                          const TreecodeParams& params, RunStats* stats) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = Backend::kCpu;
  Solver solver(std::move(config));
  solver.set_sources(sources);
  return solver.evaluate_field(targets, stats);
}

}  // namespace bltc
