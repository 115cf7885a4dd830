#include "core/periodic.hpp"

#include <cmath>
#include <stdexcept>

#include "core/fields.hpp"
#include "core/plan.hpp"

namespace bltc {

ShiftTable ShiftTable::build(const Box3& domain, int shells) {
  ShiftTable table;
  table.shells = shells;
  const auto len = domain.lengths();
  const std::size_t side = 2 * static_cast<std::size_t>(shells) + 1;
  table.sx.reserve(side * side * side);
  table.sy.reserve(side * side * side);
  table.sz.reserve(side * side * side);
  table.sx.push_back(0.0);
  table.sy.push_back(0.0);
  table.sz.push_back(0.0);
  for (int i = -shells; i <= shells; ++i) {
    for (int j = -shells; j <= shells; ++j) {
      for (int k = -shells; k <= shells; ++k) {
        if (i == 0 && j == 0 && k == 0) continue;
        table.sx.push_back(static_cast<double>(i) * len[0]);
        table.sy.push_back(static_cast<double>(j) * len[1]);
        table.sz.push_back(static_cast<double>(k) * len[2]);
      }
    }
  }
  return table;
}

double wrap_coordinate(double v, double lo, double len) {
  double t = std::fmod(v - lo, len);
  if (t < 0.0) t += len;
  // t + len can round up to exactly len when t is a tiny negative; keep the
  // result inside the half-open cell.
  if (t >= len) t = 0.0;
  return lo + t;
}

Cloud wrap_cloud(const Cloud& cloud, const Box3& domain) {
  const auto len = domain.lengths();
  Cloud out = cloud;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.x[i] = wrap_coordinate(out.x[i], domain.lo[0], len[0]);
    out.y[i] = wrap_coordinate(out.y[i], domain.lo[1], len[1]);
    out.z[i] = wrap_coordinate(out.z[i], domain.lo[2], len[2]);
  }
  return out;
}

void require_boundary_kernel(const TreecodeParams& params,
                             const KernelSpec& kernel) {
  const bool coulomb = kernel.type == KernelType::kCoulomb;
  if (params.boundary == BoundaryConditions::kPeriodic && coulomb) {
    throw std::invalid_argument(
        "BoundaryConditions::kPeriodic: the Coulomb lattice sum is only "
        "conditionally convergent, so image shells do not converge it; "
        "use BoundaryConditions::kPeriodicMesh for periodic Coulomb "
        "(Yukawa and Gaussian run under kPeriodic image sums)");
  }
  // The erfc near field and the reciprocal-space Gaussian far field
  // recombine to the Coulomb lattice sum and to nothing else.
  if (params.mesh() && !coulomb) {
    throw std::invalid_argument(
        "BoundaryConditions::kPeriodicMesh applies the Ewald split of the "
        "Coulomb kernel only; use BoundaryConditions::kPeriodic image sums "
        "for " + kernel.name());
  }
}

namespace {

template <typename Kernel>
double periodic_potential_at(double tx, double ty, double tz,
                             const Cloud& sources, const ShiftTable& table,
                             Kernel k) {
  double phi = 0.0;
  const std::size_t n = sources.size();
  for (std::size_t s = 0; s < table.size(); ++s) {
    const double shx = table.sx[s];
    const double shy = table.sy[s];
    const double shz = table.sz[s];
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = tx - sources.x[j] - shx;
      const double dy = ty - sources.y[j] - shy;
      const double dz = tz - sources.z[j] - shz;
      const double r2 = dx * dx + dy * dy + dz * dz;
      if constexpr (Kernel::kSingular) {
        if (r2 == 0.0) continue;
      }
      phi += k(r2) * sources.q[j];
    }
  }
  return phi;
}

}  // namespace

std::vector<double> direct_sum_periodic(const Cloud& targets,
                                        const Cloud& sources,
                                        const KernelSpec& kernel,
                                        const Box3& domain, int shells) {
  const Cloud wt = wrap_cloud(targets, domain);
  const Cloud ws = wrap_cloud(sources, domain);
  const ShiftTable table = ShiftTable::build(domain, shells);
  std::vector<double> phi(wt.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < wt.size(); ++i) {
      phi[i] = periodic_potential_at(wt.x[i], wt.y[i], wt.z[i], ws, table, k);
    }
  });
  return phi;
}

FieldResult direct_field_periodic(const Cloud& targets, const Cloud& sources,
                                  const KernelSpec& kernel, const Box3& domain,
                                  int shells) {
  const Cloud wt = wrap_cloud(targets, domain);
  const Cloud ws = wrap_cloud(sources, domain);
  const ShiftTable table = ShiftTable::build(domain, shells);
  FieldResult out;
  out.phi.assign(wt.size(), 0.0);
  out.ex.assign(wt.size(), 0.0);
  out.ey.assign(wt.size(), 0.0);
  out.ez.assign(wt.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < wt.size(); ++i) {
      double phi = 0.0, ex = 0.0, ey = 0.0, ez = 0.0;
      for (std::size_t s = 0; s < table.size(); ++s) {
        for (std::size_t j = 0; j < ws.size(); ++j) {
          accumulate_field_contribution(
              wt.x[i], wt.y[i], wt.z[i], ws.x[j] + table.sx[s],
              ws.y[j] + table.sy[s], ws.z[j] + table.sz[s], ws.q[j], k, phi,
              ex, ey, ez);
        }
      }
      out.phi[i] = phi;
      out.ex[i] = ex;
      out.ey[i] = ey;
      out.ez[i] = ez;
    }
  });
  return out;
}

std::vector<double> direct_sum_periodic_sampled(
    const Cloud& targets, std::span<const std::size_t> sample,
    const Cloud& sources, const KernelSpec& kernel, const Box3& domain,
    int shells) {
  const Cloud wt = wrap_cloud(targets, domain);
  const Cloud ws = wrap_cloud(sources, domain);
  const ShiftTable table = ShiftTable::build(domain, shells);
  std::vector<double> phi(sample.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t s = 0; s < sample.size(); ++s) {
      const std::size_t i = sample[s];
      phi[s] = periodic_potential_at(wt.x[i], wt.y[i], wt.z[i], ws, table, k);
    }
  });
  return phi;
}

}  // namespace bltc
