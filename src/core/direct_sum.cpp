#include "core/direct_sum.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/fields.hpp"
#include "core/periodic.hpp"

namespace bltc {
namespace {

template <typename Kernel>
double potential_at(double tx, double ty, double tz, const Cloud& sources,
                    Kernel k) {
  double phi = 0.0;
  const std::size_t n = sources.size();
  for (std::size_t j = 0; j < n; ++j) {
    const double dx = tx - sources.x[j];
    const double dy = ty - sources.y[j];
    const double dz = tz - sources.z[j];
    const double r2 = dx * dx + dy * dy + dz * dz;
    if constexpr (Kernel::kSingular) {
      if (r2 == 0.0) continue;
    }
    phi += k(r2) * sources.q[j];
  }
  return phi;
}

// ---- Classical Ewald oracle ------------------------------------------------
// Shared machinery for direct_sum_ewald / direct_field_ewald. The split is
// fixed to a well-converged regime (erfc < ~3e-14 at the real-space horizon,
// matching Gaussian decay in k-space), so the answer is the converged
// infinite lattice sum to near machine precision regardless of alpha.

constexpr double kEwaldC = 5.4;        // erfc(5.4) ~ 2.6e-14
constexpr double kEwaldKFactor = 1.81; // m_max per unit alpha*L (same eps)
constexpr double kTwoOverSqrtPi = 1.1283791670955126;
constexpr double kPi = 3.14159265358979323846;

struct EwaldSetup {
  Cloud targets, sources;   // wrapped into the domain
  std::array<double, 3> len{};
  double volume = 0.0;
  double alpha = 0.0;
  int real_shells = 1;
  int m_max[3] = {1, 1, 1};
  double background = 0.0;  // uniform-background potential shift
};

EwaldSetup ewald_setup(const Cloud& targets, const Cloud& sources,
                       const Box3& domain, double alpha) {
  if (!domain.valid()) {
    throw std::invalid_argument("direct_sum_ewald: invalid domain");
  }
  EwaldSetup s;
  s.targets = wrap_cloud(targets, domain);
  s.sources = wrap_cloud(sources, domain);
  s.len = domain.lengths();
  s.volume = domain.volume();
  const double lmin = std::min({s.len[0], s.len[1], s.len[2]});
  s.alpha = alpha > 0.0 ? alpha : kEwaldC / lmin;
  s.real_shells = std::max(
      1, static_cast<int>(std::ceil(kEwaldC / (s.alpha * lmin))));
  s.real_shells = std::min(s.real_shells, 8);
  for (int d = 0; d < 3; ++d) {
    s.m_max[d] = std::max(
        1, static_cast<int>(std::ceil(kEwaldKFactor * s.alpha * s.len[d])));
    s.m_max[d] = std::min(s.m_max[d], 64);
  }
  const double q_tot =
      std::accumulate(s.sources.q.begin(), s.sources.q.end(), 0.0);
  s.background = -kPi * q_tot / (s.alpha * s.alpha * s.volume);
  return s;
}

/// One k-space mode: wavevector, Gaussian-filtered coefficient, and the
/// source structure factor S(k) = sum_j q_j e^{i k.y_j}.
struct EwaldMode {
  double kx, ky, kz;
  double coef;       // (4 pi / V) e^{-k^2/4 alpha^2} / k^2
  double sr, si;     // Re S(k), Im S(k)
};

std::vector<EwaldMode> ewald_modes(const EwaldSetup& s) {
  const double two_pi = 2.0 * kPi;
  std::vector<EwaldMode> modes;
  for (int mx = -s.m_max[0]; mx <= s.m_max[0]; ++mx) {
    for (int my = -s.m_max[1]; my <= s.m_max[1]; ++my) {
      for (int mz = -s.m_max[2]; mz <= s.m_max[2]; ++mz) {
        if (mx == 0 && my == 0 && mz == 0) continue;  // tinfoil: drop k = 0
        EwaldMode m;
        m.kx = two_pi * mx / s.len[0];
        m.ky = two_pi * my / s.len[1];
        m.kz = two_pi * mz / s.len[2];
        const double k2 = m.kx * m.kx + m.ky * m.ky + m.kz * m.kz;
        m.coef = 4.0 * kPi / s.volume *
                 std::exp(-k2 / (4.0 * s.alpha * s.alpha)) / k2;
        if (m.coef < 1e-300) continue;
        m.sr = 0.0;
        m.si = 0.0;
        modes.push_back(m);
      }
    }
  }
#pragma omp parallel for schedule(static)
  for (std::size_t km = 0; km < modes.size(); ++km) {
    EwaldMode& m = modes[km];
    double sr = 0.0, si = 0.0;
    for (std::size_t j = 0; j < s.sources.size(); ++j) {
      const double phase = m.kx * s.sources.x[j] + m.ky * s.sources.y[j] +
                           m.kz * s.sources.z[j];
      sr += s.sources.q[j] * std::cos(phase);
      si += s.sources.q[j] * std::sin(phase);
    }
    m.sr = sr;
    m.si = si;
  }
  return modes;
}

}  // namespace

std::vector<double> direct_sum(const Cloud& targets, const Cloud& sources,
                               const KernelSpec& kernel) {
  std::vector<double> phi(targets.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < targets.size(); ++i) {
      phi[i] =
          potential_at(targets.x[i], targets.y[i], targets.z[i], sources, k);
    }
  });
  return phi;
}

std::vector<double> direct_sum_sampled(const Cloud& targets,
                                       std::span<const std::size_t> sample,
                                       const Cloud& sources,
                                       const KernelSpec& kernel) {
  std::vector<double> phi(sample.size(), 0.0);
  with_kernel(kernel, [&](auto k) {
#pragma omp parallel for schedule(static)
    for (std::size_t s = 0; s < sample.size(); ++s) {
      const std::size_t i = sample[s];
      phi[s] =
          potential_at(targets.x[i], targets.y[i], targets.z[i], sources, k);
    }
  });
  return phi;
}

namespace {

/// Ewald potential at one (wrapped) target point.
double ewald_potential_at(const EwaldSetup& s,
                          const std::vector<EwaldMode>& modes, double tx,
                          double ty, double tz) {
  double phi = s.background;
  double q_self = 0.0;
  // Real-space screened sum over image shells.
  for (int ix = -s.real_shells; ix <= s.real_shells; ++ix) {
    for (int iy = -s.real_shells; iy <= s.real_shells; ++iy) {
      for (int iz = -s.real_shells; iz <= s.real_shells; ++iz) {
        const double ox = tx - ix * s.len[0];
        const double oy = ty - iy * s.len[1];
        const double oz = tz - iz * s.len[2];
        for (std::size_t j = 0; j < s.sources.size(); ++j) {
          const double dx = ox - s.sources.x[j];
          const double dy = oy - s.sources.y[j];
          const double dz = oz - s.sources.z[j];
          const double r2 = dx * dx + dy * dy + dz * dz;
          if (r2 == 0.0) {
            q_self += s.sources.q[j];  // coincident: masked convention
            continue;
          }
          const double r = std::sqrt(r2);
          phi += std::erfc(s.alpha * r) / r * s.sources.q[j];
        }
      }
    }
  }
  // k-space smooth sum via the precomputed structure factors.
  for (const EwaldMode& m : modes) {
    const double phase = m.kx * tx + m.ky * ty + m.kz * tz;
    phi += m.coef * (std::cos(phase) * m.sr + std::sin(phase) * m.si);
  }
  // The k-space sum included the Gaussian image of coincident sources;
  // remove it so coincident pairs contribute nothing at all.
  phi -= kTwoOverSqrtPi * s.alpha * q_self;
  return phi;
}

FieldResult ewald_field_at(const EwaldSetup& s,
                           const std::vector<EwaldMode>& modes,
                           std::size_t i) {
  const double tx = s.targets.x[i];
  const double ty = s.targets.y[i];
  const double tz = s.targets.z[i];
  double phi = s.background, ex = 0.0, ey = 0.0, ez = 0.0;
  double q_self = 0.0;
  const CoulombErfcKernel kernel{s.alpha};
  for (int ix = -s.real_shells; ix <= s.real_shells; ++ix) {
    for (int iy = -s.real_shells; iy <= s.real_shells; ++iy) {
      for (int iz = -s.real_shells; iz <= s.real_shells; ++iz) {
        const double ox = tx - ix * s.len[0];
        const double oy = ty - iy * s.len[1];
        const double oz = tz - iz * s.len[2];
        for (std::size_t j = 0; j < s.sources.size(); ++j) {
          const double dx = ox - s.sources.x[j];
          const double dy = oy - s.sources.y[j];
          const double dz = oz - s.sources.z[j];
          const double r2 = dx * dx + dy * dy + dz * dz;
          if (r2 == 0.0) {
            q_self += s.sources.q[j];
            continue;
          }
          const GradValue<double> v = kernel.grad(r2);
          const double q = s.sources.q[j];
          phi += v.g * q;
          ex -= v.slope * dx * q;
          ey -= v.slope * dy * q;
          ez -= v.slope * dz * q;
        }
      }
    }
  }
  for (const EwaldMode& m : modes) {
    const double phase = m.kx * tx + m.ky * ty + m.kz * tz;
    const double c = std::cos(phase);
    const double sn = std::sin(phase);
    phi += m.coef * (c * m.sr + sn * m.si);
    // E = -grad phi; grad phi picks up k (-sin Sr + cos Si) per mode.
    const double e = m.coef * (sn * m.sr - c * m.si);
    ex += e * m.kx;
    ey += e * m.ky;
    ez += e * m.kz;
  }
  phi -= kTwoOverSqrtPi * s.alpha * q_self;  // constant: no field term
  FieldResult r;
  r.phi = {phi};
  r.ex = {ex};
  r.ey = {ey};
  r.ez = {ez};
  return r;
}

}  // namespace

std::vector<double> direct_sum_ewald_sampled(const Cloud& targets,
                                             std::span<const std::size_t> sample,
                                             const Cloud& sources,
                                             const Box3& domain, double alpha) {
  const EwaldSetup s = ewald_setup(targets, sources, domain, alpha);
  const std::vector<EwaldMode> modes = ewald_modes(s);
  std::vector<double> phi(sample.size(), 0.0);
#pragma omp parallel for schedule(static)
  for (std::size_t t = 0; t < sample.size(); ++t) {
    const std::size_t i = sample[t];
    phi[t] = ewald_potential_at(s, modes, s.targets.x[i], s.targets.y[i],
                                s.targets.z[i]);
  }
  return phi;
}

std::vector<double> direct_sum_ewald(const Cloud& targets,
                                     const Cloud& sources, const Box3& domain,
                                     double alpha) {
  std::vector<std::size_t> all(targets.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return direct_sum_ewald_sampled(targets, all, sources, domain, alpha);
}

FieldResult direct_field_ewald(const Cloud& targets, const Cloud& sources,
                               const Box3& domain, double alpha) {
  const EwaldSetup s = ewald_setup(targets, sources, domain, alpha);
  const std::vector<EwaldMode> modes = ewald_modes(s);
  const std::size_t n = targets.size();
  FieldResult out;
  out.phi.assign(n, 0.0);
  out.ex.assign(n, 0.0);
  out.ey.assign(n, 0.0);
  out.ez.assign(n, 0.0);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const FieldResult one = ewald_field_at(s, modes, i);
    out.phi[i] = one.phi[0];
    out.ex[i] = one.ex[0];
    out.ey[i] = one.ey[0];
    out.ez[i] = one.ez[0];
  }
  return out;
}

}  // namespace bltc
