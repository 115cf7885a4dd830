#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/precision.hpp"

namespace bltc::mesh {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;
constexpr int kMaxOrder = 8;

/// Solve erfc(c) = eps for c (erfc is strictly decreasing).
double inverse_erfc(double eps) {
  double lo = 0.0, hi = 30.0;
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid) > eps) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::size_t next_pow2_clamped(double points) {
  std::size_t k = 8;
  while (static_cast<double>(k) < points && k < 256) k <<= 1;
  return k;
}

/// Cardinal B-spline weights of order p at fractional offset f in [0, 1):
/// w[t] = M_p(u - n_t) for the p grid points n_t = floor(u) - p + 1 + t,
/// ascending t. With non-null `d`, also the derivatives M_p'(u - n_t)
/// (per grid coordinate; divide by the spacing for a spatial derivative).
/// Stable Cox-de-Boor raise from M_2, as in smooth PME.
inline void spline_weights(double f, int p, double* w, double* d) {
  double m[kMaxOrder] = {};  // m[j] = M_k(f + j) for the current order k
  m[0] = f;
  m[1] = 1.0 - f;
  for (int k = 3; k <= p; ++k) {
    if (k == p && d != nullptr) {
      // M_p'(x) = M_{p-1}(x) - M_{p-1}(x - 1); m[] still holds order p-1.
      for (int j = p - 1; j >= 0; --j) {
        const double hi = j <= p - 2 ? m[j] : 0.0;
        const double lo = j > 0 ? m[j - 1] : 0.0;
        d[p - 1 - j] = hi - lo;
      }
    }
    for (int j = k - 1; j >= 0; --j) {
      const double mj = j <= k - 2 ? m[j] : 0.0;
      const double mjm1 = j > 0 ? m[j - 1] : 0.0;
      m[j] = ((f + j) * mj + (static_cast<double>(k) - f - j) * mjm1) /
             static_cast<double>(k - 1);
    }
  }
  for (int t = 0; t < p; ++t) w[t] = m[p - 1 - t];
}

/// |D(m)|^2 per frequency for one dimension: the squared magnitude of the
/// spline Euler factor D(m) = sum_{j=0}^{p-2} M_p(j+1) e^{2 pi i m j / K}.
/// Dividing the Green's function by it (once per spline pass, so squared)
/// deconvolves the spreading/interpolation smoothing exactly at the grid
/// frequencies. Even orders keep |D| bounded away from zero at Nyquist.
std::vector<double> spline_dsq(std::size_t k_dim, int p) {
  double node[kMaxOrder] = {};  // node[j] = M_p(j), j = 0..p-1 (node[0] = 0)
  spline_weights(0.0, p, node, nullptr);
  // spline_weights returns w[t] = M_p(p - 1 - t) at f = 0; unmap to M_p(j).
  double mp[kMaxOrder] = {};
  for (int t = 0; t < p; ++t) mp[p - 1 - t] = node[t];
  std::vector<double> dsq(k_dim);
  for (std::size_t m = 0; m < k_dim; ++m) {
    double re = 0.0, im = 0.0;
    for (int j = 0; j <= p - 2; ++j) {
      const double a = 2.0 * kPi * static_cast<double>(m) *
                       static_cast<double>(j) / static_cast<double>(k_dim);
      re += mp[j + 1] * std::cos(a);
      im += mp[j + 1] * std::sin(a);
    }
    dsq[m] = re * re + im * im;
  }
  return dsq;
}

std::array<std::uint64_t, 3> coord_key(double x, double y, double z) {
  std::array<std::uint64_t, 3> key;
  std::memcpy(&key[0], &x, sizeof(double));
  std::memcpy(&key[1], &y, sizeof(double));
  std::memcpy(&key[2], &z, sizeof(double));
  return key;
}

}  // namespace

MeshTuning tune_mesh(const TreecodeParams& params) {
  if (!params.domain.valid()) {
    throw std::invalid_argument("tune_mesh: kPeriodicMesh requires a valid "
                                "domain box");
  }
  const auto len = params.domain.lengths();
  const double l_min = std::min({len[0], len[1], len[2]});

  MeshTuning t;
  t.order = params.mesh_order;
  // Split tolerance: a twentieth of the nominal treecode target, so the
  // Ewald truncation never dominates the error budget the user already
  // conceded to (theta, degree); floored where fp64 stops cooperating.
  t.target_error = std::clamp(
      0.05 * nominal_error_bound(params.theta, params.degree), 1e-11, 1e-5);
  const double c = inverse_erfc(t.target_error);
  const double spread = std::sqrt(std::log(1.0 / t.target_error));
  // Provisional splitting width from a 0.35 l_min cutoff; refined below
  // once the actual (pow2-rounded) grid is known.
  double alpha =
      params.ewald_alpha > 0.0 ? params.ewald_alpha : c / (0.35 * l_min);
  // Reciprocal truncation at the grid Nyquist pi/h: require
  // exp(-(pi/h)^2 / 4 alpha^2) <= eps, i.e. h <= pi / (2 alpha sqrt(ln 1/eps)).
  const double h = params.mesh_spacing > 0.0
                       ? params.mesh_spacing
                       : kPi / (2.0 * alpha * spread);
  t.nx = next_pow2_clamped(len[0] / h);
  t.ny = next_pow2_clamped(len[1] / h);
  t.nz = next_pow2_clamped(len[2] / h);
  // Harvest the pow2 round-up: the realized spacing supports a larger alpha
  // than the provisional one at the same reciprocal truncation, and a larger
  // alpha shrinks r_cut — near-field work scales with r_cut^3, the far field
  // pays nothing. Skipped when the user pinned alpha explicitly.
  if (params.ewald_alpha <= 0.0) {
    const double h_actual =
        std::max({len[0] / static_cast<double>(t.nx),
                  len[1] / static_cast<double>(t.ny),
                  len[2] / static_cast<double>(t.nz)});
    alpha = kPi / (2.0 * h_actual * spread);
  }
  t.alpha = alpha;
  // erfc(alpha r_cut) = eps, capped so one shift shell always covers it.
  t.r_cut = std::min(c / alpha, 0.45 * l_min);
  return t;
}

KernelSpec mesh_near_kernel(const TreecodeParams& params) {
  return KernelSpec::coulomb_erfc(tune_mesh(params).alpha);
}

MeshPlan::MeshPlan(const OrderedParticles& sources,
                   const TreecodeParams& params)
    : tuning_(tune_mesh(params)), domain_(params.domain) {
  nx_ = tuning_.nx;
  ny_ = tuning_.ny;
  nz_ = tuning_.nz;
  p_ = tuning_.order;
  const auto len = domain_.lengths();
  hx_ = len[0] / static_cast<double>(nx_);
  hy_ = len[1] / static_cast<double>(ny_);
  hz_ = len[2] / static_cast<double>(nz_);

  // Screened, spline-deconvolved Green's table over the half spectrum.
  const double vol = domain_.volume();
  const std::vector<double> dsqx = spline_dsq(nx_, p_);
  const std::vector<double> dsqy = spline_dsq(ny_, p_);
  const std::vector<double> dsqz = spline_dsq(nz_, p_);
  const std::size_t nzh = nz_ / 2 + 1;
  green_.assign(nx_ * ny_ * nzh, 0.0);
  const double alpha = tuning_.alpha;
  // The reciprocal sum phi(r) = sum_k G(k) S(k) e^{ikr} is a plain sum over
  // modes, but Fft3::inverse carries the 1/N convolution normalization, so
  // the Green table absorbs the compensating factor N.
  const double scale =
      (4.0 * kPi / vol) * static_cast<double>(nx_ * ny_ * nz_);
  for (std::size_t mx = 0; mx < nx_; ++mx) {
    // Fold in signed arithmetic: size_t mx - nx_ would wrap, not negate.
    const double fx = static_cast<double>(
        mx <= nx_ / 2 ? static_cast<long>(mx)
                      : static_cast<long>(mx) - static_cast<long>(nx_));
    const double kx = 2.0 * kPi * fx / len[0];
    for (std::size_t my = 0; my < ny_; ++my) {
      const double fy = static_cast<double>(
          my <= ny_ / 2 ? static_cast<long>(my)
                        : static_cast<long>(my) - static_cast<long>(ny_));
      const double ky = 2.0 * kPi * fy / len[1];
      for (std::size_t mz = 0; mz < nzh; ++mz) {
        const double kz = 2.0 * kPi * static_cast<double>(mz) / len[2];
        const double k2 = kx * kx + ky * ky + kz * kz;
        if (k2 == 0.0) continue;  // tinfoil boundary: k = 0 dropped
        green_[(mx * ny_ + my) * nzh + mz] =
            scale * std::exp(-k2 / (4.0 * alpha * alpha)) / k2 /
            (dsqx[mx] * dsqy[my] * dsqz[mz]);
      }
    }
  }
  self_factor_ = 2.0 * alpha / std::sqrt(kPi);

  fft_ = Fft3(nx_, ny_, nz_);
  rho_.assign(nx_ * ny_ * nz_, 0.0);
  phi_grid_.assign(nx_ * ny_ * nz_, 0.0);
  spec_.assign(2 * fft_.spectrum_bins(), 0.0);

  const std::size_t n = sources.size();
  base_.resize(3 * n);
  weights_.resize(static_cast<std::size_t>(3 * p_) * n);
  charge_.resize(n);
  keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) cache_slot(i, sources);
  rebuild_buckets();
  accumulate_all();
}

void MeshPlan::cache_slot(std::size_t slot, const OrderedParticles& sources) {
  const double x = sources.x[slot];
  const double y = sources.y[slot];
  const double z = sources.z[slot];
  keys_[slot] = coord_key(x, y, z);
  charge_[slot] = sources.q[slot];

  const double ux = (x - domain_.lo[0]) / hx_;
  const double uy = (y - domain_.lo[1]) / hy_;
  const double uz = (z - domain_.lo[2]) / hz_;
  const double flx = std::floor(ux), fly = std::floor(uy),
               flz = std::floor(uz);
  const auto wrap_base = [](double fl, int p, std::size_t k) {
    const long b = static_cast<long>(fl) - p + 1;
    const long kk = static_cast<long>(k);
    return static_cast<int>(((b % kk) + kk) % kk);
  };
  base_[3 * slot] = wrap_base(flx, p_, nx_);
  base_[3 * slot + 1] = wrap_base(fly, p_, ny_);
  base_[3 * slot + 2] = wrap_base(flz, p_, nz_);
  double* w = &weights_[static_cast<std::size_t>(3 * p_) * slot];
  spline_weights(ux - flx, p_, w, nullptr);
  spline_weights(uy - fly, p_, w + p_, nullptr);
  spline_weights(uz - flz, p_, w + 2 * p_, nullptr);
}

void MeshPlan::rebuild_buckets() {
  plane_slots_.assign(nx_, {});
  for (std::size_t i = 0; i < charge_.size(); ++i) {
    plane_slots_[static_cast<std::size_t>(base_[3 * i])].push_back(
        static_cast<std::uint32_t>(i));
  }
}

void MeshPlan::accumulate_all() {
  std::fill(rho_.begin(), rho_.end(), 0.0);
  const int nx = static_cast<int>(nx_), ny = static_cast<int>(ny_),
            nz = static_cast<int>(nz_);
  // Slab-owned deterministic spread: each x-plane is accumulated by exactly
  // one thread, in canonical (plane offset, slot) order, so the result is
  // independent of the thread count and identical across rebuilds over the
  // same cached weights.
#pragma omp parallel for schedule(static)
  for (int ix = 0; ix < nx; ++ix) {
    double* plane = &rho_[static_cast<std::size_t>(ix) * ny_ * nz_];
    for (int dx = 0; dx < p_; ++dx) {
      const int b = ix - dx < 0 ? ix - dx + nx : ix - dx;
      for (const std::uint32_t slot : plane_slots_[b]) {
        const double* w = &weights_[static_cast<std::size_t>(3 * p_) * slot];
        const double qx = charge_[slot] * w[dx];
        const int by = base_[3 * slot + 1], bz = base_[3 * slot + 2];
        for (int ty = 0; ty < p_; ++ty) {
          const int iy = by + ty >= ny ? by + ty - ny : by + ty;
          const double qxy = qx * w[p_ + ty];
          double* row = plane + static_cast<std::size_t>(iy) * nz_;
          for (int tz = 0; tz < p_; ++tz) {
            const int iz = bz + tz >= nz ? bz + tz - nz : bz + tz;
            row[iz] += qxy * w[2 * p_ + tz];
          }
        }
      }
    }
  }
}

void MeshPlan::apply_slot_deltas(std::span<const std::uint32_t> slots,
                                 double sign, bool /*use_cache*/) {
  const int nx = static_cast<int>(nx_), ny = static_cast<int>(ny_),
            nz = static_cast<int>(nz_);
  // Bucket the touched slots by their (current cached) base plane so each
  // owning thread scans only O(touched) work, in canonical order.
  std::vector<std::vector<std::uint32_t>> touched(nx_);
  for (const std::uint32_t slot : slots) {
    touched[static_cast<std::size_t>(base_[3 * slot])].push_back(slot);
  }
  for (auto& bucket : touched) std::sort(bucket.begin(), bucket.end());
#pragma omp parallel for schedule(static)
  for (int ix = 0; ix < nx; ++ix) {
    double* plane = &rho_[static_cast<std::size_t>(ix) * ny_ * nz_];
    for (int dx = 0; dx < p_; ++dx) {
      const int b = ix - dx < 0 ? ix - dx + nx : ix - dx;
      for (const std::uint32_t slot : touched[b]) {
        const double* w = &weights_[static_cast<std::size_t>(3 * p_) * slot];
        const double qx = sign * charge_[slot] * w[dx];
        const int by = base_[3 * slot + 1], bz = base_[3 * slot + 2];
        for (int ty = 0; ty < p_; ++ty) {
          const int iy = by + ty >= ny ? by + ty - ny : by + ty;
          const double qxy = qx * w[p_ + ty];
          double* row = plane + static_cast<std::size_t>(iy) * nz_;
          for (int tz = 0; tz < p_; ++tz) {
            const int iz = bz + tz >= nz ? bz + tz - nz : bz + tz;
            row[iz] += qxy * w[2 * p_ + tz];
          }
        }
      }
    }
  }
}

void MeshPlan::update_charges(const OrderedParticles& sources) {
  for (std::size_t i = 0; i < charge_.size(); ++i) {
    charge_[i] = sources.q[i];
  }
  // Geometry weights are untouched; a canonical-order re-accumulation is
  // bit-identical to a fresh spread over the same positions.
  accumulate_all();
  dirty_ = true;
  ++version_;
}

void MeshPlan::update_positions(
    const OrderedParticles& sources,
    std::span<const std::pair<std::size_t, std::size_t>> moved_ranges) {
  std::vector<std::uint32_t> slots;
  for (const auto& [begin, end] : moved_ranges) {
    for (std::size_t i = begin; i < end; ++i) {
      slots.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (slots.empty()) return;
  // Repeated subtract/add deltas accumulate rounding drift in the grid;
  // periodically (and whenever most slots moved anyway) fall back to the
  // canonical full re-accumulation, which resets the grid to the
  // bit-identical fresh-spread state.
  const bool full = 4 * slots.size() > charge_.size() ||
                    ++updates_since_rebuild_ >= 64;
  if (!full) apply_slot_deltas(slots, -1.0, true);
  bool planes_changed = false;
  for (const std::uint32_t slot : slots) {
    const int old_plane = base_[3 * slot];
    cache_slot(slot, sources);
    if (base_[3 * slot] != old_plane) {
      planes_changed = true;
      if (!full) {
        auto& from = plane_slots_[static_cast<std::size_t>(old_plane)];
        from.erase(std::lower_bound(from.begin(), from.end(), slot));
        auto& to = plane_slots_[static_cast<std::size_t>(base_[3 * slot])];
        to.insert(std::lower_bound(to.begin(), to.end(), slot), slot);
      }
    }
  }
  if (full) {
    if (planes_changed) rebuild_buckets();
    accumulate_all();
    updates_since_rebuild_ = 0;
  } else {
    apply_slot_deltas(slots, 1.0, true);
  }
  dirty_ = true;
  ++version_;
}

void MeshPlan::solve() {
  if (!dirty_) return;
  fft_.forward(rho_.data(), spec_.data());
  const std::size_t bins = fft_.spectrum_bins();
#pragma omp parallel for schedule(static)
  for (long long b = 0; b < static_cast<long long>(bins); ++b) {
    spec_[2 * b] *= green_[static_cast<std::size_t>(b)];
    spec_[2 * b + 1] *= green_[static_cast<std::size_t>(b)];
  }
  fft_.inverse(spec_.data(), phi_grid_.data());

  q_total_ = 0.0;
  for (const double q : charge_) q_total_ += q;
  background_ =
      -kPi * q_total_ / (tuning_.alpha * tuning_.alpha * domain_.volume());

  // Coincident-source index: summed charge per exact coordinate bit
  // pattern, so interpolation can subtract the Ewald self term under the
  // same skip-coincident-pairs convention the singular near field uses.
  coincident_.clear();
  coincident_.reserve(charge_.size());
  for (std::size_t i = 0; i < charge_.size(); ++i) {
    coincident_.push_back({keys_[i], charge_[i]});
  }
  std::sort(coincident_.begin(), coincident_.end(),
            [](const Coincident& a, const Coincident& b) {
              return a.key < b.key;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < coincident_.size();) {
    Coincident merged = coincident_[i];
    for (++i; i < coincident_.size() && coincident_[i].key == merged.key;
         ++i) {
      merged.q += coincident_[i].q;
    }
    coincident_[out++] = merged;
  }
  coincident_.resize(out);

  dirty_ = false;
}

double MeshPlan::coincident_charge(double x, double y, double z) const {
  const auto key = coord_key(x, y, z);
  const auto it = std::lower_bound(
      coincident_.begin(), coincident_.end(), key,
      [](const Coincident& a, const std::array<std::uint64_t, 3>& k) {
        return a.key < k;
      });
  if (it != coincident_.end() && it->key == key) return it->q;
  return 0.0;
}

void MeshPlan::add_potential(const OrderedParticles& targets,
                             std::span<double> phi) const {
  if (dirty_) {
    throw std::logic_error("MeshPlan::add_potential: call solve() first");
  }
  const long long n = static_cast<long long>(targets.size());
  const int nx = static_cast<int>(nx_), ny = static_cast<int>(ny_),
            nz = static_cast<int>(nz_);
#pragma omp parallel for schedule(static)
  for (long long i = 0; i < n; ++i) {
    const double x = targets.x[i], y = targets.y[i], z = targets.z[i];
    const double ux = (x - domain_.lo[0]) / hx_;
    const double uy = (y - domain_.lo[1]) / hy_;
    const double uz = (z - domain_.lo[2]) / hz_;
    const double flx = std::floor(ux), fly = std::floor(uy),
                 flz = std::floor(uz);
    double wx[kMaxOrder], wy[kMaxOrder], wz[kMaxOrder];
    spline_weights(ux - flx, p_, wx, nullptr);
    spline_weights(uy - fly, p_, wy, nullptr);
    spline_weights(uz - flz, p_, wz, nullptr);
    const auto wrap_base = [](double fl, int p, int k) {
      const long b = static_cast<long>(fl) - p + 1;
      return static_cast<int>(((b % k) + k) % k);
    };
    const int bx = wrap_base(flx, p_, nx);
    const int by = wrap_base(fly, p_, ny);
    const int bz = wrap_base(flz, p_, nz);
    double acc = 0.0;
    for (int tx = 0; tx < p_; ++tx) {
      const int ix = bx + tx >= nx ? bx + tx - nx : bx + tx;
      const double* plane = &phi_grid_[static_cast<std::size_t>(ix) * ny_ *
                                       nz_];
      double acc_x = 0.0;
      for (int ty = 0; ty < p_; ++ty) {
        const int iy = by + ty >= ny ? by + ty - ny : by + ty;
        const double* row = plane + static_cast<std::size_t>(iy) * nz_;
        double acc_y = 0.0;
        for (int tz = 0; tz < p_; ++tz) {
          const int iz = bz + tz >= nz ? bz + tz - nz : bz + tz;
          acc_y += wz[tz] * row[iz];
        }
        acc_x += wy[ty] * acc_y;
      }
      acc += wx[tx] * acc_x;
    }
    phi[i] += acc + background_ - self_factor_ * coincident_charge(x, y, z);
  }
}

void MeshPlan::add_field(const OrderedParticles& targets,
                         FieldResult& out) const {
  if (dirty_) {
    throw std::logic_error("MeshPlan::add_field: call solve() first");
  }
  const long long n = static_cast<long long>(targets.size());
  const int nx = static_cast<int>(nx_), ny = static_cast<int>(ny_),
            nz = static_cast<int>(nz_);
#pragma omp parallel for schedule(static)
  for (long long i = 0; i < n; ++i) {
    const double x = targets.x[i], y = targets.y[i], z = targets.z[i];
    const double ux = (x - domain_.lo[0]) / hx_;
    const double uy = (y - domain_.lo[1]) / hy_;
    const double uz = (z - domain_.lo[2]) / hz_;
    const double flx = std::floor(ux), fly = std::floor(uy),
                 flz = std::floor(uz);
    double wx[kMaxOrder], wy[kMaxOrder], wz[kMaxOrder];
    double dx[kMaxOrder], dy[kMaxOrder], dz[kMaxOrder];
    spline_weights(ux - flx, p_, wx, dx);
    spline_weights(uy - fly, p_, wy, dy);
    spline_weights(uz - flz, p_, wz, dz);
    const auto wrap_base = [](double fl, int p, int k) {
      const long b = static_cast<long>(fl) - p + 1;
      return static_cast<int>(((b % k) + k) % k);
    };
    const int bx = wrap_base(flx, p_, nx);
    const int by = wrap_base(fly, p_, ny);
    const int bz = wrap_base(flz, p_, nz);
    double phi = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;
    for (int tx = 0; tx < p_; ++tx) {
      const int ix = bx + tx >= nx ? bx + tx - nx : bx + tx;
      const double* plane = &phi_grid_[static_cast<std::size_t>(ix) * ny_ *
                                       nz_];
      double acc_w = 0.0, acc_d = 0.0;
      for (int ty = 0; ty < p_; ++ty) {
        const int iy = by + ty >= ny ? by + ty - ny : by + ty;
        const double* row = plane + static_cast<std::size_t>(iy) * nz_;
        double acc_wz = 0.0, acc_dz = 0.0;
        for (int tz = 0; tz < p_; ++tz) {
          const int iz = bz + tz >= nz ? bz + tz - nz : bz + tz;
          acc_wz += wz[tz] * row[iz];
          acc_dz += dz[tz] * row[iz];
        }
        acc_w += wy[ty] * acc_wz;
        acc_d += dy[ty] * acc_wz;
        // z-derivative shares the (wx, wy) weights; accumulate below.
        gz -= wx[tx] * wy[ty] * acc_dz / hz_;
      }
      phi += wx[tx] * acc_w;
      gx -= dx[tx] * acc_w / hx_;
      gy -= wx[tx] * acc_d / hy_;
    }
    // Self and background terms are position-independent: potential only.
    out.phi[i] += phi + background_ -
                  self_factor_ * coincident_charge(x, y, z);
    out.ex[i] += gx;
    out.ey[i] += gy;
    out.ez[i] += gz;
  }
}

std::size_t MeshPlan::bytes() const {
  std::size_t total = (rho_.capacity() + phi_grid_.capacity() +
                       green_.capacity() + spec_.capacity() +
                       weights_.capacity() + charge_.capacity()) *
                          sizeof(double) +
                      base_.capacity() * sizeof(int) +
                      keys_.capacity() * sizeof(keys_[0]) +
                      coincident_.capacity() * sizeof(Coincident);
  for (const auto& bucket : plane_slots_) {
    total += bucket.capacity() * sizeof(std::uint32_t);
  }
  return total;
}

}  // namespace bltc::mesh
