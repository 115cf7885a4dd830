// Interaction kernels G(x, y). The BLTC is kernel independent: it only ever
// *evaluates* G (and, for fields, its radial derivative), so adding a kernel
// means adding one functor here plus an enum entry and its `with_kernel`
// case; every potential and field path, every precision and every
// interaction class then runs it. Inner loops are templated on the functor
// (no virtual dispatch in the hot path); `with_kernel` performs the one-time
// dispatch.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/simd.hpp"

namespace bltc {

/// Kernel families supported out of the box. Coulomb and Yukawa are the two
/// the paper evaluates (Eq. 2); the others demonstrate kernel independence.
enum class KernelType {
  kCoulomb,        ///< G = 1/r
  kYukawa,         ///< G = exp(-kappa r)/r (screened Coulomb)
  kGaussian,       ///< G = exp(-kappa r^2), smooth everywhere
  kMultiquadric,   ///< G = sqrt(r^2 + kappa^2), RBF interpolation kernel
  kInverseSquare,  ///< G = 1/r^2, steeper singular decay
  kCoulombErfc,    ///< G = erfc(kappa r)/r, the Ewald-screened near field
};

/// POD kernel description passed through the public API.
struct KernelSpec {
  KernelType type = KernelType::kCoulomb;
  /// Meaning depends on `type`: inverse Debye length for Yukawa, exponent
  /// scale for Gaussian, shape parameter for multiquadric. Unused otherwise.
  double kappa = 0.0;

  static KernelSpec coulomb() { return {KernelType::kCoulomb, 0.0}; }
  static KernelSpec yukawa(double kappa) { return {KernelType::kYukawa, kappa}; }
  static KernelSpec gaussian(double kappa) {
    return {KernelType::kGaussian, kappa};
  }
  static KernelSpec multiquadric(double shape) {
    return {KernelType::kMultiquadric, shape};
  }
  static KernelSpec inverse_square() {
    return {KernelType::kInverseSquare, 0.0};
  }
  /// Ewald-screened Coulomb: G = erfc(alpha r)/r. This is the short-range
  /// half of the kPeriodicMesh split (src/mesh); the splitting parameter
  /// alpha rides in `kappa`.
  static KernelSpec coulomb_erfc(double alpha) {
    return {KernelType::kCoulombErfc, alpha};
  }

  std::string name() const;
  /// True when G(x,y) diverges as x -> y, in which case self-interactions
  /// (r == 0) are skipped in direct sums, matching the paper's convention.
  bool singular_at_origin() const {
    return type == KernelType::kCoulomb || type == KernelType::kYukawa ||
           type == KernelType::kInverseSquare ||
           type == KernelType::kCoulombErfc;
  }
};

/// The value of G and the factor of its gradient: G(r) together with
/// G'(r)/r, the factor multiplying (x - y) in grad_x G. Returned by value
/// so `grad` stays a pure r2 -> {g, slope} map the vectorizer can keep
/// entirely in registers.
template <typename T>
struct GradValue {
  T g = 0;      ///< G(r)
  T slope = 0;  ///< G'(r)/r
};

/// Functors, one per kernel. Each takes the *squared* distance (the compute
/// kernels form r^2 from coordinate differences, so kernels that do not
/// need r itself skip a sqrt) and provides
///   * `operator()(r2)`: G(r);
///   * `grad(r2)`: G(r) and G'(r)/r;
/// both templated over the scalar type. A float r2 selects the fp32 tiles'
/// arithmetic (core/precision.hpp), with double-held parameters narrowed
/// once per call. A kernel may also provide a vector radial form for the
/// AVX-512 tile skeleton (core/cpu_kernels.hpp): `vector_value(r2, inv_r)`
/// maps a register of r^2 and the masked 1/r (zero at r == 0) to G, and
/// `vector_grad(r2, inv_r, g, s)` writes G and s = -G'(r)/r, the factor of
/// (x - y) q in E = -grad phi. Coulomb provides fp64 and fp32 forms;
/// Yukawa, Gaussian and erfc (all on simd::exp_pd) provide fp64 ones.
/// Multiquadric and inverse-square, and every fp32 tile but Coulomb's, run
/// the portable tiles.
struct CoulombKernel {
  static constexpr bool kSingular = true;
  template <typename T>
  T operator()(T r2) const {
    return T(1) / std::sqrt(r2);
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T inv_r = T(1) / std::sqrt(r2);
    // slope = -1/r^3, rounded in each precision's established order.
    if constexpr (std::is_same_v<T, double>) {
      return {inv_r, -inv_r * (inv_r * inv_r)};
    } else {
      return {inv_r, -inv_r * inv_r * inv_r};
    }
  }
#if defined(__AVX512F__)
  template <typename V>
  V vector_value(V, V inv_r) const {
    return inv_r;
  }
  template <typename V>
  void vector_grad(V, V inv_r, V& g, V& s) const {
    g = inv_r;
    s = simd::mul(inv_r, simd::mul(inv_r, inv_r));  // 1/r^3
  }
#endif
};

struct YukawaKernel {
  static constexpr bool kSingular = true;
  double kappa;
  template <typename T>
  T operator()(T r2) const {
    const T r = std::sqrt(r2);
    return std::exp(-static_cast<T>(kappa) * r) / r;
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T k = static_cast<T>(kappa);
    const T r = std::sqrt(r2);
    const T g = std::exp(-k * r) / r;
    return {g, -g * (k * r + T(1)) / r2};  // -e^{-kr}(kr+1)/r^3
  }
#if defined(__AVX512F__)
  // r = r^2 inv_r is zero at a masked lane (inv_r = 0), so e^0 = 1 there
  // and the inv_r factor zeroes the lane.
  __m512d vector_value(__m512d r2, __m512d inv_r) const {
    const __m512d r = simd::mul(r2, inv_r);
    return simd::mul(simd::exp_pd(simd::mul(simd::set1(-kappa), r)),
                     inv_r);
  }
  void vector_grad(__m512d r2, __m512d inv_r, __m512d& g,
                   __m512d& s) const {
    // s = g (kr + 1) / r^2.
    const __m512d r = simd::mul(r2, inv_r);
    g = vector_value(r2, inv_r);
    s = simd::mul(
        simd::mul(g, simd::fmadd(simd::set1(kappa), r, simd::set1(1.0))),
        simd::mul(inv_r, inv_r));
  }
#endif
};

struct GaussianKernel {
  static constexpr bool kSingular = false;
  double kappa;
  template <typename T>
  T operator()(T r2) const {
    return std::exp(-static_cast<T>(kappa) * r2);
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T k = static_cast<T>(kappa);
    const T g = std::exp(-k * r2);
    return {g, T(-2) * k * g};
  }
#if defined(__AVX512F__)
  // Regular at the origin: inv_r is unused, so G(0) = 1 is kept.
  __m512d vector_value(__m512d r2, __m512d) const {
    return simd::exp_pd(simd::mul(simd::set1(-kappa), r2));
  }
  void vector_grad(__m512d r2, __m512d inv_r, __m512d& g,
                   __m512d& s) const {
    g = vector_value(r2, inv_r);
    s = simd::mul(simd::set1(2.0 * kappa), g);
  }
#endif
};

struct MultiquadricKernel {
  static constexpr bool kSingular = false;
  double shape;
  template <typename T>
  T operator()(T r2) const {
    return std::sqrt(r2 + static_cast<T>(shape * shape));
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T g = std::sqrt(r2 + static_cast<T>(shape * shape));
    return {g, T(1) / g};
  }
};

struct InverseSquareKernel {
  static constexpr bool kSingular = true;
  template <typename T>
  T operator()(T r2) const {
    return T(1) / r2;
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T g = T(1) / r2;
    return {g, T(-2) * g * g};  // -2/r^4
  }
};

/// Ewald-screened Coulomb (the kPeriodicMesh near field): G = erfc(a r)/r,
/// G'(r) = -[erfc(a r)/r + (2a/sqrt(pi)) e^{-a^2 r^2}]/r. The vector form
/// is fp64 only, built on the A&S 7.1.26 erfc (simd::erfc_gauss_pd).
struct CoulombErfcKernel {
  static constexpr bool kSingular = true;
  static constexpr double kTwoOverSqrtPi = 1.1283791670955126;
  double alpha;
  template <typename T>
  T operator()(T r2) const {
    const T r = std::sqrt(r2);
    return std::erfc(static_cast<T>(alpha) * r) / r;
  }
  template <typename T>
  GradValue<T> grad(T r2) const {
    const T a = static_cast<T>(alpha);
    const T r = std::sqrt(r2);
    const T g = std::erfc(a * r) / r;
    const T gauss =
        static_cast<T>(kTwoOverSqrtPi) * a * std::exp(-a * a * r2);
    return {g, -(g + gauss) / r2};
  }
#if defined(__AVX512F__)
  __m512d vector_value(__m512d r2, __m512d inv_r) const {
    __m512d erfc_ar, gauss;
    simd::erfc_gauss_pd(simd::mul(simd::set1(alpha), simd::mul(r2, inv_r)),
                        erfc_ar, gauss);
    return simd::mul(erfc_ar, inv_r);
  }
  void vector_grad(__m512d r2, __m512d inv_r, __m512d& g,
                   __m512d& s) const {
    __m512d erfc_ar, gauss;
    simd::erfc_gauss_pd(simd::mul(simd::set1(alpha), simd::mul(r2, inv_r)),
                        erfc_ar, gauss);
    // s = (g + (2a/sqrt(pi)) e^{-a^2 r^2}) / r^2; the inv_r factors keep
    // coincident lanes at zero.
    g = simd::mul(erfc_ar, inv_r);
    s = simd::mul(simd::fmadd(simd::set1(kTwoOverSqrtPi * alpha), gauss, g),
                  simd::mul(inv_r, inv_r));
  }
#endif
};

/// Singularity-guarded kernel value in branchless (blend) form: the value of
/// G at squared distance `r2`, zero at a coincident point for singular
/// kernels. Written as a select rather than an early-out so the blocked
/// evaluators (core/cpu_kernels.hpp) can if-convert and vectorize the guard;
/// the speculative k(0) in a masked-off lane is IEEE inf, discarded by the
/// select without being consumed.
template <typename K, typename T>
inline T kernel_value_masked(K k, T r2) {
  if constexpr (K::kSingular) {
    return (r2 > T(0)) ? k(r2) : T(0);
  } else {
    return k(r2);
  }
}

/// Guarded gradient value in the same branchless form: both components
/// zero at a coincident point for singular kernels.
template <typename K, typename T>
inline GradValue<T> grad_value_masked(K k, T r2) {
  GradValue<T> v = k.grad(r2);
  if constexpr (K::kSingular) {
    if (!(r2 > T(0))) v = GradValue<T>{};
  }
  return v;
}

/// One-time dispatch from a runtime KernelSpec to a compile-time functor:
/// `with_kernel(spec, [&](auto k) { ...hot loop using k(r2)... })`.
template <typename F>
decltype(auto) with_kernel(const KernelSpec& spec, F&& f) {
  switch (spec.type) {
    case KernelType::kCoulomb:
      return f(CoulombKernel{});
    case KernelType::kYukawa:
      return f(YukawaKernel{spec.kappa});
    case KernelType::kGaussian:
      return f(GaussianKernel{spec.kappa});
    case KernelType::kMultiquadric:
      return f(MultiquadricKernel{spec.kappa});
    case KernelType::kInverseSquare:
      return f(InverseSquareKernel{});
    case KernelType::kCoulombErfc:
      return f(CoulombErfcKernel{spec.kappa});
  }
  throw std::invalid_argument("with_kernel: unknown kernel type");
}

/// Scalar evaluation G(x, y) for tests and non-hot-path uses. Returns 0 for
/// coincident points with singular kernels (the skip convention).
double evaluate_kernel(const KernelSpec& spec, double x1, double x2, double x3,
                       double y1, double y2, double y3);

}  // namespace bltc
