#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/simd.hpp"

namespace bltc {
namespace {

TEST(Kernels, CoulombValue) {
  // G = 1/r at distance 2.
  EXPECT_DOUBLE_EQ(evaluate_kernel(KernelSpec::coulomb(), 0, 0, 0, 2, 0, 0),
                   0.5);
}

TEST(Kernels, YukawaValue) {
  const double kappa = 0.5;
  const double r = 3.0;
  const double expected = std::exp(-kappa * r) / r;
  EXPECT_NEAR(
      evaluate_kernel(KernelSpec::yukawa(kappa), 0, 0, 0, 0, 3, 0),
      expected, 1e-15);
}

TEST(Kernels, YukawaWithZeroKappaEqualsCoulomb) {
  const KernelSpec y = KernelSpec::yukawa(0.0);
  const KernelSpec c = KernelSpec::coulomb();
  EXPECT_DOUBLE_EQ(evaluate_kernel(y, 0, 0, 0, 1, 2, 2),
                   evaluate_kernel(c, 0, 0, 0, 1, 2, 2));
}

TEST(Kernels, YukawaIsScreenedBelowCoulomb) {
  for (double r : {0.5, 1.0, 2.0, 5.0}) {
    const double yv = evaluate_kernel(KernelSpec::yukawa(0.5), 0, 0, 0, r, 0, 0);
    const double cv = evaluate_kernel(KernelSpec::coulomb(), 0, 0, 0, r, 0, 0);
    EXPECT_LT(yv, cv);
    EXPECT_GT(yv, 0.0);
  }
}

TEST(Kernels, GaussianValue) {
  const double v = evaluate_kernel(KernelSpec::gaussian(2.0), 0, 0, 0, 1, 0, 0);
  EXPECT_NEAR(v, std::exp(-2.0), 1e-15);
}

TEST(Kernels, MultiquadricValue) {
  const double v =
      evaluate_kernel(KernelSpec::multiquadric(3.0), 0, 0, 0, 4, 0, 0);
  EXPECT_DOUBLE_EQ(v, 5.0);  // sqrt(16 + 9)
}

TEST(Kernels, InverseSquareValue) {
  EXPECT_DOUBLE_EQ(
      evaluate_kernel(KernelSpec::inverse_square(), 0, 0, 0, 0, 0, 2), 0.25);
}

TEST(Kernels, SingularKernelsSkipCoincidentPoints) {
  EXPECT_DOUBLE_EQ(evaluate_kernel(KernelSpec::coulomb(), 1, 1, 1, 1, 1, 1),
                   0.0);
  EXPECT_DOUBLE_EQ(
      evaluate_kernel(KernelSpec::yukawa(0.5), 1, 1, 1, 1, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(
      evaluate_kernel(KernelSpec::inverse_square(), 0, 0, 0, 0, 0, 0), 0.0);
}

TEST(Kernels, SmoothKernelsIncludeCoincidentPoints) {
  EXPECT_DOUBLE_EQ(
      evaluate_kernel(KernelSpec::gaussian(1.0), 1, 1, 1, 1, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(
      evaluate_kernel(KernelSpec::multiquadric(2.0), 0, 0, 0, 0, 0, 0), 2.0);
}

TEST(Kernels, SingularityFlags) {
  EXPECT_TRUE(KernelSpec::coulomb().singular_at_origin());
  EXPECT_TRUE(KernelSpec::yukawa(0.1).singular_at_origin());
  EXPECT_TRUE(KernelSpec::inverse_square().singular_at_origin());
  EXPECT_FALSE(KernelSpec::gaussian(1.0).singular_at_origin());
  EXPECT_FALSE(KernelSpec::multiquadric(1.0).singular_at_origin());
}

TEST(Kernels, WithKernelDispatchesToMatchingFunctor) {
  const double r2 = 4.0;
  EXPECT_DOUBLE_EQ(with_kernel(KernelSpec::coulomb(),
                               [&](auto k) { return k(r2); }),
                   0.5);
  EXPECT_DOUBLE_EQ(with_kernel(KernelSpec::inverse_square(),
                               [&](auto k) { return k(r2); }),
                   0.25);
  EXPECT_NEAR(with_kernel(KernelSpec::yukawa(1.0),
                          [&](auto k) { return k(r2); }),
              std::exp(-2.0) / 2.0, 1e-15);
}

TEST(Kernels, NamesAreDistinctAndInformative) {
  EXPECT_EQ(KernelSpec::coulomb().name(), "coulomb");
  EXPECT_NE(KernelSpec::yukawa(0.5).name().find("yukawa"), std::string::npos);
  EXPECT_NE(KernelSpec::gaussian(1.0).name().find("gaussian"),
            std::string::npos);
  EXPECT_NE(KernelSpec::multiquadric(1.0).name().find("multiquadric"),
            std::string::npos);
  EXPECT_EQ(KernelSpec::inverse_square().name(), "inverse_square");
}

TEST(Kernels, KernelSymmetry) {
  // G(x, y) = G(y, x) for all radial kernels.
  for (const KernelSpec spec :
       {KernelSpec::coulomb(), KernelSpec::yukawa(0.7),
        KernelSpec::gaussian(0.3), KernelSpec::multiquadric(1.5)}) {
    const double a = evaluate_kernel(spec, 0.1, 0.2, 0.3, 1.0, -1.0, 0.5);
    const double b = evaluate_kernel(spec, 1.0, -1.0, 0.5, 0.1, 0.2, 0.3);
    EXPECT_DOUBLE_EQ(a, b) << spec.name();
  }
}

#if defined(__AVX512F__)
/// Worst relative error of simd::exp_pd<Degree> against long-double
/// std::exp over the clamp range [-700, 700]: a dense sweep plus the
/// points either side of each range-reduction boundary (n + 1/2) ln2,
/// where |r| is largest.
template <int Degree>
double exp_pd_worst_rel_error() {
  std::vector<double> xs;
  for (int i = 0; i <= 1400000; ++i) xs.push_back(-700.0 + i * 1e-3);
  const double ln2 = std::log(2.0);
  for (int n = -1010; n <= 1010; ++n) {
    const double b = (n + 0.5) * ln2;
    if (b <= -700.0 || b >= 700.0) continue;
    xs.push_back(std::nextafter(b, -1e300));
    xs.push_back(std::nextafter(b, 1e300));
  }
  while (xs.size() % 8 != 0) xs.push_back(0.0);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    double e[8];
    _mm512_storeu_pd(e, simd::exp_pd<Degree>(_mm512_loadu_pd(&xs[i])));
    for (std::size_t l = 0; l < 8; ++l) {
      const long double want = std::exp(static_cast<long double>(xs[i + l]));
      worst = std::max(worst, static_cast<double>(std::fabs(
                                  (static_cast<long double>(e[l]) - want) /
                                  want)));
    }
  }
  return worst;
}

TEST(Kernels, VectorExpAccuracyPerDegree) {
  // Degree 7 serves the erfc tiles' Gaussian factor (A&S 7.1.26 is itself
  // good to 1.5e-7); degree 12 serves Yukawa and Gaussian, whose tiles must
  // match std::exp to fp64 accuracy.
  EXPECT_LE(exp_pd_worst_rel_error<7>(), 1e-8);
  EXPECT_LE(exp_pd_worst_rel_error<12>(), 1e-15);
}
#endif

}  // namespace
}  // namespace bltc
