#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
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
/// simd::exp_pd at each of `xs` (any length).
std::vector<double> exp_pd_at(std::vector<double> xs) {
  const std::size_t n = xs.size();
  while (xs.size() % 8 != 0) xs.push_back(0.0);
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    _mm512_storeu_pd(&out[i], simd::exp_pd(_mm512_loadu_pd(&xs[i])));
  }
  out.resize(n);
  return out;
}

TEST(Kernels, VectorExpAccuracy) {
  // Every vector tile's exp (Yukawa, Gaussian, erfc's Gaussian factor)
  // must match std::exp to fp64 accuracy. The sweep is dense over
  // [-745, 709] and adds both neighbours of every range-reduction boundary
  // (k + 1/2) ln2/16, where |r| is largest. The error is relative for
  // normal results and in units of DBL_MIN below them, where a subnormal
  // result carries only its rounding. The bound sits under fp64's 1e-15:
  // 2.2e-16 is measured, and a degree-6 polynomial (6.3e-16) or a table
  // entry 16 ulp off (2.9e-15) must fail.
  std::vector<double> xs;
  for (int i = 0; i <= 1454000; ++i) xs.push_back(-745.0 + i * 1e-3);
  const long double ln2_16 = std::log(2.0L) / 16;
  for (int k = -17200; k <= 16400; ++k) {
    const double b = static_cast<double>((k + 0.5L) * ln2_16);
    if (b < -745.0 || b > 709.0) continue;
    xs.push_back(std::nextafter(b, -1e300));
    xs.push_back(std::nextafter(b, 1e300));
  }
  const std::vector<double> e = exp_pd_at(xs);
  double worst = 0.0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const long double want = std::exp(static_cast<long double>(xs[i]));
    const long double scale =
        std::max(want, static_cast<long double>(DBL_MIN));
    const double err = static_cast<double>(
        std::fabs(static_cast<long double>(e[i]) - want) / scale);
    if (!(err <= worst)) {
      worst = err;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 4e-16) << "at x = " << worst_x;

  const std::vector<double> edge =
      exp_pd_at({0.0, -745.2, -1e4, -1e6, 710.0});
  EXPECT_EQ(edge[0], 1.0);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_FALSE(std::isnan(edge[i])) << i;
    EXPECT_EQ(edge[i], 0.0) << i;
  }
  EXPECT_EQ(edge[4], std::numeric_limits<double>::infinity());
}
#endif

}  // namespace
}  // namespace bltc
