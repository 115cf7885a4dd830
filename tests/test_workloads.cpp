#include "util/workloads.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bltc {
namespace {

TEST(Workloads, UniformCubeBoundsAndSize) {
  const Cloud c = uniform_cube(5000, 1);
  ASSERT_EQ(c.size(), 5000u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(c.x[i], -1.0);
    EXPECT_LT(c.x[i], 1.0);
    EXPECT_GE(c.y[i], -1.0);
    EXPECT_LT(c.y[i], 1.0);
    EXPECT_GE(c.z[i], -1.0);
    EXPECT_LT(c.z[i], 1.0);
    EXPECT_GE(c.q[i], -1.0);
    EXPECT_LT(c.q[i], 1.0);
  }
}

TEST(Workloads, UniformCubeIsDeterministicPerSeed) {
  const Cloud a = uniform_cube(100, 42);
  const Cloud b = uniform_cube(100, 42);
  const Cloud c = uniform_cube(100, 43);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.q, b.q);
  EXPECT_NE(a.x, c.x);
}

TEST(Workloads, UniformCubeCustomInterval) {
  const Cloud c = uniform_cube(1000, 3, 10.0, 20.0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(c.x[i], 10.0);
    EXPECT_LT(c.x[i], 20.0);
  }
}

TEST(Workloads, UniformCubeRoughlyFillsTheCube) {
  // With 20k points, each octant should hold close to 1/8 of the mass.
  const Cloud c = uniform_cube(20000, 9);
  std::size_t count = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.x[i] > 0 && c.y[i] > 0 && c.z[i] > 0) ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / 20000.0, 0.125, 0.02);
}

TEST(Workloads, PlummerSphereMassesAndClamp) {
  const std::size_t n = 4000;
  const Cloud c = plummer_sphere(n, 5, 1.0, 10.0);
  ASSERT_EQ(c.size(), n);
  double rmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(c.q[i], 1.0 / static_cast<double>(n));
    rmax = std::fmax(rmax, std::sqrt(c.x[i] * c.x[i] + c.y[i] * c.y[i] +
                                     c.z[i] * c.z[i]));
  }
  EXPECT_LE(rmax, 10.0);
}

TEST(Workloads, PlummerSphereIsCentrallyConcentrated) {
  // Half-mass radius of a Plummer model is ~1.3 a; far smaller than rmax.
  const Cloud c = plummer_sphere(8000, 11, 1.0, 20.0);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double r = std::sqrt(c.x[i] * c.x[i] + c.y[i] * c.y[i] +
                               c.z[i] * c.z[i]);
    if (r < 1.305) ++inside;
  }
  EXPECT_NEAR(static_cast<double>(inside) / 8000.0, 0.5, 0.05);
}

TEST(Workloads, SphereSurfacePointsLieOnSphere) {
  const double radius = 2.5;
  const Cloud c = sphere_surface(3000, 7, radius);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double r = std::sqrt(c.x[i] * c.x[i] + c.y[i] * c.y[i] +
                               c.z[i] * c.z[i]);
    EXPECT_NEAR(r, radius, 1e-12);
  }
}

TEST(Workloads, SphereSurfaceIsQuasiUniform) {
  // Fibonacci lattice: both hemispheres hold half the points.
  const Cloud c = sphere_surface(5000, 7);
  std::size_t north = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.z[i] > 0.0) ++north;
  }
  EXPECT_NEAR(static_cast<double>(north) / 5000.0, 0.5, 0.02);
}

TEST(Workloads, IonicLatticeIsNeutralAndInBox) {
  const Cloud c = ionic_lattice(4, 1, 1.0, 0.3);
  ASSERT_EQ(c.size(), 64u);
  double sum = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    sum += c.q[i];
    EXPECT_TRUE(c.q[i] == 1.0 || c.q[i] == -1.0);
    EXPECT_GE(c.x[i], 0.0);
    EXPECT_LT(c.x[i], 1.0);
    EXPECT_GE(c.y[i], 0.0);
    EXPECT_LT(c.y[i], 1.0);
    EXPECT_GE(c.z[i], 0.0);
    EXPECT_LT(c.z[i], 1.0);
  }
  EXPECT_EQ(sum, 0.0);  // even side: exactly neutral
}

TEST(Workloads, IonicLatticeRoundsOddSideUpToEven) {
  // Odd sides cannot be neutral ((-1)^(i+j+k) sums to +-1); the generator
  // rounds up so the lattice is always exactly neutral.
  const Cloud c = ionic_lattice(3, 7);
  EXPECT_EQ(c.size(), 64u);
}

TEST(Workloads, IonicLatticeIsDeterministicPerSeed) {
  const Cloud a = ionic_lattice(4, 42, 1.0, 0.5);
  const Cloud b = ionic_lattice(4, 42, 1.0, 0.5);
  const Cloud c = ionic_lattice(4, 43, 1.0, 0.5);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.z, b.z);
  EXPECT_EQ(a.q, b.q);
  EXPECT_NE(a.x, c.x);
}

TEST(Workloads, IonicLatticeTranslationByBoxIsExact) {
  // The advertised quantization contract: adding a lattice vector to every
  // coordinate is exact in double precision (box = 1, small multiples).
  const Cloud c = ionic_lattice(4, 11, 1.0, 0.4);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ((c.x[i] + 3.0) - 3.0, c.x[i]);
    EXPECT_EQ((c.y[i] - 2.0) + 2.0, c.y[i]);
  }
}

TEST(Workloads, ScreenedPlasmaIsNeutralDeterministicAndInBox) {
  const Cloud a = screened_plasma(2000, 5, 2.0);
  const Cloud b = screened_plasma(2000, 5, 2.0);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.q, b.q);
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a.q[i];
    EXPECT_GE(a.x[i], 0.0);
    EXPECT_LT(a.x[i], 2.0);
  }
  EXPECT_EQ(sum, 0.0);  // even n: alternating +-1 cancels exactly
}

TEST(Workloads, DumbbellFormsTwoSeparatedClusters) {
  const Cloud c = dumbbell(2000, 13, 6.0);
  std::size_t left = 0, right = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.x[i] < -1.5) ++left;
    if (c.x[i] > 1.5) ++right;
  }
  EXPECT_EQ(left + right, c.size());  // the gap is empty
  EXPECT_NEAR(static_cast<double>(left), 1000.0, 1.0);
}

}  // namespace
}  // namespace bltc
