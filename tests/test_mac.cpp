#include "core/mac.hpp"

#include <gtest/gtest.h>

namespace bltc {
namespace {

TEST(Mac, InterpolationPointCount) {
  EXPECT_EQ(interpolation_point_count(0), 1u);
  EXPECT_EQ(interpolation_point_count(1), 8u);
  EXPECT_EQ(interpolation_point_count(8), 729u);
  EXPECT_EQ(interpolation_point_count(13), 2744u);
}

TEST(Mac, WellSeparatedLargeClusterIsApproximated) {
  // r_B = r_C = 0.5, R = 10: (0.5+0.5)/10 = 0.1 < theta = 0.5; cluster has
  // 10000 > (8+1)^3 sources.
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {10, 0, 0}, 0.5, 10000, 0.5, 8),
            MacResult::kApprox);
}

TEST(Mac, CloseClusterFailsGeometricCondition) {
  // (0.5+0.5)/1.5 = 0.667 >= theta = 0.5.
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {1.5, 0, 0}, 0.5, 10000, 0.5, 8),
            MacResult::kTooClose);
}

TEST(Mac, BoundaryIsExclusive) {
  // (r_B + r_C)/R == theta exactly must fail ("< theta" in Eq. 13).
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {2.0, 0, 0}, 0.5, 10000, 0.5, 8),
            MacResult::kTooClose);
}

TEST(Mac, SmallClusterTriggersSizeCondition) {
  // Well separated but with fewer sources than interpolation points:
  // direct summation is both faster and more accurate (§2.4).
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {10, 0, 0}, 0.5, 729, 0.5, 8),
            MacResult::kClusterSmall);
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {10, 0, 0}, 0.5, 730, 0.5, 8),
            MacResult::kApprox);
}

TEST(Mac, GeometricConditionCheckedBeforeSizeCondition) {
  // Both conditions fail: the traversal needs kTooClose so it can recurse
  // into children rather than summing a huge near cluster directly.
  EXPECT_EQ(evaluate_mac({0, 0, 0}, 0.5, {1.0, 0, 0}, 0.5, 10, 0.5, 8),
            MacResult::kTooClose);
}

TEST(Mac, TighterThetaRejectsMore) {
  // A configuration on the edge: passes at theta=0.9, fails at theta=0.5.
  const std::array<double, 3> bc{0, 0, 0};
  const std::array<double, 3> cc{2.0, 0, 0};
  EXPECT_EQ(evaluate_mac(bc, 0.5, cc, 0.8, 10000, 0.9, 8),
            MacResult::kApprox);
  EXPECT_EQ(evaluate_mac(bc, 0.5, cc, 0.8, 10000, 0.5, 8),
            MacResult::kTooClose);
}

TEST(Mac, HigherDegreeNeedsBiggerClusters) {
  const std::array<double, 3> bc{0, 0, 0};
  const std::array<double, 3> cc{10.0, 0, 0};
  // 1000 sources: enough for n=8 (729 points), not for n=13 (2744 points).
  EXPECT_EQ(evaluate_mac(bc, 0.5, cc, 0.5, 1000, 0.5, 8), MacResult::kApprox);
  EXPECT_EQ(evaluate_mac(bc, 0.5, cc, 0.5, 1000, 0.5, 13),
            MacResult::kClusterSmall);
}

}  // namespace
}  // namespace bltc
