// Per-interaction mixed-precision execution (§5 future work, made real).
//
// Precision is selected the same way the dual traversal selects its moment
// ladder level: per interaction, against the nominal (theta, n) error
// target. An admitted far-field interaction with opening ratio
// kappa = (r_B + r_C)/R < theta carries a truncation error bounded by
// kappa^(d+1)/(1-kappa); executing its tile in fp32 adds a representation/
// accumulation floor of order a few float ulps. Under kMixed the tile runs
// fp32 exactly when truncation + fp32 floor still meets the nominal bound
// theta^(n+1)/(1-theta) — so mixed precision never costs accuracy the user
// did not already concede to the treecode itself. Direct (leaf-leaf) tiles
// always stay fp64: they carry no truncation budget to hide the float
// floor in, and they contain the near-singular pairs.
//
// The fp32 tiles read the same fp64 source state as the fp64 tiles — the
// ordered particles and every ladder level's q̂ and Chebyshev grids — and
// narrow it to float while staging it into per-thread scratch
// (core/cpu_kernels.cpp). Mixed precision therefore keeps no second copy of
// the sources, and update_charges/update_positions need no extra work for
// it. Accumulation is always fp64.
#pragma once

#include <cmath>

namespace bltc {

/// Execution precision of far-field tiles. Direct tiles are fp64 under
/// every policy.
enum class PrecisionPolicy {
  kFp64,    ///< everything fp64 (bit-identical to the pre-policy behavior)
  kMixed,   ///< fp32 where the error ladder proves the nominal bound holds
  kFp32Far, ///< every admitted far-field tile fp32 (frontier exploration)
};

/// Human-readable policy name ("fp64" | "mixed" | "fp32far").
const char* precision_policy_name(PrecisionPolicy policy);

/// Conservative relative error contributed by one fp32 tile: float inputs
/// (~1.2e-7 ulp) amplified by blocked accumulation before each fp64 flush.
inline constexpr double kFp32TileError = 1e-6;

/// Classical a-priori far-field bound at (theta, degree):
/// theta^(degree+1) / (1 - theta).
inline double nominal_error_bound(double theta, int degree) {
  return std::pow(theta, degree + 1) / (1.0 - theta);
}

/// Whether one admitted far-field interaction may execute fp32: its own
/// truncation bound at the degree it will actually run, plus the fp32 tile
/// floor, must still meet the nominal (theta, nominal_degree) target.
/// `kappa` is the interaction's opening ratio (< theta by admission).
inline bool fp32_admissible(PrecisionPolicy policy, double kappa,
                            int used_degree, double theta,
                            int nominal_degree) {
  switch (policy) {
    case PrecisionPolicy::kFp64:
      return false;
    case PrecisionPolicy::kFp32Far:
      return true;
    case PrecisionPolicy::kMixed:
      break;
  }
  const double truncation =
      std::pow(kappa, used_degree + 1) / (1.0 - kappa);
  return truncation + kFp32TileError <= nominal_error_bound(theta,
                                                            nominal_degree);
}

}  // namespace bltc
