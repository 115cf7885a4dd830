// Mapping from util/workloads request storms (pure geometry + mix tags) to
// serving-layer requests. Lives in serve/ so util/ stays free of core
// types: a StormRequest's boundary/traversal tag picks one of three
// TreecodeParams presets, and its cloud index resolves against the storm's
// stable cloud storage.
#pragma once

#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "serve/frontend.hpp"
#include "util/workloads.hpp"

namespace bltc::serve {

/// Treecode/kernel presets for the three storm mix classes. Defaults are
/// serving-sized (small leaves/batches for small clouds). The dual preset
/// keeps max_leaf != max_batch deliberately: that keeps the storm's dual
/// requests on the asymmetric traversal even when they target their own
/// sources, which is the path the serving benchmarks built on these
/// presets have always measured.
struct StormParams {
  TreecodeParams open;      ///< batched, open boundaries
  TreecodeParams dual;      ///< dual traversal, open boundaries
  TreecodeParams periodic;  ///< batched, periodic boundaries
  KernelSpec open_kernel = KernelSpec::coulomb();
  /// Yukawa: the physical screened-plasma pairing, and its image sum needs
  /// no charge neutrality.
  KernelSpec periodic_kernel = KernelSpec::yukawa(2.0);
};

/// Presets for a storm over [0, box)^3.
StormParams default_storm_params(double box);

/// Resolve one storm request into a ServeRequest pointing at the storm's
/// cloud storage (the storm must outlive the request's response).
ServeRequest storm_request(const RequestStorm& storm, const StormRequest& req,
                           const StormParams& params,
                           Backend backend = Backend::kCpu);

}  // namespace bltc::serve
