#include "serve/storm.hpp"

namespace bltc::serve {

StormParams default_storm_params(double box) {
  StormParams params;

  params.open.theta = 0.7;
  params.open.degree = 6;
  params.open.max_leaf = 128;
  params.open.max_batch = 128;

  params.dual = params.open;
  params.dual.traversal = TraversalMode::kDual;
  params.dual.max_leaf = 96;  // != max_batch: keep the asymmetric dual path

  params.periodic = params.open;
  params.periodic.boundary = BoundaryConditions::kPeriodic;
  params.periodic.domain = Box3::cube(0.0, box);
  params.periodic.image_shells = 1;

  return params;
}

ServeRequest storm_request(const RequestStorm& storm, const StormRequest& req,
                           const StormParams& params) {
  ServeRequest request;
  request.sources = &storm.clouds.at(req.cloud);
  if (req.boundary == StormBoundary::kPeriodic) {
    request.params = params.periodic;
    request.kernel = params.periodic_kernel;
  } else if (req.traversal == StormTraversal::kDual) {
    request.params = params.dual;
    request.kernel = params.open_kernel;
  } else {
    request.params = params.open;
    request.kernel = params.open_kernel;
  }
  return request;
}

}  // namespace bltc::serve
