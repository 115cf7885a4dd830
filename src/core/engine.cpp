#include "core/engine.hpp"

#include <memory>
#include <stdexcept>

#include "core/cpu_engine.hpp"
#include "core/gpu_engine.hpp"
#include "mesh/mesh.hpp"
#include "util/timer.hpp"

namespace bltc {

void add_into(std::vector<double>& acc,
              const std::vector<double>& contribution) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += contribution[i];
}

void add_into(FieldResult& acc, const FieldResult& contribution) {
  add_into(acc.phi, contribution.phi);
  add_into(acc.ex, contribution.ex);
  add_into(acc.ey, contribution.ey);
  add_into(acc.ez, contribution.ez);
}

void Engine::mesh_far_field(const mesh::MeshPlan& plan,
                            const TargetPlan& targets,
                            std::vector<double>& phi, FieldResult* field,
                            RunStats& stats) const {
  WallTimer timer;
  if (field != nullptr) {
    plan.add_field(*targets.particles, *field);
  } else {
    plan.add_potential(*targets.particles, phi);
  }
  stats.mesh_spread_seconds += timer.seconds();
  stats.mesh_points = plan.grid_points();
}

std::unique_ptr<Engine> make_engine(Backend backend, const GpuOptions& gpu) {
  switch (backend) {
    case Backend::kCpu:
      return std::make_unique<CpuEngine>();
    case Backend::kGpuSim:
      return std::make_unique<GpuSimEngine>(gpu);
  }
  throw std::invalid_argument("make_engine: unknown backend");
}

}  // namespace bltc
