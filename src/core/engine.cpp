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

void Engine::update_sources(const SourcePlan& plan,
                            const TreecodeParams& params,
                            const SourceUpdate& /*update*/) {
  // Always-correct fallback: treat the update as a full geometry change.
  prepare_sources(plan, params, /*charges_only=*/false);
}

void Engine::update_targets(
    const TargetPlan& /*plan*/,
    std::span<const std::pair<std::size_t, std::size_t>> /*moved_ranges*/) {
  // Host engines read target data straight from the plan: nothing cached.
}

void Engine::refresh_let_positions(std::span<const LetPiece> pieces,
                                   const TreecodeParams& params) {
  attach_let_pieces(pieces, params, /*charges_only=*/false);
}

void Engine::attach_let_pieces(std::span<const LetPiece> pieces,
                               const TreecodeParams& /*params*/,
                               bool /*charges_only*/) {
  if (!pieces.empty()) {
    throw std::invalid_argument(
        "this engine does not support distributed LET evaluation");
  }
}

std::span<const double> Engine::prepared_qhat() const { return {}; }

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
