// GpuSim cost model: bitwise parity of Backend::kGpuSim with Backend::kCpu
// (GpuSim models launches over host numerics), the modeled launch schedule
// and residency, and a pinned snapshot of the cost model's output.
#include "gpusim/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/cpu_kernels.hpp"
#include "core/plan.hpp"
#include "core/solver.hpp"
#include "dist/dist_solver.hpp"
#include "util/workloads.hpp"

namespace bltc {
namespace {

TreecodeParams small_params() {
  TreecodeParams p;
  p.theta = 0.7;
  p.degree = 5;
  p.max_leaf = 200;
  p.max_batch = 200;
  return p;
}

/// A self-interaction plan over `c`: source tree and moments plus batched
/// target lists.
struct Plan {
  SourcePlanState sources;
  TargetPlanState targets;
};

Plan make_plan(const Cloud& c, const TreecodeParams& params) {
  Plan plan{SourcePlanState::build(c, params),
            TargetPlanState::plan(c, params)};
  plan.sources.build_moments(1);
  plan.targets.append_lists(plan.sources.tree, params);
  return plan;
}

/// One Coulomb evaluation of `plan` on the host, modeled on `gpu` when it
/// is non-null (staging before the numerics, the launches after them).
std::vector<double> evaluate(gpusim::CostModel* gpu, const Plan& plan,
                             RunStats& stats) {
  const SourcePlan source = plan.sources.view();
  const TargetPlan targets = plan.targets.view();
  const KernelSpec kernel = KernelSpec::coulomb();
  if (gpu != nullptr) gpu->stage({&source, 1}, targets);
  std::vector<double> phi =
      evaluate_plan({&source, 1}, targets, kernel, stats);
  if (gpu != nullptr) {
    gpu->model_potential({&source, 1}, targets, kernel, stats);
  }
  return phi;
}

TEST(GpuSimCostModel, PrecomputeLaunchesTwoKernelsPerNonemptyCluster) {
  const TreecodeParams params = small_params();
  const Cloud c = uniform_cube(2000, 2);
  const Plan plan = make_plan(c, params);
  gpusim::CostModel model{GpuOptions{}};
  RunStats stats;
  (void)evaluate(&model, plan, stats);

  // The first evaluation uploads the plan: two preprocessing launches per
  // non-empty cluster ahead of one launch per list entry.
  const SourcePlanState& src = plan.sources;
  const std::size_t nn = src.tree.num_nodes();
  std::size_t nonempty = 0;
  for (std::size_t i = 0; i < nn; ++i) {
    if (src.tree.node(static_cast<int>(i)).count() > 0) ++nonempty;
  }
  const DualInteractionLists& lists = plan.targets.lists[0];
  EXPECT_EQ(model.device().launches(),
            2 * nonempty + lists.total_pc + lists.total_direct);
  // HtD: four source streams, then every cluster's grid and modified
  // charges, then the three target coordinate streams; DtH: the modified
  // charges, then the potentials.
  const std::size_t m = static_cast<std::size_t>(params.degree) + 1;
  const std::size_t ppc = m * m * m;
  EXPECT_EQ(model.device().bytes_to_device(),
            (4 * c.size() + nn * (3 * m + ppc) + 3 * c.size()) *
                sizeof(double));
  EXPECT_EQ(model.device().bytes_to_host(),
            (nn * ppc + c.size()) * sizeof(double));
}

TEST(GpuSimCostModel, ModeledEvaluationMatchesHost) {
  const TreecodeParams params = small_params();
  const Plan plan = make_plan(uniform_cube(4000, 3), params);
  gpusim::CostModel gpu{GpuOptions{}};
  RunStats cpu_stats, gpu_stats;
  const auto phi_cpu = evaluate(nullptr, plan, cpu_stats);
  const auto phi_gpu = evaluate(&gpu, plan, gpu_stats);
  EXPECT_EQ(phi_cpu, phi_gpu);  // bitwise: one numeric implementation
  // Modeling adds no work to the host's counts.
  EXPECT_EQ(cpu_stats.approx_evals, gpu_stats.approx_evals);
  EXPECT_EQ(cpu_stats.direct_evals, gpu_stats.direct_evals);
  EXPECT_EQ(cpu_stats.approx_launches, gpu_stats.approx_launches);
  EXPECT_EQ(cpu_stats.direct_launches, gpu_stats.direct_launches);
}

TEST(GpuSimCostModel, OneLaunchPerBatchClusterInteraction) {
  const TreecodeParams params = small_params();
  const Plan plan = make_plan(uniform_cube(3000, 4), params);
  gpusim::CostModel gpu{GpuOptions{}};
  RunStats first, repeat;
  (void)evaluate(&gpu, plan, first);
  (void)evaluate(&gpu, plan, repeat);
  const DualInteractionLists& lists = plan.targets.lists[0];
  EXPECT_EQ(repeat.gpu_launches, lists.total_pc + lists.total_direct);
  // Everything stays resident: a repeat moves only the potentials.
  EXPECT_EQ(repeat.bytes_to_device, 0u);
  EXPECT_EQ(repeat.bytes_to_host,
            plan.targets.particles.size() * sizeof(double));
  EXPECT_EQ(repeat.modeled.precompute, 0.0);
}

TEST(GpuSimCostModel, YukawaCostsMoreThanCoulombInModel) {
  // Needs paper-sized batches (N_B = N_L = 2000): with tiny batches every
  // launch sits on the min-kernel-time floor and the per-eval weight is
  // invisible — the same effect that makes 2000 the sweet spot in §3.2.
  // 15000 particles with N_L = 2000 give eight ~1875-particle leaves (one
  // more 8-way split would overshoot), so every launch clears the floor.
  TreecodeParams params = small_params();
  params.degree = 8;
  params.max_leaf = 2000;
  params.max_batch = 2000;
  const Cloud c = uniform_cube(15000, 6);
  const auto modeled_compute = [&](const KernelSpec& kernel) {
    RunStats stats;
    (void)compute_potential(c, c, kernel, params, Backend::kGpuSim, &stats);
    return stats.modeled.compute;
  };
  const double t_coulomb = modeled_compute(KernelSpec::coulomb());
  const double t_yukawa = modeled_compute(KernelSpec::yukawa(0.5));
  // Paper: Yukawa ~1.5x slower on the GPU.
  EXPECT_GT(t_yukawa, 1.2 * t_coulomb);
  EXPECT_LT(t_yukawa, 1.8 * t_coulomb);
}

TEST(GpuSimCostModel, EvalWeightTable) {
  using gpusim::kernel_eval_weight;
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::coulomb(), true), 1.0);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::coulomb(), false), 1.0);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::yukawa(0.5), true), 1.5);
  EXPECT_DOUBLE_EQ(kernel_eval_weight(KernelSpec::yukawa(0.5), false), 1.8);
}

// ---- Pinned cost model ---------------------------------------------------

/// Modeled device output of one evaluation: exact launch and byte counts,
/// modeled phase seconds.
struct ModelSnapshot {
  std::size_t launches = 0;
  std::size_t bytes_to_device = 0;
  std::size_t bytes_to_host = 0;
  double setup = 0.0;
  double precompute = 0.0;
  double compute = 0.0;
};

ModelSnapshot snapshot(const RunStats& s) {
  return {s.gpu_launches,  s.bytes_to_device,     s.bytes_to_host,
          s.modeled.setup, s.modeled.precompute, s.modeled.compute};
}

/// Titan V at a thousandth of its throughput: every launch then runs well
/// above the min-kernel-time floor, so each launch's evals and blocks show
/// in the modeled seconds.
gpusim::DeviceSpec slow_device() {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::titan_v();
  spec.evals_per_sec = 1e8;
  return spec;
}

SolverConfig gpu_config(const TreecodeParams& params,
                        const KernelSpec& kernel) {
  SolverConfig config;
  config.kernel = kernel;
  config.params = params;
  config.backend = Backend::kGpuSim;
  config.gpu.device = slow_device();
  return config;
}

ModelSnapshot first_evaluation(const TreecodeParams& params,
                               const KernelSpec& kernel, const Cloud& c) {
  Solver solver(gpu_config(params, kernel));
  solver.set_sources(c);
  RunStats stats;
  (void)solver.evaluate(c, &stats);
  return snapshot(stats);
}

/// The pinned configurations, in table order: batched, dual (kMixed,
/// symmetric self mode), periodic (one image shell), the evaluation after
/// one slack-fattened update_positions, and each rank of a 2-rank
/// DistSolver (those rows pin bytes and seconds only).
std::vector<ModelSnapshot> pinned_model_runs() {
  std::vector<ModelSnapshot> out;
  const Cloud c = uniform_cube(3000, 7);

  out.push_back(first_evaluation(small_params(), KernelSpec::coulomb(), c));

  TreecodeParams dual = small_params();
  dual.traversal = TraversalMode::kDual;
  dual.precision = PrecisionPolicy::kMixed;
  out.push_back(first_evaluation(dual, KernelSpec::coulomb(), c));

  TreecodeParams periodic = small_params();
  periodic.boundary = BoundaryConditions::kPeriodic;
  periodic.domain = Box3::cube(0.0, 1.0);
  periodic.image_shells = 1;
  out.push_back(first_evaluation(periodic, KernelSpec::yukawa(0.5),
                                 uniform_cube(3000, 8, 0.0, 1.0)));

  TreecodeParams slack = small_params();
  slack.position_slack = 0.3;
  Solver solver(gpu_config(slack, KernelSpec::coulomb()));
  solver.set_sources(c);
  (void)solver.evaluate(c);
  Cloud moved = c;
  for (std::size_t i = 0; i < moved.size(); i += 50) moved.x[i] += 1e-4;
  solver.update_positions(moved);
  RunStats stats;
  (void)solver.evaluate(moved, &stats);
  EXPECT_TRUE(stats.incremental_update);
  out.push_back(snapshot(stats));

  dist::DistParams dp;
  dp.treecode = small_params();
  dp.backend = Backend::kGpuSim;
  dp.device = slow_device();
  dist::DistStats res;
  dist::compute_potential_distributed(c, KernelSpec::coulomb(), dp, 2, &res);
  for (const dist::RankStats& st : res.per_rank) {
    out.push_back({0, st.bytes_to_device, st.bytes_to_host, st.modeled.setup,
                   st.modeled.precompute, st.modeled.compute});
  }
  return out;
}

TEST(GpuSimCostModel, PinnedModeledOutput) {
  // Pinned launches, transfers, and modeled seconds: a mismatch is a change
  // of the modeled device and must be deliberate.
  const std::vector<ModelSnapshot> expected = {
      {4018, 304656, 150144, 0.00078790000000000002, 0.020416399999999946,
       0.29906119999999914},
      {2169, 341448, 150144, 0.00079096600000000004, 0.020767999999999939,
       0.16107335999999861},
      {20284, 305304, 150144, 0.000787954, 0.020416399999999942,
       5.0428915999992299},
      {4186, 81120, 101760, 1.5239999999999996e-05, 0.017480000000000107,
       0.30720200000001585},
      {0, 270528, 75936, 0.00062771759999999995, 0.010209200000000007,
       0.14953360000000007},
      {0, 270528, 75936, 0.00062771759999999995, 0.010209200000000005,
       0.14953359999999929},
  };
  const std::vector<ModelSnapshot> actual = pinned_model_runs();
  ASSERT_EQ(actual.size(), expected.size());
  const auto near = [](double a, double e) {
    return std::fabs(a - e) <= 1e-12 * std::fabs(e);
  };
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ModelSnapshot& a = actual[i];
    const ModelSnapshot& e = expected[i];
    EXPECT_EQ(a.launches, e.launches) << "row " << i;
    EXPECT_EQ(a.bytes_to_device, e.bytes_to_device) << "row " << i;
    EXPECT_EQ(a.bytes_to_host, e.bytes_to_host) << "row " << i;
    EXPECT_PRED2(near, a.setup, e.setup) << "row " << i;
    EXPECT_PRED2(near, a.precompute, e.precompute) << "row " << i;
    EXPECT_PRED2(near, a.compute, e.compute) << "row " << i;
  }
}

}  // namespace
}  // namespace bltc
