#include <gtest/gtest.h>

#include "baselines/policies.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"
#include "pooch/planner.hpp"

namespace pooch::planner {
namespace {

using graph::Graph;
using sim::Classification;
using sim::ValueClass;

struct Rig {
  Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;
  std::unique_ptr<sim::Runtime> rt;

  Rig(Graph graph, std::size_t cap_mib, double link_gbps)
      : g(std::move(graph)), tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = link_gbps;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
    rt = std::make_unique<sim::Runtime>(g, tape, machine, *tm);
  }

  double run_time(const Classification& c, sim::RunOptions ro = {}) const {
    const auto r = rt->run(c, ro);
    EXPECT_TRUE(r.ok) << r.failure;
    return r.iteration_time;
  }
};

// An out-of-core configuration of the paper's example chain: keep-all
// needs ~112 MiB, the device has 96 (all swap-in policies feasible).
Rig out_of_core_rig(double link_gbps = 3.0) {
  return Rig(models::paper_example(16, 56, 64), 96, link_gbps);
}

TEST(Planner, PlanIsFeasibleAndBeatsSwapAll) {
  Rig rig = out_of_core_rig();
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  // keep-all must not fit in this rig (otherwise the test is vacuous).
  EXPECT_FALSE(
      rig.rt->run(Classification(rig.g, ValueClass::kKeep)).ok);
  const double swap_all =
      rig.run_time(Classification(rig.g, ValueClass::kSwap),
                   baselines::swap_all_scheduled_options());
  const double pooch = rig.run_time(plan.classes);
  EXPECT_LE(pooch, swap_all * 1.0001);
  EXPECT_GT(plan.simulations, 1);
  EXPECT_FALSE(plan.summary(rig.g).empty());
}

TEST(Planner, PredictionMatchesExecutionOnSameModel) {
  // Classifier and executor share the engine and the time model here, so
  // the prediction must match the execution exactly.
  Rig rig = out_of_core_rig();
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.predicted_time, rig.run_time(plan.classes));
}

TEST(Planner, AblationOrderingHolds) {
  // The Figure 15 staircase: swap-all(w/o sched) >= swap-all >= swap-opt
  // >= PoocH in iteration time.
  Rig rig = out_of_core_rig();
  const Classification all_swap(rig.g, ValueClass::kSwap);
  const double naive =
      rig.run_time(all_swap, baselines::swap_all_naive_options());
  const double scheduled =
      rig.run_time(all_swap, baselines::swap_all_scheduled_options());
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto swap_opt = planner.plan_keep_swap_only();
  const auto pooch = planner.plan();
  ASSERT_TRUE(swap_opt.feasible && pooch.feasible);
  const double t_opt = rig.run_time(swap_opt.classes);
  const double t_pooch = rig.run_time(pooch.classes);
  EXPECT_LE(scheduled, naive * 1.0001);
  EXPECT_LE(t_opt, scheduled * 1.0001);
  EXPECT_LE(t_pooch, t_opt * 1.0001);
}

TEST(Planner, CountsPartitionClassifiableValues) {
  Rig rig = out_of_core_rig();
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto plan = planner.plan();
  const auto values = sim::classifiable_values(rig.g, rig.tape);
  EXPECT_EQ(plan.counts[0] + plan.counts[1] + plan.counts[2],
            static_cast<int>(values.size()));
}

TEST(Planner, SlowLinkPrefersRecompute) {
  // Table 3's mechanism: the PCIe-like machine should classify more maps
  // as recompute than the NVLink-like machine. Memory must be tight
  // enough (72 MiB vs the ~112 MiB keep-all peak) that the keep greedy
  // cannot absorb all the exposed swaps.
  Rig slow(models::paper_example(16, 56, 64), 72, /*link_gbps=*/1.0);
  Rig fast(models::paper_example(16, 56, 64), 72, /*link_gbps=*/50.0);
  PoochPlanner p_slow(slow.g, slow.tape, slow.machine, *slow.tm);
  PoochPlanner p_fast(fast.g, fast.tape, fast.machine, *fast.tm);
  const auto plan_slow = p_slow.plan();
  const auto plan_fast = p_fast.plan();
  ASSERT_TRUE(plan_slow.feasible && plan_fast.feasible);
  EXPECT_GE(plan_slow.counts[2], plan_fast.counts[2]);
  // On the very fast link nothing should need recomputation.
  EXPECT_LE(plan_fast.counts[2], 1);
  // On the slow link the bandwidth-bound tail layers are worth
  // recomputing.
  EXPECT_GE(plan_slow.counts[2], 1);
}

TEST(Planner, InCoreFeasibleCaseKeepsAlmostEverything) {
  // Plenty of memory: the planner should end close to in-core speed.
  Rig rig(models::paper_example(16, 56, 64), 1024, 3.0);
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  const double incore =
      rig.run_time(Classification(rig.g, ValueClass::kKeep));
  EXPECT_LE(rig.run_time(plan.classes), incore * 1.10);
}

TEST(Planner, BeamFallbackStaysFeasible) {
  Rig rig = out_of_core_rig();
  PlannerOptions opts;
  opts.bruteforce_cap = 1;  // force the beam path
  opts.beam_width = 4;
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);
  if (plan.li.size() > 1) {
    EXPECT_TRUE(plan.used_beam_fallback);
  }
  rig.run_time(plan.classes);  // asserts ok inside

  // The exhaustive plan is at least as good as the narrow beam's.
  PoochPlanner exact(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto exact_plan = exact.plan();
  EXPECT_LE(exact_plan.predicted_time, plan.predicted_time * 1.0001);
}

TEST(Planner, SwapAllInfeasibleReported) {
  // A device too small even for swap-all: the planner must say so.
  Rig rig(models::paper_example(16, 56, 64), 8, 3.0);
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto plan = planner.plan();
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, Step2OnlyConvertsWhenItHelps) {
  Rig rig = out_of_core_rig(/*link_gbps=*/50.0);
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto opt = planner.plan_keep_swap_only();
  const auto full = planner.plan();
  ASSERT_TRUE(opt.feasible && full.feasible);
  // Step 2 must never make the predicted time worse.
  EXPECT_LE(full.predicted_time, opt.predicted_time * 1.0001);
}

TEST(Pipeline, EndToEndMatchesDirectPlanning) {
  Rig rig = out_of_core_rig();
  PipelineOptions opts;
  opts.profile.noise_sigma = 0.0;  // exact profile == direct planning
  const auto out =
      run_pooch(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  ASSERT_TRUE(out.ok);
  PoochPlanner planner(rig.g, rig.tape, rig.machine, *rig.tm);
  const auto direct = planner.plan();
  EXPECT_DOUBLE_EQ(out.iteration_time, rig.run_time(direct.classes));
  EXPECT_GT(out.throughput(16), 0.0);
}

TEST(Pipeline, NoisyProfileStillProducesFeasiblePlan) {
  Rig rig = out_of_core_rig();
  PipelineOptions opts;
  opts.profile.noise_sigma = 0.08;
  opts.profile.iterations = 5;
  const auto out = run_pooch(rig.g, rig.tape, rig.machine, *rig.tm, opts);
  ASSERT_TRUE(out.ok) << out.execution.failure;
  // Execution on ground truth should be within a reasonable band of the
  // noisy-profile prediction.
  EXPECT_NEAR(out.iteration_time, out.plan.predicted_time,
              0.25 * out.plan.predicted_time);
}

TEST(Pipeline, PlannedClassificationIsNumericallyTransparent) {
  // The planner's output, executed with real data, matches in-core
  // numbers bit for bit.
  Rig rig(models::small_cnn(2, 16), 4096, 1.0);
  // Shrink capacity to force a real out-of-core plan.
  const auto keep_run =
      rig.rt->run(Classification(rig.g, ValueClass::kKeep));
  Rig tight(models::small_cnn(2, 16),
            keep_run.peak_bytes * 3 / 4 / kMiB + 1, 1.0);
  PoochPlanner planner(tight.g, tight.tape, tight.machine, *tight.tm);
  const auto plan = planner.plan();
  ASSERT_TRUE(plan.feasible);

  sim::DataBackend incore_backend(rig.g, 99);
  sim::train_incore(rig.g, rig.tape, incore_backend, 0, 1);

  sim::DataBackend planned_backend(tight.g, 99);
  sim::RunOptions ro2;
  ro2.data = &planned_backend;
  ASSERT_TRUE(tight.rt->run(plan.classes, ro2).ok);

  EXPECT_EQ(incore_backend.loss(), planned_backend.loss());
  EXPECT_EQ(incore_backend.param_norm(), planned_backend.param_norm());
}

TEST(Pipeline, CrossEnvironmentClassificationDegrades) {
  // §5.2: running with the classification optimized for the other
  // machine is never better than the native plan.
  Rig pcie = out_of_core_rig(/*link_gbps=*/1.0);
  Rig nvlink = out_of_core_rig(/*link_gbps=*/50.0);
  PoochPlanner p_pcie(pcie.g, pcie.tape, pcie.machine, *pcie.tm);
  PoochPlanner p_nv(nvlink.g, nvlink.tape, nvlink.machine, *nvlink.tm);
  const auto plan_pcie = p_pcie.plan();
  const auto plan_nv = p_nv.plan();
  ASSERT_TRUE(plan_pcie.feasible && plan_nv.feasible);
  const auto native = pcie.rt->run(plan_pcie.classes);
  const auto foreign = pcie.rt->run(plan_nv.classes);
  ASSERT_TRUE(native.ok);
  if (foreign.ok) {
    EXPECT_LE(native.iteration_time, foreign.iteration_time * 1.0001);
  }
  // else: the foreign classification OOMed — the paper's batch-640 case.
}

}  // namespace
}  // namespace pooch::planner
