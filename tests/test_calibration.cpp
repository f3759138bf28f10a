// The measured-calibration loop (docs/PROFILING.md):
//   - MeasuredProfile's estimator is a median with outlier rejection;
//   - record_run maps executor spans onto the right op sample sets;
//   - CalibratedTimeModel learns per-category fallback scales, blends
//     observed ops, and stays concurrent_safe (the parallel planner must
//     choose the identical plan at any thread count under it);
//   - run_pooch_measured calibrates below the roofline's error and stays
//     bit-identical to serial in-core training — including when a stale
//     (drift-injected) profile forces the drift detector to re-plan.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "cost/calibrated_time_model.hpp"
#include "cost/cost_model.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "kernels/kernel_context.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"
#include "profile/measured_profile.hpp"
#include "sim/runtime.hpp"
#include "testing_util.hpp"

namespace pooch {
namespace {

using profile::MeasuredProfile;

TEST(MeasuredProfile, MedianOfSamples) {
  MeasuredProfile p(2, 3);
  p.set_outlier_factor(0.0);  // disable rejection: pure median
  p.record_forward(0, 3.0);
  p.record_forward(0, 1.0);
  p.record_forward(0, 2.0);
  EXPECT_DOUBLE_EQ(p.forward_seconds(0), 2.0);
  EXPECT_TRUE(p.has_forward(0));
  EXPECT_FALSE(p.has_forward(1));
  EXPECT_DOUBLE_EQ(p.forward_seconds(1), 0.0);  // unobserved -> 0
}

TEST(MeasuredProfile, OutlierRejection) {
  MeasuredProfile p(1, 1);
  p.set_outlier_factor(3.0);
  // Median of {1.0, 1.1, 1.2, 100.0} is 1.15; 100.0 falls outside
  // [1.15/3, 1.15*3] and must not drag the estimate.
  p.record_backward(0, 1.0);
  p.record_backward(0, 1.1);
  p.record_backward(0, 1.2);
  p.record_backward(0, 100.0);
  const double est = p.backward_seconds(0);
  EXPECT_GE(est, 1.0);
  EXPECT_LE(est, 1.2);
  EXPECT_GE(p.outliers_rejected(), 1);

  // factor <= 1 disables rejection: the high-side median returns.
  p.set_outlier_factor(1.0);
  EXPECT_DOUBLE_EQ(p.backward_seconds(0), 1.2);
}

TEST(MeasuredProfile, RecordRunMapsOpTypes) {
  // Hand-built stream + spans: each op type must land in its own sample
  // set (recompute counts as a forward sample; bookkeeping ops don't).
  exec::OpStream stream;
  auto push = [&](exec::OpType t, graph::NodeId n, graph::ValueId v) {
    exec::StreamOp op;
    op.type = t;
    op.node = n;
    op.value = v;
    stream.ops.push_back(op);
  };
  push(exec::OpType::kBeginIteration, graph::kNoNode, -1);
  push(exec::OpType::kForward, 0, -1);
  push(exec::OpType::kSwapOut, graph::kNoNode, 1);
  push(exec::OpType::kSwapIn, graph::kNoNode, 1);
  push(exec::OpType::kRecompute, 0, -1);
  push(exec::OpType::kBackward, 0, -1);
  push(exec::OpType::kUpdate, graph::kNoNode, -1);
  push(exec::OpType::kFreeValue, graph::kNoNode, 1);

  exec::AsyncResult res;
  res.wall_seconds = 8.0;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    exec::OpSpan s;
    s.start = static_cast<double>(i);
    s.end = s.start + 0.5;  // every op "took" 0.5s
    res.spans.push_back(s);
  }

  MeasuredProfile p(1, 2);
  p.record_run(stream, res);
  EXPECT_TRUE(p.has_forward(0));
  EXPECT_TRUE(p.has_backward(0));
  EXPECT_TRUE(p.has_d2h(1));
  EXPECT_TRUE(p.has_h2d(1));
  EXPECT_FALSE(p.has_d2h(0));  // kFreeValue is bookkeeping, not a sample
  EXPECT_DOUBLE_EQ(p.backward_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(p.update_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(p.iteration_seconds(), 8.0);
  EXPECT_EQ(p.iterations_recorded(), 1);
  // forward + recompute = two forward samples for node 0.
  EXPECT_EQ(p.total_samples(), 7);  // 2 fwd + bwd + d2h + h2d + upd + iter
  EXPECT_DOUBLE_EQ(p.compute_coverage(), 1.0);
}

/// Every record_* must refuse a duration that is not a finite,
/// non-negative number of seconds, naming the op; 0 is a valid duration.
void expect_rejects_bad_seconds(
    const std::function<void(MeasuredProfile&, double)>& record,
    const std::string& op_name) {
  MeasuredProfile p(3, 3);
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1e-9}) {
    try {
      record(p, bad);
      ADD_FAILURE() << op_name << " accepted " << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(op_name), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(p.total_samples(), 0);
  record(p, 0.0);
  EXPECT_EQ(p.total_samples(), 1);
}

TEST(MeasuredProfile, RecordForwardRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_forward(2, s); },
      "forward of node 2");
}
TEST(MeasuredProfile, RecordBackwardRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_backward(1, s); },
      "backward of node 1");
}
TEST(MeasuredProfile, RecordD2hRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_d2h(2, s); },
      "d2h of value 2");
}
TEST(MeasuredProfile, RecordH2dRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_h2d(0, s); },
      "h2d of value 0");
}
TEST(MeasuredProfile, RecordUpdateRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_update(s); }, "update");
}
TEST(MeasuredProfile, RecordIterationSecondsRejectsBadSeconds) {
  expect_rejects_bad_seconds(
      [](MeasuredProfile& p, double s) { p.record_iteration_seconds(s); },
      "iteration");
}

/// Tiny model + machine rig for the calibrated-model tests.
struct CalRig {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  CalRig()
      : g(models::small_cnn(4, 16)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()) {
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

TEST(CalibratedTimeModel, ServesMeasurementsAndScaledFallback) {
  CalRig rig;
  MeasuredProfile p(rig.g.num_nodes(), rig.g.num_values());
  // Observe every node's forward except node 0, at exactly 2x roofline:
  // the learned forward scale must be 2, and the unobserved node must be
  // served fallback * 2, not raw fallback.
  for (graph::NodeId n = 1; n < rig.g.num_nodes(); ++n) {
    p.record_forward(n, 2.0 * rig.tm->forward_time(n));
  }
  cost::CalibratedTimeModel cal(rig.g, p, *rig.tm);
  EXPECT_NEAR(cal.forward_scale(), 2.0, 1e-9);
  EXPECT_NEAR(cal.forward_time(0), 2.0 * rig.tm->forward_time(0), 1e-12);
  for (graph::NodeId n = 1; n < rig.g.num_nodes(); ++n) {
    EXPECT_NEAR(cal.forward_time(n), 2.0 * rig.tm->forward_time(n), 1e-12);
  }
  // No backward observations: scale stays 1, raw fallback served.
  EXPECT_NEAR(cal.backward_scale(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(cal.backward_time(0), rig.tm->backward_time(0));
  EXPECT_GT(cal.measured_ops(), 0);
  EXPECT_GT(cal.fallback_ops(), 0);
  EXPECT_TRUE(cal.concurrent_safe());
}

TEST(CalibratedTimeModel, BlendInterpolatesObservedOps) {
  CalRig rig;
  MeasuredProfile p(rig.g.num_nodes(), rig.g.num_values());
  // Two observed ops at *different* ratios (4x and 2x roofline), so the
  // learned scale sits strictly between them and measurement vs scaled
  // fallback genuinely differ per op — otherwise blending is vacuous.
  const double f0 = rig.tm->forward_time(0);
  const double f1 = rig.tm->forward_time(1);
  p.record_forward(0, 4.0 * f0);
  p.record_forward(1, 2.0 * f1);
  const double scale = (4.0 * f0 + 2.0 * f1) / (f0 + f1);
  const double measured0 = 4.0 * f0;
  const double scaled_fallback0 = scale * f0;
  ASSERT_GT(std::fabs(measured0 - scaled_fallback0), 1e-15);

  for (double blend : {1.0, 0.5, 0.0}) {
    cost::CalibrationOptions co;
    co.blend = blend;
    cost::CalibratedTimeModel cal(rig.g, p, *rig.tm, co);
    EXPECT_NEAR(cal.forward_scale(), scale, 1e-9);
    const double want = blend * measured0 + (1.0 - blend) * scaled_fallback0;
    EXPECT_NEAR(cal.forward_time(0), want, 1e-12) << "blend=" << blend;
  }

  // inject_drift multiplies every served time.
  cost::CalibrationOptions co;
  co.inject_drift = 3.0;
  cost::CalibratedTimeModel cal(rig.g, p, *rig.tm, co);
  EXPECT_NEAR(cal.forward_time(0), 3.0 * measured0, 1e-12);
}

/// Fuzz: under a calibrated model built from real measured runs of a
/// random graph, the parallel planner must stay enabled
/// (concurrent_safe) and choose the bit-identical plan at 1, 2 and 8
/// threads.
TEST(CalibrationFuzz, PlannerDeterministicUnderCalibratedModel) {
  int exercised = 0;
  for (const std::uint64_t seed : {7ull, 21ull, 33ull}) {
    graph::Graph g = testing::random_graph(seed);
    const auto tape = graph::build_backward_tape(g);
    cost::MachineConfig machine = cost::x86_pcie();
    sim::CostTimeModel probe_tm(g, machine);
    sim::Runtime probe_rt(g, tape, machine, probe_tm);
    const auto keep =
        probe_rt.run(sim::Classification(g, sim::ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);
    // Tighten the device below the keep-all peak so the plan swaps; the
    // random graphs' conv workspaces are huge next to their activations,
    // so loosen in steps until the swap-all schedule fits.
    exec::OpStream stream;
    std::unique_ptr<sim::CostTimeModel> tm;
    std::unique_ptr<sim::Runtime> rt;
    bool feasible = false;
    for (int pct = 70; pct <= 150 && !feasible; pct += 10) {
      machine.gpu_capacity_bytes =
          keep.persistent_bytes +
          (keep.peak_bytes - keep.persistent_bytes) *
              static_cast<std::size_t>(pct) / 100;
      machine.gpu_reserved_bytes = 0;
      tm = std::make_unique<sim::CostTimeModel>(g, machine);
      rt = std::make_unique<sim::Runtime>(g, tape, machine, *tm);
      try {
        stream = planner::record_op_stream(
            *rt, sim::Classification(g, sim::ValueClass::kSwap));
        feasible = true;
      } catch (const Error&) {
      }
    }
    if (!feasible) continue;  // no feasible swap-all schedule; skip seed
    sim::DataBackend data(g, /*seed=*/seed);
    profile::MeasureOptions mo;
    mo.iterations = 2;
    mo.warmup_iterations = 0;
    const MeasuredProfile p =
        profile::measure_op_stream(g, stream, data, mo);
    const cost::CalibratedTimeModel cal(g, p, *tm);
    ASSERT_TRUE(cal.concurrent_safe());
    ++exercised;

    auto plan_with = [&](int threads) {
      planner::PlannerOptions po;
      po.threads = threads;
      planner::PoochPlanner planner(g, tape, machine, cal, po);
      return planner.plan();
    };
    const auto ref = plan_with(1);
    for (int threads : {2, 8}) {
      const auto got = plan_with(threads);
      EXPECT_EQ(got.feasible, ref.feasible) << "seed " << seed;
      EXPECT_EQ(got.classes.serialize(), ref.classes.serialize())
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(got.predicted_time, ref.predicted_time)
          << "seed " << seed << " threads " << threads;
    }
  }
  // The skip path (no feasible swap-all schedule) must not quietly turn
  // this test into a no-op.
  EXPECT_GE(exercised, 1);
}

/// OOC config for the pipeline tests: small CNN with the device clamped
/// so the planner must swap (same shape the calibration_smoke ctest uses
/// through the CLI).
struct PipelineRig {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  PipelineRig()
      : g(models::small_cnn(8, 16)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()) {
    machine.gpu_capacity_bytes =
        static_cast<std::size_t>(0.0007 * kGiB);
    machine.gpu_reserved_bytes = 0;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

TEST(MeasuredPipeline, CalibratesBelowRooflineAndStaysBitIdentical) {
  PipelineRig rig;
  kernels::KernelContext kctx(2);
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 3;
  mo.kernel_ctx = &kctx;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.bit_identical);
  EXPECT_GT(out.observed_seconds, 0.0);
  EXPECT_GT(out.iterations_executed, 0);
  // The roofline prices a simulated V100; the kernels ran on this CPU.
  // Calibration must close most of that gap.
  EXPECT_LT(out.calibrated_error, out.roofline_error);
  EXPECT_GE(out.drift_checks, 1);
  EXPECT_GT(out.measured.compute_coverage(), 0.9);
}

TEST(MeasuredPipeline, InjectedDriftForcesReplanBitIdentically) {
  PipelineRig rig;
  kernels::KernelContext kctx(2);
  planner::MeasuredPipelineOptions mo;
  mo.measure.iterations = 2;
  mo.calibrate.inject_drift = 4.0;  // stale profile: 4x the real times
  mo.replan_threshold = 0.25;
  mo.collect_session_timeline = true;
  const auto out = planner::run_pooch_measured(rig.g, rig.tape, rig.machine,
                                               *rig.tm, mo);
  ASSERT_TRUE(out.failure.empty()) << out.failure;
  // The drift detector must notice the 4x miscalibration and re-plan,
  // and every executed iteration must still match serial in-core
  // training bit for bit.
  EXPECT_GE(out.replans, 1);
  EXPECT_TRUE(out.bit_identical);
  // Re-plan markers are stamped into the session for trace export.
  EXPECT_EQ(out.trace_markers.size(), static_cast<std::size_t>(out.replans));
  EXPECT_FALSE(out.session_timeline.ops.empty());
  for (const auto& [seconds, label] : out.trace_markers) {
    EXPECT_GE(seconds, 0.0);
    EXPECT_NE(label.find("re-plan"), std::string::npos);
  }
}

}  // namespace
}  // namespace pooch
