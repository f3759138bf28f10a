// End-to-end PoocH pipeline (paper §4.1.2):
//   1. Profile a few swap-all training iterations.
//   2. Classify every feature map (keep / swap / recompute) by searching
//      with the timeline simulator over the profiled times.
//   3. Execute training under the chosen classification.
//
// The pipeline binds the pieces the way the Chainer extension does, and
// is what the examples and benches call.
#pragma once

#include <utility>

#include "cost/calibrated_time_model.hpp"
#include "exec/op_stream.hpp"
#include "pooch/planner.hpp"
#include "profile/measured_profile.hpp"
#include "profile/profiler.hpp"

namespace pooch::kernels {
class KernelContext;
}

namespace pooch::planner {

struct PipelineOptions {
  profile::ProfileOptions profile;
  PlannerOptions planner;
  /// Measure this many executed iterations after planning (averaged).
  int measured_iterations = 1;
};

struct PipelineResult {
  /// The simulated profile the plan was made from (empty when even
  /// swap-all could not run).
  profile::MeasuredProfile profile{0, 0};
  PlannerResult plan;
  /// Execution of the planned classification on the ground-truth model.
  sim::RunResult execution;
  double iteration_time = 0.0;  // averaged over measured iterations
  bool ok = false;

  double throughput(std::int64_t batch) const {
    return ok && iteration_time > 0.0
               ? static_cast<double>(batch) / iteration_time
               : 0.0;
  }
};

/// Run profile -> classify -> execute on one (graph, machine) pair.
/// `ground_truth` is the hardware model; profiling observes it with
/// noise, the classifier plans on the profile (served by
/// cost::CalibratedTimeModel), execution runs against the ground truth
/// again.
PipelineResult run_pooch(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const PipelineOptions& options = {});

/// Execute a planned classification: time the schedule as planned (pool
/// clamped to the planning capacity) and the dynamic memory-aware one on
/// the full device, and return the faster that completes; when both OOM
/// (timing drift), fall back to on-demand swap-ins. With options.data
/// attached, exactly one training iteration runs on it — the winner's op
/// stream — and only if some schedule completed.
sim::RunResult execute_plan(const sim::Runtime& runtime,
                            const PlannerResult& plan,
                            sim::RunOptions options = {});

/// Simulate `classes` on `runtime` (no data backend) and return the
/// exported replayable op stream for exec::AsyncExecutor. Throws
/// pooch::Error when the simulation cannot complete under `options`
/// (simulated OOM) — an infeasible classification has no schedule to
/// replay.
exec::OpStream record_op_stream(const sim::Runtime& runtime,
                                const sim::Classification& classes,
                                sim::RunOptions options = {});

// ---------------------------------------------------------------------
// Measured-profile calibration loop (docs/PROFILING.md).
//
// run_pooch(...) plans from *simulated* profiling of the analytic time
// model. run_pooch_measured(...) closes the paper's loop against real
// hardware: it executes the plan through exec::AsyncExecutor on a real
// DataBackend, records wall-clock per-op times into a
// profile::MeasuredProfile, rebuilds the planner's time source as a
// cost::CalibratedTimeModel, and — when the calibrated simulation's
// predicted iteration time drifts from the observed wall time by more
// than `replan_threshold` — re-runs the planner on the calibrated times
// and continues training under the new plan. Every executed iteration
// remains bit-identical to serial in-core training.
// ---------------------------------------------------------------------

struct MeasuredPipelineOptions {
  /// Options of the initial (simulated-profile) planning pass.
  PipelineOptions pipeline;
  /// Wall-clock measurement: warm-up, median-of-k, outlier rejection.
  profile::MeasureOptions measure;
  /// Blend / drift-injection knobs of the calibrated model.
  cost::CalibrationOptions calibrate;
  /// Re-plan when |predicted - observed| / observed exceeds this.
  double replan_threshold = 0.25;
  /// Upper bound on drift-triggered re-planning rounds.
  int max_replans = 2;
  /// Extra measured iterations executed under the final plan; the
  /// reported calibrated error is out-of-sample, scored on these.
  int validation_iterations = 2;
  /// Seed of the synthetic parameters/batch (matches the CLI's backend).
  std::uint64_t data_seed = 0x5eed;
  float learning_rate = 0.01f;
  /// Kernel execution context for the real runs (null = serial).
  kernels::KernelContext* kernel_ctx = nullptr;
  /// Collect a whole-session timeline (all measured iterations
  /// concatenated on one clock, re-plan markers included) for Chrome
  /// trace export. Off by default — it retains every run's spans.
  bool collect_session_timeline = false;
  /// Metrics sink (calibration.* and profile.drift.* metrics).
  obs::StatsRegistry* stats = nullptr;
};

struct MeasuredPipelineResult {
  bool ok = false;
  std::string failure;

  /// The initial, roofline-planned pipeline (phase 1-3 of run_pooch);
  /// initial.profile is the simulated profile it planned from.
  PipelineResult initial;
  /// Wall-clock profile of the *last* measurement round — the same
  /// format as initial.profile, measured instead of simulated.
  profile::MeasuredProfile measured{0, 0};
  /// Plan actually executing at the end (== initial.plan when no drift).
  PlannerResult final_plan;

  // Planned-vs-actual iteration time, both scored against the observed
  // median wall time of the final validation iterations.
  double roofline_predicted = 0.0;    // initial plan, analytic model
  double calibrated_predicted = 0.0;  // final plan, calibrated model
  double observed_seconds = 0.0;
  double roofline_error = 0.0;    // |roofline_predicted - observed|/observed
  double calibrated_error = 0.0;  // |calibrated_predicted - observed|/observed

  // Drift detector outcome.
  int drift_checks = 0;
  int replans = 0;
  double last_drift_error = 0.0;

  // Numeric verification: loss after all measured iterations, compared
  // bit-for-bit against a serial in-core run of the same trajectory.
  int iterations_executed = 0;
  float loss = 0.0f;
  bool bit_identical = false;

  /// Whole measured session on one clock (collect_session_timeline).
  sim::Timeline session_timeline;
  /// (seconds-into-session, label) re-plan instants for trace export.
  std::vector<std::pair<double, std::string>> trace_markers;
};

/// Run the measured calibration loop end-to-end:
/// plan (simulated profile) -> execute & measure -> calibrate -> drift
/// check -> re-plan on drift -> validate -> verify bit-identity.
/// `ground_truth` is both the initial planning model and the calibrated
/// model's fallback for unobserved ops.
MeasuredPipelineResult run_pooch_measured(
    const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
    const cost::MachineConfig& machine, const sim::TimeModel& ground_truth,
    const MeasuredPipelineOptions& options = {});

}  // namespace pooch::planner
