#include "pooch/pipeline.hpp"

#include <cmath>
#include <cstring>
#include <future>
#include <memory>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/stats.hpp"

namespace pooch::planner {

PipelineResult run_pooch(const graph::Graph& graph,
                         const std::vector<graph::BwdStep>& tape,
                         const cost::MachineConfig& machine,
                         const sim::TimeModel& ground_truth,
                         const PipelineOptions& options) {
  PipelineResult out;

  // Phase 1: profiling (swap-all, a few iterations, noisy observation).
  out.profile =
      profile::run_profiler(graph, tape, machine, ground_truth,
                            options.profile);
  if (out.profile.iterations_recorded() == 0) {
    out.ok = false;
    return out;
  }
  const cost::CalibratedTimeModel profiled(graph, out.profile, ground_truth);

  // Phase 2: classification over the profiled times.
  PoochPlanner planner(graph, tape, machine, profiled, options.planner);
  out.plan = planner.plan();
  if (!out.plan.feasible) {
    out.ok = false;
    return out;
  }

  // Phase 3: execution on the ground-truth hardware.
  sim::Runtime runtime(graph, tape, machine, ground_truth);
  sim::RunOptions ro;
  ro.swapin_policy = options.planner.policy;
  double total = 0.0;
  for (int i = 0; i < options.measured_iterations; ++i) {
    ro.iteration = static_cast<std::uint64_t>(i);
    out.execution = execute_plan(runtime, out.plan, ro);
    if (!out.execution.ok) {
      POOCH_LOG_WARN("planned classification failed at execution: "
                     << out.execution.failure);
      out.ok = false;
      return out;
    }
    total += out.execution.iteration_time;
  }
  out.iteration_time = total / options.measured_iterations;
  out.ok = true;
  return out;
}

sim::RunResult execute_plan(const sim::Runtime& runtime,
                            const PlannerResult& plan,
                            sim::RunOptions options) {
  // Autotune over two schedules (training runs thousands of identical
  // iterations, so timing both once is free):
  //   (a) the §4.3 schedule as planned: memory-aware scheduling with the
  //       device pool clamped to the capacity the plan was validated
  //       against — when profiled times hold, this reproduces the
  //       planning simulation exactly;
  //   (b) dynamic scheduling with the full device.
  // Candidates are timed without numerics; an attached backend then
  // trains one iteration, the winner's op stream.
  sim::DataBackend* const data = options.data;
  exec::OpStream* const export_to = options.export_stream;
  exec::OpStream streams[2];
  auto attempt = [&](exec::OpStream& stream) {
    options.export_stream = data || export_to ? &stream : nullptr;
    return runtime.run(plan.classes, options);
  };
  options.data = nullptr;
  options.swapin_policy = sim::SwapInPolicy::kEagerMemoryAware;
  options.usable_bytes_override = plan.planning_usable_bytes;
  sim::RunResult best = attempt(streams[0]);
  options.usable_bytes_override = 0;
  sim::RunResult dynamic = attempt(streams[1]);
  int winner = 0;
  if (dynamic.ok &&
      (!best.ok || dynamic.iteration_time < best.iteration_time)) {
    best = std::move(dynamic);
    winner = 1;
  }
  if (!best.ok) {
    // Last resort: fetch only when needed.
    POOCH_LOG_WARN("scheduled and dynamic execution both failed; trying "
                   "on-demand swap-ins");
    options.swapin_policy = sim::SwapInPolicy::kOnDemand;
    best = attempt(streams[0]);
    winner = 0;
  }
  if (best.ok && data) data->replay(streams[winner]);
  if (best.ok && export_to) *export_to = std::move(streams[winner]);
  return best;
}

exec::OpStream record_op_stream(const sim::Runtime& runtime,
                                const sim::Classification& classes,
                                sim::RunOptions options) {
  exec::OpStream stream;
  options.data = nullptr;  // pure scheduling pass, no numerics
  options.export_stream = &stream;
  sim::RunResult r = runtime.run(classes, options);
  if (!r.ok) {
    throw Error("record_op_stream: simulation failed: " + r.failure);
  }
  return stream;
}

namespace {

double relative_error(double predicted, double observed) {
  return observed > 0.0 ? std::fabs(predicted - observed) / observed : 0.0;
}

/// Record the plan's replayable schedule with the same fallback chain
/// execute_plan uses: first as planned (memory-aware scheduling, pool
/// clamped to the planning capacity), then dynamically on the full
/// device, finally with on-demand swap-ins. Throws when all three are
/// infeasible under `runtime`'s time model.
exec::OpStream record_plan_stream(const sim::Runtime& runtime,
                                  const PlannerResult& plan,
                                  sim::RunOptions options) {
  options.swapin_policy = sim::SwapInPolicy::kEagerMemoryAware;
  options.usable_bytes_override = plan.planning_usable_bytes;
  try {
    return record_op_stream(runtime, plan.classes, options);
  } catch (const Error&) {
  }
  options.usable_bytes_override = 0;
  try {
    return record_op_stream(runtime, plan.classes, options);
  } catch (const Error&) {
  }
  options.swapin_policy = sim::SwapInPolicy::kOnDemand;
  return record_op_stream(runtime, plan.classes, options);
}

/// Predicted iteration time of `plan` under `runtime`'s time model,
/// mirroring execute_plan's autotuned choice (no data backend attached).
double predict_iteration_time(const sim::Runtime& runtime,
                              const PlannerResult& plan) {
  const sim::RunResult r = execute_plan(runtime, plan, {});
  return r.ok ? r.iteration_time : 0.0;
}

/// Append `runs` to the session timeline, each run shifted onto one
/// monotone session clock. Returns the advanced clock.
double append_session_runs(sim::Timeline& session, double clock,
                           const std::vector<exec::AsyncResult>& runs,
                           std::size_t first) {
  for (std::size_t i = first; i < runs.size(); ++i) {
    const exec::AsyncResult& run = runs[i];
    for (sim::OpRecord op : run.timeline.ops) {
      op.start += clock;
      op.end += clock;
      session.ops.push_back(op);
    }
    session.compute_busy += run.timeline.compute_busy;
    session.compute_stall += run.timeline.compute_stall;
    session.d2h_busy += run.timeline.d2h_busy;
    session.h2d_busy += run.timeline.h2d_busy;
    clock += run.wall_seconds;
  }
  return clock;
}

}  // namespace

MeasuredPipelineResult run_pooch_measured(
    const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
    const cost::MachineConfig& machine, const sim::TimeModel& ground_truth,
    const MeasuredPipelineOptions& options) {
  MeasuredPipelineResult out;
  out.measured =
      profile::MeasuredProfile(graph.num_nodes(), graph.num_values());
  obs::StatsRegistry* stats = options.stats;

  // Phase 1: the standard simulated-profile pipeline chooses the initial
  // plan — the paper's profile -> classify pass, roofline-observed.
  out.initial =
      run_pooch(graph, tape, machine, ground_truth, options.pipeline);
  if (!out.initial.ok) {
    out.failure = out.initial.plan.feasible
                      ? "initial pipeline execution failed"
                      : "initial plan infeasible";
    return out;
  }
  out.final_plan = out.initial.plan;
  out.roofline_predicted = out.initial.plan.predicted_time;

  // Phase 2: execute the plan for real and measure it. The stream is
  // recorded under the model the plan was made with; the backend then
  // runs warm-up + k genuine training iterations through the async
  // executor while MeasuredProfile collects per-op wall times.
  sim::Runtime gt_runtime(graph, tape, machine, ground_truth);
  profile::MeasureOptions mo = options.measure;
  mo.stats = stats;
  // Priorities for the multi-worker compute dispatch: the plan's own
  // time model (replaced by the calibrated model after a re-plan).
  if (!mo.time_model) mo.time_model = &ground_truth;
  std::vector<exec::AsyncResult> session_runs;
  if (options.collect_session_timeline) mo.keep_runs = &session_runs;

  kernels::KernelContext* kctx = options.kernel_ctx;
  sim::DataBackend data(graph, options.data_seed, options.learning_rate,
                        kctx);
  std::uint64_t next_iteration = 0;
  double session_clock = 0.0;
  std::size_t session_consumed = 0;
  std::unique_ptr<cost::CalibratedTimeModel> model;
  std::unique_ptr<sim::Runtime> cal_runtime;
  double predicted = 0.0;
  try {
    exec::OpStream stream =
        record_plan_stream(gt_runtime, out.final_plan, {});
    out.measured = profile::measure_op_stream(graph, stream, data, mo,
                                              next_iteration);
    next_iteration += static_cast<std::uint64_t>(mo.warmup_iterations +
                                                 mo.iterations);
    session_clock = append_session_runs(out.session_timeline, session_clock,
                                        session_runs, session_consumed);
    session_consumed = session_runs.size();

    // Phase 3 + 4: calibrate, check drift, re-plan while it persists.
    // Each round rebuilds the model from the latest measurements (real
    // drift is absorbed; an injected miscalibration persists by design)
    // and re-checks the calibrated prediction against the observation.
    double observed = out.measured.iteration_seconds();
    for (;;) {
      model = std::make_unique<cost::CalibratedTimeModel>(
          graph, out.measured, ground_truth, options.calibrate);
      cal_runtime = std::make_unique<sim::Runtime>(graph, tape, machine,
                                                   *model);
      predicted = predict_iteration_time(*cal_runtime, out.final_plan);
      const double drift = relative_error(predicted, observed);
      ++out.drift_checks;
      out.last_drift_error = drift;
      if (stats) {
        stats->counter("profile.drift.checks").add(1);
        stats->gauge("profile.drift.last.relative_error").set(drift);
        stats->gauge("profile.drift.last.threshold")
            .set(options.replan_threshold);
      }
      if (drift <= options.replan_threshold ||
          out.replans >= options.max_replans) {
        break;
      }

      // Drift: the calibrated simulation disagrees with the hardware.
      // Re-plan on the calibrated times and keep training.
      ++out.replans;
      if (stats) stats->counter("profile.drift.replans").add(1);
      out.trace_markers.emplace_back(
          session_clock, "re-plan (drift " +
                             std::to_string(static_cast<int>(drift * 100)) +
                             "%)");
      POOCH_LOG_INFO("drift " << drift * 100 << "% > threshold "
                              << options.replan_threshold * 100
                              << "%: re-planning on calibrated times");
      PoochPlanner replanner(graph, tape, machine, *model,
                             options.pipeline.planner);
      const PlannerResult replanned = replanner.plan();
      if (!replanned.feasible) {
        POOCH_LOG_WARN("re-plan infeasible; keeping the current plan");
        break;
      }
      out.final_plan = replanned;
      stream = record_plan_stream(*cal_runtime, out.final_plan, {});
      if (options.measure.time_model == nullptr) {
        mo.time_model = model.get();  // calibrated priorities from here on
      }
      out.measured = profile::measure_op_stream(graph, stream, data, mo,
                                                next_iteration);
      next_iteration += static_cast<std::uint64_t>(mo.warmup_iterations +
                                                   mo.iterations);
      session_clock = append_session_runs(
          out.session_timeline, session_clock, session_runs,
          session_consumed);
      session_consumed = session_runs.size();
      observed = out.measured.iteration_seconds();
    }

    // Phase 5: out-of-sample validation — fresh iterations under the
    // final plan score both predictors against wall time the calibration
    // never saw.
    if (options.validation_iterations > 0) {
      profile::MeasureOptions vo = mo;
      vo.warmup_iterations = 0;
      vo.iterations = options.validation_iterations;
      const profile::MeasuredProfile validation =
          profile::measure_op_stream(graph, stream, data, vo,
                                     next_iteration);
      next_iteration +=
          static_cast<std::uint64_t>(options.validation_iterations);
      session_clock = append_session_runs(
          out.session_timeline, session_clock, session_runs,
          session_consumed);
      session_consumed = session_runs.size();
      observed = validation.iteration_seconds();
    }
    out.observed_seconds = observed;
    out.calibrated_predicted = predicted;
    out.roofline_error = relative_error(out.roofline_predicted, observed);
    out.calibrated_error = relative_error(predicted, observed);
  } catch (const Error& e) {
    out.failure = e.what();
    return out;
  }
  out.iterations_executed = static_cast<int>(next_iteration);

  // Phase 6: the whole measured trajectory — across warm-ups, both
  // plans, and the re-records — must be bit-identical to serial in-core
  // training of the same iterations (the transparency contract).
  {
    sim::DataBackend ref(graph, options.data_seed, options.learning_rate);
    // On a thread of its own: the reference's tensors then come from
    // another malloc arena, and the calling thread's arena, which goes on
    // to train, is not fragmented by them (glibc, 4-core x86: the e2e
    // inception_ooc_branchy steady peak RSS is ~112 MiB this way, ~146
    // MiB with the reference on the calling thread).
    std::async(std::launch::async, [&] {
      sim::train_incore(graph, tape, ref, 0, static_cast<int>(next_iteration));
    }).get();
    out.loss = data.loss();
    const float want = ref.loss();
    out.bit_identical = std::memcmp(&out.loss, &want, sizeof(float)) == 0 &&
                        data.param_norm() == ref.param_norm();
  }

  if (stats && model) {
    stats->gauge("calibration.last.blend").set(model->blend());
    stats->gauge("calibration.last.measured_ops")
        .set(static_cast<double>(model->measured_ops()));
    stats->gauge("calibration.last.fallback_ops")
        .set(static_cast<double>(model->fallback_ops()));
    stats->gauge("calibration.last.forward_scale")
        .set(model->forward_scale());
    stats->gauge("calibration.last.h2d_scale").set(model->h2d_scale());
    stats->gauge("calibration.last.predicted_seconds")
        .set(out.calibrated_predicted);
    stats->gauge("calibration.last.observed_seconds")
        .set(out.observed_seconds);
    stats->gauge("calibration.last.roofline_error").set(out.roofline_error);
    stats->gauge("calibration.last.calibrated_error")
        .set(out.calibrated_error);
  }
  if (stats) data.publish_memory(*stats);
  out.ok = out.bit_identical;
  if (!out.ok && out.failure.empty()) {
    out.failure = "measured execution not bit-identical to in-core";
  }
  return out;
}

}  // namespace pooch::planner
