// Measured profiling: real wall-clock observations of the execution.
//
// The paper's PoocH is *profiling-based* — it plans from per-layer
// compute times and per-tensor transfer times measured during the first
// training iterations on the actual hardware. A MeasuredProfile holds
// per-op time samples and condenses them into the per-op estimates the
// planner simulates with (through cost::CalibratedTimeModel). Two
// profilers fill it: the simulated one (profiler.hpp) observes the
// roofline model, one averaged sample per op; measure_op_stream below
// records the wall-clock spans of real exec::AsyncExecutor runs, whose
// kernels execute through kernels::KernelContext on real tensors.
//
// Measurement methodology (docs/PROFILING.md):
//   - warm-up iterations are executed but never recorded (cold caches,
//     first-touch page faults, scratch-arena growth);
//   - each measured iteration contributes one sample per op;
//   - per op, samples outside [median/outlier_factor,
//     median*outlier_factor] are rejected (a context switch or page-fault
//     storm must not poison the estimate), and the estimate is the
//     median of the survivors — median-of-k, robust to one-sided noise.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/graph.hpp"

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::profile {

struct MeasureOptions {
  /// Executed-but-discarded iterations before sampling starts.
  int warmup_iterations = 1;
  /// Recorded iterations; each contributes one sample per op ("k" of
  /// median-of-k).
  int iterations = 3;
  /// Samples outside [median/f, median*f] are discarded before the
  /// final median. <= 1 disables rejection.
  double outlier_factor = 3.0;
  /// Copy workers per transfer lane for the measuring runs.
  int copy_workers = 1;
  /// Compute workers for the measuring runs
  /// (exec::AsyncOptions::compute_workers). Spans are stamped with the
  /// worker that ran them either way; durations stay pure execution
  /// time because OpSpan::start is taken after the dependency waits.
  int compute_workers = 1;
  /// Priority source for the multi-worker dispatch (null = critical
  /// path over the recorded simulated spans).
  const sim::TimeModel* time_model = nullptr;
  /// Metrics sink (calibration.* counters/gauges).
  obs::StatsRegistry* stats = nullptr;
  /// When set, every executed run's AsyncResult (warm-up runs included)
  /// is appended here — raw material for a session timeline.
  std::vector<exec::AsyncResult>* keep_runs = nullptr;
};

/// Per-op time observations (simulated or wall clock), aggregated per
/// op. Estimates are 0 where an op was never observed — consumers
/// (cost::CalibratedTimeModel) fall back to the analytic model there.
class MeasuredProfile {
 public:
  MeasuredProfile(int num_nodes, int num_values);

  /// Fold one executed iteration's spans into the sample sets. The
  /// stream and result must come from the same AsyncExecutor::run.
  void record_run(const exec::OpStream& stream,
                  const exec::AsyncResult& result);

  /// Record a single observation directly (the simulated profiler,
  /// tests, external timers). Throws pooch::Error naming the op when
  /// `seconds` is NaN, infinite or negative.
  void record_forward(graph::NodeId node, double seconds);
  void record_backward(graph::NodeId node, double seconds);
  void record_d2h(graph::ValueId value, double seconds);
  void record_h2d(graph::ValueId value, double seconds);
  void record_update(double seconds);
  void record_iteration_seconds(double seconds);

  // --- estimates (median of outlier-filtered samples; 0 = unobserved) ---
  double forward_seconds(graph::NodeId node) const;
  double backward_seconds(graph::NodeId node) const;
  double d2h_seconds(graph::ValueId value) const;
  double h2d_seconds(graph::ValueId value) const;
  double update_seconds() const;

  bool has_forward(graph::NodeId node) const;
  bool has_backward(graph::NodeId node) const;
  bool has_d2h(graph::ValueId value) const;
  bool has_h2d(graph::ValueId value) const;

  /// Median observed end-to-end iteration wall time (0 = none recorded).
  double iteration_seconds() const;

  /// Fraction of (forward + backward) op slots with at least one sample.
  double compute_coverage() const;

  /// Samples rejected by the outlier filter across all estimate queries
  /// since the last configure() (recomputed lazily per query).
  std::int64_t outliers_rejected() const;
  std::int64_t total_samples() const;
  /// Iteration times recorded; 0 = an empty profile.
  int iterations_recorded() const {
    return static_cast<int>(iteration_.size());
  }

  /// Set the rejection window (see MeasureOptions::outlier_factor).
  void set_outlier_factor(double f) { outlier_factor_ = f; }
  double outlier_factor() const { return outlier_factor_; }

  int num_nodes() const { return static_cast<int>(fwd_.size()); }
  int num_values() const { return static_cast<int>(d2h_.size()); }

 private:
  double estimate(const std::vector<double>& samples) const;

  double outlier_factor_ = 3.0;
  std::vector<std::vector<double>> fwd_, bwd_;   // per node
  std::vector<std::vector<double>> d2h_, h2d_;   // per value
  std::vector<double> update_;
  std::vector<double> iteration_;
  mutable std::int64_t rejected_ = 0;
};

/// Run `stream` through exec::AsyncExecutor against `data` for
/// warmup + k iterations and return the aggregated profile. The stream's
/// iteration index is advanced per run starting from `first_iteration`
/// (dropout epochs), exactly as a training loop would; on return the
/// backend has advanced warmup+k training steps. Throws pooch::Error
/// when any executor run fails.
MeasuredProfile measure_op_stream(const graph::Graph& graph,
                                  const exec::OpStream& stream,
                                  sim::DataBackend& data,
                                  const MeasureOptions& options = {},
                                  std::uint64_t first_iteration = 0);

}  // namespace pooch::profile
