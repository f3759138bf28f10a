// AsyncExecutor: real wall-clock overlapped execution of an exported
// op stream against a sim::DataBackend. Each op runs through
// DataBackend::apply, the same mapping the serial replay uses; the
// executor adds only dispatch, staging and host-pool bookkeeping.
//
// Threading model (a dependency-counted multi-worker scheduler):
//   - `compute_workers` threads (the calling thread plus N-1 helpers)
//     serve the compute lane, popping ready ops by critical-path
//     priority (largest remaining downstream chain first — priorities
//     come from AsyncOptions::time_model, typically the calibrated
//     profile, falling back to the stream's simulated roofline spans);
//   - `workers_per_copy_lane` dedicated threads each serve the D2H and
//     H2D lanes, popping ready ops in stream-index (FIFO) order.
// An op becomes ready when its per-op dependency counter reaches zero.
// The dependency edges are NOT just the stream's recorded cross-lane
// edges: exec::build_schedule rederives the full RAW/WAR/WAW hazard
// partial order over value/grad/param/host slots, so ops touching
// disjoint slots run concurrently while order-sensitive chains (e.g.
// gradient accumulation) replay in serial program order. Each op still
// owns one exec::Event, signalled on completion — by dispatch time every
// dependency event is already set, so the waits are free; they carry the
// acquire/release edges and the completion-sequence numbers the ordering
// oracle (obs::TimelineValidator::check_replay) audits.
//
// Why this cannot deadlock: the hazard edges keep every dep index
// strictly below the op that carries it, so the dependency graph is
// acyclic; an op is dispatched only after all its deps completed, and
// whenever unexecuted ops remain the lowest-indexed one has every dep
// already completed — it is in some lane's ready queue, so some worker
// is always runnable, at any worker count.
//
// Why the result is bit-identical to the serial in-core run: every
// kernel is bit-exact at any thread count, ops whose footprints are
// disjoint commute exactly, and the hazard edges serialize every
// order-sensitive pair (gradient accumulation chains, destructive
// moves) in exported — i.e. serial program — order. Each compute worker
// runs its kernels through a private kernels::KernelContext, so scratch
// arenas are never shared across concurrent kernels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/op_stream.hpp"
#include "exec/schedule.hpp"
#include "graph/autodiff.hpp"
#include "graph/graph.hpp"
#include "sim/timeline.hpp"

namespace pooch::mem {
class HostPool;
}
namespace pooch::obs {
class StatsRegistry;
}
namespace pooch::sim {
class DataBackend;
class TimeModel;
}

namespace pooch::exec {

struct AsyncOptions {
  /// Threads serving the compute lane. 1 (default) keeps today's
  /// behavior: the calling thread replays compute ops in serial program
  /// order. N > 1 adds N-1 helper threads and dispatches by
  /// critical-path priority; results stay bit-identical.
  int compute_workers = 1;
  /// Threads serving each copy lane (1 = one H2D + one D2H worker).
  int workers_per_copy_lane = 1;
  /// Staging slots bounding concurrent D2H retirement (2 = classic
  /// double buffering).
  int staging_slots = 2;
  /// Optional host swap-space accounting: swap-outs reserve, releasing
  /// frees return; reservation failure aborts the run.
  mem::HostPool* host_pool = nullptr;
  /// Prices the critical-path priorities (and nothing else — never the
  /// numerics). Attach the CalibratedTimeModel to schedule by measured
  /// cost; null falls back to the stream's simulated roofline spans.
  const sim::TimeModel* time_model = nullptr;
  /// Metrics sink (exec.* and exec.sched.* counters/gauges/histograms).
  obs::StatsRegistry* stats = nullptr;
};

/// Measured execution of one op: wall-clock span plus the global
/// completion-sequence numbers used by the ordering oracle
/// (obs::TimelineValidator::check_replay). Sequence numbers are exact
/// where wall times can tie at clock resolution: a dependency's seq_end
/// is always strictly below its consumer's seq_start.
struct OpSpan {
  double start = 0.0;  // seconds since run start
  double end = 0.0;
  double wait = 0.0;  // time spent blocked on dependency events
  std::uint64_t seq_start = 0;
  std::uint64_t seq_end = 0;
  int lane = 0;
  int worker = 0;  // lane-local worker index
};

struct AsyncResult {
  bool ok = false;
  std::string failure;

  double wall_seconds = 0.0;
  double lane_busy[kNumLanes] = {};
  double lane_wait[kNumLanes] = {};
  std::uint64_t staging_acquisitions = 0;
  int staging_peak_held = 0;

  /// Scheduler diagnostics: per-compute-worker execution and idle
  /// (ready-queue wait) time, the modeled critical path (the lower
  /// bound no worker count can beat), and the deepest the compute
  /// ready queue ever got (ready_peak ≤ 1 means the schedule exposes
  /// no compute parallelism to exploit).
  std::vector<double> compute_worker_busy;
  std::vector<double> compute_worker_idle;
  double critical_path_seconds = 0.0;
  int ready_peak = 0;

  /// Parallel to the stream's ops.
  std::vector<OpSpan> spans;
  /// Real-time spans rendered as a sim::Timeline (compute/D2H/H2D
  /// kinds only), directly usable with obs::write_chrome_trace for
  /// visual comparison against the simulated schedule.
  sim::Timeline timeline;
};

class AsyncExecutor {
 public:
  /// `graph` and `stream` must outlive the executor. The backward tape
  /// is rebuilt internally for the hazard analysis.
  AsyncExecutor(const graph::Graph& graph, const OpStream& stream);

  /// Execute the stream against `data`. The backend must be freshly
  /// seeded (or carried over from the previous iteration's run) exactly
  /// as it would be for a serial replay of the same stream.
  /// Reusable: each call replays the same stream.
  AsyncResult run(sim::DataBackend& data,
                  const AsyncOptions& options = {}) const;

  /// The hazard-complete dependency topology replay dispatches on
  /// (costs/priorities are those of construction time: no time model —
  /// i.e. simulated-span fallback).
  const Schedule& schedule() const { return schedule_; }

 private:
  const graph::Graph& graph_;
  const OpStream& stream_;
  std::vector<graph::BwdStep> tape_;
  Schedule schedule_;
};

}  // namespace pooch::exec
