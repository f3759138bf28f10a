// The virtual GPU runtime: schedules one training iteration of a graph
// under a classification, on a machine, and reports what happened.
//
// It is the *timeline simulator* PoocH's classifier queries thousands of
// times (§4.1.2: "PoocH simulates an execution timeline and memory
// management processes"), and nothing else: it runs no kernels. One
// engine schedules, the stream executes. A run can export its schedule
// as an exec::OpStream, and real numerics are that stream applied to a
// DataBackend — serially in index order (RunOptions::data, after the run
// completed) or with real threads (exec::AsyncExecutor); both go through
// DataBackend::apply, the single op -> kernel mapping. The simulation
// therefore models exactly the op sequence that executes.
//
// Modelled structure: one compute stream, one D2H stream, one H2D stream;
// a best-fit arena for device memory where allocations may have to wait
// for in-flight swap-outs to release their buffers; swap-in scheduling
// policies from naive one-step lookahead up to the paper's §4.3
// memory-aware eager prefetch; recompute chains re-executed on the
// compute stream. Out-of-memory is a reported outcome, not an exception.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/machine.hpp"
#include "graph/autodiff.hpp"
#include "graph/graph.hpp"
#include "sim/data_backend.hpp"
#include "sim/plan.hpp"
#include "sim/time_model.hpp"
#include "sim/timeline.hpp"

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::exec {
struct OpStream;
}

namespace pooch::sim {

enum class SwapInPolicy : std::uint8_t {
  /// Swap-in issued only when the needing backward step starts.
  kOnDemand,
  /// Issued one backward step ahead — the paper's "swap-all (w/o
  /// scheduling)" baseline ("starts simultaneously with the previous
  /// computation").
  kLookahead1,
  /// Issued at the backward step of the nearest preceding convolution —
  /// the SuperNeurons trigger rule.
  kLookaheadPrevConv,
  /// §4.3: issued as early as free device memory (minus the upcoming
  /// transient-byte headroom) allows.
  kEagerMemoryAware,
};

struct RunOptions {
  SwapInPolicy swapin_policy = SwapInPolicy::kEagerMemoryAware;
  /// SuperNeurons semantics: a trigger-time swap-in that cannot get
  /// memory is a hard failure instead of being deferred.
  bool oom_on_prefetch_failure = false;
  /// Record per-op spans (disable inside hot classifier loops).
  bool record_timeline = false;
  /// Mixed into dropout masks; bump per training iteration.
  std::uint64_t iteration = 0;
  /// Scales the free-memory headroom the eager prefetcher preserves.
  double headroom_factor = 1.0;
  /// Disable the two-ended (lifetime-aware) placement and allocate
  /// everything bottom-up, as cudaMalloc-pool-era systems did; used by
  /// the SuperNeurons baseline.
  bool naive_placement = false;
  /// Replay a fixed swap-in schedule (per-value issue step, -1 = none)
  /// recorded from a planning simulation, instead of deciding issue
  /// times from live state. This is §4.3 as the paper describes it —
  /// "the amount of free memory ... can be judged from the profiling
  /// result" — and it makes the execution's allocation order match the
  /// simulation's exactly.
  const std::vector<int>* fixed_swapin_schedule = nullptr;
  /// Restrict the device pool to this many usable bytes (0 = use the
  /// machine's full capacity). The PoocH executor clamps to the capacity
  /// the plan was validated against, so the execution reproduces the
  /// planning simulation's memory behaviour exactly.
  std::size_t usable_bytes_override = 0;
  /// Optional real execution: once the run has completed, its exported
  /// op stream is replayed on this backend in index order
  /// (DataBackend::replay). A failed (OOM) run leaves it untouched.
  DataBackend* data = nullptr;
  /// When set, the run additionally exports its schedule as a replayable
  /// op stream with dependency edges (see exec/op_stream.hpp) — the
  /// input to exec::AsyncExecutor. Only written when the run completes
  /// (ok). Cancelled prefetches are compacted out, mirroring
  /// unrecord_swapin.
  exec::OpStream* export_stream = nullptr;
  /// Metrics sink. When set, the run publishes counters (transfers,
  /// recomputes, OOM-rescue events, eager-prefetch headroom blocks),
  /// per-stream busy/stall gauges, arena statistics and stall/transfer
  /// histograms. See README "Observability" for the metric names.
  obs::StatsRegistry* stats = nullptr;
};

struct RunResult {
  bool ok = false;
  bool oom = false;
  std::string failure;

  double iteration_time = 0.0;
  double forward_time = 0.0;

  std::size_t arena_capacity = 0;       // after the persistent reservation
  std::size_t persistent_bytes = 0;     // params + param grads
  std::size_t peak_arena_bytes = 0;     // dynamic peak inside the arena
  std::size_t peak_bytes = 0;           // persistent + dynamic peak
  std::size_t peak_host_bytes = 0;

  double compute_stall = 0.0;
  double swapin_stall = 0.0;   // stalls blamed on H2D completions
  double memory_stall = 0.0;   // stalls blamed on D2H-gated allocations
  double recompute_seconds = 0.0;
  std::size_t swapped_bytes = 0;
  std::size_t recomputed_bytes = 0;

  /// Values whose swap-out was not hidden (caused a memory stall or was
  /// still in flight when forward finished) — the L_O candidates.
  std::vector<graph::ValueId> unhidden_swapouts;
  /// Values whose swap-in delayed a compute op — the L_I candidates.
  std::vector<graph::ValueId> unhidden_swapins;
  /// Per-value compute-stall seconds blamed on that value's transfers.
  std::vector<double> stall_by_value;
  /// Backward step index before which each value's swap-in was issued
  /// (-1 = never swapped in). Feed back as fixed_swapin_schedule.
  std::vector<int> swapin_issue_step;

  Timeline timeline;

  /// images/sec given a batch size.
  double throughput(std::int64_t batch) const {
    return iteration_time > 0.0 ? static_cast<double>(batch) / iteration_time
                                : 0.0;
  }
};

class Runtime {
 public:
  Runtime(const graph::Graph& graph, const std::vector<graph::BwdStep>& tape,
          const cost::MachineConfig& machine, const TimeModel& time_model);

  /// Simulate one training iteration (and, with options.data, replay
  /// the completed schedule on that backend).
  ///
  /// Thread safety: run() is re-entrant. The Runtime itself holds only
  /// const references; every piece of execution state (arena, host pool,
  /// value states, stream cursors, the RunResult) lives in a per-call
  /// Exec on this thread's stack. Concurrent run() calls on one Runtime
  /// are therefore safe provided (a) the TimeModel reports
  /// concurrent_safe() — NoisyTimeModel does not, its queries mutate a
  /// shared Rng — and (b) options.data is null or distinct per thread (a
  /// DataBackend carries real tensors and is not synchronized). An
  /// attached StatsRegistry is safe: counters and gauges are atomic.
  /// The parallel planner (pooch::planner) relies on exactly this.
  RunResult run(const Classification& classes,
                const RunOptions& options = {}) const;

  const graph::Graph& graph() const { return graph_; }
  const std::vector<graph::BwdStep>& tape() const { return tape_; }
  const cost::MachineConfig& machine() const { return machine_; }

 private:
  const graph::Graph& graph_;
  const std::vector<graph::BwdStep>& tape_;
  const cost::MachineConfig& machine_;
  const TimeModel& time_model_;
};

}  // namespace pooch::sim
