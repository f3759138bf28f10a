#include "exec/async_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "exec/event.hpp"
#include "kernels/kernel_context.hpp"
#include "mem/host_pool.hpp"
#include "obs/stats.hpp"
#include "sim/data_backend.hpp"

namespace pooch::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ready-queue entry: (priority, -index). Lexicographic max order pops
/// the highest priority first, then the lowest index — a total,
/// deterministic dispatch order. Copy lanes and single-worker compute
/// push priority 0, so they pop in pure stream-index (FIFO) order.
using ReadyEntry = std::pair<double, std::int32_t>;

/// Dependency-counted dispatcher shared by every worker of a run. An op
/// enters its lane's ready queue when its indegree hits zero; a lane's
/// workers pop under the mutex and execute outside it.
struct Dispatcher {
  std::mutex mu;
  std::condition_variable cv[kNumLanes];
  std::vector<int> indegree;
  std::priority_queue<ReadyEntry> ready[kNumLanes];
  int remaining[kNumLanes] = {};
  int ready_peak = 0;  // compute lane
  obs::Histogram* depth_hist = nullptr;

  void push_ready_locked(int lane, std::int32_t index, double priority) {
    ready[lane].push({priority, -index});
    if (lane == kComputeLane) {
      const int depth = static_cast<int>(ready[lane].size());
      ready_peak = std::max(ready_peak, depth);
      if (depth_hist) depth_hist->add(static_cast<double>(depth));
    }
    cv[lane].notify_one();
  }
};

/// Shared mutable state of one run, owned by AsyncExecutor::run's stack.
struct RunState {
  const graph::Graph& graph;
  const OpStream& stream;
  const Schedule& sched;
  sim::DataBackend& data;
  const AsyncOptions& opts;
  mem::Staging staging;
  Clock::time_point t0;

  std::vector<Event> events;
  std::vector<OpSpan> spans;
  std::atomic<std::uint64_t> seq{0};
  std::atomic<bool> aborted{false};
  std::mutex failure_mu;
  std::string failure;

  Dispatcher dispatch;
  /// Dispatch priority of each op (critical path under opts.time_model;
  /// zeroed for the compute lane when it runs single-worker so FIFO
  /// order — the serial program order — is preserved exactly).
  std::vector<double> priority;
  std::vector<double> worker_busy;  // per compute worker
  std::vector<double> worker_idle;

  RunState(const graph::Graph& g, const OpStream& s, const Schedule& sc,
           sim::DataBackend& d, const AsyncOptions& o)
      : graph(g),
        stream(s),
        sched(sc),
        data(d),
        opts(o),
        staging(o.staging_slots),
        t0(Clock::now()),
        events(s.ops.size()),
        spans(s.ops.size()),
        worker_busy(static_cast<std::size_t>(o.compute_workers), 0.0),
        worker_idle(static_cast<std::size_t>(o.compute_workers), 0.0) {}

  void fail(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (failure.empty()) failure = what;
    }
    aborted.store(true, std::memory_order_release);
  }

  /// The op itself is DataBackend::apply; around it the executor keeps
  /// only its own bookkeeping: staging slots and host swap space.
  void execute(const StreamOp& op) {
    if (op.type == OpType::kSwapOut) {
      // Double-buffered retirement: at most `staging_slots` swap-outs
      // may be moving through the bounce buffers at once.
      const int slot = staging.acquire();
      if (opts.host_pool && !opts.host_pool->reserve(op.bytes)) {
        staging.release(slot);
        throw Error("async exec: host pool exhausted swapping out v" +
                    std::to_string(op.value));
      }
      data.apply(op, stream.iteration);
      staging.release(slot);
      return;
    }
    data.apply(op, stream.iteration);
    if (op.type == OpType::kFreeValue && opts.host_pool && op.releases_host) {
      opts.host_pool->release(op.bytes);
    }
  }

  /// Run one op end-to-end: wait for its dependency events (already
  /// signalled by dispatch time — the waits carry the acquire edges and
  /// keep the sequence-number invariant), execute, stamp the span,
  /// signal. The end sequence number is taken *before* the signal, so
  /// every waiter observes seq_end(dep) < seq_start(op).
  void run_op(std::int32_t index, int lane, int worker) {
    const StreamOp& op = stream.ops[static_cast<std::size_t>(index)];
    OpSpan& span = spans[static_cast<std::size_t>(index)];
    span.lane = lane;
    span.worker = worker;
    const double wait_begin = seconds_since(t0);
    for (std::int32_t d : sched.deps[static_cast<std::size_t>(index)]) {
      events[static_cast<std::size_t>(d)].wait();
    }
    span.start = seconds_since(t0);
    span.wait = span.start - wait_begin;
    span.seq_start = seq.fetch_add(1, std::memory_order_acq_rel);
    if (!aborted.load(std::memory_order_acquire)) {
      try {
        execute(op);
      } catch (const std::exception& e) {
        fail(std::string(op_type_name(op.type)) + " op " +
             std::to_string(index) + ": " + e.what());
      }
    }
    span.end = seconds_since(t0);
    span.seq_end = seq.fetch_add(1, std::memory_order_acq_rel);
    events[static_cast<std::size_t>(index)].signal();
  }

  /// Dependency-counted worker loop: pop the lane's best ready op,
  /// execute it, retire it (unlocking successors into their lanes).
  /// Exits when the lane has no unexecuted ops left.
  void worker_loop(int lane, int worker) {
    std::unique_lock<std::mutex> lock(dispatch.mu);
    for (;;) {
      while (dispatch.ready[lane].empty() && dispatch.remaining[lane] > 0) {
        const double idle_begin = seconds_since(t0);
        dispatch.cv[lane].wait(lock);
        if (lane == kComputeLane) {
          worker_idle[static_cast<std::size_t>(worker)] +=
              seconds_since(t0) - idle_begin;
        }
      }
      if (dispatch.ready[lane].empty()) return;  // lane fully drained
      const std::int32_t index = -dispatch.ready[lane].top().second;
      dispatch.ready[lane].pop();
      lock.unlock();

      run_op(index, lane, worker);
      if (lane == kComputeLane) {
        const OpSpan& span = spans[static_cast<std::size_t>(index)];
        worker_busy[static_cast<std::size_t>(worker)] += span.end - span.start;
      }

      lock.lock();
      for (std::int32_t s : sched.succs[static_cast<std::size_t>(index)]) {
        if (--dispatch.indegree[static_cast<std::size_t>(s)] == 0) {
          const int succ_lane =
              lane_of(stream.ops[static_cast<std::size_t>(s)].type);
          dispatch.push_ready_locked(succ_lane, s,
                                     priority[static_cast<std::size_t>(s)]);
        }
      }
      if (--dispatch.remaining[lane] == 0) dispatch.cv[lane].notify_all();
    }
  }

  /// Compute-lane worker: when several compute workers run, each routes
  /// its kernels through a private serial KernelContext — scratch
  /// arenas are per-(slot, arena) within a context, so sharing one
  /// across concurrent kernels would race. Kernels stay bit-exact at
  /// any thread count, so swapping the context never changes results.
  void compute_worker(int worker) {
    if (opts.compute_workers > 1) {
      kernels::KernelContext ctx(1);
      ctx.stats = opts.stats;
      sim::DataBackend::ThreadContextGuard guard(data, &ctx);
      worker_loop(kComputeLane, worker);
    } else {
      worker_loop(kComputeLane, worker);
    }
  }
};

}  // namespace

AsyncExecutor::AsyncExecutor(const graph::Graph& graph, const OpStream& stream)
    : graph_(graph),
      stream_(stream),
      tape_(graph::build_backward_tape(graph)),
      schedule_(build_schedule(graph, tape_, stream)) {}

AsyncResult AsyncExecutor::run(sim::DataBackend& data,
                               const AsyncOptions& options) const {
  POOCH_CHECK(options.compute_workers >= 1);
  POOCH_CHECK(options.workers_per_copy_lane >= 1);
  RunState state(graph_, stream_, schedule_, data, options);

  // Dispatch priorities. Copy lanes always pop FIFO (stream-index
  // order); so does a single-worker compute lane, which reproduces the
  // serial replay exactly. Multi-worker compute pops by critical path —
  // priced by options.time_model when attached, else the simulated
  // spans baked into the stream at export time.
  const std::size_t n_ops = stream_.ops.size();
  state.priority.assign(n_ops, 0.0);
  if (options.compute_workers > 1) {
    if (options.time_model) {
      std::vector<double> prio(n_ops, 0.0);
      for (std::size_t i = n_ops; i-- > 0;) {
        double tail = 0.0;
        for (std::int32_t s : schedule_.succs[i]) {
          tail = std::max(tail, prio[static_cast<std::size_t>(s)]);
        }
        prio[i] = op_cost(stream_.ops[i], options.time_model) + tail;
      }
      state.priority = std::move(prio);
    } else {
      state.priority = schedule_.priority;
    }
  }

  // Seed the dispatcher: indegrees from the hazard edges, sources ready.
  state.dispatch.indegree.resize(n_ops);
  if (options.stats) {
    state.dispatch.depth_hist =
        &options.stats->histogram("exec.sched.ready_depth");
  }
  for (std::size_t i = 0; i < n_ops; ++i) {
    state.dispatch.remaining[lane_of(stream_.ops[i].type)]++;
    state.dispatch.indegree[i] = static_cast<int>(schedule_.deps[i].size());
  }
  {
    std::lock_guard<std::mutex> lock(state.dispatch.mu);
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (state.dispatch.indegree[i] == 0) {
        state.dispatch.push_ready_locked(lane_of(stream_.ops[i].type),
                                         static_cast<std::int32_t>(i),
                                         state.priority[i]);
      }
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(2 * options.workers_per_copy_lane +
                                           options.compute_workers - 1));
  for (int w = 0; w < options.workers_per_copy_lane; ++w) {
    workers.emplace_back([&state, w] { state.worker_loop(kD2HLane, w); });
    workers.emplace_back([&state, w] { state.worker_loop(kH2DLane, w); });
  }
  for (int w = 1; w < options.compute_workers; ++w) {
    workers.emplace_back([&state, w] { state.compute_worker(w); });
  }
  // The calling thread is compute worker 0.
  state.compute_worker(0);
  for (auto& t : workers) t.join();

  AsyncResult result;
  result.wall_seconds = seconds_since(state.t0);
  result.failure = state.failure;
  result.ok = result.failure.empty();
  result.spans = std::move(state.spans);
  result.staging_acquisitions = state.staging.acquisitions();
  result.staging_peak_held = state.staging.peak_held();
  result.compute_worker_busy = std::move(state.worker_busy);
  result.compute_worker_idle = std::move(state.worker_idle);
  result.critical_path_seconds = schedule_.critical_path_seconds;
  result.ready_peak = state.dispatch.ready_peak;

  for (std::size_t i = 0; i < stream_.ops.size(); ++i) {
    const StreamOp& op = stream_.ops[i];
    const OpSpan& span = result.spans[i];
    const int lane = lane_of(op.type);
    result.lane_busy[lane] += span.end - span.start;
    result.lane_wait[lane] += span.wait;

    sim::OpKind kind;
    if (!timeline_kind(op.type, kind)) continue;
    sim::OpRecord r;
    r.kind = kind;
    r.node = op.node;
    r.value = op.value;
    r.start = span.start;
    r.end = span.end;
    r.stall = span.wait;
    r.stall_cause = sim::StallCause::kNone;
    if (span.wait > 0.0 && lane == kComputeLane) {
      // Blame the slowest dependency; a swap-in dep is L_I-style
      // evidence just as in the simulator.
      for (std::int32_t d : schedule_.deps[i]) {
        const StreamOp& dep = stream_.ops[static_cast<std::size_t>(d)];
        if (dep.type == OpType::kSwapIn) {
          r.stall_cause = sim::StallCause::kSwapInWait;
          r.stall_value = dep.value;
        }
      }
    }
    result.timeline.ops.push_back(r);
    switch (lane) {
      case kComputeLane:
        result.timeline.compute_busy += span.end - span.start;
        result.timeline.compute_stall += span.wait;
        break;
      case kD2HLane:
        result.timeline.d2h_busy += span.end - span.start;
        break;
      default:
        result.timeline.h2d_busy += span.end - span.start;
        break;
    }
    if (op.type == OpType::kForward) {
      result.timeline.forward_end =
          std::max(result.timeline.forward_end, span.end);
    }
  }

  if (options.stats) {
    auto& s = *options.stats;
    s.counter("exec.runs").add(1);
    s.counter("exec.ops").add(stream_.ops.size());
    s.counter("exec.staging.acquisitions").add(result.staging_acquisitions);
    s.gauge("exec.last.wall_seconds").set(result.wall_seconds);
    s.gauge("exec.last.compute_busy_seconds")
        .set(result.lane_busy[kComputeLane]);
    s.gauge("exec.last.compute_wait_seconds")
        .set(result.lane_wait[kComputeLane]);
    s.gauge("exec.last.d2h_busy_seconds").set(result.lane_busy[kD2HLane]);
    s.gauge("exec.last.d2h_wait_seconds").set(result.lane_wait[kD2HLane]);
    s.gauge("exec.last.h2d_busy_seconds").set(result.lane_busy[kH2DLane]);
    s.gauge("exec.last.h2d_wait_seconds").set(result.lane_wait[kH2DLane]);
    s.gauge("exec.last.staging_peak_held")
        .set(static_cast<double>(result.staging_peak_held));
    s.gauge("exec.sched.compute_workers")
        .set(static_cast<double>(options.compute_workers));
    s.gauge("exec.sched.critical_path_seconds")
        .set(result.critical_path_seconds);
    s.gauge("exec.sched.ready_peak")
        .set(static_cast<double>(result.ready_peak));
    for (int w = 0; w < options.compute_workers; ++w) {
      const std::string prefix =
          "exec.sched.worker" + std::to_string(w) + ".";
      s.gauge(prefix + "busy_ns")
          .set(result.compute_worker_busy[static_cast<std::size_t>(w)] * 1e9);
      s.gauge(prefix + "idle_ns")
          .set(result.compute_worker_idle[static_cast<std::size_t>(w)] * 1e9);
    }
  }
  return result;
}

}  // namespace pooch::exec
