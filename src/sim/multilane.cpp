#include "sim/multilane.hpp"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/time_model.hpp"

namespace pooch::sim {

namespace {

/// Same ready-queue order as the executor: (priority, -index) popped
/// lexicographically largest — highest priority first, lowest index on
/// ties. Copy lanes and single-worker compute use priority 0 = FIFO.
using ReadyEntry = std::pair<double, std::int32_t>;

}  // namespace

MultiLaneResult simulate_multilane(const exec::OpStream& stream,
                                   const exec::Schedule& schedule,
                                   const MultiLaneOptions& options) {
  POOCH_CHECK(options.compute_workers >= 1);
  POOCH_CHECK(options.copy_workers_per_lane >= 1);
  const std::size_t n_ops = stream.ops.size();
  POOCH_CHECK(schedule.size() == n_ops);

  // Re-price costs and critical-path priorities under this time model.
  std::vector<double> cost(n_ops, 0.0);
  std::vector<double> prio(n_ops, 0.0);
  MultiLaneResult result;
  for (std::size_t i = 0; i < n_ops; ++i) {
    cost[i] = exec::op_cost(stream.ops[i], options.time_model);
  }
  for (std::size_t i = n_ops; i-- > 0;) {
    double tail = 0.0;
    for (std::int32_t s : schedule.succs[i]) {
      tail = std::max(tail, prio[static_cast<std::size_t>(s)]);
    }
    prio[i] = cost[i] + tail;
    result.critical_path_seconds =
        std::max(result.critical_path_seconds, prio[i]);
  }

  // Deterministic greedy list scheduling, mirroring the executor: an op
  // becomes ready when its last dependency finishes; whenever a lane
  // has an idle worker and a ready op, the best ready op starts
  // immediately. Ties in completion time resolve by op index.
  const int lane_workers[exec::kNumLanes] = {options.compute_workers,
                                             options.copy_workers_per_lane,
                                             options.copy_workers_per_lane};
  std::vector<int> indegree(n_ops);
  std::priority_queue<ReadyEntry> ready[exec::kNumLanes];
  int idle[exec::kNumLanes];
  for (int l = 0; l < exec::kNumLanes; ++l) idle[l] = lane_workers[l];
  // Completion events: (end_time, index), popped earliest first.
  using Completion = std::pair<double, std::int32_t>;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      running;
  std::vector<double> start(n_ops, 0.0);
  std::vector<double> ready_at(n_ops, 0.0);

  const bool fifo_compute = options.compute_workers == 1;
  auto lane_priority = [&](std::size_t i, int lane) {
    return (lane == exec::kComputeLane && !fifo_compute) ? prio[i] : 0.0;
  };

  for (std::size_t i = 0; i < n_ops; ++i) {
    indegree[i] = static_cast<int>(schedule.deps[i].size());
    if (indegree[i] == 0) {
      const int lane = exec::lane_of(stream.ops[i].type);
      ready[lane].push({lane_priority(i, lane), -static_cast<std::int32_t>(i)});
    }
  }

  double now = 0.0;
  std::size_t done = 0;
  while (done < n_ops) {
    for (int lane = 0; lane < exec::kNumLanes; ++lane) {
      while (idle[lane] > 0 && !ready[lane].empty()) {
        const std::int32_t i = -ready[lane].top().second;
        ready[lane].pop();
        --idle[lane];
        start[static_cast<std::size_t>(i)] = now;
        running.push({now + cost[static_cast<std::size_t>(i)], i});
      }
    }
    POOCH_CHECK_MSG(!running.empty(), "multilane sim stalled with "
                                          << (n_ops - done)
                                          << " ops undispatched");
    now = running.top().first;
    while (!running.empty() && running.top().first <= now) {
      const std::int32_t i = running.top().second;
      running.pop();
      const std::size_t idx = static_cast<std::size_t>(i);
      const int lane = exec::lane_of(stream.ops[idx].type);
      ++idle[lane];
      ++done;
      result.lane_busy[lane] += cost[idx];
      for (std::int32_t s : schedule.succs[idx]) {
        const std::size_t sidx = static_cast<std::size_t>(s);
        ready_at[sidx] = std::max(ready_at[sidx], now);
        if (--indegree[sidx] == 0) {
          const int slane = exec::lane_of(stream.ops[sidx].type);
          ready[slane].push({lane_priority(sidx, slane), -s});
        }
      }
    }
  }
  result.makespan = now;

  if (options.record_timeline) {
    for (std::size_t i = 0; i < n_ops; ++i) {
      OpKind kind;
      if (!exec::timeline_kind(stream.ops[i].type, kind)) continue;
      OpRecord r;
      r.kind = kind;
      r.node = stream.ops[i].node;
      r.value = stream.ops[i].value;
      r.start = start[i];
      r.end = start[i] + cost[i];
      r.stall = start[i] - ready_at[i];  // time ready but waiting for a worker
      result.timeline.ops.push_back(r);
      switch (exec::lane_of(stream.ops[i].type)) {
        case exec::kComputeLane:
          result.timeline.compute_busy += cost[i];
          result.timeline.compute_stall += r.stall;
          break;
        case exec::kD2HLane:
          result.timeline.d2h_busy += cost[i];
          break;
        default:
          result.timeline.h2d_busy += cost[i];
          break;
      }
      if (stream.ops[i].type == exec::OpType::kForward) {
        result.timeline.forward_end =
            std::max(result.timeline.forward_end, r.end);
      }
    }
  }
  return result;
}

MultiLaneResult simulate_multilane(const graph::Graph& graph,
                                   const std::vector<graph::BwdStep>& tape,
                                   const exec::OpStream& stream,
                                   const MultiLaneOptions& options) {
  const exec::Schedule schedule =
      exec::build_schedule(graph, tape, stream, options.time_model);
  return simulate_multilane(stream, schedule, options);
}

}  // namespace pooch::sim
