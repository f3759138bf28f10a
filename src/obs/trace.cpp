#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <string>

#include "common/error.hpp"

namespace pooch::obs {

namespace {

using graph::Graph;
using graph::ValueId;
using sim::OpKind;
using sim::OpRecord;
using sim::StallCause;
using sim::Timeline;

constexpr double kToMicros = 1e6;

/// chrome://tracing reserved color names (catapult's color palette).
const char* slice_color(const OpRecord& op, const TraceOptions& opts) {
  switch (op.kind) {
    case OpKind::kForward: return "thread_state_running";     // green
    case OpKind::kBackward: return "thread_state_runnable";   // blue
    case OpKind::kRecompute: return "thread_state_iowait";    // orange
    case OpKind::kUpdate: return "grey";
    case OpKind::kSwapOut:
    case OpKind::kSwapIn:
      if (opts.classes && op.value >= 0 &&
          opts.classes->of(op.value) == sim::ValueClass::kRecompute) {
        return "thread_state_iowait";
      }
      return "rail_idle";  // teal: hidden data movement
  }
  return "grey";
}

std::string slice_name(const Graph& g, const OpRecord& op) {
  std::string name(sim::op_kind_name(op.kind));
  if (op.node != graph::kNoNode) {
    name += " " + g.node(op.node).name;
  } else if (op.value >= 0) {
    name += " " + g.value(op.value).name;
  }
  return name;
}

json::Value meta_event(const char* name, int tid, json::Object args) {
  json::Object e;
  e["ph"] = "M";
  e["pid"] = 0;
  e["tid"] = tid;
  e["name"] = name;
  e["args"] = json::Value(std::move(args));
  return json::Value(std::move(e));
}

json::Object op_args(const Graph& g, const OpRecord& op,
                     const TraceOptions& opts) {
  json::Object args;
  if (op.value >= 0) {
    args["value"] = json::Value(static_cast<std::int64_t>(op.value));
    args["bytes"] = json::Value(g.value(op.value).byte_size());
    if (opts.classes) {
      args["class"] =
          json::Value(sim::value_class_name(opts.classes->of(op.value)));
    }
  }
  if (op.node != graph::kNoNode) {
    args["node"] = json::Value(static_cast<std::int64_t>(op.node));
  }
  if (op.stall > 0.0) {
    args["stall_us"] = json::Value(op.stall * kToMicros);
    args["stall_cause"] = json::Value(sim::stall_cause_name(op.stall_cause));
    if (op.stall_value >= 0) {
      args["stall_value"] =
          json::Value(static_cast<std::int64_t>(op.stall_value));
    }
  }
  return args;
}

/// The transfer record blamed for a stall: the last swap-in (swapin-wait)
/// or swap-out (memory-wait) of `value` completing no later than the
/// stalled op's start.
const OpRecord* find_blamed_transfer(const Timeline& tl, ValueId value,
                                     StallCause cause, double not_after) {
  const OpKind want = cause == StallCause::kSwapInWait ? OpKind::kSwapIn
                                                       : OpKind::kSwapOut;
  const OpRecord* best = nullptr;
  const double eps = 1e-9 * std::max(1.0, not_after);
  for (const auto& op : tl.ops) {
    if (op.kind != want || op.value != value) continue;
    if (op.end > not_after + eps) continue;
    if (!best || op.end > best->end) best = &op;
  }
  return best;
}

}  // namespace

json::Value chrome_trace(const Graph& graph, const Timeline& tl,
                         const TraceOptions& options) {
  json::Array events;

  events.push_back(meta_event("process_name", 0,
                              {{"name", json::Value("pooch timeline")}}));
  const char* track_names[sim::kNumStreams] = {"compute", "copy d2h",
                                               "copy h2d"};
  for (int s = 0; s < sim::kNumStreams; ++s) {
    events.push_back(
        meta_event("thread_name", s, {{"name", json::Value(track_names[s])}}));
    events.push_back(meta_event("thread_sort_index", s,
                                {{"sort_index", json::Value(s)}}));
  }

  std::int64_t flow_id = 0;
  for (const auto& op : tl.ops) {
    const int tid = sim::stream_of(op.kind);
    json::Object e;
    e["ph"] = "X";
    e["pid"] = 0;
    e["tid"] = tid;
    e["cat"] = json::Value(sim::op_kind_name(op.kind));
    e["name"] = json::Value(slice_name(graph, op));
    e["ts"] = json::Value(op.start * kToMicros);
    e["dur"] = json::Value((op.end - op.start) * kToMicros);
    e["cname"] = json::Value(slice_color(op, options));
    e["args"] = json::Value(op_args(graph, op, options));
    events.push_back(json::Value(std::move(e)));

    if (op.stall > 0.0 && options.stall_slices) {
      json::Object s;
      s["ph"] = "X";
      s["pid"] = 0;
      s["tid"] = sim::kComputeStream;
      s["cat"] = "stall";
      s["name"] = json::Value(std::string("stall (") +
                              sim::stall_cause_name(op.stall_cause) + ")");
      s["ts"] = json::Value((op.start - op.stall) * kToMicros);
      s["dur"] = json::Value(op.stall * kToMicros);
      s["cname"] = "terrible";  // red
      json::Object args;
      args["stalled_op"] = json::Value(slice_name(graph, op));
      if (op.stall_value >= 0) {
        args["blamed_value"] =
            json::Value(graph.value(op.stall_value).name);
      }
      s["args"] = json::Value(std::move(args));
      events.push_back(json::Value(std::move(s)));

      // Flow arrow from the blamed transfer's completion into the
      // stalled op, so the cause reads directly off the trace view.
      if (options.flow_arrows && op.stall_value >= 0 &&
          (op.stall_cause == StallCause::kSwapInWait ||
           op.stall_cause == StallCause::kMemoryWait)) {
        const OpRecord* from = find_blamed_transfer(
            tl, op.stall_value, op.stall_cause, op.start);
        if (from) {
          const std::int64_t id = ++flow_id;
          json::Object fs;
          fs["ph"] = "s";
          fs["pid"] = 0;
          fs["tid"] = sim::stream_of(from->kind);
          fs["cat"] = "stall-flow";
          fs["name"] = "stall";
          fs["id"] = json::Value(id);
          fs["ts"] = json::Value(from->end * kToMicros);
          events.push_back(json::Value(std::move(fs)));
          json::Object ff;
          ff["ph"] = "f";
          ff["bp"] = "e";
          ff["pid"] = 0;
          ff["tid"] = sim::kComputeStream;
          ff["cat"] = "stall-flow";
          ff["name"] = "stall";
          ff["id"] = json::Value(id);
          ff["ts"] = json::Value(op.start * kToMicros);
          events.push_back(json::Value(std::move(ff)));
        }
      }
    }
  }

  for (const auto& [seconds, label] : options.markers) {
    json::Object m;
    m["ph"] = "i";
    m["s"] = "g";  // global scope: full-height marker line
    m["pid"] = 0;
    m["tid"] = sim::kComputeStream;
    m["cat"] = "calibration";
    m["name"] = json::Value(label);
    m["ts"] = json::Value(seconds * kToMicros);
    events.push_back(json::Value(std::move(m)));
  }

  if (tl.forward_end > 0.0) {
    json::Object i;
    i["ph"] = "i";
    i["s"] = "g";  // global scope: full-height marker line
    i["pid"] = 0;
    i["tid"] = sim::kComputeStream;
    i["cat"] = "phase";
    i["name"] = "forward end";
    i["ts"] = json::Value(tl.forward_end * kToMicros);
    events.push_back(json::Value(std::move(i)));
  }

  json::Object summary;
  summary["compute_busy_s"] = json::Value(tl.compute_busy);
  summary["compute_stall_s"] = json::Value(tl.compute_stall);
  summary["d2h_busy_s"] = json::Value(tl.d2h_busy);
  summary["h2d_busy_s"] = json::Value(tl.h2d_busy);
  summary["forward_end_s"] = json::Value(tl.forward_end);
  summary["num_ops"] = json::Value(tl.ops.size());

  json::Object root;
  root["traceEvents"] = json::Value(std::move(events));
  root["displayTimeUnit"] = "ms";
  root["pooch"] = json::Value(std::move(summary));
  return json::Value(std::move(root));
}

std::string chrome_trace_json(const Graph& graph, const Timeline& tl,
                              const TraceOptions& options) {
  return chrome_trace(graph, tl, options).dump();
}

namespace {

/// Track ids for the per-worker replay trace: workers of one lane are
/// contiguous, lanes are spaced out so new workers never collide.
int worker_tid(int lane, int worker) { return lane * 100 + worker; }

}  // namespace

json::Value async_chrome_trace(const Graph& graph,
                               const exec::OpStream& stream,
                               const std::vector<exec::OpSpan>& spans,
                               const TraceOptions& options) {
  json::Array events;
  events.push_back(meta_event(
      "process_name", 0, {{"name", json::Value("pooch async replay")}}));

  // One named track per (lane, worker) actually used by the replay.
  const char* lane_names[exec::kNumLanes] = {"compute", "copy d2h",
                                             "copy h2d"};
  std::vector<std::pair<int, int>> tracks;  // (lane, worker)
  for (const auto& span : spans) {
    const std::pair<int, int> key{span.lane, span.worker};
    if (std::find(tracks.begin(), tracks.end(), key) == tracks.end()) {
      tracks.push_back(key);
    }
  }
  std::sort(tracks.begin(), tracks.end());
  std::vector<double> track_busy(tracks.size(), 0.0);
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const auto [lane, worker] = tracks[t];
    const int tid = worker_tid(lane, worker);
    const std::string name =
        std::string(lane_names[lane]) + " w" + std::to_string(worker);
    events.push_back(
        meta_event("thread_name", tid, {{"name", json::Value(name)}}));
    events.push_back(meta_event("thread_sort_index", tid,
                                {{"sort_index", json::Value(tid)}}));
  }

  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const exec::StreamOp& op = stream.ops[i];
    const exec::OpSpan& span = spans[i];
    OpKind kind;
    if (!exec::timeline_kind(op.type, kind)) continue;
    OpRecord rec;
    rec.kind = kind;
    rec.node = op.node;
    rec.value = op.value;
    rec.start = span.start;
    rec.end = span.end;
    json::Object e;
    e["ph"] = "X";
    e["pid"] = 0;
    e["tid"] = worker_tid(span.lane, span.worker);
    e["cat"] = json::Value(sim::op_kind_name(kind));
    e["name"] = json::Value(slice_name(graph, rec));
    e["ts"] = json::Value(span.start * kToMicros);
    e["dur"] = json::Value((span.end - span.start) * kToMicros);
    e["cname"] = json::Value(slice_color(rec, options));
    json::Object args = op_args(graph, rec, options);
    args["op_index"] = json::Value(static_cast<std::int64_t>(i));
    if (span.wait > 0.0) {
      args["dep_wait_us"] = json::Value(span.wait * kToMicros);
    }
    e["args"] = json::Value(std::move(args));
    events.push_back(json::Value(std::move(e)));
    const auto t = std::find(tracks.begin(), tracks.end(),
                             std::pair<int, int>{span.lane, span.worker});
    track_busy[static_cast<std::size_t>(t - tracks.begin())] +=
        span.end - span.start;
  }

  for (const auto& [seconds, label] : options.markers) {
    json::Object m;
    m["ph"] = "i";
    m["s"] = "g";
    m["pid"] = 0;
    m["tid"] = worker_tid(exec::kComputeLane, 0);
    m["cat"] = "calibration";
    m["name"] = json::Value(label);
    m["ts"] = json::Value(seconds * kToMicros);
    events.push_back(json::Value(std::move(m)));
  }

  json::Object summary;
  const char* lane_keys[exec::kNumLanes] = {"compute", "d2h", "h2d"};
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const auto [lane, worker] = tracks[t];
    summary[std::string(lane_keys[lane]) + "_w" + std::to_string(worker) +
            "_busy_s"] = json::Value(track_busy[t]);
  }
  summary["num_ops"] = json::Value(stream.ops.size());

  json::Object root;
  root["traceEvents"] = json::Value(std::move(events));
  root["displayTimeUnit"] = "ms";
  root["pooch"] = json::Value(std::move(summary));
  return json::Value(std::move(root));
}

void write_async_chrome_trace(const std::string& path, const Graph& graph,
                              const exec::OpStream& stream,
                              const std::vector<exec::OpSpan>& spans,
                              const TraceOptions& options) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open trace file for writing: " + path);
  f << async_chrome_trace(graph, stream, spans, options).dump() << "\n";
  if (!f.good()) throw Error("failed writing trace file: " + path);
}

void write_chrome_trace(const std::string& path, const Graph& graph,
                        const Timeline& tl, const TraceOptions& options) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw Error("cannot open trace file for writing: " + path);
  f << chrome_trace_json(graph, tl, options) << "\n";
  if (!f.good()) throw Error("failed writing trace file: " + path);
}

}  // namespace pooch::obs
