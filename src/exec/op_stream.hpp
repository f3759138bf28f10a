// Replayable op stream: the schedule the simulator decided, exported as
// a dependency graph. It is the one thing that executes: the simulator
// runs no kernels, and every real execution applies these ops to a
// `sim::DataBackend` through `DataBackend::apply` — serially in index
// order (`sim::RunOptions::data`) or with real threads
// (exec::AsyncExecutor).
//
// When `sim::RunOptions::export_stream` is set, the runtime emits one
// StreamOp per scheduled action: forward/backward/recompute/update on the
// compute lane, swap-outs on the D2H lane, swap-ins on the H2D lane, and
// the frees that retire feature maps and gradients. Ops are emitted in
// the simulator's program order, so the stream's index order is
// simultaneously
//   (a) a topological order of the dependency edges (every dep index is
//       smaller than the op that carries it), and
//   (b) per lane, the simulated start-time order (the runtime's stream
//       cursors are monotone).
// Property (a) makes FIFO replay deadlock-free: at any instant the
// lowest-indexed unexecuted op has all dependencies already executed.
// Property (b) means FIFO replay reproduces the simulated stream order.
//
// Dependency edges come from per-value-slot serialization: each op lists
// the previous toucher of every value slot it reads, moves, or writes,
// but only when that toucher runs on a *different* lane — same-lane
// ordering is already guaranteed by FIFO replay. Parameter and gradient
// slots are touched exclusively by compute-lane ops (swaps move feature
// maps only), so they never contribute edges.
//
// Cancelled prefetches (the rescue chain's cancel_latest_prefetch) are
// tombstoned by the builder and compacted out in finish(), with every
// surviving dep index remapped — an exported stream can never contain a
// dangling H2D op that no longer has a consumer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/autodiff.hpp"
#include "graph/graph.hpp"
#include "sim/timeline.hpp"

namespace pooch::exec {

enum class OpType : std::uint8_t {
  kBeginIteration,  // place graph inputs (writes all input slots)
  kForward,         // forward kernel of `node`
  kBackward,        // backward step of `node` (reads its tape `needed` set)
  kRecompute,       // re-run forward of `node` to rematerialize `value`
  kUpdate,          // SGD parameter update
  kSwapOut,         // move `value` device->host (retires the device copy)
  kSwapIn,          // deep-copy `value` host->device
  kFreeValue,       // drop the device copy of `value`
  kFreeGrad,        // drop the gradient slot of `value`
};

/// Execution lanes, mirroring the simulator's three streams.
enum Lane : int { kComputeLane = 0, kD2HLane = 1, kH2DLane = 2 };
inline constexpr int kNumLanes = 3;

Lane lane_of(OpType type);
const char* op_type_name(OpType type);
/// The timeline kind an op is drawn as; false for begin-iteration and
/// frees, which are bookkeeping, not timeline ops.
bool timeline_kind(OpType type, sim::OpKind& kind);

struct StreamOp {
  OpType type{};
  graph::NodeId node = graph::kNoNode;
  graph::ValueId value = -1;
  /// Indices of ops that must complete before this one may start.
  /// Always strictly smaller than this op's own index; cross-lane only.
  std::vector<std::int32_t> deps;
  /// Transfer size for swaps; freed host bytes for a releasing free.
  std::size_t bytes = 0;
  /// kFreeValue that also retires the host (swap-file) copy.
  bool releases_host = false;
  /// The simulator's scheduled span, for reporting / trace comparison.
  double sim_start = 0.0;
  double sim_end = 0.0;
};

struct OpStream {
  std::vector<StreamOp> ops;
  /// Iteration index the schedule was exported for (dropout key epoch).
  std::uint64_t iteration = 0;
  /// Ops the builder tombstoned (cancelled prefetches), for stats.
  int cancelled_ops = 0;

  int count(OpType type) const;
  int lane_count(Lane lane) const;

  /// Structural self-check: dep indices are in range and acyclic by
  /// construction (dep < op), edges are cross-lane, and replaying the
  /// stream in index order keeps every read residency-correct — each
  /// forward/backward/recompute input is device-resident when used, a
  /// swap-in targets a host-resident, device-absent slot (a dangling or
  /// duplicated H2D op is reported here), and frees drop live copies.
  /// Returns human-readable violations; empty means the stream is sound.
  std::vector<std::string> validate(
      const graph::Graph& graph,
      const std::vector<graph::BwdStep>& tape) const;

  std::string to_string(const graph::Graph& graph) const;
};

/// Incremental builder used by the runtime. Tracks the last toucher of
/// every value slot so each emission gets its cross-lane dependency
/// edges; supports tombstoning the latest swap-in of a value when the
/// rescue chain cancels a prefetch.
class OpStreamBuilder {
 public:
  explicit OpStreamBuilder(int num_values);

  /// Append an op touching `touched` value slots (read, moved, or
  /// written — all serialize equally because swap-out is a destructive
  /// move). Returns the op's index.
  int emit(OpType type, graph::NodeId node, graph::ValueId value,
           std::span<const graph::ValueId> touched, std::size_t bytes,
           double sim_start, double sim_end);

  /// Convenience for single-value ops (swaps, frees).
  int emit_value(OpType type, graph::ValueId value, std::size_t bytes,
                 double sim_start, double sim_end);

  /// Tombstone the most recent, still-unconsumed kSwapIn of `value`
  /// (mirrors Runtime's cancel_latest_prefetch + unrecord_swapin). The
  /// cancelled op is guaranteed dependency-free on the consumer side:
  /// cancellation is only legal while no later op has touched the slot.
  void cancel_swapin(graph::ValueId value);

  /// Mark the last emitted kFreeValue-style retirement of `value` as
  /// also releasing `bytes` of host swap space.
  void set_releases_host(int op_index, std::size_t bytes);

  /// Compact tombstones, remap dep indices, and hand the stream over.
  /// The builder is left empty.
  OpStream finish(std::uint64_t iteration);

  int size() const { return static_cast<int>(ops_.size()); }

 private:
  std::vector<StreamOp> ops_;
  std::vector<char> cancelled_;
  /// Per value slot: index of the last op that touched it, -1 if none.
  std::vector<std::int32_t> last_toucher_;
  /// For swap-ins only: the toucher the slot had before the swap-in,
  /// so cancel_swapin can roll the chain back.
  std::vector<std::int32_t> prev_toucher_of_op_;
};

}  // namespace pooch::exec
