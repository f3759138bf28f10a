#include "exec/op_stream.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace pooch::exec {

Lane lane_of(OpType type) {
  switch (type) {
    case OpType::kSwapOut:
      return kD2HLane;
    case OpType::kSwapIn:
      return kH2DLane;
    default:
      return kComputeLane;
  }
}

const char* op_type_name(OpType type) {
  switch (type) {
    case OpType::kBeginIteration:
      return "begin_iteration";
    case OpType::kForward:
      return "forward";
    case OpType::kBackward:
      return "backward";
    case OpType::kRecompute:
      return "recompute";
    case OpType::kUpdate:
      return "update";
    case OpType::kSwapOut:
      return "swap_out";
    case OpType::kSwapIn:
      return "swap_in";
    case OpType::kFreeValue:
      return "free_value";
    case OpType::kFreeGrad:
      return "free_grad";
  }
  return "?";
}

bool timeline_kind(OpType type, sim::OpKind& kind) {
  switch (type) {
    case OpType::kForward: kind = sim::OpKind::kForward; return true;
    case OpType::kBackward: kind = sim::OpKind::kBackward; return true;
    case OpType::kRecompute: kind = sim::OpKind::kRecompute; return true;
    case OpType::kUpdate: kind = sim::OpKind::kUpdate; return true;
    case OpType::kSwapOut: kind = sim::OpKind::kSwapOut; return true;
    case OpType::kSwapIn: kind = sim::OpKind::kSwapIn; return true;
    default: return false;
  }
}

int OpStream::count(OpType type) const {
  return static_cast<int>(
      std::count_if(ops.begin(), ops.end(),
                    [type](const StreamOp& op) { return op.type == type; }));
}

int OpStream::lane_count(Lane lane) const {
  return static_cast<int>(
      std::count_if(ops.begin(), ops.end(), [lane](const StreamOp& op) {
        return lane_of(op.type) == lane;
      }));
}

namespace {

// Residency the replay state machine tracks per feature-map slot.
struct SlotState {
  bool device = false;  // values_[v] holds data
  bool host = false;    // host_[v] holds a swap copy
};

}  // namespace

std::vector<std::string> OpStream::validate(
    const graph::Graph& graph,
    const std::vector<graph::BwdStep>& tape) const {
  std::vector<std::string> errors;
  auto err = [&errors](const std::string& msg) { errors.push_back(msg); };

  std::vector<const graph::BwdStep*> step_of_node(
      static_cast<std::size_t>(graph.num_nodes()), nullptr);
  for (const auto& step : tape) {
    step_of_node[static_cast<std::size_t>(step.node)] = &step;
  }

  std::vector<SlotState> slot(static_cast<std::size_t>(graph.num_values()));
  auto require_resident = [&](graph::ValueId v, int i, const char* why) {
    if (!slot[static_cast<std::size_t>(v)].device) {
      std::ostringstream os;
      os << "op " << i << " (" << op_type_name(ops[static_cast<std::size_t>(i)].type)
         << "): value v" << v << " not device-resident for " << why;
      err(os.str());
    }
  };

  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const StreamOp& op = ops[static_cast<std::size_t>(i)];
    const Lane lane = lane_of(op.type);
    for (std::int32_t d : op.deps) {
      if (d < 0 || d >= i) {
        std::ostringstream os;
        os << "op " << i << ": dep " << d << " out of range (must be < " << i
           << ")";
        err(os.str());
      } else if (lane_of(ops[static_cast<std::size_t>(d)].type) == lane) {
        std::ostringstream os;
        os << "op " << i << ": redundant same-lane dep " << d;
        err(os.str());
      }
    }
    switch (op.type) {
      case OpType::kBeginIteration:
        for (graph::ValueId v : graph.inputs()) {
          slot[static_cast<std::size_t>(v)].device = true;
        }
        break;
      case OpType::kForward:
      case OpType::kRecompute: {
        const graph::Node& n = graph.node(op.node);
        for (graph::ValueId v : n.inputs) require_resident(v, i, "input");
        SlotState& out = slot[static_cast<std::size_t>(n.output)];
        if (op.type == OpType::kRecompute && out.device) {
          std::ostringstream os;
          os << "op " << i << ": recompute of already-resident v" << n.output;
          err(os.str());
        }
        out.device = true;
        break;
      }
      case OpType::kBackward: {
        const graph::BwdStep* step =
            step_of_node[static_cast<std::size_t>(op.node)];
        POOCH_CHECK(step != nullptr);
        for (graph::ValueId v : step->needed) {
          require_resident(v, i, "backward needed");
        }
        break;
      }
      case OpType::kUpdate:
        break;
      case OpType::kSwapOut: {
        require_resident(op.value, i, "swap-out");
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        s.host = true;
        break;
      }
      case OpType::kSwapIn: {
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        if (!s.host) {
          std::ostringstream os;
          os << "op " << i << ": dangling swap-in of v" << op.value
             << " (no host copy)";
          err(os.str());
        }
        if (s.device) {
          std::ostringstream os;
          os << "op " << i << ": duplicate swap-in of resident v" << op.value;
          err(os.str());
        }
        s.device = true;
        break;
      }
      case OpType::kFreeValue: {
        SlotState& s = slot[static_cast<std::size_t>(op.value)];
        s.device = false;
        if (op.releases_host) s.host = false;
        break;
      }
      case OpType::kFreeGrad:
        break;
    }
  }
  return errors;
}

std::string OpStream::to_string(const graph::Graph& graph) const {
  std::ostringstream os;
  os << "OpStream: " << ops.size() << " ops (compute "
     << lane_count(kComputeLane) << ", d2h " << lane_count(kD2HLane)
     << ", h2d " << lane_count(kH2DLane) << "), iteration " << iteration
     << ", " << cancelled_ops << " cancelled\n";
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const StreamOp& op = ops[static_cast<std::size_t>(i)];
    os << "  [" << i << "] " << op_type_name(op.type);
    if (op.node != graph::kNoNode) os << " " << graph.node(op.node).name;
    if (op.value >= 0) os << " v" << op.value;
    if (!op.deps.empty()) {
      os << " deps{";
      for (std::size_t d = 0; d < op.deps.size(); ++d) {
        os << (d ? "," : "") << op.deps[d];
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

OpStreamBuilder::OpStreamBuilder(int num_values)
    : last_toucher_(static_cast<std::size_t>(num_values), -1) {}

int OpStreamBuilder::emit(OpType type, graph::NodeId node,
                          graph::ValueId value,
                          std::span<const graph::ValueId> touched,
                          std::size_t bytes, double sim_start,
                          double sim_end) {
  const int index = static_cast<int>(ops_.size());
  const Lane lane = lane_of(type);
  StreamOp op;
  op.type = type;
  op.node = node;
  op.value = value;
  op.bytes = bytes;
  op.sim_start = sim_start;
  op.sim_end = sim_end;
  std::int32_t prev_for_rollback = -1;
  for (graph::ValueId v : touched) {
    std::int32_t& last = last_toucher_[static_cast<std::size_t>(v)];
    // `last == index` happens when `touched` lists v twice (e.g. add(x,x)).
    if (last >= 0 && last != index &&
        lane_of(ops_[static_cast<std::size_t>(last)].type) != lane) {
      // Cross-lane hazard: serialize against the previous toucher. Same-
      // lane order is already guaranteed by FIFO replay, so skip it.
      if (std::find(op.deps.begin(), op.deps.end(), last) == op.deps.end()) {
        op.deps.push_back(last);
      }
    }
    if (v == value) prev_for_rollback = last;
    last = index;
  }
  ops_.push_back(std::move(op));
  cancelled_.push_back(0);
  prev_toucher_of_op_.push_back(prev_for_rollback);
  return index;
}

int OpStreamBuilder::emit_value(OpType type, graph::ValueId value,
                                std::size_t bytes, double sim_start,
                                double sim_end) {
  const graph::ValueId touched[1] = {value};
  return emit(type, graph::kNoNode, value, touched, bytes, sim_start, sim_end);
}

void OpStreamBuilder::cancel_swapin(graph::ValueId value) {
  const std::int32_t idx = last_toucher_[static_cast<std::size_t>(value)];
  POOCH_CHECK_MSG(idx >= 0 &&
                      ops_[static_cast<std::size_t>(idx)].type == OpType::kSwapIn,
                  "cancel_swapin: v" << value
                                     << " last toucher is not a swap-in");
  POOCH_CHECK(!cancelled_[static_cast<std::size_t>(idx)]);
  cancelled_[static_cast<std::size_t>(idx)] = 1;
  // Roll the toucher chain back to whatever the swap-in depended on, so
  // the next toucher of this slot links past the tombstone.
  last_toucher_[static_cast<std::size_t>(value)] =
      prev_toucher_of_op_[static_cast<std::size_t>(idx)];
}

void OpStreamBuilder::set_releases_host(int op_index, std::size_t bytes) {
  StreamOp& op = ops_[static_cast<std::size_t>(op_index)];
  POOCH_CHECK(op.type == OpType::kFreeValue || op.type == OpType::kSwapIn);
  op.releases_host = true;
  op.bytes = bytes;
}

OpStream OpStreamBuilder::finish(std::uint64_t iteration) {
  OpStream stream;
  stream.iteration = iteration;
  // Compact tombstones and remap dep indices.
  std::vector<std::int32_t> remap(ops_.size(), -1);
  stream.ops.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (cancelled_[i]) {
      ++stream.cancelled_ops;
      continue;
    }
    remap[i] = static_cast<std::int32_t>(stream.ops.size());
    stream.ops.push_back(std::move(ops_[i]));
  }
  for (StreamOp& op : stream.ops) {
    for (std::int32_t& d : op.deps) {
      POOCH_CHECK_MSG(remap[static_cast<std::size_t>(d)] >= 0,
                      "op stream: dep on cancelled op " << d);
      d = remap[static_cast<std::size_t>(d)];
    }
  }
  ops_.clear();
  cancelled_.clear();
  prev_toucher_of_op_.clear();
  std::fill(last_toucher_.begin(), last_toucher_.end(), -1);
  return stream;
}

}  // namespace pooch::exec
