#include "sim/data_backend.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "exec/op_stream.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/dropout.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/fc.hpp"
#include "kernels/pool.hpp"
#include "kernels/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace pooch::sim {

using graph::Graph;
using graph::LayerKind;
using graph::Node;
using graph::NodeId;
using graph::ValueId;

DataBackend::DataBackend(const Graph& graph, std::uint64_t seed, float lr,
                         kernels::KernelContext* ctx)
    : graph_(graph), lr_(lr), ctx_(ctx) {
  const std::size_t nv = static_cast<std::size_t>(graph.num_values());
  values_.resize(nv);
  host_.resize(nv);
  grads_.resize(nv);
  params_.resize(static_cast<std::size_t>(graph.num_nodes()));
  param_grads_.resize(static_cast<std::size_t>(graph.num_nodes()));

  Rng rng(seed);
  // Parameters: Kaiming for weights, zeros for biases/beta, ones for gamma.
  for (const Node& n : graph.nodes()) {
    const auto shapes = graph.param_shapes(n.id);
    auto& ps = params_[static_cast<std::size_t>(n.id)];
    auto& gs = param_grads_[static_cast<std::size_t>(n.id)];
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      Tensor p(shapes[i]);
      Tensor g(shapes[i]);
      if (n.kind == LayerKind::kBatchNorm) {
        p.fill(i == 0 ? 1.0f : 0.0f);  // gamma, beta
      } else if (shapes[i].rank() >= 2) {
        std::int64_t fan_in = 1;
        for (int d = 1; d < shapes[i].rank(); ++d) fan_in *= shapes[i][d];
        fill_kaiming(p, rng, fan_in);
      } else {
        p.zero();  // bias
      }
      ps.push_back(std::move(p));
      gs.push_back(std::move(g));
    }
  }

  // Synthetic inputs: a pristine copy survives across iterations.
  for (ValueId in : graph.inputs()) {
    Tensor t(graph.value(in).shape);
    fill_uniform(t, rng, -1.0f, 1.0f);
    input_batch_.push_back(t);
    values_[static_cast<std::size_t>(in)] = std::move(t);
  }

  // Labels for the loss layer (if present): derived from the logits shape.
  for (const Node& n : graph.nodes()) {
    if (n.kind != LayerKind::kSoftmaxLoss) continue;
    const Shape& logits = graph.value(n.inputs[0]).shape;
    labels_.resize(static_cast<std::size_t>(logits[0]));
    for (auto& l : labels_) {
      l = static_cast<std::int64_t>(rng.below(
          static_cast<std::uint64_t>(logits[1])));
    }
  }
}

thread_local const DataBackend* DataBackend::tls_backend_ = nullptr;
thread_local kernels::KernelContext* DataBackend::tls_ctx_ = nullptr;

DataBackend::ThreadContextGuard::ThreadContextGuard(
    const DataBackend& backend, kernels::KernelContext* ctx)
    : prev_backend_(tls_backend_), prev_ctx_(tls_ctx_) {
  tls_backend_ = &backend;
  tls_ctx_ = ctx;
}

DataBackend::ThreadContextGuard::~ThreadContextGuard() {
  tls_backend_ = prev_backend_;
  tls_ctx_ = prev_ctx_;
}

kernels::KernelContext& DataBackend::kctx() const {
  if (tls_backend_ == this && tls_ctx_) return *tls_ctx_;
  return ctx_ ? *ctx_ : kernels::KernelContext::serial();
}

void DataBackend::begin_iteration() {
  const auto& ins = graph_.inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    values_[static_cast<std::size_t>(ins[i])] = input_batch_[i];
  }
}

Tensor& DataBackend::ensure_value(ValueId v) {
  Tensor& t = values_[static_cast<std::size_t>(v)];
  if (t.numel() == 0 || t.empty()) t = Tensor(graph_.value(v).shape);
  return t;
}

Tensor& DataBackend::ensure_grad(ValueId v) {
  Tensor& t = grads_[static_cast<std::size_t>(v)];
  if (t.numel() == 0 || t.empty()) {
    t = Tensor(graph_.value(v).shape);
    // The loss output's gradient is the backward seed.
    if (v == graph_.output()) t.fill(1.0f);
  }
  return t;
}

void DataBackend::accumulate_grad(ValueId v, Tensor contribution) {
  Tensor& t = grads_[static_cast<std::size_t>(v)];
  if (t.numel() == 0 || t.empty()) {
    t = std::move(contribution);
  } else {
    accumulate(t, contribution);
  }
}

void DataBackend::forward(NodeId id, std::uint64_t iteration) {
  const Node& n = graph_.node(id);
  for (ValueId in : n.inputs) {
    POOCH_CHECK_MSG(value_resident(in),
                    "forward of '" << n.name << "': input v" << in
                                   << " not resident");
  }
  const Tensor& x = values_[static_cast<std::size_t>(n.inputs[0])];
  Tensor& y = ensure_value(n.output);
  auto& ps = params_[static_cast<std::size_t>(id)];
  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      kernels::conv_forward(x, ps[0], a.has_bias ? &ps[1] : nullptr, y, a,
                            kctx());
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool:
      kernels::pool_forward(x, y, std::get<PoolAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kGlobalAvgPool:
      kernels::global_avg_pool_forward(x, y, kctx());
      break;
    case LayerKind::kBatchNorm:
      kernels::batchnorm_forward(x, ps[0], ps[1], y,
                                 std::get<BatchNormAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kReLU:
      kernels::relu_forward(x, y, kctx());
      break;
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      kernels::fc_forward(x, ps[0], a.has_bias ? &ps[1] : nullptr, y, a,
                          kctx());
      break;
    }
    case LayerKind::kSoftmaxLoss:
      kernels::softmax_xent_forward(x, labels_, y, kctx());
      last_loss_ = y[0];
      break;
    case LayerKind::kAdd:
      kernels::add_forward(x, values_[static_cast<std::size_t>(n.inputs[1])],
                           y, kctx());
      break;
    case LayerKind::kConcat: {
      std::vector<const Tensor*> ins;
      for (ValueId in : n.inputs) {
        ins.push_back(&values_[static_cast<std::size_t>(in)]);
      }
      kernels::concat_forward(ins, y, kctx());
      break;
    }
    case LayerKind::kFlatten:
      kernels::flatten_forward(x, y, kctx());
      break;
    case LayerKind::kDropout:
      kernels::dropout_forward(x, y, std::get<DropoutAttrs>(n.attrs),
                               iteration, kctx());
      break;
  }
}

void DataBackend::backward(NodeId id, std::uint64_t iteration) {
  const Node& n = graph_.node(id);
  const Tensor& dy = ensure_grad(n.output);
  auto& ps = params_[static_cast<std::size_t>(id)];
  auto& gs = param_grads_[static_cast<std::size_t>(id)];
  const ValueId x_id = n.inputs[0];
  const Shape& x_shape = graph_.value(x_id).shape;
  const bool want_dx = graph_.value(x_id).producer != graph::kNoNode;

  auto stored = [&](ValueId v) -> const Tensor& {
    POOCH_CHECK_MSG(value_resident(v), "backward of '"
                                           << n.name << "': stored v" << v
                                           << " not resident");
    return values_[static_cast<std::size_t>(v)];
  };

  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      Tensor dx;
      if (want_dx) dx = Tensor(x_shape);
      kernels::conv_backward(stored(x_id), ps[0], dy,
                             want_dx ? &dx : nullptr, gs[0],
                             a.has_bias ? &gs[1] : nullptr, a, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      const auto& a = std::get<PoolAttrs>(n.attrs);
      Tensor dx(x_shape);
      if (a.mode == PoolMode::kMax) {
        kernels::pool_backward(stored(x_id), dy, dx, a, kctx());
      } else {
        // Average pooling backward needs only shapes; synthesize a zero
        // input of the right shape for the kernel's geometry checks.
        Tensor zero_x(x_shape);
        kernels::pool_backward(zero_x, dy, dx, a, kctx());
      }
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kGlobalAvgPool: {
      Tensor dx(x_shape);
      kernels::global_avg_pool_backward(x_shape, dy, dx, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kBatchNorm: {
      Tensor dx;
      if (want_dx) dx = Tensor(x_shape);
      kernels::batchnorm_backward(stored(x_id), ps[0], dy,
                                  want_dx ? &dx : nullptr, gs[0], gs[1],
                                  std::get<BatchNormAttrs>(n.attrs), kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kReLU: {
      Tensor dx(x_shape);
      kernels::relu_backward(stored(n.output), dy, dx, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      Tensor dx;
      if (want_dx) dx = Tensor(x_shape);
      kernels::fc_backward(stored(x_id), ps[0], dy, want_dx ? &dx : nullptr,
                           gs[0], a.has_bias ? &gs[1] : nullptr, a, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kSoftmaxLoss: {
      Tensor dx(x_shape);
      kernels::softmax_xent_backward(stored(x_id), labels_, dy, dx, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kAdd: {
      for (ValueId in : n.inputs) {
        if (graph_.value(in).producer == graph::kNoNode) continue;
        Tensor d(graph_.value(in).shape);
        std::memcpy(d.data(), dy.data(),
                    static_cast<std::size_t>(dy.numel()) * sizeof(float));
        accumulate_grad(in, std::move(d));
      }
      break;
    }
    case LayerKind::kConcat: {
      std::vector<Tensor> parts;
      std::vector<Tensor*> ptrs;
      parts.reserve(n.inputs.size());
      for (ValueId in : n.inputs) {
        parts.emplace_back(graph_.value(in).shape);
        ptrs.push_back(&parts.back());
      }
      kernels::concat_backward(dy, ptrs, kctx());
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        if (graph_.value(n.inputs[i]).producer == graph::kNoNode) continue;
        accumulate_grad(n.inputs[i], std::move(parts[i]));
      }
      break;
    }
    case LayerKind::kFlatten: {
      Tensor dx(x_shape);
      kernels::flatten_backward(x_shape, dy, dx, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
    case LayerKind::kDropout: {
      Tensor dx(x_shape);
      kernels::dropout_backward(dy, dx, std::get<DropoutAttrs>(n.attrs),
                                iteration, kctx());
      if (want_dx) accumulate_grad(x_id, std::move(dx));
      break;
    }
  }
  (void)iteration;
}

void DataBackend::swap_out(ValueId v) {
  POOCH_CHECK_MSG(value_resident(v), "swap_out of non-resident v" << v);
  // Move the buffer host-side instead of deep-copying: a swap-out retires
  // the device copy, and moving keeps peak footprint at one copy of the
  // tensor instead of two.
  host_[static_cast<std::size_t>(v)] =
      std::move(values_[static_cast<std::size_t>(v)]);
  values_[static_cast<std::size_t>(v)] = Tensor();
}

void DataBackend::swap_in(ValueId v) {
  Tensor& h = host_[static_cast<std::size_t>(v)];
  POOCH_CHECK_MSG(h.numel() > 0 && h.materialized(),
                  "swap_in without host copy for v" << v);
  // Copy, not move: the runtime treats a swapped-in value as a clean
  // page whose host copy stays valid — rescue eviction drops the device
  // buffer without re-writing host and re-fetches later.
  values_[static_cast<std::size_t>(v)] = h;
}

void DataBackend::free_value(ValueId v) {
  values_[static_cast<std::size_t>(v)].release();
}

void DataBackend::free_grad(ValueId v) {
  grads_[static_cast<std::size_t>(v)].release();
}

void DataBackend::update() {
  // Plain SGD. Elements are independent, so the flat per-tensor range can
  // be partitioned freely — results match the serial loop bit-for-bit.
  for (const Node& n : graph_.nodes()) {
    auto& ps = params_[static_cast<std::size_t>(n.id)];
    auto& gs = param_grads_[static_cast<std::size_t>(n.id)];
    for (std::size_t i = 0; i < ps.size(); ++i) {
      float* p = ps[i].data();
      const float* g = gs[i].data();
      parallel_for(kctx().pool(), ps[i].numel(), 1 << 14,
                   [&](std::int64_t j0, std::int64_t j1, int) {
                     for (std::int64_t j = j0; j < j1; ++j) {
                       p[j] -= lr_ * g[j];
                     }
                   });
    }
  }
}

void DataBackend::apply(const exec::StreamOp& op, std::uint64_t iteration) {
  switch (op.type) {
    case exec::OpType::kBeginIteration:
      begin_iteration();
      break;
    case exec::OpType::kForward:
    case exec::OpType::kRecompute:
      forward(op.node, iteration);
      break;
    case exec::OpType::kBackward:
      backward(op.node, iteration);
      break;
    case exec::OpType::kUpdate:
      update();
      break;
    case exec::OpType::kSwapOut:
      swap_out(op.value);
      break;
    case exec::OpType::kSwapIn:
      swap_in(op.value);
      break;
    case exec::OpType::kFreeValue:
      free_value(op.value);
      break;
    case exec::OpType::kFreeGrad:
      free_grad(op.value);
      break;
  }
}

void DataBackend::replay(const exec::OpStream& stream) {
  for (const exec::StreamOp& op : stream.ops) apply(op, stream.iteration);
}

void train_incore(const Graph& graph, const std::vector<graph::BwdStep>& tape,
                  DataBackend& data, std::uint64_t first_iteration,
                  int iterations) {
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t it = first_iteration + static_cast<std::uint64_t>(i);
    data.begin_iteration();
    for (const Node& n : graph.nodes()) data.forward(n.id, it);
    for (const graph::BwdStep& step : tape) {
      data.backward(step.node, it);
      data.free_grad(graph.node(step.node).output);
    }
    for (const auto& v : graph.values()) data.free_value(v.id);
    data.update();
  }
}

float DataBackend::loss() const { return last_loss_; }

const Tensor& DataBackend::value(ValueId v) const {
  return values_[static_cast<std::size_t>(v)];
}

bool DataBackend::value_resident(ValueId v) const {
  const Tensor& t = values_[static_cast<std::size_t>(v)];
  return t.numel() == 0 ? false : !t.empty();
}

const Tensor& DataBackend::grad(ValueId v) const {
  return grads_[static_cast<std::size_t>(v)];
}

const std::vector<Tensor>& DataBackend::params(NodeId node) const {
  return params_[static_cast<std::size_t>(node)];
}

const std::vector<Tensor>& DataBackend::param_grads(NodeId node) const {
  return param_grads_[static_cast<std::size_t>(node)];
}

double DataBackend::param_norm() const {
  double acc = 0.0;
  for (const auto& ps : params_) {
    for (const Tensor& p : ps) {
      const double n = l2_norm(p);
      acc += n * n;
    }
  }
  return std::sqrt(acc);
}

}  // namespace pooch::sim
