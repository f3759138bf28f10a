#include "sim/data_backend.hpp"

#include <algorithm>
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
#include "obs/stats.hpp"
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
      Tensor p = fresh(shapes[i]);
      Tensor g = fresh(shapes[i]);
      g.zero();
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
    Tensor t = fresh(graph.value(in).shape);
    fill_uniform(t, rng, -1.0f, 1.0f);
    values_[static_cast<std::size_t>(in)] = copy_of(t);
    input_batch_.push_back(std::move(t));
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

Tensor DataBackend::fresh(const Shape& shape) {
  const std::int64_t n = shape.numel();
  const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
  Tensor::Storage storage;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    SizeClass& c = pool_[n];
    if (c.free.empty()) {
      ++c.buffers;
    } else {
      storage = std::move(c.free.back());
      c.free.pop_back();
      free_bytes_ -= bytes;
    }
    live_bytes_ += bytes;
    peak_live_bytes_ = std::max(peak_live_bytes_, live_bytes_);
  }
  if (storage.empty()) storage.resize(static_cast<std::size_t>(n));
  return Tensor(shape, std::move(storage));
}

Tensor DataBackend::copy_of(const Tensor& t) {
  Tensor c = fresh(t.shape());
  std::memcpy(c.data(), t.data(), t.byte_size());
  return c;
}

void DataBackend::recycle(Tensor& t) {
  if (t.empty()) return;
  Tensor::Storage storage = t.take_storage();
  const std::size_t bytes = storage.size() * sizeof(float);
  std::lock_guard<std::mutex> lock(pool_mu_);
  SizeClass& c = pool_[static_cast<std::int64_t>(storage.size())];
  live_bytes_ -= bytes;
  if (c.fixed && c.buffers > c.limit) {
    --c.buffers;  // a surplus buffer: back to malloc as `storage` dies
    return;
  }
  c.free.push_back(std::move(storage));
  free_bytes_ += bytes;
}

void DataBackend::begin_iteration() {
  {
    // Fix the buffer count of every size the previous iterations used.
    // Not at the first begin: until then only the constructor allocated.
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (iterations_begun_++ > 0) {
      for (auto& [n, c] : pool_) {
        if (!c.fixed) {
          c.limit = c.buffers;
          c.fixed = true;
        }
      }
    }
  }
  const auto& ins = graph_.inputs();
  for (std::size_t i = 0; i < ins.size(); ++i) {
    Tensor& t = values_[static_cast<std::size_t>(ins[i])];
    recycle(t);
    t = copy_of(input_batch_[i]);
  }
}

Tensor& DataBackend::ensure_value(ValueId v) {
  Tensor& t = values_[static_cast<std::size_t>(v)];
  if (t.empty()) t = fresh(graph_.value(v).shape);
  return t;
}

Tensor& DataBackend::ensure_grad(ValueId v) {
  Tensor& t = grads_[static_cast<std::size_t>(v)];
  if (t.empty()) {
    // Read before anything writes it: zero, or the backward seed (1) for
    // the loss output.
    t = fresh(graph_.value(v).shape);
    t.fill(v == graph_.output() ? 1.0f : 0.0f);
  }
  return t;
}

void DataBackend::accumulate_grad(ValueId v, Tensor contribution) {
  Tensor& t = grads_[static_cast<std::size_t>(v)];
  if (t.empty()) {
    t = std::move(contribution);
  } else {
    accumulate(t, contribution, kctx().pool());
    recycle(contribution);
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
  // The input gradient contribution, when one is wanted; kernels write it
  // in full, so it needs no zero fill. Add and Concat route dy to each of
  // their inputs themselves.
  const bool fans_out =
      n.kind == LayerKind::kAdd || n.kind == LayerKind::kConcat;
  Tensor dx;
  if (want_dx && !fans_out) dx = fresh(x_shape);
  Tensor* const dxp = want_dx ? &dx : nullptr;

  auto stored = [&](ValueId v) -> const Tensor& {
    POOCH_CHECK_MSG(value_resident(v), "backward of '"
                                           << n.name << "': stored v" << v
                                           << " not resident");
    return values_[static_cast<std::size_t>(v)];
  };

  // Layers without parameters have nothing to compute when no input
  // gradient is wanted.
  switch (n.kind) {
    case LayerKind::kConv: {
      const auto& a = std::get<ConvAttrs>(n.attrs);
      kernels::conv_backward(stored(x_id), ps[0], dy, dxp, gs[0],
                             a.has_bias ? &gs[1] : nullptr, a, kctx());
      break;
    }
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: {
      if (!want_dx) break;
      const auto& a = std::get<PoolAttrs>(n.attrs);
      if (a.mode == PoolMode::kMax) {
        kernels::pool_backward(stored(x_id), dy, dx, a, kctx());
      } else {
        // Average pooling backward reads only the input's shape; any
        // buffer of that shape serves the kernel's geometry checks.
        Tensor geometry = fresh(x_shape);
        kernels::pool_backward(geometry, dy, dx, a, kctx());
        recycle(geometry);
      }
      break;
    }
    case LayerKind::kGlobalAvgPool:
      if (want_dx) kernels::global_avg_pool_backward(x_shape, dy, dx, kctx());
      break;
    case LayerKind::kBatchNorm:
      kernels::batchnorm_backward(stored(x_id), ps[0], dy, dxp, gs[0], gs[1],
                                  std::get<BatchNormAttrs>(n.attrs), kctx());
      break;
    case LayerKind::kReLU:
      if (want_dx) kernels::relu_backward(stored(n.output), dy, dx, kctx());
      break;
    case LayerKind::kFullyConnected: {
      const auto& a = std::get<FcAttrs>(n.attrs);
      kernels::fc_backward(stored(x_id), ps[0], dy, dxp, gs[0],
                           a.has_bias ? &gs[1] : nullptr, a, kctx());
      break;
    }
    case LayerKind::kSoftmaxLoss:
      if (want_dx) {
        kernels::softmax_xent_backward(stored(x_id), labels_, dy, dx, kctx());
      }
      break;
    case LayerKind::kAdd:
      // dy flows to every input unchanged: added straight into a gradient
      // that already exists, copied only to start one.
      for (ValueId in : n.inputs) {
        if (graph_.value(in).producer == graph::kNoNode) continue;
        Tensor& g = grads_[static_cast<std::size_t>(in)];
        if (g.empty()) {
          g = copy_of(dy);
        } else {
          accumulate(g, dy, kctx().pool());
        }
      }
      return;
    case LayerKind::kConcat: {
      std::vector<Tensor> parts;
      std::vector<Tensor*> ptrs;
      parts.reserve(n.inputs.size());
      for (ValueId in : n.inputs) {
        parts.push_back(fresh(graph_.value(in).shape));
        ptrs.push_back(&parts.back());
      }
      kernels::concat_backward(dy, ptrs, kctx());
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        if (graph_.value(n.inputs[i]).producer == graph::kNoNode) {
          recycle(parts[i]);
        } else {
          accumulate_grad(n.inputs[i], std::move(parts[i]));
        }
      }
      return;
    }
    case LayerKind::kFlatten:
      if (want_dx) kernels::flatten_backward(x_shape, dy, dx, kctx());
      break;
    case LayerKind::kDropout:
      if (want_dx) {
        kernels::dropout_backward(dy, dx, std::get<DropoutAttrs>(n.attrs),
                                  iteration, kctx());
      }
      break;
  }
  if (want_dx) accumulate_grad(x_id, std::move(dx));
}

void DataBackend::swap_out(ValueId v) {
  POOCH_CHECK_MSG(value_resident(v), "swap_out of non-resident v" << v);
  // Move the buffer host-side instead of deep-copying: a swap-out retires
  // the device copy, and moving keeps peak footprint at one copy of the
  // tensor instead of two.
  Tensor& h = host_[static_cast<std::size_t>(v)];
  recycle(h);  // the previous iteration's host copy
  h = std::move(values_[static_cast<std::size_t>(v)]);
  values_[static_cast<std::size_t>(v)] = Tensor();
}

void DataBackend::swap_in(ValueId v) {
  Tensor& h = host_[static_cast<std::size_t>(v)];
  POOCH_CHECK_MSG(h.numel() > 0 && h.materialized(),
                  "swap_in without host copy for v" << v);
  // Copy, not move: the runtime treats a swapped-in value as a clean
  // page whose host copy stays valid — rescue eviction drops the device
  // buffer without re-writing host and re-fetches later.
  Tensor& d = values_[static_cast<std::size_t>(v)];
  recycle(d);
  d = copy_of(h);
}

void DataBackend::free_value(ValueId v) {
  recycle(values_[static_cast<std::size_t>(v)]);
}

void DataBackend::free_grad(ValueId v) {
  recycle(grads_[static_cast<std::size_t>(v)]);
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
      // The value's last use: its host copy is dead as well.
      if (op.releases_host) recycle(host_[static_cast<std::size_t>(op.value)]);
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

std::size_t DataBackend::held_bytes() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return live_bytes_ + free_bytes_;
}

std::size_t DataBackend::peak_live_bytes() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return peak_live_bytes_;
}

void DataBackend::publish_memory(obs::StatsRegistry& stats) const {
  stats.gauge("measured.backend.held_bytes")
      .set(static_cast<double>(held_bytes()));
  stats.gauge("measured.backend.peak_live_bytes")
      .set(static_cast<double>(peak_live_bytes()));
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
