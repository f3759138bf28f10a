// Real numeric execution of the op stream the simulator exported.
//
// One engine schedules, the stream executes: apply() is the single
// mapping from an exec::StreamOp to kernels and host<->device moves,
// shared by the serial replay (RunOptions::data) and the threaded
// exec::AsyncExecutor. "Device" tensors live in values_/grads_; a
// swap-out moves the buffer to host_, a swap-in copies it back.
//
// The backend owns and recycles its tensor storage: freed values, freed
// gradients and backward temporaries go to a free list keyed by element
// count, and every new tensor is drawn from it first. Recycled buffers
// are not zero-filled; kernels write every output element, and the few
// consumers that read before writing zero explicitly. The storage grows
// through the first iteration; from the next begin-iteration on, the
// number of buffers of each size is fixed. When concurrent workers
// happen to need more at once, the extra buffer returns to malloc when
// freed. So an iteration after the first allocates nothing, and the bytes
// held at an iteration boundary stop changing, whatever the interleaving.
//
// Its purpose is verification: training under any feasible
// classification must produce bit-identical losses, gradients and
// updated parameters to train_incore() — a program-order loop sharing no
// code with the scheduler, the stream or apply().
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/autodiff.hpp"
#include "graph/graph.hpp"
#include "kernels/kernel_context.hpp"
#include "tensor/tensor.hpp"

namespace pooch::exec {
struct OpStream;
struct StreamOp;
}
namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::sim {

class DataBackend {
 public:
  /// Initialises parameters, synthetic inputs and labels from `seed`.
  /// `ctx` (not owned, must outlive the backend) selects the kernel
  /// execution context: null runs every kernel serially; a pooled context
  /// runs them multithreaded. Because every kernel is bit-identical
  /// across thread counts, the backend's losses/gradients/parameters do
  /// not depend on which context is attached.
  DataBackend(const graph::Graph& graph, std::uint64_t seed,
              float learning_rate = 0.01f,
              kernels::KernelContext* ctx = nullptr);

  /// RAII override routing the *current thread's* kernel calls on
  /// `backend` through `ctx` instead of the constructor-attached
  /// context. The AsyncExecutor installs one per compute worker so
  /// concurrent kernels never share scratch arenas (a context's
  /// per-slot buffers are private to one running kernel). Other
  /// threads — and this thread once the guard dies — are unaffected.
  /// Bit-exact kernels make the routing invisible in the numerics.
  class ThreadContextGuard {
   public:
    ThreadContextGuard(const DataBackend& backend,
                       kernels::KernelContext* ctx);
    ~ThreadContextGuard();
    ThreadContextGuard(const ThreadContextGuard&) = delete;
    ThreadContextGuard& operator=(const ThreadContextGuard&) = delete;

   private:
    const DataBackend* prev_backend_;
    kernels::KernelContext* prev_ctx_;
  };

  /// Execute one stream op with dropout epoch `iteration`.
  void apply(const exec::StreamOp& op, std::uint64_t iteration);
  /// Serial replay: apply every op of `stream` in index order.
  void replay(const exec::OpStream& stream);

  // --- inspection (tests, examples) ---
  float loss() const;
  const Tensor& value(graph::ValueId v) const;
  bool value_resident(graph::ValueId v) const;
  const Tensor& grad(graph::ValueId v) const;
  const std::vector<Tensor>& params(graph::NodeId node) const;
  const std::vector<Tensor>& param_grads(graph::NodeId node) const;

  /// Flat L2 norm over all parameters (cheap convergence signal).
  double param_norm() const;

  /// Bytes of tensor storage the backend owns: live tensors (parameters,
  /// inputs, device and host copies, gradients) plus its free list.
  std::size_t held_bytes() const;
  /// The most storage bytes live at once so far (free list excluded).
  std::size_t peak_live_bytes() const;
  /// Publishes both as the gauges measured.backend.held_bytes and
  /// measured.backend.peak_live_bytes.
  void publish_memory(obs::StatsRegistry& stats) const;

 private:
  friend void train_incore(const graph::Graph&,
                           const std::vector<graph::BwdStep>&, DataBackend&,
                           std::uint64_t, int);

  // --- what apply() and train_incore() execute ---
  void begin_iteration();  // re-installs the pristine input batch
  void forward(graph::NodeId node, std::uint64_t iteration);
  void backward(graph::NodeId node, std::uint64_t iteration);
  void swap_out(graph::ValueId value);  // device -> host (buffer moves)
  void swap_in(graph::ValueId value);   // host -> device (copies; the
                                        // host copy stays a clean page)
  void free_value(graph::ValueId value);
  void free_grad(graph::ValueId value);
  void update();

  Tensor& ensure_value(graph::ValueId v);
  Tensor& ensure_grad(graph::ValueId v);
  void accumulate_grad(graph::ValueId v, Tensor contribution);
  kernels::KernelContext& kctx() const;

  // --- storage: every tensor the backend owns comes from here ---
  Tensor fresh(const Shape& shape);  // contents unspecified
  Tensor copy_of(const Tensor& t);
  void recycle(Tensor& t);  // storage to the free list; the shape stays

  const graph::Graph& graph_;
  float lr_;
  kernels::KernelContext* ctx_ = nullptr;  // not owned; null = serial
  // Per-thread context override (see ThreadContextGuard). Keyed by
  // backend so a guard on one backend never leaks into another.
  static thread_local const DataBackend* tls_backend_;
  static thread_local kernels::KernelContext* tls_ctx_;
  std::vector<Tensor> input_batch_;  // pristine per-iteration inputs
  std::vector<Tensor> values_;       // device feature maps
  std::vector<Tensor> host_;         // swapped-out host copies
  std::vector<Tensor> grads_;        // feature-map gradients
  std::vector<std::vector<Tensor>> params_;       // per node
  std::vector<std::vector<Tensor>> param_grads_;  // per node
  std::vector<std::int64_t> labels_;
  float last_loss_ = 0.0f;

  // Storage by element count. Guarded: copy workers swap in while
  // compute workers free.
  struct SizeClass {
    std::vector<Tensor::Storage> free;
    std::size_t buffers = 0;  // live + free
    std::size_t limit = 0;    // fixed buffer count once `fixed`
    bool fixed = false;
  };
  mutable std::mutex pool_mu_;
  std::unordered_map<std::int64_t, SizeClass> pool_;
  int iterations_begun_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t free_bytes_ = 0;
  std::size_t peak_live_bytes_ = 0;
};

/// Serial in-core training, the reference every execution is checked
/// against: per iteration (dropout epochs first_iteration, +1, ...) place
/// the inputs, forward in node order, backward in tape order (each
/// gradient freed after its producer's backward), free every feature
/// map, SGD update. Nothing is ever swapped or recomputed.
void train_incore(const graph::Graph& graph,
                  const std::vector<graph::BwdStep>& tape, DataBackend& data,
                  std::uint64_t first_iteration, int iterations);

}  // namespace pooch::sim
