// Shared execution context for the numeric kernel layer.
//
// A KernelContext bundles the two resources every fast kernel needs:
//   - a ThreadPool the kernels fan row/plane/channel partitions over
//     (via pooch::parallel_for), and
//   - per-slot scratch arenas: reusable float buffers keyed by
//     (slot, arena), where `slot` is the parallel_for block index. A
//     block only ever touches its own slot, so concurrent blocks never
//     share workspace, and the buffers persist across kernel calls —
//     the conv column buffer (slot 0) and the GEMM packing panels (one
//     per slot) are allocated once and reused for the whole run.
//
// Passing a context is optional: every kernel defaults to
// KernelContext::serial(), a thread-local single-threaded context, so
// existing call sites (tests, gradient checks) keep working unchanged
// and two threads running serial kernels never race on scratch.
//
// When `stats` is set, every kernel entry point publishes
// kernel.<name>.calls and kernel.<name>.ns counters into it, which is
// what `pooch_cli --stats` prints to show where numeric time goes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"

namespace pooch::obs {
class StatsRegistry;
}

namespace pooch::kernels {

class KernelContext {
 public:
  /// Scratch arena ids; each slot keeps one growable buffer per arena so
  /// a kernel can hold (e.g.) an im2col column buffer and GEMM packing
  /// panels alive at the same time without them aliasing.
  enum Arena : int { kColArena = 0, kGemmArena = 1, kArenaCount = 2 };

  /// `threads` is total parallelism including the calling thread; 0 means
  /// one per hardware core, 1 (the default) means fully serial.
  explicit KernelContext(int threads = 1);
  ~KernelContext();

  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  int threads() const { return pool_ ? pool_->size() : 1; }

  /// Null when the context is serial.
  ThreadPool* pool() { return pool_.get(); }

  /// Scratch buffer of at least `floats` floats for (slot, arena).
  /// Grows geometrically and is reused across calls; contents are
  /// unspecified on entry. slot must be < threads().
  float* scratch(int slot, Arena arena, std::size_t floats);

  /// Optional metrics sink for per-kernel call counts / cumulative ns.
  obs::StatsRegistry* stats = nullptr;

  /// Thread-local serial context used when no context is passed.
  static KernelContext& serial();

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::vector<float>> scratch_;  // [slot * kArenaCount + arena]
};

/// RAII timer: publishes kernel.<name>.calls and kernel.<name>.ns into
/// ctx.stats when set; zero work otherwise.
class KernelTimer {
 public:
  KernelTimer(KernelContext& ctx, const char* name)
      : stats_(ctx.stats), name_(name) {
    if (stats_) t0_ = std::chrono::steady_clock::now();
  }
  ~KernelTimer();

  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  obs::StatsRegistry* stats_;
  const char* name_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace pooch::kernels
