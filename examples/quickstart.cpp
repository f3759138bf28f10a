// Quickstart: train a small CNN through the full PoocH pipeline on a
// deliberately tiny virtual GPU, with REAL numeric execution attached —
// and verify that out-of-core training is bit-identical to in-core.
//
//   build/examples/quickstart
//
// Walkthrough:
//   1. build a computation graph with the model zoo,
//   2. describe the machine (a 64 MiB "GPU", slow interconnect),
//   3. run PoocH: profile -> classify -> execute,
//   4. train a few iterations under the plan with real kernels,
//   5. compare against an in-core run on an unconstrained device.
#include <cstdio>

#include "common/strings.hpp"
#include "graph/autodiff.hpp"
#include "kernels/kernel_context.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"
#include "tensor/tensor_ops.hpp"

using namespace pooch;

int main() {
  // 1. The network: a 3-stage CNN on 32x32 images, batch 32. Its
  // training iteration needs ~3x the device memory configured below.
  graph::Graph g = models::small_cnn(/*batch=*/32, /*image=*/32, /*width_mult=*/3);
  const auto tape = graph::build_backward_tape(g);
  std::printf("network: %d layers, %d feature maps, %.1f MiB parameters\n",
              g.num_nodes(), g.num_values(),
              bytes_to_mib(g.total_param_bytes()));

  // 2. The machine: a 26 MiB device pool and a 2 GB/s link — far too
  // small to keep every activation resident.
  auto machine = cost::test_machine(/*capacity_mib=*/26);
  machine.link_gbps = 2.0;
  const sim::CostTimeModel hardware(g, machine);
  const sim::Runtime runtime(g, tape, machine, hardware);

  const auto incore =
      runtime.run(sim::Classification(g, sim::ValueClass::kKeep));
  std::printf("in-core on this device: %s\n",
              incore.ok ? "fits (increase the model!)" : "out of memory");

  // 3. PoocH: profile a few swap-all iterations, classify every feature
  // map into keep/swap/recompute, execute.
  planner::PipelineOptions options;
  const auto result = planner::run_pooch(g, tape, machine, hardware, options);
  if (!result.ok) {
    std::printf("PoocH could not fit this workload: %s\n",
                result.execution.failure.c_str());
    return 1;
  }
  std::printf("\n%s", result.plan.summary(g).c_str());
  std::printf("iteration: %s -> %.0f images/s (peak %.1f of %.1f MiB)\n",
              format_time(result.iteration_time).c_str(),
              result.throughput(32),
              bytes_to_mib(result.execution.peak_bytes),
              bytes_to_mib(machine.usable_gpu_bytes()));

  // 4. Train 5 iterations with real data under the plan, running the
  // numeric kernels across 4 threads (the reference run below stays
  // serial — every kernel is bit-identical at any thread count, so the
  // comparison still demands exact equality).
  kernels::KernelContext kctx(/*threads=*/4);
  sim::DataBackend ooc_backend(g, /*seed=*/42, /*learning_rate=*/0.05f,
                               &kctx);
  sim::RunOptions ro;
  ro.data = &ooc_backend;
  std::printf("\ntraining under the PoocH classification:\n");
  for (int i = 0; i < 5; ++i) {
    ro.iteration = static_cast<std::uint64_t>(i);
    const auto r = runtime.run(result.plan.classes, ro);
    if (!r.ok) {
      std::printf("iteration %d failed: %s\n", i, r.failure.c_str());
      return 1;
    }
    std::printf("  iter %d: loss %.4f\n", i, ooc_backend.loss());
  }

  // 5. The same 5 iterations as plain in-core training — no scheduler,
  // no swapping, a single thread — must produce bit-identical numbers.
  sim::DataBackend ref_backend(g, /*seed=*/42, /*learning_rate=*/0.05f);
  sim::train_incore(g, tape, ref_backend, 0, 5);
  const bool identical = ooc_backend.loss() == ref_backend.loss() &&
                         ooc_backend.param_norm() == ref_backend.param_norm();
  std::printf("\nout-of-core vs in-core after 5 iterations: %s\n",
              identical ? "bit-identical ✓" : "MISMATCH ✗");
  return identical ? 0 : 1;
}
