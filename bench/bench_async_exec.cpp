// Overlapped vs inline out-of-core execution, measured on real kernels.
//
//   build/bench/bench_async_exec [output.json]
//
// For each OOC workload (ResNet-50 and AlexNet under a device capacity
// tight enough to force swap traffic) the bench runs one real training
// iteration two ways:
//
//   inline — sim::Runtime drives the DataBackend directly: every swap
//            copy executes on the compute thread, blocking the kernels
//            around it;
//   async  — the same schedule is exported as an op stream and replayed
//            through exec::AsyncExecutor, with dedicated H2D/D2H copy
//            workers retiring transfers while the compute thread runs.
//
// Both paths are verified bit-identical to a serial in-core reference
// before timing; a fast-but-wrong executor aborts the bench. `speedup`
// is inline_seconds / async_seconds (>1 = overlap helped). The `cpus`
// field records std::thread::hardware_concurrency(): on a single-CPU
// host the copy workers timeshare with compute, so speedup ~1.0 is the
// honest expectation there and the JSON says so (tools/bench_compare.py
// compares like against like only).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cost/cost_model.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "models/models.hpp"
#include "pooch/pipeline.hpp"
#include "sim/runtime.hpp"

namespace pooch::bench {
namespace {

constexpr std::uint64_t kSeed = 0x5eed;

struct Row {
  std::string model;
  std::string policy;
  int copy_workers = 1;
  int compute_workers = 1;
  double inline_seconds = 0.0;
  double async_seconds = 0.0;
  double speedup = 0.0;
  std::size_t swapped_bytes = 0;
};

struct Workload {
  std::string name;
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;
  std::unique_ptr<sim::Runtime> rt;

  Workload(std::string n, graph::Graph graph)
      : name(std::move(n)),
        g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()) {
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
    rt = std::make_unique<sim::Runtime>(g, tape, machine, *tm);
  }

  /// Clamp the device so only `pct` percent of the keep-all activation
  /// headroom (peak minus the persistent parameter pool, which can never
  /// be swapped) fits — the schedule has to swap feature maps. Rebuilds
  /// the runtime on the tighter machine.
  void tighten(int pct) {
    // Probe on a roomy machine so repeated tightening stays idempotent.
    cost::MachineConfig roomy = cost::x86_pcie();
    sim::CostTimeModel probe_tm(g, roomy);
    sim::Runtime probe_rt(g, tape, roomy, probe_tm);
    const auto keep =
        probe_rt.run(sim::Classification(g, sim::ValueClass::kKeep));
    if (!keep.ok) {
      std::fprintf(stderr, "%s: keep-all probe failed: %s\n", name.c_str(),
                   keep.failure.c_str());
      std::exit(1);
    }
    machine.gpu_capacity_bytes =
        keep.persistent_bytes +
        (keep.peak_bytes - keep.persistent_bytes) * pct / 100;
    machine.gpu_reserved_bytes = 0;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
    rt = std::make_unique<sim::Runtime>(g, tape, machine, *tm);
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void check_reference(const Workload& w, const sim::DataBackend& got,
                     const char* what) {
  sim::DataBackend ref(w.g, kSeed);
  sim::train_incore(w.g, w.tape, ref, 0, 1);
  const float a = got.loss();
  const float b = ref.loss();
  if (std::memcmp(&a, &b, sizeof(float)) != 0 ||
      got.param_norm() != ref.param_norm()) {
    std::fprintf(stderr, "%s %s: NOT bit-identical to in-core reference\n",
                 w.name.c_str(), what);
    std::exit(1);
  }
}

/// Best-of-`reps` wall time for one inline iteration (the schedule, then
/// its serial replay: swaps execute on the compute thread).
double time_inline(const Workload& w, const sim::Classification& c,
                   int reps, std::size_t* swapped) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    sim::DataBackend data(w.g, kSeed);
    sim::RunOptions ro;
    ro.data = &data;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = w.rt->run(c, ro);
    const double s = seconds_since(t0);
    if (!r.ok) {
      std::fprintf(stderr, "%s inline run failed: %s\n", w.name.c_str(),
                   r.failure.c_str());
      std::exit(1);
    }
    *swapped = r.swapped_bytes;
    if (s < best) best = s;
    if (rep == reps - 1) check_reference(w, data, "inline");
  }
  return best;
}

/// Best-of-`reps` wall time for the same schedule replayed through the
/// AsyncExecutor (export time excluded — the stream is recorded once and
/// reused, as a training loop would).
double time_async(const Workload& w, const exec::OpStream& stream,
                  int copy_workers, int compute_workers, int reps) {
  const exec::AsyncExecutor executor(w.g, stream);
  exec::AsyncOptions ao;
  ao.workers_per_copy_lane = copy_workers;
  ao.compute_workers = compute_workers;
  ao.time_model = w.tm.get();
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    sim::DataBackend data(w.g, kSeed);
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = executor.run(data, ao);
    const double s = seconds_since(t0);
    if (!res.ok) {
      std::fprintf(stderr, "%s async run failed: %s\n", w.name.c_str(),
                   res.failure.c_str());
      std::exit(1);
    }
    if (s < best) best = s;
    if (rep == reps - 1) check_reference(w, data, "async");
  }
  return best;
}

void run_workload(Workload& w, int capacity_pct, int reps,
                  std::vector<Row>& rows) {
  // Tightest capacity (in 10-point steps up from `capacity_pct`) at
  // which the swap-all schedule is still feasible — fragmentation and
  // unswappable workspaces set a per-model floor.
  bool feasible = false;
  for (int pct = capacity_pct; pct <= 95 && !feasible; pct += 10) {
    w.tighten(pct);
    try {
      (void)planner::record_op_stream(
          *w.rt, sim::Classification(w.g, sim::ValueClass::kSwap));
      feasible = true;
    } catch (const Error&) {
    }
  }
  if (!feasible) {
    std::fprintf(stderr, "%s: no feasible OOC capacity found\n",
                 w.name.c_str());
    std::exit(1);
  }
  struct Policy {
    const char* name;
    sim::Classification classes;
  };
  std::vector<Policy> policies;
  policies.push_back(
      {"swap-all", sim::Classification(w.g, sim::ValueClass::kSwap)});
  planner::PoochPlanner planner(w.g, w.tape, w.machine, *w.tm);
  const auto plan = planner.plan();
  if (plan.feasible) policies.push_back({"pooch", plan.classes});

  for (auto& p : policies) {
    exec::OpStream stream;
    try {
      stream = planner::record_op_stream(*w.rt, p.classes);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s %s: export infeasible: %s\n", w.name.c_str(),
                   p.name, e.what());
      continue;
    }
    std::size_t swapped = 0;
    const double inline_s = time_inline(w, p.classes, reps, &swapped);
    // The copy-worker sweep at serial compute (the PR-5 shape), then the
    // compute-worker sweep at 2 copy workers: one axis moves at a time
    // so regressions bisect cleanly.
    const std::pair<int, int> sweep[] = {{1, 1}, {2, 1}, {2, 2}, {2, 4}};
    for (const auto& [copy, compute] : sweep) {
      const double async_s = time_async(w, stream, copy, compute, reps);
      Row r;
      r.model = w.name;
      r.policy = p.name;
      r.copy_workers = copy;
      r.compute_workers = compute;
      r.inline_seconds = inline_s;
      r.async_seconds = async_s;
      r.speedup = async_s > 0.0 ? inline_s / async_s : 0.0;
      r.swapped_bytes = swapped;
      rows.push_back(r);
      std::printf("| %-10s | %-8s | %4d | %7d | %10.4f | %10.4f | %7.3f |\n",
                  r.model.c_str(), r.policy.c_str(), r.copy_workers,
                  r.compute_workers, r.inline_seconds, r.async_seconds,
                  r.speedup);
    }
  }
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"async_exec\",\n  \"cpus\": %u,\n"
               "  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"policy\": \"%s\", "
                 "\"copy_workers\": %d, \"compute_workers\": %d, "
                 "\"inline_seconds\": %.6f, "
                 "\"async_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"swapped_bytes\": %zu}%s\n",
                 r.model.c_str(), r.policy.c_str(), r.copy_workers,
                 r.compute_workers, r.inline_seconds, r.async_seconds,
                 r.speedup, r.swapped_bytes, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwritten to %s\n", path);
}

int run(const char* json_path) {
  std::printf("| model      | policy   | copy | compute | inline (s) "
              "| async (s)  | speedup |\n"
              "|------------|----------|------|---------|------------"
              "|------------|---------|\n");
  std::vector<Row> rows;
  // Small-resolution ResNet-50 and stock AlexNet: OOC once the device is
  // clamped to 60% of the keep-all peak, yet one real iteration stays in
  // benchable range on a laptop-class CPU.
  {
    Workload w("resnet50", models::resnet50(4, 64, 64));
    run_workload(w, /*capacity_pct=*/60, /*reps=*/2, rows);
  }
  {
    Workload w("alexnet", models::alexnet(8, 64));
    run_workload(w, /*capacity_pct=*/60, /*reps=*/2, rows);
  }
  // Branchy workload: parallel inception branches are the case where
  // multi-worker compute has independent ops to dispatch at all.
  {
    Workload w("inception", models::inception_toy(4, 32));
    run_workload(w, /*capacity_pct=*/60, /*reps=*/2, rows);
  }
  write_json(json_path, rows);
  return 0;
}

}  // namespace
}  // namespace pooch::bench

int main(int argc, char** argv) {
  return pooch::bench::run(argc > 1 ? argv[1] : "BENCH_async_exec.json");
}
