// pooch — command-line front end for the library.
//
//   pooch --model resnet50 --batch 512 --machine x86 --method pooch
//   pooch --model resnext3d --frames 96 --image 384 --machine power9 --method all
//   pooch --model vgg16 --batch 320 --gpu-gb 24 --link-gbps 32 --method all
//
// Prints the run outcome (throughput, peak memory, stalls), optionally the
// classification and an ASCII timeline. `--method all` compares every
// method on the same workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/policies.hpp"
#include "baselines/superneurons.hpp"
#include "common/strings.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "kernels/kernel_context.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"

using namespace pooch;

namespace {

/// The simulated methods, in the order `--method all` runs them.
constexpr const char* kMethods[] = {"incore",       "swap-all-naive",
                                    "swap-all",     "swap-opt",
                                    "superneurons", "vdnn",
                                    "sublinear",    "pooch"};

bool known_method(const std::string& m) {
  return m == "all" || m == "exec" ||
         std::ranges::find(kMethods, m) != std::end(kMethods);
}

struct CliOptions {
  std::string model = "resnet50";
  std::string machine = "x86";
  std::string method = "pooch";
  std::int64_t batch = 256;
  std::int64_t image = 0;      // 0 = model default
  std::int64_t frames = 32;    // resnext3d only
  double gpu_gb = 0.0;         // 0 = machine default
  double link_gbps = 0.0;      // 0 = machine default
  int threads = 1;             // planner search parallelism; 0 = all cores
  int kernel_threads = 0;      // >0: execute real kernels on N threads
  bool async_exec = false;     // replay the schedule through AsyncExecutor
  int copy_workers = 1;        // H2D/D2H worker threads per copy lane
  int compute_workers = 1;     // compute worker threads (async executor)
  bool measured_profile = false;  // run the measured calibration loop
  int calibration_iters = 3;      // measured iterations per round (k)
  int calibration_warmup = 1;     // unrecorded warm-up iterations
  double replan_threshold = 0.25; // drift triggering a re-plan
  double blend = 1.0;             // measured vs scaled-roofline blend
  double inject_drift = 1.0;      // !=1: force a miscalibrated model
  bool timeline = false;
  bool show_classes = false;
  bool validate = false;   // run the TimelineValidator over each run
  bool show_stats = false; // print the metrics registry at exit
  bool help = false;
  std::string save_plan;  // write PoocH's classification here
  std::string load_plan;  // execute this saved classification instead
  std::string trace;      // write a Chrome-trace JSON here

  /// Per-op spans are needed for --timeline, --trace and --validate.
  bool want_timeline() const {
    return timeline || validate || !trace.empty();
  }
};

void usage() {
  std::printf(
      "pooch — out-of-core training planner/simulator\n\n"
      "  --model M       mlp | small_cnn | alexnet | vgg16 | resnet18 |\n"
      "                  resnet50 | resnext3d | inception | paper_example\n"
      "  --batch N       batch size (default 256)\n"
      "  --image N       input resolution (model default if omitted)\n"
      "  --frames N      clip length for resnext3d (default 32)\n"
      "  --machine M     x86 (PCIe gen3) | power9 (NVLink2)\n"
      "  --gpu-gb G      override device memory (GiB)\n"
      "  --link-gbps B   override interconnect bandwidth\n"
      "  --method M      incore | swap-all | swap-all-naive | swap-opt |\n"
      "                  superneurons | vdnn | sublinear | pooch | exec |\n"
      "                  all. Exit status 1 when a method runs out of\n"
      "                  device memory or finds no feasible plan\n"
      "  --threads N     parallelize the planner's classification search\n"
      "                  over N threads (0 = one per core, default 1);\n"
      "                  the chosen plan is identical at any setting\n"
      "  --kernel-threads N\n"
      "                  attach a real numeric backend and execute the\n"
      "                  scheduled kernels on N threads (0 = off, the\n"
      "                  default; N includes the calling thread). Prints\n"
      "                  the training loss and verifies it bit-identical\n"
      "                  to a serial in-core reference run; nonzero exit\n"
      "                  on mismatch\n"
      "  --async-exec    export the method's schedule as a replayable op\n"
      "                  stream and execute it through the asynchronous\n"
      "                  out-of-core executor (compute workers plus\n"
      "                  dedicated H2D/D2H copy workers). Verifies the\n"
      "                  result bit-identical to a serial in-core\n"
      "                  reference; nonzero exit on mismatch\n"
      "  --copy-workers N\n"
      "                  copy worker threads per transfer lane for\n"
      "                  --async-exec (default 1)\n"
      "  --compute-workers N\n"
      "                  compute worker threads for --async-exec and\n"
      "                  --measured-profile (default 1 = serial program\n"
      "                  order). Above 1, ready ops are dispatched by\n"
      "                  critical-path priority over the hazard-derived\n"
      "                  dependency DAG; results stay bit-identical\n"
      "  --measured-profile\n"
      "                  close the profiling loop: plan on the analytic\n"
      "                  model, execute the plan for real through the\n"
      "                  async executor, calibrate the planner's time\n"
      "                  model from measured per-op wall times, re-plan\n"
      "                  when predicted vs observed iteration time\n"
      "                  drifts, and verify every executed iteration\n"
      "                  bit-identical to serial in-core training;\n"
      "                  nonzero exit on mismatch (docs/PROFILING.md)\n"
      "  --calibration-iters K\n"
      "                  measured iterations per calibration round\n"
      "                  (median-of-K, default 3)\n"
      "  --calibration-warmup N\n"
      "                  unrecorded warm-up iterations per round\n"
      "                  (default 1)\n"
      "  --replan-threshold X\n"
      "                  re-plan when |predicted-observed|/observed\n"
      "                  exceeds X (default 0.25)\n"
      "  --blend B       weight of the measurement vs the scaled\n"
      "                  analytic fallback for observed ops (default 1)\n"
      "  --inject-drift F\n"
      "                  multiply calibrated times by F to emulate a\n"
      "                  stale profile (test/bench knob, default 1)\n"
      "  --timeline      render an ASCII timeline of the run\n"
      "  --trace F       write a Chrome-trace JSON (chrome://tracing,\n"
      "                  ui.perfetto.dev); --method all writes one file\n"
      "                  per method (F gains a .<method> infix)\n"
      "  --validate      check every recorded timeline against the\n"
      "                  structural invariants; nonzero exit on violation\n"
      "  --stats         print the metrics registry before exiting\n"
      "  --classes       dump the per-feature-map classification\n"
      "  --save-plan F   write PoocH's classification to file F\n"
      "  --load-plan F   execute a saved classification (method 'exec')\n"
      "  --help\n");
}

bool parse_args(int argc, char** argv, CliOptions& o) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--help" || a == "-h") {
      o.help = true;
    } else if (a == "--timeline") {
      o.timeline = true;
    } else if (a == "--classes") {
      o.show_classes = true;
    } else if (a == "--validate") {
      o.validate = true;
    } else if (a == "--stats") {
      o.show_stats = true;
    } else if (a == "--trace" && (v = need_value(i))) {
      o.trace = v;
    } else if (a == "--model" && (v = need_value(i))) {
      o.model = v;
    } else if (a == "--machine" && (v = need_value(i))) {
      o.machine = v;
    } else if (a == "--method" && (v = need_value(i))) {
      o.method = v;
    } else if (a == "--batch" && (v = need_value(i))) {
      o.batch = std::atol(v);
    } else if (a == "--image" && (v = need_value(i))) {
      o.image = std::atol(v);
    } else if (a == "--frames" && (v = need_value(i))) {
      o.frames = std::atol(v);
    } else if (a == "--gpu-gb" && (v = need_value(i))) {
      o.gpu_gb = std::atof(v);
    } else if (a == "--link-gbps" && (v = need_value(i))) {
      o.link_gbps = std::atof(v);
    } else if (a == "--threads" && (v = need_value(i))) {
      o.threads = std::atoi(v);
    } else if (a == "--kernel-threads" && (v = need_value(i))) {
      o.kernel_threads = std::atoi(v);
    } else if (a == "--async-exec") {
      o.async_exec = true;
    } else if (a == "--copy-workers" && (v = need_value(i))) {
      o.copy_workers = std::atoi(v);
    } else if (a == "--compute-workers" && (v = need_value(i))) {
      o.compute_workers = std::atoi(v);
    } else if (a == "--measured-profile") {
      o.measured_profile = true;
    } else if (a == "--calibration-iters" && (v = need_value(i))) {
      o.calibration_iters = std::atoi(v);
    } else if (a == "--calibration-warmup" && (v = need_value(i))) {
      o.calibration_warmup = std::atoi(v);
    } else if (a == "--replan-threshold" && (v = need_value(i))) {
      o.replan_threshold = std::atof(v);
    } else if (a == "--blend" && (v = need_value(i))) {
      o.blend = std::atof(v);
    } else if (a == "--inject-drift" && (v = need_value(i))) {
      o.inject_drift = std::atof(v);
    } else if (a == "--save-plan" && (v = need_value(i))) {
      o.save_plan = v;
    } else if (a == "--load-plan" && (v = need_value(i))) {
      o.load_plan = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (!known_method(o.method)) {
    std::fprintf(stderr, "unknown method: %s (valid:", o.method.c_str());
    for (const char* k : kMethods) std::fprintf(stderr, " %s", k);
    std::fprintf(stderr, " exec all)\n");
    return false;
  }
  return true;
}

graph::Graph build_model(const CliOptions& o) {
  auto img = [&](std::int64_t def) { return o.image > 0 ? o.image : def; };
  if (o.model == "mlp") return models::mlp(o.batch, 256, {512, 512}, 10);
  if (o.model == "small_cnn") return models::small_cnn(o.batch, img(32));
  if (o.model == "alexnet") return models::alexnet(o.batch);
  if (o.model == "vgg16") return models::vgg16(o.batch, img(224));
  if (o.model == "resnet18") return models::resnet18(o.batch, img(224));
  if (o.model == "resnet50") return models::resnet50(o.batch, img(224));
  if (o.model == "resnext3d") {
    return models::resnext101_3d(o.batch, o.frames, img(224));
  }
  if (o.model == "inception") return models::inception_toy(o.batch, img(64));
  if (o.model == "paper_example") {
    return models::paper_example(o.batch, img(56));
  }
  throw Error("unknown model: " + o.model);
}

cost::MachineConfig build_machine(const CliOptions& o) {
  cost::MachineConfig m;
  if (o.machine == "x86") {
    m = cost::x86_pcie();
  } else if (o.machine == "power9") {
    m = cost::power9_nvlink();
  } else {
    throw Error("unknown machine: " + o.machine);
  }
  if (o.gpu_gb > 0.0) {
    m.gpu_capacity_bytes = static_cast<std::size_t>(o.gpu_gb * kGiB);
    // Keep the context/driver reservation proportionate on small pools.
    m.gpu_reserved_bytes =
        std::min(m.gpu_reserved_bytes, m.gpu_capacity_bytes / 20);
  }
  if (o.link_gbps > 0.0) m.link_gbps = o.link_gbps;
  return m;
}

struct Context {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> hardware;
  std::unique_ptr<sim::Runtime> runtime;
  const CliOptions& o;
  int exit_status = 0;
  /// Serial in-core training of one iteration (see incore_reference).
  std::unique_ptr<sim::DataBackend> reference{};
};

/// Trace path for one method: `--method all` expands run.trace.json into
/// run.pooch.trace.json, run.swap-all.trace.json, ... so the files do not
/// overwrite each other.
std::string trace_path_for(const CliOptions& o, const char* name) {
  if (o.method != "all") return o.trace;
  const std::size_t dot = o.trace.find('.');
  std::string method = name;
  for (char& c : method) {
    if (c == ' ' || c == '(' || c == ')') c = '-';
  }
  if (dot == std::string::npos) return o.trace + "." + method;
  return o.trace.substr(0, dot) + "." + method + o.trace.substr(dot);
}

/// Insert an infix before the first extension: run.trace.json ->
/// run.async.trace.json (keeps `--trace` outputs from colliding).
std::string with_infix(const std::string& path, const char* infix) {
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) return path + "." + infix;
  return path.substr(0, dot) + "." + infix + path.substr(dot);
}

/// Seed for the synthetic parameters/batch whenever the CLI attaches a
/// real numeric backend (--kernel-threads, --async-exec). Fixed so the
/// loss printed by any method/thread count is comparable.
constexpr std::uint64_t kDataSeed = 0x5eed;

/// The reference every numeric run is checked against: one iteration of
/// serial in-core training from kDataSeed. Built on first use and shared
/// by every method of the invocation.
const sim::DataBackend& incore_reference(Context& ctx) {
  if (!ctx.reference) {
    ctx.reference = std::make_unique<sim::DataBackend>(ctx.g, kDataSeed);
    sim::train_incore(ctx.g, ctx.tape, *ctx.reference, 0, 1);
  }
  return *ctx.reference;
}

/// --async-exec: export the schedule the simulator just timed as a
/// replayable op stream, execute it for real through the AsyncExecutor
/// (concurrent copy workers against a fresh numeric backend), and demand
/// the result bit-identical to serial in-core training.
void run_async_exec(Context& ctx, const char* name,
                    const sim::Classification& classes, sim::RunOptions ro) {
  ro.data = nullptr;
  ro.stats = nullptr;
  ro.record_timeline = false;
  ro.export_stream = nullptr;
  exec::OpStream stream;
  try {
    stream = planner::record_op_stream(*ctx.runtime, classes, ro);
  } catch (const Error& e) {
    std::printf("%-16s async exec: export infeasible (%s)\n", "", e.what());
    ctx.exit_status = 1;
    return;
  }
  sim::DataBackend data(ctx.g, kDataSeed);
  const exec::AsyncExecutor executor(ctx.g, stream);
  exec::AsyncOptions ao;
  ao.workers_per_copy_lane = ctx.o.copy_workers;
  ao.compute_workers = ctx.o.compute_workers;
  ao.time_model = ctx.hardware.get();
  ao.stats = ctx.o.show_stats ? &obs::StatsRegistry::global() : nullptr;
  const exec::AsyncResult res = executor.run(data, ao);
  if (ao.stats) data.publish_memory(*ao.stats);
  if (!res.ok) {
    std::fprintf(stderr, "%s: async execution FAILED: %s\n", name,
                 res.failure.c_str());
    ctx.exit_status = 1;
    return;
  }
  if (ctx.o.validate) {
    const obs::TimelineValidator validator(ctx.g, ctx.tape);
    const auto rep = validator.check_replay(stream, res.spans);
    if (rep.ok()) {
      std::printf("%-16s async replay respects the dependency partial "
                  "order (%zu ops)\n",
                  "", stream.ops.size());
    } else {
      std::fprintf(stderr, "%s: async replay order INVALID\n%s", name,
                   rep.to_string().c_str());
      ctx.exit_status = 1;
    }
  }

  const sim::DataBackend& ref = incore_reference(ctx);
  const float got = data.loss();
  const float want = ref.loss();
  const bool same = std::memcmp(&got, &want, sizeof(float)) == 0 &&
                    data.param_norm() == ref.param_norm();
  std::printf("%-16s async exec, %d compute / %d copy worker(s): wall %s   "
              "compute busy %s wait %s   H2D busy %s   D2H busy %s\n",
              "", ctx.o.compute_workers, ctx.o.copy_workers,
              format_time(res.wall_seconds).c_str(),
              format_time(res.lane_busy[exec::kComputeLane]).c_str(),
              format_time(res.lane_wait[exec::kComputeLane]).c_str(),
              format_time(res.lane_busy[exec::kH2DLane]).c_str(),
              format_time(res.lane_busy[exec::kD2HLane]).c_str());
  std::printf("%-16s async exec loss %.6f: %s\n", "", got,
              same ? "bit-identical to serial in-core reference"
                   : "MISMATCH vs serial in-core reference");
  if (!same) ctx.exit_status = 1;
  if (!ctx.o.trace.empty()) {
    const std::string path =
        with_infix(trace_path_for(ctx.o, name), "async");
    obs::write_async_chrome_trace(path, ctx.g, stream, res.spans, {});
    std::printf("%-16s async trace written to %s\n", "", path.c_str());
  }
}

/// Print one method's outcome; returns whether its run completed.
bool report(Context& ctx, const char* name, const sim::RunResult& r,
            const std::array<int, 3>* counts = nullptr,
            const sim::Classification* classes = nullptr,
            const sim::RunOptions* run_opts = nullptr) {
  if (!r.ok) {
    // An OOM is a result of the simulation, and still a failed command.
    std::printf("%-16s OOM\n", name);
    if (ctx.o.timeline) std::printf("%s\n", r.failure.c_str());
    ctx.exit_status = 1;
    return false;
  }
  std::printf("%-16s %9.1f items/s   iteration %-10s peak %7s   "
              "stall %s\n",
              name, r.throughput(ctx.o.batch),
              format_time(r.iteration_time).c_str(),
              format_bytes(r.peak_bytes).c_str(),
              format_time(r.compute_stall).c_str());
  if (counts) {
    std::printf("%-16s keep %d / swap %d / recompute %d\n", "",
                (*counts)[0], (*counts)[1], (*counts)[2]);
  }
  if (ctx.o.timeline) {
    std::fputs(r.timeline.render(ctx.g).c_str(), stdout);
  }
  if (ctx.o.validate) {
    obs::TimelineValidator validator(ctx.g, ctx.tape);
    const obs::ValidationReport rep =
        validator.check_run(r, ctx.machine.usable_gpu_bytes());
    if (rep.ok()) {
      std::printf("%-16s timeline valid (%zu ops)\n", "",
                  r.timeline.ops.size());
    } else {
      std::fprintf(stderr, "%s: timeline INVALID\n%s", name,
                   rep.to_string().c_str());
      ctx.exit_status = 1;
    }
  }
  if (!ctx.o.trace.empty()) {
    obs::TraceOptions topt;
    topt.classes = classes;
    const std::string path = trace_path_for(ctx.o, name);
    obs::write_chrome_trace(path, ctx.g, r.timeline, topt);
    std::printf("%-16s trace written to %s\n", "", path.c_str());
  }
  if (ctx.o.async_exec && classes) {
    run_async_exec(ctx, name, *classes,
                   run_opts ? *run_opts : sim::RunOptions{});
  }
  return true;
}

/// After a method executed real kernels through `data`, demand results
/// bit-identical to serial in-core training — the CLI-level check of the
/// transparency and kernel determinism contracts (any schedule, any
/// thread count, same bits).
void verify_kernel_run(Context& ctx, const sim::DataBackend& data) {
  const sim::DataBackend& ref = incore_reference(ctx);
  const float got = data.loss();
  const float want = ref.loss();
  const bool same = std::memcmp(&got, &want, sizeof(float)) == 0 &&
                    data.param_norm() == ref.param_norm();
  std::printf("%-16s loss %.6f on %d kernel thread(s): %s\n", "", got,
              ctx.o.kernel_threads,
              same ? "bit-identical to serial in-core reference"
                   : "MISMATCH vs serial in-core reference");
  if (!same) ctx.exit_status = 1;
  if (ctx.o.show_stats) data.publish_memory(obs::StatsRegistry::global());
}

/// --measured-profile: the full calibration loop (docs/PROFILING.md).
/// Plans on the analytic model, executes the plan for real, calibrates
/// the time model from measured per-op wall times, re-plans on drift,
/// and verifies bit-identity against serial in-core training.
void run_measured_profile(Context& ctx) {
  obs::StatsRegistry* stats =
      ctx.o.show_stats ? &obs::StatsRegistry::global() : nullptr;
  kernels::KernelContext kctx(std::max(1, ctx.o.kernel_threads));
  kctx.stats = stats;

  planner::MeasuredPipelineOptions mo;
  mo.pipeline.planner.stats = stats;
  mo.pipeline.planner.threads = ctx.o.threads;
  mo.measure.iterations = ctx.o.calibration_iters;
  mo.measure.warmup_iterations = ctx.o.calibration_warmup;
  mo.measure.copy_workers = ctx.o.copy_workers;
  mo.measure.compute_workers = ctx.o.compute_workers;
  mo.measure.stats = stats;
  mo.calibrate.blend = ctx.o.blend;
  mo.calibrate.inject_drift = ctx.o.inject_drift;
  mo.replan_threshold = ctx.o.replan_threshold;
  mo.kernel_ctx = &kctx;
  mo.collect_session_timeline = !ctx.o.trace.empty();
  mo.stats = stats;

  const auto out = planner::run_pooch_measured(ctx.g, ctx.tape, ctx.machine,
                                               *ctx.hardware, mo);
  if (!out.failure.empty()) {
    std::fprintf(stderr, "measured profile FAILED: %s\n",
                 out.failure.c_str());
    ctx.exit_status = 1;
    return;
  }

  const auto& plan = out.final_plan;
  std::printf("%-16s keep %d / swap %d / recompute %d%s\n",
              "measured pooch", plan.counts[0], plan.counts[1],
              plan.counts[2],
              out.replans > 0 ? "  (re-planned on calibrated times)" : "");
  std::printf("%-16s measured %d iterations (median-of-%d, %d warm-up), "
              "compute coverage %.0f%%, %lld outlier(s) rejected\n", "",
              out.iterations_executed, ctx.o.calibration_iters,
              ctx.o.calibration_warmup,
              out.measured.compute_coverage() * 100.0,
              static_cast<long long>(out.measured.outliers_rejected()));
  std::printf("%-16s observed iteration %-10s\n", "",
              format_time(out.observed_seconds).c_str());
  std::printf("%-16s roofline   predicted %-10s error %6.1f%%\n", "",
              format_time(out.roofline_predicted).c_str(),
              out.roofline_error * 100.0);
  std::printf("%-16s calibrated predicted %-10s error %6.1f%%\n", "",
              format_time(out.calibrated_predicted).c_str(),
              out.calibrated_error * 100.0);
  std::printf("%-16s drift checks %d, re-plans %d, last drift %.1f%% "
              "(threshold %.0f%%)\n", "", out.drift_checks, out.replans,
              out.last_drift_error * 100.0, ctx.o.replan_threshold * 100.0);
  std::printf("%-16s loss %.6f after %d iteration(s): %s\n", "", out.loss,
              out.iterations_executed,
              out.bit_identical
                  ? "bit-identical to serial in-core reference"
                  : "MISMATCH vs serial in-core reference");
  if (!out.ok) ctx.exit_status = 1;

  if (!ctx.o.trace.empty()) {
    obs::TraceOptions topt;
    topt.classes = &plan.classes;
    topt.markers = out.trace_markers;
    const std::string path = with_infix(ctx.o.trace, "calibration");
    obs::write_chrome_trace(path, ctx.g, out.session_timeline, topt);
    std::printf("%-16s session trace written to %s\n", "", path.c_str());
  }
  if (ctx.o.show_classes) {
    std::fputs(plan.classes.to_string(ctx.g).c_str(), stdout);
  }
  if (!ctx.o.save_plan.empty()) {
    std::ofstream f(ctx.o.save_plan);
    f << plan.classes.serialize() << "\n";
    std::printf("plan saved to %s\n", ctx.o.save_plan.c_str());
  }
}

void run_method(Context& ctx, const std::string& method) {
  obs::StatsRegistry* stats =
      ctx.o.show_stats ? &obs::StatsRegistry::global() : nullptr;
  // --kernel-threads: attach a fresh numeric backend so the scheduled
  // kernels really execute. Fresh per method so `--method all` gives every
  // method the same starting parameters (and therefore the same loss).
  std::unique_ptr<kernels::KernelContext> kctx;
  std::unique_ptr<sim::DataBackend> data;
  if (ctx.o.kernel_threads > 0) {
    kctx = std::make_unique<kernels::KernelContext>(ctx.o.kernel_threads);
    kctx->stats = stats;
    data = std::make_unique<sim::DataBackend>(ctx.g, kDataSeed, 0.01f,
                                              kctx.get());
  }
  // The CLI's per-run settings on top of a method's own run options.
  auto with_cli = [&](sim::RunOptions opts) {
    opts.record_timeline = ctx.o.want_timeline();
    opts.stats = stats;
    opts.data = data.get();
    return opts;
  };
  const sim::RunOptions ro = with_cli({});
  bool ran = false;
  if (method == "incore") {
    const sim::Classification c(ctx.g, sim::ValueClass::kKeep);
    ran = report(ctx, "in-core", ctx.runtime->run(c, ro), nullptr, &c);
  } else if (method == "swap-all") {
    const sim::Classification c(ctx.g, sim::ValueClass::kSwap);
    const auto opts = with_cli(baselines::swap_all_scheduled_options());
    ran = report(ctx, "swap-all", ctx.runtime->run(c, opts), nullptr, &c,
                 &opts);
  } else if (method == "swap-all-naive") {
    const sim::Classification c(ctx.g, sim::ValueClass::kSwap);
    const auto opts = with_cli(baselines::swap_all_naive_options());
    ran = report(ctx, "swap-all-naive", ctx.runtime->run(c, opts), nullptr,
                 &c, &opts);
  } else if (method == "swap-opt") {
    planner::PlannerOptions popt;
    popt.stats = stats;
    popt.threads = ctx.o.threads;
    planner::PoochPlanner planner(ctx.g, ctx.tape, ctx.machine,
                                  *ctx.hardware, popt);
    const auto plan = planner.plan_keep_swap_only();
    if (!plan.feasible) {
      std::printf("%-16s infeasible\n", "swap-opt");
      ctx.exit_status = 1;
      return;
    }
    ran = report(ctx, "swap-opt", planner::execute_plan(*ctx.runtime, plan, ro),
                 &plan.counts, &plan.classes);
  } else if (method == "superneurons") {
    const auto plan = baselines::superneurons_plan(ctx.g, ctx.tape,
                                                   ctx.machine,
                                                   *ctx.hardware);
    const auto opts = with_cli(baselines::superneurons_run_options());
    ran = report(ctx, "superneurons", ctx.runtime->run(plan.classes, opts),
                 &plan.counts, &plan.classes, &opts);
  } else if (method == "vdnn") {
    const auto c = baselines::vdnn_conv_classify(ctx.g, ctx.tape);
    ran = report(ctx, "vdnn", ctx.runtime->run(c, ro), nullptr, &c);
  } else if (method == "sublinear") {
    const auto c = baselines::sublinear_classify(ctx.g, ctx.tape);
    ran = report(ctx, "sublinear", ctx.runtime->run(c, ro), nullptr, &c);
  } else if (method == "pooch") {
    planner::PipelineOptions po;
    po.planner.stats = stats;
    po.planner.threads = ctx.o.threads;
    const auto out = planner::run_pooch(ctx.g, ctx.tape, ctx.machine,
                                        *ctx.hardware, po);
    if (!out.ok) {
      std::printf("%-16s %s\n", "pooch",
                  out.plan.feasible ? "execution failed" : "infeasible");
      ctx.exit_status = 1;
      return;
    }
    // The pipeline's own execution ran without our backend and timeline,
    // so re-execute the plan whenever either is requested.
    const auto r = out.execution.ok && !ctx.o.want_timeline() && !data
                       ? out.execution
                       : planner::execute_plan(*ctx.runtime, out.plan, ro);
    ran = report(ctx, "pooch", r, &out.plan.counts, &out.plan.classes);
    if (ctx.o.show_classes) {
      std::fputs(out.plan.classes.to_string(ctx.g).c_str(), stdout);
    }
    std::printf("%s", out.plan.summary(ctx.g).c_str());
    if (!ctx.o.save_plan.empty()) {
      std::ofstream f(ctx.o.save_plan);
      f << out.plan.classes.serialize() << "\n";
      std::printf("plan saved to %s\n", ctx.o.save_plan.c_str());
    }
  } else if (method == "exec") {
    if (ctx.o.load_plan.empty()) {
      std::fprintf(stderr, "method 'exec' needs --load-plan FILE\n");
      ctx.exit_status = 2;
      return;
    }
    std::ifstream f(ctx.o.load_plan);
    if (!f) throw Error("cannot open " + ctx.o.load_plan);
    std::string text;
    f >> text;
    const auto classes = sim::Classification::deserialize(ctx.g, text);
    ran = report(ctx, "exec(saved)", ctx.runtime->run(classes, ro), nullptr,
                 &classes);
    if (!ran) {
      std::fprintf(stderr, "saved plan %s ran out of device memory\n",
                   ctx.o.load_plan.c_str());
    }
  } else {
    throw Error("unknown method: " + method);  // parse_args rejects these
  }
  if (data && ran) verify_kernel_run(ctx, *data);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions o;
  if (!parse_args(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.help) {
    usage();
    return 0;
  }
  try {
    Context ctx{build_model(o), {}, build_machine(o), nullptr, nullptr, o};
    ctx.tape = graph::build_backward_tape(ctx.g);
    ctx.hardware = std::make_unique<sim::CostTimeModel>(ctx.g, ctx.machine);
    ctx.runtime = std::make_unique<sim::Runtime>(ctx.g, ctx.tape, ctx.machine,
                                                 *ctx.hardware);

    std::printf("%s, batch %ld, %s (%g GB GPU, %.0f GB/s link)\n",
                o.model.c_str(), static_cast<long>(o.batch),
                ctx.machine.name.c_str(),
                bytes_to_gib(ctx.machine.gpu_capacity_bytes),
                ctx.machine.link_gbps);
    std::printf("in-core memory requirement: %s\n\n",
                format_bytes(graph::incore_peak_bytes(ctx.g)).c_str());

    if (o.measured_profile) {
      run_measured_profile(ctx);
    } else if (o.method == "all") {
      for (const char* m : kMethods) run_method(ctx, m);
    } else {
      run_method(ctx, o.method);
    }
    if (o.show_stats) {
      std::printf("\n%s", obs::StatsRegistry::global().to_string().c_str());
    }
    return ctx.exit_status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
