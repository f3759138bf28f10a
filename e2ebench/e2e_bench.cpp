// End-to-end out-of-core training benchmark program (see README.md).
//
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//             [--trace-file F]
//   e2e_bench --selftest
//
// Drives PoocH only through its public entry points — the measured
// pipeline (planner::run_pooch_measured), stream export
// (planner::record_op_stream), replay (exec::AsyncExecutor::run), the
// simulated pipeline (planner::run_pooch), the timeline simulator
// (sim::Runtime::run) and the GEMM kernel (kernels::matmul) — and prints
// ONE JSON document of raw measurements on stdout: sample lists,
// bit-exact check pairs and per-layer values. run.py turns it into the
// benchmark's metrics; the verdict arithmetic (percentiles, failure
// counting, GFLOP/s) lives there so its self-test can exercise it.
//
// Workloads:
//   resnet50_ooc_train     ResNet-50 b8 @64px, device clamped to 60% of
//                          the keep-all activation headroom, 3 kernel
//                          threads, 1 compute worker.
//   inception_ooc_branchy  inception_toy b16 @64px, clamped to 75%,
//                          3 compute workers with serial kernels.
//   resnet50_plan_sweep    planner::run_pooch on ResNet-50 @224px,
//                          batch 256/384/512/640 cycled, 4 planner
//                          threads, no real kernels at all.
//
// Every timed iteration (or cycle of plans) records the share of CPU time
// the hypervisor stole during it; run.py keeps the undisturbed samples
// (see kMaxStealShare).
//
// --trace 1 runs the same phases with obs::StatsRegistry sinks attached
// and bench-side spans around every public call; the executor's per-op
// spans become children of their AsyncExecutor::run span. Spans stay in
// memory and are written once, as a Chrome trace, to --trace-file.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "cost/cost_model.hpp"
#include "exec/async_executor.hpp"
#include "exec/op_stream.hpp"
#include "graph/autodiff.hpp"
#include "graph/liveness.hpp"
#include "kernels/kernel_context.hpp"
#include "kernels/matmul.hpp"
#include "models/models.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "pooch/pipeline.hpp"
#include "sim/data_backend.hpp"
#include "sim/runtime.hpp"

namespace e2e {
namespace {

using namespace pooch;
using Clock = std::chrono::steady_clock;
namespace json = obs::json;
using json::Array;
using json::Object;
using json::Value;

constexpr double kMiB = 1024.0 * 1024.0;
/// Compute threads of the training workloads (kernel threads × compute
/// workers): nproc − 1 on the 4-core reference box, leaving one core to
/// the copy workers and the OS.
constexpr int kComputeThreads = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// The tail rule needs at least 11 samples (10 beyond the tail).
constexpr int kMinSamples = 11;
/// A timed unit (iteration, or cycle of plans) is disturbed when the
/// hypervisor stole more than this share of the CPU time its wall time
/// spans on all CPUs. run.py drops disturbed samples; sampling goes on
/// until kMinSamples undisturbed ones exist (see more_samples).
constexpr double kMaxStealShare = 0.03;
constexpr float kLearningRate = 0.01f;
/// Planning phase of a training workload: whole cycles over this many
/// profiling-noise draws, for at least kPlanSeconds.
constexpr int kNoiseDraws = 12;
constexpr double kPlanSeconds = 4.0;

const Clock::time_point kProcessStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Array to_array(const std::vector<double>& v) {
  Array a;
  for (double x : v) a.emplace_back(x);
  return a;
}

/// SplitMix64: derives independent streams (data, profiling noise) from
/// the one benchmark seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string hex_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", u);
  return buf;
}

std::string hex_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

// ---------------------------------------------------------------------
// Peak resident set (VmHWM) of this process.

/// Value of a "Vm...: N kB" line of /proc/self/status in MiB, -1 if
/// absent.
double proc_status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::strtod(line.c_str() + klen + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Reset VmHWM to the current RSS ("5" → clear_refs, Linux ≥ 4.0).
/// Free heap pages are returned first, so the baseline is live memory,
/// not whatever the allocator happened to keep from earlier phases.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// CPU time the hypervisor stole from this VM, summed over all CPUs
/// (the "steal" column of /proc/stat), in seconds; 0 if unavailable.
double steal_seconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  return f ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Steal share of a timed unit started at construction: stolen CPU time
/// over the CPU time its wall time spans on all CPUs.
class StealProbe {
 public:
  StealProbe() : t0_(now_s()), steal0_(steal_seconds()) {}
  double share() const {
    const double cpu = (now_s() - t0_) * std::thread::hardware_concurrency();
    return cpu > 0.0 ? (steal_seconds() - steal0_) / cpu : 0.0;
  }

 private:
  double t0_, steal0_;
};

/// Sampling-loop bound: continue until `seconds` have passed and
/// kMinSamples samples are undisturbed; give up waiting for undisturbed
/// ones at 3 × `seconds`, but never stop before kMinSamples in total.
bool more_samples(double elapsed, double seconds, int clean, int total) {
  if (total < kMinSamples) return true;
  if (elapsed >= 3 * seconds) return false;
  return elapsed < seconds || clean < kMinSamples;
}

// ---------------------------------------------------------------------
// In-memory span recorder, written once as a Chrome trace.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since process start
  double end = 0.0;
  int parent = -1;
  std::int64_t iter = -1;  // spans of one iteration share this id
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int open(std::string name, int parent = -1, std::int64_t iter = -1) {
    if (!on_) return -1;
    const double t = now_s();
    return add(std::move(name), t, t, parent, iter, 0);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  int add(std::string name, double start, double end, int parent,
          std::int64_t iter, int tid) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), start, end, parent, iter, tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  Value chrome() const {
    Array events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Object args{{"id", static_cast<int>(i)}, {"parent", s.parent},
                  {"iter", s.iter}};
      events.emplace_back(Object{{"name", s.name},
                                 {"ph", "X"},
                                 {"pid", 1},
                                 {"tid", s.tid},
                                 {"ts", s.start * 1e6},
                                 {"dur", (s.end - s.start) * 1e6},
                                 {"args", std::move(args)}});
    }
    return Object{{"traceEvents", std::move(events)},
                  {"displayTimeUnit", "ms"}};
  }
  std::size_t size() const { return spans_.size(); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, std::string name, int parent = -1, std::int64_t iter = -1)
      : t_(t), id_(t.open(std::move(name), parent, iter)) {}
  ~Scope() { t_.close(id_); }
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ---------------------------------------------------------------------
// Results shared by all workloads.

struct Report {
  int units = 0;         // iterations / plans / set-ups executed
  int failed_units = 0;  // of those, ones that reported failure
  Array checks;          // {name, got, want}: equal strings = pass
  std::vector<double> setup_s;
  std::vector<double> iter_s;  // timed iterations (plans on the sweep)
  std::vector<double> iter_batch;  // images per timed iteration
  std::vector<double> iter_steal;  // steal share per timed iteration
  std::vector<double> plan_s;
  std::vector<double> plan_steal;  // steal share of each plan's cycle
  double steady_rss_mib = 0.0;
  Object layers;  // per-layer values (traced run)
  Object info;    // free-form context echoed in the output

  void check(std::string name, std::string got, std::string want) {
    checks.emplace_back(Object{{"name", std::move(name)},
                               {"got", std::move(got)},
                               {"want", std::move(want)}});
  }
  void fail(const std::string& what) {
    ++failed_units;
    std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  }
};

/// Graph + tape + machine + analytic time model, heap-pinned because
/// sim::Runtime keeps references to all of them.
struct Model {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<sim::CostTimeModel> tm;

  explicit Model(graph::Graph graph)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(cost::x86_pcie()),
        tm(std::make_unique<sim::CostTimeModel>(g, machine)) {}

  /// Clamp the device so only `pct` percent of the keep-all activation
  /// headroom (peak minus the never-swappable parameter pool) fits.
  void clamp(int pct) {
    const sim::Runtime probe(g, tape, machine, *tm);
    const auto keep = probe.run(sim::Classification(g, sim::ValueClass::kKeep));
    if (!keep.ok) throw Error("keep-all probe failed: " + keep.failure);
    machine.gpu_capacity_bytes =
        keep.persistent_bytes +
        (keep.peak_bytes - keep.persistent_bytes) * static_cast<std::size_t>(pct) / 100;
    machine.gpu_reserved_bytes = 0;
    tm = std::make_unique<sim::CostTimeModel>(g, machine);
  }
};

std::string plan_signature(const planner::PlannerResult& p) {
  return std::to_string(p.counts[0]) + "/" + std::to_string(p.counts[1]) +
         "/" + std::to_string(p.counts[2]) + " t=" +
         hex_bits(p.predicted_time);
}

/// The plan's replayable schedule, with the fallback chain the pipeline
/// uses: as planned (pool clamped to the planning capacity), then on
/// the full device, then with on-demand swap-ins.
exec::OpStream export_plan(const sim::Runtime& rt,
                           const planner::PlannerResult& plan) {
  sim::RunOptions ro;
  ro.swapin_policy = sim::SwapInPolicy::kEagerMemoryAware;
  ro.usable_bytes_override = plan.planning_usable_bytes;
  try {
    return planner::record_op_stream(rt, plan.classes, ro);
  } catch (const Error&) {
  }
  ro.usable_bytes_override = 0;
  try {
    return planner::record_op_stream(rt, plan.classes, ro);
  } catch (const Error&) {
  }
  ro.swapin_policy = sim::SwapInPolicy::kOnDemand;
  return planner::record_op_stream(rt, plan.classes, ro);
}

/// sim.* per-layer values of `plan` on `m`: median Runtime::run and
/// record_op_stream times plus the modelled peak / recomputed bytes.
void sim_layer(const Model& m, const planner::PlannerResult& plan,
               Tracer& tr, int parent, Object& layers) {
  const sim::Runtime rt(m.g, m.tape, m.machine, *m.tm);
  sim::RunOptions ro;
  ro.swapin_policy = sim::SwapInPolicy::kEagerMemoryAware;
  ro.usable_bytes_override = plan.planning_usable_bytes;
  std::vector<double> run_s, export_s;
  sim::RunResult r;
  for (int i = 0; i < 5; ++i) {
    Scope s(tr, "sim::Runtime::run", parent);
    const double t0 = now_s();
    r = rt.run(plan.classes, ro);
    run_s.push_back(now_s() - t0);
  }
  for (int i = 0; i < 3; ++i) {
    Scope s(tr, "planner::record_op_stream", parent);
    const double t0 = now_s();
    (void)export_plan(rt, plan);
    export_s.push_back(now_s() - t0);
  }
  layers["sim.run_ms"] = median(run_s) * 1e3;
  layers["sim.export_s"] = median(export_s);
  layers["sim.planned_peak_mib"] =
      static_cast<double>(plan.predicted_peak) / kMiB;
  layers["sim.recomputed_mib"] =
      r.ok ? static_cast<double>(r.recomputed_bytes) / kMiB : 0.0;
}

/// pooch.* per-layer values: medians over planning runs whose result
/// and planner gauges were captured right after each run.
struct PlanSample {
  planner::PlannerResult plan;
  double step1_s = 0.0, step2_s = 0.0, utilization = 0.0;
};

void pooch_layer(const std::vector<PlanSample>& samples, Object& layers) {
  std::vector<double> plan_s, step1, step2, util;
  for (const auto& s : samples) {
    plan_s.push_back(s.plan.planning_wall_seconds);
    step1.push_back(s.step1_s);
    step2.push_back(s.step2_s);
    util.push_back(s.utilization);
  }
  const planner::PlannerResult& p = samples.front().plan;
  layers["pooch.plan_s"] = median(plan_s);
  layers["pooch.simulations"] = p.simulations;
  layers["pooch.cache_hit_ratio"] =
      p.cache_hits + p.simulations > 0
          ? static_cast<double>(p.cache_hits) /
                static_cast<double>(p.cache_hits + p.simulations)
          : 0.0;
  layers["pooch.step1_s"] = median(step1);
  layers["pooch.step2_s"] = median(step2);
  layers["pooch.worker_utilization"] = median(util);
  layers["pooch.keep"] = p.counts[0];
  layers["pooch.swap"] = p.counts[1];
  layers["pooch.recompute"] = p.counts[2];
}

PlanSample capture_plan(const planner::PipelineResult& r,
                        const obs::StatsRegistry& st) {
  return {r.plan, st.gauge_value("planner.last.step1_seconds"),
          st.gauge_value("planner.last.step2_seconds"),
          st.gauge_value("planner.last.worker_utilization")};
}

void zero_layers(Object& layers, std::initializer_list<const char*> names) {
  for (const char* n : names) layers[n] = 0.0;
}

constexpr std::initializer_list<const char*> kKernelLayers = {
    "kernels.conv_fwd_s",     "kernels.conv_bwd_s",
    "kernels.membound_s",     "kernels.fc_s",
    "kernels.update_s",       "kernels.recompute_s",
    "kernels.recompute_ops",  "kernels.conv_flops",
    "kernels.conv_seconds",   "kernels.gemm_flops",
    "kernels.gemm_1t_seconds", "kernels.gemm_3t_seconds"};
constexpr std::initializer_list<const char*> kExecLayers = {
    "exec.compute_busy_s",   "exec.compute_idle_ratio",
    "exec.exposed_s",        "exec.compute_wait_s",
    "exec.ready_peak",       "exec.critical_path_ratio",
    "exec.h2d_busy_s",       "exec.d2h_busy_s",
    "exec.copy_share",       "exec.swapped_mib",
    "exec.ops",              "exec.schedule_build_s"};
constexpr std::initializer_list<const char*> kProfileLayers = {
    "profile.loop_s", "profile.iterations", "profile.replans",
    "cost.calibrated_error", "cost.roofline_error"};

// ---------------------------------------------------------------------
// Training workloads: set-up, steady state, correctness gate.

struct TrainConfig {
  const char* name;
  graph::Graph (*build)();
  std::int64_t batch;
  int capacity_pct;
  int compute_workers;
  double replan_threshold;
};

const TrainConfig kResNet50 = {
    "resnet50_ooc_train", [] { return models::resnet50(8, 64); }, 8, 60, 1,
    0.25};
// 3 compute workers × serial kernels; the kernel context's threads serve
// only the untimed in-core reference. The re-plan threshold is fixed
// well above the workload's 25–45% calibrated error so the number of
// re-plans (and with it setup_s) cannot flip between runs.
const TrainConfig kInception = {
    "inception_ooc_branchy", [] { return models::inception_toy(16, 64); },
    16, 75, kComputeThreads, 1.0};

/// Everything one set-up produces, alive until the steady phase ends.
struct Prepared {
  std::unique_ptr<Model> model;
  std::unique_ptr<kernels::KernelContext> kctx;
  planner::MeasuredPipelineResult out;
  std::unique_ptr<exec::OpStream> stream;
  std::unique_ptr<exec::AsyncExecutor> executor;
  std::unique_ptr<sim::DataBackend> data;
  double loop_s = 0.0, export_s = 0.0, schedule_build_s = 0.0;
};

/// Per-iteration breakdown of one AsyncExecutor::run.
struct IterBreakdown {
  double wall = 0.0, busy = 0.0, idle = 0.0, wait = 0.0, h2d = 0.0,
         d2h = 0.0, critical = 0.0, span_sum = 0.0;
  double conv_fwd = 0.0, conv_bwd = 0.0, membound = 0.0, fc = 0.0,
         update = 0.0, recompute = 0.0;
  double conv_flops = 0.0;
  int recompute_ops = 0, ready_peak = 0;
};

class TrainBench {
 public:
  TrainBench(const TrainConfig& cfg, std::uint64_t seed, Tracer& tr,
             obs::StatsRegistry* stats)
      : cfg_(cfg),
        data_seed_(mix(seed)),
        noise_seed_(mix(seed ^ 0x6e6f697365ull)),
        tr_(tr),
        stats_(stats) {}

  void run(double seconds, Report& rep) {
    std::unique_ptr<Prepared> p;
    std::vector<double> loop_s, export_s, build_s, cal_err, roof_err,
        replans, iters;
    std::string first_plan;
    for (int i = 0; i < kSetups; ++i) {
      p.reset();  // free the previous set-up before timing the next
      ++rep.units;
      const double t0 = now_s();
      p = setup(rep);
      rep.setup_s.push_back(now_s() - t0);
      if (!p) return;
      loop_s.push_back(p->loop_s);
      export_s.push_back(p->export_s);
      build_s.push_back(p->schedule_build_s);
      cal_err.push_back(p->out.calibrated_error);
      roof_err.push_back(p->out.roofline_error);
      replans.push_back(p->out.replans);
      iters.push_back(p->out.iterations_executed);
      rep.check("setup" + std::to_string(i) + ".pipeline_bit_identical",
                p->out.bit_identical ? "true" : "false", "true");
      const std::string plan = plan_signature(p->out.initial.plan);
      if (i == 0) first_plan = plan;
      rep.check("setup" + std::to_string(i) + ".initial_plan", plan,
                first_plan);
    }
    rep.info["plan"] = plan_signature(p->out.final_plan);
    rep.info["replans"] = to_array(replans);
    rep.info["ops_per_iteration"] = static_cast<int>(p->stream->ops.size());

    // Steady state. Traced runs split the time: an untraced half first
    // (the overhead baseline), then the traced half.
    std::vector<IterBreakdown> untraced, traced;
    reset_peak_rss();
    const double steal0 = steal_seconds();
    std::uint64_t iteration = 0;
    if (!step(*p, iteration, nullptr, -1, rep)) return;  // warm-up
    if (tr_.on()) {
      if (!steady(*p, seconds / 2, iteration, false, untraced, rep)) return;
      if (!steady(*p, seconds / 2, iteration, true, traced, rep)) return;
    } else {
      if (!steady(*p, seconds, iteration, false, untraced, rep)) return;
    }
    rep.steady_rss_mib = proc_status_mib("VmHWM");
    rep.info["steady_steal_s"] = steal_seconds() - steal0;

    gate(*p, iteration, rep);
    plans(*p, rep);

    if (!tr_.on()) return;
    Object& L = rep.layers;
    layers_from(traced, *p, L);
    L["exec.schedule_build_s"] = median(build_s);
    std::vector<double> u, t;
    for (const auto& b : untraced) u.push_back(b.wall);
    for (const auto& b : traced) t.push_back(b.wall);
    L["obs.trace_overhead_ratio"] = median(t) / median(u);
    L["profile.loop_s"] = median(loop_s);
    L["profile.iterations"] = median(iters);
    L["profile.replans"] = median(replans);
    L["cost.calibrated_error"] = median(cal_err);
    L["cost.roofline_error"] = median(roof_err);
    sim_layer(*p->model, p->out.final_plan, tr_, -1, L);
    L["sim.export_s"] = median(export_s);
    gemm_layer(L);
  }

 private:
  std::unique_ptr<Prepared> setup(Report& rep) {
    Scope whole(tr_, "setup");
    auto p = std::make_unique<Prepared>();
    try {
      {
        Scope s(tr_, "models::build + clamp", whole.id());
        p->model = std::make_unique<Model>(cfg_.build());
        p->model->clamp(cfg_.capacity_pct);
      }
      Model& m = *p->model;
      p->kctx = std::make_unique<kernels::KernelContext>(kComputeThreads);
      p->kctx->stats = stats_;

      planner::MeasuredPipelineOptions mo;
      mo.pipeline.profile.noise_seed = noise_seed_;
      mo.pipeline.planner.threads = kComputeThreads;
      mo.pipeline.planner.compute_workers = cfg_.compute_workers;
      mo.pipeline.planner.stats = stats_;
      // One warm-up and one measured iteration, no separate validation:
      // the pipeline re-runs every executed iteration serially in core
      // (~2–3 s each for ResNet-50 on a 4-core host), so each extra one
      // is costly.
      mo.measure.warmup_iterations = 1;
      mo.measure.iterations = 1;
      mo.measure.copy_workers = 1;
      mo.measure.compute_workers = cfg_.compute_workers;
      mo.validation_iterations = 0;
      mo.replan_threshold = cfg_.replan_threshold;
      mo.data_seed = data_seed_;
      mo.learning_rate = kLearningRate;
      mo.kernel_ctx = p->kctx.get();
      mo.stats = stats_;
      {
        Scope s(tr_, "planner::run_pooch_measured", whole.id());
        const double t0 = now_s();
        p->out = planner::run_pooch_measured(m.g, m.tape, m.machine, *m.tm,
                                             mo);
        p->loop_s = now_s() - t0;
      }
      if (!p->out.ok) {
        rep.fail(std::string(cfg_.name) +
                 ": run_pooch_measured failed: " + p->out.failure);
        return nullptr;
      }
      {
        Scope s(tr_, "planner::record_op_stream", whole.id());
        const double t0 = now_s();
        const sim::Runtime rt(m.g, m.tape, m.machine, *m.tm);
        p->stream = std::make_unique<exec::OpStream>(
            export_plan(rt, p->out.final_plan));
        p->export_s = now_s() - t0;
      }
      {
        Scope s(tr_, "exec::AsyncExecutor::AsyncExecutor", whole.id());
        const double t0 = now_s();
        p->executor = std::make_unique<exec::AsyncExecutor>(m.g, *p->stream);
        p->schedule_build_s = now_s() - t0;
      }
      {
        Scope s(tr_, "sim::DataBackend::DataBackend", whole.id());
        p->data = std::make_unique<sim::DataBackend>(
            m.g, data_seed_, kLearningRate, p->kctx.get());
      }
    } catch (const Error& e) {
      rep.fail(std::string(cfg_.name) + ": set-up failed: " + e.what());
      return nullptr;
    }
    return p;
  }

  /// One training iteration through the executor. `parent` >= 0 and a
  /// breakdown sink mark a traced iteration.
  bool step(Prepared& p, std::uint64_t& iteration, IterBreakdown* out,
            int parent, Report& rep) {
    ++rep.units;
    exec::AsyncOptions ao;
    ao.compute_workers = cfg_.compute_workers;
    ao.workers_per_copy_lane = 1;
    // Critical-path priorities from the plan's own (analytic) time
    // model, as run_pooch_measured uses while it does not re-plan. The
    // calibrated model from one measured iteration would make the
    // dispatch order, and with it the inception wall time, differ from
    // run to run.
    ao.time_model = p.model->tm.get();
    ao.stats = parent >= 0 ? stats_ : nullptr;
    p.stream->iteration = iteration;
    const double t0 = now_s();
    exec::AsyncResult res = p.executor->run(*p.data, ao);
    const double t1 = now_s();
    const auto it = static_cast<std::int64_t>(iteration++);
    if (!res.ok) {
      rep.fail(std::string(cfg_.name) + ": iteration " + std::to_string(it) +
               " failed: " + res.failure);
      return false;
    }
    if (!out) return true;
    out->wall = t1 - t0;
    if (parent >= 0) {
      const double wall = out->wall;
      *out = breakdown(*p.model, *p.stream, p.executor->schedule(), res);
      out->wall = wall;
      const int run = tr_.add("exec::AsyncExecutor::run", t0, t1, parent, it, 0);
      for (std::size_t i = 0; i < res.spans.size(); ++i) {
        const exec::OpSpan& s = res.spans[i];
        const exec::StreamOp& op = p.stream->ops[i];
        std::string name = exec::op_type_name(op.type);
        if (op.node != graph::kNoNode) {
          name += " " + p.model->g.node(op.node).name;
        } else if (op.value >= 0) {
          name += " " + p.model->g.value(op.value).name;
        }
        tr_.add(std::move(name), t0 + s.start, t0 + s.end, run, it,
                1 + s.lane * 8 + s.worker);
      }
    }
    return true;
  }

  bool steady(Prepared& p, double seconds, std::uint64_t& iteration,
              bool traced, std::vector<IterBreakdown>& out, Report& rep) {
    Scope phase(tr_, traced ? "steady (traced)" : "steady (untraced)");
    const double t0 = now_s();
    int clean = 0;
    while (more_samples(now_s() - t0, seconds, clean,
                        static_cast<int>(out.size()))) {
      IterBreakdown b;
      const StealProbe probe;
      if (!step(p, iteration, &b, traced ? phase.id() : -1, rep)) {
        return false;
      }
      const double steal = probe.share();
      clean += steal <= kMaxStealShare;
      out.push_back(b);
      if (!traced) {
        rep.iter_s.push_back(b.wall);
        rep.iter_batch.push_back(static_cast<double>(cfg_.batch));
        rep.iter_steal.push_back(steal);
      }
    }
    return true;
  }

  static IterBreakdown breakdown(const Model& m, const exec::OpStream& stream,
                                 const exec::Schedule& sched,
                                 const exec::AsyncResult& res) {
    IterBreakdown b;
    // Measured critical path: the longest chain of the executor's own
    // hazard DAG priced by this run's op spans. (AsyncResult's
    // critical_path_seconds is priced in simulated-device seconds.)
    std::vector<double> chain(stream.ops.size(), 0.0);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      double longest = 0.0;
      for (std::int32_t d : sched.deps[i]) {
        longest = std::max(longest, chain[static_cast<std::size_t>(d)]);
      }
      chain[i] = longest + (res.spans[i].end - res.spans[i].start);
      b.critical = std::max(b.critical, chain[i]);
    }
    for (std::size_t w = 0; w < res.compute_worker_busy.size(); ++w) {
      b.busy += res.compute_worker_busy[w];
      b.idle += res.compute_worker_idle[w];
    }
    b.wait = res.lane_wait[exec::kComputeLane];
    b.d2h = res.lane_busy[exec::kD2HLane];
    b.h2d = res.lane_busy[exec::kH2DLane];
    b.ready_peak = res.ready_peak;
    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
      const exec::StreamOp& op = stream.ops[i];
      if (exec::lane_of(op.type) != exec::kComputeLane) continue;
      const double d = res.spans[i].end - res.spans[i].start;
      b.span_sum += d;
      switch (op.type) {
        case exec::OpType::kForward:
        case exec::OpType::kBackward: {
          const bool fwd = op.type == exec::OpType::kForward;
          const graph::LayerKind kind = m.g.node(op.node).kind;
          if (kind == graph::LayerKind::kConv) {
            (fwd ? b.conv_fwd : b.conv_bwd) += d;
            b.conv_flops += fwd ? cost::forward_cost(m.g, op.node).flops
                                : cost::backward_cost(m.g, op.node).flops;
          } else if (kind == graph::LayerKind::kFullyConnected) {
            b.fc += d;
          } else {
            b.membound += d;
          }
          break;
        }
        case exec::OpType::kRecompute:
          b.recompute += d;
          ++b.recompute_ops;
          break;
        case exec::OpType::kUpdate:
          b.update += d;
          break;
        default:
          break;  // begin-iteration and frees: bookkeeping only
      }
    }
    return b;
  }

  void layers_from(const std::vector<IterBreakdown>& its, const Prepared& p,
                   Object& L) {
    auto med = [&](double IterBreakdown::*f) {
      std::vector<double> v;
      for (const auto& b : its) v.push_back(b.*f);
      return median(v);
    };
    double conv_flops = 0.0, conv_s = 0.0, busy = 0.0, idle = 0.0;
    int ready_peak = 0;
    std::vector<double> exposed, critical, copy_share, recompute_ops;
    const double workers = cfg_.compute_workers;
    for (const auto& b : its) {
      conv_flops += b.conv_flops;
      conv_s += b.conv_fwd + b.conv_bwd;
      busy += b.busy;
      idle += b.idle;
      ready_peak = std::max(ready_peak, b.ready_peak);
      exposed.push_back(b.wall - b.busy / workers);
      critical.push_back(b.critical / b.wall);
      copy_share.push_back((b.h2d + b.d2h) / b.wall);
      recompute_ops.push_back(b.recompute_ops);
    }
    L["kernels.conv_fwd_s"] = med(&IterBreakdown::conv_fwd);
    L["kernels.conv_bwd_s"] = med(&IterBreakdown::conv_bwd);
    L["kernels.membound_s"] = med(&IterBreakdown::membound);
    L["kernels.fc_s"] = med(&IterBreakdown::fc);
    L["kernels.update_s"] = med(&IterBreakdown::update);
    L["kernels.recompute_s"] = med(&IterBreakdown::recompute);
    L["kernels.recompute_ops"] = median(recompute_ops);
    L["kernels.conv_flops"] = conv_flops;
    L["kernels.conv_seconds"] = conv_s;
    L["exec.compute_busy_s"] = med(&IterBreakdown::busy);
    L["exec.compute_span_sum_s"] = med(&IterBreakdown::span_sum);
    L["exec.compute_idle_ratio"] = busy + idle > 0.0 ? idle / (busy + idle) : 0.0;
    L["exec.exposed_s"] = median(exposed);
    L["exec.compute_wait_s"] = med(&IterBreakdown::wait);
    L["exec.ready_peak"] = ready_peak;
    L["exec.critical_path_ratio"] = median(critical);
    L["exec.h2d_busy_s"] = med(&IterBreakdown::h2d);
    L["exec.d2h_busy_s"] = med(&IterBreakdown::d2h);
    L["exec.copy_share"] = median(copy_share);
    double swapped = 0.0;
    for (const auto& op : p.stream->ops) {
      if (op.type == exec::OpType::kSwapOut) swapped += static_cast<double>(op.bytes);
    }
    L["exec.swapped_mib"] = swapped / kMiB;
    L["exec.ops"] = static_cast<int>(p.stream->ops.size());
  }

  /// Correctness gate, untimed: a keep-all in-core reference of the same
  /// iteration count (sim::Runtime driving a DataBackend on the same
  /// kernel context) must reproduce loss and param_norm bit-for-bit.
  void gate(Prepared& p, std::uint64_t iterations, Report& rep) {
    Scope s(tr_, "gate: in-core reference");
    Model& m = *p.model;
    cost::MachineConfig roomy = m.machine;
    roomy.gpu_capacity_bytes =
        std::max(roomy.gpu_capacity_bytes,
                 graph::incore_peak_bytes(m.g) * 2 + (std::size_t{1} << 30));
    const sim::Runtime rt(m.g, m.tape, roomy, *m.tm);
    sim::DataBackend ref(m.g, data_seed_, kLearningRate, p.kctx.get());
    const sim::Classification keep(m.g, sim::ValueClass::kKeep);
    sim::RunOptions ro;
    ro.data = &ref;
    bool ok = true;
    for (std::uint64_t it = 0; it < iterations && ok; ++it) {
      Scope r(tr_, "sim::Runtime::run (reference)", s.id(),
              static_cast<std::int64_t>(it));
      ro.iteration = it;
      ok = rt.run(keep, ro).ok;
    }
    rep.check("reference_ran", ok ? "true" : "false", "true");
    rep.check("loss_bits", hex_bits(p.data->loss()), hex_bits(ref.loss()));
    rep.check("param_norm_bits", hex_bits(p.data->param_norm()),
              hex_bits(ref.param_norm()));
    rep.info["loss"] = static_cast<double>(p.data->loss());
    rep.info["iterations"] = static_cast<std::int64_t>(iterations);
  }

  /// Planning runs of this workload (plan_s_* end to end, pooch.* per
  /// layer): whole cycles over kNoiseDraws profiling-noise draws (draw 0
  /// is the set-up's), bounded by more_samples over kPlanSeconds; each
  /// cycle's steal share marks its plans. A draw's plan depends on its
  /// noise, and so does its search cost; cycling over many draws keeps
  /// plan_s from hinging on one. Every plan must reproduce the first
  /// plan of its draw exactly (draw 0: the set-up's initial plan).
  /// pooch.* describe draw 0.
  void plans(const Prepared& p, Report& rep) {
    Scope s(tr_, "planning runs");
    const Model& m = *p.model;
    planner::PipelineOptions po;
    po.planner.threads = kComputeThreads;
    po.planner.compute_workers = cfg_.compute_workers;
    obs::StatsRegistry st;
    po.planner.stats = &st;
    std::string want[kNoiseDraws] = {plan_signature(p.out.initial.plan)};
    std::vector<PlanSample> samples;
    const double t0 = now_s();
    int clean = 0;
    std::optional<StealProbe> cycle;
    for (int i = 0;; ++i) {
      const int draw = i % kNoiseDraws;
      if (draw == 0) {
        if (cycle) {
          const double steal = cycle->share();
          rep.plan_steal.resize(rep.plan_s.size(), steal);
          if (steal <= kMaxStealShare) clean += kNoiseDraws;
          if (!more_samples(now_s() - t0, kPlanSeconds, clean,
                            static_cast<int>(rep.plan_s.size()))) {
            break;
          }
        }
        cycle.emplace();
      }
      po.profile.noise_seed =
          draw == 0 ? noise_seed_ : mix(noise_seed_ + static_cast<std::uint64_t>(draw));
      ++rep.units;
      Scope r(tr_, "planner::run_pooch", s.id(), i);
      const double t_plan = now_s();
      const auto res = planner::run_pooch(m.g, m.tape, m.machine, *m.tm, po);
      rep.plan_s.push_back(now_s() - t_plan);
      if (!res.ok) {
        rep.fail(std::string(cfg_.name) + ": run_pooch failed");
        continue;
      }
      const std::string sig = plan_signature(res.plan);
      if (want[draw].empty()) want[draw] = sig;
      rep.check("plan" + std::to_string(i), sig, want[draw]);
      if (draw == 0) samples.push_back(capture_plan(res, st));
    }
    if (tr_.on() && !samples.empty()) pooch_layer(samples, rep.layers);
  }

  /// GEMM throughput on the largest conv-lowered GEMM of ResNet-50 b8
  /// @64px (M = out channels, K = in channels × kernel area, N = output
  /// pixels of one sample), at 1 and 3 kernel threads.
  void gemm_layer(Object& L) {
    Scope s(tr_, "kernels::matmul");
    const graph::Graph g = models::resnet50(8, 64);
    std::int64_t bm = 0, bk = 0, bn = 0;
    for (int i = 0; i < g.num_nodes(); ++i) {
      const graph::Node& node = g.node(i);
      if (node.kind != graph::LayerKind::kConv) continue;
      const auto& a = std::get<ConvAttrs>(node.attrs);
      const Shape& in = g.value(node.inputs[0]).shape;
      const Shape& out = g.value(node.output).shape;
      const std::int64_t m = a.out_channels / a.groups;
      const std::int64_t k =
          in[1] / a.groups * a.kernel[0] * a.kernel[1] * a.kernel[2];
      const std::int64_t n = out.numel() / (out[0] * out[1]);
      if (m * k * n > bm * bk * bn) bm = m, bk = k, bn = n;
    }
    std::vector<float> a(static_cast<std::size_t>(bm * bk), 0.5f);
    std::vector<float> b(static_cast<std::size_t>(bk * bn), 0.25f);
    std::vector<float> c(static_cast<std::size_t>(bm * bn));
    auto time_gemm = [&](kernels::KernelContext& ctx) {
      kernels::matmul(a.data(), b.data(), c.data(), bm, bk, bn, ctx);  // warm
      std::vector<double> v;
      const double t_end = now_s() + 0.5;
      while (now_s() < t_end || v.size() < 5) {
        const double t0 = now_s();
        kernels::matmul(a.data(), b.data(), c.data(), bm, bk, bn, ctx);
        v.push_back(now_s() - t0);
      }
      return median(v);
    };
    kernels::KernelContext one(1), three(kComputeThreads);
    L["kernels.gemm_flops"] = 2.0 * static_cast<double>(bm * bk * bn);
    L["kernels.gemm_1t_seconds"] = time_gemm(one);
    L["kernels.gemm_3t_seconds"] = time_gemm(three);
    L["kernels.gemm_shape"] = std::to_string(bm) + "x" + std::to_string(bk) +
                              "x" + std::to_string(bn);
  }

  const TrainConfig cfg_;
  const std::uint64_t data_seed_;
  const std::uint64_t noise_seed_;
  Tracer& tr_;
  obs::StatsRegistry* stats_;
};

// ---------------------------------------------------------------------
// Paper-scale planning sweep: simulated profile → classify → execute on
// the modelled V100; no kernels, no executor.

constexpr std::int64_t kSweepBatches[] = {256, 384, 512, 640};
constexpr int kSweepThreads = 4;

class SweepBench {
 public:
  SweepBench(std::uint64_t seed, Tracer& tr, obs::StatsRegistry* stats)
      : noise_seed_(mix(seed ^ 0x6e6f697365ull)), tr_(tr), stats_(stats) {}

  void run(double seconds, Report& rep) {
    std::vector<std::unique_ptr<Model>> models;
    for (int i = 0; i < kSetups; ++i) {
      ++rep.units;
      models.clear();
      Scope s(tr_, "setup");
      const double t0 = now_s();
      for (std::int64_t b : kSweepBatches) {
        models.push_back(std::make_unique<Model>(models::resnet50(b, 224)));
      }
      // Warm-up plan at b512: the first plan of a process is ~3× slower.
      if (plan_once(*models[2], 2, s.id(), -1, nullptr, rep) < 0) return;
      rep.setup_s.push_back(now_s() - t0);
    }

    std::vector<double> untraced, traced;
    std::vector<PlanSample> samples;
    reset_peak_rss();
    const double steal0 = steal_seconds();
    if (tr_.on()) {
      if (!cycles(models, seconds / 2, nullptr, untraced, rep)) return;
      if (!cycles(models, seconds / 2, &samples, traced, rep)) return;
    } else {
      if (!cycles(models, seconds, nullptr, untraced, rep)) return;
    }
    rep.steady_rss_mib = proc_status_mib("VmHWM");
    rep.info["steady_steal_s"] = steal_seconds() - steal0;
    rep.iter_s = untraced;
    rep.plan_s = untraced;
    rep.plan_steal = rep.iter_steal;
    for (std::size_t bi = 0; bi < kNumBatches; ++bi) {
      rep.info["plan_b" + std::to_string(kSweepBatches[bi])] = first_[bi];
    }

    if (!tr_.on()) return;
    Object& L = rep.layers;
    L["obs.trace_overhead_ratio"] = median(traced) / median(untraced);
    if (!samples.empty()) {
      pooch_layer(samples, L);
      sim_layer(*models[2], samples.front().plan, tr_, -1, L);
    }
    zero_layers(L, kKernelLayers);
    zero_layers(L, kExecLayers);
    zero_layers(L, kProfileLayers);
  }

 private:
  static constexpr std::size_t kNumBatches = std::size(kSweepBatches);

  /// One planner::run_pooch of batch index `bi`, which must reproduce the
  /// first plan of that batch. A traced plan (non-null `samples`) runs
  /// with the stats sink and is kept when it is a b512 plan. Returns the
  /// wall time, or -1 on failure.
  double plan_once(const Model& m, std::size_t bi, int parent,
                   std::int64_t iter, std::vector<PlanSample>* samples,
                   Report& rep) {
    const std::string batch = std::to_string(kSweepBatches[bi]);
    planner::PipelineOptions po;
    po.profile.noise_seed = noise_seed_;
    po.planner.threads = kSweepThreads;
    po.planner.stats = samples ? stats_ : nullptr;
    Scope s(tr_, "planner::run_pooch b" + batch, parent, iter);
    const double t0 = now_s();
    const auto r = planner::run_pooch(m.g, m.tape, m.machine, *m.tm, po);
    const double dt = now_s() - t0;
    if (!r.ok) {
      rep.fail("run_pooch failed at batch " + batch);
      return -1.0;
    }
    const std::string sig = plan_signature(r.plan);
    if (first_[bi].empty()) first_[bi] = sig;
    rep.check("b" + batch + "#" + std::to_string(iter), sig, first_[bi]);
    if (samples && stats_ && bi == 2) samples->push_back(capture_plan(r, *stats_));
    return dt;
  }

  /// Whole batch cycles, bounded by more_samples over `seconds`; appends
  /// each plan's wall time to `out` and, untraced, each cycle's steal
  /// share to every plan of the cycle.
  bool cycles(const std::vector<std::unique_ptr<Model>>& models,
              double seconds, std::vector<PlanSample>* samples,
              std::vector<double>& out, Report& rep) {
    Scope phase(tr_, samples ? "steady (traced)" : "steady (untraced)");
    const double t0 = now_s();
    int clean = 0;
    while (more_samples(now_s() - t0, seconds, clean,
                        static_cast<int>(out.size()))) {
      const StealProbe cycle;
      for (std::size_t bi = 0; bi < kNumBatches; ++bi) {
        const auto iter = static_cast<std::int64_t>(rep.units++);
        const double dt = plan_once(*models[bi], bi, phase.id(), iter, samples, rep);
        if (dt < 0) return false;
        out.push_back(dt);
        if (!samples) rep.iter_batch.push_back(static_cast<double>(kSweepBatches[bi]));
      }
      const double steal = cycle.share();
      if (steal <= kMaxStealShare) clean += static_cast<int>(kNumBatches);
      if (!samples) rep.iter_steal.resize(out.size(), steal);
    }
    return true;
  }

  const std::uint64_t noise_seed_;
  Tracer& tr_;
  obs::StatsRegistry* stats_;
  std::string first_[std::size(kSweepBatches)];
};

// ---------------------------------------------------------------------

Object environment() {
  return Object{{"build_type", E2E_BUILD_TYPE},
                {"kernel_arch_flags", E2E_NATIVE_ARCH_FLAGS},
                {"compiler", "gcc-compatible " __VERSION__},
                {"hardware_concurrency",
                 static_cast<int>(std::thread::hardware_concurrency())}};
}

/// VmHWM reset check: a touched-then-freed 64 MiB block raises the
/// high-water mark, and clear_refs "5" must bring it back down.
int selftest() {
  const double before = proc_status_mib("VmHWM");
  {
    std::vector<char> block(64u << 20);
    for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
    volatile char sink = block[block.size() / 2];  // keep the touches live
    (void)sink;
  }
  const double raised = proc_status_mib("VmHWM");
  const bool reset = reset_peak_rss();
  const double after = proc_status_mib("VmHWM");
  const bool ok = reset && raised >= before + 48.0 && after <= raised - 48.0;
  std::printf("%s\n", Value(Object{{"vmhwm_before_mib", before},
                                   {"vmhwm_raised_mib", raised},
                                   {"vmhwm_after_reset_mib", after},
                                   {"ok", ok}})
                          .dump()
                          .c_str());
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-file F]\n"
               "       e2e_bench --selftest\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload, trace_file;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::stoull(v);
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--trace-file") {
      trace_file = v;
    } else {
      return usage();
    }
  }
  if (seconds <= 0.0) return usage();
  set_log_level(LogLevel::kWarn);

  Tracer tr(trace);
  obs::StatsRegistry stats;
  obs::StatsRegistry* sink = trace ? &stats : nullptr;
  Report rep;
  std::int64_t batch = 0;
  if (workload == kResNet50.name || workload == kInception.name) {
    const TrainConfig& cfg = workload == kResNet50.name ? kResNet50 : kInception;
    batch = cfg.batch;
    TrainBench(cfg, seed, tr, sink).run(seconds, rep);
  } else if (workload == "resnet50_plan_sweep") {
    SweepBench(seed, tr, sink).run(seconds, rep);
  } else {
    return usage();
  }

  Object out{{"workload", workload},
             {"seed", static_cast<std::int64_t>(seed)},
             {"trace", trace},
             {"batch", batch},
             {"env", environment()},
             {"units", rep.units},
             {"failed_units", rep.failed_units},
             {"checks", std::move(rep.checks)},
             {"setup_s", to_array(rep.setup_s)},
             {"iter_s", to_array(rep.iter_s)},
             {"iter_batch", to_array(rep.iter_batch)},
             {"iter_steal", to_array(rep.iter_steal)},
             {"plan_steal", to_array(rep.plan_steal)},
             {"max_steal_share", kMaxStealShare},
             {"plan_s", to_array(rep.plan_s)},
             {"steady_rss_mib", rep.steady_rss_mib},
             {"layers", std::move(rep.layers)},
             {"info", std::move(rep.info)}};
  if (trace) {
    out["trace_spans"] = static_cast<int>(tr.size());
    if (!trace_file.empty()) {
      std::ofstream f(trace_file);
      f << tr.chrome().dump();
      if (!f) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n", trace_file.c_str());
        return 1;
      }
      out["trace_file"] = trace_file;
    }
    out["stats"] = stats.to_json();
  }
  std::printf("%s\n", Value(std::move(out)).dump().c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
