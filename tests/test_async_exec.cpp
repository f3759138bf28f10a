// Differential fuzz harness for the asynchronous out-of-core executor:
// for a corpus of random graphs and all classification policies
// (keep-all, swap-all, planner hybrid), the AsyncExecutor's losses,
// gradients and parameters must be bit-identical to the serial in-core
// reference at 1, 2 and 8 copy workers — the paper's transparency claim
// held under true concurrency. Every replay is additionally checked
// against the obs::TimelineValidator ordering oracle: measured spans
// must respect each dependency edge, and every read must land while its
// value is materialized (derived from the graph/tape, independent of
// the recorded edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "cost/cost_model.hpp"
#include "exec/async_executor.hpp"
#include "exec/event.hpp"
#include "exec/op_stream.hpp"
#include "exec/schedule.hpp"
#include "graph/autodiff.hpp"
#include "mem/host_pool.hpp"
#include "models/models.hpp"
#include "obs/stats.hpp"
#include "obs/validate.hpp"
#include "pooch/pipeline.hpp"
#include "pooch/planner.hpp"
#include "sim/multilane.hpp"
#include "sim/runtime.hpp"
#include "tensor/tensor_ops.hpp"
#include "testing_util.hpp"

namespace pooch::sim {
namespace {

constexpr std::uint64_t kSeed = 1234;

struct AsyncEnv {
  graph::Graph g;
  std::vector<graph::BwdStep> tape;
  cost::MachineConfig machine;
  std::unique_ptr<CostTimeModel> tm;
  std::unique_ptr<Runtime> rt;

  AsyncEnv(graph::Graph graph, std::size_t cap_mib, double link_gbps = 3.0)
      : g(std::move(graph)),
        tape(graph::build_backward_tape(g)),
        machine(cost::test_machine(cap_mib)) {
    machine.link_gbps = link_gbps;
    tm = std::make_unique<CostTimeModel>(g, machine);
    rt = std::make_unique<Runtime>(g, tape, machine, *tm);
  }
};

void expect_bit_identical(const graph::Graph& g, const DataBackend& a,
                          const DataBackend& b, const std::string& what) {
  EXPECT_EQ(a.loss(), b.loss()) << what;
  for (const auto& n : g.nodes()) {
    const auto& pa = a.params(n.id);
    const auto& pb = b.params(n.id);
    ASSERT_EQ(pa.size(), pb.size()) << what;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(bit_equal(pa[i], pb[i]))
          << what << ": param " << i << " of '" << n.name << "' differs";
      EXPECT_TRUE(bit_equal(a.param_grads(n.id)[i], b.param_grads(n.id)[i]))
          << what << ": param grad " << i << " of '" << n.name << "' differs";
    }
  }
}

/// Serial in-core reference (train_incore: no scheduler, no stream).
std::unique_ptr<DataBackend> serial_reference(const AsyncEnv& env,
                                              int iterations = 1) {
  auto backend = std::make_unique<DataBackend>(env.g, kSeed);
  train_incore(env.g, env.tape, *backend, 0, iterations);
  return backend;
}

/// Export the schedule, replay it through the AsyncExecutor, and run the
/// ordering oracle on the measured spans.
std::unique_ptr<DataBackend> async_replay(const AsyncEnv& env,
                                          const Classification& classes,
                                          int copy_workers,
                                          int compute_workers = 1,
                                          RunOptions ro = {},
                                          int iterations = 1) {
  auto backend = std::make_unique<DataBackend>(env.g, kSeed);
  const obs::TimelineValidator validator(env.g, env.tape);
  for (int i = 0; i < iterations; ++i) {
    ro.iteration = static_cast<std::uint64_t>(i);
    const exec::OpStream stream =
        planner::record_op_stream(*env.rt, classes, ro);
    const auto structural = stream.validate(env.g, env.tape);
    EXPECT_TRUE(structural.empty())
        << structural.size() << " structural errors, first: "
        << structural.front();
    const exec::AsyncExecutor executor(env.g, stream);
    exec::AsyncOptions ao;
    ao.workers_per_copy_lane = copy_workers;
    ao.compute_workers = compute_workers;
    ao.time_model = env.tm.get();
    const exec::AsyncResult res = executor.run(*backend, ao);
    EXPECT_TRUE(res.ok) << res.failure;
    const auto oracle = validator.check_replay(stream, res.spans);
    EXPECT_TRUE(oracle.ok()) << oracle.to_string();
  }
  return backend;
}

// ---- primitives ------------------------------------------------------

TEST(AsyncExecEvent, SignalBeforeWaitReturnsImmediately) {
  exec::Event e;
  EXPECT_FALSE(e.ready());
  e.signal();
  EXPECT_TRUE(e.ready());
  e.wait();  // must not block
  EXPECT_TRUE(e.ready());
}

TEST(AsyncExecEvent, DoubleSignalThrows) {
  // One-shot means one-shot: with several compute workers retiring ops,
  // a second signal would mean two workers completed the same op.
  exec::Event e;
  e.signal();
  EXPECT_THROW(e.signal(), pooch::Error);
  EXPECT_TRUE(e.ready());  // the first signal still stands
}

TEST(AsyncExecEvent, MovedFromEventRefusesUse) {
  exec::Event src;
  exec::Event dst(std::move(src));
  EXPECT_THROW(src.wait(), pooch::Error);
  EXPECT_THROW(src.signal(), pooch::Error);
  // The destination carries the (unset) state and works normally.
  EXPECT_FALSE(dst.ready());
  dst.signal();
  EXPECT_TRUE(dst.ready());
}

TEST(AsyncExecEvent, MoveTransfersSignaledState) {
  exec::Event src;
  src.signal();
  exec::Event dst(std::move(src));
  EXPECT_TRUE(dst.ready());
  dst.wait();  // must not block
  EXPECT_THROW(src.wait(), pooch::Error);
}

TEST(AsyncExecEvent, WaitBlocksUntilCrossThreadSignal) {
  exec::Event e;
  std::atomic<bool> observed{false};
  std::thread waiter([&] {
    e.wait();
    observed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(observed.load());
  e.signal();
  waiter.join();
  EXPECT_TRUE(observed.load());
}

TEST(AsyncExecStaging, DoubleBufferBoundsConcurrentHolders) {
  mem::Staging staging(2);
  std::atomic<int> held{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      const int slot = staging.acquire();
      const int now = held.fetch_add(1) + 1;
      int p = peak.load();
      while (now > p && !peak.compare_exchange_weak(p, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      held.fetch_sub(1);
      staging.release(slot);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(staging.acquisitions(), 6u);
  EXPECT_LE(staging.peak_held(), 2);
}

// ---- op-stream export ------------------------------------------------

TEST(AsyncExecStream, ExportMatchesRecordedTimeline) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  exec::OpStream stream;
  RunOptions ro;
  ro.record_timeline = true;
  ro.export_stream = &stream;
  const auto r = env.rt->run(Classification(env.g, ValueClass::kSwap), ro);
  ASSERT_TRUE(r.ok) << r.failure;

  int tl_swapins = 0, tl_swapouts = 0, tl_compute = 0;
  for (const auto& op : r.timeline.ops) {
    tl_swapins += op.kind == OpKind::kSwapIn;
    tl_swapouts += op.kind == OpKind::kSwapOut;
    tl_compute += op.kind == OpKind::kForward || op.kind == OpKind::kBackward ||
                  op.kind == OpKind::kRecompute || op.kind == OpKind::kUpdate;
  }
  // Every scheduled transfer appears exactly once in the exported
  // stream; no dangling or duplicated H2D spans.
  EXPECT_EQ(stream.count(exec::OpType::kSwapIn), tl_swapins);
  EXPECT_EQ(stream.count(exec::OpType::kSwapOut), tl_swapouts);
  EXPECT_GT(tl_swapins, 0);
  EXPECT_EQ(stream.count(exec::OpType::kForward) +
                stream.count(exec::OpType::kBackward) +
                stream.count(exec::OpType::kRecompute) +
                stream.count(exec::OpType::kUpdate),
            tl_compute);
  EXPECT_EQ(stream.count(exec::OpType::kBeginIteration), 1);

  const auto errors = stream.validate(env.g, env.tape);
  EXPECT_TRUE(errors.empty()) << errors.size() << " errors, first: "
                              << errors.front();
  // Swap-ins must carry at least one dependency (the matching swap-out
  // or an eviction free) — a dependency-free H2D would race the D2H.
  for (const auto& op : stream.ops) {
    if (op.type == exec::OpType::kSwapIn) {
      EXPECT_FALSE(op.deps.empty()) << "swap-in of v" << op.value;
    }
  }
}

TEST(AsyncExecStream, ExportWorksAlongsideDataBackend) {
  // Export with a backend attached: the stream the backend replayed is
  // the same as a pure scheduling pass exports.
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  exec::OpStream pure = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  exec::OpStream combined;
  RunOptions ro;
  ro.data = &backend;
  ro.export_stream = &combined;
  ASSERT_TRUE(env.rt->run(Classification(env.g, ValueClass::kSwap), ro).ok);
  ASSERT_EQ(pure.ops.size(), combined.ops.size());
  for (std::size_t i = 0; i < pure.ops.size(); ++i) {
    EXPECT_EQ(pure.ops[i].type, combined.ops[i].type) << "op " << i;
    EXPECT_EQ(pure.ops[i].value, combined.ops[i].value) << "op " << i;
    EXPECT_EQ(pure.ops[i].deps, combined.ops[i].deps) << "op " << i;
  }
}

// ---- the differential corpus ----------------------------------------

TEST(AsyncExecDifferential, RandomGraphCorpusBitIdenticalAllPolicies) {
  int planner_covered = 0;
  int swap_covered = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    AsyncEnv roomy(testing::random_graph(seed), 8192);
    const auto ref = serial_reference(roomy);
    const auto keep = roomy.rt->run(Classification(roomy.g, ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);

    for (const int workers : {1, 2, 8}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " workers " + std::to_string(workers);
      // keep-all: the stream is pure compute; replay must still match.
      const auto keep_async = async_replay(
          roomy, Classification(roomy.g, ValueClass::kKeep), workers);
      expect_bit_identical(roomy.g, *ref, *keep_async, tag + " keep-all");
    }

    // Out-of-core capacity: tight enough to force real swap traffic,
    // relaxed until swap-all's schedule is feasible (the rescue chain
    // handles most of the 70% cases already).
    std::unique_ptr<AsyncEnv> tight;
    for (const std::size_t pct : {70, 80, 90, 100}) {
      auto candidate = std::make_unique<AsyncEnv>(
          testing::random_graph(seed),
          std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1),
          1.0);
      if (candidate->rt
              ->run(Classification(candidate->g, ValueClass::kSwap))
              .ok) {
        tight = std::move(candidate);
        break;
      }
    }
    ASSERT_TRUE(tight) << "seed " << seed
                       << ": swap-all infeasible even at full keep peak";

    for (const int workers : {1, 2, 8}) {
      const std::string tag =
          "seed " + std::to_string(seed) + " workers " + std::to_string(workers);
      const auto swap_async = async_replay(
          *tight, Classification(tight->g, ValueClass::kSwap), workers);
      expect_bit_identical(tight->g, *ref, *swap_async, tag + " swap-all");
      ++swap_covered;
    }

    planner::PoochPlanner planner(tight->g, tight->tape, tight->machine,
                                  *tight->tm);
    const auto plan = planner.plan();
    if (plan.feasible) {
      for (const int workers : {1, 2, 8}) {
        const std::string tag =
            "seed " + std::to_string(seed) + " workers " +
            std::to_string(workers);
        const auto hybrid_async =
            async_replay(*tight, plan.classes, workers);
        expect_bit_identical(tight->g, *ref, *hybrid_async,
                             tag + " planner-hybrid");
      }
      ++planner_covered;
    }
  }
  EXPECT_GT(swap_covered, 0);
  EXPECT_GT(planner_covered, 0) << "planner hybrid never feasible on corpus";
}

TEST(AsyncExecDifferential, MultiIterationTrajectoryBitIdentical) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const auto keep = env.rt->run(Classification(env.g, ValueClass::kKeep));
  ASSERT_TRUE(keep.ok);
  AsyncEnv tight(models::small_cnn(2, 16),
                 std::max<std::size_t>(1, keep.peak_bytes * 8 / 10 / kMiB + 1),
                 1.0);
  const auto ref = serial_reference(env, /*iterations=*/3);
  for (const int workers : {1, 2}) {
    const auto async = async_replay(
        tight, Classification(tight.g, ValueClass::kSwap), workers,
        /*compute_workers=*/workers, {}, /*iterations=*/3);
    expect_bit_identical(tight.g, *ref, *async,
                         "3 iterations, workers " + std::to_string(workers));
  }
}

TEST(AsyncExecDifferential, ResNetMixedClassification) {
  AsyncEnv env(models::resnet18(1, 32, 8), 8192);
  const auto ref = serial_reference(env);
  Classification mixed(env.g, ValueClass::kKeep);
  int i = 0;
  for (const auto& v : env.g.values()) {
    if (v.producer == graph::kNoNode) continue;
    switch (i++ % 3) {
      case 0:
        mixed.set(v.id, ValueClass::kSwap);
        break;
      case 1:
        mixed.set(v.id, ValueClass::kRecompute);
        break;
      default:
        break;
    }
  }
  for (const int workers : {1, 2, 8}) {
    const auto async = async_replay(env, mixed, workers);
    expect_bit_identical(env.g, *ref, *async,
                         "resnet18 mixed, workers " + std::to_string(workers));
  }
}

// ---- storage recycling ------------------------------------------------

// The backend recycles the storage of freed values, gradients and
// backward temporaries, so after the first iteration of a stream an
// iteration allocates nothing: the bytes it holds stop growing, under
// every plan and compute-worker count, and training stays bit-identical
// to train_incore.
TEST(AsyncExecStorage, HeldBytesStopGrowingAfterFirstIteration) {
  constexpr int kIterations = 5;
  int planner_covered = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    AsyncEnv roomy(testing::random_graph(seed), 8192);
    const auto keep =
        roomy.rt->run(Classification(roomy.g, ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);
    // The tightest of 70..100% of the keep-all peak where swap-all fits.
    std::unique_ptr<AsyncEnv> tight;
    for (const std::size_t pct : {70, 80, 90, 100}) {
      auto candidate = std::make_unique<AsyncEnv>(
          testing::random_graph(seed),
          std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1),
          1.0);
      if (candidate->rt
              ->run(Classification(candidate->g, ValueClass::kSwap))
              .ok) {
        tight = std::move(candidate);
        break;
      }
    }
    ASSERT_TRUE(tight) << "seed " << seed;
    planner::PoochPlanner planner(tight->g, tight->tape, tight->machine,
                                  *tight->tm);
    const auto plan = planner.plan();
    const auto ref = serial_reference(roomy, kIterations);

    struct Case {
      const char* name;
      const AsyncEnv* env;
      Classification classes;
    };
    std::vector<Case> cases = {
        {"keep-all", &roomy, Classification(roomy.g, ValueClass::kKeep)},
        {"swap-all", tight.get(), Classification(tight->g, ValueClass::kSwap)},
    };
    if (plan.feasible) {
      cases.push_back({"planner-hybrid", tight.get(), plan.classes});
      ++planner_covered;
    }
    for (const Case& c : cases) {
      for (const int compute : {1, 3}) {
        const std::string tag = "seed " + std::to_string(seed) + " " +
                                c.name + ", compute " +
                                std::to_string(compute);
        DataBackend backend(c.env->g, kSeed);
        std::size_t held_after_2 = 0;
        for (int i = 0; i < kIterations; ++i) {
          RunOptions ro;
          ro.iteration = static_cast<std::uint64_t>(i);
          const exec::OpStream stream =
              planner::record_op_stream(*c.env->rt, c.classes, ro);
          const exec::AsyncExecutor executor(c.env->g, stream);
          exec::AsyncOptions ao;
          ao.compute_workers = compute;
          ao.time_model = c.env->tm.get();
          ASSERT_TRUE(executor.run(backend, ao).ok) << tag;
          if (i == 1) held_after_2 = backend.held_bytes();
        }
        EXPECT_EQ(backend.held_bytes(), held_after_2) << tag;
        expect_bit_identical(c.env->g, *ref, backend, tag);
      }
    }
  }
  EXPECT_GT(planner_covered, 0) << "planner hybrid never feasible on corpus";
}

// ---- accounting and oracle self-checks -------------------------------

TEST(AsyncExecHostPool, SwapAccountingBalances) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  mem::HostPool pool(std::size_t{1} << 30);
  const exec::AsyncExecutor executor(env.g, stream);
  exec::AsyncOptions ao;
  ao.host_pool = &pool;
  const auto res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;
  EXPECT_GT(pool.peak_in_use(), 0u);
  EXPECT_EQ(pool.in_use(), 0u) << "host bytes leaked across the iteration";
  EXPECT_EQ(res.staging_acquisitions,
            static_cast<std::uint64_t>(stream.count(exec::OpType::kSwapOut)));
}

TEST(AsyncExecHostPool, ExhaustedPoolFailsLoudly) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  mem::HostPool pool(1);  // nothing fits
  const exec::AsyncExecutor executor(env.g, stream);
  exec::AsyncOptions ao;
  ao.host_pool = &pool;
  const auto res = executor.run(backend, ao);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("host pool"), std::string::npos) << res.failure;
}

TEST(AsyncExecOracle, FlagsFabricatedDependencyViolation) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Corrupt one dependent span so it "started" before its dependency
  // finished; the oracle must notice.
  bool corrupted = false;
  for (std::size_t i = 0; i < stream.ops.size() && !corrupted; ++i) {
    if (stream.ops[i].deps.empty()) continue;
    const auto d = static_cast<std::size_t>(stream.ops[i].deps.front());
    res.spans[i].seq_start = res.spans[d].seq_end;  // tie = violation
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(validator.check_replay(stream, res.spans).ok());
}

// ---- multi-worker compute scheduling (exec/schedule.hpp) -------------

TEST(AsyncSchedSchedule, HazardEdgesSupersetTopologicalAndPriced) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  const exec::Schedule sched =
      exec::build_schedule(env.g, env.tape, stream, env.tm.get());
  ASSERT_EQ(sched.size(), stream.ops.size());
  int hazard_only_edges = 0;
  double max_priority = 0.0;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const auto& deps = sched.deps[i];
    for (const std::int32_t d : deps) {
      // Strictly earlier ops only: the dependency graph is a DAG by
      // construction, which is the whole deadlock-freedom argument.
      EXPECT_LT(d, static_cast<std::int32_t>(i)) << "op " << i;
      if (std::find(stream.ops[i].deps.begin(), stream.ops[i].deps.end(),
                    d) == stream.ops[i].deps.end()) {
        ++hazard_only_edges;
      }
    }
    for (const std::int32_t d : stream.ops[i].deps) {
      EXPECT_TRUE(std::find(deps.begin(), deps.end(), d) != deps.end())
          << "recorded edge " << d << " -> " << i
          << " missing from the hazard schedule";
    }
    EXPECT_GE(sched.priority[i], sched.cost[i] - 1e-12) << "op " << i;
    max_priority = std::max(max_priority, sched.priority[i]);
  }
  // The recorder only stores cross-lane edges (same-lane order was
  // implicit while compute was serial); hazard analysis must make the
  // compute-compute edges explicit.
  EXPECT_GT(hazard_only_edges, 0);
  EXPECT_DOUBLE_EQ(sched.critical_path_seconds, max_priority);
}

TEST(AsyncSchedSim, MultiLaneMakespanBoundsAndDeterminism) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  const exec::Schedule sched =
      exec::build_schedule(env.g, env.tape, stream, env.tm.get());
  double total_cost = 0.0;
  for (const double c : sched.cost) total_cost += c;
  double prev_makespan = 0.0;
  for (const int compute : {1, 2, 4}) {
    sim::MultiLaneOptions mo;
    mo.compute_workers = compute;
    mo.time_model = env.tm.get();
    const sim::MultiLaneResult a = sim::simulate_multilane(stream, sched, mo);
    const sim::MultiLaneResult b = sim::simulate_multilane(stream, sched, mo);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << "non-deterministic sim";
    // List scheduling never beats the critical path and never idles all
    // lanes while work remains, so makespan sits between the two bounds.
    EXPECT_GE(a.makespan, sched.critical_path_seconds - 1e-12);
    EXPECT_LE(a.makespan, total_cost + 1e-9);
    EXPECT_DOUBLE_EQ(a.critical_path_seconds, sched.critical_path_seconds);
    if (compute == 1) prev_makespan = a.makespan;
  }
  EXPECT_GT(prev_makespan, 0.0);
}

TEST(AsyncSchedOracle, FlagsHazardOnlyEdgeViolation) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Corrupt a span across an edge only the hazard analysis knows about
  // (present in the executor's schedule, absent from the recorded
  // stream): the oracle rederives the partial order, so it must still
  // notice.
  const exec::Schedule& sched = executor.schedule();
  bool corrupted = false;
  for (std::size_t i = 0; i < stream.ops.size() && !corrupted; ++i) {
    for (const std::int32_t d : sched.deps[i]) {
      if (std::find(stream.ops[i].deps.begin(), stream.ops[i].deps.end(),
                    d) != stream.ops[i].deps.end()) {
        continue;
      }
      res.spans[i].seq_start =
          res.spans[static_cast<std::size_t>(d)].seq_end;  // tie = violation
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "no hazard-only edge in the schedule";
  EXPECT_FALSE(validator.check_replay(stream, res.spans).ok());
}

TEST(AsyncSchedOracle, FlagsKillInsideReaderWindow) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  const exec::AsyncExecutor executor(env.g, stream);
  auto res = executor.run(backend, {});
  ASSERT_TRUE(res.ok) << res.failure;
  const obs::TimelineValidator validator(env.g, env.tape);
  ASSERT_TRUE(validator.check_replay(stream, res.spans).ok());

  // Stretch a forward reader's window over the swap-out that kills one
  // of its inputs — the exact interleaving a missed WAR edge would
  // produce under concurrent compute.
  bool corrupted = false;
  for (std::size_t k = 0; k < stream.ops.size() && !corrupted; ++k) {
    if (stream.ops[k].type != exec::OpType::kSwapOut) continue;
    const graph::ValueId v = stream.ops[k].value;
    for (std::size_t i = 0; i < k && !corrupted; ++i) {
      if (stream.ops[i].type != exec::OpType::kForward) continue;
      const auto& inputs =
          env.g.nodes()[static_cast<std::size_t>(stream.ops[i].node)].inputs;
      if (std::find(inputs.begin(), inputs.end(), v) == inputs.end()) {
        continue;
      }
      res.spans[i].seq_end = res.spans[k].seq_start + 1;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no swap-out with an earlier forward reader";
  const auto rep = validator.check_replay(stream, res.spans);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.to_string().find("was still reading"), std::string::npos)
      << rep.to_string();
}

// ---- the multi-worker differential corpus ----------------------------

TEST(AsyncSchedDifferential, ComputeWorkerCorpusBitIdenticalAllPolicies) {
  int planner_covered = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    AsyncEnv roomy(testing::random_graph(seed), 8192);
    const auto ref = serial_reference(roomy);
    const auto keep = roomy.rt->run(Classification(roomy.g, ValueClass::kKeep));
    ASSERT_TRUE(keep.ok);

    std::unique_ptr<AsyncEnv> tight;
    for (const std::size_t pct : {70, 80, 90, 100}) {
      auto candidate = std::make_unique<AsyncEnv>(
          testing::random_graph(seed),
          std::max<std::size_t>(1, keep.peak_bytes * pct / 100 / kMiB + 1),
          1.0);
      if (candidate->rt
              ->run(Classification(candidate->g, ValueClass::kSwap))
              .ok) {
        tight = std::move(candidate);
        break;
      }
    }
    ASSERT_TRUE(tight) << "seed " << seed
                       << ": swap-all infeasible even at full keep peak";
    planner::PoochPlanner planner(tight->g, tight->tape, tight->machine,
                                  *tight->tm);
    const auto plan = planner.plan();

    for (const int compute : {1, 2, 4, 8}) {
      for (const int copy : {1, 2}) {
        const std::string tag = "seed " + std::to_string(seed) + " compute " +
                                std::to_string(compute) + " copy " +
                                std::to_string(copy);
        const auto keep_async =
            async_replay(roomy, Classification(roomy.g, ValueClass::kKeep),
                         copy, compute);
        expect_bit_identical(roomy.g, *ref, *keep_async, tag + " keep-all");
        const auto swap_async =
            async_replay(*tight, Classification(tight->g, ValueClass::kSwap),
                         copy, compute);
        expect_bit_identical(tight->g, *ref, *swap_async, tag + " swap-all");
        if (plan.feasible) {
          const auto hybrid_async =
              async_replay(*tight, plan.classes, copy, compute);
          expect_bit_identical(tight->g, *ref, *hybrid_async,
                               tag + " planner-hybrid");
        }
      }
    }
    if (plan.feasible) ++planner_covered;
  }
  EXPECT_GT(planner_covered, 0) << "planner hybrid never feasible on corpus";
}

TEST(AsyncSchedStats, PublishesSchedulerMetricsAndWorkerSpans) {
  AsyncEnv env(models::small_cnn(2, 16), 8192);
  const exec::OpStream stream = planner::record_op_stream(
      *env.rt, Classification(env.g, ValueClass::kSwap));
  DataBackend backend(env.g, kSeed);
  obs::StatsRegistry stats;
  const exec::AsyncExecutor executor(env.g, stream);
  exec::AsyncOptions ao;
  ao.compute_workers = 2;
  ao.time_model = env.tm.get();
  ao.stats = &stats;
  const auto res = executor.run(backend, ao);
  ASSERT_TRUE(res.ok) << res.failure;

  EXPECT_EQ(stats.gauge("exec.sched.compute_workers").value(), 2.0);
  EXPECT_GT(stats.gauge("exec.sched.critical_path_seconds").value(), 0.0);
  EXPECT_GE(stats.gauge("exec.sched.ready_peak").value(), 1.0);
  EXPECT_GT(stats.gauge("exec.sched.worker0.busy_ns").value(), 0.0);
  ASSERT_EQ(res.compute_worker_busy.size(), 2u);
  EXPECT_GT(res.critical_path_seconds, 0.0);
  EXPECT_GE(res.ready_peak, 1);
  // Every compute span names a worker in range; together they cover all
  // compute ops.
  std::size_t compute_spans = 0;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    if (res.spans[i].lane != exec::kComputeLane) continue;
    ++compute_spans;
    EXPECT_GE(res.spans[i].worker, 0);
    EXPECT_LT(res.spans[i].worker, 2);
  }
  EXPECT_GT(compute_spans, 0u);
}

}  // namespace
}  // namespace pooch::sim
