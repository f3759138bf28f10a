#!/usr/bin/env python3
"""End-to-end out-of-core training benchmark for PoocH (see README.md).

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Builds e2e_bench from the checkout's sources into .bench_build/e2ebench
(CARGO_TARGET_DIR overrides .bench_build), runs one workload, verifies
its bit-exact checks and prints the metrics. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits nonzero on any failed check or when the benchmark cannot run.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet50_ooc_train", "inception_ooc_branchy",
             "resnet50_plan_sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# name -> unit. iter_s_* on the sweep are planning runs (its iteration).
END_TO_END = {
    "images_per_s": "images/s",
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "setup_s": "s",
    "steady_rss_mib": "MiB",
    "plan_s_p50": "s",
    "plan_s_tail": "s",
}

PER_LAYER = {
    "kernels.conv_fwd_s": "s",
    "kernels.conv_bwd_s": "s",
    "kernels.membound_s": "s",
    "kernels.fc_s": "s",
    "kernels.update_s": "s",
    "kernels.recompute_s": "s",
    "kernels.recompute_ops": "count",
    "kernels.conv_gflops": "GFLOP/s",
    "kernels.gemm_gflops_1t": "GFLOP/s",
    "kernels.gemm_gflops_3t": "GFLOP/s",
    "exec.compute_busy_s": "s",
    "exec.compute_idle_ratio": "ratio",
    "exec.exposed_s": "s",
    "exec.compute_wait_s": "s",
    "exec.ready_peak": "count",
    "exec.critical_path_ratio": "ratio",
    "exec.h2d_busy_s": "s",
    "exec.d2h_busy_s": "s",
    "exec.copy_share": "ratio",
    "exec.swapped_mib": "MiB",
    "exec.ops": "count",
    "exec.schedule_build_s": "s",
    "sim.run_ms": "ms",
    "sim.export_s": "s",
    "sim.planned_peak_mib": "MiB",
    "sim.recomputed_mib": "MiB",
    "pooch.plan_s": "s",
    "pooch.simulations": "count",
    "pooch.cache_hit_ratio": "ratio",
    "pooch.step1_s": "s",
    "pooch.step2_s": "s",
    "pooch.worker_utilization": "ratio",
    "pooch.keep": "count",
    "pooch.swap": "count",
    "pooch.recompute": "count",
    "profile.loop_s": "s",
    "profile.iterations": "count",
    "profile.replans": "count",
    "cost.calibrated_error": "ratio",
    "cost.roofline_error": "ratio",
    "obs.trace_overhead_ratio": "ratio",
}

# Summed exclusive compute-op span time must match the executor's
# compute-busy accounting to this relative tolerance (traced runs).
BUSY_AGREEMENT = 0.01


# --- arithmetic (exercised by test_run.py) -----------------------------

def tail(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    That is the (beyond+1)-th largest sample, at percentile
    100 * (n - beyond) / n. Returns (value, percentile).
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"tail needs more than {beyond} samples, got {n}")
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n


def failures(raw):
    """(attempted, failed): executed units, and the failed units plus
    every check whose observed value differs from the expected one."""
    attempted = max(1, int(raw["units"]))
    bad = sum(1 for c in raw["checks"] if c["got"] != c["want"])
    return attempted, min(attempted, int(raw["failed_units"]) + bad)


def gflops(flops, seconds):
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def images_per_s(seconds, batches):
    """Median-iteration throughput: for each batch size, its median
    iteration time; images of one iteration per batch size over the
    summed medians. With one batch size this is batch / median."""
    by_batch = {}
    for t, b in zip(seconds, batches):
        by_batch.setdefault(b, []).append(t)
    return sum(by_batch) / sum(statistics.median(v)
                               for v in by_batch.values())


def undisturbed(steal_shares, limit, beyond=10):
    """Indices of the samples whose hypervisor steal share stayed within
    `limit`. When fewer than beyond+1 (the tail rule's minimum) did, the
    beyond+1 least-disturbed samples instead, so a run that was disturbed
    throughout still reports from its quietest stretch."""
    keep = [i for i, s in enumerate(steal_shares) if s <= limit]
    if len(keep) > beyond:
        return keep
    by_share = sorted(range(len(steal_shares)), key=lambda i: steal_shares[i])
    return sorted(by_share[:beyond + 1])


def end_to_end(raw):
    """Metric values from the raw measurements, plus human notes."""
    limit = raw["max_steal_share"]
    it = undisturbed(raw["iter_steal"], limit)
    iter_s = [raw["iter_s"][i] for i in it]
    plan_s = [raw["plan_s"][i] for i in undisturbed(raw["plan_steal"], limit)]
    iter_tail, iter_pct = tail(iter_s)
    plan_tail, plan_pct = tail(plan_s)
    values = {
        "images_per_s": images_per_s(iter_s,
                                     [raw["iter_batch"][i] for i in it]),
        "iter_s_p50": statistics.median(iter_s),
        "iter_s_tail": iter_tail,
        "setup_s": statistics.median(raw["setup_s"]),
        "steady_rss_mib": raw["steady_rss_mib"],
        "plan_s_p50": statistics.median(plan_s),
        "plan_s_tail": plan_tail,
    }
    notes = {
        "iter_s_p50": f"{len(iter_s)} of {len(raw['iter_s'])} undisturbed",
        "iter_s_tail": f"p{iter_pct:.1f} of {len(iter_s)}",
        "plan_s_p50": f"{len(plan_s)} of {len(raw['plan_s'])} undisturbed",
        "plan_s_tail": f"p{plan_pct:.1f} of {len(plan_s)}",
        "setup_s": f"median of {len(raw['setup_s'])}",
    }
    return values, notes


def per_layer(raw):
    layers = raw["layers"]
    derived = {"kernels.conv_gflops": gflops(layers["kernels.conv_flops"],
                                             layers["kernels.conv_seconds"])}
    for t in ("1t", "3t"):
        derived[f"kernels.gemm_gflops_{t}"] = gflops(
            layers["kernels.gemm_flops"], layers[f"kernels.gemm_{t}_seconds"])
    return {k: derived[k] if k in derived else layers[k] for k in PER_LAYER}


def busy_agrees(layers):
    busy = layers["exec.compute_busy_s"]
    spans = layers.get("exec.compute_span_sum_s", 0.0)
    return abs(spans - busy) <= BUSY_AGREEMENT * busy


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    })


# --- build and environment ---------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configure (once) and build e2e_bench; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "e2e_bench"])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "e2e_bench")


def environment(raw_env):
    cpu, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = val.strip()
                elif key.strip() == "flags" and not flags:
                    flags = sorted(x for x in val.split()
                                   if x.startswith("avx512"))
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "avx512": flags,
            "build_type": raw_env["build_type"],
            "kernel_arch_flags": raw_env["kernel_arch_flags"],
            "compiler": raw_env["compiler"], "git_commit": commit}


# --- main ----------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = os.path.join(
            build_dir(), f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"e2ebench: e2e_bench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = failures(raw)
    for c in raw["checks"]:
        if c["got"] != c["want"]:
            print(f"MISMATCH {c['name']}: got {c['got']} want {c['want']}")
    try:
        if args.trace:
            values, units, notes = per_layer(raw), PER_LAYER, {}
            if raw["workload"] != "resnet50_plan_sweep" and not busy_agrees(
                    raw["layers"]):
                print("MISMATCH exclusive compute-op time vs "
                      "exec.compute_busy_s")
                failed = min(attempted, failed + 1)
        else:
            values, notes = end_to_end(raw)
            units = END_TO_END
    except (KeyError, ValueError, ZeroDivisionError) as e:
        # A phase that failed leaves too few samples for any metric.
        print(f"e2ebench: no metrics ({failed}/{attempted} failed): {e!r}",
              file=sys.stderr)
        return 1
    correct = failed == 0 and all(
        isinstance(values.get(k), (int, float)) and math.isfinite(values[k])
        for k in units)

    print(f"e2ebench workload={raw['workload']} seed={raw['seed']} "
          f"trace={args.trace} batch={raw['batch']}")
    print("env " + json.dumps(environment(raw["env"]), sort_keys=True))
    print("info " + json.dumps(raw["info"], sort_keys=True))
    for k in units:
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:28s} {values.get(k, float('nan')):.6g} {units[k]}{note}")
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    if trace_file:
        print(f"trace {trace_file} ({raw['trace_spans']} spans)")
    print(result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
