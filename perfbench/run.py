#!/usr/bin/env python3
"""End-to-end matrix benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/e2e_matrix from source
(CMake, into $CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  times process start to the first leg of runMatrix() over
             several launches (setup_s) and runs the untraced matrix
             for about --seconds,
             printing the end-to-end metrics;
  --trace 1  runs the traced rebuild and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Any build or run failure exits non-zero
without printing it. --self-test runs the tiny adpcm-only matrix in
both modes and checks every metric declared in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 20  # before the matrix, and again after it
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def child_env():
    # Every MCD_* variable shapes results or timings; the benchmark
    # pins its configuration in code.
    return {k: v for k, v in os.environ.items() if not k.startswith("MCD_")}


def build():
    bdir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "e2e_matrix"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "e2e_matrix")


def run_binary(exe, args, out_dir, quiet=False):
    """Run e2e_matrix; return its stdout lines. Its stderr passes
    through, or with quiet is shown only when the run fails."""
    cmd = [exe] + args + ["--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.PIPE if quiet else None,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        if quiet:
            sys.stderr.write(proc.stderr)
        raise RuntimeError(f"e2e_matrix exited {proc.returncode}")
    return proc.stdout.splitlines()


def parse_result(lines):
    """The binary's last line -> (ok, attempted, failed, metrics)."""
    for line in lines[:-1]:
        print(line, flush=True)
    doc = json.loads(lines[-1])
    metrics = {name: {"value": v, "unit": u}
               for name, (v, u) in doc["metrics"].items()}
    return doc["ok"], doc["attempted"], doc["failed"], metrics


def measure_setup(exe, workload, seed, out_dir):
    """Host seconds from process start (spawn included) to the first
    leg of runMatrix(), one sample per launch; and the failed count."""
    samples, failed = [], 0
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic_ns()
        try:
            # Every leg fails on purpose here; its warnings are noise.
            lines = run_binary(exe, ["--mode", "setup", "--workload",
                                     workload, "--seed", str(seed)],
                               out_dir, quiet=True)
            first_leg_ns = int(lines[-1].split()[1])
            samples.append((first_leg_ns - t0) / 1e9)
        except (RuntimeError, IndexError, ValueError) as e:
            log(f"setup run failed: {e}")
            failed += 1
    return samples, failed


def run_once(exe, workload, seed, seconds, trace):
    out_dir = os.path.join(build_root(), "runs", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        if trace:
            ok, attempted, failed, metrics = parse_result(
                run_binary(exe, ["--mode", "trace"] + common, out_dir))
        else:
            # Set-up launches run before the matrix and again after it,
            # so their median spans the whole run.
            before, failed_before = measure_setup(exe, workload, seed, out_dir)
            ok, attempted, failed, metrics = parse_result(run_binary(
                exe, ["--mode", "measure", "--seconds", str(seconds)] + common,
                out_dir))
            after, failed_after = measure_setup(exe, workload, seed, out_dir)
            setup = before + after
            metrics["setup_s"] = {
                "value": statistics.median(setup) if setup else math.nan,
                "unit": "s"}
            attempted += 2 * SETUP_LAUNCHES
            failed += failed_before + failed_after
            # success_ratio counts the set-up runs too.
            metrics["success_ratio"]["value"] = 1.0 - failed / attempted
        return {"correct": bool(ok) and failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def self_test(exe):
    """Tiny adpcm-only matrix: every declared metric, rebuild identity."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = run_once(exe, "selftest", 1, 1, trace)
        if not res["correct"] or res["failed"]:
            problems.append(f"trace {trace}: checks failed")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = res["metrics"]
        for name, unit in declared.items():
            if name not in got:
                problems.append(f"trace {trace}: {name} missing")
            elif got[name]["unit"] != unit:
                problems.append(f"trace {trace}: {name} unit "
                                f"{got[name]['unit']} != {unit}")
        for name in got.keys() - declared.keys():
            problems.append(f"trace {trace}: {name} not declared")
        if trace:
            layers = sum(v["value"] for k, v in got.items()
                         if k.endswith(".ms") or k == "workloads.build_ms")
            total = (layers + got["traced.unattributed_ms"]["value"]) / 1000.0
            wall = got["traced.wall_s"]["value"]
            if abs(total - wall) > 1e-6 * wall:
                problems.append(f"self times sum to {total} s, wall {wall} s")
            for name in ("analysis.dag.redundant_ratio",
                         "analysis.shaker.redundant_ratio"):
                if got[name]["value"] != 0.5:
                    problems.append(f"{name} = {got[name]['value']}, "
                                    "expected 0.5 (dyn1 and dyn5 share it)")
    for p in problems:
        log("self-test: " + p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        exe = build()
        if args.self_test:
            return self_test(exe)
        res = run_once(exe, args.workload, args.seed, args.seconds,
                       args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
