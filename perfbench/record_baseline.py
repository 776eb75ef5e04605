#!/usr/bin/env python3
"""Run the benchmark over ten seeds, twice, and summarize it.

    python3 perfbench/record_baseline.py [--write perfbench/baseline.json]

For each workload in BENCHMARK.json: two sets of untraced runs on seeds
1 to 10, each set followed by one traced run at seed 1. Prints, per
end-to-end metric and set, the median, the quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median, against a third of the metric's bound; then whether the second
set's median is worse than the first's by more than the bound. --write
stores the summary, the traced per-layer breakdowns and the build
details as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1])
    res["elapsed_s"] = round(elapsed, 2)
    res["digest"] = next((l.split()[1] for l in lines
                          if l.startswith("digest ")), None)
    return res


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def build_info():
    cache = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")),
        "perfbench", "CMakeCache.txt")
    info = {"nproc": os.cpu_count(), "machine": platform.machine()}
    with open(cache) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            if key.startswith("CMAKE_BUILD_TYPE:"):
                info["build_type"] = value
            elif key.startswith("CMAKE_CXX_COMPILER:"):
                out = subprocess.run([value, "--version"], text=True,
                                     stdout=subprocess.PIPE).stdout
                info["compiler"] = out.splitlines()[0]
    return info


def record_set(workload, spec):
    """Ten untraced seeds and one traced run; prints them and returns
    them with whether every spread stayed under a third of its bound."""
    runs = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
    entry = {"correct": all(r["correct"] for r in runs),
             "elapsed_s": [r["elapsed_s"] for r in runs],
             "digests": [r["digest"] for r in runs], "metrics": {}}
    steady = True
    print(f"== {workload}: run seconds {entry['elapsed_s']}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = m["unit"]
        entry["metrics"][name] = s
        ok = s["spread"] < bound / 3
        steady &= ok
        print(f"  {name:30s} median {s['median']:<12.6g} "
              f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f} (bound/3 {bound / 3:.4f})"
              f"{'' if ok else '  <-- NOT STEADY'}")
    traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
    entry["traced"] = {
        "seed": SEEDS[0], "correct": traced["correct"],
        "elapsed_s": traced["elapsed_s"],
        "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
    t = entry["traced"]["metrics"]
    print(f"  traced: correct {traced['correct']} wall "
          f"{t['traced.wall_s']:.3f} s, overhead "
          f"{t['traced.overhead_pct']:.2f}%, elapsed "
          f"{traced['elapsed_s']} s")
    return entry, steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        (first, steady_first), (second, steady_second) = [
            record_set(w, spec) for _ in range(2)]
        steady &= steady_first and steady_second
        print(f"== {w}: second set against the first")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = first["metrics"][name]["median"]
            b = second["metrics"][name]["median"]
            worse = (b - a if m["better"] == "lower" else a - b) / abs(a)
            ok = worse <= bound
            steady &= ok
            print(f"  {name:30s} {a:<12.6g} -> {b:<12.6g} worse by "
                  f"{worse:+.4f} (bound {bound}){'' if ok else '  <-- FAIL'}")
        first["second_set_medians"] = {
            k: v["median"] for k, v in second["metrics"].items()}
        first["second_set_traced_overhead_pct"] = \
            second["traced"]["metrics"]["traced.overhead_pct"]
        first["second_set_correct"] = second["correct"]
        out["workloads"][w] = first
    print("steady" if steady else "NOT steady")
    if args.write:
        out["build"] = build_info()
        with open(args.write, "w") as f:
            json.dump(out, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
