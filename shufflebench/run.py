#!/usr/bin/env python3
"""End-to-end shuffle benchmark: builds the package and runs it.

Builds the benchmark (a CMake package that compiles the repository's shuffle
libraries from src/) and runs one workload:

  python3 shufflebench/run.py --workload terasort-bulk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds BENCHMARK.json's end_to_end
metrics with --trace 0 and its per_layer metrics with --trace 1.

Other modes:
  --collect OUT.json [--runs N] [--seconds S] [--workloads a,b]
        runs every workload N times (default once, tracing off) and appends
        the runs to the result set in OUT.json, each with the next seed of
        its workload and its start time;
  --compare PARENT.json CHANGE.json
        pairs the two result sets' runs by seed and prints median and
        quartiles of both for every workload and end-to-end metric, with a
        verdict (see README.md). A workload gets a verdict only if each
        pair's two runs ran back to back: collect the sets one run at a
        time, switching between the two checkouts.
  --selftest
        builds and runs the benchmark's own tests.

Run from the repository root. Build output goes to $CARGO_TARGET_DIR (default
.bench_build)/shufflebench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "shufflebench")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the package; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("shufflebench: build failed: " + " ".join(step))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(out, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed RESULT object)."""
    workdir = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(out, "shufflebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("shufflebench: %s seed %s timed out" % (workload, seed))
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if result is None:
        raise SystemExit("shufflebench: no result (exit %d)" % proc.returncode)
    return proc.returncode, result


def run_one(args):
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    out = build()
    code, result = run_binary(out, args.workload, args.seed, args.seconds,
                              args.trace)
    correct = bool(result["correct"]) and code == 0
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            raise SystemExit("shufflebench: metric %s was not measured" % name)
        metrics[name] = result["metrics"][name]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def collect(args):
    spec = load_spec()
    out = build()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    data = {"end_to_end": spec["end_to_end"], "results": {}}
    if os.path.exists(args.collect):
        with open(args.collect) as f:
            data = json.load(f)
    for _ in range(args.runs):
        for workload in workloads:
            runs = data["results"].setdefault(workload, [])
            seed = 1 + max([r["seed"] for r in runs], default=0)
            start = time.time()
            code, result = run_binary(out, workload, seed, args.seconds, 0,
                                      echo=False)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            log("%s seed %d: exit %d %s" % (workload, seed, code, json.dumps(values)))
            runs.append({"seed": seed, "start": start,
                         "correct": result["correct"] and code == 0,
                         "metrics": values})
            with open(args.collect + ".tmp", "w") as f:
                json.dump(data, f, indent=1)
            os.replace(args.collect + ".tmp", args.collect)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """better / worse / unresolved / within-bound for one metric.

    better: the change wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than the parent's quartile spread.
    unresolved: the parent's spread exceeds the bound, unless every change
    run beats every parent run. worse: the change's median is worse than the
    parent's by more than the bound. within-bound: none of these.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound:
        return "better" if all_better else "unresolved"
    loss = sign * (p_med - c_med) / abs(p_med) if p_med else 0
    return "worse" if loss > bound else "within-bound"


def paired(p_runs, c_runs):
    """The parent and change runs of the seeds both sets have, in seed order."""
    p_by_seed = {r["seed"]: r for r in p_runs}
    c_by_seed = {r["seed"]: r for r in c_runs}
    seeds = sorted(set(p_by_seed) & set(c_by_seed))
    return [p_by_seed[s] for s in seeds], [c_by_seed[s] for s in seeds]


def interleaved(p_runs, c_runs):
    """True if, ordered by start time, the runs fall into consecutive twos
    that each hold the parent and the change run of one seed, so that a
    pair's two runs saw the same state of the machine. Either side may run
    first in a pair."""
    if any("start" not in r for r in p_runs + c_runs):
        return False
    order = sorted([(r["start"], "p", r["seed"]) for r in p_runs] +
                   [(r["start"], "c", r["seed"]) for r in c_runs])
    return len(order) % 2 == 0 and all(
        a[1] != b[1] and a[2] == b[2] for a, b in zip(order[0::2], order[1::2]))


def compare(args):
    with open(args.compare[0]) as f:
        parent = json.load(f)
    with open(args.compare[1]) as f:
        change = json.load(f)
    fmt = "%-20s %-18s %-6s %30s %30s  %s"
    print(fmt % ("workload", "metric", "unit", "parent q1/median/q3",
                 "change q1/median/q3", "verdict"))
    code = 0
    for workload, p_all in parent["results"].items():
        p_runs, c_runs = paired(p_all, change["results"].get(workload, []))
        if not p_runs:
            print("%-20s no seed in common with %s" % (workload, args.compare[1]))
            code = 1
            continue
        if not interleaved(p_runs, c_runs):
            print("%-20s runs not interleaved: collect each pair's parent and "
                  "change runs back to back; no verdict" % workload)
            code = 1
            continue
        for metric in parent["end_to_end"]:
            name = metric["name"]
            pairs = [(a["metrics"][name], b["metrics"][name])
                     for a, b in zip(p_runs, c_runs)
                     if name in a["metrics"] and name in b["metrics"]]
            if not pairs:
                continue
            p = [a for a, _ in pairs]
            c = [b for _, b in pairs]
            show = lambda v: "%.4g/%.4g/%.4g" % quartiles(v)
            print(fmt % (workload, name, metric["unit"], show(p), show(c),
                         verdict(p, c, metric["better"], metric["bound"])))
    return code


def selftest():
    out = build()
    code = subprocess.run([os.path.join(out, "shufflebench_selftest")]).returncode
    import unittest
    sys.path.insert(0, HERE)
    suite = unittest.defaultTestLoader.loadTestsFromName("test_compare")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--collect", metavar="OUT.json")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(args)
    if args.collect:
        return collect(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
