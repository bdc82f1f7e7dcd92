#!/usr/bin/env python3
"""The repo benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/, CMake) into .bench_build/perfbench on
first use, then runs passes of the workload for about S seconds.  Every
pass is a fresh process, so peak RSS and set-up time are its own.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.  Every pass is checked against perfbench/expected.json
(see README.md).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = 4
SETUP_PROBES = 31
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not (ROOT / "src" / "sweep" / "sweep.hpp").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(BUILD_JOBS, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_pass(workload, seed, trace=False, setup_only=False, trace_out=None):
    """One fresh harness process.  Adds setup_s: from just before the
    process is spawned to its first call into the engine."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic_ns()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: "
                         f"{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["engine_entry_ns"] - t0) / 1e9
    return result


# ------------------------------------------------------------- the gate ---

def is_known_defect(exp, key):
    return any(key.startswith(p) for p in exp.get("known_defect_prefixes", []))


def gate(exp, seed, default_seed, result):
    """The problems with one pass's outputs; empty when they are correct.

    On the default seed the pass must reproduce the pinned digest, store
    hash, verdict counts and unexpected-outcome keys exactly.  On any other
    seed it must show no outcome outside the workload's expected classes,
    and every violation or error must fall in the workload's known-defect
    class (such outcomes still count in failed_share).
    """
    problems = []
    if seed == default_seed:
        pinned = exp["pinned"]
        for name in ("scenarios", "digest", "store_fnv", "counts"):
            if result[name] != pinned[name]:
                problems.append(f"{name} {result[name]} != pinned {pinned[name]}")
        if sorted(result["unexpected"]) != sorted(pinned["unexpected"]):
            problems.append(f"unexpected outcomes {result['unexpected']} != "
                            f"pinned {pinned['unexpected']}")
    allowed = set(exp["expected_classes"])
    for name, n in result["counts"].items():
        if n and name not in allowed:
            problems.append(f"{n} scenario(s) in class {name}")
    if result["unexpected_count"] > len(result["unexpected"]) or any(
            not is_known_defect(exp, k) for k in result["unexpected"]):
        problems.append(f"{result['unexpected_count']} unexpected outcome(s), "
                        f"first: {result['unexpected'][:4]}")
    return problems


def account(exp, seed, default_seed, passes):
    """(attempted, failed, problems) over all passes: every scenario of a
    pass that fails the gate counts as failed."""
    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += p["scenarios"]
        found = gate(exp, seed, default_seed, p)
        if found:
            failed += p["scenarios"]
            problems += found
    return attempted, failed, problems


def failed_share(result):
    """Share of scenarios whose outcome is a violation or an error."""
    return result["unexpected_count"] / result["scenarios"]


# ------------------------------------------------------------ measuring ---

def measure(workload, seed, seconds, trace):
    """Runs passes for about `seconds`; returns (untraced, traced, setups)."""
    start = time.monotonic()
    setups = [run_pass(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    TRACES.mkdir(parents=True, exist_ok=True)
    while True:
        t0 = time.monotonic()
        untraced.append(run_pass(workload, seed))
        if trace:
            out = TRACES / f"{workload}-seed{seed}-pass{len(traced)}.jsonl"
            traced.append(run_pass(workload, seed, trace=True, trace_out=out))
        cycle = time.monotonic() - t0
        # Stop before a cycle that would overrun the measuring time.
        if time.monotonic() - start + cycle > seconds:
            break
    return untraced, traced, setups


def median_of(passes, fn):
    return statistics.median(fn(p) for p in passes)


def end_to_end(untraced, setups):
    first = untraced[0]
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in untraced]),
        "throughput_per_s": median_of(untraced,
                                      lambda p: p["scenarios"] / p["engine_s"]),
        "peak_rss_mb": median_of(untraced, lambda p: p["peak_rss_mb"]),
        "expected_share": 1 - failed_share(first),
    }


def per_layer(untraced, traced):
    names = traced[0]["layer_metrics"].keys()
    layers = {n: median_of(traced, lambda p, n=n: p["layer_metrics"][n])
              for n in names}
    layers["obs.trace_overhead_share"] = (
        median_of(traced, lambda p: p["engine_s"]) /
        median_of(untraced, lambda p: p["engine_s"]) - 1)
    layers["failed_share"] = failed_share(untraced[0])
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        expected = load_json(HERE / "expected.json")
        if args.workload not in expected["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        seconds = args.seconds or bench["run_seconds"]
        build()
        untraced, traced, setups = measure(args.workload, args.seed, seconds,
                                           args.trace == 1)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted, failed, problems = account(
        expected["workloads"][args.workload], args.seed,
        expected["default_seed"], untraced + traced)
    for problem in problems:
        print(f"perfbench: INCORRECT {args.workload} seed {args.seed}: "
              f"{problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(untraced, traced)
        specs = bench["per_layer"]
    else:
        values = end_to_end(untraced, setups)
        specs = bench["end_to_end"]
    first = untraced[0]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced pass(es), {first['threads']} "
          f"threads, nproc {len(os.sched_getaffinity(0))}, build "
          f"{first['build_type']}")
    print(f"digest {first['digest']} store_fnv {first['store_fnv']} "
          f"counts {json.dumps(first['counts'])} witness_choices "
          f"{first['witness_choices']}")
    print("engine seconds per pass: "
          + " ".join(f"{p['engine_s']:.3f}" for p in untraced)
          + (" | traced: " + " ".join(f"{p['engine_s']:.3f}" for p in traced)
             if traced else ""))
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
        print(f"  {spec['name']:<36} {values[spec['name']]:>16.6g} {spec['unit']}")
    if args.trace:
        last = traced[-1]
        print(f"layer self time of the last traced pass (wall "
              f"{last['wall_s']:.6f} s, residual {last['residual_s']:.6f} s; "
              f"spans in {TRACES.relative_to(ROOT)}):")
        for name, self_s in sorted(last["self_s"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"  {name:<36} {self_s:>16.6f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
