#!/usr/bin/env python3
"""Observability overhead gate: instrumented sweep within N% of plain.

Usage:
    tools/obs_gate.py [--bin PATH] [--runs K] [--threshold PCT] \
        -- <sweep_main args>

Runs the given sweep K times plain and K times fully instrumented
(--metrics + --trace to scratch files), takes the min elapsed time of
each side (min-of-K is the standard de-noising for wall-clock gates),
and fails if the instrumented minimum exceeds the plain minimum by
more than PCT percent.  The elapsed time is the sweep's own
`elapsed_us` line in its "--- timing ---" section, so process startup
is excluded, and a run of a few tens of milliseconds still resolves
far finer than the threshold.

Exit status: 0 within threshold, 1 breach, 2 usage/machinery error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

ELAPSED = re.compile(r"^elapsed_us (\d+)$", re.MULTILINE)


def run_once(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        print(f"obs_gate: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)
    m = ELAPSED.search(proc.stdout)
    if not m:
        print("obs_gate: no elapsed_us in sweep output", file=sys.stderr)
        sys.exit(2)
    return int(m.group(1)) / 1000.0


def main():
    ap = argparse.ArgumentParser(add_help=True, usage=__doc__)
    ap.add_argument("--bin", default=os.path.join("build", "sweep_main"))
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--threshold", type=float, default=5.0)
    ap.add_argument("sweep_args", nargs="*")
    args = ap.parse_args()
    sweep_args = args.sweep_args
    if sweep_args and sweep_args[0] == "--":
        sweep_args = sweep_args[1:]
    if args.runs < 1:
        print("obs_gate: --runs must be >= 1", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="obs_gate.") as work:
        plain_cmd = [args.bin] + sweep_args
        inst_cmd = plain_cmd + [
            "--metrics", os.path.join(work, "m.jsonl"),
            "--trace", os.path.join(work, "t.jsonl")]
        # Interleave plain/instrumented runs so thermal or load drift
        # hits both sides equally.
        plain, inst = [], []
        for _ in range(args.runs):
            plain.append(run_once(plain_cmd))
            inst.append(run_once(inst_cmd))

    base, instd = min(plain), min(inst)
    overhead = 100.0 * (instd - base) / base if base else 0.0
    def ms(runs):
        return "[" + ", ".join(f"{t:.3f}" for t in runs) + "]"

    print(f"obs_gate: plain min {base:.3f}ms (of {ms(plain)}), "
          f"instrumented min {instd:.3f}ms (of {ms(inst)}), overhead "
          f"{overhead:+.1f}% (threshold {args.threshold}%)")
    if base and overhead > args.threshold:
        print("obs_gate: instrumented sweep exceeds the overhead "
              "threshold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
