#!/usr/bin/env python3
"""Compare two commits on the repo benchmark, in pairs run on one machine.

    python3 tools/ab.py --base REV [--pairs N] [--seconds S] [--seed K]
    python3 tools/ab.py --selftest

The parent side is REV's tree, extracted with `git archive` to
.bench_build/ab/<sha>/ and kept there, so its harness build is reused.
The change side is the tree this script sits in, uncommitted edits
included.  For every workload in BENCHMARK.json, N pairs each run
`perfbench/run.py --workload W --seed K [--seconds S] --trace 0` once
per tree, every tree with its own run.py; the pairs alternate which side
runs first.  Defaults: 10 pairs, BENCHMARK.json's run length, seed 0.

For each workload and end-to-end metric the table gives the parent's
median (q1-q3), the change's, their ratio and the pairs the change won
(ties count for neither); every run's value follows.  Metric names,
units, directions and bounds come from BENCHMARK.json, and a bound is a
share of the parent's median.  A metric whose parent q3-q1 is wider than
its bound reads `unresolved`.

Exit status:
  0  no regression;
  1  a resolved metric's change median is worse than the parent's by
     more than its bound, an unresolved metric has every change run worse
     than every parent run by more than its bound, the change's summed
     failed/attempted share is larger than the parent's, or a change run
     is incorrect or fails;
  2  the trees' BENCHMARK.json or perfbench/ differ, a parent run fails
     or is incorrect, or the arguments are bad.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / ".bench_build" / "ab"
SHARED = ("BENCHMARK.json", "perfbench")  # must match byte for byte
SIDES = ("parent", "change")


class Stop(Exception):
    """Ends the comparison early with exit status `code`."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def git(*args):
    done = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=False)
    if done.returncode != 0:
        raise Stop(2, f"git {' '.join(args)} failed: "
                      f"{done.stderr.decode().strip()}")
    return done.stdout


def read_files(tree, names):
    return {n: (tree / n).read_bytes() for n in names if (tree / n).is_file()}


def parent_tree(rev):
    """(sha, tree, {path: bytes} of SHARED) for REV, extracted once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = AB / sha
    if not tree.is_dir():
        part = AB / f"{sha}.part"
        shutil.rmtree(part, ignore_errors=True)
        part.mkdir(parents=True)
        if subprocess.run(["tar", "-x", "-C", str(part)],
                          input=git("archive", sha),
                          check=False).returncode != 0:
            raise Stop(2, f"could not extract {sha} into {part}")
        part.rename(tree)
    names = git("ls-tree", "-r", "-z", "--name-only", sha, "--", *SHARED)
    return sha, tree, read_files(tree, names.decode().split("\0"))


def change_files():
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                "--", *SHARED)
    return read_files(ROOT, names.decode().split("\0"))


def same_benchmark(parent, change):
    """Raises Stop(2) unless both trees hold the same SHARED files."""
    differ = sorted(n for n in parent.keys() | change.keys()
                    if parent.get(n) != change.get(n))
    if differ:
        raise Stop(2, "the two trees' benchmarks differ, so their runs do "
                      f"not compare: {', '.join(differ)}")


def run(tree, workload, args):
    """One run.py pass in `tree`; its closing JSON object, or None."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", f"{args.seconds:g}"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def measure(bench, trees, args):
    """{workload: {side: [run.py result, ...]}}, pairs interleaved."""
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run(trees[side], workload, args)
                if result is None:
                    raise Stop(2 if side == "parent" else 1,
                               f"the {side} run of {workload} failed")
                if side == "parent" and not result["correct"]:
                    raise Stop(2, f"the parent run of {workload} is incorrect")
                runs[workload][side].append(result)
            print(f"ab: {workload} pair {i + 1}/{args.pairs} done",
                  file=sys.stderr, flush=True)
    return runs


def quartiles(values):
    """(median, q1, q3), quartiles interpolated between closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def spell(values):
    return " ".join(f"{v:.6g}" for v in values)


def compare(bench, runs):
    """(report lines, problems): each problem is a reason to exit 1."""
    table = ["| workload | metric | parent median (q1-q3) | "
             "change median (q1-q3) | ratio | change won | verdict |",
             "|---|---|---|---|---|---|---|"]
    values, shares, problems = [], [], []
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            sign = 1 if spec["better"] == "higher" else -1
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            pm, pq1, pq3 = quartiles(p)
            cm, cq1, cq3 = quartiles(c)
            won = sum(sign * (y - x) > 0 for x, y in zip(p, c))
            slack = bound * abs(pm)
            unresolved = pq3 - pq1 > slack
            if unresolved:
                worse = all(sign * (x - y) > slack for x in p for y in c)
                why = "every change run is worse than every parent run"
            else:
                worse = sign * (pm - cm) > slack
                why = "the change median is worse than the parent's"
            verdict = "unresolved" if unresolved else "ok"
            if worse:
                verdict = "unresolved, WORSE" if unresolved else "WORSE"
                problems.append(f"{workload} {name}: {why} by more than "
                                f"its bound ({bound:g} x {pm:.6g})")
            ratio = f"{cm / pm:.3f}x" if pm else "-"
            table.append(f"| {workload} | {name} ({spec['unit']}) | "
                         f"{pm:.6g} ({pq1:.6g}-{pq3:.6g}) | "
                         f"{cm:.6g} ({cq1:.6g}-{cq3:.6g}) | {ratio} | "
                         f"{won}/{len(p)} | {verdict} |")
            values.append(f"{workload} {name}: parent {spell(p)} | "
                          f"change {spell(c)}")
        failed = {s: sum(r["failed"] for r in sides[s]) for s in SIDES}
        tried = {s: sum(r["attempted"] for r in sides[s]) for s in SIDES}
        shares.append(f"{workload} failed/attempted: parent "
                      f"{failed['parent']}/{tried['parent']} | change "
                      f"{failed['change']}/{tried['change']}")
        if (failed["change"] * tried["parent"]
                > failed["parent"] * tried["change"]):
            problems.append(f"{workload}: the change's failed share is "
                            "larger than the parent's")
        incorrect = sum(not r["correct"] for r in change)
        if incorrect:
            problems.append(f"{workload}: {incorrect} of {len(change)} "
                            "change runs are incorrect")
    return table + ["", "Every run, in pair order:"] + values + shares, problems


def selftest():
    bench = {"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.25}]}

    def result(rate, rss=5.0, failed=0):
        return {"correct": failed == 0, "attempted": 100, "failed": failed,
                "metrics": {"rate": {"value": rate, "unit": "1/s"},
                            "rss": {"value": rss, "unit": "MB"}}}

    def compare_one(parent, change):
        return compare(bench, {"w": {"parent": parent, "change": change}})

    assert quartiles([5, 1, 4, 2, 3]) == (3, 2, 4)
    assert quartiles([4, 3, 2, 1]) == (2.5, 1.75, 3.25)
    assert quartiles([7]) == (7, 7, 7)

    # Pairs won: 11 > 10 and 12 > 10 win, 10 = 10 ties, 9 < 10 loses.
    lines, problems = compare_one([result(10)] * 4,
                                  [result(r) for r in (11, 10, 9, 12)])
    assert not problems, problems
    assert ("| w | rate (1/s) | 10 (10-10) | 10.5 (9.75-11.25) | 1.050x | "
            "2/4 | ok |") in lines, lines
    assert "| w | rss (MB) | 5 (5-5) | 5 (5-5) | 1.000x | 0/4 | ok |" in lines
    assert "w rate: parent 10 10 10 10 | change 11 10 9 12" in lines

    # Resolved regressions, in either direction.
    lines, problems = compare_one([result(r) for r in (100, 101, 99, 100)],
                                  [result(r) for r in (70, 71, 69, 70)])
    assert len(problems) == 1 and problems[0].startswith("w rate: the change "
                                                         "median"), problems
    assert lines[2].endswith("| 0/4 | WORSE |"), lines
    _, problems = compare_one([result(10)] * 4, [result(10, rss=7.0)] * 4)
    assert len(problems) == 1 and problems[0].startswith("w rss:"), problems
    # Within the bound is no regression.
    _, problems = compare_one([result(10)] * 4, [result(7.6)] * 4)
    assert not problems, problems

    # An unresolved spread: the change median is 44% lower, but the
    # parent's own q3-q1 (75) is wider than 0.25 x 125, so it passes ...
    wide = [result(r) for r in (50, 100, 150, 200)]
    lines, problems = compare_one(wide, [result(r) for r in (40, 60, 80, 200)])
    assert not problems, problems
    assert lines[2].endswith("| unresolved |"), lines
    # ... unless every change run is worse than every parent run.
    lines, problems = compare_one(wide, [result(r) for r in (1, 2, 3, 4)])
    assert len(problems) == 1 and "every change run" in problems[0], problems
    assert lines[2].endswith("| unresolved, WORSE |"), lines

    # A larger failed share fails even when the metrics hold.
    _, problems = compare_one([result(10, failed=1)] * 2,
                              [result(10, failed=1), result(10, failed=2)])
    assert any("failed share" in p for p in problems), problems
    _, problems = compare_one([result(10, failed=1)] * 2,
                              [result(10, failed=1)] * 2)
    assert not any("failed share" in p for p in problems), problems
    assert any("2 of 2 change runs are incorrect" in p for p in problems)

    # Trees whose perfbench/ differ do not compare: exit 2.
    same = {"BENCHMARK.json": b"{}", "perfbench/run.py": b"a"}
    same_benchmark(same, dict(same))
    for change in ({**same, "perfbench/run.py": b"b"},
                   {**same, "perfbench/new.py": b""},
                   {"BENCHMARK.json": b"{}"}):
        try:
            same_benchmark(same, change)
            raise AssertionError(f"{change} passed")
        except Stop as e:
            assert e.code == 2 and "perfbench/" in str(e), e
    print("ab selftest ok")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="the parent commit, any git revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if not args.base or args.pairs < 1 or args.seed < 0 or (
            args.seconds is not None and args.seconds <= 0):
        ap.error("need --base, --pairs >= 1, --seed >= 0 and --seconds > 0")

    try:
        sha, tree, parent = parent_tree(args.base)
        same_benchmark(parent, change_files())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        runs = measure(bench, {"parent": tree, "change": ROOT}, args)
    except Stop as e:
        print(f"ab: {e}", file=sys.stderr)
        return e.code
    lines, problems = compare(bench, runs)
    seconds = f"{args.seconds:g}" if args.seconds else str(bench["run_seconds"])
    print(f"parent {sha[:12]} vs the working tree: {args.pairs} pairs per "
          f"workload, seed {args.seed}, {seconds} s per run")
    print("\n".join(lines))
    for problem in problems:
        print(f"ab: REGRESSION {problem}")
    print(f"ab: {'regression' if problems else 'no regression'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
