#!/usr/bin/env python3
"""Render or diff sweep_main --metrics dumps.

Usage:
    tools/metrics_report.py DUMP            # render one dump as a table
    tools/metrics_report.py OLD NEW         # diff two dumps
    tools/metrics_report.py OLD NEW --threshold 10 [--strict]

A dump is the JSONL file `sweep_main --metrics PATH` writes: one meta
line, then every counter and gauge (zeros included, registry order),
then one line per histogram with its non-zero power-of-two buckets.

Render mode prints the counters/gauges grouped by subsystem prefix,
histograms as bucket rows, and a few derived rows (memo hit rate,
prune fraction, wsl cache hit rate, network delivery rate, and the
explore shrink probes split into replays and repeats).

Diff mode prints old/new/delta/pct for every metric present in either
dump.  With --threshold P, stable counters whose relative change
exceeds P percent are listed as regressions; --strict turns any such
regression into exit status 1 (the CI hook).  Unstable (runtime)
metrics — pool.* and sweep.stamped — are reported but never gate.  A
metric only one dump has (a build that added or deleted it) prints
`new` or `removed` and never gates either.

Exit status: 0 ok, 1 --strict threshold breach, 2 usage/parse error.
"""

import argparse
import json
import signal
import sys

# Die quietly when piped into head & co.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def load(path):
    """Returns (meta, {name: value}, {name: {bucket: count}}, {name: stable})."""
    meta, scalars, hists, stable = {}, {}, {}, {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except ValueError:
                    print(f"metrics_report: {path}:{ln}: not JSON",
                          file=sys.stderr)
                    sys.exit(2)
                kind = d.get("obs")
                if kind == "meta":
                    meta = d
                elif kind in ("counter", "gauge"):
                    scalars[d["name"]] = int(d["value"])
                    stable[d["name"]] = bool(d.get("stable", True))
                elif kind == "hist":
                    hists[d["name"]] = {
                        int(k[1:]): int(v) for k, v in d.items()
                        if k.startswith("b") and k[1:].isdigit()}
                    stable[d["name"]] = bool(d.get("stable", True))
    except OSError as e:
        print(f"metrics_report: {e}", file=sys.stderr)
        sys.exit(2)
    return meta, scalars, hists, stable


def rate(num, den):
    return f"{100.0 * num / den:.1f}%" if den else "-"


def derived(scalars):
    g = scalars.get
    return [
        ("checker memo hit rate",
         rate(g("checker.memo_hits", 0), g("checker.solver_calls", 0))),
        ("checker prune fraction",
         rate(g("checker.prune_doomed", 0) + g("checker.prune_eager_read", 0)
              + g("checker.prune_accept", 0), g("checker.dfs_nodes", 0))),
        ("wsl cache hit rate",
         rate(g("wsl.cache_hits", 0),
              g("wsl.cache_hits", 0) + g("wsl.cache_misses", 0))),
        ("net delivery rate",
         rate(g("net.delivered", 0), g("net.msgs_sent", 0))),
        # shrink_probes counts candidates tested; a repeat is not replayed.
        ("explore shrink probes",
         f"{g('explore.shrink_probes', 0)} = "
         f"{g('explore.shrink_probes', 0) - g('explore.shrink_repeats', 0)}"
         f" replays + {g('explore.shrink_repeats', 0)} repeats"),
    ]


def render(path):
    meta, scalars, hists, stable = load(path)
    if meta:
        print(f"mode:   {meta.get('mode', '?')}")
        print(f"config: {meta.get('config', '?')}")
    width = max((len(n) for n in scalars), default=10)
    # One block per subsystem prefix, in the order prefixes first appear:
    # a counter appended to the registry later still lists with its kin.
    groups = {}
    for name in scalars:
        groups.setdefault(name.split(".", 1)[0], []).append(name)
    for group, names in groups.items():
        print(f"-- {group} --")
        for name in names:
            tag = "" if stable.get(name, True) else "   (runtime)"
            print(f"  {name:<{width}} {scalars[name]:>14}{tag}")
    for name, buckets in hists.items():
        tag = "" if stable.get(name, True) else "   (runtime)"
        print(f"-- hist {name}{tag} --")
        if not buckets:
            print("  (empty)")
        for b in sorted(buckets):
            lo = 0 if b == 0 else 1 << (b - 1)
            hi = (1 << b) - 1
            print(f"  [{lo}, {hi}] {buckets[b]:>12}")
    print("-- derived --")
    for label, value in derived(scalars):
        print(f"  {label:<28} {value}")
    return 0


def diff(old_path, new_path, threshold, strict):
    _, old, old_h, old_stable = load(old_path)
    _, new, new_h, new_stable = load(new_path)
    names = list(dict.fromkeys(list(old) + list(new)))
    width = max((len(n) for n in names), default=10)
    print(f"  {'metric':<{width}} {'old':>14} {'new':>14} "
          f"{'delta':>14} {'pct':>8}")
    regressions = []
    for name in names:
        if name not in old or name not in new:
            o, n = old.get(name, "-"), new.get(name, "-")
            tag = "new" if name not in old else "removed"
            print(f"  {name:<{width}} {o:>14} {n:>14} {'-':>14} {tag:>8}")
            continue
        o, n = old[name], new[name]
        d = n - o
        pct = f"{100.0 * d / o:+.1f}%" if o else ("-" if d == 0 else "inf")
        mark = ""
        stable = old_stable[name]
        if (threshold is not None and stable and o
                and abs(100.0 * d / o) > threshold):
            mark = "  <-- exceeds threshold"
            regressions.append(name)
        print(f"  {name:<{width}} {o:>14} {n:>14} {d:>+14} {pct:>8}{mark}")
    for name in dict.fromkeys(list(old_h) + list(new_h)):
        if name not in old_h or name not in new_h:
            print(f"  hist {name}: "
                  f"{'new' if name not in old_h else 'removed'}")
            continue
        ob, nb = old_h[name], new_h[name]
        if ob != nb:
            print(f"  hist {name}: buckets changed "
                  f"({sum(ob.values())} -> {sum(nb.values())} samples)")
    if regressions:
        print(f"metrics_report: {len(regressions)} metric(s) moved more "
              f"than {threshold}%: {', '.join(regressions)}",
              file=sys.stderr)
        if strict:
            return 1
    return 0


def main():
    ap = argparse.ArgumentParser(add_help=True, usage=__doc__)
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--threshold", type=float, default=None)
    ap.add_argument("--strict", action="store_true")
    args = ap.parse_args()
    if len(args.dumps) == 1:
        return render(args.dumps[0])
    if len(args.dumps) == 2:
        return diff(args.dumps[0], args.dumps[1], args.threshold,
                    args.strict)
    print("metrics_report: expected one dump (render) or two (diff)",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
