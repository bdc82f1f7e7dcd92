#!/usr/bin/env python3
"""Seeded single-edit mutants of sweep stores through --merge and --replay.

usage: store_mutants.py SWEEP_MAIN [--per-kind N] [--seed S]

Writes 2-shard stores of a small safety, term and explore sweep, then
makes N mutants of each (default 120, so 360 in all).  A mutant applies
one edit to one shard store: truncate a line, flip a bit, swap a number
for 18446744073709551616, -1, 1e9, 09, 4294967300 or n+1, drop a quote,
unquote a string, delete a line, or duplicate a line.  Each mutant must
make `sweep_main --merge` exit 2 naming the mutated store, or merge to
exactly the clean merge's store, summary and exit code.

Then eight in-place edits of one explore record must each make
`sweep_main --replay` exit 1 and print MALFORMED.

Exit 0 when every mutant behaves, 1 otherwise (each failure listed).
Uses only the standard library.
"""

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile

SWEEPS = {
    "safety": ["--seeds", "0:3"],
    "term": ["--term", "--seeds", "0:2"],
    "explore": ["--explore", "--objective", "rounds", "--families",
                "consensus,game", "--rounds", "4", "--search-budget", "2",
                "--shrink-budget", "64", "--seeds", "0:2"],
}
SWAPS = [b"18446744073709551616", b"-1", b"1e9", b"09", b"4294967300"]
NUMBER = re.compile(rb'(?<=":)\d+(?=[,}])')
STRING = re.compile(rb'(?<=":)"(?:[^"\\]|\\.)*"')


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=120)


def lines_of(data):
    return data.splitlines(keepends=True)


def mutate(data, rng):
    """One single-edit mutant of `data` (bytes) and what the edit was."""
    lines = lines_of(data)
    op = rng.choice(["truncate", "flip", "number", "quote", "unquote",
                     "delete", "duplicate"])
    if op == "flip":
        at = rng.randrange(len(data))
        bit = rng.randrange(8)
        out = bytearray(data)
        out[at] ^= 1 << bit
        return bytes(out), f"flip bit {bit} of byte {at}"
    if op == "quote":
        at = rng.choice([i for i, b in enumerate(data) if b == ord('"')])
        return data[:at] + data[at + 1:], f"drop the quote at byte {at}"
    k = rng.randrange(len(lines))
    line = lines[k]
    if op == "truncate":
        cut = rng.randrange(len(line) - 1)
        lines[k] = line[:cut] + b"\n"
        what = f"truncate line {k} to {cut} bytes"
    elif op == "delete":
        del lines[k]
        what = f"delete line {k}"
    elif op == "duplicate":
        lines.insert(k, line)
        what = f"duplicate line {k}"
    else:
        pattern = NUMBER if op == "number" else STRING
        found = list(pattern.finditer(line))
        if not found:
            return mutate(data, rng)
        m = rng.choice(found)
        if op == "number":
            new = rng.choice(SWAPS + [str(int(m.group()) + 1).encode()])
        else:
            new = m.group()[1:-1]
        lines[k] = line[:m.start()] + new + line[m.end():]
        what = f"line {k}: {m.group()[:40]!r} -> {new[:40]!r}"
    return b"".join(lines), what


def check_merges(bin_path, work, kind, args, per_kind, rng, failures):
    shards = []
    for i in range(2):
        path = os.path.join(work, f"{kind}{i}.jsonl")
        r = run([bin_path, *args, "--shard", f"{i}/2", "--out", path], work)
        if r.returncode not in (0, 1):
            sys.exit(f"{kind} shard {i} failed: {r.stderr.decode()}")
        with open(path, "rb") as f:
            shards.append(f.read())
    merged = os.path.join(work, f"{kind}.merged")
    names = [os.path.join(work, f"{kind}{i}.jsonl") for i in range(2)]

    def merge():
        if os.path.exists(merged):
            os.remove(merged)
        r = run([bin_path, "--merge", *names, "--out", merged], work)
        store = None
        if os.path.exists(merged):
            with open(merged, "rb") as f:
                store = f.read()
        return r, store

    clean, clean_store = merge()
    if clean.returncode not in (0, 1) or clean_store is None:
        sys.exit(f"{kind}: the clean merge failed: {clean.stderr.decode()}")
    rejected = 0
    made = 0
    while made < per_kind:
        victim = rng.randrange(2)
        mutant, what = mutate(shards[victim], rng)
        if mutant == shards[victim]:
            continue
        made += 1
        with open(names[victim], "wb") as f:
            f.write(mutant)
        r, store = merge()
        with open(names[victim], "wb") as f:
            f.write(shards[victim])
        label = f"{kind} shard {victim}: {what}"
        if r.returncode == 2:
            rejected += 1
            if names[victim].encode() not in r.stderr:
                failures.append(f"{label}: exit 2 without naming the "
                                f"store: {r.stderr.decode().strip()}")
        elif (r.returncode != clean.returncode or store != clean_store
              or r.stdout != clean.stdout):
            failures.append(f"{label}: exit {r.returncode}, merged store "
                            f"{'equal' if store == clean_store else 'differs'}"
                            f" (clean exits {clean.returncode})")
    print(f"{kind}: {made} mutants, {rejected} rejected, "
          f"{made - rejected} merged clean")
    return made


def check_replays(bin_path, work, failures):
    path = os.path.join(work, "explore.jsonl")
    r = run([bin_path, *SWEEPS["explore"], "--out", path], work)
    if r.returncode != 0:
        sys.exit(f"explore store failed: {r.stderr.decode()}")
    if run([bin_path, "--replay", path], work).returncode != 0:
        sys.exit("the clean explore store does not replay")
    with open(path, "rb") as f:
        lines = lines_of(f.read())
    k = next(i for i, l in enumerate(lines) if b'"found":"decided"' in l)
    edits = [
        (rb'"runs":\d+', b'"runs":-9223372036854775808'),
        (rb'"trace_len":\d+', b'"trace_len":1e9'),
        (rb'"seed":\d+', b'"seed":0e9'),
        (rb'"key":"([^"]*)"', rb'"key":\1'),
        (rb'"steps":(\d+)', rb'"steps":\1x'),
        (rb'"budget":(\d+)', rb'"budget":\1z'),
        (rb'"found":"decided"', b'"found":"decidex"'),
        (rb'"processes":(\d+)', rb'"processes":0\1'),
    ]
    mutant_path = os.path.join(work, "mutant.jsonl")
    for pattern, repl in edits:
        line, n = re.subn(pattern, repl, lines[k], count=1)
        assert n == 1 and line != lines[k], pattern
        with open(mutant_path, "wb") as f:
            f.write(b"".join(lines[:k] + [line] + lines[k + 1:]))
        r = run([bin_path, "--replay", mutant_path], work)
        if r.returncode != 1 or b"MALFORMED" not in r.stdout:
            failures.append(f"replay of {line[:60]!r}...: exit "
                            f"{r.returncode}, {r.stdout.decode().strip()}")
    print(f"replay: {len(edits)} explore mutants")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sweep_main")
    ap.add_argument("--per-kind", type=int, default=120)
    ap.add_argument("--seed", type=int, default=26)
    a = ap.parse_args()
    bin_path = os.path.abspath(a.sweep_main)
    rng = random.Random(a.seed)
    failures = []
    with tempfile.TemporaryDirectory(prefix="store_mutants.") as work:
        total = sum(check_merges(bin_path, work, kind, args, a.per_kind, rng,
                                 failures)
                    for kind, args in SWEEPS.items())
        check_replays(bin_path, work, failures)
    for f in failures:
        print("FAIL " + f)
    print(f"{total} merge mutants, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
