#!/usr/bin/env bash
# Regenerates the blessed per-scenario result store that CI diffs every
# push against (tools/sweep_diff.py blessed/store_v1.jsonl <fresh>).
#
# The blessed store concatenates four deterministic slices — every one
# byte-identical across machines and thread counts:
#
#   1. safety   — the default cross-product with every fault axis on
#                 (none, minority crashes, stalls, plus the unreliable-
#                 network fabric: lossy, dup, healing partition, majority
#                 crash, crash-recovery) over seeds 0:10;
#   2. term     — the termination lab's default cross-product over seeds
#                 0:10, per-family decision-round histograms included;
#   3. explore/rounds — the greedy adaptive adversary vs every term
#                 family's rounds probe (the Theorem 6 game's round-cap
#                 survival witnesses among them, shrunk);
#   4. explore/violation — the counterexample pipeline against the
#                 planted no-write-back ABD ablation (found, shrunk,
#                 replayable traces embedded in the records).
#
# A diff against the blessed store therefore means scenario BEHAVIOUR
# changed — simulator, register algorithm, checker, termination
# statistics, or the search itself — not scheduling.  When the change is
# intentional, regenerate and commit:
#
#   cmake -B build -S . && cmake --build build -j --target sweep_main
#   tools/bless_store.sh build blessed/store_v1.jsonl
#   git add blessed/store_v1.jsonl
#
# usage: tools/bless_store.sh [build-dir] [out]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-blessed/store_v1.jsonl}"
BIN="${BUILD_DIR}/sweep_main"

if [[ ! -x "${BIN}" ]]; then
  echo "bless_store: ${BIN} not found (build sweep_main first)" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

"${BIN}" --seeds 0:10 \
         --faults none,minority,stall,lossy,dup,partition,majority,recovery \
         --crash-seeds 0:2 --threads 4 \
         --out "${tmpdir}/safety.jsonl" > /dev/null
"${BIN}" --term --seeds 0:10 --threads 4 \
         --out "${tmpdir}/term.jsonl" > /dev/null
"${BIN}" --explore --objective rounds --families consensus,composed,coin,game \
         --strategy greedy \
         --rounds 8 --search-budget 2 --seeds 0:2 --threads 4 \
         --out "${tmpdir}/explore_rounds.jsonl" > /dev/null
"${BIN}" --explore --objective violation --algorithms abd --processes 5 \
         --ablate nowb --strategy greedy --search-budget 16 --seeds 0:2 \
         --threads 4 --out "${tmpdir}/explore_viol.jsonl" > /dev/null

mkdir -p "$(dirname "${OUT}")"
cat "${tmpdir}/safety.jsonl" "${tmpdir}/term.jsonl" \
    "${tmpdir}/explore_rounds.jsonl" "${tmpdir}/explore_viol.jsonl" \
    > "${OUT}"
echo "bless_store: wrote ${OUT} ($(wc -l < "${OUT}") records)"
