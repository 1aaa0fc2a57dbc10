#!/usr/bin/env bash
# One command, every metric: builds the ledger, runs every workload in its
# own process (tracing off, then tracing on), prints one line per metric
#   workload metric value unit median[min..max] n=<samples>
# and merges them into benchmark/out/results.json. Exits non-zero when any
# correctness check fails.
#
#   benchmark/run.sh [--seed S] [--workload NAME]
#   benchmark/run.sh --selfcheck   # the suite twice on one build and one
#                                  # seed; fails if an end-to-end metric
#                                  # moves by more than its own bound
#
# Every run measures for the run length BENCHMARK.json fixes.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
only=""
selfcheck=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    --selfcheck) selfcheck=1; shift ;;
    *) echo "usage: $0 [--seed S] [--workload NAME] [--selfcheck]" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/ledger"
out=benchmark/out
mkdir -p "$out"

workloads="$only"
if [ -z "$workloads" ]; then
  workloads="$("$ledger" manifest | sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p')"
fi

# suite CAPTURE: every workload, both modes, output appended to CAPTURE.
suite() {
  local status=0
  : >"$1"
  for w in $workloads; do
    for trace in 0 1; do
      "$ledger" run --workload "$w" --seed "$seed" --trace "$trace" \
        >"$out/last_run.txt" || status=1
      cat "$out/last_run.txt" >>"$1"
      grep -v '^{' "$out/last_run.txt"
    done
  done
  rm -f "$out/last_run.txt"
  return $status
}

if [ -n "$selfcheck" ]; then
  suite "$out/selfcheck_first.txt"
  suite "$out/selfcheck_second.txt"
  "$ledger" selfcheck "$out/selfcheck_first.txt" "$out/selfcheck_second.txt"
else
  suite "$out/suite.txt"
  "$ledger" merge "$out/suite.txt" >"$out/results.json"
  echo "wrote $out/results.json" >&2
fi
