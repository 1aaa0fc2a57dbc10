#!/usr/bin/env bash
# Context-switch census of one ledger workload: who wakes how often per
# worker-iteration. The hand-off-bound share of an iteration does not show
# in any span — a thread that is asleep records nothing — but the kernel
# counts every time one goes to sleep waiting (voluntary) or is pushed off
# its core (involuntary), per thread.
#
# Usage: scripts/census.sh WORKLOAD [SEED] [SECONDS]
#        LEDGER=/path/to/another/ledger scripts/census.sh ...   # e.g. the parent's
#
# Runs the ledger binary untraced, samples /proc/<pid>/task/*/status until
# it exits and prints, in total and per thread-name family (the kernel keeps
# 15 bytes of a name: `tcp-reader-serv`, `tcp-reader-work`, `ledger`;
# trailing digits are dropped), the threads seen and their voluntary and
# involuntary switches per worker-iteration — `attempted / 2` of the run's
# result object: one push and one pull each. The ledger's worker threads
# are unnamed and so share the process name with its main thread (tid =
# pid), which only polls for the workers to finish, waking every 2 ms; the
# main thread is therefore its own row, `<name>/main`, and the `<name>` row
# is the workers alone. A thread's counters are taken as last sampled, so
# one that exits mid-run loses at most one sampling interval. Reads the
# ledger's output; writes nothing under benchmark/ beyond what building it
# does.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/census.sh WORKLOAD [SEED] [SECONDS]}"
seed="${2:-7}"
seconds="${3:-10}"

ledger="${LEDGER:-}"
if [ -z "$ledger" ]; then
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
  ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/ledger"
fi

samples="$(mktemp)"
result="$(mktemp)"
trap 'rm -f "$samples" "$result"' EXIT

"$ledger" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  >"$result" 2>/dev/null &
pid=$!
while kill -0 "$pid" 2>/dev/null; do
  # One line per thread: tid, name, voluntary, involuntary. Threads come
  # and go between the glob and the read; awk skips what it cannot open.
  awk '
    FNR == 1 { split(FILENAME, path, "/"); tid = path[5] }
    /^Name:/ { name = $2 }
    /^voluntary_ctxt_switches:/ { vol = $2 }
    /^nonvoluntary_ctxt_switches:/ { print tid, name, vol, $2 }
  ' /proc/"$pid"/task/*/status 2>/dev/null >>"$samples" || true
  sleep 0.2
done
wait "$pid" || { echo "census: the ledger run failed" >&2; exit 1; }

attempted="$(sed -n 's/.*"attempted": \([0-9][0-9]*\).*/\1/p' "$result" | tail -1)"
if [ -z "$attempted" ] || [ "$attempted" -eq 0 ]; then
  echo "census: no result object with attempted operations in the ledger's output" >&2
  exit 1
fi

awk -v iters="$((attempted / 2))" -v main="$pid" -v what="$workload seed=$seed seconds=$seconds" '
  { name[$1] = $2; vol[$1] = $3; invol[$1] = $4 }
  END {
    for (tid in name) {
      family = name[tid]
      sub(/[0-9]+$/, "", family)
      if (tid == main) family = family "/main"
      threads[family]++; v[family] += vol[tid]; i[family] += invol[tid]
      threads["total"]++; v["total"] += vol[tid]; i["total"] += invol[tid]
    }
    printf "census %s: %d worker-iterations, %d threads seen\n", what, iters, threads["total"]
    printf "%-18s %8s %16s %18s\n", "family", "threads", "voluntary/iter", "involuntary/iter"
    row = "%-18s %8d %16.2f %18.2f\n"
    printf row, "total", threads["total"], v["total"] / iters, i["total"] / iters
    fflush()
    # Busiest family first.
    by_voluntary = "sort -k3,3nr"
    for (family in threads) {
      if (family != "total") {
        printf row, family, threads[family], v[family] / iters, i[family] / iters | by_voluntary
      }
    }
    close(by_voluntary)
  }
' "$samples"
