#!/usr/bin/env bash
# Context-switch census of one ledger workload: who wakes how often per
# worker-iteration, and how long it runs against how long it waits for a
# CPU. The hand-off-bound share of an iteration does not show in any span —
# a thread that is asleep records nothing — but the kernel counts every
# time one goes to sleep waiting (voluntary) or is pushed off its core
# (involuntary), and the time it spent on a CPU and runnable in a run queue
# (/proc/<tid>/schedstat), per thread, the scheduler slice each thread
# runs with (`se.slice` of /proc/<tid>/sched, DESIGN.md §18), and the
# minor page faults it took (field 10 of /proc/<tid>/stat): a fault is a
# page the allocator handed back to the kernel and touched again.
#
# Usage: scripts/census.sh WORKLOAD [SEED] [SECONDS]
#        LEDGER=/path/to/another/ledger scripts/census.sh ...   # e.g. the parent's
#
# Runs the ledger binary untraced, samples /proc/<pid>/task/*/{status,
# schedstat,stat,sched} until it exits and prints, in total and per
# thread-name family (the kernel keeps 15 bytes of a name:
# `tcp-reader-serv`, `tcp-reader-work`, `ledger`; trailing digits are
# dropped), the threads seen; their voluntary and involuntary switches, µs
# on a CPU (`run`) and µs runnable but waiting for one (`runq`) per
# worker-iteration — `attempted / 2` of the run's result object: one push
# and one pull each; minor page faults per worker-iteration; the median
# slice of its threads in µs (`-` on a kernel that does not print
# `se.slice`, before 6.6); and every CPU a thread of the
# family was seen on (field 39 of `stat`). The ledger's worker threads are
# unnamed and so share the process name with its main thread (tid = pid),
# which only polls for the workers to finish, waking every 2 ms; the main
# thread is therefore its own row, `<name>/main`, and the `<name>` row is
# the workers alone. A thread's counters are taken as last sampled, so one
# that exits mid-run loses at most one sampling interval. Reads the
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
  # Lines per thread: `S tid name voluntary involuntary`, `T tid run_ns
  # runq_ns`, `C tid cpu minflt`, `L tid slice_ns`. Threads come and go
  # between the glob and the read; awk skips what it cannot open.
  awk '
    FNR == 1 { split(FILENAME, path, "/"); tid = path[5]; file = path[6] }
    file == "status" && /^Name:/ { name = $2 }
    file == "status" && /^voluntary_ctxt_switches:/ { vol = $2 }
    file == "status" && /^nonvoluntary_ctxt_switches:/ { print "S", tid, name, vol, $2 }
    file == "schedstat" { print "T", tid, $1, $2 }
    # The name, in parentheses, may hold spaces: count fields after it
    # (field N of the line is then $(N - 2)).
    file == "stat" { sub(/.*\) /, ""); print "C", tid, $37, $8 }
    file == "sched" && /^se\.slice / { print "L", tid, $3 }
  ' /proc/"$pid"/task/*/status /proc/"$pid"/task/*/schedstat /proc/"$pid"/task/*/stat \
    /proc/"$pid"/task/*/sched 2>/dev/null >>"$samples" || true
  sleep 0.2
done
wait "$pid" || { echo "census: the ledger run failed" >&2; exit 1; }

attempted="$(sed -n 's/.*"attempted": \([0-9][0-9]*\).*/\1/p' "$result" | tail -1)"
if [ -z "$attempted" ] || [ "$attempted" -eq 0 ]; then
  echo "census: no result object with attempted operations in the ledger's output" >&2
  exit 1
fi

awk -v iters="$((attempted / 2))" -v main="$pid" -v what="$workload seed=$seed seconds=$seconds" '
  $1 == "S" { name[$2] = $3; vol[$2] = $4; invol[$2] = $5 }
  $1 == "T" { run[$2] = $3; runq[$2] = $4 }
  $1 == "C" { on[$2, $3] = 1; minflt[$2] = $4 }
  $1 == "L" { slice[$2] = $3 }
  # The median of the `n[key]` values `sl[key, 0..]`, sorted in place.
  function median(key,   a, b, x) {
    if (!n[key]) return "-"
    for (a = 1; a < n[key]; a++) {
      x = sl[key, a]
      for (b = a - 1; b >= 0 && sl[key, b] > x; b--) sl[key, b + 1] = sl[key, b]
      sl[key, b + 1] = x
    }
    return sprintf("%.0f", sl[key, int((n[key] - 1) / 2)])
  }
  END {
    for (tid in name) {
      family = name[tid]
      sub(/[0-9]+$/, "", family)
      if (tid == main) family = family "/main"
      of[tid] = family
      for (f = 0; f < 2; f++) {
        key = f ? family : "total"
        threads[key]++; v[key] += vol[tid]; i[key] += invol[tid]
        r[key] += run[tid] / 1000; q[key] += runq[tid] / 1000; mf[key] += minflt[tid]
        if (tid in slice) sl[key, n[key]++] = slice[tid] / 1000
      }
    }
    for (pair in on) {
      split(pair, at, SUBSEP)
      if (!(at[1] in of)) continue
      ran["total", at[2]] = ran[of[at[1]], at[2]] = 1
      if (at[2] + 0 > last_cpu) last_cpu = at[2] + 0
    }
    for (key in threads) {
      for (c = 0; c <= last_cpu; c++) {
        if ((key, c) in ran) cpus[key] = cpus[key] "," c
      }
    }
    printf "census %s: %d worker-iterations, %d threads seen\n", what, iters, threads["total"]
    printf "%-18s %8s %16s %18s %12s %13s %13s %9s  %s\n", "family", "threads", "voluntary/iter",
      "involuntary/iter", "run_us/iter", "runq_us/iter", "minflt/iter", "slice_us", "cpus"
    row = "%-18s %8d %16.2f %18.2f %12.1f %13.1f %13.1f %9s  %s\n"
    printf row, "total", threads["total"], v["total"] / iters, i["total"] / iters,
      r["total"] / iters, q["total"] / iters, mf["total"] / iters, median("total"),
      substr(cpus["total"], 2)
    fflush()
    # Busiest family first.
    by_voluntary = "sort -k3,3nr"
    for (family in threads) {
      if (family != "total") {
        printf row, family, threads[family], v[family] / iters, i[family] / iters,
          r[family] / iters, q[family] / iters, mf[family] / iters, median(family),
          substr(cpus[family], 2) | by_voluntary
      }
    }
    close(by_voluntary)
  }
' "$samples"
