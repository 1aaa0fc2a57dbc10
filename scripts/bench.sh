#!/usr/bin/env bash
# Run the observability benchmarks and collect machine-readable results.
#
# Usage: scripts/bench.sh [OUTPUT]
#        scripts/bench.sh --check [TOLERANCE]
#
# Runs the `obs` bench target of crates/bench (tracer record cost when
# disabled vs enabled, metrics registry ops, Chrome-trace export, the
# trace-analytics engine in events/second over a mixed-kind trace, the
# streaming analyzer's per-event windowed ingest in events/second, the
# zero-copy wire path in frames and pull round trips per second and in
# bytes per second for one tensor-sized (1 MiB) push each way, one whole
# worker iteration against a served TCP node over loopback sockets
# (`wire/tcp_serve_roundtrip`: push and pull out in one write, ack and
# response back in one, 35 KB each way), the
# threaded engine with tracing off vs on, the TCP engine with cluster
# trace streaming off vs on, and — the two entries that are not about
# observability — a worker's gradient computation at the ledger's
# `inproc_bsp_compute` and `tcp_bsp_wire` shapes, `ml/loss_and_grad_b128`
# and `ml/loss_and_grad_b8`, which gate the GEMM kernels) and writes
# OUTPUT (default BENCH_obs.json): a
# JSON document with mean/p50/p99 nanoseconds and throughput per benchmark.
# The `engine/threaded_tracing_off` vs `engine/threaded_tracing_on` pair is
# the end-to-end tracing overhead, the server's phase spans included;
# `collect/tcp_streaming_off` vs `collect/tcp_streaming_on` is the cost of
# shipping every node's trace ring to a collector service during a live TCP
# run; `wire/ctx_overhead_off` vs `wire/ctx_overhead_on` is the
# causal-context envelope's cost on the frame codec hot path (request
# tracing on vs off).
#
# --check: run the benchmarks into a scratch file and compare each mean
# against the committed BENCH_obs.json baseline. This is a hard gate: a
# benchmark whose fresh mean exceeds its tolerance band times the baseline
# fails the script (exit 1). Tolerance bands are per benchmark and widen as
# the measured time shrinks, because CI-machine noise dominates small
# numbers: sub-microsecond means get 3.0x, sub-millisecond 2.5x, and
# millisecond-scale runs 2.0x. Passing TOLERANCE overrides every band with
# one global factor (useful on known-noisy machines).
set -euo pipefail
cd "$(dirname "$0")/.."

check=""
tolerance=""
out="BENCH_obs.json"
if [ "${1:-}" = "--check" ]; then
  check=1
  tolerance="${2:-}"
else
  out="${1:-BENCH_obs.json}"
fi

tmp="$(mktemp)"
fresh="$(mktemp)"
trap 'rm -f "$tmp" "$fresh"' EXIT

FLUENTPS_BENCH_JSON="$tmp" cargo bench --offline -p fluentps-bench --bench obs

if [ ! -s "$tmp" ]; then
  echo "error: benchmarks produced no JSON lines" >&2
  exit 1
fi

[ -n "$check" ] && out="$fresh"
{
  printf '{"suite":"obs","benchmarks":[\n'
  # Join the JSONL lines emitted by the harness with commas.
  awk 'NR>1{printf ",\n"} {printf "%s", $0} END{printf "\n"}' "$tmp"
  printf ']}\n'
} >"$out"

if [ -z "$check" ]; then
  echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
  exit 0
fi

if [ ! -f BENCH_obs.json ]; then
  echo "bench-check: error: no committed BENCH_obs.json baseline to compare against" >&2
  exit 1
fi

awk -v tol_override="${tolerance}" '
  function mean_of(line) {
    # One benchmark per line: {"name":"...","mean_ns":...,...}
    if (match(line, /"name":"[^"]*"/)) {
      bname = substr(line, RSTART + 8, RLENGTH - 9)
      if (match(line, /"mean_ns":[0-9.]+/)) {
        return bname SUBSEP substr(line, RSTART + 10, RLENGTH - 10)
      }
    }
    return ""
  }
  # Per-bench band: small means are mostly harness and scheduler noise, so
  # the band widens as the baseline shrinks.
  function band_for(ns) {
    if (tol_override != "") return tol_override + 0
    if (ns < 1000) return 3.0       # sub-microsecond: cache/turbo jitter
    if (ns < 1000000) return 2.5    # microsecond scale
    return 2.0                      # millisecond scale: real workloads
  }
  NR == FNR {
    r = mean_of($0)
    if (r != "") { split(r, kv, SUBSEP); base[kv[1]] = kv[2] + 0 }
    next
  }
  {
    r = mean_of($0)
    if (r != "") { split(r, kv, SUBSEP); cur[kv[1]] = kv[2] + 0; order[++n] = kv[1] }
  }
  END {
    checked = 0
    failed = 0
    for (i = 1; i <= n; i++) {
      name = order[i]
      if (!(name in base)) {
        printf "bench-check: %s has no committed baseline (new benchmark? regenerate BENCH_obs.json)\n", name
        continue
      }
      checked++
      tol = band_for(base[name])
      if (base[name] > 0 && cur[name] > base[name] * tol) {
        printf "bench-check: FAIL %s mean %.1fns exceeds %.2fx committed baseline %.1fns\n", \
          name, cur[name], tol, base[name]
        failed++
      }
    }
    printf "bench-check: compared %d benchmarks against BENCH_obs.json (%d over tolerance)\n", \
      checked, failed
    if (checked == 0) {
      print "bench-check: FAIL no benchmarks matched the committed baseline"
      exit 1
    }
    exit failed > 0 ? 1 : 0
  }
' BENCH_obs.json "$fresh"
