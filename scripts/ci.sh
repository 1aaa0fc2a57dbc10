#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Must pass from a clean checkout with an
# empty cargo registry: the workspace is hermetic (path-only dependencies,
# see DESIGN.md §7), so --offline is load-bearing, not an optimization.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets
cargo test -q --offline --workspace

# The performance ledger (benchmark/) is a package of its own, outside the
# workspace: build and test it here so a drift in the public API of core,
# transport or ml breaks tier-1 instead of the next benchmark run.
cargo test --offline --release --manifest-path benchmark/Cargo.toml

# The same-bits promise of fluentps-ml's kernels (DESIGN.md §19) is about
# the vectorized loops, and those exist only in a release build. So is the
# synthetic generator's promise to keep the per-row generator's bits
# (DESIGN.md §2; `fill_range`'s mapping loop vectorizes only there), and
# the shard's in-place little-endian add into the slab its replies share
# (DESIGN.md §13): their unit tests run in release too.
cargo test -q --offline --release -p fluentps-ml --test same_bits
cargo test -q --offline --release -p fluentps-ml --lib data::
cargo test -q --offline --release -p fluentps-core --lib server::

# Lines above a file's test marker, comments skipped, each prefixed with
# `file:line: ` — the production code the structural guards below inspect.
above_tests() {
  awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } skip || /^[[:space:]]*\/\// { next }
       { print FILENAME ":" FNR ": " $0 }' "$@"
}

# Structural guard: Algorithm 1's dispatch exists once (DESIGN.md §18).
# Above the test markers of every crate, the shard's handlers are called in
# server.rs (their definitions and the context-free wrappers) and serve.rs
# only, once each there: every engine, the simulator and the figures step a
# `ShardServer`. The entry points this replaced stay deleted.
core_src=crates/fluentps-core/src
for handler in 'on_push(' 'on_pull(' 'on_push_ctx(' 'on_pull_ctx(' 'drain_shutdown('; do
  sites="$(above_tests crates/*/src/*.rs crates/*/src/*/*.rs | grep -F "$handler" \
    | grep -v "^$core_src/server.rs:" || true)"
  case "$handler" in
    on_push\( | on_pull\() want=0 ;; # serve.rs calls the `_ctx` forms
    *) want=1 ;;
  esac
  if [ "$(printf '%s' "$sites" | grep -c .)" -ne "$want" ] \
    || { [ "$want" -eq 1 ] && [ "${sites%%:*}" != "$core_src/serve.rs" ]; }; then
    echo "ci: outside server.rs, $handler belongs in $core_src/serve.rs only ($want site(s)); found:" >&2
    printf '%s\n' "$sites" >&2
    exit 1
  fi
done
deleted='launch_with_collector|launch_collected|launch_introspected|launch_heterogeneous'
deleted="$deleted|serve_with_health|serve_source|serve_observed|serve_profiled"
deleted="$deleted|tcp_server_loop|resilient_server_loop"
deleted="$deleted|pub fn run_live|LiveConfig|bind_server|bind_traced|read_from_profiled"
deleted="$deleted|StreamerConfig|send_consensus|try_send|FluentPs::builder"
deleted="$deleted|spawn_ingest|StreamerConn|write_coalesced|CONNECT_RETRIES"
deleted="$deleted|TraceRecorder|TraceKind"
deleted="$deleted|GradScale|fail_server|SamplerConfig|text_summary|peek_time"
deleted="$deleted|TinyCnn|parallel_loss_and_grad|KeyRange|check_and_rebalance|scale_to|\.rebalance\("
deleted="$deleted|WarmupThenDecay|time_to_accuracy|\bEma\b|split_chunk_key|alexnet_like"
deleted="$deleted|ResidualMlp::resnet56_like|ClientCache|AlertRule::parse|AlertMetric::parse|sched_cost_base"
# The optimizer and tensor types, not the prose "Project Adam" or the paper's "LARS".
deleted="$deleted|\bLars\b|\bAdam::|for Adam\b|\bTensor::|struct Tensor\b|fluentps_ml::tensor"
deleted="$deleted|WireCheck|stamped_wire|send_pulls|pending_responses"
deleted="$deleted|last_snapshot"
# The per-server-model launch the one observed launch absorbed (DESIGN.md §18).
deleted="$deleted|launch_models"
# The grouped GEMM kernels the one list kernel replaced (DESIGN.md §19).
deleted="$deleted|matmul_rows|matmul_at_b_rows|panel_block|all_zero"
# The ungated benches' helpers and the causal context's never-set span.
deleted="$deleted|BenchmarkId|bench_with_input|bench_inventory|parent_span|NO_SPAN"
# The span profiler; the trace times the server's phases instead (DESIGN.md §9).
deleted="$deleted|Prof(Collector|ileReport)|SpanGuard|bind_profiled|span_profiler|set_profiler"
deleted="$deleted|run_profile|profile_section"
# The fault-tolerant cluster's own handle, registry and spawn; it is a role of
# `Cluster<F>` now, and its control node the `Scheduler` (DESIGN.md §18).
deleted="$deleted|ResilientPostman|ResilientMailbox|SharedServers|drain_servers|spawn_served"
deleted="$deleted|spawn_replacement\(|ServerThreads|bring_up|Worker\(u32::MAX\)"
# The replay window the servers' durable acks replaced: a worker keeps a push
# until its servers' checkpoints hold it (DESIGN.md §10).
deleted="$deleted|replay_depth"
# The per-message length helpers and tag constants the wire table replaced:
# a message's length is `codec::encoded_len` of the message (DESIGN.md §13).
deleted="$deleted|(spull|spush|pull_response)_wire_len|encode_pull_response_into"
deleted="$deleted|EVENT_WIRE_LEN|PLACEMENT_WIRE_LEN|LOG_ENTRY_HEADER_LEN|CausalCtx::WIRE_LEN"
if git ls-files -co --exclude-standard -- '*.rs' '*.sh' '*.md' \
  | grep -vxE 'CHANGES\.md|ROADMAP\.md|ISSUE\.md|scripts/ci\.sh' \
  | xargs grep -nE "$deleted"; then
  echo "ci: a deleted entry point or type is back (see above)" >&2
  exit 1
fi
# Every committed bench number is gated: crates/bench builds the one target
# scripts/bench.sh checks against BENCH_obs.json.
benches="$(git ls-files -co --exclude-standard -- crates/bench/benches | tr '\n' ' ')"
if [ "$benches" != "crates/bench/benches/obs.rs " ]; then
  echo "ci: crates/bench/benches holds obs.rs only (the gated target); found: $benches" >&2
  exit 1
fi

# Structural guard: one cluster over a fabric (DESIGN.md §18). Above the
# test markers of every crate, a shard's server is built, a server thread
# (`fluentps-{stem}-server-{m}`) spawned and an observability session
# started only in launch.rs, whose `Cluster<F>` runs on any `Network` in
# any role — the fault-tolerant one included, whose replacements join the
# same registry (`Servers::spawn`) — and launch.rs defines the only
# cluster handle type.
launch_sites="$(above_tests crates/*/src/*.rs crates/*/src/*/*.rs \
  | grep -E 'shard_server\(|-server-\{|Session::start\(|pub struct [A-Za-z]*Cluster\b' \
  | grep -vE 'fn shard_server\(' | cut -d: -f1 | sort -u | tr '\n' ' ' || true)"
if [ "$launch_sites" != "$core_src/launch.rs " ]; then
  echo "ci: servers are built, spawned and observed by launch.rs's Cluster<F> only; found in: $launch_sites" >&2
  exit 1
fi

# Structural guard: the trace fold exists once (DESIGN.md §9). The wire
# pairing, the defer→release pairing and the blocked-at-gap matcher live in
# stream.rs. analyze.rs replays a snapshot through them; it, the Chrome
# exporter and the waterfalls call `WirePairing`/`DprPairing` where they
# pair events and must not grow a matcher of their own again, and the five
# batch passes analyze.rs replaced stay deleted.
obs_src=crates/fluentps-obs/src
if above_tests "$obs_src/analyze.rs" "$obs_src/export.rs" "$obs_src/waterfall.rs" \
  | grep -E "pop_front|VecDeque|EventKind::(PullDeferred|PullRequested)|^$obs_src/analyze\.rs:.*EventKind::WireRecv|fn (worker_breakdowns|gap_stats|collect_deferred_keys|shard_healths|wire_check)\("; then
  echo "ci: analyze.rs, export.rs or waterfall.rs matches trace events itself again (see above); the matchers belong to stream.rs" >&2
  exit 1
fi

# Structural guard: one worker round, and exact wire matching (DESIGN.md §9,
# §18). The simulator's workers run the live `WorkerRound`, so above its
# test marker driver.rs builds no pull of its own; and the fold queues only
# stamped sends (`WirePairing::send`), so a receive whose request_id is 0 is
# never paired (there is no FIFO fallback to guess with).
if above_tests crates/fluentps-experiments/src/driver.rs | grep -F 'Message::SPull'; then
  echo "ci: driver.rs builds its own pulls again (see above); the simulator's workers run WorkerRound" >&2
  exit 1
fi
stream_src=crates/fluentps-obs/src/stream.rs
if above_tests "$stream_src" | grep -E 'request_id == 0|then_some\(0\)' \
  || [ "$(above_tests "$stream_src" | grep -cF 'if request_id != 0 {')" -ne 1 ]; then
  echo "ci: stream.rs pairs a receive whose request_id is 0 again; wire matching is by causal id only" >&2
  exit 1
fi

# Structural guard: a value is `f32` where arithmetic happens (the
# optimizer, the worker's gather, the shard's apply) and wire bytes
# everywhere in between, the shard's store included (DESIGN.md §13). The
# wire layers move those bytes and never convert them:
# no `f32` vector and no `f32` slab operation above the test markers of
# codec.rs, frame.rs and tcp.rs, and the frame reader keeps no body buffer
# between frames (each frame's buffer is the decoded message's payload).
# On the way out the optimizer is the one conversion: it writes the update
# as wire bytes (`fluentps_ml::Deltas`), and above worker.rs's test marker
# the push path converts no `f32` (no `put_f32_slice_le`, no
# `ValuesMut::extend_from_slice` or `Values::from_f32s`); `scatter` shares
# or byte-copies the optimizer's bytes.
wire_src=crates/fluentps-transport/src
if above_tests "$wire_src/codec.rs" "$wire_src/frame.rs" "$wire_src/tcp.rs" \
  | grep -E 'Vec<f32>|get_f32_vec_le|put_f32_slice_le'; then
  echo "ci: the wire layers convert values again (see above); that belongs to values.rs and its callers" >&2
  exit 1
fi
if above_tests crates/fluentps-core/src/worker.rs \
  | grep -E 'put_f32_slice_le|extend_from_slice\(|from_f32s\('; then
  echo "ci: worker.rs converts f32 values on the push path again (see above); the optimizer writes them as wire bytes" >&2
  exit 1
fi
if ! grep -qE '^pub struct FrameReader;$' "$wire_src/frame.rs"; then
  echo "ci: FrameReader has fields again; a frame's buffer must travel with its message" >&2
  exit 1
fi

# Structural guard: the workspace is safe Rust but for two files (DESIGN.md
# §7, §18). Above the test markers of every crate, `unsafe` and foreign
# functions appear only in fluentps-util's counting allocator, which
# implements `GlobalAlloc`, and in its `sync/sched.rs`, which asks the
# kernel for a thread's scheduler slice through `syscall`.
util_src=crates/fluentps-util/src
if above_tests src/*.rs crates/*/src/*.rs crates/*/src/*/*.rs \
  | grep -E '\bunsafe\b|extern "C"' | grep -vE "^$util_src/(alloc|sync/sched)\.rs:"; then
  echo "ci: unsafe or extern \"C\" outside $util_src/alloc.rs and $util_src/sync/sched.rs (see above)" >&2
  exit 1
fi

# Structural guard: each message's wire form is stated once, in the table
# that declares `Message` in msg.rs (DESIGN.md §13). Encode, length and
# decode are generated from it, so above codec.rs's test marker no message
# is named but `Traced` (the rule that an envelope holds a bare message): a
# match arm for one message there is a second, hand-written statement of its
# layout. Outside the generator in codec.rs, `Message` is declared once in
# the workspace, inside that table.
if above_tests "$wire_src/codec.rs" | grep -E 'Message::[A-Z]' \
  | grep -vF 'Message::Traced { .. }'; then
  echo "ci: codec.rs writes a message's layout by hand again (see above); give its row in msg.rs's table the field instead" >&2
  exit 1
fi
declared="$(above_tests crates/*/src/*.rs crates/*/src/*/*.rs | grep -E '\benum Message\b' \
  | grep -v "^$wire_src/codec.rs:" | cut -d: -f1 | tr '\n' ' ' || true)"
if [ "$declared" != "$wire_src/msg.rs " ] \
  || ! above_tests "$wire_src/msg.rs" | grep -qE ': crate::codec::wire_messages! \{$'; then
  echo "ci: Message is declared outside the wire table in $wire_src/msg.rs" >&2
  exit 1
fi

# Structural guard: the worker's compute kernels are portable Rust whose
# results are bit-identical to the naive loops they replaced (DESIGN.md
# §19): above the test markers of fluentps-ml, no architecture intrinsics
# or target features (and, by the guard above, no `unsafe`), and no
# `mul_add` (a fused multiply-add rounds once where the kernels round
# twice, so it would move bits).
ml_src=crates/fluentps-ml/src
if above_tests "$ml_src"/*.rs "$ml_src"/*/*.rs \
  | grep -E '\b(std|core)::arch\b|target_feature|mul_add'; then
  echo "ci: fluentps-ml uses intrinsics, target features or mul_add (see above); its kernels stay portable and bit-identical" >&2
  exit 1
fi

# Structural guard: one hand-off and one write per direction (DESIGN.md §13,
# §18). The receive loop is the transport's: above their test markers
# serve.rs and recovery.rs — servers and supervisor replicas alike — hand a
# step to `Mailbox::serve` and never receive themselves; `serve` has exactly
# three overrides, the in-process endpoint and the TCP node (both over the
# one serving protocol in served.rs) and the fault shim; nothing but
# tcp.rs (and the HTTP endpoint, another protocol) listens on or dials a
# socket, so there is no second TCP stack; everything a worker sends — what
# `spush` staged, the pulls, a retry's replay — leaves through its one
# per-server `send_batch`, never singly; and a server is one TCP node, so
# there is no sender id above the server range to derive.
if above_tests "$core_src/serve.rs" "$core_src/recovery.rs" \
  | grep -E '\.recv\(\)|\.recv_timeout\('; then
  echo "ci: serve.rs/recovery.rs own a receive loop again (see above); hand Mailbox::serve a step" >&2
  exit 1
fi
sockets="$(above_tests crates/*/src/*.rs crates/*/src/*/*.rs | grep -E 'TcpListener|TcpStream::connect' \
  | cut -d: -f1 | sort -u | tr '\n' ' ' || true)"
if [ "$sockets" != "crates/fluentps-obs/src/http.rs $wire_src/tcp.rs " ]; then
  echo "ci: only tcp.rs and the HTTP endpoint listen on or dial a socket; found: $sockets" >&2
  exit 1
fi
overrides="$(above_tests crates/*/src/*.rs | grep -E 'fn serve<' | cut -d: -f1 | sort | tr '\n' ' ' || true)"
if [ "$overrides" != "$wire_src/fault.rs $wire_src/inproc.rs $wire_src/lib.rs $wire_src/tcp.rs " ]; then
  echo "ci: Mailbox::serve is defined in lib.rs and overridden in inproc.rs, tcp.rs and fault.rs only (the first two over served.rs); found: $overrides" >&2
  exit 1
fi
if above_tests "$core_src/worker.rs" | grep -F 'postman.send('; then
  echo "ci: worker.rs sends a message singly again (see above); everything leaves through send_out" >&2
  exit 1
fi
if above_tests "$core_src/launch.rs" | grep -F 'num_servers + 1'; then
  echo "ci: launch.rs derives a second node id per server again (see above); a server is one TcpNode" >&2
  exit 1
fi

# Structural guard: a reply returns on the connection its request came in on,
# and the worker that waits for it reads it (DESIGN.md §13, §18). The pull
# round has one receive call, `recv_from` — no `.recv()`/`.recv_timeout(`
# above worker.rs's test marker; `Mailbox::recv_from` and
# `Postman::reply_batch` are each defined in lib.rs and overridden in tcp.rs
# and fault.rs only; and only the served nodes whose clients read the
# connections they dial call `reply_batch` — the two server drivers, whom
# workers ask, and the trace collector, whom streamers ping — while every
# other sender keeps `send`/`send_batch` and the connections it dials.
if above_tests "$core_src/worker.rs" | grep -E '\.recv\(\)|\.recv_timeout\('; then
  echo "ci: worker.rs waits on the whole mailbox again (see above); the round waits with recv_from" >&2
  exit 1
fi
for method in recv_from reply_batch; do
  defined="$(above_tests crates/*/src/*.rs | grep -E "fn $method\b" | cut -d: -f1 | sort | tr '\n' ' ' || true)"
  if [ "$defined" != "$wire_src/fault.rs $wire_src/lib.rs $wire_src/tcp.rs " ]; then
    echo "ci: $method is defined in lib.rs and overridden in tcp.rs and fault.rs only; found: $defined" >&2
    exit 1
  fi
done
callers="$(above_tests crates/*/src/*.rs | grep -F 'reply_batch(' | grep -vE 'fn reply_batch\b' \
  | cut -d: -f1 | sort -u | tr '\n' ' ' || true)"
if [ "$callers" != "$core_src/recovery.rs $core_src/serve.rs $wire_src/collect.rs " ]; then
  echo "ci: reply_batch is what serve.rs and recovery.rs answer workers with and collect.rs a streamer's ping; called in: $callers" >&2
  exit 1
fi

# Golden-file check: the Chrome-trace exporter must emit byte-stable, valid
# JSON for the fixture run (tests/golden/chrome_trace_fixture.json). Run
# explicitly so a missing or stale golden file fails CI even if test
# filtering changes. Likewise the two analyzer goldens, which pin the trace
# fold to what the batch engine it replaced printed.
cargo test -q --offline --test observability chrome_trace_export_matches_golden_file
cargo test -q --offline --test analyze golden_file

# Smoke round-trip through the analytics engine: trace a demo run, analyze
# the export, and require the report's straggler and staleness sections to
# carry data. Uses the release binary the build step above produced.
#
# Every `repro` smoke below names itself in `smoke` and writes its stderr to
# `$smokedir/$smoke.err`; if ci.sh then fails, the exit trap prints that
# file, so a failed smoke names its cause.
smokedir="$(mktemp -d)"
smoke=""
on_exit() {
  local status=$?
  if [ "$status" -ne 0 ] && [ -n "$smoke" ] && [ -s "$smokedir/$smoke.err" ]; then
    echo "ci: stderr of the '$smoke' smoke:" >&2
    cat "$smokedir/$smoke.err" >&2
  fi
  rm -rf "$smokedir"
}
trap on_exit EXIT
# A port for a smoke's --metrics-addr: one of the 10 000 just below the
# kernel's ephemeral range, which it hands to every OS-chosen listener and
# dialed socket of the same run, so the two never collide.
smoke_port() {
  local low high
  read -r low high </proc/sys/net/ipv4/ip_local_port_range
  local base=$((low > 11024 ? low - 10000 : 1024))
  echo $((base + RANDOM % (low - base)))
}
smoke=trace
./target/release/repro --trace "$smokedir/trace.jsonl" >/dev/null 2>"$smokedir/$smoke.err"
smoke=analyze
./target/release/repro analyze "$smokedir/trace.jsonl" --ssp 2 >"$smokedir/report.txt" \
  2>"$smokedir/$smoke.err"
test "$(sed -n '/== straggler scoreboard ==/,/^$/p' "$smokedir/report.txt" | wc -l)" -gt 3
test "$(sed -n '/== staleness at pull time ==/,/^$/p' "$smokedir/report.txt" | wc -l)" -gt 3

# Committed benchmark results must parse under the in-tree JSON validator.
for bench_json in BENCH_*.json; do
  [ -e "$bench_json" ] || continue
  ./target/release/repro validate-json "$bench_json"
done

# Chaos smoke: a seeded fault schedule (drops, reorder-delays, duplicates)
# on the live resilient TCP engine must be bit-deterministic — same seed,
# same logical outcome. Run twice and diff the stats/fingerprint lines.
smoke=chaos_a
./target/release/repro chaos --seed 42 --workers 1 --servers 2 --iters 20 --faults 8 \
  >"$smokedir/chaos_a.txt" 2>"$smokedir/$smoke.err"
smoke=chaos_b
./target/release/repro chaos --seed 42 --workers 1 --servers 2 --iters 20 --faults 8 \
  >"$smokedir/chaos_b.txt" 2>"$smokedir/$smoke.err"
diff "$smokedir/chaos_a.txt" "$smokedir/chaos_b.txt"

# Kill-and-recover smoke: crash a server mid-training; the supervisor must
# replace it from a checkpoint and the run must converge and exit 0 with no
# server left dead.
smoke=chaos_kill
./target/release/repro chaos --seed 13 --workers 2 --servers 2 --iters 25 --kill 0@8 \
  >"$smokedir/chaos_kill.txt" 2>"$smokedir/$smoke.err"
grep -q '^chaos-dead-at-end 0$' "$smokedir/chaos_kill.txt"

# Collected-run smoke: every node of a chaos run (faults + a mid-run server
# kill) streams its trace ring to a central collector; the merged,
# clock-aligned timeline must balance exactly (received + dropped ==
# emitted per node), list every actor exactly once, carry the recovery
# events, and feed the analyzer end to end, whose per-phase server table
# must time the shards' push applies on the trace's own events.
smoke=collect
./target/release/repro collect "$smokedir/merged.jsonl" \
  --seed 11 --workers 2 --servers 2 --iters 30 --faults 6 --kill 0@6 \
  >"$smokedir/collect.txt" 2>"$smokedir/$smoke.err"
grep -q '^collect-balanced ok$' "$smokedir/collect.txt"
grep -q '^chaos-dead-at-end 0$' "$smokedir/collect.txt"
grep -Eq '^collect-recovery .*checkpoint_restored=[1-9][0-9]* ' "$smokedir/collect.txt"
for node in scheduler server0 server1 worker0 worker1; do
  test "$(grep -c "^collect-node $node " "$smokedir/collect.txt")" -eq 1
done
smoke=collect_analyze
./target/release/repro analyze "$smokedir/merged.jsonl" >"$smokedir/collect_report.txt" \
  2>"$smokedir/$smoke.err"
test "$(sed -n '/== straggler scoreboard ==/,/^$/p' "$smokedir/collect_report.txt" | wc -l)" -gt 3
sed -n '/== server time per phase ==/,/^$/p' "$smokedir/collect_report.txt" >"$smokedir/phases.txt"
grep -Eq '^ *shard +apply +release +pull$' "$smokedir/phases.txt"
awk 'NR > 3 && NF == 4 && $2 != "0.000000s" { timed = 1 } END { exit !timed }' "$smokedir/phases.txt" \
  || { echo "ci: repro analyze timed no push apply on the collected trace" >&2; exit 1; }

# Live health smoke: run a kill-and-recover chaos job with an introspection
# endpoint and scrape its streaming health engine over HTTP *mid-run*: /slo
# must serve windowed SLO text, and /alerts must show the injected kill
# raising the dead_nodes liveness alert and resolving it after the
# checkpoint replacement. The chaos-alert stdout lines are the
# deterministic backstop for the same sequence. (1500 iterations ≈ 2 s: the
# endpoint goes down with the cluster, and a 0.2 s run left the 0.1 s poll
# a window it missed about one time in ten.)
http_get() {
  exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' "$2" >&3
  cat <&3
  exec 3<&- 3>&-
}
health_port="$(smoke_port)"
smoke=chaos_health
./target/release/repro chaos --seed 13 --workers 2 --servers 2 --iters 1500 --kill 0@8 \
  --metrics-addr "127.0.0.1:$health_port" >"$smokedir/chaos_health.txt" 2>"$smokedir/$smoke.err" &
health_pid=$!
alerts_ok=""
slo_ok=""
for _ in $(seq 1 300); do
  body="$(http_get "$health_port" /alerts 2>/dev/null || true)"
  case "$body" in
    *'"rule":"dead_nodes","transition":"firing"'*'"rule":"dead_nodes","transition":"resolved"'*)
      alerts_ok=1 ;;
  esac
  slo="$(http_get "$health_port" /slo 2>/dev/null || true)"
  case "$slo" in
    *'slo events '*) slo_ok=1 ;;
  esac
  [ -n "$alerts_ok" ] && [ -n "$slo_ok" ] && break
  kill -0 "$health_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$health_pid"
grep -q '^chaos-dead-at-end 0$' "$smokedir/chaos_health.txt"
grep -q '^chaos-alert rule=dead_nodes transition=firing' "$smokedir/chaos_health.txt"
grep -q '^chaos-alert rule=dead_nodes transition=resolved' "$smokedir/chaos_health.txt"
grep -q '^chaos-alert-fingerprint ' "$smokedir/chaos_health.txt"
[ -n "$slo_ok" ] || { echo "ci: /slo never answered mid-run" >&2; exit 1; }
[ -n "$alerts_ok" ] || { echo "ci: /alerts never showed the kill firing then resolving" >&2; exit 1; }

# Supervisor-failover smoke: run a 3-replica control plane and kill the
# leader mid-run. A follower must win the election (scraped from /healthz:
# term advances past 1 and a different replica leads) and training must
# still finish bit-deterministically — the stats/fingerprint lines of a
# same-seed re-run must match exactly. Which follower wins may vary with
# thread timing, so the /healthz check accepts either; the training
# fingerprint must not. (100 000 iterations ≈ 2 s: the election takes about
# 0.3 s, and a 20 000-iteration run ended before it most of the time.)
failover_port="$(smoke_port)"
smoke=failover_a
./target/release/repro chaos --seed 23 --workers 1 --servers 2 --iters 100000 \
  --supervisors 3 --kill-supervisor 0@6 --metrics-addr "127.0.0.1:$failover_port" \
  >"$smokedir/failover_a.txt" 2>"$smokedir/$smoke.err" &
failover_pid=$!
failover_ok=""
for _ in $(seq 1 300); do
  hz="$(http_get "$failover_port" /healthz 2>/dev/null || true)"
  case "$hz" in
    *'consensus term '[2-9]*' leader supervisor'[12]*) failover_ok=1; break ;;
  esac
  kill -0 "$failover_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$failover_pid"
[ -n "$failover_ok" ] || { echo "ci: /healthz never showed a follower taking over leadership" >&2; exit 1; }
smoke=failover_b
./target/release/repro chaos --seed 23 --workers 1 --servers 2 --iters 100000 \
  --supervisors 3 --kill-supervisor 0@6 \
  >"$smokedir/failover_b.txt" 2>"$smokedir/$smoke.err"
grep -E '^chaos-(stats|dead-at-end|fingerprint)' "$smokedir/failover_a.txt" >"$smokedir/failover_a_core.txt"
grep -E '^chaos-(stats|dead-at-end|fingerprint)' "$smokedir/failover_b.txt" >"$smokedir/failover_b_core.txt"
diff "$smokedir/failover_a_core.txt" "$smokedir/failover_b_core.txt"
grep -q '^chaos-dead-at-end 0$' "$smokedir/failover_a.txt"

# Quorum-loss smoke: kill 2 of the 3 supervisor replicas. The control
# plane must degrade *explicitly* — /healthz flips to 503 with a leaderless
# consensus line — rather than hang or split-brain, and the data plane
# (training) must still run to completion with no server dead.
quorum_port="$(smoke_port)"
smoke=quorum
./target/release/repro chaos --seed 29 --workers 2 --servers 2 --iters 20000 \
  --supervisors 3 --kill-supervisor 0@4 --kill-supervisor 1@10 \
  --metrics-addr "127.0.0.1:$quorum_port" >"$smokedir/quorum.txt" 2>"$smokedir/$smoke.err" &
quorum_pid=$!
quorum_ok=""
for _ in $(seq 1 300); do
  hz="$(http_get "$quorum_port" /healthz 2>/dev/null || true)"
  case "$hz" in
    *'503'*'consensus term '[1-9]*' leader none'*) quorum_ok=1; break ;;
  esac
  kill -0 "$quorum_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$quorum_pid"
[ -n "$quorum_ok" ] || { echo "ci: /healthz never reported explicit leaderless degradation" >&2; exit 1; }
grep -q '^chaos-dead-at-end 0$' "$smokedir/quorum.txt"

# Waterfall smoke: end-to-end causal request tracing. (a) Determinism: two
# same-seed no-kill chaos runs must print bit-identical `waterfall-` lines —
# assembly is a pure function of the logical message set (ids + fold keys),
# never of wall-clock timings. The repro command itself exits 1 if the
# retained/sampled_out/observed balance or the per-request gapless audit
# fails, so running it is the assertion. (b) Recovery: a kill run must
# retain a control-plane waterfall (supervisor request ids carry bit 63 —
# the checkpoint restore shows up as a traced request) and still pass both
# audits. (c) Live: a mid-run /waterfall?slowest=3 scrape must serve NDJSON
# whose balance header balances and whose every line passes the in-tree
# JSON validator.
smoke=wf_a
./target/release/repro waterfall --seed 42 --workers 1 --servers 2 --iters 20 --faults 8 \
  >"$smokedir/wf_a.txt" 2>"$smokedir/$smoke.err"
smoke=wf_b
./target/release/repro waterfall --seed 42 --workers 1 --servers 2 --iters 20 --faults 8 \
  >"$smokedir/wf_b.txt" 2>"$smokedir/$smoke.err"
grep '^waterfall-' "$smokedir/wf_a.txt" >"$smokedir/wf_a_core.txt"
grep '^waterfall-' "$smokedir/wf_b.txt" >"$smokedir/wf_b_core.txt"
diff "$smokedir/wf_a_core.txt" "$smokedir/wf_b_core.txt"
grep -Eq '^waterfall-balance observed=[1-9][0-9]* retained=' "$smokedir/wf_a.txt"
grep -q '^waterfall-gapless ok$' "$smokedir/wf_a.txt"

smoke=wf_kill
./target/release/repro waterfall --seed 13 --workers 2 --servers 2 --iters 25 --kill 0@8 \
  >"$smokedir/wf_kill.txt" 2>"$smokedir/$smoke.err"
grep -q '^waterfall-request id=92233' "$smokedir/wf_kill.txt" # control-plane bit set
grep -q '^waterfall-gapless ok$' "$smokedir/wf_kill.txt"

wf_port="$(smoke_port)"
smoke=chaos_wf
./target/release/repro chaos --seed 13 --workers 2 --servers 2 --iters 4000 --kill 0@8 \
  --metrics-addr "127.0.0.1:$wf_port" >"$smokedir/chaos_wf.txt" 2>"$smokedir/$smoke.err" &
wf_pid=$!
wf_ok=""
for _ in $(seq 1 300); do
  http_get "$wf_port" '/waterfall?slowest=3' 2>/dev/null \
    | sed -n '/^{/,$p' >"$smokedir/wf_scrape.ndjson" || true
  if grep -q '"balanced":true' "$smokedir/wf_scrape.ndjson" \
    && grep -q '"request_id":' "$smokedir/wf_scrape.ndjson"; then
    wf_ok=1
    break
  fi
  kill -0 "$wf_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$wf_pid"
[ -n "$wf_ok" ] || { echo "ci: /waterfall never served a balanced NDJSON body mid-run" >&2; exit 1; }
while IFS= read -r line; do
  printf '%s\n' "$line" >"$smokedir/wf_line.json"
  ./target/release/repro validate-json "$smokedir/wf_line.json"
done <"$smokedir/wf_scrape.ndjson"

smoke=""
# Perf gate: re-run the benchmarks and compare each mean against the
# committed BENCH_obs.json. Hard-fails past the per-bench tolerance bands
# (wide enough for CI-machine noise; see scripts/bench.sh for the bands —
# pass a global TOLERANCE there to loosen them on known-noisy hardware).
bash scripts/bench.sh --check
