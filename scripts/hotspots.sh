#!/usr/bin/env bash
# Sampling profile of one ledger workload: in which functions its threads
# spend their time, overall and per thread family. A stand-in for
# `perf record` that needs nothing but python3's standard library,
# llvm-symbolizer and objdump: it follows every thread (gprofng sees only
# the main one) and stops each for a few microseconds per sample.
#
# Usage: scripts/hotspots.sh WORKLOAD [SEED] [SECONDS]
#        LEDGER=/path/to/another/ledger scripts/hotspots.sh ...   # e.g. the parent's
#
# Starts the ledger untraced (`--trace 0`) as a child of the sampler. About
# every 3 ms the sampler lists the threads in state `R` (/proc/<tid>/stat)
# and, for each, stops it (PTRACE_SEIZE once, then PTRACE_INTERRUPT), reads
# its user-space `rip` (PTRACE_GETREGS) and lets it go on. Samples are
# symbolized afterwards with `llvm-symbolizer --functions=linkage
# --no-inlines` at `rip - base`, `base` being where the object's mapping at
# file offset 0 starts in /proc/<pid>/maps — the address the ELF file itself
# gives the instruction. A function's row is its self time: code inlined
# into it counts as its own (`relu_inplace` inside `Mlp::loss_and_grad`).
# The one exception is `fluentps_util::cpu::widest`'s wide instance, into
# which the GEMM kernels are all inlined: a sample there is named after the
# fluentps-ml kernel it is in, as the baseline build names it, with a
# `(wide)` suffix (`fluentps_ml::linalg::walk_block (wide)`; list builders
# and each product's own packing get rows of their own too).
# A sample the symbolizer cannot name — stripped libc's ifunc targets, which
# have no dynamic symbol — is named by the instruction at its address, as
# `objdump -d` disassembles it: `?? in libc.so.6: rep stos (memset)` and
# `?? in libc.so.6: rep movs (memmove)` get rows of their own instead of one
# `?? in libc.so.6` row (7.6 % of all samples on `tcp_bsp_wire`, seed 7).
# Each row gives the function's share of the samples, their count, and
# `us/iter`: samples × the mean interval between sampling rounds ÷ the
# run's worker-iterations (`attempted / 2`, as in `scripts/census.sh`) — an
# estimate of runnable time per iteration that, unlike a share, compares
# across builds that run at different speeds.
#
# Read the rows of system-call wrappers with care. `R` means runnable, not
# running: a thread that waits for a CPU right after a system call returned
# is sampled at that call's user-space site, so `__recv`/`writev`/futex rows
# mix CPU time in the kernel with time queued for a CPU. On two vCPUs and
# `resilient_ssp_steady` (seed 7, 10 s) `__recv` and `writev` were 61 % of
# all samples, about 330 µs per worker-iteration, while the whole process
# spent 39 µs of system time per worker-iteration: compare
# `scripts/census.sh`, which splits run time from runnable waiting.
# Thread families are named as in `scripts/census.sh`: trailing digits
# dropped, the ledger's polling main thread its own `<name>/main` row.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/hotspots.sh WORKLOAD [SEED] [SECONDS]}"
seed="${2:-7}"
seconds="${3:-10}"

ledger="${LEDGER:-}"
if [ -z "$ledger" ]; then
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
  ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/ledger"
fi

python3 - "$ledger" "$workload" "$seed" "$seconds" <<'PY'
import collections
import ctypes
import os
import re
import subprocess
import sys
import tempfile
import time

ledger, workload, seed, seconds = sys.argv[1:5]

PTRACE_GETREGS, PTRACE_CONT = 12, 7
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
WALL = 0x40000000  # __WALL: wait for threads, not just processes
RIP = 16  # index of rip in x86-64 `struct user_regs_struct`
PERIOD = 0.003
TOP = 15  # rows overall; half as many per thread family

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p]
Regs = ctypes.c_ulonglong * 27


def ptrace(request, tid, data=0):
    return libc.ptrace(request, tid, None, ctypes.c_void_p(data)) == 0


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def resume(tid, status):
    """Let a thread that `status` reports stopped go on, handing on the
    signal that stopped it; an interrupt's own stop (an event stop, status
    >> 16 set) passes none."""
    ptrace(PTRACE_CONT, tid, 0 if status >> 16 else os.WSTOPSIG(status))


exit_status = None


def note_exit(tid, status):
    global exit_status
    seized.discard(tid)
    if tid == pid:
        exit_status = os.waitstatus_to_exitcode(status)


def reap():
    """Collect what nobody waited for: exited threads — a traced thread stays
    a zombie until its tracer waits for it, and the process's exit is only
    reported once every thread is reaped — and stops to resume."""
    while True:
        try:
            tid, status = os.waitpid(-1, os.WNOHANG | WALL)
        except ChildProcessError:
            return
        if tid == 0:
            return
        if os.WIFSTOPPED(status):
            resume(tid, status)
        else:
            note_exit(tid, status)


def stop_and_read_rip(tid, regs):
    """Interrupt `tid`, read its rip, let it go on; None if it is gone."""
    if not ptrace(PTRACE_INTERRUPT, tid):
        return None
    while True:
        try:
            _, status = os.waitpid(tid, WALL)
        except ChildProcessError:
            return None
        if not os.WIFSTOPPED(status):
            note_exit(tid, status)
            return None
        rip = regs[RIP] if ptrace(PTRACE_GETREGS, tid, ctypes.addressof(regs)) else None
        resume(tid, status)
        if status >> 16:
            return rip
        # A signal's stop came first; the interrupt's is still to come.


result = tempfile.TemporaryFile()
devnull = os.open(os.devnull, os.O_WRONLY)
argv = [ledger, "run", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"]
quiet = [(os.POSIX_SPAWN_DUP2, result.fileno(), 1), (os.POSIX_SPAWN_DUP2, devnull, 2)]
pid = os.posix_spawn(ledger, argv, os.environ, file_actions=quiet)
seized, names = set(), {}
samples = []  # (family, rip)
maps = ""
regs = Regs()
rounds, sampling_began = 0, time.monotonic()
while exit_status is None:
    rounds += 1
    began = time.monotonic()
    maps = read(f"/proc/{pid}/maps") or maps
    try:
        tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        tids = []
    for tid in tids:
        stat = read(f"/proc/{pid}/task/{tid}/stat")
        if not stat or stat[stat.rindex(")") + 2] != "R":
            continue
        if tid not in seized:
            if not ptrace(PTRACE_SEIZE, tid):
                continue
            seized.add(tid)
        if tid not in names:
            name = re.sub(r"[0-9]+$", "", (read(f"/proc/{pid}/task/{tid}/comm") or "?").strip())
            names[tid] = name + "/main" if tid == pid else name
        rip = stop_and_read_rip(tid, regs)
        if rip is not None:
            samples.append((names[tid], rip))
    reap()
    time.sleep(max(0.0, PERIOD - (time.monotonic() - began)))
interval = (time.monotonic() - sampling_began) / rounds
if exit_status != 0:
    sys.exit("hotspots: the ledger run failed")
result.seek(0)
attempted = re.findall(rb'"attempted": ([0-9]+)', result.read())
iters = int(attempted[-1]) // 2 if attempted else 0
if iters == 0:
    sys.exit("hotspots: no result object with attempted operations in the ledger's output")
if not samples:
    sys.exit("hotspots: no samples")

# Executable mappings, each with the start of its object's offset-0 mapping.
bases, regions = {}, []
for line in maps.splitlines():
    fields = line.split(maxsplit=5)
    if len(fields) < 6:
        continue
    lo, hi = (int(x, 16) for x in fields[0].split("-"))
    path = fields[5].strip()
    if int(fields[2], 16) == 0:
        bases.setdefault(path, lo)
    if "x" in fields[1]:
        regions.append((lo, hi, path))


def locate(rip):
    for lo, hi, path in regions:
        if lo <= rip < hi and path in bases:
            return path, rip - bases[path]
    return None, rip


# What a string instruction does where libc's ifunc targets use one.
STRING_OPS = {"rep stos": "memset", "rep movs": "memmove"}
PREFIXES = {"rep", "repz", "repe", "repnz", "repne", "lock", "notrack", "bnd"}


def instruction_at(path, offset):
    """The mnemonic at `offset` in `path` (`rep stos`, `vmovdqu`), as
    objdump disassembles it; `None` if it does not."""
    out = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", f"--start-address=0x{offset:x}",
         f"--stop-address=0x{offset + 16:x}", path],
        capture_output=True,
        text=True,
    ).stdout
    for line in out.splitlines():
        m = re.match(r"\s*[0-9a-f]+:\s+(\S+)(?:\s+(\S+))?", line)
        if m:
            words = [w for w in m.groups() if w]
            if words[0] in PREFIXES and len(words) > 1:
                # `rep movsb`, `rep movsq`: the operation without its width.
                return f"{words[0]} {re.sub(r'[bwlq]$', '', words[1])}"
            return words[0]
    return None


def unnamed(path, offset):
    """A row name for a sample the symbolizer could not name."""
    short = os.path.basename(path)
    op = instruction_at(path, offset)
    if op is None:
        return f"?? in {short}"
    what = f" ({STRING_OPS[op]})" if op in STRING_OPS else ""
    return f"?? in {short}: {op}{what}"


# What the Itanium demangler leaves of a legacy Rust symbol's escapes.
ESCAPES = {"$LT$": "<", "$GT$": ">", "$RF$": "&", "$BP$": "*", "$C$": ",", "$SP$": "@"}


def rust_escapes(name):
    name = re.sub(r"\$u([0-9a-f]{2})\$", lambda m: chr(int(m.group(1), 16)), name)
    for escape, char in ESCAPES.items():
        name = name.replace(escape, char)
    return re.sub(r"^_<", "<", name.replace("..", "::"))


located = [(family, *locate(rip)) for family, rip in samples]
wanted = collections.defaultdict(set)
for _, path, offset in located:
    if path:
        wanted[path].add(offset)
names_at = {}
def symbolize(path, offsets, inlines):
    """`llvm-symbolizer`'s lines for each of `offsets` in `path`: the
    function, or with `inlines` every inlined frame, innermost first, each
    a name and a `file:line:column`."""
    out = subprocess.run(
        ["llvm-symbolizer", "--obj=" + path, "--functions=linkage",
         "--inlines" if inlines else "--no-inlines", "--demangle"],
        input="".join(f"0x{o:x}\n" for o in offsets),
        capture_output=True,
        text=True,
    ).stdout
    return [b.splitlines() for b in out.strip("\n").split("\n\n")]


for path, offsets in wanted.items():
    offsets = sorted(offsets)
    for offset, block in zip(offsets, symbolize(path, offsets, False)):
        name = block[0] if block and block[0] != "??" else unnamed(path, offset)
        name = re.sub(r"::h[0-9a-f]{16}( \(\.llvm\.[0-9]+\))?$", "", name)
        names_at[(path, offset)] = rust_escapes(name)

# The wide instances of `fluentps_util::cpu::widest` hold their callers'
# code inlined, so the pass above names every sample in them after the
# helper. Symbolize those again with inlined frames and keep the frames
# of fluentps-ml's source, outermost first, closures dropped: the first is
# the dispatched product's body, the next the kernel code it inlined
# (`walk_block`, a list builder). Name the sample after that next frame,
# or after the body for the body's own code (packing), as the baseline
# build's rows name them, with `(wide)`.
WIDE = "fluentps_util::cpu::"
wide = collections.defaultdict(set)
for (path, offset), name in names_at.items():
    if name.startswith(WIDE):
        wide[path].add(offset)
for path, offsets in wide.items():
    offsets = sorted(offsets)
    for offset, block in zip(offsets, symbolize(path, offsets, True)):
        frames = []  # outermost first
        for name, where in reversed(list(zip(block[::2], block[1::2]))):
            source = re.search(r"/fluentps-ml/src/(.+)\.rs:", where)
            if source and not name.startswith("{closure"):
                module = source.group(1).replace("/", "::").removesuffix("::mod")
                frames.append(f"fluentps_ml::{module}::{name}")
        if frames:
            names_at[(path, offset)] = frames[min(1, len(frames) - 1)] + " (wide)"

by_function = collections.Counter()
by_family = collections.defaultdict(collections.Counter)
for family, path, offset in located:
    name = names_at.get((path, offset), "?? unmapped")
    by_function[name] += 1
    by_family[family][name] += 1


def table(counts, rows):
    total = sum(counts.values())
    for name, n in counts.most_common(rows):
        print(f"{100.0 * n / total:6.1f}% {n:8d} {n * interval * 1e6 / iters:9.1f}  {name}")


print(
    f"hotspots {workload} seed={seed} seconds={seconds}: {iters} worker-iterations, "
    f"{len(samples)} samples of runnable threads in {rounds} rounds (one every "
    f"{interval * 1e3:.1f} ms), {len(names)} threads sampled"
)
print(" share  samples   us/iter  function (us/iter: samples x round interval / iterations)")
print("== all threads ==")
table(by_function, TOP)
for family, counts in sorted(by_family.items(), key=lambda kv: -sum(kv[1].values())):
    share = 100.0 * sum(counts.values()) / len(samples)
    print(f"== {family}: {sum(counts.values())} samples, {share:.1f}% ==")
    table(counts, TOP // 2)
PY
