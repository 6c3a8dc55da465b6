#!/bin/sh
# Offline CI: format check, release build, default tests, opt-in
# randomized property tests, bench compilation. Mirrors what reviewers
# run; no network access required at any step.
set -eu

cd "$(dirname "$0")"

# Every smoke matrix below (chaos, net, ipc, wire chaos, audit) is made of
# the same cell: one launcher line under a hard timeout with its output
# kept aside, its exit status mapped to a verdict.
#   cell [--audit WHAT] [--expect TEXT | --no-stall] LABEL ACCEPT HANG [VAR=value...] COMMAND...
# ACCEPT names the exit codes that pass: "0" for a plain smoke run (ok /
# failed with exit N), "0 2" for a chaos run (recovered / clean typed
# error / unclean exit N). 124 is timeout's own: the run hung, and HANG
# is how to say so. With --audit the run is verified with its rings
# armed, and pcomm-audit must then find nothing in them (WHAT names the
# cell in its findings). With --expect the output must name TEXT and no
# watchdog stall: the run died of the failure the cell provoked. With
# --no-stall only the stall is refused: whatever the run ended in, no
# frame was lost on the way.
cell() {
    audit=""; expect=""; nostall=""
    if [ "$1" = --audit ]; then audit="$2"; shift 2; fi
    if [ "$1" = --expect ]; then expect="$2"; shift 2; fi
    if [ "$1" = --no-stall ]; then nostall=1; shift; fi
    label="$1"; accept="$2"; hang="$3"; shift 3
    echo "-- $label"
    if [ -n "$audit" ]; then
        ring_dir=$(mktemp -d)
        set -- PCOMM_VERIFY=1 PCOMM_TRACE="$ring_dir/trace.json" "$@"
    fi
    status=0
    out=$(mktemp)
    timeout 120 env "$@" >"$out" 2>&1 || status=$?
    if { [ -n "$expect" ] && ! grep -q "$expect" "$out"; } ||
        { [ -n "$expect$nostall" ] && grep -q "stall detected" "$out"; }; then
        echo "   exit $status, but the output does not say '$expect' (or shows a stall):" >&2
        cat "$out" >&2
        exit 1
    fi
    rm -f "$out"
    case " $accept " in
        *" $status "*)
            if [ -n "$audit" ]; then :
            elif [ "$accept" = 0 ]; then echo "   ok"
            elif [ "$status" = 0 ]; then echo "   recovered (exit 0)"
            else echo "   clean typed error (exit 2)"
            fi ;;
        *)
            if [ "$status" = 124 ]; then echo "   $hang" >&2
            elif [ "$accept" = 0 ]; then echo "   failed with exit $status" >&2
            else echo "   unclean exit $status (panic/abort?)" >&2
            fi
            exit 1 ;;
    esac
    if [ -n "$audit" ]; then
        if ./target/release/pcomm-audit "$ring_dir"/trace.json.rank*.events >/dev/null; then
            echo "   audits clean (run exit $status)"
        else
            echo "   AUDIT FINDINGS for $audit:" >&2
            ./target/release/pcomm-audit "$ring_dir"/trace.json.rank*.events >&2 || true
            exit 1
        fi
        rm -rf "$ring_dir"
    fi
}

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings (workspace, offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release (workspace, offline) =="
cargo build --workspace --release --offline

echo "== cargo test (workspace, offline) =="
cargo test --workspace -q --offline

echo "== cargo test --features proptests (offline) =="
cargo test -q --offline --features proptests

echo "== cargo bench --no-run (offline) =="
cargo bench --workspace --no-run --offline

echo "== benchmark package (own workspace: unit tests + --quick smoke of every workload) =="
# `benchmark/` is a package of its own that neither the workspace build
# nor tier-1 sees; a pcomm-core change that breaks its build or its
# smoke run must fail here first, not in the benchmark driver.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== chaos smoke (seeded faults, hard timeout, must never hang) =="
# Examples under a seeded drop/delay/reorder plan with a bounded retry
# budget and an armed watchdog. Two acceptable outcomes: the retries
# recover everything (exit 0) or the run fails *cleanly* with a typed
# PcommError (exit 2). A hang (timeout exit 124) or a panic/abort is a
# CI failure. `dup` is deliberately absent: duplicated eager messages
# can satisfy a later iteration's receive with stale data, turning a
# clean chaos error into an assertion panic.
chaos_smoke() {
    cell "$1 under PCOMM_FAULTS='$2'" "0 2" "HANG: watchdog failed to fire" \
        PCOMM_FAULTS="$2" PCOMM_WATCHDOG_MS=5000 "./target/release/examples/$1"
}
cargo build --release --offline --example pingpong --example ring_pipeline
chaos_smoke pingpong      "seed=42,drop=0.05,delay=0.05:200,reorder=0.02,retries=3"
chaos_smoke ring_pipeline "seed=42,drop=0.05,delay=0.05:200,reorder=0.02,retries=3"
# Guaranteed loss: every attempt drops, retries exhaust — the run must
# come back as a clean MessageLost/Stall error, never a hang.
chaos_smoke pingpong      "seed=7,drop=1.0,retries=2"

echo "== verify (PCOMM_VERIFY=1 examples + schedule-exploration sweep) =="
# Every example runs with the verification layer armed: the run captures
# an analysis-grade trace and teardown executes all three pcomm-verify
# passes (happens-before races, deadlock verdicts, protocol lints); any
# finding turns the exit status nonzero. Simulator-only examples ignore
# the knob and simply rerun.
cargo build --release --offline --examples
for name in quickstart pingpong ring_pipeline halo_exchange consumer_overlap \
            early_bird aggregation_sweep trace_contention; do
    echo "-- $name under PCOMM_VERIFY=1"
    PCOMM_VERIFY=1 timeout 120 "./target/release/examples/$name" >/dev/null
done
# Bounded schedule exploration in the simulator: the Fig. 3 scenario
# under all 8 strategies × seeded pready-jitter permutations, all three
# verification passes per interleaving. A finding prints the seed that
# replays it against the real runtime via PCOMM_FAULTS.
cargo run --release -p pcomm-bench --bin verify_sweep --offline -- --quick

echo "== net (multi-process over UDS: launcher + examples) =="
# The unmodified examples as two real OS processes wired over Unix
# domain sockets by pcomm-launch. A hang (timeout exit 124) is a CI
# failure — teardown must be bounded even across processes.
cargo build --release --offline -p pcomm-net --bin pcomm-launch
net_smoke() {
    cell "$1 under pcomm-launch -n 2 (uds)" 0 "HANG over the wire" \
        ./target/release/pcomm-launch -n 2 -- "./target/release/examples/$1"
}
net_smoke quickstart
net_smoke pingpong
net_smoke halo_exchange

echo "== ipc (same-host segment fabric: launcher examples + audited cell) =="
# The same examples over the shared-memory ipc fabric
# (PCOMM_NET_FABRIC=ipc): a memfd segment bootstrapped over the UDS
# mesh, then zero syscalls per message. Hard timeout as always —
# futex-parked progress threads must still tear down bounded. On
# platforms without the raw-syscall layer the runtime falls back to
# sockets, so this stage degrades instead of failing there. DESIGN.md §12.
ipc_smoke() {
    cell "$1 under pcomm-launch -n 2 (ipc)" 0 "HANG on the ipc fabric" \
        PCOMM_NET_FABRIC=ipc ./target/release/pcomm-launch -n 2 -- \
        "./target/release/examples/$1"
}
ipc_smoke pingpong
ipc_smoke halo_exchange
# The doorbell hand-off stress cells (crates/core/tests/net_ipc.rs):
# seeded compute against seeded pushes aimed at the moment a poll ends,
# ranks pinned to one CPU and to two, bit-exact under PCOMM_VERIFY=1,
# audited, and no completion slower than 40 ms — a lost wake shows as a
# 60 ms stall. A hang is a failure like any other: hard timeout, one
# attempt.
echo "-- doorbell hand-off stress (one CPU, two CPUs)"
timeout 300 cargo test --release -q --offline -p pcomm-core --test net_ipc \
    ipc_handoff_stress -- --test-threads=1
# The in-process binding's claim race (crates/core/src/part.rs): each
# iteration the receiver's post and the sender's stamps leave a barrier
# together, 10 000 iterations per layout, pinned to one CPU (no spinning:
# waits park) and to two. A debug build, so a message claimed twice
# trips the countdown's assertion; one claimed by neither stalls into
# the test's watchdog. Hard timeout, one attempt.
echo "-- binding claim race (one CPU, two CPUs)"
for cpus in 0 0,1; do
    timeout 300 taskset -c "$cpus" cargo test -q --offline -p pcomm-core --lib \
        part::tests::binding_claims_each_message_once -- --exact
done
# Audited cells: a verified ipc run persists per-rank .events rings
# like any other fabric (one lane, epoch pinned to 0) and the merged
# cross-process audit must come back clean. halo_exchange's 4 KiB
# partitions are copied by their sender at once; quickstart's 64 KiB
# ones reach the pull floor (transport_ipc::PULL_FLOOR), so either side
# may claim and copy them (K_READY, K_PULLED); pingpong's rendezvous
# round trips land in heap memory, so each goes out in 64 KiB pieces
# that the receiver reads from the sender's memory (process_vm_readv)
# or the sender writes into the receiver's (process_vm_writev).
cargo build --release --offline -p pcomm-verify --bin pcomm-audit
for name in halo_exchange quickstart pingpong; do
    cell --audit "the ipc $name cell" "audit $name under pcomm-launch -n 2 (ipc)" 0 \
        "HANG on the ipc fabric" \
        PCOMM_NET_FABRIC=ipc ./target/release/pcomm-launch -n 2 -- \
        "./target/release/examples/$name"
done

echo "== wire chaos (seeded wire faults under pcomm-launch, must never hang) =="
# The self-healing matrix: reset, torn-write/short-read, and a
# deterministic kill of a pair's one socket after 64 KiB (it reconnects
# once, and the carrier replays every frame the peer lacks, pinned
# ranges included, which count off only once acked) over two examples
# running as real processes. The reset and kill cells must recover
# (exit 0); the torn/short-read cells recover or fail with a typed
# error (exit 2). No cell sets PCOMM_WATCHDOG_MS — a fault
# plan arms the 5 s chaos default by itself — and a watchdog stall, a
# frame the reconnect did not replay, fails CI, as do a hang (timeout
# exit 124) and a panic/abort. The half-open cell is the one only the
# heartbeat can see — every write swallowed from 4 KiB on, the socket
# still up — so it must end in exit 2 with the peer "presumed dead",
# inside twice the 500 ms heartbeat.
wire_chaos() {
    cell --no-stall "$1 under pcomm-launch -n 2, PCOMM_FAULTS='$2'" "$3" \
        "HANG over the wire" PCOMM_FAULTS="$2" \
        ./target/release/pcomm-launch -n 2 -- "./target/release/examples/$1"
}
for name in pingpong halo_exchange; do
    wire_chaos "$name" "seed=42,reset=0.001" 0
    wire_chaos "$name" "seed=42,torn=0.3,shortread=0.3" "0 2"
    wire_chaos "$name" "seed=42,lanekill=65536" 0
    cell --expect "presumed dead" \
        "$name under pcomm-launch -n 2, PCOMM_FAULTS='seed=42,halfopen=4096'" 2 \
        "HANG over the wire: the heartbeat failed to fire" \
        PCOMM_FAULTS="seed=42,halfopen=4096" \
        ./target/release/pcomm-launch -n 2 -- "./target/release/examples/$name"
done

echo "== audit (wire-chaos matrix with rings armed; every cell must audit clean) =="
# The same matrix as above, re-run with PCOMM_VERIFY=1 and PCOMM_TRACE
# so every rank persists its analysis-grade .events ring (typed-error
# exits included). pcomm-audit merges each cell's rings and must find
# nothing: chaos proves the run survives, the audit proves the survival
# was correct (wire FSM, stream-ledger soundness, cross-process
# happens-before). DESIGN.md §7.
audit_cell() {
    cell --audit "$1 under '$2'" --no-stall "audit $1 under PCOMM_FAULTS='$2'" "$3" \
        "HANG over the wire" PCOMM_FAULTS="$2" \
        ./target/release/pcomm-launch -n 2 -- "./target/release/examples/$1"
}
for name in pingpong halo_exchange; do
    audit_cell "$name" "seed=42,reset=0.001" 0
    audit_cell "$name" "seed=42,torn=0.3,shortread=0.3" "0 2"
    audit_cell "$name" "seed=42,lanekill=65536" 0
done

echo "== safety lint (SAFETY / ORDERING / PANIC justification comments) =="
# Every `unsafe` site repo-wide needs a `// SAFETY:` justification; on
# the wire hot path (crates/core/src/{wire,transport,transport_ipc}.rs +
# crates/net/) every Relaxed atomic needs `// ORDERING:` and every
# unwrap/expect needs `// PANIC:`. See crates/bench/src/bin/safety_lint.rs.
cargo run --release -p pcomm-bench --bin safety_lint --offline

echo "== size (ROADMAP's tracked counts; the transport family has a ceiling) =="
# Non-test lines = lines above a file's first `#[cfg(test)]`. The wire
# engine plus its two carriers may shrink but not grow back past what
# the one-engine refactor (5145 before it), the one reliable channel
# per socket peer (4067 before it: the engine's stream-only resync
# went), pairing a wire partitioned request once (3960 before it:
# per-iteration streams went), counting a pinned range off on ack
# (3955 before it: the lost-range path went), one chunk per issued
# message (3952 before it: the socket carrier's stream window went),
# the wire sender's claim written once (3866 before it: the stream's
# send queue went) and a heap-bound ipc range moved by cross-memory
# calls (3853 before it: the slab chunk loop and K_PARTF went)
# reached; lower the ceiling whenever a PR lands below it.
TRANSPORT_CEILING=3847
nontest() { awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$1"; }
family=0
for f in wire transport transport_ipc; do
    n=$(nontest "crates/core/src/$f.rs")
    echo "   crates/core/src/$f.rs: $n"
    family=$((family + n))
done
echo "   transport family: $family (ceiling $TRANSPORT_CEILING)"
# The eight strategies exist once: the op tables, the scenario (with the
# partition→thread rule) and the real runtime's template in core, the
# simulator's template and its run_scenario. 1364 before they were
# written once (one function per strategy and side in each world, plus
# hand-written string tables); same rule as above.
STRATEGY_CEILING=998
strategies=0
for f in core/src/strategies simmpi/src/strategies simmpi/src/scenario; do
    n=$(nontest "crates/$f.rs")
    echo "   crates/$f.rs: $n"
    strategies=$((strategies + n))
done
echo "   strategy family: $strategies (ceiling $STRATEGY_CEILING)"
# The event taxonomy is one table in event.rs (1765 lines before it was:
# eight hand-kept copies per event, one of them chrome.rs's); chrome.rs
# renders any event through the table's field visitor. Same rule again.
EVENT_CEILING=960
event=$(nontest crates/trace/src/event.rs)
echo "   crates/trace/src/event.rs: $event (ceiling $EVENT_CEILING)"
echo "   crates/trace/src/chrome.rs: $(nontest crates/trace/src/chrome.rs)"
echo "   trace family: $((event + $(nontest crates/trace/src/chrome.rs)))"
# The wire format is one table in pcomm-net's frame.rs (1036 lines
# before it was: nine hand-kept copies per frame; 696 before opcodes 4,
# 5 and 18 were retired). Same rule again. The
# socket carrier is wired by mesh.rs and launch.rs: printed beside the
# family so code moved there is seen.
FRAME_CEILING=634
frame=$(nontest crates/net/src/frame.rs)
echo "   crates/net/src/frame.rs: $frame (ceiling $FRAME_CEILING)"
for f in mesh launch; do
    echo "   crates/net/src/$f.rs: $(nontest "crates/net/src/$f.rs")"
done
# part.rs, fabric.rs, universe.rs and the carrier interface are
# tracked too; same rule (the interface had 14 methods before the
# reconnect epoch left it; part.rs had 1462 lines and fabric.rs 1462
# before a wire request paired once, part.rs 1402 before the old
# protocol became one deferred message on the one path and 1262 before
# the wire sender shared the binding's claim; fabric.rs
# (1449 before the eager pool went) and universe.rs 585 before it).
# (Test-only items sit after all non-test code, so the count is the
# whole non-test file.)
PART_CEILING=1257
FABRIC_CEILING=1339
UNIVERSE_CEILING=582
TRAIT_CEILING=12
part=$(nontest crates/core/src/part.rs)
echo "   crates/core/src/part.rs: $part (ceiling $PART_CEILING)"
fabric=$(nontest crates/core/src/fabric.rs)
echo "   crates/core/src/fabric.rs: $fabric (ceiling $FABRIC_CEILING)"
universe=$(nontest crates/core/src/universe.rs)
echo "   crates/core/src/universe.rs: $universe (ceiling $UNIVERSE_CEILING)"
methods=$(awk '/^pub\(crate\) trait Transport/{t=1} t&&/^}/{exit} t&&/^    fn /{n++} END{print n+0}' crates/core/src/transport.rs)
echo "   Transport trait methods: $methods (ceiling $TRAIT_CEILING)"
# crates/bench regenerates the paper's figures on the simulator; the
# real runtime has one timing engine, benchmark/, and none here.
echo "   crates/bench Rust lines: $(find crates/bench -name '*.rs' -exec cat {} + | wc -l)"
# Every PCOMM_* variable doubles the configurations to cover. Same rule
# as the line ceilings: lower it whenever a knob becomes a constant
# (10 before PCOMM_TRACE_REPORT became PCOMM_TRACE's `.txt`).
KNOB_CEILING=9
knobs=$(grep -rhoE '"PCOMM_[A-Z_]+"' crates/*/src src | sort -u | wc -l)
echo "   PCOMM_* variables read by non-test code: $knobs (ceiling $KNOB_CEILING)"
if [ "$family" -gt "$TRANSPORT_CEILING" ]; then
    echo "transport family grew past its ceiling ($family > $TRANSPORT_CEILING)" >&2
    exit 1
fi
if [ "$strategies" -gt "$STRATEGY_CEILING" ]; then
    echo "strategy family grew past its ceiling ($strategies > $STRATEGY_CEILING)" >&2
    exit 1
fi
if [ "$event" -gt "$EVENT_CEILING" ]; then
    echo "event.rs grew past its ceiling ($event > $EVENT_CEILING)" >&2
    exit 1
fi
if [ "$frame" -gt "$FRAME_CEILING" ]; then
    echo "frame.rs grew past its ceiling ($frame > $FRAME_CEILING)" >&2
    exit 1
fi
if [ "$part" -gt "$PART_CEILING" ]; then
    echo "part.rs grew past its ceiling ($part > $PART_CEILING)" >&2
    exit 1
fi
if [ "$fabric" -gt "$FABRIC_CEILING" ]; then
    echo "fabric.rs grew past its ceiling ($fabric > $FABRIC_CEILING)" >&2
    exit 1
fi
if [ "$universe" -gt "$UNIVERSE_CEILING" ]; then
    echo "universe.rs grew past its ceiling ($universe > $UNIVERSE_CEILING)" >&2
    exit 1
fi
if [ "$methods" -gt "$TRAIT_CEILING" ]; then
    echo "the Transport trait grew past its ceiling ($methods > $TRAIT_CEILING)" >&2
    exit 1
fi
if [ "$knobs" -gt "$KNOB_CEILING" ]; then
    echo "PCOMM_* knob count grew past its ceiling ($knobs > $KNOB_CEILING)" >&2
    exit 1
fi
# The runtime reads its environment and never writes it: a launcher
# (pcomm-launch, a test harness) sets the rank environment of the
# processes it starts, as mpiexec does.
if grep -rnE 'env::(set_var|remove_var)' crates/*/src src; then
    echo "library or binary code writes the process environment (above)" >&2
    exit 1
fi
echo "   env writes in crates/*/src and src: none"

echo "CI OK"
