//! Wire-level chaos end to end: seeded faults injected under a real
//! 2-process UDS mesh must end in one of exactly two states — the
//! transfer completes bit-exact, or a *typed* error surfaces on every
//! affected rank within bounded time. Hangs are the one forbidden
//! outcome.

mod common;

use std::time::Duration;

use common::{ENV_PARTS, ENV_PART_BYTES};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Torn writes and short reads are absorbed by the framing layer's
/// write_all/read_exact loops: a run soaked in both still completes
/// bit-exact with the fault-free expectation.
#[test]
fn torn_writes_and_short_reads_complete_bit_exact() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (16, 16 * 1024);
    let outs = common::run_wire_pair(
        "torn_writes_and_short_reads_complete_bit_exact",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            (
                "PCOMM_FAULTS",
                "seed=3,torn=0.25,shortread=0.25".to_string(),
            ),
        ],
        [vec![], vec![]],
        TIMEOUT,
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes)),
        "digest diverged under torn/short-read chaos: `{}`",
        outs[0].out
    );
    // The sweep is only meaningful if faults actually fired.
    assert!(
        outs.iter().any(|o| o.trace.contains("fault_injected")),
        "no wire fault was injected — the scenario tested nothing"
    );
}

/// A reset socket is the peer's one reconnect: the sender's trace has
/// a `reconnect` and no `lane_failover`. Seed 9 resets one of the first
/// write calls after `PartRts` — the stream's one chunk. The reset call
/// wrote nothing, so the chunk is still the outbox's front entry and
/// goes whole on the new socket: the transfer ends bit-exact.
#[test]
fn a_reset_mid_stream_spends_the_one_reconnect() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (4, 256);
    let outs = common::run_wire_pair(
        "a_reset_mid_stream_spends_the_one_reconnect",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
        ],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=9,reset=0.5".to_string())],
        ],
        TIMEOUT,
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes))
    );
    let sender = &outs[1].trace;
    assert!(
        sender.contains("fault_injected") && sender.contains("\"name\":\"reconnect\""),
        "the reset never fired or never reconnected — the scenario tested nothing"
    );
    assert!(
        !sender.contains("lane_failover"),
        "a pair's one socket reconnects; there is nothing to fail over to"
    );
}

/// A reset socket under control traffic only: rank 1's socket resets
/// once within its first few hundred writes of a 10 000-barrier storm.
/// The barrier frames, acks and heartbeats that died with it are
/// replayed after the one reconnect, so both ranks end `ok`, with no
/// watchdog asked for. A lost `BarrierArrive` or `BarrierRelease` would
/// leave a rank waiting until the chaos default watchdog ends it in a
/// typed `Stall`.
#[test]
fn a_reset_under_a_barrier_storm_replays_every_control_frame() {
    if common::maybe_run_child() {
        return;
    }
    let outs = common::run_wire_pair(
        "a_reset_under_a_barrier_storm_replays_every_control_frame",
        "barrier-storm",
        &[],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=9,reset=0.01".to_string())],
        ],
        TIMEOUT,
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    let reset = &outs[1].trace;
    assert!(
        reset.contains("fault_injected") && reset.contains("\"name\":\"reconnect\""),
        "the reset never fired or never reconnected — the scenario tested nothing"
    );
}

/// A half-open peer — live socket, writes silently swallowed — is the
/// failure only heartbeats can see, and heartbeats are always on. With
/// no environment beyond the fault, the survivor must escalate to a
/// typed `PeerPanicked` naming the silence within ~2x the heartbeat
/// interval — well before the 5 s chaos watchdog would report a
/// `Stall` — and the silent rank itself must come back with a typed
/// error once the survivor tears the mesh down. Nobody hangs.
#[test]
fn half_open_peer_escalates_to_typed_error() {
    if common::maybe_run_child() {
        return;
    }
    let hb_ms = pcomm_core::HEARTBEAT_MS;
    let outs = common::run_wire_pair(
        "half_open_peer_escalates_to_typed_error",
        "barrier-storm",
        &[],
        [
            vec![],
            // Rank 1's socket goes silent after 256 bytes of control
            // traffic — a few barriers in, handshake long done.
            vec![("PCOMM_FAULTS", "seed=9,halfopen=256".to_string())],
        ],
        TIMEOUT,
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(
            o.out.starts_with("err "),
            "rank {rank} should have surfaced a typed error, got `{}`",
            o.out
        );
    }
    let survivor = &outs[0];
    assert!(
        survivor.out.contains("presumed dead"),
        "survivor's error does not name the silent peer: `{}`",
        survivor.out
    );
    assert!(
        survivor.trace.contains("heartbeat_miss"),
        "survivor escalated without recording a heartbeat_miss event"
    );
    // Detection bound: the quiet period in the message is the monitor's
    // own measurement; 2x interval plus scheduling slack.
    let quiet_ms: u64 = survivor
        .out
        .split(" for ")
        .nth(1)
        .and_then(|s| s.split(" ms").next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no quiet period in `{}`", survivor.out));
    assert!(
        quiet_ms <= 2 * hb_ms + 350,
        "silent death detected only after {quiet_ms} ms (heartbeat {hb_ms} ms)"
    );
}

/// The one socket killed mid-stream, with verification on: 2 MiB in
/// paced partitions, the sender's socket dies after 64 KiB. The
/// receiver reads every range that left whole before it counts what it
/// has, and the torn one goes again whole, so the run ends bit-exact;
/// the sender's trace shows the reconnect and no lane failover, and
/// both rank processes persist analysis-grade `.events` rings whose
/// merged cross-process audit — wire FSM, stream ledger,
/// happens-before — comes back clean even though in-flight bytes were
/// replayed on a new socket.
#[test]
fn lanekill_reconnect_run_audits_clean() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (32, 64 * 1024);
    let outs = common::run_wire_pair(
        "lanekill_reconnect_run_audits_clean",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            (common::ENV_PREADY_GAP_MS, "1".to_string()),
            ("PCOMM_VERIFY", "1".to_string()),
        ],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=7,lanekill=65536".to_string())],
        ],
        TIMEOUT,
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes)),
        "digest diverged after the reconnect"
    );
    let sender = &outs[1].trace;
    assert!(
        sender.contains("fault_injected") && sender.contains("\"name\":\"reconnect\""),
        "the kill never fired or never reconnected — the scenario tested nothing"
    );
    assert!(
        !sender.contains("lane_down") && !sender.contains("lane_failover"),
        "a pair's one socket reconnects; there is no lane to fail over to"
    );
    let rings: Vec<_> = outs
        .iter()
        .enumerate()
        .map(|(rank, o)| {
            o.events
                .clone()
                .unwrap_or_else(|| panic!("rank {rank} left no .events ring"))
        })
        .collect();
    let report = pcomm_verify::audit(&rings);
    assert!(
        report.is_clean(),
        "reconnect run failed its audit:\n{report}"
    );
    assert!(
        report.stats.matched_frames > 0,
        "no frames matched:\n{report}"
    );
    assert!(
        report.stats.streams >= 1,
        "transfer did not stream:\n{report}"
    );
}

/// A run that dies with a typed error must still flush its rings: the
/// half-open cell ends in `PeerPanicked` on both ranks, yet both
/// `.events` sidecars exist, parse, and audit clean — failed runs are
/// exactly the ones worth auditing.
#[test]
fn typed_error_exit_still_persists_audit_rings() {
    if common::maybe_run_child() {
        return;
    }
    let outs = common::run_wire_pair(
        "typed_error_exit_still_persists_audit_rings",
        "barrier-storm",
        &[("PCOMM_VERIFY", "1".to_string())],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=9,halfopen=256".to_string())],
        ],
        TIMEOUT,
    );
    let mut rings = Vec::new();
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(
            o.out.starts_with("err "),
            "rank {rank} should have died typed, got `{}`",
            o.out
        );
        let ring = o
            .events
            .clone()
            .unwrap_or_else(|| panic!("rank {rank} lost its ring on the typed-error exit"));
        assert_eq!(ring.rank as usize, rank);
        rings.push(ring);
    }
    let report = pcomm_verify::audit(&rings);
    assert!(
        report.is_clean(),
        "typed-error run failed its audit:\n{report}"
    );
    assert!(
        report.stats.matched_frames > 0,
        "no control traffic was matched:\n{report}"
    );
}
