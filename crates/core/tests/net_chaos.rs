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

/// The `lane` (and, for a failover, `requeued`) of every `stream_chunk`,
/// `lane_down` and `lane_failover` event in a rank's Chrome trace, in
/// trace (timestamp) order.
fn lane_events(trace: &str) -> Vec<(&str, u64, u64)> {
    let num = |event: &str, key: &str| -> Option<u64> {
        let (_, rest) = event.split_once(&format!("\"{key}\":"))?;
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    };
    trace
        .split("{\"name\":\"")
        .skip(1)
        .filter_map(|event| {
            let (name, _) = event.split_once('"')?;
            let lane = || num(event, "lane").expect("lane events carry a lane");
            ["stream_chunk", "lane_down", "lane_failover"]
                .contains(&name)
                .then(|| (name, lane(), num(event, "requeued").unwrap_or(0)))
        })
        .collect()
}

/// A data lane killed mid-stream re-routes its in-flight partitions to
/// the surviving lanes: the transfer completes bit-exact, the sender's
/// trace records the lane going down, and from then on every chunk
/// travels the surviving *data* lane — which is why a degraded mesh
/// keeps most of its bandwidth: the stream loses one lane's share, it
/// does not fall back to the ordered lane 0 or re-send what the dead
/// lane never held.
#[test]
fn data_lane_kill_fails_over_mid_stream() {
    if common::maybe_run_child() {
        return;
    }
    // 2 MiB across 3 lanes; lane 2 dies after 64 KiB — early enough
    // that most of the stream must travel the surviving lane. The
    // sender paces its `pready`s so chunks are still being dispatched
    // after the lane is down (no assertion depends on the pace).
    let (n_parts, part_bytes) = (32, 64 * 1024);
    let outs = common::run_wire_pair(
        "data_lane_kill_fails_over_mid_stream",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            (common::ENV_PREADY_GAP_MS, "1".to_string()),
            ("PCOMM_NET_LANES", "3".to_string()),
        ],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=7,lanekill=2:65536".to_string())],
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
            o.out.starts_with("ok "),
            "rank {rank} did not survive the lane kill: `{}`",
            o.out
        );
    }
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes)),
        "digest diverged after lane failover: `{}`",
        outs[0].out
    );
    let events = lane_events(&outs[1].trace);
    let down = events
        .iter()
        .position(|&(name, lane, _)| name == "lane_down" && lane == 2)
        .expect("sender never recorded the killed lane — did the fault fire?");
    let chunk_lanes = |events: &[(&str, u64, u64)]| -> Vec<u64> {
        let chunks = events.iter().filter(|e| e.0 == "stream_chunk");
        chunks.map(|e| e.1).collect()
    };
    let after = chunk_lanes(&events[down..]);
    assert!(
        after.iter().all(|&lane| lane == 1),
        "after lane_down every chunk must travel the surviving data lane 1, \
         not the dead lane or the ordered lane 0; lanes taken: {after:?}"
    );
    let sent_to_dead = chunk_lanes(&events).iter().filter(|&&l| l == 2).count() as u64;
    let failovers = events.iter().filter(|e| e.0 == "lane_failover");
    let requeued: u64 = failovers.map(|e| e.2).sum();
    assert!(
        requeued <= sent_to_dead,
        "failover re-queued {requeued} chunks but only {sent_to_dead} were ever \
         dispatched to lane 2"
    );
}

/// A reset lane 0 is a reconnect, never a failover: on a single-lane
/// mesh nothing can move to another lane, so the sender's trace has a
/// `reconnect` and no `lane_failover`. Seed 9 resets one of the first
/// write calls on the lane after `PartRts` — the stream's one chunk.
/// Either outcome of the contract is accepted: the replayed range races
/// the receiver's `StreamResync` report, which can call it lost.
#[test]
fn single_lane_reset_reconnects_without_a_failover() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (4, 256);
    let outs = common::run_wire_pair(
        "single_lane_reset_reconnects_without_a_failover",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            ("PCOMM_NET_LANES", "1".to_string()),
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
        assert!(
            o.out.starts_with("ok ") || o.out.starts_with("err "),
            "rank {rank} ended neither bit-exact nor typed: `{}`",
            o.out
        );
    }
    if let Some(digest) = outs[0].digest() {
        assert_eq!(digest, common::expected_digest(n_parts, part_bytes));
    }
    let sender = &outs[1].trace;
    assert!(
        sender.contains("fault_injected") && sender.contains("\"name\":\"reconnect\""),
        "the reset never fired or never reconnected — the scenario tested nothing"
    );
    assert!(
        !sender.contains("lane_failover"),
        "lane 0 reconnects; a single-lane mesh has nothing to fail over to"
    );
}

/// A half-open peer — live socket, writes silently swallowed — is the
/// failure only heartbeats can see. The survivor must escalate to a
/// typed `PeerPanicked` naming the silence, within ~2x the heartbeat
/// interval, and the silent rank itself must come back with a typed
/// error once the survivor tears the mesh down. Nobody hangs.
#[test]
fn half_open_peer_escalates_to_typed_error() {
    if common::maybe_run_child() {
        return;
    }
    let hb_ms: u64 = 150;
    let outs = common::run_wire_pair(
        "half_open_peer_escalates_to_typed_error",
        "barrier-storm",
        &[("PCOMM_NET_HB_MS", hb_ms.to_string())],
        [
            vec![],
            // Rank 1's lane 0 goes silent after 256 bytes of control
            // traffic — a few barriers in, handshake long done.
            vec![("PCOMM_FAULTS", "seed=9,halfopen=0:256".to_string())],
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

/// The lane-kill failover cell again, with verification on: both rank
/// processes must persist analysis-grade `.events` rings, and the
/// merged cross-process audit — wire FSM, stream ledger, happens-before
/// — must come back clean even though a lane died and its in-flight
/// bytes were replayed.
#[test]
fn lanekill_failover_run_audits_clean() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (32, 64 * 1024);
    let outs = common::run_wire_pair(
        "lanekill_failover_run_audits_clean",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            ("PCOMM_NET_LANES", "3".to_string()),
            ("PCOMM_VERIFY", "1".to_string()),
        ],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=7,lanekill=2:65536".to_string())],
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
        "digest diverged after lane failover: `{}`",
        outs[0].out
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
        "failover run failed its audit:\n{report}"
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
        &[
            ("PCOMM_NET_HB_MS", "150".to_string()),
            ("PCOMM_VERIFY", "1".to_string()),
        ],
        [
            vec![],
            vec![("PCOMM_FAULTS", "seed=9,halfopen=0:256".to_string())],
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
