//! Chaos over the wire: the fault-injection layer and the error taxonomy
//! must survive the jump from shared memory to real processes. A seeded
//! drop plan on a UDS mesh must recover through bounded resends; a
//! certain-drop plan must surface `PcommError::MessageLost` on *both*
//! sides (the abort travels as a wire frame); and a rank process that
//! dies must come back as a structured `PeerPanicked` error on the
//! survivor instead of a hang, on the socket carrier and on ipc.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::time::Duration;

use common::{ENV_PARTS, ENV_PART_BYTES};

const TIMEOUT: Duration = Duration::from_secs(60);

/// The streaming cells' shape: 8 x 4 KiB, partitions readied one by
/// one so every `PartData` range crosses the wire separately.
const STREAM: (usize, usize) = (8, 4 * 1024);

/// Run `scenario` as a 2-rank UDS mesh with `faults` on both ranks;
/// both rank processes must exit clean (an expected typed error is
/// reported in their out lines, not by their exit status).
fn run_faulted(test_name: &str, scenario: &str, faults: &str) -> Vec<common::RankOutcome> {
    let (n_parts, part_bytes) = STREAM;
    let outs = common::run_wire_pair(
        test_name,
        scenario,
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            ("PCOMM_FAULTS", faults.to_string()),
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
    }
    outs
}

#[test]
fn seeded_drops_over_uds_recover_via_resend() {
    if common::maybe_run_child() {
        return;
    }
    let outs = run_faulted(
        "seeded_drops_over_uds_recover_via_resend",
        "echo",
        "seed=7,drop=0.5,retries=24",
    );
    for (rank, o) in outs.iter().enumerate() {
        assert_eq!(
            o.digest(),
            Some(common::echo_expected_digest()),
            "rank {rank}: bounded resend must recover dropped frames intact: `{}`",
            o.out
        );
    }
}

#[test]
fn certain_drop_over_uds_is_message_lost_on_both_ranks() {
    if common::maybe_run_child() {
        return;
    }
    let outs = run_faulted(
        "certain_drop_over_uds_is_message_lost_on_both_ranks",
        "echo",
        "seed=1,drop=1.0,retries=0",
    );
    // The sender raises it, the receiver learns it from the abort frame.
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.out.starts_with("err message lost: rank 0 -> rank 1 "),
            "rank {rank}: expected MessageLost for the 0 -> 1 message, got `{}`",
            o.out
        );
    }
}

#[test]
fn seeded_part_data_drops_over_uds_recover_via_resend() {
    if common::maybe_run_child() {
        return;
    }
    let outs = run_faulted(
        "seeded_part_data_drops_over_uds_recover_via_resend",
        "transfer",
        "seed=11,drop=0.5,retries=24",
    );
    let (n_parts, part_bytes) = STREAM;
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes)),
        "bounded resend must recover dropped PartData ranges intact: `{}`",
        outs[0].out
    );
    assert_eq!(outs[1].digest(), Some(0), "sender: `{}`", outs[1].out);
}

#[test]
fn certain_part_data_drop_is_message_lost_on_both_ranks() {
    if common::maybe_run_child() {
        return;
    }
    let outs = run_faulted(
        "certain_part_data_drop_is_message_lost_on_both_ranks",
        "transfer",
        "seed=3,drop=1.0,retries=0",
    );
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.out.starts_with("err message lost: "),
            "rank {rank}: expected MessageLost on the streaming wire, got `{}`",
            o.out
        );
    }
}

/// Rank 1's process dies after one barrier (`abort-mid`); rank 0, in a
/// barrier storm, must get a typed `PeerPanicked` naming rank 1 instead
/// of hanging. On sockets the broken connection says so at once; on ipc
/// the segment heartbeat is the only liveness signal (no socket to
/// break), so the survivor's staleness measurement must stay within the
/// heartbeat bound.
#[test]
fn killed_rank_process_surfaces_peer_panicked_not_a_hang() {
    if common::maybe_run_child() {
        return;
    }
    let hb_ms = pcomm_core::HEARTBEAT_MS;
    // The carriers wait on different clocks — the socket carrier's one
    // reconnect window, ipc's heartbeat — so the two meshes run side by
    // side.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = common::carriers()
            .into_iter()
            .map(|fabric| {
                scope.spawn(move || {
                    let outs = common::run_wire_pair(
                        "killed_rank_process_surfaces_peer_panicked_not_a_hang",
                        "abort-mid",
                        &[("PCOMM_NET_FABRIC", fabric.to_string())],
                        [vec![], vec![]],
                        TIMEOUT,
                    );
                    (fabric, outs)
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (fabric, outs) in runs {
        let survivor = &outs[0];
        assert!(
            survivor.status.success(),
            "{fabric} rank 0: {:?} ({})",
            survivor.status,
            survivor.out
        );
        assert!(
            !outs[1].status.success(),
            "{fabric}: rank 1 was supposed to die, yet exited clean: `{}`",
            outs[1].out
        );
        let message = survivor
            .out
            .strip_prefix("err rank 1 panicked: ")
            .unwrap_or_else(|| {
                panic!(
                    "{fabric}: survivor should report PeerPanicked for rank 1, got `{}`",
                    survivor.out
                )
            });
        if fabric == "socket" {
            assert!(
                message.contains("rank process exited")
                    || message.contains("connection")
                    || message.contains("broke"),
                "socket: the message names the lost connection: `{message}`"
            );
            continue;
        }
        // 1.75x interval is the trip point; allow generous scheduler
        // slack on a loaded single-core CI box.
        let stale_ms: u64 = message
            .split("stale for ")
            .nth(1)
            .and_then(|s| s.split(" ms").next())
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("ipc: no staleness measurement in `{message}`"));
        assert!(
            stale_ms <= 2 * hb_ms + 1000,
            "ipc: dead peer detected only after {stale_ms} ms (heartbeat {hb_ms} ms)"
        );
    }
}
