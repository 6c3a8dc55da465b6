//! Wire-vs-shared-memory agreement on every carrier: the same
//! partitioned transfer must produce bit-identical data in process, over
//! sockets and over ipc, a verified run must audit clean across the
//! processes, and liveness monitoring must never mistake a slow peer
//! for a dead one.

mod common;

use std::time::Duration;

use common::{ENV_ITERS, ENV_PARTS, ENV_PART_BYTES, ENV_PREADY_GAP_MS};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Baseline: a fault-free wire run agrees bit-for-bit with the
/// in-process run of the same transfer (and both match the pattern the
/// sender wrote), on every carrier; an ipc run really took the
/// shared-segment path (the doorbell leaves a trace).
#[test]
fn wire_digest_matches_shm_baseline() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (16, 16 * 1024);
    let shm = common::shm_baseline_digest(n_parts, part_bytes);
    assert_eq!(
        shm,
        common::expected_digest(n_parts, part_bytes),
        "in-process baseline does not match the sender's pattern"
    );
    for fabric in common::carriers() {
        let outs = common::run_wire_pair(
            "wire_digest_matches_shm_baseline",
            "transfer",
            &[
                ("PCOMM_NET_FABRIC", fabric.to_string()),
                (ENV_PARTS, n_parts.to_string()),
                (ENV_PART_BYTES, part_bytes.to_string()),
            ],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.status.success(),
                "{fabric} rank {rank}: {:?} ({})",
                o.status,
                o.out
            );
            assert!(
                o.out.starts_with("ok "),
                "{fabric} rank {rank}: `{}`",
                o.out
            );
        }
        assert_eq!(
            outs[0].digest(),
            Some(shm),
            "{fabric} digest diverged from shm baseline: `{}`",
            outs[0].out
        );
        // The sender reports 0 only when it really ran as rank 1 of a
        // wire mesh; an accidental in-process fallback would hand it
        // rank 0's digest instead.
        assert_eq!(
            outs[1].digest(),
            Some(0),
            "{fabric}: rank 1 fell back in-process"
        );
        if fabric == "ipc" {
            assert!(
                outs.iter().any(|o| o.trace.contains("ipc_doorbell")),
                "no rank recorded an ipc doorbell — did the run fall back to sockets?"
            );
        }
    }
}

/// A partitioned send completes only once the receiver has its bytes:
/// the sender overwrites its whole buffer the moment each `wait`
/// returns, yet every pass the receiver digests is the one sent — on
/// both socket backends, whose kernels read a spliced range straight out
/// of the sender's pages until the receiver has read it.
#[test]
fn a_buffer_rewritten_after_wait_never_reaches_the_receiver() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes, iters) = (8, 64 * 1024, 40);
    for backend in ["uds", "tcp"] {
        let outs = common::run_wire_pair(
            "a_buffer_rewritten_after_wait_never_reaches_the_receiver",
            "rewrite",
            &[
                ("PCOMM_NET_BACKEND", backend.to_string()),
                (ENV_PARTS, n_parts.to_string()),
                (ENV_PART_BYTES, part_bytes.to_string()),
                (ENV_ITERS, iters.to_string()),
            ],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.out.starts_with("ok "),
                "{backend} rank {rank}: `{}`",
                o.out
            );
        }
        assert_eq!(
            outs[0].digest(),
            Some(common::rewrite_expected_digest(n_parts, part_bytes, iters)),
            "{backend}: the receiver read bytes written after the sender's wait"
        );
        assert_eq!(
            outs[1].digest(),
            Some(0),
            "{backend}: rank 1 fell back in-process"
        );
    }
}

/// Early-bird on both socket backends: a partition readied alone
/// reaches the receiver before the sender readies another, so the
/// receiver's `parrived(0)` holds while the sender waits for its "go".
/// A carrier that held the lone 16 KiB range back until more joined it
/// would leave the receiver's poll to time out (a typed `err`, never a
/// hang).
#[test]
fn a_partition_readied_alone_arrives_before_the_rest_are_readied() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (8, 16 * 1024);
    for backend in ["uds", "tcp"] {
        let outs = common::run_wire_pair(
            "a_partition_readied_alone_arrives_before_the_rest_are_readied",
            "early-bird",
            &[
                ("PCOMM_NET_BACKEND", backend.to_string()),
                (ENV_PARTS, n_parts.to_string()),
                (ENV_PART_BYTES, part_bytes.to_string()),
            ],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.out.starts_with("ok "),
                "{backend} rank {rank}: `{}`",
                o.out
            );
        }
        assert_eq!(
            outs[0].digest(),
            Some(common::expected_digest(n_parts, part_bytes)),
            "{backend}: `{}`",
            outs[0].out
        );
        assert_eq!(
            outs[1].digest(),
            Some(0),
            "{backend}: rank 1 fell back in-process"
        );
    }
}

/// The full verification stack on every carrier: both rank processes
/// persist analysis-grade `.events` rings and the merged cross-process
/// audit — wire FSM, stream ledger, happens-before — comes back clean,
/// with both ranks in it, frames matched, the transfer recognized as a
/// stream and events reaching the merged happens-before pass. Each
/// rank's own `PCOMM_VERIFY` analysis is clean too (a finding would
/// have turned its `ok` into an `err`). Zero-copy ipc commits must not
/// confuse a checker built for sockets.
#[test]
fn verified_transfer_audits_clean_on_every_carrier() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (16, 16 * 1024);
    for fabric in common::carriers() {
        let outs = common::run_wire_pair(
            "verified_transfer_audits_clean_on_every_carrier",
            "transfer",
            &[
                ("PCOMM_NET_FABRIC", fabric.to_string()),
                (ENV_PARTS, n_parts.to_string()),
                (ENV_PART_BYTES, part_bytes.to_string()),
                ("PCOMM_VERIFY", "1".to_string()),
            ],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.status.success(),
                "{fabric} rank {rank}: {:?} ({})",
                o.status,
                o.out
            );
            assert!(
                o.out.starts_with("ok "),
                "{fabric} rank {rank}: `{}`",
                o.out
            );
        }
        assert_eq!(
            outs[0].digest(),
            Some(common::expected_digest(n_parts, part_bytes)),
            "verified {fabric} digest diverged: `{}`",
            outs[0].out
        );
        let rings: Vec<_> = outs
            .iter()
            .enumerate()
            .map(|(rank, o)| {
                o.events
                    .clone()
                    .unwrap_or_else(|| panic!("{fabric} rank {rank} left no .events ring"))
            })
            .collect();
        let report = pcomm_verify::audit(&rings);
        assert!(
            report.is_clean(),
            "{fabric} run failed its audit:\n{report}"
        );
        assert_eq!(report.stats.ranks, 2, "{fabric}:\n{report}");
        assert!(
            report.stats.matched_frames > 0,
            "{fabric}: no frames matched:\n{report}"
        );
        assert!(
            report.stats.streams >= 1,
            "{fabric}: the partitioned transfer should stream:\n{report}"
        );
        assert!(
            report.stats.hb_events > 0,
            "{fabric}: no events reached the merged happens-before pass:\n{report}"
        );
    }
}

/// A zero-length rendezvous has no byte to stream and travels eager: on
/// the socket carrier and on ipc the empty receive completes with length
/// 0, the sender's send returns, and the next message follows.
#[test]
fn a_zero_length_rendezvous_completes_on_both_carriers() {
    if common::maybe_run_child() {
        return;
    }
    for fabric in common::carriers() {
        let outs = common::run_wire_pair(
            "a_zero_length_rendezvous_completes_on_both_carriers",
            "zero-rdv",
            &[("PCOMM_NET_FABRIC", fabric.to_string())],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.out.starts_with("ok "),
                "{fabric} rank {rank}: `{}`",
                o.out
            );
        }
        let four = u64::from(u32::from_le_bytes([1, 2, 3, 4]));
        assert_eq!(outs[0].digest(), Some(four), "{fabric}: `{}`", outs[0].out);
        assert_eq!(
            outs[1].digest(),
            Some(0),
            "{fabric}: rank 1 fell back in-process"
        );
    }
}

/// A slow-but-alive peer must never be declared dead: with the default
/// heartbeat and the sender crawling (seeded pready jitter plus an
/// inter-partition gap of half the heartbeat interval), the run
/// completes clean, the digest still matches the shm baseline, and no
/// rank records a single `heartbeat_miss`.
#[test]
fn slow_jittered_peer_is_not_declared_dead() {
    if common::maybe_run_child() {
        return;
    }
    let (n_parts, part_bytes) = (10, 8 * 1024);
    let shm = common::shm_baseline_digest(n_parts, part_bytes);
    let outs = common::run_wire_pair(
        "slow_jittered_peer_is_not_declared_dead",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
        ],
        [
            vec![],
            vec![
                ("PCOMM_FAULTS", "seed=11,delay=0.25:2000,jitter".to_string()),
                // Ten gaps of 250 ms: a 2.5 s crawl, well past the
                // 7/4 x `HEARTBEAT_MS` miss threshold, so a monitor that
                // judged transfer progress instead of heartbeats would
                // trip.
                (
                    ENV_PREADY_GAP_MS,
                    (pcomm_core::HEARTBEAT_MS / 2).to_string(),
                ),
            ],
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
            "rank {rank} did not complete clean: `{}`",
            o.out
        );
        assert!(
            !o.trace.contains("heartbeat_miss"),
            "rank {rank}: heartbeat monitor false-positived on a slow peer"
        );
    }
    assert_eq!(
        outs[0].digest(),
        Some(shm),
        "slow-peer wire digest diverged from shm baseline: `{}`",
        outs[0].out
    );
}
