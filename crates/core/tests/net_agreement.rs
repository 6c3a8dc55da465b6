//! Wire-vs-shared-memory agreement: the same partitioned transfer must
//! produce bit-identical data on both fabrics, and liveness monitoring
//! must never mistake a slow peer for a dead one.

mod common;

use std::time::Duration;

use common::{ENV_PARTS, ENV_PART_BYTES, ENV_PREADY_GAP_MS};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Baseline: a fault-free UDS run agrees bit-for-bit with the
/// in-process run of the same transfer (and both match the pattern the
/// sender wrote).
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
    let outs = common::run_wire_pair(
        "wire_digest_matches_shm_baseline",
        "transfer",
        &[
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
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
    assert_eq!(
        outs[0].digest(),
        Some(shm),
        "wire digest diverged from shm baseline: `{}`",
        outs[0].out
    );
    // The sender reports 0 only when it really ran as rank 1 of a wire
    // mesh; an accidental in-process fallback would hand it rank 0's
    // digest instead.
    assert_eq!(outs[1].digest(), Some(0), "rank 1 fell back in-process");
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
