//! The shared-memory (`ipc`) fabric end to end: two real processes map
//! a common segment and stream partitions through lock-free rings with
//! futex doorbells. The same transfer must agree bit-for-bit with the
//! in-process baseline, backpressure must block rather than drop,
//! peer death must surface as a typed error within the heartbeat
//! bound, and a verified run must audit clean — the exact contract the
//! socket fabric already honors, on a transport with no syscalls on
//! the data path.

mod common;

use std::time::Duration;

use common::{ENV_ITERS, ENV_PARTS, ENV_PART_BYTES, ENV_ROUNDS, ENV_SEED};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Every test in this file needs the raw-syscall layer; off-platform
/// builds skip rather than fail.
fn ipc_supported() -> bool {
    if pcomm_net::sys::supported() {
        return true;
    }
    eprintln!("skipping: pcomm ipc fabric unsupported on this platform");
    false
}

fn fabric_env() -> (&'static str, String) {
    ("PCOMM_NET_FABRIC", "ipc".to_string())
}

/// Baseline: a fault-free ipc run agrees bit-for-bit with the
/// in-process run of the same transfer, and the processes really took
/// the shared-segment path (the doorbell leaves a trace).
#[test]
fn ipc_digest_matches_shm_baseline() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
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
        "ipc_digest_matches_shm_baseline",
        "transfer",
        &[
            fabric_env(),
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
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    assert_eq!(
        outs[0].digest(),
        Some(shm),
        "ipc digest diverged from shm baseline: `{}`",
        outs[0].out
    );
    // The sender reports 0 only when it really ran as rank 1 of a wire
    // mesh; an accidental in-process fallback would hand it rank 0's
    // digest instead.
    assert_eq!(outs[1].digest(), Some(0), "rank 1 fell back in-process");
    assert!(
        outs.iter().any(|o| o.trace.contains("ipc_doorbell")),
        "no rank recorded an ipc doorbell — did the run fall back to sockets?"
    );
}

/// A zero-length rendezvous has no byte to stream and travels eager: on
/// the socket carrier and on ipc the empty receive completes with length
/// 0, the sender's send returns, and the next message follows.
#[test]
fn a_zero_length_rendezvous_completes_on_both_carriers() {
    if common::maybe_run_child() {
        return;
    }
    let fabrics: &[&str] = if pcomm_net::sys::supported() {
        &["socket", "ipc"]
    } else {
        &["socket"]
    };
    for &fabric in fabrics {
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

/// A peer process that dies mid-run must become a typed
/// `PeerPanicked` on the survivor, within the advertised heartbeat
/// bound — the segment heartbeat is the only liveness signal the ipc
/// fabric has (no socket to break), so this is the failure mode the
/// monitor exists for.
#[test]
fn ipc_killed_peer_escalates_within_heartbeat_bound() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let hb_ms = pcomm_core::HEARTBEAT_MS;
    let outs = common::run_wire_pair(
        "ipc_killed_peer_escalates_within_heartbeat_bound",
        "abort-mid",
        &[fabric_env()],
        [vec![], vec![]],
        TIMEOUT,
    );
    let survivor = &outs[0];
    assert!(
        survivor.status.success(),
        "rank 0: {:?} ({})",
        survivor.status,
        survivor.out
    );
    assert!(
        !outs[1].status.success(),
        "rank 1 was supposed to abort, yet exited clean: `{}`",
        outs[1].out
    );
    assert!(
        survivor.out.starts_with("err ") && survivor.out.contains("rank 1"),
        "survivor should have surfaced a typed error naming rank 1, got `{}`",
        survivor.out
    );
    // Detection bound: the staleness in the message is the monitor's
    // own measurement. 1.75x interval is the trip point; allow generous
    // scheduler slack on a loaded single-core CI box.
    let stale_ms: u64 = survivor
        .out
        .split("stale for ")
        .nth(1)
        .and_then(|s| s.split(" ms").next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no staleness measurement in `{}`", survivor.out));
    assert!(
        stale_ms <= 2 * hb_ms + 1000,
        "dead peer detected only after {stale_ms} ms (heartbeat {hb_ms} ms)"
    );
}

/// The full verification stack over ipc: both ranks persist
/// analysis-grade `.events` rings and the merged cross-process audit —
/// wire FSM, stream ledger, happens-before — comes back clean, with
/// frames matched and the transfer recognized as a stream. Zero-copy
/// commits must not confuse a checker built for sockets.
#[test]
fn ipc_verified_run_audits_clean() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let (n_parts, part_bytes) = (16, 16 * 1024);
    let outs = common::run_wire_pair(
        "ipc_verified_run_audits_clean",
        "transfer",
        &[
            fabric_env(),
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
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
    assert_eq!(
        outs[0].digest(),
        Some(common::expected_digest(n_parts, part_bytes)),
        "verified ipc digest diverged: `{}`",
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
    assert!(report.is_clean(), "ipc run failed its audit:\n{report}");
    assert!(
        report.stats.matched_frames > 0,
        "no frames matched:\n{report}"
    );
    assert!(
        report.stats.streams >= 1,
        "the partitioned transfer should stream:\n{report}"
    );
}

/// Held by every cell that asserts on timing or on who got to poll: the
/// harness runs this file's tests on parallel threads, and two cells
/// pinned to the same cores measure each other.
fn timing_cell() -> std::sync::MutexGuard<'static, ()> {
    static CORES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    CORES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Both ranks exited clean and reported `ok`.
fn assert_ok(outs: &[common::RankOutcome]) {
    for (rank, o) in outs.iter().enumerate() {
        assert!(
            o.status.success(),
            "rank {rank}: {:?} ({})",
            o.status,
            o.out
        );
        assert!(o.out.starts_with("ok "), "rank {rank}: `{}`", o.out);
    }
}

/// One cell of the doorbell hand-off stress (`common::handoff_stress`):
/// rank 0 alternates seeded compute (its progress thread counted
/// again) with blocking waits (the doorbell its own), rank 1 fires
/// partitioned, rendezvous and eager traffic at seeded gaps clustered
/// on the hand-off. Bit-exact under full verification, no completion
/// slower than `STRESS_BOUND` — a wake lost at the hand-off stalls a
/// rendezvous for the receiver's whole 60 ms absence — and the merged
/// audit clean.
fn handoff_stress_cell(test_name: &str, cpus: Option<Vec<usize>>) {
    let seed: u64 = std::env::var(ENV_SEED)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5eed);
    let rounds: u64 = 240;
    let outs = common::run_wire_ranks(
        test_name,
        "handoff-stress",
        &[
            fabric_env(),
            (ENV_SEED, seed.to_string()),
            (ENV_ROUNDS, rounds.to_string()),
            ("PCOMM_VERIFY", "1".to_string()),
        ],
        &[vec![], vec![]],
        TIMEOUT,
        cpus.as_deref(),
    );
    assert_ok(&outs);
    assert_eq!(
        outs[0].digest(),
        Some(common::stress_expected_digest(rounds)),
        "stress digest diverged (seed {seed}): `{}`",
        outs[0].out
    );
    for (rank, o) in outs.iter().enumerate() {
        let slowest = o.figure("slowest_us").expect("slowest_us in the ok line");
        assert!(
            slowest < common::STRESS_BOUND.as_micros() as u64,
            "rank {rank}: a completion took {slowest} us (bound {:?}, seed {seed}, cpus {cpus:?}) \
             — a doorbell wake was lost at the hand-off: `{}`",
            common::STRESS_BOUND,
            o.out
        );
    }
    // The cell must have exercised both regimes of rank 0: pushes that
    // found it computing (its progress thread counted: a wake each) and
    // pushes that found it polling (no wake).
    let (rings, wakes) = (
        outs[1].figure("rings").unwrap_or(0),
        outs[1].figure("wakes").unwrap_or(0),
    );
    assert!(
        wakes > 0 && wakes <= rings / 2,
        "hand-off never engaged: `{}`",
        outs[1].out
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
    assert!(report.is_clean(), "stress cell failed its audit:\n{report}");
}

/// The CPUs to pin a cell's two ranks to: `spread` puts them on two
/// CPUs when the host has two, otherwise both share the first.
fn stress_cpus(spread: bool) -> Option<Vec<usize>> {
    let cpus = pcomm_net::launch::pin_cpus();
    if cpus.is_empty() {
        eprintln!("note: no taskset or cpu list; running the cell unpinned");
        return None;
    }
    let second = if spread {
        *cpus.get(1).unwrap_or(&cpus[0])
    } else {
        cpus[0]
    };
    Some(vec![cpus[0], second])
}

/// Hand-off stress, both ranks (six threads) on one CPU: every
/// hand-off is a preemption point.
#[test]
fn ipc_handoff_stress_one_cpu() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    handoff_stress_cell("ipc_handoff_stress_one_cpu", stress_cpus(false));
}

/// Hand-off stress, one CPU per rank: pushes race poll exits for real.
#[test]
fn ipc_handoff_stress_two_cpus() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    handoff_stress_cell("ipc_handoff_stress_two_cpus", stress_cpus(true));
}

/// Asynchronous progress survives the hand-off: a rank whose app
/// thread posted a receive and then never enters a wait still answers
/// RTS with CTS and drains the slab — its progress thread's park is
/// counted, so the peer's push wakes it. A park left un-counted would
/// hold the send for a progress-thread tick (125 ms).
#[test]
fn ipc_rank_without_waits_still_answers_rts() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    let outs = common::run_wire_pair(
        "ipc_rank_without_waits_still_answers_rts",
        "async-progress",
        &[fabric_env()],
        [vec![], vec![]],
        TIMEOUT,
    );
    assert_ok(&outs);
    let mut expect = vec![0u8; 256 * 1024];
    common::fill_pattern(3, &mut expect);
    assert_eq!(
        outs[0].digest(),
        Some(common::fnv1a(0xcbf2_9ce4_8422_2325, &expect)),
        "`{}`",
        outs[0].out
    );
    let send_us = outs[1].figure("slowest_us").expect("slowest_us");
    assert!(
        send_us < 50_000,
        "rendezvous send took {send_us} us while the receiver was away: its progress \
         thread did not answer the RTS: `{}`",
        outs[1].out
    );
    assert!(
        outs[1].figure("wakes").unwrap_or(0) >= 1,
        "the sender never paid a wake — was the receiver polling after all? `{}`",
        outs[1].out
    );
}

/// The point of the hand-off: with the receiver in `wait`, a 16 x
/// 256 KiB stream's `K_PART` pushes are atomic adds, not `FUTEX_WAKE`s.
#[test]
fn ipc_stream_into_a_waiting_receiver_rings_without_waking() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    let (n_parts, part_bytes) = (16, 256 * 1024);
    // A core per rank where the host has two: a poller that shares its
    // core gives it away on every yield, and what the sender then pays
    // measures the scheduler, not the hand-off.
    let outs = common::run_wire_ranks(
        "ipc_stream_into_a_waiting_receiver_rings_without_waking",
        "stream-repeat",
        &[
            fabric_env(),
            (ENV_PARTS, n_parts.to_string()),
            (ENV_PART_BYTES, part_bytes.to_string()),
            (ENV_ITERS, "8".to_string()),
        ],
        &[vec![], vec![]],
        TIMEOUT,
        stress_cpus(true).as_deref(),
    );
    assert_ok(&outs);
    assert_eq!(
        outs[0].digest(),
        Some(common::flat_expected_digest(n_parts, part_bytes)),
        "`{}`",
        outs[0].out
    );
    let (rings, wakes) = (
        outs[1].figure("rings").expect("rings"),
        outs[1].figure("wakes").expect("wakes"),
    );
    assert!(
        rings >= 8 * 17,
        "8 x (RTS + 16 commits) expected: `{}`",
        outs[1].out
    );
    assert!(
        wakes <= rings / 8,
        "sender paid {wakes} futex wakes for {rings} rings: the hand-off is not engaging"
    );
}

/// Teardown wakes the progress thread unconditionally, so it never
/// waits out a tick of an un-counted park: from the rank closure's
/// return to `Universe::run`'s is the closing barrier, the `Bye`s and a
/// join — milliseconds. The failure this cell exists to catch is a
/// teardown that sits out one progress-thread park, i.e. a quarter of
/// the heartbeat (`HEARTBEAT_MS / 4` = 125 ms), so the bound derives
/// from that tick: under any sat-out tick, well above the 50–55 ms a
/// healthy teardown reaches when the whole test binary loads both cores
/// (8–30 ms alone).
#[test]
fn ipc_teardown_is_bounded() {
    /// The progress thread's park bound, one heartbeat tick.
    const PROGRESS_TICK_US: u64 = pcomm_core::HEARTBEAT_MS * 1000 / 4;
    const BOUND_US: u64 = PROGRESS_TICK_US * 4 / 5;
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    let outs = common::run_wire_pair(
        "ipc_teardown_is_bounded",
        "transfer",
        &[fabric_env()],
        [vec![], vec![]],
        TIMEOUT,
    );
    assert_ok(&outs);
    for (rank, o) in outs.iter().enumerate() {
        let teardown = o.figure("teardown_us").expect("teardown_us");
        assert!(
            teardown < BOUND_US,
            "rank {rank}: ipc teardown took {teardown} us, over the {BOUND_US} us bound \
             (4/5 of the {PROGRESS_TICK_US} us progress tick a slept-through wake would \
             cost): `{}`",
            o.out
        );
    }
}
