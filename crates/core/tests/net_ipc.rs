//! The shared-memory (`ipc`) fabric's own cells: two real processes map
//! a common segment and stream partitions through lock-free rings with
//! futex doorbells. Asynchronous progress and the doorbell hand-off
//! between polling app threads and the progress thread must hold under
//! stress, a stream into a waiting receiver must ring without waking,
//! and teardown must stay bounded. What every carrier must honour —
//! agreement with the in-process baseline, a clean cross-process audit,
//! a typed error when a peer dies — is checked once, over sockets and
//! ipc alike, in `net_agreement.rs` and the root package's
//! `tests/net_chaos.rs`.

mod common;

use std::time::Duration;

use common::{ENV_ITERS, ENV_PARTS, ENV_PART_BYTES, ENV_ROUNDS, ENV_SEED};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Every test in this file needs the ipc fabric, which the runtime
/// picks only where cross-memory attach works; elsewhere they skip
/// rather than fail.
fn ipc_supported() -> bool {
    if pcomm_net::sys::cma_works() {
        return true;
    }
    eprintln!("skipping: pcomm ipc fabric unavailable on this host");
    false
}

fn fabric_env() -> (&'static str, String) {
    ("PCOMM_NET_FABRIC", "ipc".to_string())
}

/// Held by every cell in this file — each spawns rank processes, and
/// most assert on timing or on who got to poll: the harness runs this
/// file's tests on parallel threads, and two cells sharing the cores
/// measure each other. A cell that spawns ranks without it is load on
/// the ones that assert.
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

/// The point of the hand-off: with the receiver in `wait`, the records
/// of a 16 x 256 KiB stream — each range one copy, made by the side that
/// claims it: a `K_READY` the receiver pulls, or a `K_PART` after the
/// sender copied — cost atomic adds, not `FUTEX_WAKE`s.
///
/// A wake is legitimate whenever the receiver stopped polling: its
/// poll window closes after 150 µs without progress, and a sender
/// descheduled that long by a loaded host hands the doorbell back for
/// the rest of that pass. So the cell judges the hand-off pass by pass
/// and asserts on the median pass: at most one wake per eight rings
/// there. A load spike spoils the passes it lands on, not the median
/// of eight; a hand-off that does not engage pays a wake per ring in
/// every pass.
#[test]
fn ipc_stream_into_a_waiting_receiver_rings_without_waking() {
    const PASSES: u64 = 8;
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
            (ENV_ITERS, PASSES.to_string()),
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
    let rings = outs[1].figure("rings").expect("rings");
    assert!(
        rings > PASSES * 16,
        "the one RTS + {PASSES} x 16 commits expected: `{}`",
        outs[1].out
    );
    let mut pass_wakes = outs[1].list("pass_wakes");
    assert_eq!(pass_wakes.len() as u64, PASSES, "`{}`", outs[1].out);
    pass_wakes.sort_unstable();
    let median = pass_wakes[pass_wakes.len() / 2];
    let pass_rings = rings / PASSES;
    assert!(
        median <= pass_rings / 8,
        "the median pass paid {median} futex wakes for {pass_rings} rings (passes, \
         sorted: {pass_wakes:?}): the hand-off is not engaging"
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

/// A rank killed mid-rendezvous, at 3 ranks: rank 0 dies as soon as its
/// 16 MiB grant is out, while rank 1 moves pieces into its memory with
/// cross-memory calls. A call that fails on the dead process reports
/// its death, not misuse, and so does every survivor: `PeerPanicked`
/// naming rank 0 on ranks 1 and 2.
#[test]
fn ipc_rank_killed_mid_rendezvous_is_a_death_on_every_survivor() {
    if common::maybe_run_child() {
        return;
    }
    if !ipc_supported() {
        return;
    }
    let _cores = timing_cell();
    let outs = common::run_wire_ranks(
        "ipc_rank_killed_mid_rendezvous_is_a_death_on_every_survivor",
        "kill-mid-rdv",
        &[fabric_env()],
        &[vec![], vec![], vec![]],
        TIMEOUT,
        None,
    );
    assert!(
        !outs[0].status.success(),
        "rank 0 was to die, yet exited clean: `{}`",
        outs[0].out
    );
    for (rank, o) in outs.iter().enumerate().skip(1) {
        assert!(o.status.success(), "rank {rank}: {:?}", o.status);
        assert!(
            o.out.starts_with("err rank 0 panicked: "),
            "rank {rank} must report rank 0's death: `{}`",
            o.out
        );
    }
}
