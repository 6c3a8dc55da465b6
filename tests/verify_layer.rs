//! End-to-end tests of the verification layer (`pcomm-verify`) against
//! both runtimes: golden planted-violation fixtures with provenance
//! assertions, clean-run sweeps under seeded pready jitter, and the
//! cross-runtime `parrived` agreement check.

use pcomm_core::part::PartOptions;
use pcomm_core::{FaultPlan, Universe};
use pcomm_netmodel::MachineConfig;
use pcomm_simcore::Sim;
use pcomm_simmpi::part as simpart;
use pcomm_simmpi::World;
use pcomm_trace::{Event, EventKind, Trace};
use pcomm_verify::{analyze, AccessKind, DeadlockFinding, LintKind, Side};

fn ev(ts_ns: u64, rank: u16, kind: EventKind) -> Event {
    Event { ts_ns, rank, kind }
}

// ---------------------------------------------------------------------
// Cross-runtime semantics: `parrived` on a never-started request.
// ---------------------------------------------------------------------

/// MPI defines `MPI_Parrived` on an inactive request as complete
/// (`flag = true`). Both runtimes must agree — the real runtime via its
/// pre-set arrival signals, the simulator via the started-state check.
#[test]
fn parrived_on_inactive_request_agrees_across_runtimes() {
    // Real runtime: init both sides, never start, probe every partition.
    let real = Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                let _ps = comm.psend_init(1, 3, 4, 64, PartOptions::default());
                true
            } else {
                let pr = comm.precv_init(0, 3, 4, 64, PartOptions::default());
                (0..4).all(|p| pr.parrived(p))
            }
        })
        .unwrap();
    assert!(real[1], "real runtime: inactive request must report true");

    // Simulator, improved path.
    let sim = Sim::new();
    let world = World::new(&sim, MachineConfig::meluxina_quiet(), 2, 1, 1);
    let cs = world.comm_world(0);
    let cr = world.comm_world(1);
    let _ps = simpart::psend_init(&cs, 1, 3, 4, 64, 4, simpart::PartOptions::default());
    let pr = simpart::precv_init(&cr, 0, 3, 4, 4, 64, simpart::PartOptions::default());
    let sim_improved = (0..4).all(|p| pr.parrived(p));

    // Simulator, legacy AM path.
    let opts = simpart::PartOptions {
        path: simpart::PartPath::LegacyAm,
        ..simpart::PartOptions::default()
    };
    let _ps2 = simpart::psend_init(&cs, 1, 4, 4, 64, 4, opts.clone());
    let pr2 = simpart::precv_init(&cr, 0, 4, 4, 4, 64, opts);
    let sim_legacy = (0..4).all(|p| pr2.parrived(p));

    assert_eq!(
        real[1], sim_improved,
        "improved-path simulator disagrees with the real runtime"
    );
    assert_eq!(
        real[1], sim_legacy,
        "legacy-path simulator disagrees with the real runtime"
    );
}

// ---------------------------------------------------------------------
// Clean runs: zero false positives under a seeded jitter sweep.
// ---------------------------------------------------------------------

/// A correct partitioned roundtrip must verify clean under every pready
/// permutation the chaos stream emits: 16 seeds, 2 iterations each.
#[test]
fn real_runtime_roundtrip_clean_across_16_seed_jitter_sweep() {
    for seed in 1..=16u64 {
        let u = Universe::new(2)
            .with_shards(2)
            .with_fault_plan(FaultPlan::seeded(seed).jitter(true));
        let (out, report) = u.run_verified(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 7, 8, 128, PartOptions::default());
                for _ in 0..2 {
                    ps.start();
                    for p in 0..8 {
                        ps.write_partition(p, |b| b.fill(p as u8));
                    }
                    ps.pready_range(0, 7);
                    ps.wait();
                }
            } else {
                let pr = comm.precv_init(0, 7, 8, 128, PartOptions::default());
                for _ in 0..2 {
                    pr.start();
                    pr.wait();
                }
                assert_eq!(pr.partition(5)[0], 5);
            }
        });
        out.unwrap();
        assert!(report.is_clean(), "seed {seed} false positive: {report}");
        assert!(
            report.stats.verify_events > 0,
            "seed {seed}: nothing traced"
        );
        assert_eq!(report.stats.requests, 1);
    }
}

/// In process the improved path pairs once at init and copies each
/// message straight into the receiver's buffer: every transfer shows up
/// as a zero-copy `VerifyMsgRecv` (never an eager match), no message
/// crosses a match queue, and the run audits clean.
#[test]
fn in_process_partitioned_run_goes_through_the_binding_and_audits_clean() {
    let trace = Trace::ring_verify(4096);
    let (out, report) = Universe::new(2)
        .with_trace(trace.clone())
        .run_verified(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 8, 8, 128, PartOptions::default());
                for it in 0..3u8 {
                    ps.start();
                    for p in 0..8 {
                        ps.write_partition(p, |b| b.fill(it + p as u8));
                        ps.pready(p);
                    }
                    ps.wait();
                }
            } else {
                let pr = comm.precv_init(0, 8, 8, 128, PartOptions::default());
                for it in 0..3u8 {
                    pr.start();
                    pr.wait();
                    assert!((0..8).all(|p| pr.partition(p)[0] == it + p as u8));
                }
            }
        });
    out.unwrap();
    assert!(report.is_clean(), "bound run flagged: {report}");
    let events = trace.snapshot().expect("trace is enabled").events;
    let recvs: Vec<bool> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::VerifyMsgRecv { eager, .. } => Some(eager),
            _ => None,
        })
        .collect();
    assert_eq!(recvs.len(), 3 * 8, "one transfer per message per iteration");
    assert!(
        recvs.iter().all(|eager| !eager),
        "a bound copy is not eager"
    );
    let queued = |e: &&Event| {
        matches!(
            e.kind,
            EventKind::EagerSend { .. } | EventKind::RdvSend { .. }
        )
    };
    assert_eq!(events.iter().filter(queued).count(), 0);
}

/// Every link of a ring derives the *same* partitioned ctx (part_ctx is
/// deterministic in parent ctx and tag only), so request identity must
/// fold the sender's rank in — without that, the analyzer merges the
/// links into one request and reports cross-rank "races" between
/// unrelated send buffers.
#[test]
fn ring_links_sharing_a_ctx_are_distinct_requests() {
    let (out, report) = Universe::new(3).run_verified(|comm| {
        let rank = comm.rank();
        let next = (rank + 1) % 3;
        let prev = (rank + 2) % 3;
        let ps = comm.psend_init(next, 11, 4, 64, PartOptions::default());
        let pr = comm.precv_init(prev, 11, 4, 64, PartOptions::default());
        ps.start();
        pr.start();
        for p in 0..4 {
            ps.write_partition(p, |b| b.fill(rank as u8));
            ps.pready(p);
        }
        ps.wait();
        pr.wait();
        assert_eq!(pr.partition(0)[0], prev as u8);
    });
    out.unwrap();
    assert!(
        report.is_clean(),
        "ring link merged into false race: {report}"
    );
    assert_eq!(report.stats.requests, 3, "one request per ring link");
}

/// The consumer-overlap pattern — mid-iteration `read_partition` after a
/// passed arrival check — must not be flagged even without an explicit
/// `parrived` probe on the reading thread.
#[test]
fn mid_iteration_checked_read_is_not_a_false_positive() {
    let (out, report) = Universe::new(2).run_verified(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init(1, 5, 4, 64, PartOptions::default());
            ps.start();
            for p in 0..4 {
                ps.write_partition(p, |b| b.fill(p as u8));
                ps.pready(p);
            }
            ps.wait();
        } else {
            let pr = comm.precv_init(0, 5, 4, 64, PartOptions::default());
            pr.start();
            for p in 0..4 {
                // Spin until the covering message lands, then read while
                // the iteration is still active.
                while !pr.parrived(p) {
                    std::thread::yield_now();
                }
                pr.read_partition(p, |b| assert_eq!(b[0], p as u8));
            }
            pr.wait();
        }
    });
    out.unwrap();
    assert!(report.is_clean(), "consumer overlap flagged: {report}");
}

/// A receiver that polls `parrived` long enough overflows its thread's
/// ring and evicts its own `VerifyStart`. The evicted start is not a
/// protocol violation: with the drop count passed in, the wait that
/// lost its start is a counted note, not a finding — while the very
/// same events presented as a complete trace (`dropped = 0`) still
/// raise `unbalanced-start-wait`.
#[test]
fn ring_overflow_demotes_the_evicted_start_instead_of_flagging_the_wait() {
    const LANE_CAP: usize = 64;
    let trace = Trace::ring_verify(LANE_CAP);
    // The sender holds its partitions back until the receiver has
    // out-polled its ring, so the overflow does not depend on timing.
    let polled = std::sync::Barrier::new(2);
    let (out, report) = Universe::new(2)
        .with_trace(trace.clone())
        .run_verified(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 9, 4, 64, PartOptions::default());
                ps.start();
                polled.wait();
                for p in 0..4 {
                    ps.write_partition(p, |b| b.fill(p as u8));
                    ps.pready(p);
                }
                ps.wait();
            } else {
                let pr = comm.precv_init(0, 9, 4, 64, PartOptions::default());
                pr.start();
                for _ in 0..4 * LANE_CAP {
                    assert!(!pr.parrived(0), "nothing was readied yet");
                }
                polled.wait();
                while !pr.parrived(0) {
                    std::thread::yield_now();
                }
                pr.wait();
                assert_eq!(pr.partition(3)[0], 3);
            }
        });
    out.unwrap();
    assert!(report.is_clean(), "overflow read as a violation: {report}");
    assert!(report.stats.dropped_events > 0, "the ring never overflowed");
    assert_eq!(report.stats.demoted_lints, 1, "{report}");
    assert!(format!("{report}").contains("1 absence-based lints demoted"));

    let data = trace.snapshot().expect("trace is enabled");
    let recv_start = |e: &Event| matches!(e.kind, EventKind::VerifyStart { sender: false, .. });
    assert!(!data.events.iter().any(recv_start), "start was not evicted");
    let complete = analyze(&data.events, 0);
    assert!(
        complete
            .lints
            .iter()
            .any(|l| l.kind == LintKind::UnbalancedStartWait && l.rank == 1),
        "a wait with no start in a complete trace must stay a finding: {complete}"
    );
}

// ---------------------------------------------------------------------
// Planted violations, real runtime.
// ---------------------------------------------------------------------

/// A second `pready` of one partition in one iteration is rejected by
/// the runtime *and* linted by the analyzer with full provenance.
#[test]
fn double_pready_is_linted_with_provenance() {
    let (out, report) = Universe::new(2).run_verified(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init(1, 9, 2, 64, PartOptions::default());
            ps.start();
            ps.write_partition(0, |b| b.fill(1));
            ps.write_partition(1, |b| b.fill(2));
            ps.pready(0);
            assert!(ps.try_pready(0).is_err(), "second pready must be rejected");
            ps.pready(1);
            ps.wait();
        } else {
            let pr = comm.precv_init(0, 9, 2, 64, PartOptions::default());
            pr.start();
            pr.wait();
        }
    });
    out.unwrap();
    let lint = report
        .lints
        .iter()
        .find(|l| l.kind == LintKind::DoublePready)
        .unwrap_or_else(|| panic!("expected a double-pready lint: {report}"));
    assert_eq!(lint.rank, 0);
    assert_eq!(lint.part, Some(0));
    assert_eq!(lint.iter, 0);
}

// ---------------------------------------------------------------------
// Golden fixtures: synthesized streams through the public `analyze`.
// ---------------------------------------------------------------------

/// A user write landing after the partition's `pready` races the
/// transfer's read at injection; the race pass pins both endpoints and
/// the lint pass flags the ordering violation independently.
#[test]
fn fixture_user_write_after_pready_race() {
    let req = 42u16;
    let events = vec![
        ev(
            0,
            0,
            EventKind::VerifyPartInit {
                req,
                sender: true,
                parts: 1,
                msgs: 1,
            },
        ),
        ev(
            1,
            0,
            EventKind::VerifyLayoutMsg {
                req,
                msg: 0,
                first_spart: 0,
                n_sparts: 1,
                first_rpart: 0,
                n_rparts: 1,
                bytes: 64,
            },
        ),
        ev(
            2,
            0,
            EventKind::VerifyStart {
                req,
                sender: true,
                iter: 0,
                tid: 1,
            },
        ),
        ev(
            3,
            0,
            EventKind::VerifyWrite {
                req,
                part: 0,
                iter: 0,
                tid: 1,
                dur_ns: 1,
            },
        ),
        ev(
            4,
            0,
            EventKind::VerifyPready {
                req,
                part: 0,
                iter: 0,
                tid: 1,
            },
        ),
        // Planted: a second thread rewrites the partition after pready.
        ev(
            5,
            0,
            EventKind::VerifyWrite {
                req,
                part: 0,
                iter: 0,
                tid: 2,
                dur_ns: 1,
            },
        ),
        ev(
            6,
            0,
            EventKind::VerifyMsgSend {
                req,
                msg: 0,
                iter: 0,
                tid: 1,
            },
        ),
        ev(
            7,
            0,
            EventKind::VerifyWaitDone {
                req,
                sender: true,
                iter: 0,
                tid: 1,
            },
        ),
    ];
    let report = analyze(&events, 0);
    let race = report
        .races
        .iter()
        .find(|r| {
            r.first.kind == AccessKind::UserWrite && r.second.kind == AccessKind::TransferRead
        })
        .unwrap_or_else(|| panic!("expected write/transfer-read race: {report}"));
    assert_eq!(race.req, req);
    assert_eq!(race.side, Side::Send);
    assert_eq!(race.part, 0);
    assert_eq!(race.first.tid, 2, "racy endpoint is the planted writer");
    assert_eq!(race.first.seq, 5, "provenance points at the planted write");
    assert!(
        report
            .lints
            .iter()
            .any(|l| l.kind == LintKind::WriteAfterPready && l.part == Some(0)),
        "lint pass must flag the same violation: {report}"
    );
}

/// Two ranks blocked on each other form a wait-for cycle: an exact
/// deadlock verdict with the tag chain, not a heuristic stall.
#[test]
fn fixture_two_rank_tag_cycle_deadlock() {
    let events = vec![
        ev(
            10,
            0,
            EventKind::VerifyBlocked {
                peer: Some(1),
                tag: Some(7),
            },
        ),
        ev(
            11,
            1,
            EventKind::VerifyBlocked {
                peer: Some(0),
                tag: Some(9),
            },
        ),
    ];
    let report = analyze(&events, 0);
    assert_eq!(report.deadlocks.len(), 1, "{report}");
    match &report.deadlocks[0] {
        DeadlockFinding::Cycle { edges } => {
            assert_eq!(edges.len(), 2);
            let ranks: Vec<u16> = edges.iter().map(|e| e.from_rank).collect();
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1]);
            let tags: Vec<Option<i64>> = edges.iter().map(|e| e.tag).collect();
            assert!(tags.contains(&Some(7)) && tags.contains(&Some(9)));
        }
        other => panic!("expected a cycle, got {other}"),
    }
}

/// A blocked rank whose peer is not blocked on it is an orphan wait —
/// the "lost message / missing pready" verdict.
#[test]
fn fixture_orphan_wait_is_not_a_cycle() {
    let events = vec![ev(
        10,
        0,
        EventKind::VerifyBlocked {
            peer: Some(1),
            tag: Some(3),
        },
    )];
    let report = analyze(&events, 0);
    assert_eq!(report.deadlocks.len(), 1);
    match &report.deadlocks[0] {
        DeadlockFinding::Orphan {
            rank, peer, tag, ..
        } => {
            assert_eq!(*rank, 0);
            assert_eq!(*peer, Some(1));
            assert_eq!(*tag, Some(3));
        }
        other => panic!("expected an orphan wait, got {other}"),
    }
}
