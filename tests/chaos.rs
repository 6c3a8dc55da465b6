//! End-to-end chaos tests on the real runtime: a deadlock must come back
//! as a structured `StallReport` instead of a hang, seeded fault plans
//! must reproduce bit-for-bit, bounded retries must recover dropped
//! messages (and give up cleanly when they can't), and misuse must
//! surface as `PcommError::Misuse` — all through the public
//! `Universe::run` API, the way a user sees it.

use std::sync::Mutex;

use pcomm::core::{FaultKind, FaultPlan, PcommError, Universe};
use pcomm::trace::EventKind;

/// `Universe::run` reads `PCOMM_FAULTS` / `PCOMM_WATCHDOG_MS`; serialize
/// the tests so the env test can't leak a plan into the others.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn deadlock_returns_stall_report_instead_of_hanging() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Rank 0 posts a receive rank 1 will never answer; rank 1 returns
    // immediately. Without the watchdog this parks rank 0 forever (also
    // on a 1-CPU box: the waiter futex-parks, it doesn't spin).
    let err = Universe::new(2)
        .with_watchdog_ms(300)
        .run(|comm| {
            if comm.rank() == 0 {
                let mut b = [0u8; 8];
                comm.recv_into(Some(1), Some(42), &mut b);
            }
        })
        .unwrap_err();
    let report = err.stall_report().expect("deadlock must be a Stall");
    assert_eq!(report.watchdog_ms, 300);
    assert!(report.quiet_ms >= 300);
    assert!(
        report.finished_ranks.contains(&1),
        "rank 1 returned before the stall: {report}"
    );
    // The report names the blocked receive and its tag.
    assert!(
        report
            .blocked
            .iter()
            .any(|b| b.rank == 0 && b.tag == Some(42)),
        "blocked waits must name tag 42: {report}"
    );
    assert!(
        report
            .unmatched_posted
            .iter()
            .any(|q| q.rank == 0 && q.tag == Some(42)),
        "unmatched posted recv must show tag 42: {report}"
    );
}

/// The chaos workload the reproducibility tests run: 24 tagged eager
/// messages rank 0 → rank 1, echoed back once at the end.
#[allow(clippy::type_complexity)]
fn chaos_workload(plan: FaultPlan) -> (Result<Vec<u8>, PcommError>, Vec<(u16, EventKind)>) {
    let (out, data) = Universe::new(2).with_fault_plan(plan).run_traced(|comm| {
        if comm.rank() == 0 {
            for tag in 0..24 {
                comm.send(1, tag, &[tag as u8; 32]);
            }
            let mut b = [0u8; 1];
            comm.recv_into(Some(1), Some(99), &mut b);
            b[0]
        } else {
            let mut sum = 0u8;
            let mut b = [0u8; 32];
            for tag in 0..24 {
                comm.recv_into(Some(0), Some(tag), &mut b);
                assert!(b.iter().all(|&x| x == tag as u8), "payload survived chaos");
                sum = sum.wrapping_add(b[0]);
            }
            comm.send(0, 99, &[sum]);
            sum
        }
    });
    let faults = data
        .events
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::FaultInjected { .. } | EventKind::RetryAttempt { .. }
            )
        })
        .map(|e| (e.rank, e.kind))
        .collect();
    (out, faults)
}

#[test]
fn seeded_fault_plan_is_bit_for_bit_reproducible() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::seeded(42)
        .drops(0.25)
        .delays(0.2, 50)
        .retries(16);
    let (out_a, faults_a) = chaos_workload(plan.clone());
    let (out_b, faults_b) = chaos_workload(plan);
    assert_eq!(out_a.unwrap(), out_b.unwrap(), "results agree under chaos");
    assert!(
        !faults_a.is_empty(),
        "p=0.45 over 25 messages must inject something"
    );
    assert_eq!(
        faults_a, faults_b,
        "same seed + same workload = same fault sequence"
    );
    // A different seed steers differently.
    let (_, faults_c) = chaos_workload(
        FaultPlan::seeded(43)
            .drops(0.25)
            .delays(0.2, 50)
            .retries(16),
    );
    assert_ne!(faults_a, faults_c, "the seed must drive the fault stream");
}

#[test]
fn drop_retry_recovers_the_data() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Half of all attempts drop; a 24-deep retry budget makes loss of
    // any message effectively impossible, so the run must complete with
    // intact data and visible retries.
    let plan = FaultPlan::seeded(7).drops(0.5).retries(24);
    let (out, faults) = chaos_workload(plan);
    out.expect("retries must recover every dropped message");
    assert!(
        faults
            .iter()
            .any(|(_, k)| matches!(k, EventKind::RetryAttempt { .. })),
        "p=0.5 drops must force at least one resend"
    );
    assert!(
        faults.iter().any(|(_, k)| matches!(
            k,
            EventKind::FaultInjected {
                fault: FaultKind::Drop,
                ..
            }
        )),
        "drops must be traced"
    );
}

#[test]
fn certain_drop_exhausts_retries_into_message_lost() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let err = Universe::new(2)
        .with_fault_plan(FaultPlan::seeded(3).drops(1.0).retries(2))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &[1, 2, 3, 4]);
            } else {
                let mut b = [0u8; 4];
                comm.recv_into(Some(0), Some(5), &mut b);
            }
        })
        .unwrap_err();
    match err {
        PcommError::MessageLost {
            src,
            dst,
            tag,
            attempts,
        } => {
            assert_eq!((src, dst, tag), (0, 1, 5));
            assert_eq!(attempts, 3, "1 original + 2 retries");
        }
        other => panic!("expected MessageLost, got {other}"),
    }
}

/// An in-process partitioned transfer under a fault plan: 16 partitions
/// rank 0 → rank 1 for three iterations, each checked on arrival.
#[allow(clippy::type_complexity)]
fn part_chaos_workload(plan: FaultPlan) -> (Result<Vec<()>, PcommError>, Vec<EventKind>) {
    use pcomm::core::part::PartOptions;
    let (out, data) = Universe::new(2).with_fault_plan(plan).run_traced(|comm| {
        if comm.rank() == 0 {
            let ps = comm.psend_init(1, 6, 16, 64, PartOptions::default());
            for it in 0..3u8 {
                ps.start();
                for p in 0..16 {
                    ps.write_partition(p, |b| b.fill(it ^ p as u8));
                    ps.pready(p);
                }
                ps.wait();
            }
        } else {
            let pr = comm.precv_init(0, 6, 16, 64, PartOptions::default());
            for it in 0..3u8 {
                pr.start();
                pr.wait();
                for p in 0..16 {
                    assert!(pr.partition(p).iter().all(|&x| x == it ^ p as u8));
                }
            }
        }
    });
    (out, data.events.into_iter().map(|e| e.kind).collect())
}

#[test]
fn part_drop_retry_recovers_the_data() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The in-process partitioned path takes the fault plan's decision
    // per message, as the wire stream does: drops retry, data survives.
    let (out, events) = part_chaos_workload(FaultPlan::seeded(7).drops(0.5).retries(24));
    out.expect("retries must recover every dropped partitioned message");
    let drop = |k: &EventKind| {
        matches!(
            k,
            EventKind::FaultInjected {
                fault: FaultKind::Drop,
                ..
            }
        )
    };
    assert!(events.iter().any(drop), "p=0.5 over 48 messages drops");
    assert!(events
        .iter()
        .any(|k| matches!(k, EventKind::RetryAttempt { .. })));
}

#[test]
fn certain_part_drop_is_message_lost() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (out, _) = part_chaos_workload(FaultPlan::seeded(3).drops(1.0).retries(2));
    match out.unwrap_err() {
        PcommError::MessageLost {
            src,
            dst,
            tag,
            attempts,
        } => {
            // The first message readied (message 0) is lost for good.
            assert_eq!((src, dst, tag), (0, 1, 0));
            assert_eq!(attempts, 3, "1 original + 2 retries");
        }
        other => panic!("expected MessageLost, got {other}"),
    }
}

#[test]
fn oversized_message_is_misuse_not_a_panic() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Rank 0's 64-byte eager message lands in rank 1's 8-byte buffer:
    // an API-contract violation the fabric reports instead of tearing
    // down the process.
    let err = Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[9u8; 64]);
            } else {
                let mut b = [0u8; 8];
                comm.recv_into(Some(0), Some(3), &mut b);
            }
        })
        .unwrap_err();
    match err {
        PcommError::Misuse { detail, .. } => {
            assert!(detail.contains("overflows"), "{detail}");
        }
        other => panic!("expected Misuse, got {other}"),
    }
}

#[test]
fn pcomm_faults_env_attaches_a_plan() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A certain-drop spec through the environment: the run must consult
    // it and fail with MessageLost, proving the env hook reaches the
    // fabric. (retries=0: the first drop is final.)
    std::env::set_var("PCOMM_FAULTS", "seed=1,drop=1.0,retries=0");
    let out = Universe::new(2).run(|comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, &[0u8; 16]);
        } else {
            let mut b = [0u8; 16];
            comm.recv_into(Some(0), Some(7), &mut b);
        }
    });
    std::env::remove_var("PCOMM_FAULTS");
    assert!(
        matches!(out, Err(PcommError::MessageLost { tag: 7, .. })),
        "env-attached plan must drop the message: {out:?}"
    );
}

#[test]
fn explicit_plan_beats_env_plan() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A builder-supplied no-op plan must win over a hostile env spec.
    std::env::set_var("PCOMM_FAULTS", "seed=1,drop=1.0,retries=0");
    let out = Universe::new(2)
        .with_fault_plan(FaultPlan::seeded(0))
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[5u8; 16]);
            } else {
                let mut b = [0u8; 16];
                comm.recv_into(Some(0), Some(7), &mut b);
                assert_eq!(b[0], 5);
            }
        });
    std::env::remove_var("PCOMM_FAULTS");
    out.expect("builder plan (no faults) must override the environment");
}
