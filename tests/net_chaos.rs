//! Chaos over the wire: the fault-injection layer and the error taxonomy
//! must survive the jump from shared memory to real sockets. A seeded
//! drop plan on a UDS mesh must recover through bounded resends; a
//! certain-drop plan must surface `PcommError::MessageLost` on *both*
//! sides (the abort travels as a wire frame); and killing one rank's OS
//! process must come back as a structured `PeerPanicked` error on the
//! survivor instead of a hang.

use std::process::Command;
use std::time::{Duration, Instant};

use pcomm::core::part::PartOptions;
use pcomm::core::{PcommError, Universe};
use pcomm::net::launch::{self, RankOutput};
use pcomm::net::{Backend, MultiprocEnv};

const ECHO_TAGS: i64 = 16;

/// The workload every SPMD child runs: 16 tagged eager messages
/// rank 0 → rank 1, echoed back once at the end.
fn echo_workload() -> Result<Vec<u8>, PcommError> {
    Universe::new(2).run(|comm| {
        if comm.rank() == 0 {
            for tag in 0..ECHO_TAGS {
                comm.send(1, tag, &[tag as u8; 32]);
            }
            let mut b = [0u8; 1];
            comm.recv_into(Some(1), Some(99), &mut b);
            b[0]
        } else {
            let mut sum = 0u8;
            let mut b = [0u8; 32];
            for tag in 0..ECHO_TAGS {
                comm.recv_into(Some(0), Some(tag), &mut b);
                assert!(b.iter().all(|&x| x == tag as u8), "payload survived chaos");
                sum = sum.wrapping_add(b[0]);
            }
            comm.send(0, 99, &[sum]);
            sum
        }
    })
}

const STREAM_PARTS: usize = 8;
const STREAM_PART_BYTES: usize = 4 * 1024;

/// The streaming workload: one partitioned transfer rank 1 → rank 0
/// with the default (streaming, early-bird) options, partitions readied
/// one by one so every `PartData` range crosses the wire separately.
fn stream_workload() -> Result<Vec<u8>, PcommError> {
    Universe::new(2).run(|comm| {
        let opts = PartOptions::default();
        if comm.rank() == 1 {
            let ps = comm.psend_init(0, 5, STREAM_PARTS, STREAM_PART_BYTES, opts);
            ps.start();
            for p in 0..STREAM_PARTS {
                ps.write_partition(p, |b| b.fill(p as u8 + 1));
                ps.pready(p);
            }
            ps.wait();
            0u8
        } else {
            let pr = comm.precv_init(1, 5, STREAM_PARTS, STREAM_PART_BYTES, opts);
            pr.start();
            pr.wait();
            let mut sum = 0u8;
            for p in 0..STREAM_PARTS {
                pr.read_partition(p, |b| {
                    assert!(
                        b.iter().all(|&x| x == p as u8 + 1),
                        "partition {p} payload survived chaos"
                    );
                    sum = sum.wrapping_add(b[0]);
                });
            }
            sum
        }
    })
}

/// SPMD child: seeded `PartData` drops with a retry budget must still
/// land every partition intact. Empty no-op when run as a plain test.
#[test]
fn net_chaos_stream_recovery_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    stream_workload().expect("bounded resend must recover dropped PartData ranges");
}

/// SPMD child: certain drop with no retries must yield `MessageLost` on
/// both ranks of a streaming transfer. Empty no-op as a plain test.
#[test]
fn net_chaos_stream_lost_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    match stream_workload() {
        Err(PcommError::MessageLost { .. }) => {}
        other => panic!("expected MessageLost on the streaming wire, got {other:?}"),
    }
}

/// SPMD child: the streaming path must come back clean under the verify
/// layer (the parent arms `PCOMM_VERIFY=1`; a finding turns the run
/// into an error). Empty no-op when run as a plain test.
#[test]
fn net_chaos_stream_verify_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    stream_workload().expect("streaming must be clean under PCOMM_VERIFY=1");
}

/// SPMD child: drops at p=0.5 with a deep retry budget must still
/// complete with intact data. Empty no-op when run as a plain test.
#[test]
fn net_chaos_recovery_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    echo_workload().expect("bounded resend must recover dropped frames");
}

/// SPMD child: certain drop with no retries must yield `MessageLost` on
/// both ranks — the sender raises it, the receiver learns it from the
/// abort frame. Empty no-op when run as a plain test.
#[test]
fn net_chaos_lost_child() {
    if MultiprocEnv::from_env().is_none() {
        return;
    }
    let out = echo_workload();
    match out {
        Err(PcommError::MessageLost { src, dst, .. }) => {
            assert_eq!((src, dst), (0, 1), "the dropped message was 0 -> 1");
        }
        other => panic!("expected MessageLost on the wire, got {other:?}"),
    }
}

/// SPMD child: rank 1's process dies mid-run; rank 0, parked in a
/// receive, must get a structured `PeerPanicked` instead of hanging.
/// Empty no-op when run as a plain test.
#[test]
fn net_chaos_kill_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    let out = Universe::new(2).run(|comm| {
        if comm.rank() == 0 {
            let mut b = [0u8; 8];
            comm.recv_into(Some(1), Some(9), &mut b);
        } else {
            // Simulate a crashed rank: vanish without teardown.
            std::process::exit(42);
        }
    });
    assert_eq!(env.rank, 0, "only rank 0 survives to inspect the result");
    match out {
        Err(PcommError::PeerPanicked { rank, message }) => {
            assert_eq!(rank, 1, "the dead peer is rank 1");
            assert!(
                message.contains("rank process exited")
                    || message.contains("connection")
                    || message.contains("broke"),
                "message names the lost connection: {message}"
            );
        }
        other => panic!("expected PeerPanicked for the dead rank, got {other:?}"),
    }
}

/// Run `child_test` of this binary as a 2-rank UDS mesh and return each
/// rank's exit code. A rank that outlives the deadline (every rank is
/// then killed) or exits with anything but 0 or the kill scenario's 42
/// fails the test, with that rank's output.
fn run_mesh(child_test: &str, faults: Option<&str>, verify: bool) -> Vec<i32> {
    let spmd = MultiprocEnv::in_fresh_dir(2, Backend::Uds).expect("rendezvous dir");
    let exe = std::env::current_exe().expect("test binary path");
    let children = launch::spawn_ranks(&spmd, 0..2, RankOutput::Files, |_| {
        let mut cmd = Command::new(&exe);
        cmd.args([child_test, "--exact", "--nocapture"]);
        match faults {
            Some(spec) => cmd.env("PCOMM_FAULTS", spec),
            None => cmd.env_remove("PCOMM_FAULTS"),
        };
        if verify {
            cmd.env("PCOMM_VERIFY", "1");
        } else {
            cmd.env_remove("PCOMM_VERIFY");
        }
        cmd
    })
    .expect("spawn SPMD children");
    let deadline = Instant::now() + Duration::from_secs(180);
    let statuses = launch::wait_ranks(children, Some(deadline))
        .unwrap_or_else(|e| panic!("{child_test}: {e}"));
    let codes: Vec<i32> = statuses.iter().map(|s| s.code().unwrap_or(-1)).collect();
    for (rank, code) in codes.iter().enumerate() {
        assert!(
            [0, 42].contains(code),
            "rank {rank} exited with {code}\n{}",
            launch::rank_output(&spmd.dir, rank)
        );
    }
    let _ = std::fs::remove_dir_all(&spmd.dir);
    codes
}

#[test]
fn seeded_drops_over_uds_recover_via_resend() {
    let codes = run_mesh(
        "net_chaos_recovery_child",
        Some("seed=7,drop=0.5,retries=24"),
        false,
    );
    assert_eq!(codes, [0, 0]);
}

#[test]
fn certain_drop_over_uds_is_message_lost_on_both_ranks() {
    let codes = run_mesh(
        "net_chaos_lost_child",
        Some("seed=1,drop=1.0,retries=0"),
        false,
    );
    // Exit 0 means the child saw exactly MessageLost — on both sides.
    assert_eq!(codes, [0, 0]);
}

#[test]
fn seeded_part_data_drops_over_uds_recover_via_resend() {
    let codes = run_mesh(
        "net_chaos_stream_recovery_child",
        Some("seed=11,drop=0.5,retries=24"),
        false,
    );
    assert_eq!(codes, [0, 0]);
}

#[test]
fn certain_part_data_drop_is_message_lost_on_both_ranks() {
    let codes = run_mesh(
        "net_chaos_stream_lost_child",
        Some("seed=3,drop=1.0,retries=0"),
        false,
    );
    // Exit 0 means the child saw exactly MessageLost — on both sides.
    assert_eq!(codes, [0, 0]);
}

#[test]
fn streaming_transfer_is_clean_under_verify() {
    let codes = run_mesh("net_chaos_stream_verify_child", None, true);
    assert_eq!(codes, [0, 0]);
}

#[test]
fn killed_rank_process_surfaces_peer_panicked_not_a_hang() {
    let codes = run_mesh("net_chaos_kill_child", None, false);
    assert_eq!(codes[0], 0, "rank 0 must report PeerPanicked and pass");
    assert_eq!(codes[1], 42, "rank 1 died by design");
}
