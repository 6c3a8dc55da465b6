//! Transport agreement: every one of the eight benchmark strategies must
//! deliver byte-identical data whether the two ranks share an address
//! space (shared-memory fabric), live in separate OS processes wired
//! together over Unix domain sockets, or share a mapped segment over the
//! same-host `ipc` fabric. The receiver folds every received byte into
//! an FNV-1a digest; the digests must match across fabrics, and the
//! multi-process runs must come back clean under `PCOMM_VERIFY=1`
//! (a finding turns the run into an error, which fails the child).

use std::process::Command;
use std::time::{Duration, Instant};

use pcomm::core::strategies::{measure_validated, RealApproach, RealScenario};
use pcomm::net::launch::{self, RankOutput};
use pcomm::net::{Backend, MultiprocEnv};

/// Two scenarios: one all-eager, one whose bulk buffers cross the 64 KiB
/// eager ceiling so the single-message strategy exercises the wire
/// rendezvous (RTS/CTS/RdvData) path.
fn scenarios() -> Vec<RealScenario> {
    vec![
        RealScenario::immediate(2, 2, 96, 2, 2),
        RealScenario::immediate(2, 1, 40 * 1024, 1, 2),
    ]
}

/// Receiver-side digests for every (scenario, approach) pair, in a fixed
/// order both sides of the comparison share.
fn all_digests() -> Vec<u64> {
    scenarios()
        .iter()
        .flat_map(|sc| {
            RealApproach::ALL
                .iter()
                .map(|&a| measure_validated(a, sc).1)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// SPMD child body: re-runs every strategy, now with the `PCOMM_NET_*`
/// environment routing the universe over sockets. The receiving rank
/// writes its digests where the parent can read them. Runs (and returns
/// immediately) as an ordinary empty test when the env is absent.
#[test]
fn net_agreement_child() {
    let Some(env) = MultiprocEnv::from_env() else {
        return;
    };
    let digests = all_digests();
    if env.rank == 1 {
        let lines: String = digests.iter().map(|d| format!("{d:#018x}\n")).collect();
        std::fs::write(env.dir.join("out-1"), lines).expect("write digest file");
    }
}

/// Run the SPMD child pair with `extra_env` on both ranks and return
/// the receiver's digests. Verify is always armed: any race/protocol
/// finding fails the child run.
fn wire_digests(extra_env: &[(&str, &str)], what: &str) -> Vec<u64> {
    let spmd = MultiprocEnv::in_fresh_dir(2, Backend::Uds).expect("rendezvous dir");
    let dir = &spmd.dir;
    let exe = std::env::current_exe().expect("test binary path");
    let children = launch::spawn_ranks(&spmd, 0..2, RankOutput::Files, |_| {
        let mut cmd = Command::new(&exe);
        cmd.args(["net_agreement_child", "--exact", "--nocapture"])
            .env("PCOMM_VERIFY", "1")
            .env_remove("PCOMM_FAULTS")
            .envs(extra_env.iter().copied());
        cmd
    })
    .expect("spawn SPMD children");
    let deadline = Instant::now() + Duration::from_secs(180);
    let statuses =
        launch::wait_ranks(children, Some(deadline)).unwrap_or_else(|e| panic!("{what}: {e}"));
    for (rank, status) in statuses.iter().enumerate() {
        assert!(
            status.success(),
            "{what} rank {rank} child failed ({status})\n{}",
            launch::rank_output(dir, rank)
        );
    }

    let raw = std::fs::read_to_string(dir.join("out-1")).expect("receiver digest file");
    let wire: Vec<u64> = raw
        .lines()
        .map(|l| u64::from_str_radix(l.trim_start_matches("0x"), 16).expect("digest line"))
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    wire
}

#[test]
fn all_strategies_agree_across_fabrics() {
    // Reference digests on the shared-memory fabric, in this process.
    let local = all_digests();
    let labels: Vec<String> = scenarios()
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            RealApproach::ALL
                .iter()
                .map(move |a| format!("scenario {i} / {}", a.label()))
                .collect::<Vec<_>>()
        })
        .collect();

    // The same workload as two OS processes, on every wire fabric the
    // platform supports: UDS streams always, the shared-segment ipc
    // fabric where the raw-syscall layer exists.
    let mut fabrics = vec![("uds", vec![])];
    if pcomm::net::sys::supported() {
        fabrics.push(("ipc", vec![("PCOMM_NET_FABRIC", "ipc")]));
    }
    for (fabric, extra_env) in fabrics {
        let wire = wire_digests(&extra_env, fabric);
        assert_eq!(
            wire.len(),
            local.len(),
            "{fabric}: one digest per (scenario, approach)"
        );
        for ((l, w), label) in local.iter().zip(&wire).zip(&labels) {
            assert_eq!(l, w, "{label}: shared-memory and {fabric} fabrics disagree");
        }
    }
}
