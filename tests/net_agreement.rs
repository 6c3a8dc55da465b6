//! Transport agreement: every one of the eight benchmark strategies must
//! deliver byte-identical data whether the two ranks share an address
//! space (shared-memory fabric), live in separate OS processes wired
//! together over Unix domain sockets, or share a mapped segment over the
//! same-host `ipc` fabric. The receiver folds every received byte into
//! an FNV-1a digest; the digests must match across fabrics, and the
//! multi-process runs must come back clean under `PCOMM_VERIFY=1`
//! (a finding turns the run into an error, which fails the child).

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(180);

#[test]
fn all_strategies_agree_across_fabrics() {
    if common::maybe_run_child() {
        return;
    }
    // Reference digests on the shared-memory fabric, in this process.
    let local = common::strategy_digests();
    let labels = common::strategy_labels();

    // The same workload as two OS processes, on every wire fabric the
    // platform supports: UDS streams always, the shared-segment ipc
    // fabric where the raw-syscall layer exists.
    for fabric in common::carriers() {
        let outs = common::run_wire_pair(
            "all_strategies_agree_across_fabrics",
            "strategies",
            &[
                ("PCOMM_NET_FABRIC", fabric.to_string()),
                ("PCOMM_VERIFY", "1".to_string()),
            ],
            [vec![], vec![]],
            TIMEOUT,
        );
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.status.success(),
                "{fabric} rank {rank} child failed ({:?}): `{}`",
                o.status,
                o.out
            );
        }
        // Rank 0 sends: its digests are 0 only when every strategy
        // really ran across the processes (an in-process fallback would
        // digest what it received). Rank 1 receives; its are the wire's.
        let sent = outs[0].list("digests");
        assert!(
            !sent.is_empty() && sent.iter().all(|&d| d == 0),
            "{fabric}: rank 0 fell back in-process: `{}`",
            outs[0].out
        );
        let wire = outs[1].list("digests");
        assert_eq!(
            wire.len(),
            local.len(),
            "{fabric}: one digest per (scenario, approach): `{}`",
            outs[1].out
        );
        for ((l, w), label) in local.iter().zip(&wire).zip(&labels) {
            assert_eq!(l, w, "{label}: shared-memory and {fabric} fabrics disagree");
        }
    }
}
