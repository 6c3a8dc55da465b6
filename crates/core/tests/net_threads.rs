//! What a socket rank process costs in threads: one progress thread,
//! whatever the number of peers' lanes — the calling threads move their
//! own bytes, so there is no reader, writer or heartbeat thread per
//! peer and lane.

mod common;

use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// At steady state each rank runs its main thread, its rank thread and
/// the socket carrier's `epoll` progress thread — three, with the
/// default two lanes per peer and with three.
#[test]
fn a_rank_runs_three_threads_at_any_lane_count() {
    if common::maybe_run_child() {
        return;
    }
    for lanes in ["2", "3"] {
        let outs = common::run_wire_pair(
            "a_rank_runs_three_threads_at_any_lane_count",
            "threads",
            &[("PCOMM_NET_LANES", lanes.to_string())],
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
            assert_eq!(
                o.digest(),
                Some(3),
                "rank {rank} with {lanes} lanes: `{}`",
                o.out
            );
        }
    }
}
