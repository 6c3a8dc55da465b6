//! What a socket rank process costs in threads: one progress thread,
//! whatever the number of peers — the calling threads move their own
//! bytes, so there is no reader, writer or heartbeat thread per peer.

mod common;

use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

/// At steady state each rank runs its main thread, which runs the rank
/// itself, and the socket carrier's `epoll` progress thread — two, with
/// one peer and with two.
#[test]
fn a_rank_runs_two_threads_at_any_rank_count() {
    if common::maybe_run_child() {
        return;
    }
    for n_ranks in [2, 3] {
        let outs = common::run_wire_ranks(
            "a_rank_runs_two_threads_at_any_rank_count",
            "threads",
            &[],
            &vec![vec![]; n_ranks],
            TIMEOUT,
            None,
        );
        assert_eq!(outs.len(), n_ranks);
        for (rank, o) in outs.iter().enumerate() {
            assert!(
                o.status.success(),
                "rank {rank}: {:?} ({})",
                o.status,
                o.out
            );
            assert_eq!(o.digest(), Some(2), "rank {rank} of {n_ranks}: `{}`", o.out);
        }
    }
}
