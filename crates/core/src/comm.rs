//! Communicators for the real runtime.

use std::sync::Arc;

use crate::fabric::{CtxKind, Fabric};

/// A communicator handle as seen from one rank.
///
/// Carries an isolated matching context and a match-shard assignment (the
/// VCI analogue). Clone freely — clones are handles to the same
/// communicator and may be used from multiple threads of the owning rank
/// (that concurrent use contending on one shard is exactly the effect the
/// paper's Fig. 5 measures).
#[derive(Clone)]
pub struct Comm {
    fabric: Arc<Fabric>,
    rank: usize,
    ctx: u64,
    shard: usize,
}

impl Comm {
    pub(crate) fn world(fabric: Arc<Fabric>, rank: usize) -> Comm {
        let shard = fabric.shard_of_ctx(0);
        Comm {
            fabric,
            rank,
            ctx: 0,
            shard,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.fabric.n_ranks()
    }

    /// The matching context id.
    pub fn ctx(&self) -> u64 {
        self.ctx
    }

    /// The match shard (VCI) this communicator's traffic uses.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of match shards configured per rank.
    pub fn n_shards(&self) -> usize {
        self.fabric.n_shards()
    }

    /// The eager/rendezvous threshold of the fabric.
    pub fn eager_max(&self) -> usize {
        self.fabric.eager_max()
    }

    pub(crate) fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Duplicate the communicator (`MPI_Comm_dup`).
    ///
    /// Collective: all ranks must dup in the same order. The child context
    /// maps to the next match shard round-robin, isolating its traffic —
    /// the `Pt2Pt many` contention workaround (paper §2.3.2).
    pub fn dup(&self) -> Comm {
        let ctx = self
            .fabric
            .alloc_child_ctx(self.rank, self.ctx, CtxKind::Dup);
        let shard = self.fabric.shard_of_ctx(ctx);
        Comm {
            fabric: Arc::clone(&self.fabric),
            rank: self.rank,
            ctx,
            shard,
        }
    }

    /// Rank-level barrier over all ranks (one thread per rank).
    pub fn barrier(&self) {
        self.fabric.rank_barrier(self.rank);
    }

    /// Total messages matched on the fabric so far (diagnostics).
    pub fn matched_messages(&self) -> u64 {
        self.fabric.matched_count()
    }

    /// This rank's always-on doorbell tallies — how many records it
    /// published and how many of those cost a `FUTEX_WAKE` (diagnostics;
    /// `None` unless the run is on the ipc fabric).
    pub fn doorbell_stats(&self) -> Option<crate::DoorbellStats> {
        self.fabric.doorbell_stats()
    }

    /// A handle on the same fabric bound to a different context/shard
    /// (internal contexts for partitioned traffic).
    pub(crate) fn with_ctx(&self, ctx: u64, shard: usize) -> Comm {
        Comm {
            fabric: Arc::clone(&self.fabric),
            rank: self.rank,
            ctx,
            shard,
        }
    }

    /// The reserved partitioned-communication context for a user tag
    /// (paper §3.2.1); deterministic on both sides.
    pub(crate) fn part_ctx(&self, tag: i64) -> u64 {
        assert!(
            (0..1 << 16).contains(&tag),
            "partitioned tag out of reserved space"
        );
        self.ctx * (1 << 18) + ((CtxKind::Part as u64) << 16) + tag as u64 + 1
    }

    /// Derive a window context (collective order must agree).
    pub(crate) fn win_ctx(&self) -> u64 {
        self.fabric
            .alloc_child_ctx(self.rank, self.ctx, CtxKind::Win)
    }
}

#[cfg(test)]
mod tests {

    use crate::Universe;

    #[test]
    fn dup_is_symmetric_across_ranks() {
        let ctxs = Universe::new(2)
            .with_shards(4)
            .run(|comm| {
                let d1 = comm.dup();
                let d2 = comm.dup();
                (d1.ctx(), d2.ctx(), d1.shard(), d2.shard())
            })
            .unwrap();
        assert_eq!(ctxs[0], ctxs[1], "both ranks must derive identical ctxs");
        let (c1, c2, s1, s2) = ctxs[0];
        assert_ne!(c1, c2);
        assert_ne!(s1, s2, "consecutive dups spread over shards");
    }

    #[test]
    fn part_ctx_deterministic() {
        let out = Universe::new(2)
            .run(|comm| (comm.part_ctx(3), comm.part_ctx(4)))
            .unwrap();
        assert_eq!(out[0], out[1]);
        assert_ne!(out[0].0, out[0].1);
    }

    #[test]
    fn world_is_shard_zero() {
        Universe::new(1)
            .with_shards(8)
            .run(|comm| {
                assert_eq!(comm.shard(), 0);
                assert_eq!(comm.n_shards(), 8);
            })
            .unwrap();
    }
}
