//! Structured runtime errors.
//!
//! Before this module existed the runtime had exactly two failure
//! behaviors: panic (misuse asserts, oversized messages) and hang
//! (any lost or unmatched message parked its waiter forever). Both are
//! hostile to chaos testing — a deliberately injected fault must come
//! back as *data*. [`PcommError`] is the taxonomy
//! [`Universe::run`](crate::Universe::run) now returns:
//!
//! * [`PcommError::Stall`] — the watchdog declared the universe hung and
//!   attached a [`StallReport`] describing who waits on what.
//! * [`PcommError::PeerPanicked`] — a rank thread panicked; survivors
//!   were unblocked instead of deadlocking on its missing sends.
//! * [`PcommError::MessageLost`] — chaos dropped a message more times
//!   than the retry budget allows.
//! * [`PcommError::Misuse`] — an API-contract violation (oversized
//!   message, double `pready`, ...) detected without corrupting state.
//!
//! Internally the blocking paths raise these by unwinding the rank
//! thread with `panic_any` (either a typed [`PcommError`] or the
//! [`RankAborted`] sentinel once some other rank already failed); the
//! rank wrapper in `universe.rs` catches the unwind and records the
//! first failure on the fabric.

use std::fmt;

/// Sentinel payload for the unwind used to abort a rank that is blocked
/// while another rank already recorded the failure of record. Carries no
/// information on purpose: the real error is in the fabric's failure
/// slot.
pub(crate) struct RankAborted;

/// What a blocked thread was waiting for when the stall was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedWait {
    /// Rank of the blocked thread.
    pub rank: usize,
    /// Human-readable description of the wait, e.g.
    /// `recv(src=0, tag=7, ctx=0)` or `part-send msg 2 -> rank 1`.
    pub what: String,
    /// The message tag involved, when the wait has one.
    pub tag: Option<i64>,
    /// Peer rank the wait depends on, when known — the edge the
    /// wait-for-graph deadlock analyzer builds from.
    pub peer: Option<usize>,
}

/// One unmatched entry in a rank's match queues at stall time: either a
/// posted receive nothing arrived for, or an arrived message nothing was
/// posted for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Rank whose queue holds the entry.
    pub rank: usize,
    /// Shard index within that rank.
    pub shard: usize,
    /// Communication context the entry belongs to.
    pub ctx: u64,
    /// Source rank (`None` = wildcard, posted receives only).
    pub src: Option<usize>,
    /// Tag (`None` = wildcard, posted receives only).
    pub tag: Option<i64>,
    /// Payload length (unexpected messages) or receive capacity (posted).
    pub bytes: usize,
}

/// Per-peer socket health at stall time (multiprocess runs only; empty
/// for in-process universes). The frame counters come straight from the
/// carrier, so a stalled wire shows up as a peer whose
/// `frames_received` stopped moving — or whose connection is already
/// gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSocketState {
    /// Peer rank this socket leads to.
    pub peer: usize,
    /// Whether the connection was still up when the report was taken.
    pub connected: bool,
    /// Frames written to this peer so far.
    pub frames_sent: u64,
    /// Frames read from this peer so far.
    pub frames_received: u64,
    /// Rendezvous sends to this peer still waiting for their CTS.
    pub pending_rdv: usize,
    /// Entries waiting in this peer's outbox (it is unbounded,
    /// so backlog depth — not blocking — is the congestion signal).
    pub queued: u64,
    /// Milliseconds since the last frame arrived from this peer (the
    /// liveness signal the heartbeat monitor escalates on).
    pub quiet_ms: u64,
}

/// Always-on doorbell tallies of one rank on the ipc fabric: who paid a
/// syscall to notify whom. Plain counters, bumped on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoorbellStats {
    /// Peer doorbells this rank rang (one per record it published).
    pub rings: u64,
    /// Of those, rings that found a counted sleeper and issued
    /// `FUTEX_WAKE` — the rest were a single atomic add.
    pub wakes: u64,
    /// Parks of this rank's progress thread that were counted in
    /// `sleepers` (no app thread polling: peers pay for wakes).
    pub parks_counted: u64,
    /// Parks taken over by a polling app thread (peers pay nothing).
    pub parks_uncounted: u64,
    /// Ready ranges of a peer's partitioned stream this rank claimed and
    /// copied.
    pub copied_for_peers: u64,
    /// Ready ranges of this rank's streams a peer claimed and copied.
    pub copied_by_peers: u64,
}

impl fmt::Display for DoorbellStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rings, {} futex wakes; progress thread parked {} counted / {} uncounted; \
             ranges copied for peers {} / by peers {}",
            self.rings,
            self.wakes,
            self.parks_counted,
            self.parks_uncounted,
            self.copied_for_peers,
            self.copied_by_peers
        )
    }
}

/// Structured diagnosis the watchdog produces instead of hanging.
///
/// `Display` renders the whole report, so `{}`-printing the
/// [`PcommError::Stall`] variant gives CI logs the full picture: which
/// rank waits on which request/tag, what sits unmatched in the tag
/// queues, and the global progress counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Configured watchdog deadline, ms.
    pub watchdog_ms: u64,
    /// Observed quiet period with no fabric activity, ms.
    pub quiet_ms: u64,
    /// Ranks whose closures already returned.
    pub finished_ranks: Vec<usize>,
    /// Every registered blocked wait, sorted by rank.
    pub blocked: Vec<BlockedWait>,
    /// Posted receives that never matched.
    pub unmatched_posted: Vec<QueueEntry>,
    /// Arrived messages that never matched a posted receive.
    pub unmatched_unexpected: Vec<QueueEntry>,
    /// Messages matched fabric-wide before the stall.
    pub matched: u64,
    /// Socket state per peer (multiprocess runs; empty in-process).
    pub peers: Vec<PeerSocketState>,
    /// This rank's doorbell tallies (ipc fabric only).
    pub doorbell: Option<DoorbellStats>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stalled: no fabric activity for {} ms (watchdog {} ms), {} matched messages",
            self.quiet_ms, self.watchdog_ms, self.matched
        )?;
        writeln!(f, "finished ranks: {:?}", self.finished_ranks)?;
        if self.blocked.is_empty() {
            writeln!(f, "blocked waits: (none registered)")?;
        }
        for b in &self.blocked {
            writeln!(f, "  rank {} blocked in {}", b.rank, b.what)?;
        }
        let fmt_opt = |v: Option<i64>| v.map_or("*".to_string(), |x| x.to_string());
        for q in &self.unmatched_posted {
            writeln!(
                f,
                "  unmatched posted recv: rank {} shard {} ctx {} src {} tag {} ({} B cap)",
                q.rank,
                q.shard,
                q.ctx,
                q.src.map_or("*".to_string(), |s| s.to_string()),
                fmt_opt(q.tag),
                q.bytes
            )?;
        }
        for q in &self.unmatched_unexpected {
            writeln!(
                f,
                "  unmatched arrived msg: rank {} shard {} ctx {} src {} tag {} ({} B)",
                q.rank,
                q.shard,
                q.ctx,
                q.src.map_or("*".to_string(), |s| s.to_string()),
                fmt_opt(q.tag),
                q.bytes
            )?;
        }
        for p in &self.peers {
            writeln!(
                f,
                "  peer rank {}: {}, {} frames sent / {} received, {} rendezvous pending, \
                 {} queued, quiet {} ms",
                p.peer,
                if p.connected {
                    "connected"
                } else {
                    "connection lost"
                },
                p.frames_sent,
                p.frames_received,
                p.pending_rdv,
                p.queued,
                p.quiet_ms
            )?;
        }
        if let Some(d) = &self.doorbell {
            writeln!(f, "  ipc doorbell: {d}")?;
        }
        Ok(())
    }
}

/// The error taxonomy of [`Universe::run`](crate::Universe::run).
#[derive(Debug, Clone, PartialEq)]
pub enum PcommError {
    /// The watchdog found the universe making no progress past its
    /// deadline; the report says who waits on what.
    Stall(Box<StallReport>),
    /// A rank thread panicked. Surviving ranks were aborted (they would
    /// otherwise deadlock waiting for the dead rank's sends).
    PeerPanicked {
        /// The rank whose closure panicked.
        rank: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// A message was dropped more times than the configured retry budget
    /// (chaos plans only; the fault-free runtime never loses messages).
    MessageLost {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: i64,
        /// Send attempts made (1 original + retries).
        attempts: u32,
    },
    /// An API contract violation detected before it could corrupt
    /// runtime state.
    Misuse {
        /// Rank that made the offending call, when attributable.
        rank: Option<usize>,
        /// What was violated.
        detail: String,
    },
}

impl PcommError {
    /// Convenience constructor for misuse at a known rank.
    pub(crate) fn misuse(rank: usize, detail: impl Into<String>) -> PcommError {
        PcommError::Misuse {
            rank: Some(rank),
            detail: detail.into(),
        }
    }

    /// The stall report, if this is a [`PcommError::Stall`].
    pub fn stall_report(&self) -> Option<&StallReport> {
        match self {
            PcommError::Stall(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for PcommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcommError::Stall(report) => write!(f, "stall detected\n{report}"),
            PcommError::PeerPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            PcommError::MessageLost {
                src,
                dst,
                tag,
                attempts,
            } => write!(
                f,
                "message lost: rank {src} -> rank {dst} tag {tag} dropped on all {attempts} attempts"
            ),
            PcommError::Misuse { rank, detail } => match rank {
                Some(r) => write!(f, "misuse at rank {r}: {detail}"),
                None => write!(f, "misuse: {detail}"),
            },
        }
    }
}

impl std::error::Error for PcommError {}

/// Stringify a caught panic payload (the usual `&str` / `String` cases,
/// with a fallback for exotic payloads).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_blocked_tag() {
        let report = StallReport {
            watchdog_ms: 250,
            quiet_ms: 300,
            finished_ranks: vec![0],
            blocked: vec![BlockedWait {
                rank: 1,
                what: "recv(src=0, tag=42, ctx=0)".into(),
                tag: Some(42),
                peer: Some(0),
            }],
            unmatched_posted: vec![QueueEntry {
                rank: 1,
                shard: 0,
                ctx: 0,
                src: Some(0),
                tag: Some(42),
                bytes: 8,
            }],
            unmatched_unexpected: vec![],
            matched: 17,
            peers: vec![],
            doorbell: Some(DoorbellStats {
                rings: 640,
                wakes: 3,
                parks_counted: 2,
                parks_uncounted: 9,
                copied_for_peers: 7,
                copied_by_peers: 5,
            }),
        };
        let err = PcommError::Stall(Box::new(report));
        let text = format!("{err}");
        assert!(
            text.contains("ipc doorbell: 640 rings, 3 futex wakes")
                && text.contains("2 counted / 9 uncounted")
                && text.contains("ranges copied for peers 7 / by peers 5"),
            "{text}"
        );
        assert!(text.contains("tag=42"), "{text}");
        assert!(text.contains("rank 1 blocked"), "{text}");
        assert!(text.contains("unmatched posted recv"), "{text}");
        assert!(text.contains("17 matched"), "{text}");
    }

    #[test]
    fn errors_are_cloneable_and_display() {
        let e = PcommError::MessageLost {
            src: 0,
            dst: 1,
            tag: 5,
            attempts: 4,
        };
        assert_eq!(e.clone(), e);
        assert!(format!("{e}").contains("all 4 attempts"));
        let m = PcommError::misuse(2, "pready(9) out of range");
        assert!(format!("{m}").contains("misuse at rank 2"));
        assert!(m.stall_report().is_none());
    }

    #[test]
    fn panic_message_handles_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("kapow"));
        assert_eq!(panic_message(s.as_ref()), "kapow");
        let s: Box<dyn std::any::Any + Send> = Box::new(17u32);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
