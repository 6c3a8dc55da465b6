//! `pcomm-verify`: offline correctness analyses over a captured pcomm
//! trace.
//!
//! The runtime (and the simulator) can record analysis-grade `Verify*`
//! events — buffer read/write spans, `pready`/transfer/`parrived` sync
//! edges, wire-message send/recv pairs, blocked-wait edges — when
//! verification is enabled (`Trace::ring_verify`, `PCOMM_VERIFY=1`, or
//! the simulator's `enable_verify`). This crate consumes that stream
//! with three passes:
//!
//! 1. [vector-clock happens-before race detection](mod@hb) — two
//!    accesses to the same partition, at least one a write, with no
//!    synchronization edge ordering them;
//! 2. [wait-for-graph deadlock analysis](mod@waitgraph) — cycles among
//!    blocked ranks are true deadlocks, acyclic blocked ranks are
//!    orphan waits (lost message / missing `pready`);
//! 3. [protocol lints](mod@lints) — MPI-4 partitioned rules checked per
//!    request lifetime (`pready` exactly once per partition per
//!    `start`, layout compatibility between the sides, no unsynchronized
//!    mid-iteration buffer access, balanced `start`/`wait`).
//!
//! The entry point is [`analyze`]; everything it finds comes back in a
//! [`VerifyReport`] whose `Display` renders a human-readable digest and
//! whose typed findings carry full provenance (rank, thread, partition,
//! iteration, and the index of the source event in the input slice).
//!
//! The crate is std-only and depends only on `pcomm-trace`, so both the
//! real runtime and the simulator can feed it without cycles.

use std::fmt;

use pcomm_trace::Event;

mod audit;
mod hb;
mod lints;
mod model;
mod waitgraph;

pub use audit::{audit, AuditFinding, AuditKind, AuditReport, AuditStats};

pub use model::Side;

/// What kind of memory access a race endpoint was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// User code writing a send partition (`write_partition`).
    UserWrite,
    /// User code reading a recv partition (`partition` /
    /// `read_partition`).
    UserRead,
    /// The transfer reading send partitions (eager copy at injection,
    /// or the zero-copy rendezvous read at match time).
    TransferRead,
    /// The transfer writing recv partitions when a wire message lands.
    TransferWrite,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::UserWrite => "user write",
            AccessKind::UserRead => "user read",
            AccessKind::TransferRead => "transfer read",
            AccessKind::TransferWrite => "transfer write",
        };
        write!(f, "{s}")
    }
}

/// One endpoint of a reported race, with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    /// What the access was.
    pub kind: AccessKind,
    /// Rank the access is attributed to.
    pub rank: u16,
    /// Executing thread (verify tid; the rank in the simulator).
    pub tid: u16,
    /// Partition accessed.
    pub part: u32,
    /// Iteration the access belongs to (0 for transfer writes, which
    /// carry no counter).
    pub iter: u32,
    /// Index of the source event in the slice passed to [`analyze`].
    pub seq: usize,
    /// Timestamp of the source event, ns since trace epoch.
    pub ts_ns: u64,
}

/// An unsynchronized conflicting pair of accesses to one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Request id (low 16 bits of the partitioned context, identical on
    /// both ranks).
    pub req: u16,
    /// Which buffer: the send side's or the recv side's.
    pub side: Side,
    /// Partition both endpoints touch.
    pub part: u32,
    /// The earlier recorded access.
    pub first: AccessInfo,
    /// The access that exposed the race.
    pub second: AccessInfo,
}

impl fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on req {} {} buffer partition {}: {} (rank {} tid {} iter {} seq {}) \
             unordered with {} (rank {} tid {} iter {} seq {})",
            self.req,
            self.side,
            self.part,
            self.first.kind,
            self.first.rank,
            self.first.tid,
            self.first.iter,
            self.first.seq,
            self.second.kind,
            self.second.rank,
            self.second.tid,
            self.second.iter,
            self.second.seq,
        )
    }
}

/// One edge of the wait-for graph: a blocked rank and the peer it
/// depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub from_rank: u16,
    /// The peer the wait depends on, when known.
    pub to_rank: Option<u16>,
    /// The tag involved, when known.
    pub tag: Option<i64>,
    /// Index of the source `VerifyBlocked` event.
    pub seq: usize,
}

/// The deadlock pass's verdict on a stalled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockFinding {
    /// A cycle in the wait-for graph: a true deadlock no timeout would
    /// have resolved. The edges list the tag chain forming the cycle.
    Cycle {
        /// The wait edges forming the cycle, in order.
        edges: Vec<WaitEdge>,
    },
    /// A blocked rank on no cycle: its peer is not stuck on it, so the
    /// awaited message simply never came (lost message, missing
    /// `pready`, or a peer that exited early).
    Orphan {
        /// The blocked rank.
        rank: u16,
        /// The peer it was waiting on, when known.
        peer: Option<u16>,
        /// The tag it was waiting on, when known.
        tag: Option<i64>,
        /// Index of the source `VerifyBlocked` event.
        seq: usize,
    },
}

impl fmt::Display for DeadlockFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockFinding::Cycle { edges } => {
                write!(f, "deadlock cycle:")?;
                for e in edges {
                    let tag = e.tag.map_or("?".to_string(), |t| t.to_string());
                    let to = e.to_rank.map_or("?".to_string(), |r| r.to_string());
                    write!(f, " rank {} -(tag {})-> rank {};", e.from_rank, tag, to)?;
                }
                Ok(())
            }
            DeadlockFinding::Orphan {
                rank, peer, tag, ..
            } => {
                let tag = tag.map_or("?".to_string(), |t| t.to_string());
                let peer = peer.map_or("?".to_string(), |r| r.to_string());
                write!(
                    f,
                    "orphan wait: rank {rank} blocked on rank {peer} tag {tag} \
                     which is not blocked on it (lost message or missing pready)"
                )
            }
        }
    }
}

/// The protocol rule a lint finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A partition was `pready`'d more than once in one iteration.
    DoublePready,
    /// An iteration reached `wait` with a partition never `pready`'d.
    MissingPready,
    /// A `pready` with no active iteration.
    PreadyOutsideIteration,
    /// A send partition written after its `pready` this iteration.
    WriteAfterPready,
    /// A recv partition read mid-iteration with no `parrived == true`
    /// probe first.
    ReadBeforeArrival,
    /// `start`/`wait` calls do not pair up.
    UnbalancedStartWait,
    /// The two sides negotiated incompatible wire-message layouts.
    LayoutMismatch,
}

impl LintKind {
    /// Whether the rule fires on an event that is *missing* (the start
    /// of a waited iteration, the `pready` of a waited partition, the
    /// probe before a read) rather than on two events that are both in
    /// the trace. Only the latter can be trusted once the ring has
    /// overflowed and evicted its oldest events.
    fn is_absence_based(self) -> bool {
        match self {
            LintKind::MissingPready
            | LintKind::PreadyOutsideIteration
            | LintKind::ReadBeforeArrival
            | LintKind::UnbalancedStartWait => true,
            LintKind::DoublePready | LintKind::WriteAfterPready | LintKind::LayoutMismatch => false,
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::DoublePready => "double-pready",
            LintKind::MissingPready => "missing-pready",
            LintKind::PreadyOutsideIteration => "pready-outside-iteration",
            LintKind::WriteAfterPready => "write-after-pready",
            LintKind::ReadBeforeArrival => "read-before-arrival",
            LintKind::UnbalancedStartWait => "unbalanced-start-wait",
            LintKind::LayoutMismatch => "layout-mismatch",
        };
        write!(f, "{s}")
    }
}

/// One protocol-rule violation with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Request id.
    pub req: u16,
    /// The violated rule.
    pub kind: LintKind,
    /// Rank of the offending event.
    pub rank: u16,
    /// Thread of the offending event.
    pub tid: u16,
    /// Iteration the violation belongs to.
    pub iter: u32,
    /// Partition involved, when the rule is per-partition.
    pub part: Option<u32>,
    /// Index of the source event in the input slice.
    pub seq: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] req {} rank {} tid {} seq {}: {}",
            self.kind, self.req, self.rank, self.tid, self.seq, self.detail
        )
    }
}

/// Input statistics, mostly for sanity-checking that verification was
/// actually enabled for the run being analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    /// Events in the analyzed slice (any kind).
    pub total_events: usize,
    /// Verify-grade events among them.
    pub verify_events: usize,
    /// Distinct partitioned requests observed.
    pub requests: usize,
    /// Events the ring overwrote before the snapshot (the `dropped`
    /// passed to [`analyze`]); the trace is a suffix per thread when
    /// this is non-zero.
    pub dropped_events: u64,
    /// Absence-based lints withheld because `dropped_events > 0`: what
    /// they miss may have been evicted, not skipped by the program.
    pub demoted_lints: usize,
}

/// Everything the three passes found, plus input statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// Happens-before races.
    pub races: Vec<RaceFinding>,
    /// Deadlock cycles and orphan waits.
    pub deadlocks: Vec<DeadlockFinding>,
    /// Protocol-rule violations.
    pub lints: Vec<LintFinding>,
    /// Input statistics.
    pub stats: VerifyStats,
}

impl VerifyReport {
    /// No findings of any kind.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.deadlocks.is_empty() && self.lints.is_empty()
    }

    /// Total findings across the three passes.
    pub fn finding_count(&self) -> usize {
        self.races.len() + self.deadlocks.len() + self.lints.len()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pcomm-verify: {} findings over {} verify events ({} total, {} requests)",
            self.finding_count(),
            self.stats.verify_events,
            self.stats.total_events,
            self.stats.requests,
        )?;
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        for d in &self.deadlocks {
            writeln!(f, "  {d}")?;
        }
        for l in &self.lints {
            writeln!(f, "  {l}")?;
        }
        if self.is_clean() {
            writeln!(f, "  clean: no races, deadlocks, or protocol violations")?;
        }
        if self.stats.dropped_events > 0 {
            writeln!(
                f,
                "  note: the ring dropped {} events; {} absence-based lints demoted",
                self.stats.dropped_events, self.stats.demoted_lints
            )?;
        }
        Ok(())
    }
}

/// Run all three passes over a captured event stream.
///
/// The arguments are typically `TraceData::events` and
/// `TraceData::dropped` from a run with verification enabled;
/// non-verify events are ignored, so mixed traces are fine. Findings
/// reference input positions via their `seq` fields.
///
/// With `dropped > 0` each thread's ring holds only a suffix of what
/// happened, so — the rule [`audit`] applies to cross-process rings —
/// lints that fire on a *missing* event (see [`LintKind`]: missing or
/// out-of-iteration `pready`, read before arrival, unbalanced
/// start/wait) are counted in [`VerifyStats::demoted_lints`] instead of
/// reported. Findings between events that are both present (double
/// `pready`, write after `pready`, layout mismatch, races, deadlock
/// verdicts) stay on.
pub fn analyze(events: &[Event], dropped: u64) -> VerifyReport {
    let model = model::Model::build(events);
    let mut lints = lints::run_lints(&model);
    let found = lints.len();
    if dropped > 0 {
        lints.retain(|l| !l.kind.is_absence_based());
    }
    let stats = VerifyStats {
        total_events: model.total_events,
        verify_events: model.events.len(),
        requests: model.requests.len(),
        dropped_events: dropped,
        demoted_lints: found - lints.len(),
    };
    VerifyReport {
        races: hb::detect_races(&model),
        deadlocks: waitgraph::analyze_waits(&model),
        lints,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_trace::EventKind;

    #[test]
    fn empty_trace_is_clean() {
        let report = analyze(&[], 0);
        assert!(report.is_clean());
        assert_eq!(report.finding_count(), 0);
        assert!(format!("{report}").contains("clean"));
    }

    #[test]
    fn non_verify_events_are_ignored() {
        let events = vec![Event {
            ts_ns: 0,
            rank: 0,
            kind: EventKind::Pready { part: 3 },
        }];
        let report = analyze(&events, 0);
        assert!(report.is_clean());
        assert_eq!(report.stats.total_events, 1);
        assert_eq!(report.stats.verify_events, 0);
    }

    #[test]
    fn report_display_lists_findings() {
        let events = vec![
            Event {
                ts_ns: 0,
                rank: 0,
                kind: EventKind::VerifyBlocked {
                    peer: Some(1),
                    tag: Some(7),
                },
            },
            Event {
                ts_ns: 0,
                rank: 1,
                kind: EventKind::VerifyBlocked {
                    peer: Some(0),
                    tag: Some(8),
                },
            },
        ];
        let report = analyze(&events, 0);
        assert_eq!(report.deadlocks.len(), 1);
        let text = format!("{report}");
        assert!(text.contains("deadlock cycle"), "{text}");
        assert!(text.contains("tag 7"), "{text}");
    }
}
