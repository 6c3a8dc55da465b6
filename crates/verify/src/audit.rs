//! Cross-process trace auditing: merge per-rank `.events` rings into
//! one global view and prove the wire protocol behaved.
//!
//! A multi-process run leaves one analysis-grade ring per OS process
//! (see `pcomm_trace::persist`). Each ring is internally ordered but the
//! rings share no clock — every process timestamps against its own
//! `Instant` epoch — and verify request ids are interned first-seen per
//! process, so the same partitioned context can be "req 0" on the
//! sender and "req 3" on the receiver. [`audit`] reconstructs the global
//! picture in three passes:
//!
//! 1. **Wire FSM** — per directed `(sender, receiver, lane, epoch)`
//!    channel, the k-th `VerifyWireSend` is matched to the k-th
//!    `VerifyWireRecv` (sound because each lane epoch is one FIFO byte
//!    stream). Matched pairs must agree on the frame op; a recv with no
//!    send, a handshake `Hello` after establishment, any frame after
//!    `Bye`, and a `Bye` with no preceding barrier are findings.
//! 2. **Stream ledger** — per `(sender, stream, round)`: each receiver
//!    credit (`PartCts`) opens a round, and each rank's ring is ordered,
//!    so the credits split a stream's events into rounds (the receiver's
//!    sent ones its own, the sender's received ones the sender's).
//!    `PartData` only after the receiver saw `PartRts`, offsets inside
//!    the pinned stream, a credit only once the previous round landed
//!    whole and data only inside an open round (a reconnect never
//!    repeats a credit, nor replays a range whose round landed), commits
//!    pairwise disjoint within a round and covered by bytes the sender
//!    put on the wire in it.
//! 3. **Cross-process happens-before** — wire send→recv pairs bound
//!    each rank's clock offset (send precedes recv in wall time, both
//!    directions), request ids are unified through the stream layout
//!    events both sides emit, thread ids are made globally unique, and
//!    the single merged stream goes through the same vector-clock race
//!    pass in-process verification uses — so a receiver-side read
//!    racing the commit that fills the buffer is caught across two OS
//!    processes.
//!
//! Rings overflow: a rank with `dropped > 0` holds only a suffix of
//! what happened, so every *absence*-based check (recv-without-send,
//! data-before-rts, commit coverage) is demoted to a statistic for
//! channels touching that rank. Presence-based checks (op mismatch on
//! matched frames, overlapping commits) stay on. A race is absence-based
//! where it begins: before an overflowed ring's coverage start (the
//! latest of its threads' earliest surviving events) the event that
//! ordered it may be gone, so such a race is demoted too.
//!
//! The fabric is invisible to all three passes by design. The `ipc`
//! transport (same-host shared segment) brackets its ring traffic with
//! the same `VerifyWire*`/`VerifyStream*` events the socket engine
//! emits, presenting itself as a single always-`lane 0`, always-
//! `epoch 0` channel per peer pair: an SPSC descriptor ring is one
//! FIFO stream (so ordinal matching holds exactly as for a socket) and
//! there is no reconnect (so the epoch never advances). Zero-copy
//! arena commits emit `VerifyStreamData`/`Commit` like any other range,
//! so the ledger invariants apply unchanged.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use pcomm_net::frame::op;
use pcomm_trace::{Event, EventKind, RankEvents};

use crate::model::Model;
use crate::{hb, RaceFinding};

/// What a wire/ledger finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// A lane delivered more frames than its sender put on the wire.
    RecvWithoutSend,
    /// The k-th received frame's op differs from the k-th sent frame's.
    OpMismatch,
    /// A handshake `Hello` arrived on an established connection.
    StrayHello,
    /// A frame arrived after the lane's `Bye`.
    FrameAfterBye,
    /// Lane 0 said `Bye` before any barrier/abort traffic justified it.
    ByeBeforeBarrier,
    /// Stream payload arrived before the stream's `PartRts`.
    DataBeforeRts,
    /// Stream payload lies (partly) outside the pinned stream extent.
    DataBeyondStream,
    /// A stream's `PartCts` released while its previous round was still
    /// open (a credit repeated, not earned).
    CtsReplayed,
    /// Stream payload arrived while no round was open: its round had
    /// landed whole and the next credit had not gone out.
    DataOutsideRound,
    /// Two ledger commits overlap — `claim_range` double-committed.
    CommitOverlap,
    /// A ledger commit lies (partly) outside the pinned stream extent.
    CommitBeyondStream,
    /// A commit covers bytes the sender never put on the wire.
    CommitUncovered,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditKind::RecvWithoutSend => "recv-without-send",
            AuditKind::OpMismatch => "op-mismatch",
            AuditKind::StrayHello => "stray-hello",
            AuditKind::FrameAfterBye => "frame-after-bye",
            AuditKind::ByeBeforeBarrier => "bye-before-barrier",
            AuditKind::DataBeforeRts => "data-before-rts",
            AuditKind::DataBeyondStream => "data-beyond-stream",
            AuditKind::CtsReplayed => "cts-replayed",
            AuditKind::DataOutsideRound => "data-outside-round",
            AuditKind::CommitOverlap => "commit-overlap",
            AuditKind::CommitBeyondStream => "commit-beyond-stream",
            AuditKind::CommitUncovered => "commit-uncovered",
        };
        f.write_str(s)
    }
}

/// One wire-FSM or ledger violation, anchored to the event that
/// exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// What rule broke.
    pub kind: AuditKind,
    /// Rank whose ring holds the anchoring event.
    pub rank: u16,
    /// Index of that event in the rank's `.events` stream (provenance).
    pub seq: usize,
    /// The peer rank on the other end of the channel or stream.
    pub peer: u16,
    /// Stream id for ledger findings; `None` for pure wire findings.
    pub stream: Option<u32>,
    /// Human-readable specifics (lane, epoch, offsets, ops).
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] rank {} seq {}", self.kind, self.rank, self.seq)?;
        if let Some(s) = self.stream {
            write!(f, " stream {s}")?;
        }
        write!(f, " peer {}: {}", self.peer, self.detail)
    }
}

/// Merge statistics and demoted observations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditStats {
    /// Rank rings merged.
    pub ranks: usize,
    /// Events across all rings.
    pub events: usize,
    /// Ring-overflow evictions across all rings (absence checks are
    /// suppressed on channels touching an overflowed rank).
    pub dropped_events: u64,
    /// Wire frames matched send↔recv by ordinal.
    pub matched_frames: usize,
    /// Frames sent (or enqueued to a dying socket) that never arrived —
    /// expected under chaos, so a statistic, never a finding.
    pub unmatched_sends: usize,
    /// Channels skipped for absence checks because a ring overflowed.
    pub skipped_channels: usize,
    /// Partitioned streams audited by the ledger pass.
    pub streams: usize,
    /// Stream bytes received more than once (failover replay the
    /// ledger absorbed idempotently).
    pub replayed_bytes: u64,
    /// Per-rank clock offsets (ns, relative to the lowest rank) derived
    /// from matched wire pairs.
    pub clock_offsets_ns: Vec<(u16, i64)>,
    /// Events fed to the merged happens-before pass.
    pub hb_events: usize,
    /// Races withheld because their earlier access precedes an
    /// overflowed ring's coverage start: what ordered them may have
    /// been evicted.
    pub demoted_races: usize,
}

/// Everything [`audit`] found.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Wire-FSM and ledger violations.
    pub findings: Vec<AuditFinding>,
    /// Cross-process data races from the merged happens-before pass.
    pub races: Vec<RaceFinding>,
    /// Merge statistics.
    pub stats: AuditStats,
}

impl AuditReport {
    /// No findings of any kind.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.races.is_empty()
    }

    /// Total findings across both passes.
    pub fn finding_count(&self) -> usize {
        self.findings.len() + self.races.len()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "pcomm-audit: {} findings over {} events from {} ranks \
             ({} frames matched, {} sends unmatched, {} streams, {} replayed bytes, {} dropped)",
            self.finding_count(),
            s.events,
            s.ranks,
            s.matched_frames,
            s.unmatched_sends,
            s.streams,
            s.replayed_bytes,
            s.dropped_events,
        )?;
        for (rank, off) in &s.clock_offsets_ns {
            writeln!(f, "  clock: rank {rank} offset {off} ns")?;
        }
        for v in &self.findings {
            writeln!(f, "  {v}")?;
        }
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        if self.is_clean() {
            writeln!(
                f,
                "  clean: wire protocol, stream ledgers, and cross-process ordering hold"
            )?;
        }
        if s.demoted_races > 0 {
            writeln!(
                f,
                "  note: {} race(s) demoted: they begin before an overflowed ring's coverage",
                s.demoted_races
            )?;
        }
        Ok(())
    }
}

/// One wire frame event, stripped to what the FSM needs.
#[derive(Debug, Clone, Copy)]
struct WireEv {
    /// Index in the owning rank's event stream.
    seq: usize,
    ts_ns: u64,
    op: u16,
    /// The on-wire ordinal counter (`tx_seq` / reader-local `rx_seq`).
    wseq: u32,
}

/// Directed lane-epoch channel: frames from `src` to `dst`.
type ChanKey = (u16, u16, u16, u32); // (src, dst, lane, epoch)

/// Half-open byte ranges with union/coverage arithmetic.
#[derive(Debug, Default, Clone)]
struct RangeSet {
    /// Disjoint, sorted `[lo, hi)` ranges.
    spans: Vec<(u64, u64)>,
}

impl RangeSet {
    fn insert(&mut self, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        self.spans.push((lo, hi));
        self.spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.spans.len());
        for &(lo, hi) in &self.spans {
            match merged.last_mut() {
                Some((_, mhi)) if lo <= *mhi => *mhi = (*mhi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        self.spans = merged;
    }

    fn covers(&self, lo: u64, hi: u64) -> bool {
        if lo >= hi {
            return true;
        }
        self.spans.iter().any(|&(slo, shi)| slo <= lo && hi <= shi)
    }

    fn len(&self) -> u64 {
        self.spans.iter().map(|&(lo, hi)| hi - lo).sum()
    }
}

/// Everything the ledger pass gathers about one round of a stream.
#[derive(Debug, Default)]
struct Round {
    /// Bytes the sender put on the wire (possibly more than once).
    tx_ranges: RangeSet,
    /// Receiver-observed payload: `(offset, len, lane, seq)`.
    rx_data: Vec<(u64, u32, u16, usize)>,
    /// Ledger commits: `(lo, len, lane, seq)`.
    commits: Vec<(u64, u32, u16, usize)>,
}

/// Everything the ledger pass gathers about one `(sender, stream)`.
#[derive(Debug, Default)]
struct StreamInfo {
    sender: u16,
    receiver: Option<u16>,
    /// `total_len` and provenance of the sender-side RTS.
    tx_rts: Option<(u64, usize)>,
    /// `total_len` and provenance of the receiver-side RTS.
    rx_rts: Option<(u64, usize)>,
    /// The rounds, from round 1: the `k`-th credit opens round `k`, and
    /// what a ring holds before its first credit counts to round 1.
    rounds: Vec<Round>,
    /// Credits the receiver released: `seq` each.
    cts: Vec<usize>,
    /// Credits the sender took in so far (while gathering).
    tx_credits: usize,
}

impl StreamInfo {
    fn total_len(&self) -> Option<u64> {
        self.rx_rts.or(self.tx_rts).map(|(t, _)| t)
    }

    /// The round a ring that has seen `credits` credits of the stream
    /// is in.
    fn round(&mut self, credits: usize) -> &mut Round {
        let k = credits.max(1);
        if self.rounds.len() < k {
            self.rounds.resize_with(k, Round::default);
        }
        &mut self.rounds[k - 1]
    }
}

/// Whether the commits of a round cover `0..total` before `seq`.
fn landed_before(commits: &[(u64, u32, u16, usize)], total: Option<u64>, seq: usize) -> bool {
    let mut done = RangeSet::default();
    for &(lo, len, _, _) in commits.iter().filter(|c| c.3 < seq) {
        done.insert(lo, lo + len as u64);
    }
    total.is_some_and(|t| done.covers(0, t))
}

/// Tiny union-find over dense node ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Audit a set of per-rank `.events` rings as one multi-process run.
///
/// Ranks may arrive in any order; each event's own `rank` field is the
/// authority for who did what. A clean report means the wire protocol's
/// state machines, every stream's byte ledger, and the cross-process
/// happens-before order all hold.
pub fn audit(ranks: &[RankEvents]) -> AuditReport {
    let mut findings: Vec<AuditFinding> = Vec::new();
    let mut stats = AuditStats {
        ranks: ranks.len(),
        events: ranks.iter().map(|r| r.events.len()).sum(),
        dropped_events: ranks.iter().map(|r| r.dropped).sum(),
        ..AuditStats::default()
    };
    // A rank absent from the input is treated as fully overflowed: no
    // absence-based claims can be made about what it did or didn't log.
    let dropped: HashMap<u16, u64> = ranks.iter().map(|r| (r.rank, r.dropped)).collect();
    let overflowed = |rank: u16| dropped.get(&rank).is_none_or(|d| *d > 0);

    // ---- Gather: wire channels, stream ledgers, abort evidence ----
    let mut sends: BTreeMap<ChanKey, Vec<WireEv>> = BTreeMap::new();
    let mut recvs: BTreeMap<ChanKey, Vec<WireEv>> = BTreeMap::new();
    let mut streams: BTreeMap<(u16, u32), StreamInfo> = BTreeMap::new();
    // Receiver-local map stream id -> sender rank, from rx-side RTS.
    // Ambiguous ids (two senders reusing one id toward one receiver)
    // are dropped from request unification rather than guessed.
    let mut rx_stream_src: HashMap<(u16, u32), Option<u16>> = HashMap::new();
    // Any abort/loss anywhere waives the bye-needs-barrier rule: an
    // aborting universe legitimately skips the finalize barrier.
    let mut abort_seen = false;

    for r in ranks {
        for (i, ev) in r.events.iter().enumerate() {
            match ev.kind {
                EventKind::VerifyWireSend {
                    peer,
                    lane,
                    op: fop,
                    epoch,
                    seq,
                } => {
                    abort_seen |= fop == op::ABORT as u16;
                    sends
                        .entry((ev.rank, peer, lane, epoch))
                        .or_default()
                        .push(WireEv {
                            seq: i,
                            ts_ns: ev.ts_ns,
                            op: fop,
                            wseq: seq,
                        });
                }
                EventKind::VerifyWireRecv {
                    peer,
                    lane,
                    op: fop,
                    epoch,
                    seq,
                } => {
                    abort_seen |= fop == op::ABORT as u16;
                    recvs
                        .entry((peer, ev.rank, lane, epoch))
                        .or_default()
                        .push(WireEv {
                            seq: i,
                            ts_ns: ev.ts_ns,
                            op: fop,
                            wseq: seq,
                        });
                }
                EventKind::VerifyStreamRts {
                    peer,
                    tx,
                    stream,
                    total_len,
                } => {
                    if tx {
                        let info = streams.entry((ev.rank, stream)).or_default();
                        info.sender = ev.rank;
                        info.receiver.get_or_insert(peer);
                        if info.tx_rts.is_none() {
                            info.tx_rts = Some((total_len, i));
                        }
                    } else {
                        let info = streams.entry((peer, stream)).or_default();
                        info.sender = peer;
                        info.receiver = Some(ev.rank);
                        if info.rx_rts.is_none() {
                            info.rx_rts = Some((total_len, i));
                        }
                        rx_stream_src
                            .entry((ev.rank, stream))
                            .and_modify(|s| {
                                if *s != Some(peer) {
                                    *s = None;
                                }
                            })
                            .or_insert(Some(peer));
                    }
                }
                EventKind::VerifyStreamData {
                    peer,
                    lane,
                    tx,
                    stream,
                    offset,
                    len,
                } => {
                    if tx {
                        let info = streams.entry((ev.rank, stream)).or_default();
                        info.sender = ev.rank;
                        let round = info.round(info.tx_credits);
                        round.tx_ranges.insert(offset, offset + len as u64);
                    } else {
                        let info = streams.entry((peer, stream)).or_default();
                        info.sender = peer;
                        info.receiver = Some(ev.rank);
                        let round = info.round(info.cts.len());
                        round.rx_data.push((offset, len, lane, i));
                    }
                }
                EventKind::VerifyStreamCommit {
                    peer,
                    lane,
                    stream,
                    lo,
                    len,
                } => {
                    let info = streams.entry((peer, stream)).or_default();
                    info.sender = peer;
                    info.receiver = Some(ev.rank);
                    let round = info.round(info.cts.len());
                    round.commits.push((lo, len, lane, i));
                }
                // The receiver releases CTS (tx=true on its side).
                EventKind::VerifyStreamCts {
                    peer,
                    tx: true,
                    stream,
                    ..
                } => {
                    let info = streams.entry((peer, stream)).or_default();
                    info.sender = peer;
                    info.receiver = Some(ev.rank);
                    info.cts.push(i);
                }
                // ... and the sender takes it in (tx=false on its side).
                EventKind::VerifyStreamCts { peer, stream, .. } => {
                    let info = streams.entry((ev.rank, stream)).or_default();
                    info.sender = ev.rank;
                    info.receiver.get_or_insert(peer);
                    info.tx_credits += 1;
                }
                _ => {}
            }
        }
    }

    // ---- Pass 1: wire-protocol FSM per channel ----
    let keys: BTreeSet<ChanKey> = sends.keys().chain(recvs.keys()).copied().collect();
    // Matched (ts_send, ts_recv) pairs per (src, dst) for clock bounds.
    let mut pairs: HashMap<(u16, u16), Vec<(u64, u64)>> = HashMap::new();
    for key in keys {
        let (src, dst, lane, epoch) = key;
        let empty: Vec<WireEv> = Vec::new();
        let mut tx = sends.get(&key).unwrap_or(&empty).clone();
        let mut rx = recvs.get(&key).unwrap_or(&empty).clone();
        tx.sort_by_key(|w| w.wseq);
        rx.sort_by_key(|w| w.wseq);
        let complete = !overflowed(src) && !overflowed(dst);
        if !complete {
            stats.skipped_channels += 1;
        }

        // Presence-based checks on the receiver's frame sequence.
        let mut bye_at: Option<usize> = None;
        for (i, w) in rx.iter().enumerate() {
            if w.op == op::HELLO as u16 {
                findings.push(AuditFinding {
                    kind: AuditKind::StrayHello,
                    rank: dst,
                    seq: w.seq,
                    peer: src,
                    stream: None,
                    detail: format!(
                        "handshake Hello on established lane {lane} epoch {epoch} (frame ordinal {})",
                        w.wseq
                    ),
                });
            }
            if let Some(b) = bye_at {
                findings.push(AuditFinding {
                    kind: AuditKind::FrameAfterBye,
                    rank: dst,
                    seq: w.seq,
                    peer: src,
                    stream: None,
                    detail: format!(
                        "{} frame after Bye (ordinal {}) on lane {lane} epoch {epoch}",
                        op::name(w.op as u8),
                        rx[b].wseq
                    ),
                });
            }
            if w.op == op::BYE as u16 && bye_at.is_none() {
                bye_at = Some(i);
            }
        }
        // Bye is only legitimate after finalize's barrier (or an
        // abort). Barrier frames flow rank<->0, so only those channel
        // directions can be held to it.
        if complete && !abort_seen && lane == 0 && (src == 0 || dst == 0) {
            if let Some(b) = bye_at {
                let justified = rx[..b].iter().any(|w| {
                    w.op == op::BARRIER_ARRIVE as u16
                        || w.op == op::BARRIER_RELEASE as u16
                        || w.op == op::ABORT as u16
                });
                if !justified {
                    findings.push(AuditFinding {
                        kind: AuditKind::ByeBeforeBarrier,
                        rank: dst,
                        seq: rx[b].seq,
                        peer: src,
                        stream: None,
                        detail: format!(
                            "Bye on lane 0 epoch {epoch} with no barrier or abort before it"
                        ),
                    });
                }
            }
        }

        // Ordinal matching: the k-th frame received over a lane epoch
        // IS the k-th frame sent into it (single FIFO byte stream).
        let n = tx.len().min(rx.len());
        stats.matched_frames += n;
        // Clock bounds need only true pairs: a send and a recv of one
        // wire ordinal are one frame, whatever either ring dropped.
        let sent_at: HashMap<u32, u64> = tx.iter().map(|w| (w.wseq, w.ts_ns)).collect();
        let p = pairs.entry((src, dst)).or_default();
        p.extend(
            rx.iter()
                .filter_map(|w| Some((*sent_at.get(&w.wseq)?, w.ts_ns))),
        );
        if complete {
            for i in 0..n {
                if tx[i].op != rx[i].op {
                    findings.push(AuditFinding {
                        kind: AuditKind::OpMismatch,
                        rank: dst,
                        seq: rx[i].seq,
                        peer: src,
                        stream: None,
                        detail: format!(
                            "ordinal {i} on lane {lane} epoch {epoch}: sent {} but received {}",
                            op::name(tx[i].op as u8),
                            op::name(rx[i].op as u8)
                        ),
                    });
                }
            }
            if rx.len() > tx.len() {
                let extra = &rx[tx.len()];
                findings.push(AuditFinding {
                    kind: AuditKind::RecvWithoutSend,
                    rank: dst,
                    seq: extra.seq,
                    peer: src,
                    stream: None,
                    detail: format!(
                        "lane {lane} epoch {epoch} delivered {} frames but only {} were sent",
                        rx.len(),
                        tx.len()
                    ),
                });
            }
        }
        stats.unmatched_sends += tx.len().saturating_sub(rx.len());
    }

    // ---- Pass 2: stream ledger soundness, round by round ----
    stats.streams = streams.len();
    for ((sender, stream), info) in &streams {
        let receiver = info.receiver.unwrap_or(u16::MAX);
        let total = info.total_len();
        let mk = |kind, rank, seq, detail| AuditFinding {
            kind,
            rank,
            seq,
            peer: *sender,
            stream: Some(*stream),
            detail,
        };
        let rx_data = || info.rounds.iter().flat_map(|r| &r.rx_data);

        // PartData before PartRts, in the receiver's own ring order.
        if let Some(first) = rx_data().min_by_key(|(_, _, _, seq)| *seq) {
            let rts_ok = info.rx_rts.is_some_and(|(_, rts_seq)| rts_seq < first.3);
            if !rts_ok && !overflowed(receiver) {
                findings.push(mk(
                    AuditKind::DataBeforeRts,
                    receiver,
                    first.3,
                    format!(
                        "PartData [{}, {}) on lane {} arrived before any PartRts for the stream",
                        first.0,
                        first.0 + first.1 as u64,
                        first.2
                    ),
                ));
            }
        }

        // Payload and commits stay inside the pinned extent.
        if let Some(total) = total {
            for &(off, len, lane, seq) in rx_data() {
                if off + len as u64 > total {
                    findings.push(mk(
                        AuditKind::DataBeyondStream,
                        receiver,
                        seq,
                        format!(
                            "PartData [{off}, {}) on lane {lane} exceeds pinned stream of {total} bytes",
                            off + len as u64
                        ),
                    ));
                }
            }
            for &(lo, len, lane, seq) in info.rounds.iter().flat_map(|r| &r.commits) {
                if lo + len as u64 > total {
                    findings.push(mk(
                        AuditKind::CommitBeyondStream,
                        receiver,
                        seq,
                        format!(
                            "commit [{lo}, {}) on lane {lane} exceeds pinned stream of {total} bytes",
                            lo + len as u64
                        ),
                    ));
                }
            }
        }

        // A credit opens the next round only once the previous one
        // landed whole, whatever the socket's epoch: the carrier replays
        // frames, the engine never repeats a credit.
        if !overflowed(receiver) {
            for (k, &seq) in info.cts.iter().enumerate().skip(1) {
                let prev = info.rounds.get(k - 1).map_or(&[][..], |r| &r.commits[..]);
                if !landed_before(prev, total, seq) {
                    findings.push(mk(
                        AuditKind::CtsReplayed,
                        receiver,
                        seq,
                        format!(
                            "PartCts released {} times: credit {} while round {k} was still open",
                            k + 1,
                            k + 1
                        ),
                    ));
                }
            }
        }

        for (k, round) in info.rounds.iter().enumerate() {
            let k = k + 1;
            // Data only while its round is open: none once the round's
            // commits covered the stream, until the next credit.
            for &(off, len, lane, seq) in &round.rx_data {
                if !overflowed(receiver) && landed_before(&round.commits, total, seq) {
                    findings.push(mk(
                        AuditKind::DataOutsideRound,
                        receiver,
                        seq,
                        format!(
                            "PartData [{off}, {}) on lane {lane} after round {k} landed whole",
                            off + len as u64
                        ),
                    ));
                }
            }

            // Commits pairwise disjoint within the round: claim_range
            // must never hand the same byte out twice, even across lanes
            // and reconnects.
            let mut sorted: Vec<(u64, u32, u16, usize)> = round.commits.clone();
            sorted.sort_by_key(|&(lo, _, _, seq)| (lo, seq));
            for pair in sorted.windows(2) {
                let (alo, alen, alane, _aseq) = pair[0];
                let (blo, blen, blane, bseq) = pair[1];
                if blo < alo + alen as u64 {
                    findings.push(mk(
                        AuditKind::CommitOverlap,
                        receiver,
                        bseq,
                        format!(
                            "commit [{blo}, {}) on lane {blane} overlaps committed [{alo}, {}) from lane {alane}",
                            blo + blen as u64,
                            alo + alen as u64
                        ),
                    ));
                }
            }

            // Commits covered by what the sender put on the wire in the
            // round: bytes can replay (failover) but cannot appear from
            // nowhere.
            let mut committed = RangeSet::default();
            for &(lo, len, lane, seq) in &round.commits {
                committed.insert(lo, lo + len as u64);
                if !overflowed(*sender) && !round.tx_ranges.covers(lo, lo + len as u64) {
                    findings.push(mk(
                        AuditKind::CommitUncovered,
                        receiver,
                        seq,
                        format!(
                            "commit [{lo}, {}) on lane {lane} includes bytes the sender never streamed",
                            lo + len as u64
                        ),
                    ));
                }
            }

            let rx_bytes: u64 = round.rx_data.iter().map(|&(_, len, _, _)| len as u64).sum();
            stats.replayed_bytes += rx_bytes.saturating_sub(committed.len());
        }
    }

    // ---- Pass 3: merged happens-before over aligned clocks ----
    let offsets = clock_offsets(ranks, &pairs);
    stats.clock_offsets_ns = offsets.iter().map(|(rank, off)| (*rank, *off)).collect();
    let merged = merge_for_hb(ranks, &offsets, &rx_stream_src);
    stats.hb_events = merged.len();
    let mut races = hb::detect_races(&Model::build(&merged));
    let whole_from = ranks
        .iter()
        .filter(|r| r.dropped > 0)
        .filter_map(|r| coverage_start(r, offsets.get(&r.rank).copied().unwrap_or(0)))
        .max();
    if let Some(from) = whole_from {
        let found = races.len();
        races.retain(|r| r.first.ts_ns >= from);
        stats.demoted_races = found - races.len();
    }

    AuditReport {
        findings,
        races,
        stats,
    }
}

/// Derive one clock offset per rank (ns added to its timestamps) such
/// that every matched wire frame's send precedes its recv, in both
/// directions, as physical causality guarantees. The lowest rank
/// anchors at 0; others follow by BFS over ranks that exchanged
/// frames, taking the midpoint of the feasible interval.
fn clock_offsets(
    ranks: &[RankEvents],
    pairs: &HashMap<(u16, u16), Vec<(u64, u64)>>,
) -> BTreeMap<u16, i64> {
    let mut offsets: BTreeMap<u16, i64> = BTreeMap::new();
    let all: BTreeSet<u16> = ranks.iter().map(|r| r.rank).collect();
    let Some(&root) = all.first() else {
        return offsets;
    };
    offsets.insert(root, 0);
    let mut frontier = vec![root];
    while let Some(a) = frontier.pop() {
        let off_a = offsets[&a];
        for &b in &all {
            if offsets.contains_key(&b) {
                continue;
            }
            // a -> b sends demand off_b >= ts_send + off_a - ts_recv;
            // b -> a sends demand off_b <= ts_recv + off_a - ts_send.
            let mut lo: Option<i64> = None;
            let mut hi: Option<i64> = None;
            if let Some(ps) = pairs.get(&(a, b)) {
                for &(ts_send, ts_recv) in ps {
                    let bound = ts_send as i64 + off_a - ts_recv as i64;
                    lo = Some(lo.map_or(bound, |l: i64| l.max(bound)));
                }
            }
            if let Some(ps) = pairs.get(&(b, a)) {
                for &(ts_send, ts_recv) in ps {
                    let bound = ts_recv as i64 + off_a - ts_send as i64;
                    hi = Some(hi.map_or(bound, |h: i64| h.min(bound)));
                }
            }
            let off_b = match (lo, hi) {
                (Some(lo), Some(hi)) => Some(lo + (hi - lo) / 2),
                (Some(lo), None) => Some(lo),
                (None, Some(hi)) => Some(hi),
                (None, None) => None, // no frames exchanged yet
            };
            if let Some(off_b) = off_b {
                offsets.insert(b, off_b);
                frontier.push(b);
            }
        }
    }
    // Ranks unreachable through any wire traffic fall back to 0.
    for &r in &all {
        offsets.entry(r).or_insert(0);
    }
    offsets
}

/// `ts_ns` of a rank whose clock is `off` ns behind the lowest rank's.
fn aligned(ts_ns: u64, off: i64) -> u64 {
    (ts_ns as i64 + off).max(0) as u64
}

/// Where an overflowed ring's record is whole, on the aligned clock:
/// each thread's ring keeps a suffix, so the latest of the threads'
/// earliest surviving events. `None` when no event names a thread.
fn coverage_start(r: &RankEvents, off: i64) -> Option<u64> {
    let mut first: HashMap<u16, u64> = HashMap::new();
    for ev in &r.events {
        if let Some(tid) = hb::verify_tid(&ev.kind) {
            let ts = aligned(ev.ts_ns, off);
            first
                .entry(tid)
                .and_modify(|t| *t = (*t).min(ts))
                .or_insert(ts);
        }
    }
    first.into_values().max()
}

/// Build the merged, clock-aligned, globally-renamed event stream the
/// happens-before pass runs on.
///
/// Verify request ids are interned first-seen per process, so the same
/// partitioned context has different ids on each side. The
/// `VerifyStreamMsg` events both sides emit per stream message carry
/// their local id for the same `(stream, msg)` — union-find over those
/// correspondences yields global ids. Thread ids get the same
/// treatment (two processes both have a tid 0).
fn merge_for_hb(
    ranks: &[RankEvents],
    offsets: &BTreeMap<u16, i64>,
    rx_stream_src: &HashMap<(u16, u32), Option<u16>>,
) -> Vec<Event> {
    // Dense node ids for (rank, local req).
    let mut nodes: BTreeMap<(u16, u16), usize> = BTreeMap::new();
    let node_of = |rank: u16, req: u16, nodes: &mut BTreeMap<(u16, u16), usize>| {
        let n = nodes.len();
        *nodes.entry((rank, req)).or_insert(n)
    };
    // (sender, stream, msg) -> req node on each side.
    let mut side_req: HashMap<(u16, u32, u16), [Option<usize>; 2]> = HashMap::new();
    for r in ranks {
        for ev in &r.events {
            if let EventKind::VerifyStreamMsg {
                stream,
                req,
                msg,
                tx,
                ..
            } = ev.kind
            {
                // Stream identity is (sender, stream): the tx side IS
                // the sender; the rx side learned its sender from the
                // stream's RTS. An id two peers reused toward the same
                // receiver is ambiguous — skip unification, never guess.
                let (sender, side) = if tx {
                    (ev.rank, 0usize)
                } else {
                    match rx_stream_src.get(&(ev.rank, stream)) {
                        Some(Some(src)) => (*src, 1usize),
                        _ => continue,
                    }
                };
                let node = node_of(ev.rank, req, &mut nodes);
                side_req.entry((sender, stream, msg)).or_default()[side] = Some(node);
            }
        }
    }
    let mut uf = UnionFind::new(nodes.len());
    for sides in side_req.values() {
        if let [Some(a), Some(b)] = sides {
            uf.union(*a, *b);
        }
    }
    // Canonical roots -> dense global req ids.
    let mut global_req: HashMap<(u16, u16), u16> = HashMap::new();
    let mut root_ids: HashMap<usize, u16> = HashMap::new();
    let node_list: Vec<((u16, u16), usize)> = nodes.iter().map(|(k, v)| (*k, *v)).collect();
    for ((rank, req), node) in node_list {
        let root = uf.find(node);
        let n = root_ids.len() as u16;
        let id = *root_ids.entry(root).or_insert(n);
        global_req.insert((rank, req), id);
    }
    let mut next_req = root_ids.len() as u16;
    // Globally unique tids.
    let mut global_tid: HashMap<(u16, u16), u16> = HashMap::new();

    let mut merged: Vec<Event> = Vec::new();
    for r in ranks {
        let off = offsets.get(&r.rank).copied().unwrap_or(0);
        for ev in &r.events {
            let Some(kind) = remap_kind(
                &ev.kind,
                |req| {
                    *global_req.entry((ev.rank, req)).or_insert_with(|| {
                        let id = next_req;
                        next_req = next_req.wrapping_add(1);
                        id
                    })
                },
                |tid| {
                    let n = global_tid.len() as u16;
                    *global_tid.entry((ev.rank, tid)).or_insert(n)
                },
            ) else {
                continue;
            };
            let mut out = *ev;
            out.kind = kind;
            out.ts_ns = aligned(ev.ts_ns, off);
            merged.push(out);
        }
    }
    // Stable by aligned timestamp: rank-major concatenation means ties
    // keep each ring's program order.
    merged.sort_by_key(|e| e.ts_ns);
    merged
}

/// Rewrite a verify event's request and thread ids into the global
/// namespaces. Returns `None` for kinds the happens-before pass does
/// not consume — wire/stream bookkeeping stays out of the merge.
fn remap_kind(
    kind: &EventKind,
    mut req_of: impl FnMut(u16) -> u16,
    mut tid_of: impl FnMut(u16) -> u16,
) -> Option<EventKind> {
    Some(match *kind {
        EventKind::VerifyPartInit {
            req,
            sender,
            parts,
            msgs,
        } => EventKind::VerifyPartInit {
            req: req_of(req),
            sender,
            parts,
            msgs,
        },
        EventKind::VerifyLayoutMsg {
            req,
            msg,
            first_spart,
            n_sparts,
            first_rpart,
            n_rparts,
            bytes,
        } => EventKind::VerifyLayoutMsg {
            req: req_of(req),
            msg,
            first_spart,
            n_sparts,
            first_rpart,
            n_rparts,
            bytes,
        },
        EventKind::VerifyStart {
            req,
            sender,
            iter,
            tid,
        } => EventKind::VerifyStart {
            req: req_of(req),
            sender,
            iter,
            tid: tid_of(tid),
        },
        EventKind::VerifyPready {
            req,
            part,
            iter,
            tid,
        } => EventKind::VerifyPready {
            req: req_of(req),
            part,
            iter,
            tid: tid_of(tid),
        },
        EventKind::VerifyWrite {
            req,
            part,
            iter,
            tid,
            dur_ns,
        } => EventKind::VerifyWrite {
            req: req_of(req),
            part,
            iter,
            tid: tid_of(tid),
            dur_ns,
        },
        EventKind::VerifyRead {
            req,
            part,
            iter,
            tid,
            dur_ns,
        } => EventKind::VerifyRead {
            req: req_of(req),
            part,
            iter,
            tid: tid_of(tid),
            dur_ns,
        },
        EventKind::VerifyMsgSend {
            req,
            msg,
            iter,
            tid,
        } => EventKind::VerifyMsgSend {
            req: req_of(req),
            msg,
            iter,
            tid: tid_of(tid),
        },
        EventKind::VerifyMsgRecv {
            req,
            msg,
            tid,
            eager,
        } => EventKind::VerifyMsgRecv {
            req: req_of(req),
            msg,
            tid: tid_of(tid),
            eager,
        },
        EventKind::VerifyParrived {
            req,
            part,
            iter,
            tid,
            arrived,
        } => EventKind::VerifyParrived {
            req: req_of(req),
            part,
            iter,
            tid: tid_of(tid),
            arrived,
        },
        EventKind::VerifyWaitDone {
            req,
            sender,
            iter,
            tid,
        } => EventKind::VerifyWaitDone {
            req: req_of(req),
            sender,
            iter,
            tid: tid_of(tid),
        },
        _ => return None,
    })
}
