//! The wire protocol engine: everything about talking to a rank in
//! another process that does not depend on what carries the bytes.
//!
//! [`WireProtocol`] owns all protocol state and the one `match Frame`
//! dispatch; a carrier ([`Transport`]: sockets or the ipc segment) only
//! moves bytes, reports liveness and owns its threads. The fabric calls
//! the engine, the engine calls the carrier to send, and the carrier's
//! progress context calls back into [`WireProtocol::dispatch`] and the
//! `land_*` entry points as bytes arrive.
//!
//! * **Eager**: the sender's buffer moves into one `Eager` frame, and the
//!   decoded payload into matching ([`Fabric::deliver_wire_eager`]).
//! * **Rendezvous**: a one-round stream of one message. The sender pins
//!   its buffer as a stream whose span carries the send's completion,
//!   announced by an `Rts` that carries the match envelope instead of a
//!   pairing context, and issues its message in round 1. The receiver
//!   matches the `Rts` like any message; the posted buffer becomes the
//!   stream's destination and the round's credit goes back. From there
//!   the bytes move and land exactly as below; the sender's stream
//!   retires once its message ships, the receiver's once it landed. An
//!   empty message has no byte to stream and travels eager.
//! * **Partitioned streaming**: a request pairs once. The sender's first
//!   `start` announces its whole buffer with one `PartRts`, which pairs
//!   FIFO per `(src, ctx)` with the receiver's one pinned destination.
//!   Each receiver `start` opens a round and sends one credit, a
//!   `PartCts` (extended with a *grant* by a carrier with
//!   receiver-visible memory). The sender claims each message as an
//!   in-process binding does ([`Claims`]): the `k`-th credit posts round
//!   `k`, the `pready` that completes a message stamps it with its round,
//!   and whichever of the two sees both ships it — straight out of the
//!   pinned source, as one order-independent `offset..offset+len` range
//!   (the layout's `aggr_size` is the one place partitions aggregate). A
//!   request dropped mid-round claims the rest and counts it off. No
//!   message of round `k` moves before the `k`-th credit. The receiver
//!   claims each landed range against the round's interval ledger (a
//!   range a reconnect sends again whole lands over the prefix that
//!   arrived: only never-seen bytes count), stamps each message it
//!   finishes with the round, and sets its one completion with the
//!   round's last byte, as the sender's flips with the last byte out. A
//!   range for a landed round is `Misuse`.
//! * **Barrier**: rank 0 coordinates; everyone ships `BarrierArrive`,
//!   rank 0 broadcasts `BarrierRelease` for the generation. Arrivals are
//!   a set, not a count, so a repeated arrival cannot release early. The
//!   closing barrier of [`WireProtocol::finalize`] is one more
//!   generation under a hard deadline.
//! * **RMA**: windows announce their length to a remote origin; puts and
//!   gets become `Put`/`GetReq`/`GetResp` frames applied by the target's
//!   progress context. Per-peer control frames are FIFO, so every put of
//!   an epoch is applied before the completion message that follows it.
//! * **Abort**: the first local failure is encoded into an `Abort` frame
//!   and sent once to every peer (a latch dedupes); a received abort is
//!   recorded without re-broadcast.
//!
//! Every carrier is an exactly-once FIFO per peer: the ipc ring by
//! construction, the socket carrier by counting, acking and replaying
//! its frames across its one reconnect. So nothing here knows about a
//! reconnect.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pcomm_net::frame::{
    Frame, ABORT_MESSAGE_LOST, ABORT_MISUSE, ABORT_MISUSE_RANK, ABORT_PEER_PANICKED,
};
use pcomm_trace::EventKind;

use crate::error::{PcommError, PeerSocketState};
use crate::fabric::{Fabric, MsgInfo, PostedRecv};
use crate::part::Claims;
use crate::sync::{Completion, Mutex};
use crate::transport::Transport;

/// Hard deadline on the finalize barrier: every healthy peer reaches it
/// as soon as its closure returns, so far past this something is wrong
/// and the run fails instead of hanging.
pub(crate) const FINALIZE_TIMEOUT: Duration = Duration::from_secs(30);

/// What a stream's sender waits on: `done` (its "buffer reusable"
/// signal) fires once the carrier is done with the round's last byte.
pub(crate) struct SendSpan {
    /// Bytes of the round not yet moved.
    pub(crate) remaining: AtomicUsize,
    pub(crate) done: Arc<Completion>,
}

impl SendSpan {
    /// `len` more bytes left. Every message is claimed once, so the
    /// countdown never underflows; AcqRel chains the movers' progress.
    pub(crate) fn left(&self, len: usize) {
        if len == 0 {
            return;
        }
        let was = self.remaining.fetch_sub(len, Ordering::AcqRel);
        debug_assert!(was >= len, "span underflow: {len} B off {was} B left");
        if was == len {
            self.done.set();
        }
    }
}

/// One message of a stream, pinned in the source buffer: what a carrier
/// ships, once per claim.
#[derive(Clone, Copy)]
pub(crate) struct PinChunk {
    /// Byte offset of the range in the whole source buffer.
    pub(crate) offset: u64,
    /// First byte of the range; valid until the stream's span completes.
    pub(crate) ptr: *const u8,
    /// Range length in bytes.
    pub(crate) len: usize,
    /// Partitions in the message (trace geometry).
    pub(crate) parts: u16,
}

// SAFETY: the pointed-to source buffer stays alive and unmodified until
// the stream's span `done` fires (fabric invariant (1) — the request
// drains it before its storage drops), and only the one mover that
// claimed the message reads through it.
unsafe impl Send for PinChunk {}
unsafe impl Sync for PinChunk {}

/// No grant: the carrier's receiver pinned memory its sender cannot
/// reach.
const NO_GRANT: u64 = u64::MAX;

/// Sender-side state of one stream: its pinned messages and a
/// binding's [`Claims`], whose posts are the receiver's credits. Held by
/// its request (a rendezvous: by `streams_out` alone), and found there
/// by id when a credit arrives.
pub(crate) struct StreamSend {
    pub(crate) id: u64,
    dst: usize,
    /// A rendezvous retires once its one message ships; a partitioned
    /// stream, when its request drops.
    one_round: bool,
    /// Verify-layer request id: message `m` is `(vreq, m)`.
    vreq: Option<u16>,
    /// Each message's pinned range, in buffer order.
    msgs: Vec<PinChunk>,
    /// Whole-buffer length.
    total_len: usize,
    /// The round each message was last issued in.
    issued: Arc<[AtomicU64]>,
    /// Who ships each message of a round: its issue, the round's credit,
    /// or the close.
    claims: Claims,
    /// The carrier's grant, as the last credit carried it.
    grant: AtomicU64,
    /// What the carrier counts each shipped message off as it leaves.
    span: Arc<SendSpan>,
}

impl StreamSend {
    /// A stream `id` toward `dst` of the messages `(offset, len, parts)`
    /// pinned at `base`, stamped in `issued`; `done` fires once a round's
    /// last byte has left.
    #[allow(clippy::too_many_arguments)] // one per stream field
    pub(crate) fn new(
        id: u64,
        dst: usize,
        base: *const u8,
        msgs: impl Iterator<Item = (usize, usize, u16)>,
        issued: Arc<[AtomicU64]>,
        done: &Arc<Completion>,
        vreq: Option<u16>,
        one_round: bool,
    ) -> Arc<StreamSend> {
        let chunk = |(offset, len, parts)| PinChunk {
            offset: offset as u64,
            ptr: base.wrapping_add(offset),
            len,
            parts,
        };
        let msgs: Vec<PinChunk> = msgs.map(chunk).collect();
        let total_len = msgs.iter().map(|c| c.len).sum();
        Arc::new(StreamSend {
            id,
            dst,
            one_round,
            vreq,
            claims: Claims::new(msgs.len()),
            msgs,
            total_len,
            issued,
            grant: AtomicU64::new(NO_GRANT),
            span: Arc::new(SendSpan {
                remaining: AtomicUsize::new(total_len),
                done: Arc::clone(done),
            }),
        })
    }
}

/// Receiver-side state of one stream: where its ranges land, the ledger
/// of its open round, and what its commits flip — the shape of an
/// in-process binding's receiver (iteration stamps, one completion).
pub(crate) struct StreamRecv {
    base: *mut u8,
    total_len: usize,
    /// Each message's `(offset, len)`, in buffer order.
    msgs: Vec<(usize, usize)>,
    /// The round each message last landed in.
    landed: Arc<[AtomicU64]>,
    /// Set once the open round's last byte landed.
    done: Arc<Completion>,
    /// Verify-layer request id: message `m` is `(vreq, m)`.
    vreq: Option<u16>,
    /// As the sender's.
    one_round: bool,
    /// The sender's stream id, set by the pairing.
    id: OnceLock<u64>,
    /// The open round and the sorted, disjoint byte intervals committed
    /// in it (all of them once it landed: then no range lands until the
    /// next opens). Only the never-claimed bytes of a range count — a
    /// duplicate (the peer's word, or a reconnect's replay) is a no-op.
    ledger: Mutex<(u64, Vec<(usize, usize)>)>,
}

// SAFETY: the destination outlives the stream in the tables (its request
// drains, then takes it out, before freeing it — invariant (1) again);
// `Sync`: every byte of it belongs to one range on the wire, so the
// threads landing ranges never alias.
unsafe impl Send for StreamRecv {}
unsafe impl Sync for StreamRecv {}

impl StreamRecv {
    /// The destination `base..base + total_len`, cut into `msgs`: a
    /// rendezvous in its one round, a partitioned stream before its first.
    pub(crate) fn new(
        base: *mut u8,
        total_len: usize,
        msgs: Vec<(usize, usize)>,
        landed: Arc<[AtomicU64]>,
        done: Arc<Completion>,
        vreq: Option<u16>,
        one_round: bool,
    ) -> Arc<StreamRecv> {
        Arc::new(StreamRecv {
            base,
            total_len,
            msgs,
            landed,
            done,
            vreq,
            one_round,
            id: OnceLock::new(),
            ledger: Mutex::new((u64::from(one_round), Vec::new())),
        })
    }

    /// Open round `round`: an empty ledger, `done` re-armed. The
    /// previous round landed whole, so no commit can race this.
    fn open(&self, round: u64) {
        let mut ledger = self.ledger.lock();
        ledger.0 = round;
        ledger.1.clear();
        self.done.reset();
    }
}

/// What meets in a [`PartPair`]: a started stream, or an announcement.
type Meeting = Result<Arc<StreamRecv>, (u64, usize)>;

/// FIFO pairing of incoming `PartRts`s with started streams for one
/// `(src, ctx)` partitioned pair — whichever side shows up first waits.
#[derive(Default)]
struct PartPair {
    /// Streams announced by the sender, not yet started: `(id, len)`.
    pending_rts: VecDeque<(u64, usize)>,
    /// Streams the receiver started, not yet announced.
    waiting: VecDeque<Arc<StreamRecv>>,
}

type WinSlot = (Arc<Completion>, Option<usize>);
type GetWaiter = (Arc<Completion>, Arc<Mutex<Option<Vec<u8>>>>);

/// The protocol engine of one rank process (see the module docs). Every
/// method that can send takes the [`Fabric`] it serves, so the engine
/// needs no back-reference.
pub(crate) struct WireProtocol {
    carrier: Arc<dyn Transport>,
    rank: usize,
    n_ranks: usize,
    next_rdv_id: AtomicU64,
    /// Sender side: open streams (partitioned sends and rendezvous), by
    /// stream id, for the credit handler.
    streams_out: Mutex<HashMap<u64, Arc<StreamSend>>>,
    /// Receiver side: RTS/start pairing per partitioned (src, ctx) pair.
    part_registry: Mutex<HashMap<(usize, u64), PartPair>>,
    /// Receiver side: paired streams taking ranges, by (src, id).
    streams_in: Mutex<HashMap<(usize, u64), Arc<StreamRecv>>>,
    /// This process's barrier generation counter (SPMD-aligned).
    barrier_gen: AtomicU64,
    /// Rank 0 only: which ranks arrived per generation. A set, not a
    /// count: a peer that sends its `BarrierArrive` twice must not
    /// double-count.
    arrivals: Mutex<HashMap<u64, HashSet<usize>>>,
    /// Release completions per generation (waiter or release creates).
    releases: Mutex<HashMap<u64, Arc<Completion>>>,
    /// Window announcements: completion + announced length per win ctx.
    win_slots: Mutex<HashMap<u64, WinSlot>>,
    next_get_token: AtomicU64,
    /// In-flight gets: completion + landing slot per token.
    get_waiters: Mutex<HashMap<u64, GetWaiter>>,
    abort_sent: AtomicBool,
}

impl WireProtocol {
    /// An engine over `carrier`. In-process universes get one too (over
    /// the stub carrier); nothing in it is ever called there.
    pub(crate) fn new(n_ranks: usize, carrier: Arc<dyn Transport>) -> WireProtocol {
        WireProtocol {
            rank: carrier.local_rank().unwrap_or(0),
            n_ranks,
            carrier,
            next_rdv_id: AtomicU64::new(0),
            streams_out: Mutex::new(HashMap::new()),
            part_registry: Mutex::new(HashMap::new()),
            streams_in: Mutex::new(HashMap::new()),
            barrier_gen: AtomicU64::new(0),
            arrivals: Mutex::new(HashMap::new()),
            releases: Mutex::new(HashMap::new()),
            win_slots: Mutex::new(HashMap::new()),
            next_get_token: AtomicU64::new(0),
            get_waiters: Mutex::new(HashMap::new()),
            abort_sent: AtomicBool::new(false),
        }
    }

    /// What moves this engine's bytes.
    pub(crate) fn carrier(&self) -> &dyn Transport {
        &*self.carrier
    }

    /// The rank this process hosts (0 in-process, where it is unused).
    #[inline]
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// One ordered control frame toward `dst`.
    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame) {
        self.carrier.send(fabric, dst, frame, false);
    }

    /// A fresh id for a stream this process sends.
    pub(crate) fn stream_id(&self) -> u64 {
        // ORDERING: id allocator — only uniqueness matters; the id
        // reaches the peer inside the announcing frame, not via memory.
        self.next_rdv_id.fetch_add(1, Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Point-to-point: eager, and rendezvous as a one-message stream.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Ship an eager payload to a remote rank, moved into its frame.
    pub(crate) fn ship_eager(
        &self,
        fabric: &Fabric,
        dst: usize,
        shard: usize,
        ctx: u64,
        tag: i64,
        payload: Vec<u8>,
    ) {
        let frame = Frame::Eager {
            shard: shard as u16,
            ctx,
            tag,
            payload,
        };
        self.send(fabric, dst, frame);
    }

    /// Ship a rendezvous: a stream of one message over the pinned
    /// `data`, announced by an `Rts` the receiver matches like any
    /// message. Its one span sets `done` once the last byte has left.
    /// An empty message has nothing to pin or stream: it travels as one
    /// `Eager` frame and `done` is set at once.
    #[allow(clippy::too_many_arguments)] // one per envelope field
    pub(crate) fn ship_rts(
        &self,
        fabric: &Fabric,
        dst: usize,
        shard: usize,
        ctx: u64,
        tag: i64,
        data: &[u8],
        done: &Arc<Completion>,
    ) {
        let len = data.len();
        if len == 0 {
            self.ship_eager(fabric, dst, shard, ctx, tag, Vec::new());
            done.set();
            return;
        }
        let (id, stamp) = (self.stream_id(), Arc::new([AtomicU64::new(0)]));
        let one = std::iter::once((0, len, 1));
        let s = StreamSend::new(id, dst, data.as_ptr(), one, stamp, done, None, true);
        let rts = Frame::Rts {
            shard: shard as u16,
            ctx,
            tag,
            len: len as u64,
            rdv_id: id,
        };
        self.open_stream(fabric, &s, rts);
        // Its one message, in round 1, shipped by whichever of this issue
        // and the credit claims it; with no look at the peer: the `Rts`
        // has only just left.
        if s.claims.issue(&s.issued, 0, 1) {
            self.ship(fabric, &s, 0);
        }
    }

    /// Receiver: a matched rendezvous `Rts`. The posted buffer becomes
    /// the destination of the one-round stream it announced (whose
    /// envelope is known now: the data only completes it), and the
    /// round's credit goes back.
    pub(crate) fn accept_remote_rdv(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        len: usize,
        posted: PostedRecv,
        tag: i64,
    ) {
        *posted.info.lock() = Some(MsgInfo { src, tag, len });
        let (base, done, vreq) = (posted.dest_ptr, posted.completion, posted.verify_msg);
        let (landed, vreq) = (Arc::new([AtomicU64::new(0)]), vreq.map(|(req, _)| req));
        let s = StreamRecv::new(base, len, vec![(0, len)], landed, done, vreq, true);
        if self.pair(fabric, src, rdv_id, len, &s) {
            self.release_cts(fabric, src, rdv_id, &s);
        }
    }

    /// For the auditor: stream `id` between us and `peer` was announced
    /// (`tx` on its sender).
    fn note_rts(&self, fabric: &Fabric, peer: usize, id: u64, total_len: u64, tx: bool) {
        let (peer, stream) = (peer as u16, id as u32);
        let rts = || EventKind::VerifyStreamRts {
            peer,
            tx,
            stream,
            total_len,
        };
        fabric.trace().emit_verify(self.rank as u16, rts);
    }

    /// For the auditor: a credit of stream `id` between us and `peer`
    /// (`tx` on its receiver, which sends it).
    fn note_cts(&self, fabric: &Fabric, peer: usize, id: u64, tx: bool) {
        let (peer, stream) = (peer as u16, id as u32);
        let cts = || EventKind::VerifyStreamCts {
            peer,
            tx,
            stream,
            epoch: 0,
        };
        fabric.trace().emit_verify(self.rank as u16, cts);
    }
}

// ---------------------------------------------------------------------
// Partitioned streams: pairing once, credits as posts, receive ledger.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Sender: start round `round` of stream `s` on `ctx`. The first
    /// announces it with the request's one `PartRts`; every round re-arms
    /// its span, whose `done` (re-armed by the caller) fires once the
    /// round's last byte has left.
    pub(crate) fn part_send_start(
        &self,
        fabric: &Fabric,
        ctx: u64,
        s: &Arc<StreamSend>,
        round: u64,
    ) {
        // ORDERING: no mover counts a byte of the round off before it
        // claims a message stamped with the round, after this store.
        s.span.remaining.store(s.total_len, Ordering::Relaxed);
        if round > 1 {
            return;
        }
        let (total_len, rdv_id) = (s.total_len as u64, s.id);
        let rts = Frame::PartRts {
            ctx,
            total_len,
            rdv_id,
        };
        self.open_stream(fabric, s, rts);
        let trace = fabric.trace();
        if let Some(req) = s.vreq.filter(|_| trace.is_verify()) {
            // Tie this process's interned request id to the stream id,
            // per message, once, as the receiver's pairing does.
            for (m, c) in s.msgs.iter().enumerate() {
                trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamMsg {
                    stream: rdv_id as u32,
                    req,
                    msg: m as u16,
                    tx: true,
                    offset: c.offset,
                    len: c.len as u32,
                });
            }
        }
    }

    /// Register stream `s` and send its announcement: registered first,
    /// so a fast credit finds it.
    fn open_stream(&self, fabric: &Fabric, s: &Arc<StreamSend>, announce: Frame) {
        self.streams_out.lock().insert(s.id, Arc::clone(s));
        self.note_rts(fabric, s.dst, s.id, s.total_len as u64, true);
        self.send(fabric, s.dst, announce);
    }

    /// Sender: the request of stream `s` drops in round `round`. The
    /// stream leaves the tables, and the closer claims every message
    /// still unclaimed in the round and counts its bytes off the span:
    /// a drain of `done` then waits only for what a carrier holds.
    pub(crate) fn part_send_close(&self, s: &StreamSend, round: u64) {
        if round == 0 {
            return; // never started, so never announced
        }
        self.streams_out.lock().remove(&s.id);
        for (m, chunk) in s.msgs.iter().enumerate() {
            if s.claims.claim(m, round) {
                s.span.left(chunk.len);
            }
        }
    }

    /// Sender: message `m` of stream `s` was issued in round `round`
    /// (its partitions are pinned, not copied, until the span's `done`
    /// fires). It ships at once if the round's credit is in, else when
    /// the credit arrives. Runs on an app thread (inside `pready`): no
    /// lock, no allocation.
    pub(crate) fn part_issue(&self, fabric: &Fabric, s: &StreamSend, m: usize, round: u64) {
        if s.claims.issue(&s.issued, m, round) {
            return self.ship(fabric, s, m);
        }
        // The credit may have arrived while the caller computed: an empty
        // burst is one inline look at the peer, which finds it, and its
        // handler ships this message.
        self.carrier.poll_burst(fabric, Some(s.dst), &[]);
    }

    /// Hand message `m` of `s`, which the caller claimed, to the carrier
    /// as one chunk; a rendezvous, whose one message it is, retires.
    fn ship(&self, fabric: &Fabric, s: &StreamSend, m: usize) {
        if s.one_round {
            self.streams_out.lock().remove(&s.id);
        }
        let chunk = s.msgs[m];
        let (parts, offset, bytes) = (chunk.parts, chunk.offset, chunk.len as u64);
        fabric
            .trace()
            .emit(self.rank as u16, || EventKind::StreamChunk {
                lane: 0,
                parts,
                offset,
                bytes,
            });
        // ORDERING: stored before the post of the credit this claim saw.
        let grant = Some(s.grant.load(Ordering::Relaxed)).filter(|&g| g != NO_GRANT);
        self.carrier
            .ship_chunk(fabric, s.dst, s.id, grant, &s.span, chunk);
    }

    /// Receiver: open round `round` of `stream` from `src` on `ctx` and
    /// send its credit. The first round pairs the stream with the
    /// sender's one `PartRts` instead, and the pairing sends that credit.
    pub(crate) fn part_recv_start(
        &self,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        stream: &Arc<StreamRecv>,
        round: u64,
    ) {
        stream.open(round);
        match stream.id.get() {
            Some(&id) => self.release_cts(fabric, src, id, stream),
            None => self.meet(fabric, src, ctx, Ok(Arc::clone(stream))),
        }
    }

    /// Receiver: a started stream (`Ok`) or an announcement `(id, len)`
    /// (`Err`) of pair `(src, ctx)` meets the oldest of the other kind
    /// (FIFO, as bindings pair) and sends the first credit, or waits.
    fn meet(&self, fabric: &Fabric, src: usize, ctx: u64, side: Meeting) {
        let paired = {
            let mut reg = self.part_registry.lock();
            let pair = reg.entry((src, ctx)).or_default();
            let (stream, (id, len)) = match side {
                Ok(stream) => match pair.pending_rts.pop_front() {
                    Some(rts) => (stream, rts),
                    None => return pair.waiting.push_back(stream),
                },
                Err(rts) => match pair.waiting.pop_front() {
                    Some(stream) => (stream, rts),
                    None => return pair.pending_rts.push_back(rts),
                },
            };
            // Under the lock: a closing request sees its stream waiting
            // or paired, never in between.
            self.pair(fabric, src, id, len, &stream)
                .then_some((stream, id))
        };
        if let Some((stream, id)) = paired {
            self.release_cts(fabric, src, id, &stream);
        }
    }

    /// Receiver: the request of `stream` from `src` on `ctx` drops, and
    /// the stream leaves the tables, paired or still waiting.
    pub(crate) fn part_recv_close(&self, src: usize, ctx: u64, stream: &Arc<StreamRecv>) {
        let mut reg = self.part_registry.lock();
        if let Some(id) = stream.id.get() {
            self.streams_in.lock().remove(&(src, *id));
        } else if let Some(pair) = reg.get_mut(&(src, ctx)) {
            pair.waiting.retain(|s| !Arc::ptr_eq(s, stream));
        }
    }

    /// Receiver: validate `stream` against the announcement of stream
    /// `rdv_id`, `total_len` bytes, and take its ranges from now on.
    fn pair(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        total_len: usize,
        stream: &Arc<StreamRecv>,
    ) -> bool {
        if stream.total_len != total_len {
            fabric.fail(PcommError::misuse(
                src,
                format!(
                    "partitioned stream length mismatch: sender announced {total_len} B, \
                     receiver pinned {} B",
                    stream.total_len
                ),
            ));
            return false;
        }
        let trace = fabric.trace();
        if let Some(req) = stream.vreq.filter(|_| trace.is_verify()) {
            // The receiver is the only side that knows both the wire
            // stream id and the verify-layer (req, msg) identities; these
            // join events, once per stream, let the offline auditor unify
            // the two ranks' independently-interned request ids.
            for (m, &(offset, len)) in stream.msgs.iter().enumerate() {
                let (offset, len) = (offset as u64, len as u32);
                trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamMsg {
                    stream: rdv_id as u32,
                    req,
                    msg: m as u16,
                    tx: false,
                    offset,
                    len,
                });
            }
        }
        let _ = stream.id.set(rdv_id);
        self.streams_in
            .lock()
            .insert((src, rdv_id), Arc::clone(stream));
        true
    }

    /// Receiver: credit `src` with the open round of stream `rdv_id`.
    fn release_cts(&self, fabric: &Fabric, src: usize, rdv_id: u64, stream: &StreamRecv) {
        self.note_cts(fabric, src, rdv_id, true);
        self.carrier
            .ship_part_cts(fabric, src, rdv_id, stream.base, stream.total_len);
    }

    /// Sender: one more credit, the receiver's post of the sender's next
    /// round: it claims and ships every message already issued in it.
    /// `grant` is what the carrier's credit carried beyond the stream id
    /// (an offset into receiver-visible memory of `grant_cap` bytes, or
    /// nothing); it is the peer's word, so the whole stream must fit
    /// under the cap before it is stored.
    pub(crate) fn handle_part_cts(
        &self,
        fabric: &Fabric,
        peer: usize,
        rdv_id: u64,
        grant: Option<u64>,
        grant_cap: u64,
    ) {
        if fabric.aborted() {
            return;
        }
        self.note_cts(fabric, peer, rdv_id, false);
        let Some(s) = self.streams_out.lock().get(&rdv_id).cloned() else {
            return; // post-abort straggler, or its request dropped
        };
        let total = s.total_len as u64;
        if grant.is_some_and(|g| g.checked_add(total).is_none_or(|end| end > grant_cap)) {
            fabric.fail(PcommError::misuse(
                peer,
                format!(
                    "partitioned stream grant {grant:?} for {total} B exceeds the \
                     {grant_cap}-byte arena"
                ),
            ));
            return;
        }
        debug_assert_eq!(s.dst, peer, "PartCts must come from the stream's receiver");
        // ORDERING: published by the post's SeqCst store below.
        s.grant.store(grant.unwrap_or(NO_GRANT), Ordering::Relaxed);
        // Credits come one round apart: the receiver credits round k only
        // once round k − 1 landed, which took the post of credit k − 1.
        let round = s.claims.posted() + 1;
        s.claims
            .post(round, &s.issued, |m| self.ship(fabric, &s, m));
    }

    /// Receiver: the range `offset..offset+len` of stream `rdv_id` is
    /// arriving. Unless it misses the destination or an open round (both
    /// `Misuse`), or the stream is gone, let `fill` put bytes in the
    /// destination (a socket read, a copy out of the ring, or nothing when
    /// the sender wrote them in place) and commit as many as it says,
    /// with whether they landed the round. `Ok(None)`: the caller
    /// discards the bytes. A socket lands a range in pieces, each its
    /// own commit.
    pub(crate) fn land_part(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<Option<(usize, bool)>> {
        let stream = self.streams_in.lock().get(&(src, rdv_id)).cloned();
        let Some(stream) = stream.filter(|_| !fabric.aborted()) else {
            return Ok(None);
        };
        let total = stream.total_len;
        let detail = if offset.checked_add(len).is_none_or(|end| end > total) {
            format!("partitioned stream range {offset}+{len} overflows a {total}-byte destination")
        } else if covers(&stream.ledger.lock().1, 0, total) {
            format!("partitioned stream {rdv_id} sent {offset}+{len} with no open credit")
        } else {
            // SAFETY: the destination is pinned while the stream is in the
            // tables (`StreamRecv`'s contract), the range lies inside it,
            // and every byte belongs to one range on the wire: concurrent
            // landings never alias.
            let dest = unsafe { std::slice::from_raw_parts_mut(stream.base.add(offset), len) };
            let n = fill(dest)?.min(len);
            let landed = (n > 0 || len == 0)
                && self.commit_stream_range(fabric, src, rdv_id, &stream, offset, n);
            return Ok(Some((n, landed)));
        };
        fabric.fail(PcommError::misuse(src, detail));
        Ok(None)
    }

    /// Receiver: the bytes of `offset..offset+len` are in the pinned
    /// destination — stamp every message the range finishes with the
    /// round, and set the stream's completion once the round landed
    /// whole (a rendezvous then retires); returns whether these bytes
    /// landed it.
    fn commit_stream_range(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        offset: usize,
        len: usize,
    ) -> bool {
        let trace = fabric.trace();
        let (rank, p16, stream32) = (self.rank as u16, src as u16, rdv_id as u32);
        // Recorded before the dedup claim: the auditor's FSM pass wants
        // every range the wire delivered, duplicates included (replay
        // absorption is exactly what the ledger pass proves).
        trace.emit_verify(rank, || EventKind::VerifyStreamData {
            peer: p16,
            lane: 0,
            tx: false,
            stream: stream32,
            offset: offset as u64,
            len: len as u32,
        });
        // Only bytes new to the round's ledger count. Its lock orders
        // every committer's bytes before the stamps and the completion.
        let mut ledger = stream.ledger.lock();
        let (round, committed) = &mut *ledger;
        let fresh = claim_range(committed, offset, offset + len);
        let fresh_bytes: usize = fresh.iter().map(|&(lo, hi)| hi - lo).sum();
        if fresh_bytes == 0 {
            return false; // pure duplicate: every byte landed before
        }
        for &(f_lo, f_hi) in &fresh {
            trace.emit_verify(rank, || EventKind::VerifyStreamCommit {
                peer: p16,
                lane: 0,
                stream: stream32,
                lo: f_lo as u64,
                len: (f_hi - f_lo) as u32,
            });
        }
        let mut msgs_done = 0u16;
        for (m, &(lo, n)) in stream.msgs.iter().enumerate() {
            // Finished here: fresh bytes in it, and now covered whole.
            let hit = fresh.iter().any(|&(f_lo, f_hi)| lo < f_hi && f_lo < lo + n);
            if hit && covers(committed, lo, lo + n) {
                if let Some(req) = stream.vreq {
                    // Before the stamp: the analyzer orders the buffer
                    // write before any parrived / wait edge it enables.
                    trace.emit_verify(rank, || EventKind::VerifyMsgRecv {
                        req,
                        msg: m as u16,
                        tid: pcomm_trace::current_tid(),
                        eager: false,
                    });
                }
                stream.landed[m].store(*round, Ordering::Release);
                fabric.count_matched(1);
                msgs_done += 1;
            }
        }
        let landed = covers(committed, 0, stream.total_len);
        drop(ledger);
        trace.emit(rank, || EventKind::StreamCommit {
            lane: 0,
            msgs: msgs_done,
            offset: offset as u64,
            bytes: fresh_bytes as u64,
        });
        if landed {
            if stream.one_round {
                self.streams_in.lock().remove(&(src, rdv_id));
            }
            stream.done.set();
        }
        landed
    }
}

// ---------------------------------------------------------------------
// Barrier (rank 0 coordinates) and the closing barrier of teardown.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Get-or-create the release completion for barrier generation
    /// `gen` (the progress context and the waiting rank race to create
    /// it).
    fn release_completion(&self, gen: u64) -> Arc<Completion> {
        Arc::clone(self.releases.lock().entry(gen).or_default())
    }

    /// Rank 0: record `from`'s arrival for `gen`; on the last distinct
    /// one, broadcast the release and complete the local waiter. Keyed
    /// by rank, not counted: the arrival is the peer's word.
    fn note_arrival(&self, fabric: &Fabric, gen: u64, from: usize) {
        debug_assert_eq!(self.rank, 0, "only rank 0 coordinates barriers");
        let all_in = {
            let mut arrivals = self.arrivals.lock();
            let ranks = arrivals.entry(gen).or_default();
            ranks.insert(from);
            if ranks.len() == self.n_ranks {
                arrivals.remove(&gen);
                true
            } else {
                false
            }
        };
        if all_in {
            for peer in 1..self.n_ranks {
                self.send(fabric, peer, Frame::BarrierRelease { gen });
            }
            self.release_completion(gen).set();
        }
    }

    /// Enter the next barrier generation: arrive, and return the
    /// generation with the completion its release sets.
    fn arrive(&self, fabric: &Fabric) -> (u64, Arc<Completion>) {
        // ORDERING: generation allocator — only uniqueness matters; the
        // value travels to peers inside frames, not via memory.
        let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
        let completion = self.release_completion(gen);
        if self.rank == 0 {
            self.note_arrival(fabric, gen, 0);
        } else {
            self.send(fabric, 0, Frame::BarrierArrive { gen });
        }
        (gen, completion)
    }

    /// Cross-process barrier (rank 0 coordinates).
    pub(crate) fn barrier(&self, fabric: &Fabric, rank: usize) {
        let (gen, completion) = self.arrive(fabric);
        fabric.wait_on(&completion, rank, || {
            (format!("barrier (generation {gen})"), None, None)
        });
        self.releases.lock().remove(&gen);
    }

    /// Shut the wire down after the rank's closure returned. Clean runs
    /// pass a closing barrier first — nobody says goodbye while a peer
    /// might still need them, and no stream message can be left
    /// unshipped (a receiver cannot reach the barrier until its data
    /// landed). Aborted runs skip the barrier and make sure the abort
    /// was broadcast. Then the carrier says `Bye` and stops its threads.
    /// Never unwinds: failures found here are recorded on the fabric.
    pub(crate) fn finalize(&self, fabric: &Fabric) {
        if !fabric.aborted() {
            let (gen, completion) = self.arrive(fabric);
            let deadline = Instant::now() + FINALIZE_TIMEOUT;
            // The carrier owns the park, as in `Fabric::wait_on`, so a
            // polling carrier keeps making progress here.
            while !self.carrier.wait_slice(fabric, &completion) && !fabric.aborted() {
                if Instant::now() >= deadline {
                    fabric.fail(PcommError::Misuse {
                        rank: Some(self.rank),
                        detail: format!(
                            "finalize barrier timed out after {FINALIZE_TIMEOUT:?}: \
                             some rank process neither finished nor aborted"
                        ),
                    });
                    break;
                }
            }
            self.releases.lock().remove(&gen);
        }
        if fabric.aborted() {
            // Usually already broadcast by the `fail` that aborted us;
            // `abort_sent` dedupes. Covers failures recorded before the
            // carrier was started.
            if let Some(err) = fabric.failure_snapshot() {
                self.broadcast_abort(fabric, &err);
            }
        }
        self.carrier.close(fabric);
    }
}

// ---------------------------------------------------------------------
// RMA: window announcements, puts, gets.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Announce a window's length to its remote origin.
    pub(crate) fn announce_win(&self, fabric: &Fabric, origin: usize, win_ctx: u64, len: usize) {
        let len = len as u64;
        self.send(fabric, origin, Frame::WinAnnounce { win_ctx, len });
    }

    /// Get-or-create the announcement slot of `win_ctx` (the waiter and
    /// the `WinAnnounce` handler race to create it).
    fn win_slot(&self, win_ctx: u64, len: Option<usize>) -> Arc<Completion> {
        let mut slots = self.win_slots.lock();
        let slot = slots
            .entry(win_ctx)
            .or_insert_with(|| (Completion::new(), None));
        if len.is_some() {
            slot.1 = len;
        }
        Arc::clone(&slot.0)
    }

    /// Block until the remote target announced the window; returns its
    /// length.
    pub(crate) fn wait_win_announce(&self, fabric: &Fabric, rank: usize, win_ctx: u64) -> usize {
        let completion = self.win_slot(win_ctx, None);
        fabric.wait_on(&completion, rank, || {
            (format!("attach_win(ctx={win_ctx})"), None, None)
        });
        self.win_slots
            .lock()
            .get(&win_ctx)
            .and_then(|slot| slot.1)
            // PANIC: the completion waited on above is signalled only
            // by the WinAnnounce handler, which stores the length
            // before signalling.
            .expect("announced window carries a length")
    }

    /// One-sided put into a remote window.
    pub(crate) fn put(
        &self,
        fabric: &Fabric,
        target: usize,
        win_ctx: u64,
        offset: usize,
        data: &[u8],
    ) {
        let frame = Frame::Put {
            win_ctx,
            offset: offset as u64,
            payload: data.to_vec(),
        };
        self.send(fabric, target, frame);
    }

    /// One-sided get from a remote window (blocking round trip).
    pub(crate) fn get(
        &self,
        fabric: &Fabric,
        rank: usize,
        target: usize,
        win_ctx: u64,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        // ORDERING: token allocator — uniqueness only, the token rides
        // inside the GetReq frame.
        let token = self.next_get_token.fetch_add(1, Ordering::Relaxed);
        let completion = Completion::new();
        let slot: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        self.get_waiters
            .lock()
            .insert(token, (Arc::clone(&completion), Arc::clone(&slot)));
        let frame = Frame::GetReq {
            win_ctx,
            offset: offset as u64,
            len: len as u64,
            token,
        };
        self.send(fabric, target, frame);
        fabric.wait_on(&completion, rank, || {
            (
                format!("rma get({len} B from rank {target})"),
                None,
                Some(target),
            )
        });
        self.get_waiters.lock().remove(&token);
        let data = slot.lock().take();
        // PANIC: the completion waited on above is signalled only by
        // the GetResp handler, which fills the slot before signalling.
        data.expect("completed get carries its payload")
    }
}

// ---------------------------------------------------------------------
// Abort, diagnostics, and the one frame dispatch.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Tell every peer the universe failed (first broadcast wins;
    /// subsequent calls are no-ops). Sent as teardown traffic: it must
    /// leave even though the fabric is already aborted.
    pub(crate) fn broadcast_abort(&self, fabric: &Fabric, err: &PcommError) {
        if self.abort_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let frame = encode_abort(err);
        for peer in (0..self.n_ranks).filter(|&p| p != self.rank) {
            self.carrier.send(fabric, peer, frame.clone(), true);
        }
    }

    /// Per-peer health for stall reports: the carrier's view of each
    /// connection plus the streams this engine still waits on a credit
    /// for (a message issued in a round the receiver has not posted).
    pub(crate) fn peer_states(&self) -> Vec<PeerSocketState> {
        let mut states = self.carrier.peer_states();
        let streams = self.streams_out.lock();
        for p in &mut states {
            let waits = |s: &&Arc<StreamSend>| {
                let posted = s.claims.posted();
                s.dst == p.peer && s.issued.iter().any(|k| k.load(Ordering::Acquire) > posted)
            };
            p.pending_rdv = streams.values().filter(waits).count();
        }
        states
    }

    /// Dispatch one frame received from `peer`. Returns `false` when the
    /// peer said goodbye.
    pub(crate) fn dispatch(&self, fabric: &Fabric, peer: usize, frame: Frame) -> bool {
        match frame {
            Frame::Eager {
                shard,
                ctx,
                tag,
                payload,
            } => fabric.deliver_wire_eager(peer, shard as usize, ctx, tag, payload),
            // An empty message travels eager: an empty stream would
            // never land a byte, and its receive would never complete.
            Frame::Rts { len: 0, .. } => fabric.fail(PcommError::misuse(
                peer,
                "peer announced an empty rendezvous",
            )),
            Frame::Rts {
                shard,
                ctx,
                tag,
                len,
                rdv_id,
            } => {
                self.note_rts(fabric, peer, rdv_id, len, false);
                fabric.deliver_wire_rts(peer, shard as usize, ctx, tag, len as usize, rdv_id);
            }
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => {
                self.note_rts(fabric, peer, rdv_id, total_len, false);
                self.meet(fabric, peer, ctx, Err((rdv_id, total_len as usize)));
            }
            Frame::PartCts { rdv_id } => self.handle_part_cts(fabric, peer, rdv_id, None, 0),
            Frame::PartData {
                rdv_id,
                offset,
                payload,
            } => {
                let (offset, len) = (offset as usize, payload.len());
                let _ = self.land_part(fabric, peer, rdv_id, offset, len, |dest| {
                    dest.copy_from_slice(&payload);
                    Ok(len)
                });
            }
            Frame::BarrierArrive { gen } => self.note_arrival(fabric, gen, peer),
            Frame::BarrierRelease { gen } => self.release_completion(gen).set(),
            // Liveness and the socket carrier's ack: the carrier's own.
            Frame::Heartbeat { .. } => {}
            Frame::Abort {
                kind,
                a,
                b,
                tag,
                attempts,
                detail,
            } => fabric.fail_from_wire(decode_abort(kind, a, b, tag, attempts, detail)),
            Frame::Bye => return false,
            Frame::WinAnnounce { win_ctx, len } => {
                self.win_slot(win_ctx, Some(len as usize)).set();
            }
            Frame::Put {
                win_ctx,
                offset,
                payload,
            } => fabric.apply_remote_put(peer, win_ctx, offset, &payload),
            Frame::GetReq {
                win_ctx,
                offset,
                len,
                token,
            } => match fabric.read_win(win_ctx, offset, len) {
                Some(payload) => self.send(fabric, peer, Frame::GetResp { token, payload }),
                None => fabric.fail(PcommError::misuse(
                    peer,
                    format!("get of {len} B at offset {offset} misses window ctx {win_ctx}"),
                )),
            },
            Frame::GetResp { token, payload } => {
                let waiter = self.get_waiters.lock().get(&token).cloned();
                if let Some((completion, slot)) = waiter {
                    *slot.lock() = Some(payload);
                    completion.set();
                }
            }
            Frame::Hello { .. } => {} // mesh rendezvous only; stray copies ignored
        }
        true
    }
}

/// Whether `frame`'s handler in [`WireProtocol::dispatch`] answers with
/// a send of its own (CTS answers, stream releases, barrier releases,
/// get responses). A carrier whose sends can block on the very channel
/// it is draining (the ipc ring) must not run these under its inbound
/// guard.
pub(crate) fn answers_with_push(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Rts { .. }
            | Frame::PartRts { .. }
            | Frame::PartCts { .. }
            | Frame::GetReq { .. }
            | Frame::BarrierArrive { .. }
    )
}

/// Claim `[lo, hi)` against a sorted, disjoint interval ledger: merge
/// the range in and return the sub-ranges that were NOT already present
/// (the "fresh" bytes). An empty result means a pure duplicate.
fn claim_range(committed: &mut Vec<(usize, usize)>, lo: usize, hi: usize) -> Vec<(usize, usize)> {
    if lo >= hi {
        return Vec::new();
    }
    // First interval that could overlap or touch the claim.
    let first = committed.partition_point(|&(_, end)| end < lo);
    let mut fresh = Vec::new();
    let (mut merged_lo, mut merged_hi) = (lo, hi);
    let mut cursor = lo;
    let mut last = first;
    while last < committed.len() && committed[last].0 <= hi {
        let (s, e) = committed[last];
        if cursor < s {
            fresh.push((cursor, s.min(hi)));
        }
        cursor = cursor.max(e);
        merged_lo = merged_lo.min(s);
        merged_hi = merged_hi.max(e);
        last += 1;
    }
    if cursor < hi {
        fresh.push((cursor, hi));
    }
    committed.splice(first..last, std::iter::once((merged_lo, merged_hi)));
    fresh
}

/// Whether a ledger of [`claim_range`] covers `lo..hi`: it merges
/// touching intervals, so one of them must.
fn covers(committed: &[(usize, usize)], lo: usize, hi: usize) -> bool {
    let at = committed.partition_point(|&(_, end)| end <= lo);
    committed.get(at).is_some_and(|&(s, e)| s <= lo && hi <= e)
}

/// Encode a [`PcommError`] into the wire's `Abort` frame.
fn encode_abort(err: &PcommError) -> Frame {
    match err {
        PcommError::MessageLost {
            src,
            dst,
            tag,
            attempts,
        } => Frame::Abort {
            kind: ABORT_MESSAGE_LOST,
            a: *src as u64,
            b: *dst as u64,
            tag: *tag,
            attempts: *attempts as u64,
            detail: String::new(),
        },
        PcommError::PeerPanicked { rank, message } => Frame::Abort {
            kind: ABORT_PEER_PANICKED,
            a: *rank as u64,
            b: 0,
            tag: 0,
            attempts: 0,
            detail: message.clone(),
        },
        PcommError::Misuse {
            rank: Some(rank),
            detail,
        } => Frame::Abort {
            kind: ABORT_MISUSE_RANK,
            a: *rank as u64,
            b: 0,
            tag: 0,
            attempts: 0,
            detail: detail.clone(),
        },
        PcommError::Misuse { rank: None, detail } => Frame::Abort {
            kind: ABORT_MISUSE,
            a: 0,
            b: 0,
            tag: 0,
            attempts: 0,
            detail: detail.clone(),
        },
        // A stall report does not survive the wire structurally; peers
        // get the rendered text (their own runs were not the stalled
        // one, so a Misuse-grade message is the honest summary).
        PcommError::Stall(report) => Frame::Abort {
            kind: ABORT_MISUSE,
            a: 0,
            b: 0,
            tag: 0,
            attempts: 0,
            detail: format!("peer stalled: {report}"),
        },
    }
}

/// Decode a wire `Abort` frame back into a [`PcommError`].
fn decode_abort(kind: u8, a: u64, b: u64, tag: i64, attempts: u64, detail: String) -> PcommError {
    match kind {
        ABORT_MESSAGE_LOST => PcommError::MessageLost {
            src: a as usize,
            dst: b as usize,
            tag,
            attempts: attempts as u32,
        },
        ABORT_PEER_PANICKED => PcommError::PeerPanicked {
            rank: a as usize,
            message: detail,
        },
        ABORT_MISUSE_RANK => PcommError::Misuse {
            rank: Some(a as usize),
            detail,
        },
        _ => PcommError::Misuse { rank: None, detail },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What the engine asked its carrier to do, in order.
    #[derive(Debug, PartialEq)]
    enum Sent {
        Frame {
            dst: usize,
            frame: Frame,
            teardown: bool,
        },
        PartCts {
            src: usize,
            rdv_id: u64,
        },
        Chunk {
            dst: usize,
            rdv_id: u64,
            grant: Option<u64>,
            /// `(offset, len, parts)` of the chunk handed over.
            range: (u64, usize, u16),
        },
    }

    /// A carrier that moves nothing and records every call; a chunk it
    /// is handed counts as gone at once. Every peer looks healthy.
    struct Recorder {
        rank: usize,
        log: Mutex<Vec<Sent>>,
    }

    impl Transport for Recorder {
        fn local_rank(&self) -> Option<usize> {
            Some(self.rank)
        }

        fn start(self: Arc<Self>, _: &Arc<Fabric>) -> Result<(), PcommError> {
            Ok(())
        }

        fn send(&self, _: &Fabric, dst: usize, frame: Frame, teardown: bool) {
            self.log.lock().push(Sent::Frame {
                dst,
                frame,
                teardown,
            });
        }

        fn ship_part_cts(&self, _: &Fabric, src: usize, rdv_id: u64, _: *const u8, _: usize) {
            self.log.lock().push(Sent::PartCts { src, rdv_id });
        }

        fn ship_chunk(
            &self,
            _: &Fabric,
            dst: usize,
            rdv_id: u64,
            grant: Option<u64>,
            span: &Arc<SendSpan>,
            c: PinChunk,
        ) {
            span.left(c.len);
            self.log.lock().push(Sent::Chunk {
                dst,
                rdv_id,
                grant,
                range: (c.offset, c.len, c.parts),
            });
        }

        fn peer_states(&self) -> Vec<PeerSocketState> {
            let peer = |peer| PeerSocketState {
                peer,
                connected: true,
                frames_sent: 0,
                frames_received: 0,
                pending_rdv: 0,
                queued: 0,
                quiet_ms: 0,
            };
            (0..2).filter(|&p| p != self.rank).map(peer).collect()
        }

        fn close(&self, _: &Fabric) {}
    }

    /// A fabric of `n_ranks` whose local rank is `rank`, over a
    /// recording carrier.
    fn engine(n_ranks: usize, rank: usize) -> (Arc<Fabric>, Arc<Recorder>) {
        let carrier = Arc::new(Recorder {
            rank,
            log: Mutex::new(Vec::new()),
        });
        let fabric = Fabric::new_configured(
            n_ranks,
            1,
            1024,
            pcomm_trace::Trace::disabled(),
            None,
            Arc::clone(&carrier) as Arc<dyn Transport>,
        );
        (fabric, carrier)
    }

    fn taken(carrier: &Recorder) -> Vec<Sent> {
        std::mem::take(&mut *carrier.log.lock())
    }

    /// The typed failure of record, which must be a `Misuse` blaming
    /// `rank`; returns its text.
    fn misuse_of(fabric: &Fabric, rank: usize) -> String {
        match fabric.failure_snapshot() {
            Some(PcommError::Misuse {
                rank: Some(r),
                detail,
            }) if r == rank => detail,
            other => panic!("expected Misuse naming rank {rank}, got {other:?}"),
        }
    }

    /// A partitioned stream's destination over `buf`, cut into
    /// `msg_len`-byte messages.
    fn dest(buf: &mut [u8], msg_len: usize) -> Arc<StreamRecv> {
        let msgs: Vec<_> = (0..buf.len() / msg_len)
            .map(|m| (m * msg_len, msg_len))
            .collect();
        let landed = msgs.iter().map(|_| AtomicU64::new(0)).collect();
        let (base, len) = (buf.as_mut_ptr(), buf.len());
        StreamRecv::new(base, len, msgs, landed, Completion::new(), None, false)
    }

    /// A partitioned stream toward `dst` over `src`, cut into the
    /// `(offset, len, parts)` messages `msgs`, and its `done`.
    pub(crate) fn source(
        wire: &WireProtocol,
        dst: usize,
        src: &[u8],
        msgs: &[(usize, usize, u16)],
    ) -> (Arc<StreamSend>, Arc<Completion>) {
        let (id, done) = (wire.stream_id(), Completion::new());
        let issued = msgs.iter().map(|_| AtomicU64::new(0)).collect();
        let msgs = msgs.iter().copied();
        let s = StreamSend::new(id, dst, src.as_ptr(), msgs, issued, &done, None, false);
        (s, done)
    }

    /// Whether message `m` of `stream` landed in round `round`.
    fn landed(stream: &StreamRecv, m: usize, round: u64) -> bool {
        stream.landed[m].load(Ordering::Acquire) == round
    }

    /// Deliver what `from`'s engine (rank `from_rank`) asked its carrier
    /// to send into `to`'s engine, chunks as `PartData` cut out of `src`;
    /// returns how many `PartRts` and `PartCts` went.
    fn shuttle(from: &Recorder, from_rank: usize, to: &Fabric, src: &[u8]) -> (usize, usize) {
        let (mut rts, mut cts) = (0, 0);
        for sent in taken(from) {
            let frames = match sent {
                Sent::Frame { frame, .. } => {
                    rts += usize::from(matches!(frame, Frame::PartRts { .. }));
                    vec![frame]
                }
                Sent::PartCts { rdv_id, .. } => {
                    cts += 1;
                    vec![Frame::PartCts { rdv_id }]
                }
                Sent::Chunk {
                    rdv_id,
                    range: (at, len, _),
                    ..
                } => vec![part_data(rdv_id, at, &src[at as usize..][..len])],
            };
            for frame in frames {
                to.wire().dispatch(to, from_rank, frame);
            }
        }
        (rts, cts)
    }

    fn part_rts(total_len: usize, rdv_id: u64) -> Frame {
        Frame::PartRts {
            ctx: 7,
            total_len: total_len as u64,
            rdv_id,
        }
    }

    fn part_data(rdv_id: u64, offset: u64, payload: &[u8]) -> Frame {
        Frame::PartData {
            rdv_id,
            offset,
            payload: payload.to_vec(),
        }
    }

    /// Three rounds of one stream from rank 0 to rank 1, the receiver's
    /// start first (so from round 2 on its credit reaches the sender
    /// before the sender starts) and last: the first round costs the one
    /// `PartRts` and a `PartCts`, every later one a `PartCts` alone.
    #[test]
    fn a_partitioned_stream_pairs_once_and_then_costs_one_credit_per_round() {
        for receiver_first in [true, false] {
            let (tx, tx_log) = engine(2, 0);
            let (rx, rx_log) = engine(2, 1);
            let mut buf = vec![0u8; 64];
            let stream = dest(&mut buf, 32);
            let mut src = vec![0u8; 64];
            let (s, sent) = source(tx.wire(), 1, &src, &[(0, 32, 1), (32, 32, 1)]);
            for round in 1..=3u64 {
                src.fill(round as u8);
                let (mut rts, mut cts) = (0, 0);
                let mut count = |(r, c): (usize, usize)| (rts, cts) = (rts + r, cts + c);
                if receiver_first {
                    rx.wire().part_recv_start(&rx, 0, 7, &stream, round);
                    count(shuttle(&rx_log, 1, &tx, &src));
                }
                sent.reset();
                tx.wire().part_send_start(&tx, 7, &s, round);
                for m in 0..2 {
                    tx.wire().part_issue(&tx, &s, m, round);
                }
                if !receiver_first {
                    rx.wire().part_recv_start(&rx, 0, 7, &stream, round);
                }
                for _ in 0..3 {
                    count(shuttle(&tx_log, 0, &rx, &src));
                    count(shuttle(&rx_log, 1, &tx, &src));
                }
                assert_eq!((rts, cts), (usize::from(round == 1), 1), "round {round}");
                assert!(stream.done.is_set() && sent.is_set(), "round {round}");
                assert!(landed(&stream, 0, round) && landed(&stream, 1, round));
                assert_eq!(buf, src);
            }
            assert!(!tx.aborted() && !rx.aborted());
        }
    }

    /// Once a round landed whole, the next range of its stream has no
    /// credit to land under: `Misuse` naming the peer, and the landed
    /// round's bytes stay. After the abort, stragglers are discarded.
    #[test]
    fn a_range_for_a_landed_round_never_lands() {
        let (fabric, _carrier) = engine(2, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 64];
        let stream = dest(&mut buf, 32);
        wire.part_recv_start(&fabric, 1, 7, &stream, 1);
        wire.dispatch(&fabric, 1, part_rts(64, 4));
        wire.dispatch(&fabric, 1, part_data(4, 0, &[1; 64]));
        assert!(stream.done.is_set() && !fabric.aborted());
        wire.dispatch(&fabric, 1, part_data(4, 0, &[2; 8]));
        assert!(misuse_of(&fabric, 1).contains("no open credit"));
        wire.dispatch(&fabric, 1, part_data(4, 8, &[3; 8]));
        assert!(misuse_of(&fabric, 1).contains("no open credit"));
        assert_eq!(buf, vec![1u8; 64]);
    }

    /// Streams opened and dropped on both sides, paired or not, leave
    /// nothing in the engine's tables. A sender drops mid-round with up
    /// to three of its four messages issued ahead of the credit, the
    /// rest never, while the round's credit arrives: every message is
    /// counted off once, by the carrier it shipped on (here: at once) or
    /// by the close, so `done` is set and the span at zero, never below.
    #[test]
    fn a_thousand_open_drop_cycles_leave_no_stream_behind() {
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 64];
        let go = std::sync::Barrier::new(2);
        let msgs = [(0, 16, 1), (16, 16, 1), (32, 16, 1), (48, 16, 1)];
        for cycle in 0..1000u64 {
            let (s, done) = source(wire, 1, &buf, &msgs);
            wire.part_send_start(&fabric, 7, &s, 1);
            for m in 0..cycle as usize % 4 {
                wire.part_issue(&fabric, &s, m, 1);
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    go.wait();
                    wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: s.id });
                });
                go.wait();
                wire.part_send_close(&s, 1);
            });
            assert!(done.is_set(), "cycle {cycle}");
            assert_eq!(s.span.remaining.load(Ordering::Acquire), 0);
            let stream = dest(&mut buf, 32);
            wire.part_recv_start(&fabric, 1, 7, &stream, 1);
            if cycle % 2 == 0 {
                wire.dispatch(&fabric, 1, part_rts(64, cycle));
            }
            wire.part_recv_close(1, 7, &stream);
            taken(&carrier);
        }
        assert!(wire.streams_in.lock().is_empty());
        assert!(wire.streams_out.lock().is_empty());
        let reg = wire.part_registry.lock();
        assert!(reg
            .values()
            .all(|p| p.waiting.is_empty() && p.pending_rts.is_empty()));
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_replayed_barrier_arrive_does_not_release_early() {
        let (fabric, carrier) = engine(3, 0);
        let wire = fabric.wire();
        wire.dispatch(&fabric, 1, Frame::BarrierArrive { gen: 0 });
        wire.dispatch(&fabric, 1, Frame::BarrierArrive { gen: 0 });
        wire.dispatch(&fabric, 1, Frame::BarrierArrive { gen: 0 });
        assert!(taken(&carrier).is_empty(), "three arrivals, one rank");
        assert!(!wire.release_completion(0).is_set());
        wire.dispatch(&fabric, 2, Frame::BarrierArrive { gen: 0 });
        assert!(taken(&carrier).is_empty(), "rank 0 itself is still out");
        // The local arrival completes the set: released without waiting.
        wire.barrier(&fabric, 0);
        let release = |dst| Sent::Frame {
            dst,
            frame: Frame::BarrierRelease { gen: 0 },
            teardown: false,
        };
        assert_eq!(taken(&carrier), vec![release(1), release(2)]);
    }

    #[test]
    fn overlapping_commits_complete_each_message_once() {
        let (fabric, _carrier) = engine(2, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 64];
        let stream = dest(&mut buf, 32);
        wire.part_recv_start(&fabric, 1, 7, &stream, 1);
        wire.dispatch(&fabric, 1, part_rts(64, 9));
        let src: Vec<u8> = (0..64).collect();
        wire.dispatch(&fabric, 1, part_data(9, 0, &src[0..24]));
        wire.dispatch(&fabric, 1, part_data(9, 0, &src[0..24])); // pure duplicate
        assert_eq!(fabric.matched_count(), 0);
        wire.dispatch(&fabric, 1, part_data(9, 16, &src[16..40])); // overlaps both ways
        assert!(landed(&stream, 0, 1) && !landed(&stream, 1, 1));
        assert_eq!(fabric.matched_count(), 1);
        wire.dispatch(&fabric, 1, part_data(9, 8, &src[8..40])); // replay of landed bytes
        assert_eq!(
            fabric.matched_count(),
            1,
            "a replay completes nothing again"
        );
        assert!(!stream.done.is_set(), "24 bytes still missing");
        wire.dispatch(&fabric, 1, part_data(9, 32, &src[32..64]));
        assert!(landed(&stream, 1, 1));
        assert_eq!(fabric.matched_count(), 2);
        assert!(stream.done.is_set(), "the last fresh byte lands the round");
        assert_eq!(buf, src);
        assert!(!fabric.aborted());
    }

    #[test]
    fn stream_length_mismatch_is_misuse() {
        let (fabric, carrier) = engine(2, 0);
        let mut buf = vec![0u8; 64];
        let stream = dest(&mut buf, 32);
        fabric.wire().part_recv_start(&fabric, 1, 7, &stream, 1);
        fabric.wire().dispatch(&fabric, 1, part_rts(96, 1));
        assert!(misuse_of(&fabric, 1).contains("length mismatch"));
        assert!(
            !taken(&carrier)
                .iter()
                .any(|s| matches!(s, Sent::PartCts { .. })),
            "a refused stream is never cleared to send"
        );
    }

    #[test]
    fn stream_range_overflow_is_misuse() {
        for offset in [60u64, u64::MAX - 3] {
            let (fabric, _carrier) = engine(2, 0);
            let mut buf = vec![0u8; 64];
            let stream = dest(&mut buf, 32);
            fabric.wire().part_recv_start(&fabric, 1, 7, &stream, 1);
            fabric.wire().dispatch(&fabric, 1, part_rts(64, 1));
            fabric
                .wire()
                .dispatch(&fabric, 1, part_data(1, offset, &[1u8; 8]));
            assert!(misuse_of(&fabric, 1).contains("overflows a 64-byte destination"));
            assert_eq!(buf, vec![0u8; 64]);
        }
    }

    #[test]
    fn get_outside_its_window_is_misuse() {
        let (fabric, carrier) = engine(2, 0);
        let req = Frame::GetReq {
            win_ctx: 99,
            offset: 0,
            len: 8,
            token: 0,
        };
        fabric.wire().dispatch(&fabric, 1, req);
        assert!(misuse_of(&fabric, 1).contains("misses window ctx 99"));
        assert!(
            !taken(&carrier).iter().any(|s| matches!(
                s,
                Sent::Frame {
                    frame: Frame::GetResp { .. },
                    ..
                }
            )),
            "no response to a refused get"
        );
    }

    /// `offset` and `len` of a `Put` / `GetReq` are the peer's `u64`s:
    /// one that wraps the sum (an out-of-bounds write once the check
    /// passed, in release) and one that merely overruns the window by
    /// a byte are both typed `Misuse`, and neither touches the window.
    #[test]
    fn put_and_get_ranges_from_the_peer_are_bounds_checked() {
        let window = |fabric: &Fabric| {
            let mem = crate::rma::WinMem::new(16);
            fabric.register_win(7, Arc::clone(&mem));
            mem
        };
        for offset in [u64::MAX - 3, 9] {
            let (fabric, _) = engine(2, 0);
            let mem = window(&fabric);
            let put = Frame::Put {
                win_ctx: 7,
                offset,
                payload: vec![0xAB; 8],
            };
            fabric.wire().dispatch(&fabric, 1, put);
            let detail = misuse_of(&fabric, 1);
            assert!(detail.contains("overflows 16-byte window"), "{detail}");
            assert_eq!(mem.read_range(0, 16), [0u8; 16], "refused put landed");

            let (fabric, carrier) = engine(2, 0);
            window(&fabric);
            let get = Frame::GetReq {
                win_ctx: 7,
                offset,
                len: 8,
                token: 0,
            };
            fabric.wire().dispatch(&fabric, 1, get);
            let detail = misuse_of(&fabric, 1);
            assert!(detail.contains("misses window ctx 7"), "{detail}");
            let resp =
                |s: &Sent| matches!(s, Sent::Frame { frame, .. } if frame.name() == "GetResp");
            assert!(!taken(&carrier).iter().any(resp), "a refused get answered");
        }
        // The last in-bounds range still works.
        let (fabric, carrier) = engine(2, 0);
        let mem = window(&fabric);
        let put = Frame::Put {
            win_ctx: 7,
            offset: 8,
            payload: vec![0xAB; 8],
        };
        fabric.wire().dispatch(&fabric, 1, put);
        assert_eq!(mem.read_range(8, 8), [0xAB; 8]);
        let get = Frame::GetReq {
            win_ctx: 7,
            offset: 8,
            len: 8,
            token: 5,
        };
        fabric.wire().dispatch(&fabric, 1, get);
        assert!(fabric.failure_snapshot().is_none());
        let resp = Frame::GetResp {
            token: 5,
            payload: vec![0xAB; 8],
        };
        assert!(
            matches!(&taken(&carrier)[..], [Sent::Frame { dst: 1, frame, .. }] if *frame == resp)
        );
    }

    #[test]
    fn broadcast_abort_reaches_every_peer_once() {
        let (fabric, carrier) = engine(4, 2);
        let err = PcommError::misuse(2, "boom".to_string());
        fabric.fail(err.clone());
        fabric.wire().broadcast_abort(&fabric, &err); // latched: no second round
        let sent = taken(&carrier);
        let dsts: Vec<usize> = sent
            .iter()
            .map(|s| match s {
                Sent::Frame {
                    dst,
                    frame: Frame::Abort { .. },
                    teardown: true,
                } => *dst,
                other => panic!("expected a teardown Abort, got {other:?}"),
            })
            .collect();
        assert_eq!(dsts, vec![0, 1, 3]);
    }

    /// A receive from rank 1 (tag 4) posted over `buf`: its completion
    /// and the slot its envelope lands in.
    fn posted_from_1(
        fabric: &Fabric,
        buf: &mut [u8],
    ) -> (Arc<Completion>, Arc<Mutex<Option<MsgInfo>>>) {
        let (completion, info) = (Completion::new(), Arc::new(Mutex::new(None)));
        let posted = PostedRecv {
            ctx: 0,
            src: Some(1),
            tag: Some(4),
            dest_ptr: buf.as_mut_ptr(),
            dest_cap: buf.len(),
            info: Arc::clone(&info),
            completion: Arc::clone(&completion),
            verify_msg: None,
        };
        fabric.post_recv(0, 0, posted);
        (completion, info)
    }

    /// A rendezvous `Rts` from rank 1 (id 3, tag 4) for `buf.len()`
    /// bytes, announced and matched with a receive posted over `buf`.
    fn matched_rdv(
        fabric: &Fabric,
        buf: &mut [u8],
    ) -> (Arc<Completion>, Arc<Mutex<Option<MsgInfo>>>) {
        let posted = posted_from_1(fabric, buf);
        fabric.wire().dispatch(fabric, 1, rts(3, buf.len()));
        posted
    }

    fn rts(rdv_id: u64, len: usize) -> Frame {
        Frame::Rts {
            shard: 0,
            ctx: 0,
            tag: 4,
            len: len as u64,
            rdv_id,
        }
    }

    #[test]
    fn a_rendezvous_is_a_one_message_stream() {
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        // Sender: the `Rts` leaves with the whole buffer issued as one
        // message; the stream's CTS ships it, a replayed CTS nothing.
        let src = [7u8; 2048];
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &src, &done);
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: 0 });
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: 0 });
        let chunks = Sent::Chunk {
            dst: 1,
            rdv_id: 0,
            grant: None,
            range: (0, 2048, 1),
        };
        let frame = |frame| Sent::Frame {
            dst: 1,
            frame,
            teardown: false,
        };
        assert_eq!(taken(&carrier), vec![frame(rts(0, 2048)), chunks]);
        assert!(wire.streams_out.lock().is_empty());
        // Receiver: the matched `Rts` clears the sender to stream into
        // the posted buffer. A socket lands what it has — half the
        // range, then a reconnect replays it whole over the prefix.
        let mut buf = vec![0u8; 8];
        let (completion, info) = matched_rdv(&fabric, &mut buf);
        assert_eq!(taken(&carrier), vec![Sent::PartCts { src: 1, rdv_id: 3 }]);
        wire.dispatch(&fabric, 1, part_data(3, 0, &[1, 2, 3, 4]));
        assert!(!completion.is_set());
        wire.dispatch(&fabric, 1, part_data(3, 0, &[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(completion.is_set());
        let whole = MsgInfo {
            src: 1,
            tag: 4,
            len: 8,
        };
        assert_eq!(*info.lock(), Some(whole), "not prefix + whole");
        // The id is spent: a straggler lands nowhere.
        wire.dispatch(&fabric, 1, part_data(3, 0, &[9; 8]));
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(fabric.matched_count(), 1);
        assert!(!fabric.aborted());
    }

    #[test]
    fn an_empty_rendezvous_travels_eager() {
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &[], &done);
        assert!(done.is_set());
        let eager = Frame::Eager {
            shard: 0,
            ctx: 0,
            tag: 4,
            payload: Vec::new(),
        };
        let frame = Sent::Frame {
            dst: 1,
            frame: eager,
            teardown: false,
        };
        assert_eq!(taken(&carrier), vec![frame]);
        assert!(wire.streams_out.lock().is_empty(), "no stream opened");
        assert!(!fabric.aborted());
        // An `Rts` for no bytes would pin a receive that never
        // completes: the peer that sends one is refused.
        wire.dispatch(&fabric, 1, rts(3, 0));
        let detail = misuse_of(&fabric, 1);
        assert!(detail.contains("empty rendezvous"), "{detail}");
    }

    #[test]
    fn an_eager_message_is_one_buffer_from_sender_to_receive() {
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        let eager = |payload: Vec<u8>| Frame::Eager {
            shard: 0,
            ctx: 0,
            tag: 4,
            payload,
        };
        // Sender: completes at once, and the frame carries exactly the
        // sent bytes.
        let ticket = fabric.send_raw(1, 0, 0, 0, 4, &[1, 2, 3, 4, 5]);
        assert!(ticket.done().is_none());
        let shipped = Sent::Frame {
            dst: 1,
            frame: eager(vec![1, 2, 3, 4, 5]),
            teardown: false,
        };
        assert_eq!(taken(&carrier), vec![shipped]);
        // Receiver: a posted receive gets exactly `len` bytes and keeps
        // the rest of its buffer; an empty message still completes.
        for payload in [vec![9u8; 5], Vec::new()] {
            let len = payload.len();
            let mut buf = [0xEEu8; 8];
            let (completion, info) = posted_from_1(&fabric, &mut buf);
            wire.dispatch(&fabric, 1, eager(payload));
            assert!(completion.is_set(), "{len}-byte message completes");
            let envelope = MsgInfo {
                src: 1,
                tag: 4,
                len,
            };
            assert_eq!(*info.lock(), Some(envelope));
            assert!(buf[..len].iter().all(|&b| b == 9));
            assert!(buf[len..].iter().all(|&b| b == 0xEE), "past len untouched");
        }
        assert_eq!(fabric.matched_count(), 2);
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_rendezvous_range_from_the_peer_is_bounds_checked() {
        // `u64::MAX - 3` wraps `offset + len` in release builds; 6
        // simply runs past the end.
        for offset in [u64::MAX - 3, 6] {
            let (fabric, _carrier) = engine(2, 0);
            let mut buf = vec![0u8; 8];
            let (completion, _) = matched_rdv(&fabric, &mut buf);
            fabric
                .wire()
                .dispatch(&fabric, 1, part_data(3, offset, &[1; 4]));
            assert!(!completion.is_set());
            assert_eq!(buf, [0; 8]);
            let detail = misuse_of(&fabric, 1);
            assert!(
                detail.contains("overflows a 8-byte destination"),
                "{detail}"
            );
        }
    }

    #[test]
    fn a_stream_grant_must_fit_the_arena() {
        const ARENA: u64 = 1 << 20;
        // Past the arena by one byte, and an offset that overflows.
        let (src, msgs) = (vec![0u8; 4096], [(0, 1024, 1), (1024, 3072, 3)]);
        for grant in [ARENA - 4096 + 1, u64::MAX - 100] {
            let (fabric, carrier) = engine(2, 0);
            let wire = fabric.wire();
            let (s, _) = source(wire, 1, &src, &msgs);
            wire.part_send_start(&fabric, 7, &s, 1);
            wire.part_issue(&fabric, &s, 0, 1);
            taken(&carrier);
            wire.handle_part_cts(&fabric, 1, s.id, Some(grant), ARENA);
            assert!(misuse_of(&fabric, 1).contains("exceeds the 1048576-byte arena"));
            assert!(
                !taken(&carrier)
                    .iter()
                    .any(|s| matches!(s, Sent::Chunk { .. })),
                "nothing ships under a refused grant"
            );
        }
        // The largest grant that fits is accepted and ships the message
        // issued ahead of it.
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        let (s, done) = source(wire, 1, &src, &msgs);
        wire.part_send_start(&fabric, 7, &s, 1);
        wire.part_issue(&fabric, &s, 0, 1);
        taken(&carrier);
        wire.handle_part_cts(&fabric, 1, s.id, Some(ARENA - 4096), ARENA);
        let chunk = |range| Sent::Chunk {
            dst: 1,
            rdv_id: s.id,
            grant: Some(ARENA - 4096),
            range,
        };
        assert_eq!(taken(&carrier), vec![chunk((0, 1024, 1))]);
        // A credited issue ships straight under the same grant; the
        // stream outlives its round until its request drops.
        wire.part_issue(&fabric, &s, 1, 1);
        assert_eq!(taken(&carrier), vec![chunk((1024, 3072, 3))]);
        assert!(done.is_set());
        wire.part_send_close(&s, 1);
        assert!(wire.streams_out.lock().is_empty());
        assert!(!fabric.aborted());
    }

    #[test]
    fn abort_frames_roundtrip_the_error_taxonomy() {
        let cases = vec![
            PcommError::MessageLost {
                src: 1,
                dst: 0,
                tag: 9,
                attempts: 4,
            },
            PcommError::PeerPanicked {
                rank: 2,
                message: "boom".into(),
            },
            PcommError::Misuse {
                rank: Some(3),
                detail: "double pready".into(),
            },
            PcommError::Misuse {
                rank: None,
                detail: "verify findings".into(),
            },
        ];
        for err in cases {
            let Frame::Abort {
                kind,
                a,
                b,
                tag,
                attempts,
                detail,
            } = encode_abort(&err)
            else {
                panic!("encode_abort must produce Abort frames");
            };
            assert_eq!(decode_abort(kind, a, b, tag, attempts, detail), err);
        }
    }

    #[test]
    fn stall_decays_to_misuse_with_rendered_report() {
        let err = PcommError::Stall(Box::new(crate::error::StallReport {
            watchdog_ms: 100,
            quiet_ms: 150,
            finished_ranks: vec![],
            blocked: vec![],
            unmatched_posted: vec![],
            unmatched_unexpected: vec![],
            matched: 3,
            peers: vec![],
            doorbell: None,
        }));
        let Frame::Abort { kind, detail, .. } = encode_abort(&err) else {
            panic!("expected Abort");
        };
        assert_eq!(kind, ABORT_MISUSE);
        assert!(detail.contains("peer stalled"), "{detail}");
    }

    /// Each issue of a credited stream ships at once as one chunk at its
    /// own offset, length and `parts`, whatever its size: adjacent small
    /// messages stay apart and one past a gap waits for nothing. A
    /// rendezvous retires once its one message ships.
    #[test]
    fn every_issue_ships_as_one_chunk_and_a_whole_rendezvous_retires() {
        let (fabric, carrier) = engine(2, 0);
        let wire = fabric.wire();
        let src = vec![0u8; 4096 + (1 << 19)];
        let msgs = [
            (0, 100, 1),
            (100, 100, 1),
            (200, 3896, 3),
            (4096, 1 << 19, 8),
        ];
        let (s, done) = source(wire, 1, &src, &msgs);
        wire.part_send_start(&fabric, 7, &s, 1);
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: s.id });
        taken(&carrier);
        for m in [0, 1, 3, 2] {
            assert!(!done.is_set());
            wire.part_issue(&fabric, &s, m, 1);
            let (at, len, parts) = msgs[m];
            let chunk = Sent::Chunk {
                dst: 1,
                rdv_id: s.id,
                grant: None,
                range: (at as u64, len, parts),
            };
            assert_eq!(taken(&carrier), vec![chunk], "message {m}");
        }
        assert!(done.is_set(), "the round's last byte left");
        assert!(
            wire.streams_out.lock().contains_key(&s.id),
            "kept until closed"
        );
        wire.part_send_close(&s, 1);
        // A rendezvous: its one message waits behind the `Rts`, its
        // credit ships it, and the stream leaves the tables.
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &src[..100], &done);
        let rdv_id = s.id + 1;
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id });
        let sent = taken(&carrier);
        assert!(matches!(&sent[1], Sent::Chunk { range, .. } if *range == (0, 100, 1)));
        assert!(done.is_set() && wire.streams_out.lock().is_empty());
        assert!(!fabric.aborted());
    }

    /// A stall report counts a stream toward its receiver while one of
    /// its messages waits for the credit of the sender's round, and
    /// none once that credit is in: round after round, and for a
    /// rendezvous until its one credit.
    #[test]
    fn a_stall_report_counts_a_stream_waiting_for_its_rounds_credit() {
        let (fabric, _carrier) = engine(2, 0);
        let wire = fabric.wire();
        let pending = || wire.peer_states()[0].pending_rdv;
        let src = [0u8; 64];
        let (s, done) = source(wire, 1, &src, &[(0, 32, 1), (32, 32, 1)]);
        for round in 1..=3 {
            done.reset();
            wire.part_send_start(&fabric, 7, &s, round);
            assert_eq!(pending(), 0, "round {round}: nothing issued yet");
            wire.part_issue(&fabric, &s, 0, round);
            assert_eq!(pending(), 1, "round {round}: issued ahead of its credit");
            wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: s.id });
            assert_eq!(pending(), 0, "round {round}: credited");
            wire.part_issue(&fabric, &s, 1, round);
            assert!(done.is_set() && pending() == 0, "round {round}");
        }
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &src, &done);
        assert_eq!(pending(), 1, "a rendezvous before its credit");
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: s.id + 1 });
        assert!(done.is_set() && pending() == 0, "a rendezvous credited");
        wire.part_send_close(&s, 3);
    }

    #[test]
    fn span_completion_fires_exactly_when_a_span_is_fully_written() {
        let span = SendSpan {
            remaining: AtomicUsize::new(200),
            done: Completion::new(),
        };
        span.left(150);
        assert!(!span.done.is_set(), "a half-written round stays pending");
        span.left(0);
        assert!(!span.done.is_set(), "nothing left, nothing counted");
        span.left(50);
        assert!(span.done.is_set(), "the last byte out completes the round");
    }

    #[test]
    fn claim_range_reports_only_fresh_bytes() {
        let mut ledger = Vec::new();
        assert_eq!(claim_range(&mut ledger, 10, 20), vec![(10, 20)]);
        assert_eq!(ledger, vec![(10, 20)]);
        // Pure duplicate.
        assert!(claim_range(&mut ledger, 10, 20).is_empty());
        // Overlap on both sides.
        assert_eq!(claim_range(&mut ledger, 5, 25), vec![(5, 10), (20, 25)]);
        assert_eq!(ledger, vec![(5, 25)]);
        // Disjoint ranges stay separate and sorted.
        assert_eq!(claim_range(&mut ledger, 40, 50), vec![(40, 50)]);
        assert_eq!(claim_range(&mut ledger, 0, 2), vec![(0, 2)]);
        assert_eq!(ledger, vec![(0, 2), (5, 25), (40, 50)]);
        // A claim spanning several entries returns every gap and merges.
        assert_eq!(
            claim_range(&mut ledger, 1, 45),
            vec![(2, 5), (25, 40)],
            "gaps between existing intervals are the fresh bytes"
        );
        assert_eq!(ledger, vec![(0, 50)]);
        // Empty and inverted claims are no-ops.
        assert!(claim_range(&mut ledger, 7, 7).is_empty());
        assert_eq!(ledger, vec![(0, 50)]);
    }

    #[test]
    fn claim_range_merges_adjacent_intervals() {
        let mut ledger = vec![(0usize, 10usize), (10, 20)];
        // Touching (end == lo) intervals merge rather than duplicate.
        assert_eq!(claim_range(&mut ledger, 20, 30), vec![(20, 30)]);
        assert_eq!(ledger, vec![(0, 10), (10, 30)]);
        assert!(claim_range(&mut ledger, 0, 30).is_empty());
        assert_eq!(ledger, vec![(0, 30)]);
    }
}
