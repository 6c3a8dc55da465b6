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
//! * **Eager**: the payload travels in one `Eager` frame and enters the
//!   ordinary matching path ([`Fabric::deliver_wire_eager`]).
//! * **Rendezvous**: a partitioned stream of one message. The sender
//!   pins its buffer as a stream whose one span carries the send's
//!   completion, announced by an `Rts` that carries the match envelope
//!   instead of a pairing context. The receiver matches the `Rts` like
//!   any message; the posted buffer becomes the stream's destination and
//!   the stream's CTS goes back. From there the bytes move, land and
//!   complete exactly as below — replay absorption and the resync after a
//!   reconnect included — so every completion stays the same lock-free
//!   atomic as in-process. An empty message has no byte to stream and
//!   travels eager.
//! * **Partitioned streaming**: a wire-bound partitioned send announces
//!   its whole buffer with one `PartRts`; the receiver pins its whole
//!   destination, pairs the two FIFO per `(src, ctx)`, and answers a CTS
//!   (which a carrier with receiver-visible memory extends with a
//!   *grant*). From then on every `pready`-completed run of partitions is
//!   coalesced toward the carrier's aggregation threshold and shipped as
//!   an order-independent `offset..offset+len` range the moment it is
//!   ready. The source stays pinned (MPI forbids touching it between
//!   `start` and `wait`), so carriers move ranges straight out of
//!   application memory; a message's `sent` completion flips when its
//!   last byte has left. The receiver claims every landed range against
//!   the stream's interval ledger — the wire is at-least-once across a
//!   reconnect, so only never-seen bytes count — and flips the
//!   per-message completions whose ranges have fully landed: `parrived`
//!   goes true partition-by-partition across processes. After a
//!   reconnect both sides repeat the handshakes the dead socket may have
//!   taken, and the receiver reports what it misses, so loss the sender
//!   cannot replay is a typed error, not a wait.
//! * **Barrier**: rank 0 coordinates; everyone ships `BarrierArrive`,
//!   rank 0 broadcasts `BarrierRelease` for the generation. Arrivals are
//!   a set, not a count, so a replayed arrival cannot release early. The
//!   closing barrier of [`WireProtocol::finalize`] is one more
//!   generation under a hard deadline.
//! * **RMA**: windows announce their length to a remote origin; puts and
//!   gets become `Put`/`GetReq`/`GetResp` frames applied by the target's
//!   progress context. Per-peer control frames are FIFO, so every put of
//!   an epoch is applied before the completion message that follows it.
//! * **Abort**: the first local failure is encoded into an `Abort` frame
//!   and sent once to every peer (a latch dedupes); a received abort is
//!   recorded without re-broadcast.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pcomm_net::frame::{
    Frame, ABORT_MESSAGE_LOST, ABORT_MISUSE, ABORT_MISUSE_RANK, ABORT_PEER_PANICKED,
    MAX_RESYNC_RANGES,
};
use pcomm_trace::EventKind;

use crate::error::{PcommError, PeerSocketState};
use crate::fabric::{Fabric, MsgInfo, PostedRecv};
use crate::sync::{Completion, Mutex};
use crate::transport::Transport;

/// Hard deadline on the finalize barrier: every healthy peer reaches it
/// as soon as its closure returns, so far past this something is wrong
/// and the run fails instead of hanging.
pub(crate) const FINALIZE_TIMEOUT: Duration = Duration::from_secs(30);

/// One message of a pinned partitioned destination: the byte range it
/// owns and the request state to flip once every byte has landed.
pub(crate) struct PartStreamMsg {
    /// Byte offset of the message in the whole destination buffer.
    pub(crate) offset: usize,
    /// Message length in bytes.
    pub(crate) len: usize,
    /// Bytes of the range not yet committed; initialised to `len`.
    pub(crate) remaining: AtomicUsize,
    /// The `parrived`/wait completion for the message.
    pub(crate) completion: Arc<Completion>,
    /// Envelope slot the fabric fills on completion.
    pub(crate) info: Arc<Mutex<Option<MsgInfo>>>,
    /// Verify-layer identity `(request, message)` for the recv event.
    pub(crate) verify_msg: Option<(u16, u16)>,
    /// Message tag (the message index, as in the eager/rdv path).
    pub(crate) tag: i64,
}

/// A whole partitioned destination buffer pinned for an incoming
/// stream, handed to the engine by `precv.start()`.
pub(crate) struct PartStreamRecv {
    /// Base of the destination buffer.
    pub(crate) base: *mut u8,
    /// Whole-buffer length in bytes.
    pub(crate) total_len: usize,
    /// Per-message ranges covering `0..total_len`.
    pub(crate) msgs: Vec<PartStreamMsg>,
}

// SAFETY: the destination buffer outlives the stream (the receiving
// request's storage is pinned until its completions fire and the
// request drains them before release — invariant (1) again), and the
// progress contexts that dereference `base` only write disjoint ranges.
unsafe impl Send for PartStreamRecv {}

/// One message's byte span of a pinned partitioned *source* buffer:
/// `done` (the sender's "buffer reusable" signal) flips once the
/// carrier has moved every byte of the span.
pub(crate) struct SendSpan {
    /// Byte offset of the message in the whole source buffer.
    pub(crate) offset: usize,
    /// Message length in bytes.
    pub(crate) len: usize,
    /// Bytes of the span not yet written; initialised to `len`.
    pub(crate) remaining: AtomicUsize,
    /// The sender-side wait completion for the message.
    pub(crate) done: Arc<Completion>,
}

impl SendSpan {
    pub(crate) fn new(offset: usize, len: usize, done: Arc<Completion>) -> SendSpan {
        SendSpan {
            offset,
            len,
            remaining: AtomicUsize::new(len),
            done,
        }
    }
}

/// The spans of one outgoing partitioned stream, plus where its bytes
/// went: every wire range that has left on a socket, with that socket's
/// reconnect epoch. A range that left on a socket that died since may be
/// missing at the peer; one that left on the live socket is on its way.
/// A message can leave in several ranges across a reconnect, so a
/// resync judges loss per range, not per span.
pub(crate) struct SendSpans {
    spans: Vec<SendSpan>,
    /// `(lo, hi, epoch)`, adjacent ranges of one epoch merged.
    sent: Mutex<Vec<(usize, usize, u32)>>,
}

impl SendSpans {
    pub(crate) fn new(spans: Vec<SendSpan>) -> SendSpans {
        SendSpans {
            spans,
            sent: Mutex::new(Vec::new()),
        }
    }

    /// `offset..offset+len` has left on the socket of reconnect `epoch`:
    /// record it, and complete the spans it finishes.
    pub(crate) fn sent(&self, offset: usize, len: usize, epoch: u32) {
        let mut sent = self.sent.lock();
        match sent.last_mut() {
            Some((_, hi, e)) if *hi == offset && *e == epoch => *hi += len,
            _ => sent.push((offset, offset + len, epoch)),
        }
        drop(sent);
        complete_spans(self, offset, len);
    }

    /// Whether any byte of `lo..hi` left on a socket older than reconnect
    /// `epoch`.
    fn sent_before(&self, lo: usize, hi: usize, epoch: u32) -> bool {
        let sent = self.sent.lock();
        sent.iter()
            .any(|&(s_lo, s_hi, e)| e < epoch && s_lo.max(lo) < s_hi.min(hi))
    }
}

impl std::ops::Deref for SendSpans {
    type Target = [SendSpan];

    fn deref(&self) -> &[SendSpan] {
        &self.spans
    }
}

/// One coalesced run of ready partitions, pinned in the source buffer
/// (adjacent pushes are contiguous memory, so coalescing just extends
/// the length).
#[derive(Clone, Copy)]
pub(crate) struct PinChunk {
    /// Byte offset of the run in the whole source buffer.
    pub(crate) offset: u64,
    /// First byte of the run; valid until the covering spans complete.
    pub(crate) ptr: *const u8,
    /// Run length in bytes.
    pub(crate) len: usize,
    /// Partitions coalesced into the run (trace geometry).
    pub(crate) parts: u16,
}

// SAFETY: the pointed-to source buffer stays alive and unmodified until
// the covering spans' `done` completions fire (fabric invariant (1) —
// the request drains them before its storage drops), and only the
// carrier context shipping the chunk reads through it.
unsafe impl Send for PinChunk {}

/// The chunks one [`StreamSend::push`] made ready. Never more than two
/// (a gap-flushed window plus the new range, or the tail flush), so the
/// per-`pready` path keeps them on the stack.
pub(crate) struct Ready {
    n: usize,
    chunks: [PinChunk; 2],
}

impl Ready {
    fn add(&mut self, chunk: PinChunk) {
        self.chunks[self.n] = chunk;
        self.n += 1;
    }
}

impl std::ops::Deref for Ready {
    type Target = [PinChunk];

    fn deref(&self) -> &[PinChunk] {
        &self.chunks[..self.n]
    }
}

/// Sender-side state of one partitioned stream: the aggregation window
/// plus ranges queued while the CTS is still in flight.
struct StreamSend {
    dst: usize,
    /// The frame that announced the stream (a `PartRts`, or a
    /// rendezvous's `Rts`), sent again after a reconnect while the CTS
    /// is outstanding.
    announce: Frame,
    /// `None` until the receiver pinned its destination (CTS arrived);
    /// then the carrier's grant, if its CTS carried one.
    cts: Option<Option<u64>>,
    /// Every byte was pushed and the tail auto-flushed; the entry dies
    /// once `cts` is also set.
    flushed: bool,
    /// Whole-buffer length; pushes auto-flush the tail on reaching it.
    total_len: usize,
    /// Bytes pushed so far.
    pushed: usize,
    /// The open aggregation window: grows while pushes stay adjacent.
    pend: Option<PinChunk>,
    /// Threshold-complete chunks waiting for the CTS.
    queued: Vec<PinChunk>,
    /// Per-message spans the carrier completes as chunks leave.
    spans: Arc<SendSpans>,
}

impl StreamSend {
    /// Fold one pushed range into the aggregation window and return the
    /// chunks (if any) that are now ready for the wire: adjacent ranges
    /// coalesce until they reach `aggr`, a gap flushes the open window,
    /// an already-threshold-sized range goes out directly, and the final
    /// byte of the buffer flushes whatever remains (no separate flush
    /// call, so `wait` can never deadlock against an unshipped tail).
    fn push(&mut self, offset: u64, ptr: *const u8, len: usize, parts: u16, aggr: usize) -> Ready {
        self.pushed += len;
        let chunk = PinChunk {
            offset,
            ptr,
            len,
            parts,
        };
        let mut out = Ready {
            n: 0,
            chunks: [chunk; 2],
        };
        match &mut self.pend {
            Some(p) if p.offset + p.len as u64 == offset => {
                // Adjacent in the source buffer ⇒ contiguous memory:
                // extend the pinned run in place.
                // SAFETY: `p.ptr + p.len` stays within (one past) the
                // same pinned allocation the run came from.
                debug_assert_eq!(unsafe { p.ptr.add(p.len) }, ptr, "adjacent ⇒ contiguous");
                p.len += len;
                p.parts = p.parts.saturating_add(parts);
                if p.len >= aggr {
                    out.add(*p);
                    self.pend = None;
                }
            }
            _ => {
                if let Some(p) = self.pend.take() {
                    out.add(p);
                }
                if len >= aggr {
                    out.add(chunk);
                } else {
                    self.pend = Some(chunk);
                }
            }
        }
        if self.pushed >= self.total_len {
            self.flushed = true;
            if let Some(p) = self.pend.take() {
                out.add(p);
            }
        }
        out
    }
}

/// Receiver-side state of one active partitioned stream: where ranges
/// land and which message completions they flip.
struct StreamRecv {
    base: *mut u8,
    total_len: usize,
    /// The carrier's reconnect epoch when the CTS was released.
    cts_epoch: u32,
    /// Bytes of the whole buffer not yet committed; the stream retires
    /// when this hits zero.
    remaining_total: AtomicUsize,
    msgs: Vec<PartStreamMsg>,
    /// Sorted, disjoint byte intervals already committed. A reconnect
    /// replays whole batches (at-least-once delivery), so every
    /// commit first claims its range here and only the never-seen-before
    /// sub-ranges count — a duplicate range is a no-op.
    committed: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: same argument as [`PartStreamRecv`]; `Sync` because every
// thread that lands a carrier's ranges shares the stream, but every
// byte of the destination belongs to exactly one range on the wire, so
// writes never alias.
unsafe impl Send for StreamRecv {}
unsafe impl Sync for StreamRecv {}

/// FIFO pairing of incoming `PartRts`s with posted destinations for one
/// `(src, ctx)` partitioned pair — whichever side shows up first waits.
#[derive(Default)]
struct PartPair {
    /// Streams announced by the sender, not yet posted: `(id, len)`.
    pending_rts: VecDeque<(u64, usize)>,
    /// Destinations posted by the receiver, not yet announced.
    waiting: VecDeque<PartStreamRecv>,
}

type WinSlot = (Arc<Completion>, Option<usize>);
type ResyncEntry = (usize, u32, Arc<SendSpans>);
type GetWaiter = (Arc<Completion>, Arc<Mutex<Option<Vec<u8>>>>);

/// The protocol engine of one rank process (see the module docs). Every
/// method that can send takes the [`Fabric`] it serves, so the engine
/// needs no back-reference.
pub(crate) struct WireProtocol {
    carrier: Arc<dyn Transport>,
    rank: usize,
    n_ranks: usize,
    /// The carrier's partition-stream aggregation threshold.
    aggr: usize,
    next_rdv_id: AtomicU64,
    /// Sender side: open streams (partitioned sends and rendezvous), by
    /// stream id.
    streams_out: Mutex<HashMap<u64, StreamSend>>,
    /// Sender side: span sets of live outgoing streams, with their peer
    /// and the reconnect epoch they began at, for answering a receiver's
    /// `StreamResync` after a reconnect. A finished stream is pruned when
    /// a later one begins — unless it began before its peer's reconnect:
    /// the peer's report may still name it, so it stays until teardown.
    /// A peer reconnects once, so what stays is bounded by the entries
    /// the table held toward it at that moment.
    resync_spans: Mutex<HashMap<u64, ResyncEntry>>,
    /// Receiver side: RTS/post pairing per partitioned (src, ctx) pair.
    part_registry: Mutex<HashMap<(usize, u64), PartPair>>,
    /// Receiver side: active streams taking ranges, by (src, id).
    streams_in: Mutex<HashMap<(usize, u64), Arc<StreamRecv>>>,
    /// Receiver side: streams whose `PartRts` arrived and which have not
    /// retired, by (src, id). A reconnect re-sends every announcement
    /// that may have died with the socket; this drops the copies.
    announced: Mutex<HashSet<(usize, u64)>>,
    /// This process's barrier generation counter (SPMD-aligned).
    barrier_gen: AtomicU64,
    /// Rank 0 only: which ranks arrived per generation. A set, not a
    /// count: the wire is at-least-once across a reconnect, so a
    /// replayed `BarrierArrive` must not double-count.
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
            aggr: carrier.stream_aggr(),
            carrier,
            next_rdv_id: AtomicU64::new(0),
            streams_out: Mutex::new(HashMap::new()),
            resync_spans: Mutex::new(HashMap::new()),
            part_registry: Mutex::new(HashMap::new()),
            streams_in: Mutex::new(HashMap::new()),
            announced: Mutex::new(HashSet::new()),
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
}

// ---------------------------------------------------------------------
// Point-to-point: eager, and rendezvous as a one-message stream.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Ship an eager payload to a remote rank.
    pub(crate) fn ship_eager(
        &self,
        fabric: &Fabric,
        dst: usize,
        shard: usize,
        ctx: u64,
        tag: i64,
        data: &[u8],
    ) {
        let frame = Frame::Eager {
            shard: shard as u16,
            ctx,
            tag,
            payload: data.to_vec(),
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
            self.ship_eager(fabric, dst, shard, ctx, tag, data);
            done.set();
            return;
        }
        let span = SendSpan::new(0, len, Arc::clone(done));
        let rts = |rdv_id| Frame::Rts {
            shard: shard as u16,
            ctx,
            tag,
            len: len as u64,
            rdv_id,
        };
        let id = self.open_stream(fabric, dst, len, vec![span], rts);
        // The `Rts` has only just left, so no CTS can be in: the range
        // queues without a look at the peer.
        self.push_range(fabric, id, 0, data, 1);
    }

    /// Receiver: a matched rendezvous `Rts`. The posted buffer becomes
    /// the destination of the one-message stream it announced, and the
    /// sender is cleared to stream into it.
    pub(crate) fn accept_remote_rdv(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        len: usize,
        posted: PostedRecv,
        tag: i64,
    ) {
        let msg = PartStreamMsg {
            offset: 0,
            len,
            remaining: AtomicUsize::new(len),
            completion: posted.completion,
            info: posted.info,
            verify_msg: posted.verify_msg,
            tag,
        };
        let recv = PartStreamRecv {
            base: posted.dest_ptr,
            total_len: len,
            msgs: vec![msg],
        };
        self.activate_stream(fabric, src, rdv_id, len, recv);
    }

    /// Receiver: note the announcement of stream `rdv_id` from `src`;
    /// `false` for a copy a reconnect sent again.
    fn announce(&self, fabric: &Fabric, src: usize, rdv_id: u64, total_len: u64) -> bool {
        if !self.announced.lock().insert((src, rdv_id)) {
            return false;
        }
        let (p16, stream) = (src as u16, rdv_id as u32);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamRts {
                peer: p16,
                tx: false,
                stream,
                total_len,
            });
        true
    }
}

// ---------------------------------------------------------------------
// Partitioned streams: RTS/post pairing, send window, receive ledger.
// ---------------------------------------------------------------------

impl WireProtocol {
    /// Open a partitioned stream toward `dst`: announce `total_len`
    /// pinned bytes for the pair on `ctx` and return the stream id that
    /// subsequent pushes name. `spans` are the sender's per-message byte
    /// ranges; each span's `done` fires once the carrier has moved its
    /// last byte.
    pub(crate) fn part_stream_begin(
        &self,
        fabric: &Fabric,
        dst: usize,
        ctx: u64,
        total_len: usize,
        spans: Vec<SendSpan>,
    ) -> u64 {
        let part_rts = |rdv_id| Frame::PartRts {
            ctx,
            total_len: total_len as u64,
            rdv_id,
        };
        self.open_stream(fabric, dst, total_len, spans, part_rts)
    }

    /// Open a stream of `total_len` pinned bytes toward `dst`, announced
    /// by `announce(id)`; returns the id.
    fn open_stream(
        &self,
        fabric: &Fabric,
        dst: usize,
        total_len: usize,
        spans: Vec<SendSpan>,
        announce: impl FnOnce(u64) -> Frame,
    ) -> u64 {
        // ORDERING: id allocator — only uniqueness matters; the id
        // reaches the peer inside the announcing frame, not via memory.
        let rdv_id = self.next_rdv_id.fetch_add(1, Ordering::Relaxed);
        let spans = Arc::new(SendSpans::new(spans));
        {
            // Keep the span set reachable for a post-reconnect resync
            // check; prune entries whose spans all completed (by byte
            // count, not by `done`: a persistent request resets and
            // reuses its completions every round) — unless the stream
            // began before its peer's reconnect: the peer's resync
            // report may still name it, and must not find it gone.
            let mut resync = self.resync_spans.lock();
            resync.retain(|_, (peer, began, spans)| {
                *began < self.carrier.epoch(*peer)
                    || spans
                        .iter()
                        .any(|sp| sp.remaining.load(Ordering::Acquire) != 0)
            });
            let began = self.carrier.epoch(dst);
            resync.insert(rdv_id, (dst, began, Arc::clone(&spans)));
        }
        let announce = announce(rdv_id);
        // Register before the announcement leaves so a fast CTS finds us.
        self.streams_out.lock().insert(
            rdv_id,
            StreamSend {
                dst,
                announce: announce.clone(),
                cts: None,
                flushed: false,
                total_len,
                pushed: 0,
                pend: None,
                queued: Vec::new(),
                spans,
            },
        );
        let (p16, stream, total) = (dst as u16, rdv_id as u32, total_len as u64);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamRts {
                peer: p16,
                tx: true,
                stream,
                total_len: total,
            });
        self.send(fabric, dst, announce);
        rdv_id
    }

    /// Hand one ready byte range (`parts` coalesced partitions ending
    /// their `pready`s) to the stream. `data` is *pinned*, not copied:
    /// it must stay alive and unmodified until the covering spans'
    /// `done` completions fire (fabric invariant (1) — partitioned
    /// storage lives until its signals drain). Ranges queue until the
    /// CTS arrives, then flow; the stream retires itself once every one
    /// of `total_len` bytes has been pushed. Runs on an app thread
    /// (inside `pready`): one lock, no allocation once the CTS is in.
    pub(crate) fn part_stream_push(
        &self,
        fabric: &Fabric,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    ) {
        if let Some(dst) = self.push_range(fabric, stream_id, offset, data, parts) {
            // The CTS may have arrived while the caller computed: an
            // empty burst is one inline look at the peer, which finds
            // it, and its handler ships the queue — this range included.
            self.carrier.poll_burst(fabric, Some(dst), &[]);
        }
    }

    /// The body of [`part_stream_push`](Self::part_stream_push): ship
    /// the range, or queue it and return the peer when the stream has
    /// no CTS yet.
    fn push_range(
        &self,
        fabric: &Fabric,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    ) -> Option<usize> {
        let (dst, grant, spans, ready) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&stream_id) else {
                return None; // post-abort straggler
            };
            let ready = stream.push(offset, data.as_ptr(), data.len(), parts, self.aggr);
            let Some(grant) = stream.cts else {
                // The CTS handler drains `queued` (auto-flushed tail
                // included) and retires the entry when it arrives.
                stream.queued.extend_from_slice(&ready);
                return Some(stream.dst);
            };
            let (dst, spans) = (stream.dst, Arc::clone(&stream.spans));
            if stream.flushed {
                // Last byte pushed post-CTS: the entry is done.
                out.remove(&stream_id);
            }
            (dst, grant, spans, ready)
        };
        if !ready.is_empty() {
            self.carrier
                .ship_chunks(fabric, dst, stream_id, grant, &spans, &ready);
        }
        None
    }

    /// Pin a whole partitioned destination buffer for the next stream
    /// from `src` on `ctx`; pairs FIFO with incoming `PartRts`s.
    pub(crate) fn part_stream_post(
        &self,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        recv: PartStreamRecv,
    ) {
        let activate = {
            let mut reg = self.part_registry.lock();
            let pair = reg.entry((src, ctx)).or_default();
            if let Some((rdv_id, total_len)) = pair.pending_rts.pop_front() {
                Some((rdv_id, total_len, recv))
            } else {
                pair.waiting.push_back(recv);
                None
            }
        };
        if let Some((rdv_id, total_len, recv)) = activate {
            self.activate_stream(fabric, src, rdv_id, total_len, recv);
        }
    }

    /// Receiver: a sender announced a stream. Pair it with a posted
    /// destination if one is waiting, else park the announcement; drop
    /// a copy re-sent after a reconnect.
    fn handle_part_rts(
        &self,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        total_len: usize,
        rdv_id: u64,
    ) {
        if !self.announce(fabric, src, rdv_id, total_len as u64) {
            return;
        }
        let recv = {
            let mut reg = self.part_registry.lock();
            let pair = reg.entry((src, ctx)).or_default();
            match pair.waiting.pop_front() {
                Some(recv) => Some(recv),
                None => {
                    pair.pending_rts.push_back((rdv_id, total_len));
                    None
                }
            }
        };
        if let Some(recv) = recv {
            self.activate_stream(fabric, src, rdv_id, total_len, recv);
        }
    }

    /// Receiver: a posted destination met its announcement — validate,
    /// register the active stream, and have the carrier clear the sender
    /// to stream.
    fn activate_stream(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        total_len: usize,
        recv: PartStreamRecv,
    ) {
        if recv.total_len != total_len {
            fabric.fail(PcommError::misuse(
                src,
                format!(
                    "partitioned stream length mismatch: sender announced {total_len} B, \
                     receiver pinned {} B",
                    recv.total_len
                ),
            ));
            return;
        }
        let trace = fabric.trace();
        if trace.is_verify() {
            // The receiver is the only side that knows both the wire
            // stream id and the verify-layer (req, msg) identities; these
            // join events let the offline auditor unify the two ranks'
            // independently-interned request ids.
            let stream32 = rdv_id as u32;
            for msg in recv.msgs.iter() {
                let Some((req, m16)) = msg.verify_msg else {
                    continue;
                };
                let (off, len32) = (msg.offset as u64, msg.len as u32);
                trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamMsg {
                    stream: stream32,
                    req,
                    msg: m16,
                    tx: false,
                    offset: off,
                    len: len32,
                });
            }
        }
        let stream = Arc::new(StreamRecv {
            base: recv.base,
            total_len,
            cts_epoch: self.carrier.epoch(src),
            remaining_total: AtomicUsize::new(total_len),
            msgs: recv.msgs,
            committed: Mutex::new(Vec::new()),
        });
        self.streams_in
            .lock()
            .insert((src, rdv_id), Arc::clone(&stream));
        self.release_cts(fabric, src, rdv_id, &stream);
    }

    /// Receiver: clear `src` to send stream `rdv_id` into `stream`.
    fn release_cts(&self, fabric: &Fabric, src: usize, rdv_id: u64, stream: &StreamRecv) {
        let (p16, stream32, epoch) = (src as u16, rdv_id as u32, self.carrier.epoch(src));
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: true,
                stream: stream32,
                epoch,
            });
        self.carrier
            .ship_part_cts(fabric, src, rdv_id, stream.base, stream.total_len);
    }

    /// Sender: the receiver pinned its destination — release every
    /// queued chunk to the carrier. `grant` is what the carrier's CTS
    /// carried beyond the stream id (an offset into receiver-visible
    /// memory of `grant_cap` bytes, or nothing); it is the peer's word,
    /// so the whole stream must fit under the cap before it is stored.
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
        let (p16, stream32) = (peer as u16, rdv_id as u32);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: false,
                stream: stream32,
                epoch: self.carrier.epoch(peer),
            });
        let (dst, spans, chunks) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&rdv_id) else {
                return; // duplicate or post-abort straggler
            };
            let total = stream.total_len as u64;
            if grant.is_some_and(|g| g.checked_add(total).is_none_or(|end| end > grant_cap)) {
                drop(out);
                fabric.fail(PcommError::misuse(
                    peer,
                    format!(
                        "partitioned stream grant {grant:?} for {total} B exceeds the \
                         {grant_cap}-byte arena"
                    ),
                ));
                return;
            }
            stream.cts = Some(grant);
            let chunks = std::mem::take(&mut stream.queued);
            let (dst, spans) = (stream.dst, Arc::clone(&stream.spans));
            if stream.flushed {
                out.remove(&rdv_id);
            }
            (dst, spans, chunks)
        };
        debug_assert_eq!(dst, peer, "PartCts must come from the stream's receiver");
        self.carrier
            .ship_chunks(fabric, dst, rdv_id, grant, &spans, &chunks);
    }

    /// Receiver: look up the active stream for `(src, rdv_id)` and
    /// validate that `offset..offset+len` fits its destination. Returns
    /// `None` for post-abort stragglers (the caller discards the bytes);
    /// an overflowing range fails the universe.
    fn stream_range(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
    ) -> Option<Arc<StreamRecv>> {
        if fabric.aborted() {
            return None;
        }
        let stream = self.streams_in.lock().get(&(src, rdv_id)).cloned()?;
        match offset.checked_add(len) {
            Some(end) if end <= stream.total_len => Some(stream),
            _ => {
                fabric.fail(PcommError::misuse(
                    src,
                    format!(
                        "partitioned stream range {offset}+{len} overflows a \
                         {}-byte destination",
                        stream.total_len
                    ),
                ));
                None
            }
        }
    }

    /// Receiver: the range `offset..offset+len` of stream `rdv_id` is
    /// arriving. Validate it, let `fill` put bytes in the
    /// pinned destination (a socket read, a copy out of the ring, or
    /// nothing when the sender already wrote them in place) and say how
    /// many, then commit those. `Ok(None)` means the range was not
    /// landed (retired stream, abort, or overflow) and the caller
    /// discards the bytes; else how many landed — a socket lands a
    /// range in pieces, each its own commit.
    pub(crate) fn land_part(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<Option<usize>> {
        let Some(stream) = self.stream_range(fabric, src, rdv_id, offset, len) else {
            return Ok(None);
        };
        // SAFETY: the destination stays pinned until the completions set
        // by the commit fire (invariant (1), via `PartStreamRecv`'s
        // contract), `stream_range` checked the bounds, and every
        // destination byte belongs to exactly one range on the wire, so
        // concurrent landings never alias.
        let n = fill(unsafe { std::slice::from_raw_parts_mut(stream.base.add(offset), len) })?;
        let n = n.min(len);
        if n > 0 || len == 0 {
            self.commit_stream_range(fabric, src, rdv_id, &stream, offset, n);
        }
        Ok(Some(n))
    }

    /// Receiver: the bytes of `offset..offset+len` are in the pinned
    /// destination — flip every message completion the range finishes
    /// and retire the stream once the whole buffer has landed.
    fn commit_stream_range(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        offset: usize,
        len: usize,
    ) {
        let end = offset + len;
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
        // At-least-once wire: a reconnect replays whole batches, so the
        // same range can land twice. Claim it against the stream's
        // interval ledger first — only the never-committed sub-ranges
        // count toward message and stream completion.
        let fresh = claim_range(&mut stream.committed.lock(), offset, end);
        let fresh_bytes: usize = fresh.iter().map(|&(lo, hi)| hi - lo).sum();
        if fresh_bytes == 0 {
            return; // pure duplicate: every byte landed before
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
        for &(f_lo, f_hi) in &fresh {
            for msg in &stream.msgs {
                let lo = msg.offset.max(f_lo);
                let hi = (msg.offset + msg.len).min(f_hi);
                if lo >= hi {
                    continue;
                }
                let overlap = hi - lo;
                // AcqRel: the final decrement acquires every earlier
                // committer's bytes, so the completion flip below
                // publishes a fully written message range. The ledger
                // claim above guarantees each byte is subtracted exactly
                // once, so this never underflows.
                let before = msg.remaining.fetch_sub(overlap, Ordering::AcqRel);
                if before == overlap {
                    let info = MsgInfo {
                        src,
                        tag: msg.tag,
                        len: msg.len,
                    };
                    let (slot, done) = (Some(&*msg.info), &msg.completion);
                    fabric.finish_recv(self.rank, info, false, slot, done, msg.verify_msg);
                    msgs_done += 1;
                }
            }
        }
        trace.emit(rank, || EventKind::StreamCommit {
            lane: 0,
            msgs: msgs_done,
            offset: offset as u64,
            bytes: fresh_bytes as u64,
        });
        // AcqRel: pairs with the other committers' decrements so the
        // map removal below observes a fully committed stream.
        if stream
            .remaining_total
            .fetch_sub(fresh_bytes, Ordering::AcqRel)
            == fresh_bytes
        {
            self.streams_in.lock().remove(&(src, rdv_id));
            self.announced.lock().remove(&(src, rdv_id));
        }
    }

    /// After a carrier reconnected to `peer`: tell it the high-water
    /// state of every active incoming stream it sends us, as the
    /// complement of the committed ledger. The sender cross-checks the
    /// missing ranges against what it can still replay.
    ///
    /// The dead socket may also have taken a stream's handshake with it,
    /// which would leave both sides waiting: so release again every CTS
    /// that left on an older socket (the sender ignores one it already
    /// has), and announce again every stream of ours still waiting for
    /// its CTS, oldest first (the receiver pairs announcements with
    /// posts in order, and drops one it already has).
    pub(crate) fn resync_streams(&self, fabric: &Fabric, peer: usize) {
        let epoch = self.carrier.epoch(peer);
        let mut stale_cts = Vec::new();
        let mut reports = Vec::new();
        for ((src, rdv_id), stream) in self.streams_in.lock().iter() {
            if *src != peer {
                continue;
            }
            if stream.cts_epoch < epoch {
                stale_cts.push((*rdv_id, Arc::clone(stream)));
            }
            let committed = stream.committed.lock();
            let received: u64 = committed.iter().map(|&(lo, hi)| (hi - lo) as u64).sum();
            let mut missing = Vec::new();
            let mut cursor = 0usize;
            for &(lo, hi) in committed.iter() {
                if cursor < lo {
                    missing.push((cursor as u64, lo as u64));
                }
                cursor = hi;
            }
            if cursor < stream.total_len {
                missing.push((cursor as u64, stream.total_len as u64));
            }
            // One frame per `MAX_RESYNC_RANGES` gaps, and one when there
            // are none: the sender judges each on its own.
            let chunks = missing.chunks(MAX_RESYNC_RANGES).map(<[_]>::to_vec);
            for missing in chunks.chain(missing.is_empty().then(Vec::new)) {
                reports.push(Frame::StreamResync {
                    rdv_id: *rdv_id,
                    received,
                    missing,
                });
            }
        }
        for report in reports {
            self.send(fabric, peer, report);
        }
        for (rdv_id, stream) in stale_cts {
            self.release_cts(fabric, peer, rdv_id, &stream);
        }
        let mut unanswered: Vec<(u64, Frame)> = (self.streams_out.lock().iter())
            .filter(|(_, s)| s.dst == peer && s.cts.is_none())
            .map(|(&rdv_id, s)| (rdv_id, s.announce.clone()))
            .collect();
        unanswered.sort_unstable_by_key(|&(rdv_id, _)| rdv_id);
        for (_, announce) in unanswered {
            self.send(fabric, peer, announce);
        }
    }

    /// Sender side of a receiver's post-reconnect `StreamResync`: every
    /// missing range must still be replayable. Bytes not yet written are
    /// fine (the outbox sends them), and so are bytes that left on the
    /// new socket (they follow the report). A missing byte that left on
    /// the dead socket died with it, and nothing holds it to resend —
    /// that is unreplayable loss, and it becomes a typed error instead of
    /// a receiver that waits forever. The report names only streams the
    /// receiver knew before the reconnect, so one pruned here finished
    /// before it, on the dead socket.
    fn handle_stream_resync(
        &self,
        fabric: &Fabric,
        peer: usize,
        rdv_id: u64,
        missing: &[(u64, u64)],
    ) {
        if missing.is_empty() || fabric.aborted() {
            return;
        }
        let spans = self.resync_spans.lock().get(&rdv_id).cloned();
        let epoch = self.carrier.epoch(peer);
        let lost = match spans {
            // Stream fully retired on our side yet bytes are missing
            // over there: nothing pinned remains to replay.
            None => true,
            Some((_, _, spans)) => missing
                .iter()
                .any(|&(lo, hi)| spans.sent_before(lo as usize, hi as usize, epoch)),
        };
        if lost {
            let (p16, stream) = (peer as u16, rdv_id as u32);
            let missing_bytes: u64 = missing.iter().map(|&(lo, hi)| hi - lo).sum();
            fabric
                .trace()
                .emit_verify(self.rank as u16, || EventKind::VerifyStreamLost {
                    peer: p16,
                    stream,
                    missing: missing_bytes,
                });
            fabric.fail(PcommError::MessageLost {
                src: self.rank,
                dst: peer,
                tag: -1,
                attempts: 1,
            });
        }
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
    /// by rank, not counted: a reconnect can replay a `BarrierArrive`.
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
    /// might still need them, and no queued stream chunk can be
    /// outstanding (a receiver cannot reach the barrier until its data
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
    /// connection plus the handshakes this engine still has open on it.
    pub(crate) fn peer_states(&self) -> Vec<PeerSocketState> {
        let mut states = self.carrier.peer_states();
        let streams = self.streams_out.lock();
        for s in &mut states {
            s.pending_rdv = streams.values().filter(|st| st.dst == s.peer).count();
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
            } => fabric.deliver_wire_eager(peer, shard as usize, ctx, tag, &payload),
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
                if self.announce(fabric, peer, rdv_id, len) {
                    fabric.deliver_wire_rts(peer, shard as usize, ctx, tag, len as usize, rdv_id);
                }
            }
            // Decodable, never sent: a rendezvous is a stream.
            Frame::Cts { .. } | Frame::RdvData { .. } => fabric.fail(PcommError::misuse(
                peer,
                format!("peer sent a retired {} frame", frame.name()),
            )),
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => self.handle_part_rts(fabric, peer, ctx, total_len as usize, rdv_id),
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
            // Liveness only; the carrier already noted that it heard.
            Frame::Heartbeat { .. } => {}
            Frame::StreamResync {
                rdv_id, missing, ..
            } => self.handle_stream_resync(fabric, peer, rdv_id, &missing),
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

/// Flip the `done` completions of every sender span fully covered once
/// `offset..offset+len` has left (sender-side mirror of the receiver's
/// commit bookkeeping).
pub(crate) fn complete_spans(spans: &[SendSpan], offset: usize, len: usize) {
    let end = offset + len;
    for span in spans {
        let lo = span.offset.max(offset);
        let hi = (span.offset + span.len).min(end);
        if lo >= hi {
            continue;
        }
        let overlap = hi - lo;
        // Saturating CAS rather than a plain subtraction: bytes already
        // counted may come around again in a replay — the counter must
        // neither underflow nor fire `done` twice. AcqRel chains the
        // writers' progress like the receiver side.
        let mut cur = span.remaining.load(Ordering::Acquire);
        loop {
            let take = overlap.min(cur);
            if take == 0 {
                break;
            }
            match span.remaining.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if cur == take {
                        span.done.set();
                    }
                    break;
                }
                Err(seen) => cur = seen,
            }
        }
    }
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
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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
        Chunks {
            dst: usize,
            rdv_id: u64,
            grant: Option<u64>,
            ranges: Vec<(u64, usize)>,
        },
    }

    /// A carrier that moves nothing and records every call.
    struct Recorder {
        rank: usize,
        aggr: usize,
        log: Mutex<Vec<Sent>>,
        /// The reconnect epoch every peer's connection reports.
        epoch: AtomicU32,
    }

    impl Transport for Recorder {
        fn local_rank(&self) -> Option<usize> {
            Some(self.rank)
        }

        fn stream_aggr(&self) -> usize {
            self.aggr
        }

        fn epoch(&self, _: usize) -> u32 {
            self.epoch.load(Ordering::Relaxed)
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

        fn ship_chunks(
            &self,
            _: &Fabric,
            dst: usize,
            rdv_id: u64,
            grant: Option<u64>,
            _: &Arc<SendSpans>,
            chunks: &[PinChunk],
        ) {
            self.log.lock().push(Sent::Chunks {
                dst,
                rdv_id,
                grant,
                ranges: chunks.iter().map(|c| (c.offset, c.len)).collect(),
            });
        }

        fn peer_states(&self) -> Vec<PeerSocketState> {
            Vec::new()
        }

        fn close(&self, _: &Fabric) {}
    }

    /// A fabric of `n_ranks` whose local rank is `rank`, over a
    /// recording carrier with aggregation threshold `aggr`.
    fn engine(n_ranks: usize, rank: usize, aggr: usize) -> (Arc<Fabric>, Arc<Recorder>) {
        let carrier = Arc::new(Recorder {
            rank,
            aggr,
            log: Mutex::new(Vec::new()),
            epoch: AtomicU32::new(0),
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

    /// A pinned destination over `buf`, cut into `msg_len`-byte messages.
    fn dest(buf: &mut [u8], msg_len: usize) -> PartStreamRecv {
        let msgs = (0..buf.len() / msg_len)
            .map(|m| PartStreamMsg {
                offset: m * msg_len,
                len: msg_len,
                remaining: AtomicUsize::new(msg_len),
                completion: Completion::new(),
                info: Arc::new(Mutex::new(None)),
                verify_msg: None,
                tag: m as i64,
            })
            .collect();
        PartStreamRecv {
            base: buf.as_mut_ptr(),
            total_len: buf.len(),
            msgs,
        }
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

    #[test]
    fn rts_and_post_pair_once_in_either_order() {
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 64];
        // RTS first: parked, nothing leaves until the post.
        assert!(wire.dispatch(&fabric, 1, part_rts(64, 5)));
        assert!(taken(&carrier).is_empty());
        wire.part_stream_post(&fabric, 1, 7, dest(&mut buf, 32));
        let cts = |rdv_id| Sent::PartCts { src: 1, rdv_id };
        assert_eq!(taken(&carrier), vec![cts(5)]);
        // Post first: parked, the RTS activates it from the progress
        // context.
        wire.part_stream_post(&fabric, 1, 7, dest(&mut buf, 32));
        assert!(taken(&carrier).is_empty());
        assert!(wire.dispatch(&fabric, 1, part_rts(64, 6)));
        assert_eq!(taken(&carrier), vec![cts(6)]);
        assert_eq!(wire.streams_in.lock().len(), 2);
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_replayed_barrier_arrive_does_not_release_early() {
        let (fabric, carrier) = engine(3, 0, 0);
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
        let (fabric, _carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 64];
        let recv = dest(&mut buf, 32);
        let done: Vec<_> = recv
            .msgs
            .iter()
            .map(|m| Arc::clone(&m.completion))
            .collect();
        wire.part_stream_post(&fabric, 1, 7, recv);
        wire.dispatch(&fabric, 1, part_rts(64, 9));
        let src: Vec<u8> = (0..64).collect();
        wire.dispatch(&fabric, 1, part_data(9, 0, &src[0..24]));
        wire.dispatch(&fabric, 1, part_data(9, 0, &src[0..24])); // pure duplicate
        assert_eq!(fabric.matched_count(), 0);
        wire.dispatch(&fabric, 1, part_data(9, 16, &src[16..40])); // overlaps both ways
        assert!(done[0].is_set() && !done[1].is_set());
        assert_eq!(fabric.matched_count(), 1);
        wire.dispatch(&fabric, 1, part_data(9, 8, &src[8..40])); // replay of landed bytes
        assert_eq!(
            fabric.matched_count(),
            1,
            "a replay completes nothing again"
        );
        assert_eq!(wire.streams_in.lock().len(), 1, "24 bytes still missing");
        wire.dispatch(&fabric, 1, part_data(9, 32, &src[32..64]));
        assert!(done[1].is_set());
        assert_eq!(fabric.matched_count(), 2);
        assert!(
            wire.streams_in.lock().is_empty(),
            "the last fresh byte retires the stream"
        );
        // A straggler for the retired stream is discarded, not landed.
        buf.fill(0xff);
        wire.dispatch(&fabric, 1, part_data(9, 0, &src[0..8]));
        assert_eq!(buf[0], 0xff);
        assert!(!fabric.aborted());
    }

    #[test]
    fn stream_length_mismatch_is_misuse() {
        let (fabric, carrier) = engine(2, 0, 0);
        let mut buf = vec![0u8; 64];
        fabric
            .wire()
            .part_stream_post(&fabric, 1, 7, dest(&mut buf, 32));
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
            let (fabric, _carrier) = engine(2, 0, 0);
            let mut buf = vec![0u8; 64];
            fabric
                .wire()
                .part_stream_post(&fabric, 1, 7, dest(&mut buf, 32));
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
        let (fabric, carrier) = engine(2, 0, 0);
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
            let (fabric, _) = engine(2, 0, 0);
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

            let (fabric, carrier) = engine(2, 0, 0);
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
        let (fabric, carrier) = engine(2, 0, 0);
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
        let (fabric, carrier) = engine(4, 2, 0);
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

    /// A rendezvous `Rts` from rank 1 (id 3, tag 4) for `buf.len()`
    /// bytes, announced and matched with a posted receive over `buf`:
    /// the receive's completion and the slot its envelope lands in.
    fn matched_rdv(
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
        fabric.wire().dispatch(fabric, 1, rts(3, buf.len()));
        (completion, info)
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
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        // Sender: the `Rts` leaves with the whole buffer queued behind
        // it; the stream's CTS releases one range, a replayed CTS nothing.
        let src = [7u8; 2048];
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &src, &done);
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: 0 });
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: 0 });
        let chunks = Sent::Chunks {
            dst: 1,
            rdv_id: 0,
            grant: None,
            ranges: vec![(0, 2048)],
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
        let (fabric, carrier) = engine(2, 0, 0);
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
        // No stream: a reconnect has no `Rts` to send again, so no copy
        // can match a later receive.
        assert!(wire.streams_out.lock().is_empty() && wire.resync_spans.lock().is_empty());
        carrier.epoch.store(1, Ordering::Relaxed);
        wire.resync_streams(&fabric, 1);
        assert!(taken(&carrier).is_empty());
        assert!(!fabric.aborted());
        // An `Rts` for no bytes would pin a receive that never
        // completes: the peer that sends one is refused.
        wire.dispatch(&fabric, 1, rts(3, 0));
        let detail = misuse_of(&fabric, 1);
        assert!(detail.contains("empty rendezvous"), "{detail}");
    }

    #[test]
    fn a_rendezvous_range_from_the_peer_is_bounds_checked() {
        // `u64::MAX - 3` wraps `offset + len` in release builds; 6
        // simply runs past the end.
        for offset in [u64::MAX - 3, 6] {
            let (fabric, _carrier) = engine(2, 0, 0);
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
    fn a_retired_rendezvous_frame_from_the_peer_is_misuse() {
        for frame in [
            Frame::Cts { rdv_id: 0 },
            Frame::RdvData {
                rdv_id: 0,
                payload: vec![1],
            },
        ] {
            let (fabric, _carrier) = engine(2, 0, 0);
            let name = frame.name();
            assert!(fabric.wire().dispatch(&fabric, 1, frame));
            let detail = misuse_of(&fabric, 1);
            assert!(detail.contains(&format!("retired {name}")), "{detail}");
        }
    }

    #[test]
    fn a_reconnect_covers_rendezvous() {
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        // Ours: a rendezvous still waiting for its CTS.
        let src = [5u8; 64];
        let done = Completion::new();
        wire.ship_rts(&fabric, 1, 0, 0, 4, &src, &done);
        // Theirs: a matched rendezvous, half landed.
        let mut buf = vec![0u8; 8];
        let (completion, _) = matched_rdv(&fabric, &mut buf);
        wire.dispatch(&fabric, 1, part_data(3, 0, &[1, 2, 3, 4]));
        taken(&carrier);
        carrier.epoch.store(1, Ordering::Relaxed);
        wire.resync_streams(&fabric, 1);
        let frame = |frame| Sent::Frame {
            dst: 1,
            frame,
            teardown: false,
        };
        let report = Frame::StreamResync {
            rdv_id: 3,
            received: 4,
            missing: vec![(4, 8)],
        };
        let want = vec![
            frame(report),
            Sent::PartCts { src: 1, rdv_id: 3 },
            frame(rts(0, 64)),
        ];
        assert_eq!(taken(&carrier), want);
        // The peer's repeated `Rts` is a copy: it matches no second
        // posted receive.
        let mut spare = vec![0u8; 8];
        let spare_done = Completion::new();
        let posted = PostedRecv {
            ctx: 0,
            src: Some(1),
            tag: Some(4),
            dest_ptr: spare.as_mut_ptr(),
            dest_cap: spare.len(),
            info: Arc::new(Mutex::new(None)),
            completion: Arc::clone(&spare_done),
            verify_msg: None,
        };
        fabric.post_recv(0, 0, posted);
        wire.dispatch(&fabric, 1, rts(3, 8));
        assert!(taken(&carrier).is_empty(), "a copy was matched");
        wire.dispatch(&fabric, 1, part_data(3, 4, &[5, 6, 7, 8]));
        assert!(completion.is_set() && !spare_done.is_set());
        assert!(!fabric.aborted());
    }

    #[test]
    fn finished_streams_leave_the_resync_table() {
        let (fabric, _carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        // A persistent request: the same completion serves every round.
        let sent = Completion::new();
        for round in 0..3 {
            sent.reset();
            let span = SendSpan::new(0, 64, Arc::clone(&sent));
            let id = wire.part_stream_begin(&fabric, 1, 7, 64, vec![span]);
            assert!(
                wire.resync_spans.lock().len() <= 2,
                "round {round}: retired streams must not pile up"
            );
            let (_, _, spans) = wire.resync_spans.lock().get(&id).cloned().unwrap();
            complete_spans(&spans, 0, 64);
            assert!(sent.is_set());
        }
    }

    /// Whether a stream of messages `lens` long, whose wire ranges
    /// `(offset, len, epoch)` in `sent` have left, fails the run as
    /// `MessageLost` once the reconnect to epoch 1 came and the
    /// receiver reports `missing`.
    fn resync_blames(lens: &[usize], sent: &[(usize, usize, u32)], missing: (u64, u64)) -> bool {
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        let mut at = 0;
        let spans: Vec<_> = lens
            .iter()
            .map(|&len| {
                at += len;
                SendSpan::new(at - len, len, Completion::new())
            })
            .collect();
        let id = wire.part_stream_begin(&fabric, 1, 7, at, spans);
        let (_, _, spans) = wire.resync_spans.lock().get(&id).cloned().unwrap();
        for &(offset, len, epoch) in sent {
            spans.sent(offset, len, epoch);
        }
        carrier.epoch.store(1, Ordering::Relaxed);
        // A later stream does not prune this one: its peer's report may
        // still name it.
        wire.part_stream_begin(&fabric, 1, 7, 8, Vec::new());
        assert!(wire.resync_spans.lock().contains_key(&id));
        let report = Frame::StreamResync {
            rdv_id: id,
            received: 0,
            missing: vec![missing],
        };
        wire.dispatch(&fabric, 1, report);
        match fabric.failure_snapshot() {
            None => false,
            Some(PcommError::MessageLost { dst: 1, .. }) => true,
            Some(other) => panic!("not a loss verdict: {other}"),
        }
    }

    #[test]
    fn a_resync_blames_only_bytes_that_left_on_the_dead_socket() {
        // Message 0 left on the socket that died; message 1 on the new
        // one, so its bytes follow the report.
        let two = [(0, 64, 0), (64, 64, 1)];
        assert!(resync_blames(&[64, 64], &two, (0, 64)));
        assert!(!resync_blames(&[64, 64], &two, (64, 128)));
        // One message in two ranges across the reconnect: its front
        // died, though the message finished on the live socket.
        assert!(resync_blames(&[128], &two, (0, 64)));
        assert!(!resync_blames(&[128], &two, (64, 128)));
        // Its front died and its back is still queued: the front is
        // lost, the back is on its way.
        assert!(resync_blames(&[128], &two[..1], (0, 64)));
        assert!(!resync_blames(&[128], &two[..1], (64, 128)));
    }

    #[test]
    fn a_resync_report_covers_every_gap_however_many() {
        const GAPS: usize = MAX_RESYNC_RANGES + 904;
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        let mut buf = vec![0u8; 2 * GAPS];
        wire.part_stream_post(&fabric, 1, 7, dest(&mut buf, 2 * GAPS));
        wire.dispatch(&fabric, 1, part_rts(2 * GAPS, 5));
        // Every odd byte lands, so every even one is a gap.
        for at in (1..2 * GAPS as u64).step_by(2) {
            wire.dispatch(&fabric, 1, part_data(5, at, &[1]));
        }
        taken(&carrier);
        carrier.epoch.store(1, Ordering::Relaxed);
        wire.resync_streams(&fabric, 1);
        let mut reported = Vec::new();
        for sent in taken(&carrier) {
            if let Sent::Frame {
                frame: Frame::StreamResync { missing, .. },
                ..
            } = sent
            {
                assert!(missing.len() <= MAX_RESYNC_RANGES);
                reported.extend(missing);
            }
        }
        assert_eq!(reported.len(), GAPS, "every gap reported");
        let gaps: Vec<(u64, u64)> = (0..GAPS as u64).map(|g| (2 * g, 2 * g + 1)).collect();
        assert!(reported == gaps, "the gaps, in order");
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_reconnect_repeats_the_handshakes_the_dead_socket_may_have_taken() {
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        // Ours: one stream still waits for its CTS, one has it.
        let waits = wire.part_stream_begin(&fabric, 1, 3, 64, Vec::new());
        let cleared = wire.part_stream_begin(&fabric, 1, 4, 64, Vec::new());
        wire.dispatch(&fabric, 1, Frame::PartCts { rdv_id: cleared });
        // Theirs: stream 5 cleared on the old socket, stream 6 parked.
        let mut buf = vec![0u8; 32];
        wire.part_stream_post(&fabric, 1, 7, dest(&mut buf, 32));
        wire.dispatch(&fabric, 1, part_rts(32, 5));
        wire.dispatch(&fabric, 1, part_rts(32, 6));
        taken(&carrier);
        carrier.epoch.store(1, Ordering::Relaxed);
        wire.resync_streams(&fabric, 1);
        let frame = |frame| Sent::Frame {
            dst: 1,
            frame,
            teardown: false,
        };
        let report = Frame::StreamResync {
            rdv_id: 5,
            received: 0,
            missing: vec![(0, 32)],
        };
        let rts = Frame::PartRts {
            ctx: 3,
            total_len: 64,
            rdv_id: waits,
        };
        let want = vec![
            frame(report),
            Sent::PartCts { src: 1, rdv_id: 5 },
            frame(rts),
        ];
        assert_eq!(taken(&carrier), want);
        // The peer's repeated announcements are copies: neither pairs
        // with the next post, which takes the parked stream 6.
        wire.dispatch(&fabric, 1, part_rts(32, 5));
        wire.dispatch(&fabric, 1, part_rts(32, 6));
        let mut next = vec![0u8; 32];
        wire.part_stream_post(&fabric, 1, 7, dest(&mut next, 32));
        assert_eq!(taken(&carrier), vec![Sent::PartCts { src: 1, rdv_id: 6 }]);
        let mut spare = vec![0u8; 32];
        wire.part_stream_post(&fabric, 1, 7, dest(&mut spare, 32));
        assert!(taken(&carrier).is_empty(), "a copy paired with a post");
        // A retired stream leaves no trace behind.
        wire.dispatch(&fabric, 1, part_data(5, 0, &[1; 32]));
        assert!(!wire.announced.lock().contains(&(1, 5)));
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_stream_grant_must_fit_the_arena() {
        const ARENA: u64 = 1 << 20;
        // Past the arena by one byte, and an offset that overflows.
        for grant in [ARENA - 4096 + 1, u64::MAX - 100] {
            let (fabric, carrier) = engine(2, 0, 0);
            let wire = fabric.wire();
            let src = vec![0u8; 4096];
            let id = wire.part_stream_begin(&fabric, 1, 7, 4096, Vec::new());
            wire.part_stream_push(&fabric, id, 0, &src[..1024], 1);
            taken(&carrier);
            wire.handle_part_cts(&fabric, 1, id, Some(grant), ARENA);
            assert!(misuse_of(&fabric, 1).contains("exceeds the 1048576-byte arena"));
            assert!(
                !taken(&carrier)
                    .iter()
                    .any(|s| matches!(s, Sent::Chunks { .. })),
                "nothing ships under a refused grant"
            );
        }
        // The largest grant that fits is accepted and releases the queue.
        let (fabric, carrier) = engine(2, 0, 0);
        let wire = fabric.wire();
        let src = vec![0u8; 4096];
        let id = wire.part_stream_begin(&fabric, 1, 7, 4096, Vec::new());
        wire.part_stream_push(&fabric, id, 0, &src[..1024], 1);
        taken(&carrier);
        wire.handle_part_cts(&fabric, 1, id, Some(ARENA - 4096), ARENA);
        let chunks = |ranges| Sent::Chunks {
            dst: 1,
            rdv_id: id,
            grant: Some(ARENA - 4096),
            ranges,
        };
        assert_eq!(taken(&carrier), vec![chunks(vec![(0, 1024)])]);
        // Post-CTS pushes flow straight through, and the last retires it.
        wire.part_stream_push(&fabric, id, 1024, &src[1024..], 3);
        assert_eq!(taken(&carrier), vec![chunks(vec![(1024, 3072)])]);
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

    fn fresh_stream(total_len: usize) -> StreamSend {
        StreamSend {
            dst: 1,
            announce: Frame::Bye,
            cts: None,
            flushed: false,
            total_len,
            pushed: 0,
            pend: None,
            queued: Vec::new(),
            spans: Arc::new(SendSpans::new(Vec::new())),
        }
    }

    #[test]
    fn adjacent_ranges_coalesce_until_the_threshold() {
        let buf = vec![0u8; 4096];
        let mut s = fresh_stream(1 << 20);
        assert!(s.push(0, buf.as_ptr(), 100, 1, 256).is_empty());
        assert!(s.push(100, buf[100..].as_ptr(), 100, 1, 256).is_empty());
        let out = s.push(200, buf[200..].as_ptr(), 100, 2, 256);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].offset, 0);
        assert_eq!(out[0].len, 300);
        assert_eq!(out[0].parts, 4);
        assert!(s.pend.is_none(), "dispatched chunk leaves no window");
    }

    #[test]
    fn a_gap_flushes_the_open_window() {
        let buf = vec![0u8; 1024];
        let mut s = fresh_stream(1 << 20);
        assert!(s.push(0, buf.as_ptr(), 100, 1, 256).is_empty());
        let out = s.push(500, buf[500..].as_ptr(), 100, 1, 256);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].offset, out[0].len), (0, 100));
        let tail = s.pend.take().expect("gap range opens a new window");
        assert_eq!((tail.offset, tail.len), (500, 100));
    }

    #[test]
    fn threshold_sized_ranges_skip_the_window() {
        let buf = vec![0u8; 8192];
        let mut s = fresh_stream(1 << 20);
        let out = s.push(0, buf.as_ptr(), 512, 4, 256);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 512);
        assert!(s.pend.is_none());
        // And with a non-adjacent window open, both come out in order.
        assert!(s.push(4096, buf[4096..].as_ptr(), 10, 1, 256).is_empty());
        let out = s.push(0, buf.as_ptr(), 512, 4, 256);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].offset, out[0].len), (4096, 10));
        assert_eq!((out[1].offset, out[1].len), (0, 512));
    }

    #[test]
    fn the_final_push_flushes_the_tail_window() {
        let buf = vec![0u8; 300];
        let mut s = fresh_stream(300);
        assert!(s.push(0, buf.as_ptr(), 100, 1, 1 << 20).is_empty());
        let out = s.push(100, buf[100..].as_ptr(), 200, 3, 1 << 20);
        assert_eq!(
            out.len(),
            1,
            "reaching total_len flushes without an explicit call"
        );
        assert_eq!((out[0].offset, out[0].len, out[0].parts), (0, 300, 4));
        assert!(s.flushed, "stream retires itself once fully pushed");
        assert!(s.pend.is_none());
    }

    #[test]
    fn span_completion_fires_exactly_when_a_span_is_fully_written() {
        let spans = vec![
            SendSpan::new(0, 100, Completion::new()),
            SendSpan::new(100, 100, Completion::new()),
        ];
        complete_spans(&spans, 0, 150);
        assert!(spans[0].done.is_set(), "fully covered span completes");
        assert!(!spans[1].done.is_set(), "half-written span stays pending");
        complete_spans(&spans, 150, 50);
        assert!(spans[1].done.is_set(), "second write covers the remainder");
    }

    #[test]
    fn span_completion_saturates_on_failover_replay() {
        let spans = vec![SendSpan::new(0, 100, Completion::new())];
        complete_spans(&spans, 0, 60);
        assert_eq!(spans[0].remaining.load(Ordering::Relaxed), 40);
        complete_spans(&spans, 40, 60);
        assert!(spans[0].done.is_set());
        // Replays against a finished span saturate at zero: the counter
        // never underflows (a plain `fetch_sub` would wrap to usize::MAX
        // and the span could "complete" again on the way back down).
        complete_spans(&spans, 0, 100);
        complete_spans(&spans, 20, 50);
        assert_eq!(
            spans[0].remaining.load(Ordering::Relaxed),
            0,
            "post-completion replays are no-ops"
        );
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
