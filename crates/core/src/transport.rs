//! The transport seam: how fabric traffic leaves the process.
//!
//! [`Fabric`] routes every remote-bound message through a [`Transport`].
//! In-process universes use [`SharedMemTransport`], a stub that is never
//! actually called (every rank is local, so the fabric delivers straight
//! into the destination's match queues — the hot path pays exactly one
//! cached-bool branch for the seam's existence). Multiprocess universes
//! use [`SocketTransport`], the progress engine that carries the same
//! protocol over Unix-domain or TCP sockets:
//!
//! * **Eager**: the payload is framed and shipped; the receiving
//!   process's reader thread copies it into a pooled buffer and feeds it
//!   to the ordinary matching path ([`Fabric::deliver_wire_eager`]).
//! * **Rendezvous**: the sender pins its buffer in `pending_rdv` and
//!   ships an RTS. When the receiver matches it, the posted buffer parks
//!   with the transport and a CTS goes back; the sender's reader answers
//!   the CTS by framing the pinned bytes (the wire analogue of the
//!   zero-copy handoff) and only then sets the sender's completion, so
//!   `pready`/`parrived` and every completion stay the same lock-free
//!   atomics as in-process.
//! * **Partitioned streaming**: a wire-bound partitioned send announces
//!   its whole buffer with one `PartRts`; the receiver pins its whole
//!   destination and answers `PartCts`. From then on every `pready`-
//!   completed run of partitions is coalesced toward the
//!   `PCOMM_NET_AGGR` threshold and shipped as an order-independent
//!   `PartData { offset, payload }` range the moment it is ready —
//!   partitions stream across the process boundary instead of waiting
//!   for the whole buffer. Both ends are zero-copy: the source buffer
//!   is pinned (MPI forbids touching it between `start` and `wait`
//!   anyway), so writers put ranges on the wire with a vectored write
//!   straight out of application memory, and readers `read(2)` each
//!   range straight *into* the pinned destination — the only copies
//!   are the kernel's socket transfers. A message's `sent` completion
//!   flips when the writers have written its last byte; the receiver
//!   flips the per-message completions whose byte ranges have fully
//!   landed, so `parrived` goes true partition-by-partition across
//!   processes, exactly like the in-process early-bird path.
//! * **Barrier**: rank 0 coordinates; everyone ships `BarrierArrive`,
//!   rank 0 broadcasts `BarrierRelease` for the generation.
//! * **RMA**: windows announce their length to a remote origin; puts and
//!   gets become `Put`/`GetReq`/`GetResp` frames applied by the target's
//!   reader thread. Per-peer frames are FIFO, so every put of an epoch is
//!   applied before the completion/done message that follows it — remote
//!   flush rides on socket ordering.
//!
//! # Threading model
//!
//! Per peer, per lane: one **writer** thread owning that lane's write
//! half and an unbounded channel (senders only enqueue — a send can
//! never block on a remote process, so there is no distributed
//! write-write deadlock), and one **reader** thread owning the read
//! half, dispatching frames into the fabric. Lane 0 carries all
//! ordered traffic (eager, rendezvous control, barriers, RMA, abort,
//! `Bye`); lanes `1..N` (`PCOMM_NET_LANES`) carry only the
//! order-independent `PartData` ranges, round-robined so a large
//! partition stream cannot head-of-line-block small eager traffic.
//! Writers drain their channel in batches and put each batch on the
//! wire with one vectored write. Abort tears everything down: the
//! failing process broadcasts an `Abort` frame, then `shutdown(2)`
//! unblocks its own readers.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{
    self, Frame, ABORT_MESSAGE_LOST, ABORT_MISUSE, ABORT_MISUSE_RANK, ABORT_PEER_PANICKED,
    MAX_FRAME_BODY, MAX_RESYNC_RANGES,
};
use pcomm_net::{Endpoint, Mesh, MeshConfig, WireFault, WireFaults};
use pcomm_trace::{EventKind, FaultKind, FaultPlan};

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, MsgInfo, PostedRecv, WAIT_SLICE};
use crate::sync::{Completion, Mutex};

/// Slice for non-unwinding waits in teardown paths (mirrors the
/// fabric's `WAIT_SLICE`).
pub(crate) const TEARDOWN_SLICE: Duration = Duration::from_millis(2);

/// Hard deadline on the finalize barrier: every healthy peer reaches it
/// as soon as its closure returns, so far past this something is wrong
/// and the run fails instead of hanging.
pub(crate) const FINALIZE_TIMEOUT: Duration = Duration::from_secs(30);

/// Most frames a writer puts on the wire with one vectored write. Past
/// this the batch spans enough bytes that syscall overhead is already
/// amortised.
const WRITER_BATCH: usize = 16;

/// Hard bound on the single lane-0 reconnect attempt: long enough for
/// the peer to notice its own side died and rendezvous, short enough
/// that a genuinely dead peer becomes a typed error well inside the
/// default chaos watchdog budget.
const RECONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// First writer-queue depth that emits a `WriterQueue` trace event; each
/// further event needs double the depth (the channels are unbounded, so
/// depth growth — not blocking — is the congestion signal).
const QUEUE_HWM_BASE: usize = 64;

/// How a fabric reaches ranks hosted outside this process. All methods
/// except the introspective ones are called only for remote ranks of a
/// multiprocess run.
pub(crate) trait Transport: Send + Sync {
    /// The rank this process hosts (multiprocess runs).
    fn local_rank(&self) -> usize;

    /// Whether ranks live in separate processes.
    fn is_multiproc(&self) -> bool;

    /// Ship an eager payload to a remote rank.
    fn ship_eager(&self, dst: usize, shard: usize, ctx: u64, tag: i64, data: &[u8]);

    /// Ship a rendezvous RTS for a pinned source buffer; the buffer's
    /// `done` fires when the CTS comes back and the data has been framed.
    fn ship_rts(&self, dst: usize, shard: usize, ctx: u64, tag: i64, pinned: PinnedSend);

    /// Park a matched posted receive until the wire data lands, and
    /// answer the CTS.
    #[allow(clippy::too_many_arguments)] // one per envelope field
    fn accept_remote_rdv(
        &self,
        src: usize,
        rdv_id: u64,
        posted: PostedRecv,
        shard: usize,
        tag: i64,
        rts_ns: Option<u64>,
    );

    /// Open a partitioned stream toward `dst`: announce `total_len`
    /// pinned bytes for the pair on `ctx` and return the stream id that
    /// subsequent pushes name. `spans` are the sender's per-message byte
    /// ranges; each span's `done` fires once the writers have put its
    /// last byte on the wire.
    fn part_stream_begin(
        &self,
        dst: usize,
        ctx: u64,
        total_len: usize,
        spans: Vec<SendSpan>,
    ) -> u64;

    /// Hand one ready byte range (`parts` coalesced partitions ending
    /// their `pready`s) to the stream. `data` is *pinned*, not copied:
    /// it must stay alive and unmodified until the covering spans'
    /// `done` completions fire (fabric invariant (1) — partitioned
    /// storage lives until its signals drain). Ranges queue until the
    /// `PartCts` arrives, then flow; the stream retires itself once
    /// every one of `total_len` bytes has been pushed.
    fn part_stream_push(
        &self,
        fabric: &Fabric,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    );

    /// Pin a whole partitioned destination buffer for the next stream
    /// from `src` on `ctx`; pairs FIFO with incoming `PartRts`s.
    fn part_stream_post(&self, fabric: &Fabric, src: usize, ctx: u64, recv: PartStreamRecv);

    /// Cross-process barrier (rank 0 coordinates).
    fn barrier(&self, fabric: &Fabric, rank: usize);

    /// Announce a window's length to its remote origin.
    fn announce_win(&self, origin: usize, win_ctx: u64, len: usize);

    /// Block until the remote target announced the window; returns its
    /// length.
    fn wait_win_announce(&self, fabric: &Fabric, rank: usize, win_ctx: u64) -> usize;

    /// One-sided put into a remote window.
    fn put(&self, target: usize, win_ctx: u64, offset: usize, data: &[u8]);

    /// One-sided get from a remote window (blocking round trip).
    fn get(
        &self,
        fabric: &Fabric,
        rank: usize,
        target: usize,
        win_ctx: u64,
        offset: usize,
        len: usize,
    ) -> Vec<u8>;

    /// Socket health per peer, for stall reports.
    fn peer_states(&self) -> Vec<PeerSocketState>;

    /// Doorbell tallies, for stall reports and diagnostics (`None` on
    /// fabrics without doorbells — everything but ipc).
    fn doorbell_stats(&self) -> Option<DoorbellStats> {
        None
    }

    /// Tell every peer the universe failed (first broadcast wins;
    /// subsequent calls are no-ops).
    fn broadcast_abort(&self, err: &PcommError);

    /// One bounded wait step inside `Fabric::wait_on`: park until
    /// `completion` fires or a transport-chosen slice elapses; returns
    /// whether it fired. The default simply sleeps on the completion;
    /// transports without progress threads (ipc) override this to run
    /// inline progress while the app thread waits.
    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        let _ = fabric;
        completion.wait_timeout(WAIT_SLICE)
    }

    /// Opportunistic inline progress ahead of a burst of
    /// [`Transport::wait_slice`] calls, one per entry of `completions`:
    /// a polling transport (ipc) polls until all are set or the peer
    /// goes quiet, as *one* poller rather than one per completion.
    /// Never required for correctness — the waits that follow block
    /// properly; the default does nothing.
    fn poll_burst(&self, fabric: &Fabric, completions: &[Arc<Completion>]) {
        let _ = (fabric, completions);
    }

    /// Try to pin a receiver-side destination of `len` bytes that the
    /// sender can reach directly (the ipc partition arena). Returns the
    /// transport's grant token and the mapped base pointer, or `None`
    /// when the transport has no shared destination memory (sockets) or
    /// the arena is exhausted — callers fall back to owned storage.
    fn alloc_part_dest(&self, src: usize, len: usize) -> Option<(u64, *mut u8)> {
        let _ = (src, len);
        None
    }

    /// Return a grant from `alloc_part_dest` once the receive-side
    /// storage is done with it.
    fn release_part_dest(&self, src: usize, token: u64, len: usize) {
        let _ = (src, token, len);
    }
}

/// A rendezvous source buffer pinned for the wire: the pointer stays
/// valid until `done` is set (fabric invariant (1) — the safe wrappers
/// block or hold the ticket until then).
pub(crate) struct PinnedSend {
    pub(crate) ptr: *const u8,
    pub(crate) len: usize,
    pub(crate) done: Arc<Completion>,
}

// SAFETY: the pointer is only read by the sender's own reader thread
// (answering the CTS) before `done.set()`; invariant (1) keeps the
// buffer alive and unmodified until then, and the post-abort grace in
// the drain paths covers a copy already in flight.
unsafe impl Send for PinnedSend {}

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
/// stream, handed to the transport by `precv.start()`.
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
// reader threads that dereference `base` only write disjoint ranges.
unsafe impl Send for PartStreamRecv {}

/// One message's byte span of a pinned partitioned *source* buffer:
/// `done` (the sender's "buffer reusable" signal) flips once the
/// writers have put every byte of the span on the wire.
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

/// One coalesced run of ready partitions, pinned in the source buffer
/// (adjacent pushes are contiguous memory, so coalescing just extends
/// the length).
struct PinChunk {
    /// Byte offset of the run in the whole source buffer.
    offset: u64,
    /// First byte of the run; valid until the covering spans complete.
    ptr: *const u8,
    /// Run length in bytes.
    len: usize,
    /// Partitions coalesced into the run (trace geometry).
    parts: u16,
}

// SAFETY: the pointed-to source buffer stays alive and unmodified until
// the covering spans' `done` completions fire (fabric invariant (1) —
// the request drains them before its storage drops), and only writer
// threads read through it.
unsafe impl Send for PinChunk {}

/// Sender-side state of one partitioned stream: the aggregation window
/// plus ranges queued while the `PartCts` is still in flight.
struct StreamSend {
    dst: usize,
    /// The receiver pinned its destination (`PartCts` arrived).
    cts: bool,
    /// Every byte was pushed and the tail auto-flushed; the entry dies
    /// once `cts` is also true.
    flushed: bool,
    /// Whole-buffer length; pushes auto-flush the tail on reaching it.
    total_len: usize,
    /// Bytes pushed so far.
    pushed: usize,
    /// The open aggregation window: grows while pushes stay adjacent.
    pend: Option<PinChunk>,
    /// Threshold-complete chunks waiting for the CTS.
    queued: Vec<PinChunk>,
    /// Per-message spans the writers complete as chunk writes finish.
    spans: Arc<Vec<SendSpan>>,
}

impl StreamSend {
    /// Fold one pushed range into the aggregation window and return the
    /// chunks (if any) that are now ready for the wire: adjacent ranges
    /// coalesce until they reach `aggr`, a gap flushes the open window,
    /// an already-threshold-sized range goes out directly, and the final
    /// byte of the buffer flushes whatever remains (no separate flush
    /// call, so `wait` can never deadlock against an unshipped tail).
    fn push(
        &mut self,
        offset: u64,
        ptr: *const u8,
        len: usize,
        parts: u16,
        aggr: usize,
    ) -> Vec<PinChunk> {
        self.pushed += len;
        let mut out = Vec::new();
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
                    // PANIC: this match arm bound `Some(p)` from `pend`.
                    out.push(self.pend.take().expect("pend checked above"));
                }
            }
            _ => {
                if let Some(p) = self.pend.take() {
                    out.push(p);
                }
                let chunk = PinChunk {
                    offset,
                    ptr,
                    len,
                    parts,
                };
                if len >= aggr {
                    out.push(chunk);
                } else {
                    self.pend = Some(chunk);
                }
            }
        }
        if self.pushed >= self.total_len {
            self.flushed = true;
            if let Some(p) = self.pend.take() {
                out.push(p);
            }
        }
        out
    }
}

/// Receiver-side state of one active partitioned stream: where ranges
/// land and which message completions they flip.
pub(crate) struct StreamRecv {
    pub(crate) base: *mut u8,
    pub(crate) total_len: usize,
    /// Bytes of the whole buffer not yet committed; the stream retires
    /// when this hits zero.
    pub(crate) remaining_total: AtomicUsize,
    pub(crate) msgs: Vec<PartStreamMsg>,
    /// Sorted, disjoint byte intervals already committed. Failover and
    /// reconnect replay whole batches (at-least-once delivery), so every
    /// commit first claims its range here and only the never-seen-before
    /// sub-ranges count — a duplicate `PartData` is a no-op.
    pub(crate) committed: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: same argument as [`PartStreamRecv`]; `Sync` because multiple
// reader lanes commit concurrently, but every byte of the destination
// belongs to exactly one `PartData` frame, so writes never alias.
unsafe impl Send for StreamRecv {}
unsafe impl Sync for StreamRecv {}

/// FIFO pairing of incoming `PartRts`s with posted destinations for one
/// `(src, ctx)` partitioned pair — whichever side shows up first waits.
#[derive(Default)]
pub(crate) struct PartPair {
    /// Streams announced by the sender, not yet posted: `(id, len)`.
    pub(crate) pending_rts: VecDeque<(u64, usize)>,
    /// Destinations posted by the receiver, not yet announced.
    pub(crate) waiting: VecDeque<PartStreamRecv>,
}

/// A pinned partitioned range headed for the wire: the writer encodes
/// an 18-byte `PartData` header into scratch and writes the payload
/// straight from the source buffer (no copy), then completes the spans
/// the range covers.
struct StreamWrite {
    rdv_id: u64,
    offset: u64,
    ptr: *const u8,
    len: usize,
    spans: Arc<Vec<SendSpan>>,
}

// SAFETY: same argument as [`PinChunk`] — the source stays pinned until
// the spans' `done` completions fire, and only the owning writer thread
// reads through the pointer.
unsafe impl Send for StreamWrite {}

/// A CTS-released rendezvous payload travelling to the wire without an
/// intermediate copy: the 14 header bytes go in writer scratch, the
/// payload slice is handed to the kernel straight from the pinned
/// source buffer, and `pinned.done` fires only after the vectored
/// write — so large non-partitioned sends pay one kernel copy instead
/// of three buffer hops (pinned→Vec, Vec→scratch, scratch→socket).
struct RdvWrite {
    rdv_id: u64,
    pinned: PinnedSend,
}

/// What a writer thread consumes. Frames cross the channel undecoded;
/// the writer encodes into its own reusable scratch buffers.
enum WriterMsg {
    /// A frame to put on the wire.
    Frame(Frame),
    /// A pinned partitioned range (zero-copy payload).
    Stream(StreamWrite),
    /// A pinned rendezvous payload (zero-copy, lane 0).
    Rdv(RdvWrite),
    /// Flush and exit (teardown).
    Shutdown,
}

/// A pinned rendezvous send waiting for its CTS.
struct PendingRdv {
    pinned: PinnedSend,
    dst: usize,
}

/// A matched posted receive waiting for its wire data.
struct RemoteRecv {
    posted: PostedRecv,
    shard: usize,
    tag: i64,
    /// Local timestamp of the RTS frame's arrival, for the RdvCopy span.
    rts_ns: Option<u64>,
}

/// One writer lane of a peer: its own socket, a writer thread draining
/// `tx`, and a direct write handle under `direct` that lets *reader*
/// threads put a CTS-released batch on the wire without a thread hop.
struct Lane {
    /// The original stream; kept for `shutdown` (which unblocks the
    /// reader on abort). Reader and writer own `try_clone`s.
    endpoint: Endpoint,
    tx: Sender<WriterMsg>,
    /// Taken by `start`.
    rx: Mutex<Option<Receiver<WriterMsg>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    /// The write half. The lane's writer thread locks it per batch;
    /// reader threads releasing a CTS batch write under the same mutex
    /// directly, skipping the context switch that would otherwise cap
    /// partitioned bandwidth on small machines. App threads never
    /// write here — a `pready` must not donate its timeslice to a
    /// blocking socket write. After a lane-0 reconnect this holds the
    /// re-handshaken endpoint.
    direct: Mutex<Option<Endpoint>>,
    /// Cleared when the lane's socket dies; dead data lanes drop out of
    /// the round-robin and their in-flight work fails over.
    alive: AtomicBool,
    /// Writer messages enqueued but not yet consumed by the writer
    /// thread (the backlog of the unbounded channel).
    queued: AtomicUsize,
    /// Verify-grade runs only: monotone per-lane frame counter, bumped
    /// under the lane's `direct` mutex just before each frame's write so
    /// `VerifyWireSend.seq` reproduces exact wire order. Never reset —
    /// a gap in one rank's recorded seqs marks ring overflow, not loss.
    tx_seq: AtomicU32,
}

impl Lane {
    /// Enqueue one writer message, keeping the backlog counter honest.
    /// Gives the message back when the writer thread is gone (lane died
    /// or teardown), so callers can reroute it.
    fn enqueue(&self, msg: WriterMsg) -> Result<(), WriterMsg> {
        // ORDERING: `queued` is an advisory backlog gauge read for
        // congestion tracing and diagnostics; nothing synchronizes on
        // it, so a momentarily stale count is harmless.
        self.queued.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(msg) {
            Ok(()) => Ok(()),
            Err(back) => {
                // ORDERING: same advisory gauge as the increment above.
                self.queued.fetch_sub(1, Ordering::Relaxed);
                Err(back.0)
            }
        }
    }

    /// The writer thread took one message off the channel.
    fn dequeued(&self) {
        // ORDERING: `queued` is an advisory backlog gauge (see
        // `enqueue`); exact interleaving with readers does not matter.
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Outcome of the single bounded lane-0 reconnect attempt for a peer.
enum Reconnected {
    /// Never attempted.
    No,
    /// Attempted and failed: the peer is gone for good.
    Failed,
    /// The re-handshaken lane-0 endpoint (reader/writer use clones; kept
    /// here so teardown can `shutdown` / time-bound it like the
    /// original).
    Yes(Endpoint),
}

/// Per-peer socket machinery: `lanes[0]` is the ordered lane, the rest
/// carry `PartData` only.
struct Peer {
    lanes: Vec<Lane>,
    connected: Arc<AtomicBool>,
    frames_sent: Arc<AtomicU64>,
    frames_received: Arc<AtomicU64>,
    saw_bye: Arc<AtomicBool>,
    /// Round-robin cursor over the data lanes.
    next_lane: AtomicUsize,
    /// Transport-relative ms timestamp of the last frame read from this
    /// peer on any lane — the liveness signal the heartbeat monitor
    /// escalates on.
    last_heard_ms: AtomicU64,
    /// The one bounded lane-0 reconnect, shared by the reader and writer
    /// threads (whichever notices the death first performs it; the other
    /// blocks on this lock and reuses the outcome).
    reconnect: Mutex<Reconnected>,
    /// Reconnect epoch for audit events: 0 until the peer's one bounded
    /// lane-0 reconnect succeeds, 1 after. Bumped while the lane-0
    /// `direct` mutex is held, so writers reading it under that mutex
    /// always stamp frames with the epoch of the socket they write to.
    epoch: AtomicU32,
}

/// The socket progress engine: per-peer-per-lane reader/writer threads
/// plus the request state they complete (see the module docs for the
/// model).
pub(crate) struct SocketTransport {
    rank: usize,
    n_ranks: usize,
    peers: Vec<Option<Peer>>,
    next_rdv_id: AtomicU64,
    /// `PCOMM_NET_AGGR`: partition-stream aggregation threshold.
    aggr: usize,
    /// Sender side: pinned buffers waiting for a CTS, by rendezvous id.
    pending_rdv: Mutex<HashMap<u64, PendingRdv>>,
    /// Receiver side: matched buffers waiting for data, by (src, id).
    remote_recvs: Mutex<HashMap<(usize, u64), RemoteRecv>>,
    /// Sender side: open partitioned streams, by stream id.
    streams_out: Mutex<HashMap<u64, StreamSend>>,
    /// Receiver side: RTS/post pairing per partitioned (src, ctx) pair.
    part_registry: Mutex<HashMap<(usize, u64), PartPair>>,
    /// Receiver side: active streams taking `PartData`, by (src, id).
    streams_in: Mutex<HashMap<(usize, u64), Arc<StreamRecv>>>,
    /// This process's barrier generation counter (SPMD-aligned).
    barrier_gen: AtomicU64,
    /// Rank 0 only: which ranks arrived per generation. A set, not a
    /// count: the ordered lane is at-least-once across a reconnect, so a
    /// replayed `BarrierArrive` must not double-count.
    arrivals: Mutex<HashMap<u64, HashSet<usize>>>,
    /// Release completions per generation (waiter or release creates).
    releases: Mutex<HashMap<u64, Arc<Completion>>>,
    /// Window announcements: completion + announced length per win ctx.
    #[allow(clippy::type_complexity)]
    win_slots: Mutex<HashMap<u64, (Arc<Completion>, Option<usize>)>>,
    next_get_token: AtomicU64,
    /// In-flight gets: completion + landing slot per token.
    #[allow(clippy::type_complexity)]
    get_waiters: Mutex<HashMap<u64, (Arc<Completion>, Arc<Mutex<Option<Vec<u8>>>>)>>,
    abort_sent: AtomicBool,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Mesh parameters, kept for the bounded lane-0 reconnect.
    cfg: MeshConfig,
    /// `PCOMM_NET_HB_MS`: heartbeat interval; `None` disables liveness.
    hb_ms: Option<u64>,
    hb_stop: AtomicBool,
    hb_thread: Mutex<Option<JoinHandle<()>>>,
    /// Transport epoch for the ms timestamps in `last_heard_ms`.
    t0: Instant,
    /// Sender side: span sets of live outgoing streams, for answering a
    /// receiver's `StreamResync` after a reconnect. Pruned lazily when
    /// new streams begin.
    resync_spans: Mutex<HashMap<u64, Arc<Vec<SendSpan>>>>,
    /// Set by `start`; lets the wire-fault observer (built in `new`,
    /// before the fabric exists) emit trace events. `Weak` so the
    /// fabric → transport → endpoint → observer chain is not a cycle.
    fault_obs: Arc<OnceLock<Weak<Fabric>>>,
}

impl SocketTransport {
    /// Wrap an established mesh. Threads start in
    /// [`SocketTransport::start`], once the fabric exists. When `plan`
    /// carries wire-class faults every lane endpoint is wrapped in the
    /// seeded fault injector, with an observer that traces each
    /// injection once the fabric is attached.
    pub(crate) fn new(mesh: Mesh, cfg: MeshConfig, plan: Option<&FaultPlan>) -> SocketTransport {
        let rank = mesh.rank;
        let n_ranks = mesh.n_ranks;
        let fault_obs: Arc<OnceLock<Weak<Fabric>>> = Arc::new(OnceLock::new());
        let wire = plan.filter(|p| p.any_wire_faults()).map(|p| {
            let obs = Arc::clone(&fault_obs);
            let local = rank as u16;
            Arc::new(WireFaults {
                seed: p.seed,
                torn: p.wire_torn_p,
                short_read: p.wire_short_read_p,
                garbage: p.wire_garbage_p,
                reset: p.wire_reset_p,
                lane_kill: p.wire_lane_kill,
                half_open: p.wire_half_open,
                on_fault: Some(Arc::new(move |kind, peer, lane| {
                    if let Some(fabric) = obs.get().and_then(Weak::upgrade) {
                        fabric.trace().emit(local, || EventKind::FaultInjected {
                            fault: wire_fault_kind(kind),
                            dst: peer as u16,
                            tag: lane as i64,
                            arg: 0,
                        });
                    }
                })),
            })
        });
        let peers = mesh
            .peers
            .into_iter()
            .enumerate()
            .map(|(peer_rank, eps)| {
                eps.map(|endpoints| {
                    let lanes = endpoints
                        .into_iter()
                        .enumerate()
                        .map(|(lane_idx, endpoint)| {
                            let endpoint = match &wire {
                                Some(plan) => endpoint.with_faults(
                                    Arc::clone(plan),
                                    peer_rank as u32,
                                    lane_idx as u32,
                                ),
                                None => endpoint,
                            };
                            let (tx, rx) = std::sync::mpsc::channel();
                            Lane {
                                endpoint,
                                tx,
                                rx: Mutex::new(Some(rx)),
                                writer: Mutex::new(None),
                                direct: Mutex::new(None),
                                alive: AtomicBool::new(true),
                                queued: AtomicUsize::new(0),
                                tx_seq: AtomicU32::new(0),
                            }
                        })
                        .collect();
                    Peer {
                        lanes,
                        connected: Arc::new(AtomicBool::new(true)),
                        frames_sent: Arc::new(AtomicU64::new(0)),
                        frames_received: Arc::new(AtomicU64::new(0)),
                        saw_bye: Arc::new(AtomicBool::new(false)),
                        next_lane: AtomicUsize::new(0),
                        last_heard_ms: AtomicU64::new(0),
                        reconnect: Mutex::new(Reconnected::No),
                        epoch: AtomicU32::new(0),
                    }
                })
            })
            .collect();
        SocketTransport {
            rank,
            n_ranks,
            peers,
            next_rdv_id: AtomicU64::new(0),
            aggr: pcomm_net::launch::aggr_from_env(),
            pending_rdv: Mutex::new(HashMap::new()),
            remote_recvs: Mutex::new(HashMap::new()),
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
            readers: Mutex::new(Vec::new()),
            cfg,
            hb_ms: pcomm_net::launch::hb_ms_from_env(),
            hb_stop: AtomicBool::new(false),
            hb_thread: Mutex::new(None),
            t0: Instant::now(),
            resync_spans: Mutex::new(HashMap::new()),
            fault_obs,
        }
    }

    /// Milliseconds since the transport was built (the epoch of
    /// `last_heard_ms`).
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// A frame arrived from `peer` — refresh its liveness timestamp.
    fn note_heard(&self, peer: usize) {
        if let Some(p) = &self.peers[peer] {
            // ORDERING: liveness timestamp read only by the heartbeat
            // monitor to estimate quiet time; a stale read just shifts
            // the estimate by one poll interval.
            p.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
        }
    }

    /// Audit hook: one frame is about to leave on `lane_idx` toward
    /// `dst`. Callers hold the lane's `direct` mutex (or run on its
    /// writer thread mid-batch, which writes under the same mutex), so
    /// the per-lane `tx_seq` order is exact wire order and the epoch
    /// read matches the socket the frame goes to. No-op unless the
    /// trace is verify-grade.
    fn emit_wire_send(&self, fabric: &Fabric, dst: usize, lane_idx: usize, op: u8) {
        let trace = fabric.trace();
        if !trace.is_verify() {
            return;
        }
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        // ORDERING: Relaxed suffices — the lane's `direct` mutex already
        // serialises every sender on this counter; the atomic is only a
        // convenience over `Mutex<u32>`.
        let seq = peer.lanes[lane_idx].tx_seq.fetch_add(1, Ordering::Relaxed);
        // Only lane 0 ever reconnects (`recover_lane0`); data lanes live
        // and die on one socket, so their frames are all epoch 0 — which
        // must match the receiver's reader-local count, not the shared
        // peer epoch a lane-0 reconnect bumps.
        let epoch = if lane_idx == 0 {
            peer.epoch.load(Ordering::Acquire)
        } else {
            0
        };
        let (p16, l16, op16) = (dst as u16, lane_idx as u16, op as u16);
        trace.emit_verify(self.rank as u16, || EventKind::VerifyWireSend {
            peer: p16,
            lane: l16,
            op: op16,
            epoch,
            seq,
        });
    }

    /// Audit hook: the `PartData` range `offset..offset+len` of stream
    /// `rdv_id` is about to leave on `lane_idx`. Same locking contract
    /// as [`emit_wire_send`](Self::emit_wire_send); emitted before the
    /// write so a torn batch still records what may have reached the
    /// peer. No-op unless the trace is verify-grade.
    fn emit_stream_data_tx(
        &self,
        fabric: &Fabric,
        dst: usize,
        lane_idx: usize,
        rdv_id: u64,
        offset: u64,
        len: usize,
    ) {
        let (p16, l16, stream) = (dst as u16, lane_idx as u16, rdv_id as u32);
        let len32 = len as u32;
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer: p16,
                lane: l16,
                tx: true,
                stream,
                offset,
                len: len32,
            });
    }

    /// Spawn the per-peer-per-lane reader and writer threads (plus the
    /// heartbeat monitor when enabled). Called once, after the fabric
    /// referencing this transport exists. Thread-spawn or socket-clone
    /// failure comes back as a typed error instead of a panic: resource
    /// exhaustion at launch is an environment problem, not a bug.
    pub(crate) fn start(
        self: &Arc<SocketTransport>,
        fabric: &Arc<Fabric>,
    ) -> Result<(), PcommError> {
        let start_err = |what: &str, e: io::Error| PcommError::Misuse {
            rank: Some(self.rank),
            detail: format!("transport start: {what}: {e}"),
        };
        let _ = self.fault_obs.set(Arc::downgrade(fabric));
        let now = self.now_ms();
        let mut readers = self.readers.lock();
        for (peer_rank, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else {
                continue;
            };
            // ORDERING: liveness timestamp (see `note_heard`); the
            // heartbeat monitor tolerates staleness.
            peer.last_heard_ms.store(now, Ordering::Relaxed);
            for (lane_idx, lane) in peer.lanes.iter().enumerate() {
                let rx = lane
                    .rx
                    .lock()
                    .take()
                    // PANIC: `Universe::run` calls `start` exactly once
                    // per transport; the rx halves are taken only here.
                    .expect("SocketTransport::start called twice");
                // Every lane gets BOTH a write handle under the lane
                // mutex and a writer thread draining the channel. App
                // threads always enqueue (a `pready` must never block
                // on socket I/O — inline writes stall the computation
                // for a scheduler quantum on oversubscribed hosts);
                // reader threads releasing a CTS batch write directly
                // under the same mutex, skipping the thread hop.
                *lane.direct.lock() = Some(
                    lane.endpoint
                        .try_clone()
                        .map_err(|e| start_err("cloning the lane write handle", e))?,
                );
                let sent = Arc::clone(&peer.frames_sent);
                let connected = Arc::clone(&peer.connected);
                let f = Arc::clone(fabric);
                let t = Arc::clone(self);
                let writer = std::thread::Builder::new()
                    .name(format!("pcomm-wr{peer_rank}.{lane_idx}"))
                    .spawn(move || writer_loop(t, rx, f, peer_rank, lane_idx, sent, connected))
                    .map_err(|e| start_err("spawning a writer thread", e))?;
                *lane.writer.lock() = Some(writer);

                let ep = lane
                    .endpoint
                    .try_clone()
                    .map_err(|e| start_err("cloning the lane read handle", e))?;
                let received = Arc::clone(&peer.frames_received);
                let connected = Arc::clone(&peer.connected);
                let saw_bye = Arc::clone(&peer.saw_bye);
                let t = Arc::clone(self);
                let f = Arc::clone(fabric);
                let reader = std::thread::Builder::new()
                    .name(format!("pcomm-rd{peer_rank}.{lane_idx}"))
                    .spawn(move || {
                        reader_loop(t, f, peer_rank, lane_idx, ep, received, connected, saw_bye)
                    })
                    .map_err(|e| start_err("spawning a reader thread", e))?;
                readers.push(reader);
            }
        }
        drop(readers);
        if self.hb_ms.is_some() {
            let t = Arc::clone(self);
            let f = Arc::clone(fabric);
            let hb = std::thread::Builder::new()
                .name("pcomm-hb".into())
                .spawn(move || heartbeat_loop(t, f))
                .map_err(|e| start_err("spawning the heartbeat thread", e))?;
            *self.hb_thread.lock() = Some(hb);
        }
        Ok(())
    }

    /// Enqueue one frame toward `dst` on a specific lane (never blocks;
    /// the writer thread does the I/O). Sends to an already-torn-down
    /// peer are dropped.
    fn send_frame_lane(&self, dst: usize, lane: usize, frame: Frame) {
        if let Some(peer) = &self.peers[dst] {
            let _ = peer.lanes[lane].enqueue(WriterMsg::Frame(frame));
        }
    }

    /// Enqueue one ordered frame toward `dst` (lane 0).
    fn send_frame(&self, dst: usize, frame: Frame) {
        self.send_frame_lane(dst, 0, frame);
    }

    /// Round-robin a `PartData` chunk over the *surviving* data lanes;
    /// dead lanes drop out of the rotation. With one lane (or every
    /// data lane down) everything shares lane 0.
    fn pick_lane(&self, peer: &Peer) -> usize {
        let n = peer.lanes.len();
        if n > 1 {
            for _ in 0..n - 1 {
                // ORDERING: round-robin cursor — any interleaving still
                // picks a valid lane; fairness is best-effort.
                let lane = 1 + peer.next_lane.fetch_add(1, Ordering::Relaxed) % (n - 1);
                if peer.lanes[lane].alive.load(Ordering::Acquire) {
                    return lane;
                }
            }
        }
        0
    }

    /// A data lane's socket died. First caller (reader and writer race)
    /// marks it dead, kills both halves so the twin thread and the
    /// remote end stop waiting on it, and traces the death. Lane 0 never
    /// goes through here — its failure is a reconnect, not a failover.
    fn data_lane_failed(&self, fabric: &Fabric, peer_rank: usize, lane_idx: usize) {
        debug_assert!(lane_idx > 0, "lane 0 recovers, it does not fail over");
        let Some(peer) = &self.peers[peer_rank] else {
            return;
        };
        let lane = &peer.lanes[lane_idx];
        if !lane.alive.swap(false, Ordering::AcqRel) {
            return;
        }
        lane.endpoint.shutdown();
        let (p16, l16) = (peer_rank as u16, lane_idx as u16);
        fabric
            .trace()
            .emit(self.rank as u16, || EventKind::LaneDown {
                peer: p16,
                lane: l16,
            });
    }

    /// Re-route one pinned stream range after its lane died: pick a
    /// surviving lane (data lanes first, lane 0 as the last resort) and
    /// enqueue it there. An enqueue can only fail when that lane's
    /// writer exited too — mark it dead and keep going; a failed lane-0
    /// enqueue means the universe is tearing down and the range's
    /// waiters unwind via the abort.
    fn requeue_stream(&self, dst: usize, sw: StreamWrite) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let mut msg = WriterMsg::Stream(sw);
        loop {
            let lane_idx = self.pick_lane(peer);
            match peer.lanes[lane_idx].enqueue(msg) {
                Ok(()) => return,
                Err(back) => {
                    peer.lanes[lane_idx].alive.store(false, Ordering::Release);
                    if lane_idx == 0 {
                        return;
                    }
                    msg = back;
                }
            }
        }
    }

    /// Put the ready chunks of stream `rdv_id` on the wire toward
    /// `dst`, round-robined over the data lanes. `inline` picks the
    /// write discipline: reader threads (CTS release) pass `true` and
    /// write each lane's share directly as one vectored batch (headers
    /// from the stack, payloads straight from the pinned source — no
    /// thread hop); app threads (post-CTS `pready`) pass `false` and
    /// enqueue to the lane writers instead, because a blocking socket
    /// write inside `pready` stalls the computation for a scheduler
    /// quantum whenever the host is oversubscribed.
    fn dispatch_chunks(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        spans: &Arc<Vec<SendSpan>>,
        chunks: Vec<PinChunk>,
        inline: bool,
    ) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let n_lanes = peer.lanes.len();
        let mut buckets: Vec<Vec<PinChunk>> = (0..n_lanes).map(|_| Vec::new()).collect();
        for chunk in chunks {
            let lane = self.pick_lane(peer);
            let (parts, offset, bytes) = (chunk.parts, chunk.offset, chunk.len as u64);
            fabric
                .trace()
                .emit(self.rank as u16, || EventKind::StreamChunk {
                    lane: lane as u16,
                    parts,
                    offset,
                    bytes,
                });
            buckets[lane].push(chunk);
        }
        if !inline {
            for (lane_idx, bucket) in buckets.into_iter().enumerate() {
                for chunk in bucket {
                    let sw = StreamWrite {
                        rdv_id,
                        offset: chunk.offset,
                        ptr: chunk.ptr,
                        len: chunk.len,
                        spans: Arc::clone(spans),
                    };
                    if let Err(WriterMsg::Stream(sw)) =
                        peer.lanes[lane_idx].enqueue(WriterMsg::Stream(sw))
                    {
                        // Writer already gone (lane died under us):
                        // reroute to a survivor.
                        self.requeue_stream(dst, sw);
                    }
                }
            }
            return;
        }
        for (lane_idx, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let lane = &peer.lanes[lane_idx];
            let mut guard = lane.direct.lock();
            let Some(ep) = guard.as_mut() else {
                drop(guard);
                for chunk in bucket {
                    let sw = StreamWrite {
                        rdv_id,
                        offset: chunk.offset,
                        ptr: chunk.ptr,
                        len: chunk.len,
                        spans: Arc::clone(spans),
                    };
                    if let Err(WriterMsg::Stream(sw)) = lane.enqueue(WriterMsg::Stream(sw)) {
                        self.requeue_stream(dst, sw);
                    }
                }
                continue;
            };
            if fabric.aborted() {
                // The source buffers may already be unwinding: drop the
                // chunks unsent (their waiters unwind via the abort).
                continue;
            }
            let headers: Vec<[u8; 4 + frame::PART_DATA_BODY_HDR]> = bucket
                .iter()
                .map(|c| frame::part_data_header(rdv_id, c.offset, c.len))
                .collect();
            let mut slices: Vec<&[u8]> = Vec::with_capacity(bucket.len() * 2);
            for (header, chunk) in headers.iter().zip(&bucket) {
                slices.push(header);
                // SAFETY: the source buffer stays pinned until the
                // spans completed below fire (invariant (1)); the abort
                // check above plus the drain grace cover teardown
                // races, as in the rendezvous CTS path.
                slices.push(unsafe { std::slice::from_raw_parts(chunk.ptr, chunk.len) });
            }
            for chunk in &bucket {
                self.emit_wire_send(fabric, dst, lane_idx, frame::op::PART_DATA);
                self.emit_stream_data_tx(fabric, dst, lane_idx, rdv_id, chunk.offset, chunk.len);
            }
            let wrote = write_all_vectored(ep, &slices).and_then(|()| ep.flush());
            drop(slices);
            drop(guard);
            if wrote.is_err() {
                if fabric.aborted() {
                    continue;
                }
                if lane_idx > 0 {
                    // The bucket never reached the wire (or did so only
                    // partially — the receiver's interval ledger absorbs
                    // the overlap): fail the lane over and replay the
                    // chunks on survivors.
                    self.data_lane_failed(fabric, dst, lane_idx);
                }
                let requeued = bucket.len() as u64;
                for chunk in bucket {
                    let sw = StreamWrite {
                        rdv_id,
                        offset: chunk.offset,
                        ptr: chunk.ptr,
                        len: chunk.len,
                        spans: Arc::clone(spans),
                    };
                    // For lane 0 (single-lane meshes) this re-enqueues to
                    // the lane-0 writer, whose own error path performs
                    // the bounded reconnect-and-retry.
                    self.requeue_stream(dst, sw);
                }
                let (p16, l16) = (dst as u16, lane_idx as u16);
                fabric
                    .trace()
                    .emit(self.rank as u16, || EventKind::LaneFailover {
                        peer: p16,
                        lane: l16,
                        requeued,
                    });
                continue;
            }
            for chunk in &bucket {
                complete_spans(spans, chunk.offset as usize, chunk.len);
            }
            let sent = bucket.len() as u64;
            // ORDERING: statistics counter surfaced in diagnostics
            // snapshots only; no memory is published through it.
            peer.frames_sent.fetch_add(sent, Ordering::Relaxed);
        }
    }

    /// Receiver: a sender announced a stream. Pair it with a posted
    /// destination if one is waiting, else park the announcement.
    fn handle_part_rts(
        &self,
        fabric: &Fabric,
        src: usize,
        ctx: u64,
        total_len: usize,
        rdv_id: u64,
    ) {
        {
            let (p16, stream, total) = (src as u16, rdv_id as u32, total_len as u64);
            fabric
                .trace()
                .emit_verify(self.rank as u16, || EventKind::VerifyStreamRts {
                    peer: p16,
                    tx: false,
                    stream,
                    total_len: total,
                });
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
            self.activate_stream(fabric, src, rdv_id, total_len, recv, true);
        }
    }

    /// Receiver: a posted destination met its announcement — validate,
    /// register the active stream, and clear the sender to stream.
    /// `inline` is true when called from a reader thread (RTS arrival),
    /// false from an app thread (`start` posting the destination).
    fn activate_stream(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        total_len: usize,
        recv: PartStreamRecv,
        inline: bool,
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
            let p16 = src as u16;
            let epoch = self.peers[src]
                .as_ref()
                .map_or(0, |p| p.epoch.load(Ordering::Acquire));
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: true,
                stream: stream32,
                epoch,
            });
        }
        let stream = Arc::new(StreamRecv {
            base: recv.base,
            total_len,
            remaining_total: AtomicUsize::new(total_len),
            msgs: recv.msgs,
            committed: Mutex::new(Vec::new()),
        });
        self.streams_in.lock().insert((src, rdv_id), stream);
        // From a reader thread, prefer a direct data-lane write for the
        // CTS: the sender's data-lane reader then dispatches the queued
        // chunks from its own thread, so the whole release chain costs
        // no writer-thread wakeups. The CTS orders against nothing on
        // the ordered lane — the sender just needs it as fast as
        // possible. From an app thread, enqueue instead of blocking.
        if inline {
            self.send_data_frame(fabric, src, Frame::PartCts { rdv_id });
        } else {
            self.send_frame(src, Frame::PartCts { rdv_id });
        }
    }

    /// Put a small control frame on a data lane's socket directly if
    /// one exists (bypassing the lane-0 writer thread), else fall back
    /// to the ordered lane. Only valid for frames with no ordering
    /// obligation toward lane-0 traffic.
    fn send_data_frame(&self, fabric: &Fabric, dst: usize, frame: Frame) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        for (lane_idx, lane) in peer.lanes.iter().enumerate().skip(1) {
            if !lane.alive.load(Ordering::Acquire) {
                continue;
            }
            let wrote = {
                let mut guard = lane.direct.lock();
                match guard.as_mut() {
                    Some(ep) => {
                        let mut buf = Vec::with_capacity(32);
                        frame.encode_into(&mut buf);
                        self.emit_wire_send(fabric, dst, lane_idx, frame.op());
                        Some(write_all_vectored(ep, &[&buf]).and_then(|()| ep.flush()))
                    }
                    None => None,
                }
            };
            match wrote {
                Some(Ok(())) => {
                    // ORDERING: statistics counter (diagnostics only).
                    peer.frames_sent.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(Err(_)) => {
                    if fabric.aborted() {
                        return;
                    }
                    // This lane is gone; the frame carries no ordering
                    // obligation, so just try the next survivor.
                    self.data_lane_failed(fabric, dst, lane_idx);
                }
                None => {}
            }
        }
        self.send_frame(dst, frame);
    }

    /// Sender: the receiver pinned its destination — release every
    /// queued chunk onto the data lanes.
    fn handle_part_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64) {
        if fabric.aborted() {
            return;
        }
        {
            let (p16, stream) = (peer as u16, rdv_id as u32);
            let epoch = self.peers[peer]
                .as_ref()
                .map_or(0, |p| p.epoch.load(Ordering::Acquire));
            fabric
                .trace()
                .emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                    peer: p16,
                    tx: false,
                    stream,
                    epoch,
                });
        }
        let (dst, spans, chunks) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&rdv_id) else {
                return; // duplicate or post-abort straggler
            };
            stream.cts = true;
            let chunks = std::mem::take(&mut stream.queued);
            let dst = stream.dst;
            let spans = Arc::clone(&stream.spans);
            if stream.flushed {
                out.remove(&rdv_id);
            }
            (dst, spans, chunks)
        };
        debug_assert_eq!(dst, peer, "PartCts must come from the stream's receiver");
        // Runs on a reader thread: write the batch directly.
        self.dispatch_chunks(fabric, dst, rdv_id, &spans, chunks, true);
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

    /// Receiver: the bytes of `offset..offset+len` are in the pinned
    /// destination — flip every message completion the range finishes
    /// and retire the stream once the whole buffer has landed.
    #[allow(clippy::too_many_arguments)] // one per envelope field
    fn commit_stream_range(
        &self,
        fabric: &Fabric,
        src: usize,
        lane: usize,
        rdv_id: u64,
        stream: &StreamRecv,
        offset: usize,
        len: usize,
    ) {
        let end = offset + len;
        let trace = fabric.trace();
        let stream32 = rdv_id as u32;
        {
            // Recorded before the dedup claim: the auditor's FSM pass
            // wants every range the wire delivered, duplicates included
            // (replay absorption is exactly what the ledger pass proves).
            let (p16, l16, off64, len32) = (src as u16, lane as u16, offset as u64, len as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer: p16,
                lane: l16,
                tx: false,
                stream: stream32,
                offset: off64,
                len: len32,
            });
        }
        // At-least-once wire: a lane failover or reconnect replays whole
        // batches, so the same range can land twice. Claim it against
        // the stream's interval ledger first — only the never-committed
        // sub-ranges count toward message and stream completion.
        let fresh = {
            let mut committed = stream.committed.lock();
            claim_range(&mut committed, offset, end)
        };
        let fresh_bytes: usize = fresh.iter().map(|&(lo, hi)| hi - lo).sum();
        if fresh_bytes == 0 {
            return; // pure duplicate: every byte landed before
        }
        for &(f_lo, f_hi) in &fresh {
            let (p16, l16, lo64, flen) =
                (src as u16, lane as u16, f_lo as u64, (f_hi - f_lo) as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCommit {
                peer: p16,
                lane: l16,
                stream: stream32,
                lo: lo64,
                len: flen,
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
                    fabric.complete_stream_msg(
                        src,
                        msg.tag,
                        msg.len,
                        &msg.info,
                        &msg.completion,
                        msg.verify_msg,
                    );
                    msgs_done += 1;
                }
            }
        }
        let (off64, bytes) = (offset as u64, fresh_bytes as u64);
        fabric
            .trace()
            .emit(self.rank as u16, || EventKind::StreamCommit {
                lane: lane as u16,
                msgs: msgs_done,
                offset: off64,
                bytes,
            });
        if stream
            .remaining_total
            .fetch_sub(fresh_bytes, Ordering::AcqRel)
            == fresh_bytes
        {
            self.streams_in.lock().remove(&(src, rdv_id));
        }
    }

    /// Receiver: one already-decoded range landed (the `dispatch` slow
    /// path; lane readers normally read payloads straight into the
    /// destination instead) — copy it in and commit.
    fn handle_part_data(
        &self,
        fabric: &Fabric,
        src: usize,
        lane: usize,
        rdv_id: u64,
        offset: u64,
        payload: &[u8],
    ) {
        let len = payload.len();
        let offset = offset as usize;
        let Some(stream) = self.stream_range(fabric, src, rdv_id, offset, len) else {
            return;
        };
        // SAFETY: the destination stays pinned until the completions set
        // by the commit fire (invariant (1), via `PartStreamRecv`'s
        // contract), the bounds were checked by `stream_range`, and
        // every destination byte belongs to exactly one `PartData`
        // frame, so concurrent commits from different lanes never alias.
        unsafe {
            std::ptr::copy_nonoverlapping(payload.as_ptr(), stream.base.add(offset), len);
        }
        self.commit_stream_range(fabric, src, lane, rdv_id, &stream, offset, len);
    }

    /// Recover from a dead lane-0 socket with ONE bounded reconnect per
    /// peer for the transport's lifetime: re-run the pair rendezvous
    /// (Hello re-handshake included), swap the new endpoint into the
    /// lane's write handle, and tell the peer which stream bytes we
    /// already hold so it can detect unreplayable loss. The reader and
    /// writer threads race here; whoever arrives first performs the
    /// attempt, the other blocks on the slot and reuses the outcome.
    /// Returns a read handle on the new socket, or `None` when the peer
    /// is gone for good (callers then raise the typed error).
    ///
    /// The reconnected endpoint is deliberately NOT re-wrapped in the
    /// wire-fault plan: recovery is one bounded attempt, and a chaos
    /// matrix must terminate instead of looping kill/reconnect forever.
    fn recover_lane0(&self, fabric: &Fabric, peer_rank: usize) -> Option<Endpoint> {
        let peer = self.peers[peer_rank].as_ref()?;
        if fabric.aborted() || peer.saw_bye.load(Ordering::Acquire) {
            return None;
        }
        let mut slot = peer.reconnect.lock();
        match &*slot {
            Reconnected::Yes(ep) => return ep.try_clone().ok(),
            Reconnected::Failed => return None,
            Reconnected::No => {}
        }
        peer.connected.store(false, Ordering::Release);
        let started = Instant::now();
        let res =
            pcomm_net::mesh::reconnect_pair(&self.cfg, peer_rank, started + RECONNECT_TIMEOUT);
        let (ok, took_ms) = (res.is_ok(), started.elapsed().as_millis() as u64);
        let p16 = peer_rank as u16;
        fabric
            .trace()
            .emit(self.rank as u16, || EventKind::Reconnect {
                peer: p16,
                ok,
                took_ms,
            });
        let ep = match res {
            Ok(ep) => ep,
            Err(_) => {
                *slot = Reconnected::Failed;
                return None;
            }
        };
        let (writer_ep, caller_ep) = match (ep.try_clone(), ep.try_clone()) {
            (Ok(w), Ok(c)) => (w, c),
            _ => {
                *slot = Reconnected::Failed;
                return None;
            }
        };
        {
            // Swap the socket and bump the audit epoch under the same
            // mutex hold: a writer that caught the old endpoint stamps
            // its frames epoch-old, one that sees the new endpoint
            // stamps epoch-new — never mixed.
            let mut direct = peer.lanes[0].direct.lock();
            // ORDERING: Release pairs with the Acquire in
            // `emit_wire_send`; the `direct` mutex already orders the
            // two accesses, the fence is belt and braces.
            peer.epoch.fetch_add(1, Ordering::Release);
            *direct = Some(writer_ep);
        }
        // ORDERING: liveness timestamp (see `note_heard`).
        peer.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
        peer.connected.store(true, Ordering::Release);
        *slot = Reconnected::Yes(ep);
        drop(slot);
        self.send_stream_resyncs(peer_rank);
        Some(caller_ep)
    }

    /// After a lane-0 reconnect: tell `peer` the high-water state of
    /// every active incoming stream it sends us, as the complement of
    /// the committed ledger. The sender cross-checks the missing ranges
    /// against what it can still replay.
    fn send_stream_resyncs(&self, peer: usize) {
        // (rdv_id, received bytes, missing ranges) per active stream.
        type ResyncReport = (u64, u64, Vec<(u64, u64)>);
        let reports: Vec<ResyncReport> = {
            let streams = self.streams_in.lock();
            streams
                .iter()
                .filter(|((src, _), _)| *src == peer)
                .map(|((_, rdv_id), stream)| {
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
                    missing.truncate(MAX_RESYNC_RANGES);
                    (*rdv_id, received, missing)
                })
                .collect()
        };
        for (rdv_id, received, missing) in reports {
            self.send_frame(
                peer,
                Frame::StreamResync {
                    rdv_id,
                    received,
                    missing,
                },
            );
        }
    }

    /// Sender side of a receiver's post-reconnect `StreamResync`: every
    /// missing range must still be replayable. Ranges covered by spans
    /// with writes still pending are fine (the requeued work will carry
    /// them); a missing range whose span already completed means the
    /// source buffer may be unpinned — that is unreplayable loss, and it
    /// becomes a typed error instead of a receiver that waits forever.
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
        let lost = match spans {
            // Stream fully retired on our side yet bytes are missing
            // over there: nothing pinned remains to replay.
            None => true,
            Some(spans) => missing.iter().any(|&(lo, hi)| {
                let (lo, hi) = (lo as usize, hi as usize);
                spans.iter().any(|s| {
                    s.offset.max(lo) < (s.offset + s.len).min(hi)
                        && s.remaining.load(Ordering::Acquire) == 0
                })
            }),
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

    /// Get-or-create the release completion for barrier generation
    /// `gen` (reader thread and waiting rank race to create it).
    fn release_completion(&self, gen: u64) -> Arc<Completion> {
        Arc::clone(self.releases.lock().entry(gen).or_default())
    }

    /// Rank 0: record `from`'s arrival for `gen`; on the last distinct
    /// one, broadcast the release and complete the local waiter. Keyed
    /// by rank, not counted: a reconnect can replay a `BarrierArrive`.
    fn note_arrival(&self, gen: u64, from: usize) {
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
                self.send_frame(peer, Frame::BarrierRelease { gen });
            }
            self.release_completion(gen).set();
        }
    }

    /// Sender side of the wire rendezvous: a CTS arrived, so frame the
    /// pinned bytes and complete the send.
    fn handle_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64) {
        let Some(pending) = self.pending_rdv.lock().remove(&rdv_id) else {
            return; // duplicate or post-abort straggler
        };
        if fabric.aborted() {
            // The sender is unwinding via the abort; its buffer may be
            // on its way out — do not touch it, do not set done.
            return;
        }
        // Zero-copy: the pinned source rides to the lane-0 writer as an
        // `RdvWrite`; its `done` fires there, after the vectored write,
        // so the buffer stays pinned through the kernel handoff
        // (invariant (1)). If the writer is already gone the universe is
        // tearing down and the sender unwinds via the abort flag.
        if let Some(p) = &self.peers[peer] {
            let _ = p.lanes[0].enqueue(WriterMsg::Rdv(RdvWrite {
                rdv_id,
                pinned: pending.pinned,
            }));
        }
    }

    /// Dispatch one received frame. Returns `false` when the peer said
    /// goodbye and the reader should exit.
    fn dispatch(&self, fabric: &Arc<Fabric>, peer: usize, lane: usize, frame: Frame) -> bool {
        match frame {
            Frame::Eager {
                shard,
                ctx,
                tag,
                payload,
            } => fabric.deliver_wire_eager(peer, shard as usize, ctx, tag, &payload),
            Frame::Rts {
                shard,
                ctx,
                tag,
                len,
                rdv_id,
            } => fabric.deliver_wire_rts(peer, shard as usize, ctx, tag, len as usize, rdv_id),
            Frame::Cts { rdv_id } => self.handle_cts(fabric, peer, rdv_id),
            Frame::RdvData { rdv_id, payload } => {
                let entry = self.remote_recvs.lock().remove(&(peer, rdv_id));
                if let Some(r) = entry {
                    fabric.complete_remote_rdv(r.posted, peer, r.tag, r.shard, &payload, r.rts_ns);
                }
            }
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => self.handle_part_rts(fabric, peer, ctx, total_len as usize, rdv_id),
            Frame::PartCts { rdv_id } => self.handle_part_cts(fabric, peer, rdv_id),
            Frame::PartData {
                rdv_id,
                offset,
                payload,
            } => self.handle_part_data(fabric, peer, lane, rdv_id, offset, &payload),
            Frame::BarrierArrive { gen } => self.note_arrival(gen, peer),
            Frame::BarrierRelease { gen } => self.release_completion(gen).set(),
            // Liveness only; the reader already refreshed `last_heard_ms`.
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
                let completion = {
                    let mut slots = self.win_slots.lock();
                    let slot = slots
                        .entry(win_ctx)
                        .or_insert_with(|| (Completion::new(), None));
                    slot.1 = Some(len as usize);
                    Arc::clone(&slot.0)
                };
                completion.set();
            }
            Frame::Put {
                win_ctx,
                offset,
                payload,
            } => fabric.apply_remote_put(peer, win_ctx, offset as usize, &payload),
            Frame::GetReq {
                win_ctx,
                offset,
                len,
                token,
            } => match fabric.read_win(win_ctx, offset as usize, len as usize) {
                Some(data) => self.send_frame(
                    peer,
                    Frame::GetResp {
                        token,
                        payload: data,
                    },
                ),
                None => fabric.fail(PcommError::misuse(
                    peer,
                    format!("get of {len} B at offset {offset} misses window ctx {win_ctx}"),
                )),
            },
            Frame::GetResp { token, payload } => {
                let waiter = {
                    let waiters = self.get_waiters.lock();
                    waiters
                        .get(&token)
                        .map(|(c, s)| (Arc::clone(c), Arc::clone(s)))
                };
                if let Some((completion, slot)) = waiter {
                    *slot.lock() = Some(payload);
                    completion.set();
                }
            }
            Frame::Hello { .. } => {} // mesh rendezvous only; stray copies ignored
        }
        true
    }

    /// Shut the wire down after the rank's closure returned. Clean runs
    /// pass a closing barrier first — nobody sends `Bye` while a peer
    /// might still need them, and no queued stream chunk can be
    /// outstanding (a receiver cannot reach the barrier until its data
    /// landed) — then flush `Bye` on every lane, join the writers, and
    /// join the readers (each exits on its peer's `Bye`). Aborted runs
    /// skip the barrier, make sure the abort was broadcast, and
    /// `shutdown(2)` the sockets so blocked readers return. Never
    /// unwinds: failures found here are recorded on the fabric.
    pub(crate) fn finalize(&self, fabric: &Fabric) {
        if !fabric.aborted() {
            // ORDERING: generation allocator — only uniqueness matters;
            // the value travels to peers inside frames, not via memory.
            let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
            let completion = self.release_completion(gen);
            if self.rank == 0 {
                self.note_arrival(gen, self.rank);
            } else {
                self.send_frame(0, Frame::BarrierArrive { gen });
            }
            let deadline = Instant::now() + FINALIZE_TIMEOUT;
            loop {
                if completion.wait_timeout(TEARDOWN_SLICE) {
                    break;
                }
                if fabric.aborted() {
                    break;
                }
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
        // Liveness held through the barrier above (a dead peer there
        // must still escalate); from here on silence is expected.
        self.hb_stop.store(true, Ordering::Release);
        if let Some(hb) = self.hb_thread.lock().take() {
            let _ = hb.join();
        }
        if fabric.aborted() {
            // Usually already broadcast by the `fail` that aborted us;
            // `abort_sent` dedupes. Covers failures recorded before the
            // transport was attached.
            if let Some(err) = fabric.failure_snapshot() {
                self.broadcast_abort(&err);
            }
        }
        for peer in self.peers.iter().flatten() {
            for lane in &peer.lanes {
                // Through the writer thread on every lane, so the
                // goodbye drains behind any still-queued stream chunks.
                let _ = lane.enqueue(WriterMsg::Frame(Frame::Bye));
                let _ = lane.enqueue(WriterMsg::Shutdown);
            }
        }
        for peer in self.peers.iter().flatten() {
            for lane in &peer.lanes {
                if let Some(writer) = lane.writer.lock().take() {
                    let _ = writer.join();
                }
            }
        }
        if fabric.aborted() {
            // Readers may be parked in a blocking read on a peer that
            // will never speak again; killing our half unblocks them
            // (they exit quietly once the abort flag is up). A
            // reconnected lane 0 lives in the reconnect slot, not
            // `endpoint` — kill it too.
            for peer in self.peers.iter().flatten() {
                for lane in &peer.lanes {
                    lane.endpoint.shutdown();
                }
                if let Reconnected::Yes(ep) = &*peer.reconnect.lock() {
                    ep.shutdown();
                }
            }
        } else {
            // Bound the clean-path reads too: every peer passed the
            // barrier, so its Bye is at most a write away — if it does
            // not arrive within the establish-grade timeout the reader
            // errors out instead of hanging the join below.
            for peer in self.peers.iter().flatten() {
                for lane in &peer.lanes {
                    let _ = lane
                        .endpoint
                        .set_read_timeout(Some(pcomm_net::mesh::ESTABLISH_TIMEOUT));
                }
                if let Reconnected::Yes(ep) = &*peer.reconnect.lock() {
                    let _ = ep.set_read_timeout(Some(pcomm_net::mesh::ESTABLISH_TIMEOUT));
                }
            }
        }
        let readers = std::mem::take(&mut *self.readers.lock());
        for reader in readers {
            let _ = reader.join();
        }
    }
}

impl Transport for SocketTransport {
    fn local_rank(&self) -> usize {
        self.rank
    }

    fn is_multiproc(&self) -> bool {
        true
    }

    fn ship_eager(&self, dst: usize, shard: usize, ctx: u64, tag: i64, data: &[u8]) {
        self.send_frame(
            dst,
            Frame::Eager {
                shard: shard as u16,
                ctx,
                tag,
                payload: data.to_vec(),
            },
        );
    }

    fn ship_rts(&self, dst: usize, shard: usize, ctx: u64, tag: i64, pinned: PinnedSend) {
        // ORDERING: id allocator — only uniqueness matters; the id
        // reaches the peer inside the Rts frame, not via memory.
        let rdv_id = self.next_rdv_id.fetch_add(1, Ordering::Relaxed);
        let len = pinned.len as u64;
        self.pending_rdv
            .lock()
            .insert(rdv_id, PendingRdv { pinned, dst });
        self.send_frame(
            dst,
            Frame::Rts {
                shard: shard as u16,
                ctx,
                tag,
                len,
                rdv_id,
            },
        );
    }

    fn accept_remote_rdv(
        &self,
        src: usize,
        rdv_id: u64,
        posted: PostedRecv,
        shard: usize,
        tag: i64,
        rts_ns: Option<u64>,
    ) {
        self.remote_recvs.lock().insert(
            (src, rdv_id),
            RemoteRecv {
                posted,
                shard,
                tag,
                rts_ns,
            },
        );
        self.send_frame(src, Frame::Cts { rdv_id });
    }

    fn part_stream_begin(
        &self,
        dst: usize,
        ctx: u64,
        total_len: usize,
        spans: Vec<SendSpan>,
    ) -> u64 {
        // ORDERING: id allocator (see `ship_rts`) — uniqueness only.
        let rdv_id = self.next_rdv_id.fetch_add(1, Ordering::Relaxed);
        let spans = Arc::new(spans);
        {
            // Keep the span set reachable for a post-reconnect resync
            // check; prune entries whose spans all completed (their
            // buffers may be unpinned — nothing left to vouch for).
            let mut resync = self.resync_spans.lock();
            resync.retain(|_, s| s.iter().any(|sp| !sp.done.is_set()));
            resync.insert(rdv_id, Arc::clone(&spans));
        }
        // Register before the RTS leaves so a fast PartCts finds us.
        self.streams_out.lock().insert(
            rdv_id,
            StreamSend {
                dst,
                cts: false,
                flushed: false,
                total_len,
                pushed: 0,
                pend: None,
                queued: Vec::new(),
                spans,
            },
        );
        self.send_frame(
            dst,
            Frame::PartRts {
                ctx,
                total_len: total_len as u64,
                rdv_id,
            },
        );
        rdv_id
    }

    fn part_stream_push(
        &self,
        fabric: &Fabric,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    ) {
        let aggr = self.aggr;
        let (dst, spans, ready) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&stream_id) else {
                return; // post-abort straggler
            };
            let chunks = stream.push(offset, data.as_ptr(), data.len(), parts, aggr);
            if stream.cts {
                let dst = stream.dst;
                let spans = Arc::clone(&stream.spans);
                if stream.flushed {
                    // Last byte pushed post-CTS: the entry is done.
                    out.remove(&stream_id);
                }
                (dst, spans, chunks)
            } else {
                // The CTS handler drains `queued` (auto-flushed tail
                // included) and retires the entry when it arrives.
                stream.queued.extend(chunks);
                return;
            }
        };
        // Runs on an app thread (inside `pready`): enqueue, never block.
        self.dispatch_chunks(fabric, dst, stream_id, &spans, ready, false);
    }

    fn part_stream_post(&self, fabric: &Fabric, src: usize, ctx: u64, recv: PartStreamRecv) {
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
            self.activate_stream(fabric, src, rdv_id, total_len, recv, false);
        }
    }

    fn barrier(&self, fabric: &Fabric, rank: usize) {
        // ORDERING: generation allocator (see `finalize`) — uniqueness
        // only; barrier ordering comes from the frames themselves.
        let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
        let completion = self.release_completion(gen);
        if self.rank == 0 {
            self.note_arrival(gen, self.rank);
        } else {
            self.send_frame(0, Frame::BarrierArrive { gen });
        }
        fabric.wait_on(&completion, rank, || {
            (format!("barrier (generation {gen})"), None, None)
        });
        self.releases.lock().remove(&gen);
    }

    fn announce_win(&self, origin: usize, win_ctx: u64, len: usize) {
        self.send_frame(
            origin,
            Frame::WinAnnounce {
                win_ctx,
                len: len as u64,
            },
        );
    }

    fn wait_win_announce(&self, fabric: &Fabric, rank: usize, win_ctx: u64) -> usize {
        let completion = {
            let mut slots = self.win_slots.lock();
            Arc::clone(
                &slots
                    .entry(win_ctx)
                    .or_insert_with(|| (Completion::new(), None))
                    .0,
            )
        };
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

    fn put(&self, target: usize, win_ctx: u64, offset: usize, data: &[u8]) {
        self.send_frame(
            target,
            Frame::Put {
                win_ctx,
                offset: offset as u64,
                payload: data.to_vec(),
            },
        );
    }

    fn get(
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
        self.send_frame(
            target,
            Frame::GetReq {
                win_ctx,
                offset: offset as u64,
                len: len as u64,
                token,
            },
        );
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

    fn peer_states(&self) -> Vec<PeerSocketState> {
        let pending = self.pending_rdv.lock();
        let streams = self.streams_out.lock();
        let now = self.now_ms();
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(rank, peer)| {
                let peer = peer.as_ref()?;
                // The Relaxed loads below read advisory counters and
                // gauges; this snapshot is inherently racy by design.
                Some(PeerSocketState {
                    peer: rank,
                    connected: peer.connected.load(Ordering::Acquire),
                    // ORDERING: advisory stat for the racy snapshot.
                    frames_sent: peer.frames_sent.load(Ordering::Relaxed),
                    // ORDERING: advisory stat for the racy snapshot.
                    frames_received: peer.frames_received.load(Ordering::Relaxed),
                    // Un-CTS'd partitioned streams count as pending
                    // rendezvous: same diagnosis (waiting on the peer).
                    pending_rdv: pending.values().filter(|p| p.dst == rank).count()
                        + streams.values().filter(|s| s.dst == rank).count(),
                    queued: peer
                        .lanes
                        .iter()
                        // ORDERING: advisory backlog gauge (see
                        // `Lane::enqueue`).
                        .map(|l| l.queued.load(Ordering::Relaxed) as u64)
                        .sum(),
                    lanes_down: peer
                        .lanes
                        .iter()
                        .skip(1)
                        .filter(|l| !l.alive.load(Ordering::Acquire))
                        .count() as u16,
                    // ORDERING: liveness timestamp; staleness only
                    // shifts the quiet-time estimate.
                    quiet_ms: now.saturating_sub(peer.last_heard_ms.load(Ordering::Relaxed)),
                })
            })
            .collect()
    }

    fn broadcast_abort(&self, err: &PcommError) {
        if self.abort_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let frame = encode_abort(err);
        for peer in 0..self.n_ranks {
            if peer != self.rank {
                self.send_frame(peer, frame.clone());
            }
        }
    }
}

/// Write every slice in `bufs`, retrying partial vectored writes with a
/// manual `(slice, offset)` cursor — `write_all_vectored` is still
/// unstable in std.
fn write_all_vectored(w: &mut impl Write, bufs: &[&[u8]]) -> io::Result<()> {
    let (mut idx, mut off) = (0usize, 0usize);
    while idx < bufs.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&bufs[idx][off..]))
            .chain(bufs[idx + 1..].iter().map(|b| IoSlice::new(b)))
            .collect();
        let mut n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "net: socket accepted no bytes",
            ));
        }
        while n > 0 && idx < bufs.len() {
            let rem = bufs[idx].len() - off;
            if n >= rem {
                n -= rem;
                off = 0;
                idx += 1;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// Flip the `done` completions of every sender span fully covered once
/// `offset..offset+len` is on the wire (sender-side mirror of the
/// receiver's commit bookkeeping).
pub(crate) fn complete_spans(spans: &[SendSpan], offset: usize, len: usize) {
    let end = offset + len;
    for span in spans {
        let lo = span.offset.max(offset);
        let hi = (span.offset + span.len).min(end);
        if lo >= hi {
            continue;
        }
        let overlap = hi - lo;
        // Saturating CAS rather than a plain subtraction: a failover
        // replays whole batches, so bytes already counted can come
        // around again — the counter must neither underflow nor fire
        // `done` twice. AcqRel chains the writers' progress like the
        // receiver side.
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

/// Writer thread: drain the channel onto the socket in vectored
/// batches. Control frames encode into per-slot scratch buffers reused
/// across batches; pinned stream ranges get an 18-byte header in
/// scratch and their payload slice passed to the kernel straight from
/// the source buffer — the batch goes out as one vectored write.
///
/// Write errors split by lane. Lane 0 gets the one bounded reconnect
/// and retries the failed batch on the new socket (at-least-once — the
/// dispatch layer deduplicates); if that fails too the peer is gone:
/// record the typed error and discard the rest of the queue so
/// enqueuers never notice. A data lane fails over instead: mark it
/// dead, push every pinned range (current batch plus backlog) to the
/// surviving lanes, and keep rerouting stragglers until teardown.
fn writer_loop(
    transport: Arc<SocketTransport>,
    rx: Receiver<WriterMsg>,
    fabric: Arc<Fabric>,
    peer: usize,
    lane_idx: usize,
    frames_sent: Arc<AtomicU64>,
    connected: Arc<AtomicBool>,
) {
    let lane = &transport.peers[peer]
        .as_ref()
        // PANIC: writer threads are spawned (in `start`) only for
        // ranks whose peer slot was populated by the mesh join.
        .expect("writer thread for a missing peer")
        .lanes[lane_idx];
    let mut scratch: Vec<Vec<u8>> = (0..WRITER_BATCH).map(|_| Vec::new()).collect();
    let mut batch: Vec<WriterMsg> = Vec::with_capacity(WRITER_BATCH);
    let mut queue_hwm = QUEUE_HWM_BASE;
    loop {
        batch.clear();
        match rx.recv() {
            Err(_) => return,
            Ok(msg) => {
                lane.dequeued();
                match msg {
                    WriterMsg::Shutdown => return,
                    m => batch.push(m),
                }
            }
        }
        let mut shutdown = false;
        while batch.len() < WRITER_BATCH {
            match rx.try_recv() {
                Ok(msg) => {
                    lane.dequeued();
                    match msg {
                        WriterMsg::Shutdown => {
                            shutdown = true;
                            break;
                        }
                        m => batch.push(m),
                    }
                }
                Err(_) => break,
            }
        }
        // Unbounded channels cannot push back, so depth growth is the
        // congestion signal: trace it at doubling high-water marks.
        // ORDERING: advisory backlog gauge (see `Lane::enqueue`).
        let depth = lane.queued.load(Ordering::Relaxed);
        if depth >= queue_hwm {
            let (p16, l16, d64) = (peer as u16, lane_idx as u16, depth as u64);
            fabric
                .trace()
                .emit(transport.rank as u16, || EventKind::WriterQueue {
                    peer: p16,
                    lane: l16,
                    depth: d64,
                });
            while queue_hwm <= depth {
                queue_hwm *= 2;
            }
        }
        // An aborting universe may already be unwinding the buffers
        // that stream entries point into: drop them unsent (their
        // waiters unwind via the abort), keep the control frames (the
        // abort broadcast is one of them).
        let aborting = fabric.aborted();
        for (slot, msg) in scratch.iter_mut().zip(&batch) {
            match msg {
                WriterMsg::Frame(f) => f.encode_into(slot),
                WriterMsg::Stream(sw) => {
                    frame::encode_part_data_header(sw.rdv_id, sw.offset, sw.len, slot)
                }
                WriterMsg::Rdv(rw) => frame::encode_rdv_data_header(rw.rdv_id, rw.pinned.len, slot),
                WriterMsg::Shutdown => unreachable!("Shutdown never enters the batch"),
            }
        }
        let mut slices: Vec<&[u8]> = Vec::with_capacity(batch.len() * 2);
        for (slot, msg) in scratch.iter().zip(&batch) {
            match msg {
                WriterMsg::Frame(_) => slices.push(slot),
                WriterMsg::Stream(sw) => {
                    if aborting {
                        continue;
                    }
                    slices.push(slot);
                    // SAFETY: the source buffer stays pinned until the
                    // spans completed below fire (invariant (1)); the
                    // abort check above plus the drain grace cover
                    // teardown races, as in the rendezvous CTS path.
                    slices.push(unsafe { std::slice::from_raw_parts(sw.ptr, sw.len) });
                }
                WriterMsg::Rdv(rw) => {
                    if aborting {
                        continue;
                    }
                    slices.push(slot);
                    let pinned =
                        // SAFETY: the rendezvous source stays pinned until
                        // `pinned.done` fires after this batch's write
                        // (invariant (1)); same abort/drain-grace argument
                        // as the stream slices above.
                        unsafe { std::slice::from_raw_parts(rw.pinned.ptr, rw.pinned.len) };
                    slices.push(pinned);
                }
                WriterMsg::Shutdown => {}
            }
        }
        // The write happens under the lane mutex: reader threads
        // releasing a CTS batch write the same socket directly, and the
        // mutex is what keeps the two writers' frames from interleaving.
        let write_batch = || {
            let mut guard = lane.direct.lock();
            match guard.as_mut() {
                Some(ep) => {
                    // Audit record under the lane mutex, one event per
                    // frame in wire order, re-stamped on a post-reconnect
                    // retry (each attempt is a genuine new wire frame).
                    for msg in &batch {
                        match msg {
                            WriterMsg::Frame(f) => {
                                transport.emit_wire_send(&fabric, peer, lane_idx, f.op());
                            }
                            WriterMsg::Stream(sw) if !aborting => {
                                transport.emit_wire_send(
                                    &fabric,
                                    peer,
                                    lane_idx,
                                    frame::op::PART_DATA,
                                );
                                transport.emit_stream_data_tx(
                                    &fabric, peer, lane_idx, sw.rdv_id, sw.offset, sw.len,
                                );
                            }
                            WriterMsg::Rdv(_) if !aborting => {
                                transport.emit_wire_send(
                                    &fabric,
                                    peer,
                                    lane_idx,
                                    frame::op::RDV_DATA,
                                );
                            }
                            _ => {}
                        }
                    }
                    write_all_vectored(ep, &slices).and_then(|()| ep.flush())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "net: lane endpoint already torn down",
                )),
            }
        };
        let mut wrote = write_batch();
        if wrote.is_err() && lane_idx == 0 && !fabric.aborted() {
            // One bounded reconnect, then the same batch goes out again
            // on the new socket (`direct` was swapped underneath the
            // closure). At-least-once: dispatch deduplicates replays.
            if transport.recover_lane0(&fabric, peer).is_some() {
                wrote = write_batch();
            }
        }
        if wrote.is_err() {
            if lane_idx > 0 && !fabric.aborted() {
                // Data-lane death: fail over. Nothing in this batch has
                // completed its spans yet, so the pinned sources are
                // still live — replay them whole on the survivors.
                transport.data_lane_failed(&fabric, peer, lane_idx);
                let mut requeued = 0u64;
                for msg in batch.drain(..) {
                    if let WriterMsg::Stream(sw) = msg {
                        transport.requeue_stream(peer, sw);
                        requeued += 1;
                    }
                }
                while let Ok(msg) = rx.try_recv() {
                    lane.dequeued();
                    match msg {
                        WriterMsg::Stream(sw) => {
                            transport.requeue_stream(peer, sw);
                            requeued += 1;
                        }
                        WriterMsg::Shutdown => shutdown = true,
                        // Rdv rides lane 0 only; unreachable here.
                        WriterMsg::Frame(_) | WriterMsg::Rdv(_) => {}
                    }
                }
                let (p16, l16) = (peer as u16, lane_idx as u16);
                fabric
                    .trace()
                    .emit(transport.rank as u16, || EventKind::LaneFailover {
                        peer: p16,
                        lane: l16,
                        requeued,
                    });
                if shutdown {
                    return;
                }
                // Stay alive so late enqueues keep rerouting until the
                // teardown Shutdown arrives.
                loop {
                    match rx.recv() {
                        Err(_) => return,
                        Ok(msg) => {
                            lane.dequeued();
                            match msg {
                                WriterMsg::Stream(sw) => transport.requeue_stream(peer, sw),
                                WriterMsg::Shutdown => return,
                                // Rdv rides lane 0 only; unreachable here.
                                WriterMsg::Frame(_) | WriterMsg::Rdv(_) => {}
                            }
                        }
                    }
                }
            }
            connected.store(false, Ordering::Release);
            if !fabric.aborted() {
                fabric.fail(PcommError::PeerPanicked {
                    rank: peer,
                    message: format!(
                        "rank process exited unexpectedly \
                         (connection to rank {peer} broke mid-write)"
                    ),
                });
            }
            if shutdown {
                return;
            }
            // Drain until Shutdown so senders keep enqueueing into a
            // live channel during teardown.
            loop {
                match rx.recv() {
                    Err(_) => return,
                    Ok(msg) => {
                        lane.dequeued();
                        if matches!(msg, WriterMsg::Shutdown) {
                            return;
                        }
                    }
                }
            }
        }
        for msg in &batch {
            match msg {
                WriterMsg::Stream(sw) if !aborting => {
                    complete_spans(&sw.spans, sw.offset as usize, sw.len);
                }
                WriterMsg::Rdv(rw) if !aborting => rw.pinned.done.set(),
                _ => {}
            }
        }
        // ORDERING: statistics counter (diagnostics only).
        frames_sent.fetch_add(batch.len() as u64, Ordering::Relaxed);
        if shutdown {
            return;
        }
    }
}

/// Read the six-byte frame head: length prefix, version, opcode. The
/// version is validated here so both reader paths start from a trusted
/// head.
fn read_head(ep: &mut Endpoint) -> io::Result<(usize, u8)> {
    let mut head = [0u8; 6];
    ep.read_exact(&mut head)?;
    // PANIC: slicing a fixed 6-byte array — the length is static.
    let len = u32::from_le_bytes(head[..4].try_into().expect("4-byte prefix")) as usize;
    if !(2..=MAX_FRAME_BODY).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("net: implausible frame length {len}"),
        ));
    }
    frame::check_version(head[4])?;
    Ok((len, head[5]))
}

/// Fast path for an incoming `PartData` frame: read the 16-byte stream
/// header, then read the payload straight into the pinned destination —
/// the socket is the only copy. Ranges for retired streams (post-abort
/// stragglers) are read into `scratch` and discarded so the byte stream
/// stays framed.
fn read_part_data(
    transport: &SocketTransport,
    fabric: &Fabric,
    peer: usize,
    lane: usize,
    ep: &mut Endpoint,
    body_len: usize,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    if body_len < frame::PART_DATA_BODY_HDR {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("net: truncated PartData body ({body_len} B)"),
        ));
    }
    let mut hdr = [0u8; 16];
    ep.read_exact(&mut hdr)?;
    // PANIC: both slices of the fixed 16-byte header are statically 8
    // bytes.
    let rdv_id = u64::from_le_bytes(hdr[..8].try_into().expect("8-byte id"));
    // PANIC: see above — statically 8 bytes.
    let offset = u64::from_le_bytes(hdr[8..].try_into().expect("8-byte offset")) as usize;
    let len = body_len - frame::PART_DATA_BODY_HDR;
    match transport.stream_range(fabric, peer, rdv_id, offset, len) {
        Some(stream) => {
            // SAFETY: the destination stays pinned until the commit's
            // completions fire (invariant (1), via `PartStreamRecv`'s
            // contract), `stream_range` checked the bounds, and every
            // destination byte belongs to exactly one `PartData` frame,
            // so concurrent lane readers never alias.
            let dest = unsafe { std::slice::from_raw_parts_mut(stream.base.add(offset), len) };
            ep.read_exact(dest)?;
            transport.commit_stream_range(fabric, peer, lane, rdv_id, &stream, offset, len);
        }
        None => {
            scratch.clear();
            scratch.resize(len, 0);
            ep.read_exact(scratch)?;
        }
    }
    Ok(())
}

/// Fast path for an incoming `RdvData` frame: read the 8-byte rdv id,
/// then read the payload straight off the socket into the matched
/// posted destination — the kernel read is the only copy, mirroring
/// the writer's vectored send of the pinned source. Unmatched ids
/// (reconnect replays, post-abort stragglers) drain into `scratch` so
/// the byte stream stays framed.
fn read_rdv_data(
    transport: &SocketTransport,
    fabric: &Fabric,
    peer: usize,
    ep: &mut Endpoint,
    body_len: usize,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    if body_len < frame::RDV_DATA_BODY_HDR {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("net: truncated RdvData body ({body_len} B)"),
        ));
    }
    let mut hdr = [0u8; 8];
    ep.read_exact(&mut hdr)?;
    let rdv_id = u64::from_le_bytes(hdr);
    let len = body_len - frame::RDV_DATA_BODY_HDR;
    let entry = transport.remote_recvs.lock().remove(&(peer, rdv_id));
    match entry {
        Some(r) if !fabric.aborted() && len <= r.posted.dest_cap => {
            // SAFETY: invariant (2) — the posted destination is exclusive
            // and stays alive until the completion fires below; the abort
            // check above guards the teardown race exactly as
            // `complete_remote_rdv` does on the slow path.
            let dest = unsafe { std::slice::from_raw_parts_mut(r.posted.dest_ptr, len) };
            if let Err(err) = ep.read_exact(dest) {
                // Put the entry back so a lane-0 reconnect replay (the
                // writer re-sends the whole frame on a fresh socket) can
                // still complete this recv.
                transport.remote_recvs.lock().insert((peer, rdv_id), r);
                return Err(err);
            }
            fabric.complete_remote_rdv_in_place(r.posted, peer, r.tag, r.shard, len, r.rts_ns);
        }
        _ => {
            scratch.clear();
            scratch.resize(len, 0);
            ep.read_exact(scratch)?;
        }
    }
    Ok(())
}

/// Shared reader error path: EOF (or any read/decode error) without a
/// `Bye` means the peer process died — turn the would-be hang into a
/// typed error for every local waiter.
fn reader_failed(fabric: &Fabric, connected: &AtomicBool, peer: usize, err: &io::Error) {
    connected.store(false, Ordering::Release);
    if !fabric.aborted() {
        fabric.fail(PcommError::PeerPanicked {
            rank: peer,
            message: format!(
                "rank process exited unexpectedly (connection to rank {peer} lost: {err})"
            ),
        });
    }
}

/// Reader error triage. Data lanes (index > 0) fail over quietly: the
/// surviving lanes carry the stream and lane 0 carries liveness, so a
/// dead data lane is a trace event, not a universe failure. Lane 0 gets
/// the one bounded reconnect — on success the reader continues on the
/// returned endpoint (a fresh socket starts at a frame boundary, so a
/// mid-frame death resynchronizes naturally). Anything else is the
/// typed end of the peer.
#[allow(clippy::too_many_arguments)] // mirrors the reader's capture set
fn reader_recover(
    transport: &SocketTransport,
    fabric: &Fabric,
    peer: usize,
    lane: usize,
    connected: &AtomicBool,
    recovered: &mut bool,
    err: &io::Error,
) -> Option<Endpoint> {
    if fabric.aborted() {
        return None; // teardown; the abort already carries the story
    }
    if lane > 0 {
        transport.data_lane_failed(fabric, peer, lane);
        return None;
    }
    if !*recovered {
        // Kill our half first so the local writer and the remote peer
        // both observe the failure and join the reconnect handshake.
        if let Some(p) = &transport.peers[peer] {
            p.lanes[0].endpoint.shutdown();
        }
        if let Some(ep) = transport.recover_lane0(fabric, peer) {
            *recovered = true;
            return Some(ep);
        }
    }
    reader_failed(fabric, connected, peer, err);
    None
}

/// Reader thread: decode frames and dispatch them into the fabric until
/// the peer says `Bye`, the connection drops past recovery, or the
/// universe aborts. `PartData` frames take a borrow-decode fast path
/// that commits the range straight out of the reusable receive buffer —
/// one copy from socket to destination. Every successful head read
/// refreshes the peer's liveness timestamp.
#[allow(clippy::too_many_arguments)] // thread-capture plumbing
fn reader_loop(
    transport: Arc<SocketTransport>,
    fabric: Arc<Fabric>,
    peer: usize,
    lane: usize,
    mut ep: Endpoint,
    frames_received: Arc<AtomicU64>,
    connected: Arc<AtomicBool>,
    saw_bye: Arc<AtomicBool>,
) {
    let mut body: Vec<u8> = Vec::new();
    let mut recovered = false;
    // Audit counters, local to this reader: `rx_seq` counts every frame
    // head read off this lane in order, `rx_epoch` counts the lane-0
    // reconnect this reader lived through. Thread-local (not the shared
    // peer epoch) so frames still buffered in a dying socket keep their
    // pre-reconnect epoch even if the writer side already reconnected.
    let mut rx_seq = 0u32;
    let mut rx_epoch = 0u32;
    loop {
        let (len, op) = match read_head(&mut ep) {
            Ok(head) => head,
            Err(err) => {
                match reader_recover(
                    &transport,
                    &fabric,
                    peer,
                    lane,
                    &connected,
                    &mut recovered,
                    &err,
                ) {
                    Some(new_ep) => {
                        ep = new_ep;
                        rx_epoch += 1;
                        continue;
                    }
                    None => return,
                }
            }
        };
        transport.note_heard(peer);
        // ORDERING: statistics counter (diagnostics only).
        frames_received.fetch_add(1, Ordering::Relaxed);
        {
            let (p16, l16, op16, epoch, seq) =
                (peer as u16, lane as u16, op as u16, rx_epoch, rx_seq);
            fabric
                .trace()
                .emit_verify(transport.rank as u16, || EventKind::VerifyWireRecv {
                    peer: p16,
                    lane: l16,
                    op: op16,
                    epoch,
                    seq,
                });
            rx_seq = rx_seq.wrapping_add(1);
        }
        let keep_going = if frame::is_part_data(op) {
            read_part_data(&transport, &fabric, peer, lane, &mut ep, len, &mut body).map(|()| true)
        } else if op == frame::op::RDV_DATA {
            read_rdv_data(&transport, &fabric, peer, &mut ep, len, &mut body).map(|()| true)
        } else {
            body.clear();
            body.resize(len, 0);
            // `read_head` already validated the wire's version byte;
            // rebuild the two head bytes `Frame::decode` expects.
            body[0] = frame::WIRE_VERSION;
            body[1] = op;
            ep.read_exact(&mut body[2..])
                .and_then(|()| Frame::decode(&body))
                .map(|f| transport.dispatch(&fabric, peer, lane, f))
        };
        match keep_going {
            Ok(true) => {}
            Ok(false) => {
                saw_bye.store(true, Ordering::Release);
                return; // clean goodbye
            }
            Err(err) => {
                match reader_recover(
                    &transport,
                    &fabric,
                    peer,
                    lane,
                    &connected,
                    &mut recovered,
                    &err,
                ) {
                    Some(new_ep) => {
                        ep = new_ep;
                        rx_epoch += 1;
                        continue;
                    }
                    None => return,
                }
            }
        }
    }
}

/// Heartbeat thread (lane 0, `PCOMM_NET_HB_MS`): every interval, beat
/// toward each live peer; silence past ~2x the interval means the peer
/// died without a word (process killed, half-open socket) — escalate as
/// the typed peer death every survivor sees, instead of a stall that
/// needs the watchdog. Peers mid-reconnect or past their `Bye` are
/// exempt: those paths tell their own story.
fn heartbeat_loop(transport: Arc<SocketTransport>, fabric: Arc<Fabric>) {
    let Some(hb) = transport.hb_ms else { return };
    let tick = Duration::from_millis((hb / 4).max(1));
    // Declared dead at 7/4x the interval, so detection (tick jitter
    // included) lands within the documented 2x budget.
    let miss = hb.saturating_mul(7) / 4;
    let mut seq = 0u64;
    let mut last_sent: Option<u64> = None;
    loop {
        std::thread::sleep(tick);
        if transport.hb_stop.load(Ordering::Acquire) || fabric.aborted() {
            return;
        }
        let now = transport.now_ms();
        if last_sent.is_none_or(|t| now.saturating_sub(t) >= hb) {
            seq = seq.wrapping_add(1);
            for (rank, peer) in transport.peers.iter().enumerate() {
                let Some(peer) = peer else { continue };
                if peer.saw_bye.load(Ordering::Acquire) || !peer.connected.load(Ordering::Acquire) {
                    continue;
                }
                transport.send_frame(rank, Frame::Heartbeat { seq });
            }
            last_sent = Some(now);
        }
        for (rank, peer) in transport.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.saw_bye.load(Ordering::Acquire) || !peer.connected.load(Ordering::Acquire) {
                continue;
            }
            // ORDERING: liveness timestamp; a stale read delays the
            // verdict by at most one monitor poll.
            let quiet = now.saturating_sub(peer.last_heard_ms.load(Ordering::Relaxed));
            if quiet >= miss {
                let (p16, q) = (rank as u16, quiet);
                fabric
                    .trace()
                    .emit(transport.rank as u16, || EventKind::HeartbeatMiss {
                        peer: p16,
                        quiet_ms: q,
                    });
                fabric.fail(PcommError::PeerPanicked {
                    rank,
                    message: format!(
                        "no frame from rank {rank} for {quiet} ms \
                         (heartbeat interval {hb} ms): peer presumed dead"
                    ),
                });
                return;
            }
        }
    }
}

/// Claim `[lo, hi)` against a sorted, disjoint interval ledger: merge
/// the range in and return the sub-ranges that were NOT already present
/// (the "fresh" bytes). An empty result means a pure duplicate.
pub(crate) fn claim_range(
    committed: &mut Vec<(usize, usize)>,
    lo: usize,
    hi: usize,
) -> Vec<(usize, usize)> {
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

/// Map a wire-level fault (net crate's taxonomy) onto the trace event
/// taxonomy.
fn wire_fault_kind(kind: WireFault) -> FaultKind {
    match kind {
        WireFault::TornWrite => FaultKind::TornWrite,
        WireFault::ShortRead => FaultKind::ShortRead,
        WireFault::Garbage => FaultKind::Garbage,
        WireFault::Reset => FaultKind::Reset,
        WireFault::LaneKill => FaultKind::LaneKill,
        WireFault::HalfOpen => FaultKind::HalfOpen,
    }
}

/// Encode a [`PcommError`] into the wire's `Abort` frame.
pub(crate) fn encode_abort(err: &PcommError) -> Frame {
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
pub(crate) fn decode_abort(
    kind: u8,
    a: u64,
    b: u64,
    tag: i64,
    attempts: u64,
    detail: String,
) -> PcommError {
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

/// The in-process "transport": every rank is local, so nothing here can
/// ever be called. Exists so the fabric carries exactly one transport
/// object either way and the seam costs one cached branch.
pub(crate) struct SharedMemTransport;

impl Transport for SharedMemTransport {
    fn local_rank(&self) -> usize {
        0
    }

    fn is_multiproc(&self) -> bool {
        false
    }

    fn ship_eager(&self, _: usize, _: usize, _: u64, _: i64, _: &[u8]) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn ship_rts(&self, _: usize, _: usize, _: u64, _: i64, _: PinnedSend) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn accept_remote_rdv(&self, _: usize, _: u64, _: PostedRecv, _: usize, _: i64, _: Option<u64>) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn part_stream_begin(&self, _: usize, _: u64, _: usize, _: Vec<SendSpan>) -> u64 {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn part_stream_push(&self, _: &Fabric, _: u64, _: u64, _: &[u8], _: u16) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn part_stream_post(&self, _: &Fabric, _: usize, _: u64, _: PartStreamRecv) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn barrier(&self, _: &Fabric, _: usize) {
        unreachable!("in-process barriers use the fabric's condvar path")
    }

    fn announce_win(&self, _: usize, _: u64, _: usize) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn wait_win_announce(&self, _: &Fabric, _: usize, _: u64) -> usize {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn put(&self, _: usize, _: u64, _: usize, _: &[u8]) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn get(&self, _: &Fabric, _: usize, _: usize, _: u64, _: usize, _: usize) -> Vec<u8> {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
        Vec::new()
    }

    fn broadcast_abort(&self, _: &PcommError) {}
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A writer that accepts at most 3 bytes per call, across however
    /// many slices — exercises every partial-write resume path.
    struct DribbleWriter {
        out: Vec<u8>,
    }

    impl Write for DribbleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut left = 3usize;
            let mut written = 0usize;
            for b in bufs {
                if left == 0 {
                    break;
                }
                let n = b.len().min(left);
                self.out.extend_from_slice(&b[..n]);
                written += n;
                left -= n;
            }
            Ok(written)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_all_vectored_survives_partial_writes() {
        let bufs: [Vec<u8>; 5] = [
            vec![1u8, 2, 3, 4, 5],
            vec![],
            vec![6u8],
            vec![7u8; 10],
            vec![8u8, 9],
        ];
        let slices: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let mut w = DribbleWriter { out: Vec::new() };
        write_all_vectored(&mut w, &slices).unwrap();
        let want: Vec<u8> = bufs.concat();
        assert_eq!(w.out, want);
    }

    fn fresh_stream(total_len: usize) -> StreamSend {
        StreamSend {
            dst: 1,
            cts: false,
            flushed: false,
            total_len,
            pushed: 0,
            pend: None,
            queued: Vec::new(),
            spans: Arc::new(Vec::new()),
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
            SendSpan {
                offset: 0,
                len: 100,
                remaining: AtomicUsize::new(100),
                done: Completion::new(),
            },
            SendSpan {
                offset: 100,
                len: 100,
                remaining: AtomicUsize::new(100),
                done: Completion::new(),
            },
        ];
        complete_spans(&spans, 0, 150);
        assert!(spans[0].done.is_set(), "fully covered span completes");
        assert!(!spans[1].done.is_set(), "half-written span stays pending");
        complete_spans(&spans, 150, 50);
        assert!(spans[1].done.is_set(), "second write covers the remainder");
    }

    #[test]
    fn span_completion_saturates_on_failover_replay() {
        let spans = vec![SendSpan {
            offset: 0,
            len: 100,
            remaining: AtomicUsize::new(100),
            done: Completion::new(),
        }];
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
