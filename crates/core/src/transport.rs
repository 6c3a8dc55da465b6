//! The transport seam: what carries wire traffic out of the process.
//!
//! The protocol itself — eager, streams (partitioned sends and
//! rendezvous), barrier, RMA, abort — lives once in [`crate::wire`]. A
//! [`Transport`] is the *carrier* underneath it: it moves frames and
//! pinned byte ranges to a peer process, feeds what arrives back into
//! [`WireProtocol`](crate::wire::WireProtocol), reports liveness, and
//! owns whatever threads that takes. In-process universes use
//! [`SharedMemTransport`], a stub that is never actually called (every
//! rank is local, so the fabric delivers straight into the
//! destination's match queues — the hot path pays exactly one
//! cached-bool branch for the seam's existence). Multiprocess universes
//! use [`SocketTransport`] (this file: Unix-domain or TCP sockets) or
//! the same-host segment carrier in [`crate::transport_ipc`].
//!
//! # The socket carrier
//!
//! Per peer: one nonblocking socket, carrying all of the pair's
//! traffic in order — eager, stream announcements (`Rts`, `PartRts`),
//! `PartCts`, stream ranges, barriers, RMA, abort, `Bye`.
//! (Extra data-only sockets per pair bought nothing once one thread
//! moves every socket's bytes; DESIGN.md §11 has the numbers.) The
//! socket's state is two halves, each under its own mutex:
//!
//! * the **outbox** — a FIFO of encoded control frames and pinned
//!   writes (a stream range — a rendezvous is a one-message stream —
//!   sent straight out of the user's buffer) with a resume cursor into
//!   its front entry. A push lands in the peer's intake; whoever holds
//!   the outbox moves the intake in, audit-stamps entries in wire order
//!   and writes until the socket refuses: frames and `PartData` heads
//!   by `writev`, a pinned payload by reference
//!   ([`Endpoint::write_pinned`]: its pages are spliced into the socket,
//!   not copied). The socket reads the user's pages until the peer has
//!   read them, so a pinned entry counts off its stream's span only once
//!   the peer acks it;
//! * the **decoder** ([`pcomm_net::frame::Decoder`]), which keeps its
//!   place across `WouldBlock`: `PartData` payloads land piecewise
//!   straight in the pinned destination
//!   ([`WireProtocol::land_part`](crate::wire::WireProtocol::land_part)),
//!   any other frame is read whole — the peer's length prefix never
//!   sizes an allocation — and dispatched into the engine.
//!
//! **Who moves the bytes.** The thread that calls into the library,
//! with `try_lock` only and no blocking syscall: every send (a `start`'s
//! `PartRts`, a receiver's `PartCts`, a `pready`'s range) flushes
//! inline; a `pready` whose stream has no CTS yet first looks at its
//! peer's socket (an empty [`Transport::poll_burst`]); `wait_slice` and
//! `poll_burst` flush and read every socket until the completion fires
//! or [`SPIN_WINDOW`] passes idle, then park. Otherwise one progress
//! thread per rank (`pcomm-net`) parks in `epoll_pwait` over every
//! socket (`EPOLLONESHOT`; `EPOLLOUT` armed only while an outbox holds
//! bytes) and does the work. While app threads poll it leaves a fired
//! socket to them and the last poller out re-arms it, so a polling rank
//! pays no wake-up per frame. The heartbeat tick is the loop's timeout:
//! heartbeats are always on, a `Heartbeat` frame toward each live peer
//! every [`HEARTBEAT_MS`], and a peer silent for [`HEARTBEAT_MISS`] is
//! presumed dead.
//!
//! **One reliable channel per peer.** Both sides count the frames of
//! the pair, per direction, over its lifetime: the socket is FIFO, so
//! the k-th frame written is the k-th frame read, and no frame carries
//! a number. Every frame written whole stays in the sender's unacked
//! queue until the peer's cumulative count covers it; `Heartbeat`
//! carries that count, and a reader also sends one every [`ACK_EVERY`]
//! frames it takes and once for each stream round it lands (the round's
//! sender waits for that ack), so the queue stays short. A failure goes
//! through the one triage, [`SocketTransport::socket_failed`], always on
//! the progress thread: an app thread that meets one marks the socket
//! broken — everyone keeps off it — and wakes the progress thread,
//! because the reconnect blocks. The triage spends the peer's one
//! bounded reconnect, whose `Hello` carries each side's count; each
//! sender then puts back at the front of its outbox, in order, every
//! frame the peer lacks — a pinned range too, whose buffer stays pinned
//! until acked ([`Queue::replay`]) — and a fresh splice pipe and decoder
//! start on the new socket. The engine above sees an exactly-once FIFO.
//! With no reconnect to be had the peer is dead: typed `PeerPanicked`
//! for every local waiter.
//!
//! Abort tears everything down: the engine broadcasts an `Abort` frame,
//! `close` lets the outboxes drain for a bounded grace and then
//! `shutdown(2)`s the sockets.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::endpoint::Pipe;
use pcomm_net::frame::{self, Decoder, Event, Frame, Piece};
use pcomm_net::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use pcomm_net::{Endpoint, Mesh, MeshConfig, WireFault, WireFaults};
use pcomm_trace::{EventKind, FaultKind, FaultPlan};

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, WAIT_SLICE};
use crate::sync::{Completion, Mutex, MutexGuard};
use crate::wire::{PinChunk, SendSpan};

/// How long a polling app thread keeps making inline progress while
/// nothing happens before it parks on its completion (every completion
/// that fires meanwhile renews it). Long enough to cover a same-host
/// round trip — the latency-critical window — short enough not to burn
/// a core when the peer is genuinely slow.
pub(crate) const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// `spin_loop` hints between two idle polls, before the `yield_now`
/// (which stays: on a 1-CPU host the peer needs the core). Enough that
/// an idle poller stops hammering shared lines and `sched_yield`; few
/// enough that a record is seen within ~100 ns.
const POLL_PAUSES: u32 = 8;

/// Hard bound on the single reconnect attempt: long enough for
/// the peer to notice its own side died and rendezvous, short enough
/// that a genuinely dead peer becomes a typed error well inside the
/// default chaos watchdog budget.
const RECONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Most outbox entries one `writev` carries (two slices each).
const IOV_ENTRIES: usize = 32;

/// Frames a reader takes from a peer between two acks: it sends the
/// peer a `Heartbeat` with its count this often, besides the timed
/// ones, so the peer's unacked queue stays short.
const ACK_EVERY: u64 = 64;

/// First outbox depth that emits a `WriterQueue` trace event; each
/// further event needs double the depth (outboxes are unbounded, so
/// depth growth — not blocking — is the congestion signal).
const QUEUE_HWM_BASE: usize = 64;

/// Readiness token of the progress thread's waker; a peer socket's
/// token is the peer's rank.
const WAKER: u64 = u64::MAX;

/// How long an aborted run's `close` lets the outboxes drain (the
/// `Abort` broadcast and the `Bye`s) before it gives up on them.
const ABORT_GRACE: Duration = Duration::from_secs(1);

/// Progress-loop timeout while closing, ms: re-check the goodbyes.
const CLOSE_TICK_MS: i32 = 10;

/// The heartbeat interval, ms, one rule for both carriers: a socket
/// rank sends a `Heartbeat` frame toward every live peer this often, an
/// ipc rank bumps its segment word every [`HEARTBEAT_TICK`], and a peer
/// silent for [`HEARTBEAT_MISS`] is presumed dead — a typed
/// `PeerPanicked`, not a hang.
pub const HEARTBEAT_MS: u64 = 500;

/// How often a rank's progress thread looks at its peers' liveness.
pub(crate) const HEARTBEAT_TICK: Duration = Duration::from_millis(HEARTBEAT_MS / 4);

/// Silence that presumes a peer dead: 7/4 of the interval, so the
/// verdict lands inside twice the interval, tick jitter included.
pub(crate) const HEARTBEAT_MISS: Duration = Duration::from_millis(HEARTBEAT_MS * 7 / 4);

/// A carrier: how the wire protocol engine reaches ranks hosted outside
/// this process. Everything but `local_rank` and the waiting hooks is
/// called only in multiprocess runs.
pub(crate) trait Transport: Send + Sync {
    /// The rank this process hosts; `None` when every rank is a thread
    /// of this process and nothing ever crosses the seam.
    fn local_rank(&self) -> Option<usize>;

    /// Start the carrier's threads. Called once, after the fabric
    /// referencing this carrier exists.
    fn start(self: Arc<Self>, fabric: &Arc<Fabric>) -> Result<(), PcommError>;

    /// Send one control frame toward `dst`, ordered after every earlier
    /// `send` to the same peer. `teardown` marks abort and goodbye
    /// traffic: it must leave even though the fabric is already
    /// aborted, within a bounded time.
    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame, teardown: bool);

    /// Clear `src` to stream `rdv_id` into the destination the receiver
    /// just pinned (`total_len` bytes at `base`). A carrier whose peer
    /// can reach that memory directly says where in its CTS (the grant).
    fn ship_part_cts(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        base: *const u8,
        total_len: usize,
    );

    /// Move one issued message of stream `rdv_id` to `dst` under the
    /// `grant` its credit carried; its bytes count off `span` once
    /// reusable (acked).
    fn ship_chunk(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        span: &Arc<SendSpan>,
        chunk: PinChunk,
    );

    /// Connection health per peer, for stall reports (`pending_rdv` is
    /// the engine's to fill in).
    fn peer_states(&self) -> Vec<PeerSocketState>;

    /// Doorbell tallies, for stall reports and diagnostics (`None` on
    /// carriers without doorbells — everything but ipc).
    fn doorbell_stats(&self) -> Option<DoorbellStats> {
        None
    }

    /// One bounded wait step inside `Fabric::wait_on`: park until
    /// `completion` fires or a carrier-chosen slice elapses; returns
    /// whether it fired. The default simply sleeps on the completion;
    /// the real carriers first run inline progress while the app thread
    /// waits.
    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        let _ = fabric;
        completion.wait_timeout(WAIT_SLICE)
    }

    /// Opportunistic inline progress ahead of a burst of
    /// [`Transport::wait_slice`] calls, one per entry of `completions`:
    /// a polling carrier polls until all are set or the peer goes
    /// quiet, as *one* poller rather than one per completion. An empty
    /// burst naming a `peer` asks for one look at that peer's ordered
    /// traffic (a sender whose stream has no CTS yet looks for it).
    /// Never required for correctness — the waits that follow block
    /// properly; the default does nothing.
    fn poll_burst(&self, fabric: &Fabric, peer: Option<usize>, completions: &[Arc<Completion>]) {
        let _ = (fabric, peer, completions);
    }

    /// Try to pin a partitioned buffer of `len` bytes, of a stream from
    /// or toward `peer`, in memory that peer can reach directly (the
    /// ipc partition arena). Returns the carrier's token and the mapped
    /// base pointer, or `None` when the carrier has no shared memory
    /// (sockets) or the arena is exhausted — callers fall back to
    /// owned storage.
    fn alloc_part_buf(&self, peer: usize, len: usize) -> Option<(u64, *mut u8)> {
        let _ = (peer, len);
        None
    }

    /// Return a buffer from `alloc_part_buf` once its request is done
    /// with it.
    fn release_part_buf(&self, peer: usize, token: u64, len: usize) {
        let _ = (peer, token, len);
    }

    /// Say goodbye to every peer and stop the carrier's threads; the
    /// engine calls this last in teardown. Never unwinds.
    fn close(&self, fabric: &Fabric);
}

/// Run `pass` — one round of inline progress, `true` when it moved
/// anything — until `pending()` reaches zero or nothing has happened
/// for [`SPIN_WINDOW`] (every drop of `pending()` renews it); returns
/// whether it reached zero. Both real carriers poll with this: a
/// waiting app thread is its own progress engine, because handing a
/// round trip to a progress thread costs two context switches.
pub(crate) fn poll_window(
    mut pass: impl FnMut() -> bool,
    mut pending: impl FnMut() -> usize,
) -> bool {
    let mut left = pending();
    let mut spin_until = Instant::now() + SPIN_WINDOW;
    let mut renew = false;
    while left > 0 {
        if !pass() {
            let now = Instant::now();
            if renew {
                (spin_until, renew) = (now + SPIN_WINDOW, false);
            } else if now >= spin_until {
                break;
            }
            for _ in 0..POLL_PAUSES {
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        let now_left = pending();
        renew |= now_left < left;
        left = now_left;
    }
    left == 0
}

/// How many of `completions` are unset, counted from the first unset
/// one (set completions before the cursor are not probed again): a
/// stream arriving piecemeal is one polling session, not one per
/// message.
pub(crate) fn unset_in(completions: &[Arc<Completion>]) -> impl FnMut() -> usize + '_ {
    let mut next = 0;
    move || {
        while completions.get(next).is_some_and(|c| c.is_set()) {
            next += 1;
        }
        completions.len() - next
    }
}

/// A stream range headed for the wire without an intermediate copy:
/// its `PartData` header (length prefix through `offset`) goes out
/// followed by the payload's pages straight from the pinned source
/// buffer, and its `len` bytes count off `span` once the peer acks it.
struct PinnedWrite {
    head: frame::PartDataHead,
    rdv_id: u64,
    offset: u64,
    ptr: *const u8,
    len: usize,
    span: Arc<SendSpan>,
}

// SAFETY: same argument as [`PinChunk`] — the source stays pinned until
// the stream's span completes, which happens only once the peer acked
// the entry, and only the thread holding the peer's outbox reads
// through the pointer.
unsafe impl Send for PinnedWrite {}

impl PinnedWrite {
    fn new(rdv_id: u64, chunk: PinChunk, span: &Arc<SendSpan>) -> PinnedWrite {
        PinnedWrite {
            head: frame::part_data_header(rdv_id, chunk.offset, chunk.len),
            rdv_id,
            offset: chunk.offset,
            ptr: chunk.ptr,
            len: chunk.len,
            span: Arc::clone(span),
        }
    }
}

/// One entry of a peer's outbox.
enum Out {
    /// An encoded control frame, length prefix included.
    Frame(Vec<u8>),
    /// A pinned stream range (zero-copy).
    Pinned(PinnedWrite),
}

impl Out {
    /// The entry's wire bytes, as one or two slices.
    fn parts(&self) -> [&[u8]; 2] {
        match self {
            Out::Frame(bytes) => [bytes, &[]],
            Out::Pinned(pw) => [
                &pw.head,
                // SAFETY: the source stays pinned until the span
                // completes, which `Queue::ack` lets it only once the
                // peer has read the entry whole (invariant (1)).
                unsafe { std::slice::from_raw_parts(pw.ptr, pw.len) },
            ],
        }
    }

    fn wire_len(&self) -> usize {
        match self {
            Out::Frame(bytes) => bytes.len(),
            Out::Pinned(pw) => pw.head.len() + pw.len,
        }
    }

    fn op(&self) -> u8 {
        frame::body_opcode(frame::body_of(self.parts()[0])).unwrap_or(0)
    }
}

/// What a peer's write half owes the peer, apart from the socket: the
/// outbox, and the entries written whole but not yet acked — kept to go
/// again if a reconnect finds the peer without them.
#[derive(Default)]
struct Queue {
    outbox: VecDeque<Out>,
    /// Bytes of the front entry already written.
    at: usize,
    /// Frames written whole over the pair's lifetime.
    written: u64,
    /// The last `unacked.len()` of them, oldest first.
    unacked: VecDeque<Out>,
}

impl Queue {
    /// Ordinal of the oldest unacked frame.
    fn base(&self) -> u64 {
        self.written - self.unacked.len() as u64
    }

    /// What `ack` has settled: a count at or below which a peer's ack
    /// leaves it nothing to do.
    fn settled(&self) -> u64 {
        match self.unacked.is_empty() {
            true => u64::MAX,
            false => self.base(),
        }
    }

    /// `n` more bytes of the outbox left: pop and keep every entry they
    /// finish, keep the cursor into the rest. Returns how many entries
    /// finished.
    fn advance(&mut self, n: usize) -> usize {
        let (mut at, mut done) = (self.at + n, 0);
        while self.outbox.front().is_some_and(|out| at >= out.wire_len()) {
            if let Some(out) = self.outbox.pop_front() {
                at -= out.wire_len();
                self.unacked.push_back(out);
                done += 1;
            }
        }
        self.written += done as u64;
        self.at = at;
        done
    }

    /// The peer has read `acked` of our frames whole: forget those, and
    /// count each pinned range among them off its span.
    fn ack(&mut self, acked: u64) {
        let n = acked
            .saturating_sub(self.base())
            .min(self.unacked.len() as u64);
        for out in self.unacked.drain(..n as usize) {
            if let Out::Pinned(pw) = out {
                pw.span.left(pw.len);
            }
        }
    }

    /// The replay rule, after a reconnect to a peer that has read `has`
    /// of our frames whole: count off what it has, put every entry after
    /// that back at the front of the outbox in order, and send the partly
    /// written front entry again whole. `false` when `has` is no count
    /// our writes could produce.
    fn replay(&mut self, has: u64) -> bool {
        if has < self.base() || has > self.written {
            return false;
        }
        self.ack(has);
        (self.written, self.at) = (has, 0);
        for out in self.unacked.drain(..).rev() {
            self.outbox.push_front(out);
        }
        true
    }
}

/// A peer socket's write half, under [`Peer::tx`].
struct Tx {
    ep: Endpoint,
    /// What `ep`'s pinned payloads pass through.
    pipe: Pipe,
    q: Queue,
    /// Leading entries already audit-stamped for this socket.
    stamped: usize,
    /// Verify-grade runs only: the socket's frame counter, bumped as
    /// each frame is stamped so `VerifyWireSend.seq` is exact wire
    /// order. Never reset — a gap in one rank's recorded seqs marks ring
    /// overflow, not loss.
    seq: u32,
    /// Whether the socket's registration asks for `EPOLLOUT`.
    out_armed: bool,
    /// Next outbox depth that emits a `WriterQueue` event.
    hwm: usize,
}

/// What a socket's read half keeps between reads: the decoder's place,
/// the audit counters — the ordinal of every frame head read on this
/// socket, and its reconnect epoch (its own, not the shared peer epoch,
/// so frames still buffered in a dying socket keep theirs) — the heads
/// read over the pair's lifetime, and the count the last ack carried.
struct Reader {
    dec: Decoder,
    epoch: u32,
    seq: u32,
    heads: u64,
    last_ack: u64,
}

impl Reader {
    /// A reader for a socket of reconnect `epoch`, `received` frames
    /// into the pair's lifetime.
    fn new(epoch: u32, received: u64) -> Reader {
        Reader {
            dec: Decoder::new(true),
            epoch,
            seq: 0,
            heads: received,
            last_ack: received,
        }
    }

    /// Frames read whole: every head read but one whose frame is not.
    fn whole(&self) -> u64 {
        self.heads - u64::from(self.dec.mid_frame())
    }
}

/// A peer socket's read half, under [`Peer::rx`].
struct Rx {
    ep: Endpoint,
    rd: Reader,
}

/// Per-peer socket machinery: the pair's one nonblocking socket, its
/// two halves, the flags that tell threads what to leave alone, and the
/// peer's liveness and diagnostics.
struct Peer {
    tx: Mutex<Tx>,
    rx: Mutex<Rx>,
    /// Entries on their way into the outbox. A push never waits for
    /// the socket: it lands here, and whoever holds `tx` moves the
    /// intake along — and looks again after letting go, so a push that
    /// found `tx` busy is never stranded.
    intake: Mutex<Vec<Out>>,
    /// The outbox's length, kept under `tx`, for the readers that do not
    /// take `tx` (and so owe the intake no second look): stall reports
    /// and `close`.
    depth: AtomicUsize,
    /// The fd of the socket's `epoll` registration (`tx`'s socket).
    fd: AtomicI32,
    /// The peer said `Bye`: nothing more is read from it, and it is past
    /// heartbeats and reconnects.
    bye: AtomicBool,
    /// Set on a failure: app threads keep off the socket until the
    /// progress thread's triage (which clears it on a reconnect).
    broken: AtomicBool,
    /// What the failure said, until the triage takes it.
    fault: Mutex<Option<io::Error>>,
    /// The registration fired while app threads polled: the last poller
    /// out re-arms it.
    owed: AtomicBool,
    connected: AtomicBool,
    frames_sent: AtomicU64,
    /// Frames read whole from the peer over the pair's lifetime: what a
    /// `Heartbeat` acks.
    frames_received: AtomicU64,
    /// The highest count of our frames the peer acked.
    acked: AtomicU64,
    /// Transport-relative ms timestamp of the last frame read from this
    /// peer — the liveness signal the heartbeat escalates on.
    last_heard_ms: AtomicU64,
    /// The one bounded reconnect per peer and transport lifetime was
    /// spent, whatever came of it.
    reconnect_spent: AtomicBool,
    /// Reconnect epoch for the audit stamps: 0 until the reconnect
    /// succeeds, 1 after. Bumped under the outbox mutex, so stamps taken
    /// under it carry the epoch of the socket they go to.
    epoch: AtomicU32,
}

impl Peer {
    fn new(ep: Endpoint, rx: Endpoint, pipe: Pipe) -> Peer {
        Peer {
            fd: AtomicI32::new(ep.as_raw_fd()),
            tx: Mutex::new(Tx {
                ep,
                pipe,
                q: Queue::default(),
                stamped: 0,
                seq: 0,
                out_armed: false,
                hwm: QUEUE_HWM_BASE,
            }),
            rx: Mutex::new(Rx {
                ep: rx,
                rd: Reader::new(0, 0),
            }),
            intake: Mutex::new(Vec::new()),
            depth: AtomicUsize::new(0),
            bye: AtomicBool::new(false),
            broken: AtomicBool::new(false),
            fault: Mutex::new(None),
            owed: AtomicBool::new(false),
            connected: AtomicBool::new(true),
            frames_sent: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            last_heard_ms: AtomicU64::new(0),
            reconnect_spent: AtomicBool::new(false),
            epoch: AtomicU32::new(0),
        }
    }
}

/// Whether the outbox holder that let go at `settled` ([`Queue::settled`])
/// must look again: a push, or an ack whose reader found the outbox busy,
/// came in meanwhile.
fn owed(peer: &Peer, settled: u64) -> bool {
    !peer.intake.lock().is_empty() || peer.acked.load(Ordering::Acquire) > settled
}

/// The socket carrier: one nonblocking socket per peer, moved by the
/// calling threads and one `epoll` progress thread (see the module docs
/// for the model).
pub(crate) struct SocketTransport {
    rank: usize,
    peers: Vec<Option<Peer>>,
    /// Mesh parameters, kept for the bounded reconnect.
    cfg: MeshConfig,
    /// Transport epoch for the ms timestamps in `last_heard_ms`.
    t0: Instant,
    /// Set by `start`; lets the wire-fault observer (built in `new`,
    /// before the fabric exists) emit trace events. `Weak` so the
    /// fabric → transport → endpoint → observer chain is not a cycle.
    fault_obs: Arc<OnceLock<Weak<Fabric>>>,
    /// Every peer's socket, plus the waker.
    epoll: Epoll,
    /// A byte written to `.1` makes `.0` readable: wakes the progress
    /// thread for a triage or `close`.
    waker: (UnixStream, UnixStream),
    /// App threads inside a polling window; while any is, the progress
    /// thread leaves fired sockets to them.
    pollers: AtomicUsize,
    /// `close` began: the progress thread finishes the goodbyes, exits.
    closing: AtomicBool,
    progress: Mutex<Option<JoinHandle<()>>>,
}

impl SocketTransport {
    /// Wrap an established mesh: every peer's socket turns nonblocking
    /// and joins one `epoll` set. The progress thread starts in
    /// [`SocketTransport::start`], once the fabric exists; until then
    /// the calling threads are the only ones that move bytes. When
    /// `plan` carries wire-class faults every endpoint is wrapped in the
    /// seeded fault injector, with an observer that traces each
    /// injection once the fabric is attached.
    pub(crate) fn new(
        mesh: Mesh,
        cfg: MeshConfig,
        plan: Option<&FaultPlan>,
    ) -> Result<SocketTransport, PcommError> {
        let rank = mesh.rank;
        Self::arm_mesh(mesh, cfg, plan).map_err(|e| PcommError::Misuse {
            rank: Some(rank),
            detail: format!("transport start: arming the mesh sockets: {e}"),
        })
    }

    /// The fallible half of [`Self::new`].
    fn arm_mesh(mesh: Mesh, cfg: MeshConfig, plan: Option<&FaultPlan>) -> io::Result<Self> {
        let rank = mesh.rank;
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
                on_fault: Some(Arc::new(move |kind, peer| {
                    if let Some(fabric) = obs.get().and_then(Weak::upgrade) {
                        fabric.trace().emit(local, || EventKind::FaultInjected {
                            fault: wire_fault_kind(kind),
                            dst: peer as u16,
                            tag: 0,
                            arg: 0,
                        });
                    }
                })),
            })
        });
        let epoll = Epoll::new()?;
        let mut peers = Vec::with_capacity(mesh.peers.len());
        for (peer_rank, ep) in mesh.peers.into_iter().enumerate() {
            let Some(ep) = ep else {
                peers.push(None);
                continue;
            };
            let ep = match &wire {
                Some(plan) => ep.with_faults(Arc::clone(plan), peer_rank as u32),
                None => ep,
            };
            ep.set_nonblocking(true)?;
            epoll.add(ep.as_raw_fd(), EPOLLIN | EPOLLONESHOT, peer_rank as u64)?;
            let rx = ep.try_clone()?;
            peers.push(Some(Peer::new(ep, rx, Pipe::new()?)));
        }
        let waker = UnixStream::pair()?;
        waker.0.set_nonblocking(true)?;
        waker.1.set_nonblocking(true)?;
        epoll.add(waker.0.as_raw_fd(), EPOLLIN, WAKER)?;
        Ok(SocketTransport {
            rank,
            peers,
            cfg,
            t0: Instant::now(),
            fault_obs,
            epoll,
            waker,
            pollers: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            progress: Mutex::new(None),
        })
    }

    /// Milliseconds since the transport was built (the epoch of
    /// `last_heard_ms`).
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Every peer, with its rank.
    fn each_peer(&self) -> impl Iterator<Item = (usize, &Peer)> {
        let peers = self.peers.iter().enumerate();
        peers.filter_map(|(p, peer)| Some((p, peer.as_ref()?)))
    }

    /// Wake the progress thread (a full waker already will).
    fn wake(&self) {
        let _ = (&self.waker.1).write(&[1]);
    }

    /// Put one entry on the socket toward `dst` and move what can move
    /// now.
    fn push(&self, fabric: &Fabric, dst: usize, out: Out) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        peer.intake.lock().push(out);
        self.flush(fabric, dst);
    }

    /// Move `dst`'s outbound bytes and apply the peer's ack now — unless
    /// another thread is (it looks at the intake and the ack again after
    /// letting go) or the socket is left to triage. Never blocks. Returns
    /// whether bytes moved.
    fn flush(&self, fabric: &Fabric, dst: usize) -> bool {
        let Some(peer) = &self.peers[dst] else {
            return false;
        };
        let mut moved = false;
        while !peer.broken.load(Ordering::Acquire) {
            let Some(mut tx) = peer.tx.try_lock() else {
                break;
            };
            match self.write_out(fabric, dst, &mut tx) {
                Ok(m) => moved |= m,
                Err(e) => self.defer(peer, e),
            }
            let settled = tx.q.settled();
            drop(tx);
            if !owed(peer, settled) {
                break;
            }
        }
        moved
    }

    /// The one way onto a peer's socket, under its outbox mutex: forget
    /// what the peer acked, take the intake in, stamp, and write from the
    /// front entry's resume cursor until the socket refuses — `writev`
    /// up to the next pinned payload, which goes alone by reference —
    /// keeping every entry whose last byte left. Keeps `EPOLLOUT` armed
    /// exactly while bytes wait. Returns whether anything was written.
    fn write_out(&self, fabric: &Fabric, dst: usize, tx: &mut Tx) -> io::Result<bool> {
        let Some(peer) = &self.peers[dst] else {
            return Ok(false);
        };
        tx.q.ack(peer.acked.load(Ordering::Acquire));
        {
            // The depth counts the entries before the intake lets them
            // go, so a reader that finds the intake empty sees them.
            let mut intake = peer.intake.lock();
            tx.q.outbox.extend(intake.drain(..));
            peer.depth.store(tx.q.outbox.len(), Ordering::Release);
        }
        if tx.q.outbox.len() >= tx.hwm {
            let (p16, depth) = (dst as u16, tx.q.outbox.len() as u64);
            fabric
                .trace()
                .emit(self.rank as u16, || EventKind::WriterQueue {
                    peer: p16,
                    lane: 0,
                    depth,
                });
            while tx.hwm <= tx.q.outbox.len() {
                tx.hwm *= 2;
            }
        }
        if fabric.aborted() {
            // An aborting universe may already be unwinding the buffers
            // pinned entries point into: drop those not yet stamped
            // unsent (their waiters unwind via the abort). Control
            // frames stay — the abort broadcast is one of them — and so
            // do stamped entries, which are already under way.
            let (mut i, stamped) = (0, tx.stamped);
            tx.q.outbox.retain(|out| {
                i += 1;
                i <= stamped || matches!(out, Out::Frame(_))
            });
        }
        let mut moved = false;
        while !tx.q.outbox.is_empty() {
            let upto = tx.q.outbox.len().min(IOV_ENTRIES);
            self.stamp(fabric, dst, peer.epoch.load(Ordering::Acquire), tx, upto);
            let mut iov = [IoSlice::new(&[]); 2 * IOV_ENTRIES];
            let (mut k, mut skip, mut pinned) = (0, tx.q.at, None);
            'gather: for out in tx.q.outbox.iter().take(upto) {
                for (i, part) in out.parts().into_iter().enumerate() {
                    let cut = skip.min(part.len());
                    skip -= cut;
                    if cut == part.len() {
                        continue;
                    }
                    // A frame's second part is empty: a part 1 left is
                    // a pinned payload.
                    if i == 1 {
                        pinned = (k == 0).then(|| &part[cut..]);
                        break 'gather;
                    }
                    iov[k] = IoSlice::new(&part[cut..]);
                    k += 1;
                }
            }
            let wrote = match pinned {
                Some(payload) => tx.ep.write_pinned(&mut tx.pipe, payload),
                None => tx.ep.write_vectored(&iov[..k]),
            };
            match wrote {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    moved = true;
                    let done = tx.q.advance(n);
                    tx.stamped = tx.stamped.saturating_sub(done);
                    // ORDERING: statistics counter surfaced in
                    // diagnostics snapshots only.
                    peer.frames_sent.store(tx.q.written, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        peer.depth.store(tx.q.outbox.len(), Ordering::Release);
        self.arm(peer, dst, tx, false);
        Ok(moved)
    }

    /// Audit-stamp the first `upto` outbox entries that have no stamp on
    /// this socket yet — under the outbox mutex, so stamp order is wire
    /// order, before the write, so an entry torn by a dying socket still
    /// records what may have reached the peer; `epoch` is the socket's.
    /// No-op unless the trace is verify-grade.
    fn stamp(&self, fabric: &Fabric, dst: usize, epoch: u32, tx: &mut Tx, upto: usize) {
        let trace = fabric.trace();
        if tx.stamped >= upto || !trace.is_verify() {
            tx.stamped = tx.stamped.max(upto);
            return;
        }
        let (me, p16) = (self.rank as u16, dst as u16);
        for out in tx.q.outbox.range(tx.stamped..upto) {
            let (op, seq) = (out.op() as u16, tx.seq);
            tx.seq = seq.wrapping_add(1);
            trace.emit_verify(me, || EventKind::VerifyWireSend {
                peer: p16,
                lane: 0,
                op,
                epoch,
                seq,
            });
            if let Out::Pinned(pw) = out {
                trace.emit_verify(me, || EventKind::VerifyStreamData {
                    peer: p16,
                    lane: 0,
                    tx: true,
                    stream: pw.rdv_id as u32,
                    offset: pw.offset,
                    len: pw.len as u32,
                });
            }
        }
        tx.stamped = upto;
    }

    /// Keep peer `p`'s registration in step with its outbox: `EPOLLIN`
    /// until the peer's `Bye`, `EPOLLOUT` while bytes wait. `force`
    /// re-arms a registration whose one shot was spent even when
    /// nothing changed. With nothing left to wait for the registration
    /// stays spent — re-arming it would report a hung-up peer forever.
    fn arm(&self, peer: &Peer, p: usize, tx: &mut Tx, force: bool) {
        let out = !tx.q.outbox.is_empty();
        if !force && out == tx.out_armed {
            return;
        }
        tx.out_armed = out;
        let read = if peer.bye.load(Ordering::Acquire) {
            0
        } else {
            EPOLLIN
        };
        let events = read | if out { EPOLLOUT } else { 0 };
        if events != 0 {
            let _ = self
                .epoll
                .modify(tx.ep.as_raw_fd(), events | EPOLLONESHOT, p as u64);
        }
    }

    /// Read `peer`'s socket until it runs dry — unless another thread
    /// is, the peer said `Bye`, or the socket is left to triage. Never
    /// blocks. Returns whether anything was read.
    fn read_in(&self, fabric: &Fabric, p: usize) -> bool {
        let Some(peer) = &self.peers[p] else {
            return false;
        };
        if peer.broken.load(Ordering::Acquire) {
            return false;
        }
        let Some(mut guard) = peer.rx.try_lock() else {
            return false;
        };
        let rx = &mut *guard;
        match self.take(fabric, p, &mut rx.ep, &mut rx.rd) {
            Ok(moved) => moved,
            Err(e) => {
                self.defer(peer, e);
                false
            }
        }
    }

    /// The one way off a peer's socket: decode what `r` has until it
    /// runs dry or the peer says `Bye`. Every frame head refreshes the
    /// peer's liveness and gets its audit stamp; `PartData` payloads land
    /// piecewise straight in their destination or — nobody waits for
    /// them (retired stream, post-abort straggler) — drain through a
    /// stack buffer, so the peer's length allocates nothing; a
    /// `Heartbeat` is the peer's ack, applied to the outbox unless
    /// another thread holds it; any other frame is dispatched into the
    /// engine. Every step settles the pair's count ([`Self::settle`]).
    /// Returns whether anything was read.
    fn take<R: Read>(
        &self,
        fabric: &Fabric,
        peer_rank: usize,
        r: &mut R,
        rd: &mut Reader,
    ) -> io::Result<bool> {
        let Some(peer) = &self.peers[peer_rank] else {
            return Ok(false);
        };
        // Checked under the read half's mutex, which whoever read the
        // `Bye` held: past it the peer may have closed the socket.
        if peer.bye.load(Ordering::Acquire) {
            return Ok(false);
        }
        let (wire, landed) = (fabric.wire(), Cell::new(false));
        let mut land = |p: Piece, r: &mut R| -> io::Result<usize> {
            let (at, len, read) = (p.offset as usize, p.len, |dest: &mut [u8]| r.read(dest));
            match wire.land_part(fabric, peer_rank, p.id, at, len, read)? {
                Some((n, round)) => Ok(n).inspect(|_| landed.set(landed.get() | round)),
                None => r.read(&mut [0u8; 4096][..len.min(4096)]),
            }
        };
        let mut moved = false;
        loop {
            let done = match rd.dec.next(r, &mut land) {
                Ok(None) => Some(Ok(moved)),
                Err(e) => Some(Err(e)),
                Ok(Some(Event::Head(op))) => {
                    rd.heads += 1;
                    // ORDERING: liveness timestamp; the heartbeat check
                    // tolerates a read one tick stale.
                    peer.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
                    let (p16, op16) = (peer_rank as u16, op as u16);
                    let (epoch, seq) = (rd.epoch, rd.seq);
                    fabric
                        .trace()
                        .emit_verify(self.rank as u16, || EventKind::VerifyWireRecv {
                            peer: p16,
                            lane: 0,
                            op: op16,
                            epoch,
                            seq,
                        });
                    rd.seq = seq.wrapping_add(1);
                    None
                }
                Ok(Some(Event::Frame(Frame::Heartbeat { received }))) => {
                    peer.acked.fetch_max(received, Ordering::AcqRel);
                    self.flush(fabric, peer_rank);
                    None
                }
                Ok(Some(Event::Frame(f))) => {
                    let bye = !wire.dispatch(fabric, peer_rank, f);
                    bye.then(|| {
                        peer.bye.store(true, Ordering::Release);
                        Ok(true)
                    })
                }
            };
            self.settle(fabric, peer_rank, peer, rd, landed.take());
            if let Some(done) = done {
                return done;
            }
            moved = true;
        }
    }

    /// Publish how many of `peer`'s frames `rd` has read whole, and ack
    /// them once [`ACK_EVERY`] more came in since the last ack, or when
    /// the step `landed` a stream round, whose sender waits for the ack
    /// (not while closing: nothing may follow our `Bye`).
    fn settle(&self, fabric: &Fabric, p: usize, peer: &Peer, rd: &mut Reader, landed: bool) {
        let whole = rd.whole();
        // ORDERING: an ack is a lower bound; a stale read acks less.
        peer.frames_received.store(whole, Ordering::Relaxed);
        let due = landed || whole >= rd.last_ack + ACK_EVERY;
        if due && !self.closing.load(Ordering::Acquire) {
            rd.last_ack = whole;
            self.send(fabric, p, Frame::Heartbeat { received: whole }, false);
        }
    }

    /// One round of inline progress over every socket; whether anything
    /// moved.
    fn pass(&self, fabric: &Fabric) -> bool {
        let mut moved = false;
        for (p, _) in self.each_peer() {
            moved |= self.flush(fabric, p);
            moved |= self.read_in(fabric, p);
        }
        moved
    }

    /// Poll every socket inline until `pending()` reaches zero or the
    /// window closes ([`poll_window`]). While this thread polls, a
    /// socket whose registration fires is left to it; the last poller
    /// out re-arms those, and what arrived since its last pass then
    /// wakes the progress thread.
    fn poll_until(&self, fabric: &Fabric, mut pending: impl FnMut() -> usize) -> bool {
        if pending() == 0 {
            return true;
        }
        // ORDERING: SeqCst on both sides of the poller/`owed` handshake
        // (see `service`).
        self.pollers.fetch_add(1, Ordering::SeqCst);
        let done = poll_window(|| self.pass(fabric), pending);
        if self.pollers.fetch_sub(1, Ordering::SeqCst) == 1 {
            for (p, peer) in self.each_peer() {
                if !peer.owed.swap(false, Ordering::SeqCst) {
                    continue;
                }
                match peer.tx.try_lock() {
                    Some(tx) => self.rearm(fabric, p, tx),
                    // Mid-flush elsewhere: arm both ways; a spurious
                    // `EPOLLOUT` costs the progress thread one look.
                    None => {
                        let (fd, both) = (peer.fd.load(Ordering::Acquire), EPOLLIN | EPOLLOUT);
                        let _ = self.epoll.modify(fd, both | EPOLLONESHOT, p as u64);
                    }
                }
            }
        }
        done
    }

    /// Leave a failed socket to the progress thread's triage: keep what
    /// it said, mark it broken so everyone else keeps off it, and wake
    /// the progress thread.
    fn defer(&self, peer: &Peer, err: io::Error) {
        peer.fault.lock().get_or_insert(err);
        peer.broken.store(true, Ordering::Release);
        self.wake();
    }

    /// The progress thread's turn at a socket whose registration fired:
    /// move its bytes both ways and re-arm it — unless app threads are
    /// polling (they move them, and the last one out re-arms) or the
    /// socket is left to triage.
    fn service(&self, fabric: &Fabric, p: usize) {
        let Some(peer) = &self.peers[p] else {
            return;
        };
        // SeqCst pairs with `poll_until`: either this load sees the
        // poller, whose exit then sees `owed`, or the last poller's
        // decrement came first and the swap below is ours alone.
        peer.owed.store(true, Ordering::SeqCst);
        if self.pollers.load(Ordering::SeqCst) > 0 || !peer.owed.swap(false, Ordering::SeqCst) {
            return;
        }
        if peer.broken.load(Ordering::Acquire) {
            return; // the triage re-registers it or fails the peer
        }
        let wrote = self.write_out(fabric, p, &mut peer.tx.lock());
        let read = wrote.and_then(|_| {
            let mut guard = peer.rx.lock();
            let rx = &mut *guard;
            self.take(fabric, p, &mut rx.ep, &mut rx.rd)
        });
        match read {
            Ok(_) => self.rearm(fabric, p, peer.tx.lock()),
            Err(e) => self.defer(peer, e),
        }
    }

    /// Move what peer `p`'s outbox holds — replies a dispatch queued,
    /// pushes that found the outbox busy — then re-arm its spent
    /// registration, and hand on what was pushed or acked meanwhile.
    fn rearm(&self, fabric: &Fabric, p: usize, mut tx: MutexGuard<'_, Tx>) {
        let Some(peer) = self.peers[p]
            .as_ref()
            .filter(|peer| !peer.broken.load(Ordering::Acquire))
        else {
            return; // the triage re-registers it or fails the peer
        };
        match self.write_out(fabric, p, &mut tx) {
            Ok(_) => self.arm(peer, p, &mut tx, true),
            Err(e) => self.defer(peer, e),
        }
        let settled = tx.q.settled();
        drop(tx);
        if owed(peer, settled) {
            self.flush(fabric, p);
        }
    }

    /// Triage every socket a failure was left on (see [`Self::defer`]).
    fn triage_broken(&self, fabric: &Fabric) {
        for (p, peer) in self.each_peer() {
            if !peer.broken.load(Ordering::Acquire) {
                continue;
            }
            let Some(err) = peer.fault.lock().take() else {
                continue; // triaged already: a dead peer stays broken
            };
            self.socket_failed(fabric, p, &err);
        }
    }

    /// The one triage of a dead socket (`err` is what it said): the
    /// peer's one bounded reconnect. Without one to be had — EOF or an
    /// error without a `Bye`, the reconnect already spent or refused —
    /// the peer process died: the would-be hang becomes a typed error
    /// for every local waiter. Runs on the progress thread only.
    fn socket_failed(&self, fabric: &Fabric, peer_rank: usize, err: &io::Error) {
        let Some(peer) = &self.peers[peer_rank] else {
            return;
        };
        if fabric.aborted() {
            return; // teardown; the abort already carries the story
        }
        // Kill our half first so the remote peer observes the failure
        // and joins the reconnect handshake.
        peer.tx.lock().ep.shutdown();
        if self.reconnect(fabric, peer_rank) {
            return;
        }
        peer.connected.store(false, Ordering::Release);
        // The first failure wins: if the universe aborted meanwhile this
        // one is a casualty and is discarded.
        fabric.fail(PcommError::PeerPanicked {
            rank: peer_rank,
            message: format!(
                "rank process exited unexpectedly \
                 (connection to rank {peer_rank} lost: {err})"
            ),
        });
    }

    /// Recover from a dead socket with ONE bounded reconnect per peer
    /// for the transport's lifetime: read what the dead socket still
    /// holds, re-run the pair rendezvous with each side's count in its
    /// `Hello`, and swap the new socket into both halves — the outbox
    /// replays what the peer lacks ([`Queue::replay`]) through a fresh
    /// splice pipe (what the old one held was meant for the dead
    /// socket), the decoder starts at the new socket's first frame. The
    /// count is taken under the read half's mutex, held until the new
    /// socket replaces the old: nobody reads the old one after it.
    ///
    /// The reconnected endpoint is deliberately NOT re-wrapped in the
    /// wire-fault plan: recovery is one bounded attempt, and a chaos
    /// matrix must terminate instead of looping kill/reconnect forever.
    fn reconnect(&self, fabric: &Fabric, peer_rank: usize) -> bool {
        let Some(peer) = &self.peers[peer_rank] else {
            return false;
        };
        if fabric.aborted()
            || peer.bye.load(Ordering::Acquire)
            || peer.reconnect_spent.swap(true, Ordering::AcqRel)
        {
            return false;
        }
        peer.connected.store(false, Ordering::Release);
        let mut rx = peer.rx.lock();
        let rx = &mut *rx;
        let _ = self.take(fabric, peer_rank, &mut rx.ep, &mut rx.rd);
        let received = rx.rd.whole();
        let started = Instant::now();
        let deadline = started + RECONNECT_TIMEOUT;
        let res = pcomm_net::mesh::reconnect_pair(&self.cfg, peer_rank, received, deadline)
            .and_then(|(ep, has)| {
                ep.set_nonblocking(true)?;
                let rx = ep.try_clone()?;
                Ok((ep, rx, Pipe::new()?, has))
            });
        let (ok, took_ms) = (res.is_ok(), started.elapsed().as_millis() as u64);
        let p16 = peer_rank as u16;
        fabric
            .trace()
            .emit(self.rank as u16, || EventKind::Reconnect {
                peer: p16,
                ok,
                took_ms,
            });
        let Ok((ep, rx_ep, pipe, has)) = res else {
            return false;
        };
        {
            // Swap the socket and bump the audit epoch under the outbox
            // mutex: stamps taken before carry the old epoch, stamps
            // after the new one — never mixed.
            let mut tx = peer.tx.lock();
            if !tx.q.replay(has) {
                return false; // the peer counts frames we never wrote
            }
            let _ = self.epoll.delete(tx.ep.as_raw_fd());
            peer.epoch.fetch_add(1, Ordering::Release);
            (tx.ep, tx.pipe, tx.stamped) = (ep, pipe, 0);
            (rx.ep, rx.rd) = (rx_ep, Reader::new(rx.rd.epoch + 1, received));
            peer.fd.store(tx.ep.as_raw_fd(), Ordering::Release);
            let events = EPOLLIN | EPOLLOUT | EPOLLONESHOT;
            tx.out_armed = true;
            if let Err(e) = self.epoll.add(tx.ep.as_raw_fd(), events, peer_rank as u64) {
                peer.fault.lock().get_or_insert(e);
                return false;
            }
            peer.fault.lock().take();
        }
        // ORDERING: liveness timestamp; the heartbeat check tolerates a
        // read one tick stale.
        peer.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
        peer.connected.store(true, Ordering::Release);
        peer.broken.store(false, Ordering::Release);
        true
    }

    /// The progress thread: park in `epoll_pwait` until a socket fires,
    /// a failure is left for triage, the heartbeat tick is due or
    /// `close` asks it to finish the goodbyes.
    fn progress_loop(&self, fabric: &Fabric) {
        let mut events = [EpollEvent::default(); 32];
        let mut next_tick = Instant::now() + HEARTBEAT_TICK;
        let mut last_beat = None;
        let mut closing_since = None;
        loop {
            let timeout = match closing_since {
                Some(_) => CLOSE_TICK_MS,
                None => next_tick
                    .saturating_duration_since(Instant::now())
                    .as_millis() as i32,
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    fabric.fail(PcommError::Misuse {
                        rank: Some(self.rank),
                        detail: format!("socket progress loop: epoll_pwait: {e}"),
                    });
                    return;
                }
            };
            for &ev in &events[..n] {
                match ev.data {
                    WAKER => while (&self.waker.0).read(&mut [0u8; 64]).is_ok_and(|n| n > 0) {},
                    p => self.service(fabric, p as usize),
                }
            }
            self.triage_broken(fabric);
            if closing_since.is_none() && Instant::now() >= next_tick {
                self.heartbeat(fabric, &mut last_beat);
                next_tick = Instant::now() + HEARTBEAT_TICK;
            }
            if self.closing.load(Ordering::Acquire) {
                let since = *closing_since.get_or_insert_with(Instant::now);
                if self.goodbyes_done(fabric, since) {
                    return;
                }
            }
        }
    }

    /// One heartbeat tick: beat toward each live peer, acking what we
    /// read from it, once [`HEARTBEAT_MS`] has passed since the last
    /// beat (`last_beat`, ms); silence past
    /// [`HEARTBEAT_MISS`] means the peer died without a word (process
    /// killed, half-open socket) — escalated as the typed peer death
    /// every survivor sees, instead of a stall that needs the watchdog.
    /// Peers mid-reconnect or past their `Bye` are exempt; an aborted
    /// run judges nobody.
    fn heartbeat(&self, fabric: &Fabric, last_beat: &mut Option<u64>) {
        if fabric.aborted() {
            return;
        }
        let now = self.now_ms();
        let live = |peer: &Peer| {
            !peer.bye.load(Ordering::Acquire) && peer.connected.load(Ordering::Acquire)
        };
        if last_beat.is_none_or(|t| now.saturating_sub(t) >= HEARTBEAT_MS) {
            for (rank, peer) in self.each_peer().filter(|(_, p)| live(p)) {
                // ORDERING: an ack is a lower bound; a stale read acks less.
                let received = peer.frames_received.load(Ordering::Relaxed);
                self.send(fabric, rank, Frame::Heartbeat { received }, false);
            }
            *last_beat = Some(now);
        }
        let miss = HEARTBEAT_MISS.as_millis() as u64;
        for (rank, peer) in self.each_peer().filter(|(_, p)| live(p)) {
            // ORDERING: liveness timestamp; a stale read delays the
            // verdict by at most one tick.
            let quiet = now.saturating_sub(peer.last_heard_ms.load(Ordering::Relaxed));
            if quiet >= miss {
                let (p16, q) = (rank as u16, quiet);
                fabric
                    .trace()
                    .emit(self.rank as u16, || EventKind::HeartbeatMiss {
                        peer: p16,
                        quiet_ms: q,
                    });
                fabric.fail(PcommError::PeerPanicked {
                    rank,
                    message: format!(
                        "no frame from rank {rank} for {quiet} ms \
                         (heartbeat interval {HEARTBEAT_MS} ms): peer presumed dead"
                    ),
                });
                return;
            }
        }
    }

    /// Whether `close` may stop the progress thread: every live peer's
    /// outbox drained and — on a clean run — its `Bye` heard; or the
    /// wait ran past its bound (an aborted run's grace, or the
    /// establish-grade timeout: every peer passed the closing barrier,
    /// so its `Bye` is at most a write away).
    fn goodbyes_done(&self, fabric: &Fabric, since: Instant) -> bool {
        let aborted = fabric.aborted();
        let bound = if aborted {
            ABORT_GRACE
        } else {
            pcomm_net::mesh::ESTABLISH_TIMEOUT
        };
        since.elapsed() >= bound
            || self.each_peer().all(|(_, peer)| {
                peer.broken.load(Ordering::Acquire)
                    || (peer.intake.lock().is_empty()
                        && peer.depth.load(Ordering::Acquire) == 0
                        && (aborted || peer.bye.load(Ordering::Acquire)))
            })
    }
}

impl Transport for SocketTransport {
    fn local_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    /// Spawn the progress thread. Spawn failure comes back as a typed
    /// error instead of a panic: resource exhaustion at launch is an
    /// environment problem, not a bug.
    fn start(self: Arc<Self>, fabric: &Arc<Fabric>) -> Result<(), PcommError> {
        let _ = self.fault_obs.set(Arc::downgrade(fabric));
        let now = self.now_ms();
        for (_, peer) in self.each_peer() {
            // ORDERING: liveness timestamp; the heartbeat check tolerates
            // staleness.
            peer.last_heard_ms.store(now, Ordering::Relaxed);
        }
        let (t, f) = (Arc::clone(&self), Arc::clone(fabric));
        let handle = std::thread::Builder::new()
            .name("pcomm-net".into())
            .spawn(move || t.progress_loop(&f))
            .map_err(|e| PcommError::Misuse {
                rank: Some(self.rank),
                detail: format!("transport start: spawning the progress thread: {e}"),
            })?;
        *self.progress.lock() = Some(handle);
        Ok(())
    }

    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame, _teardown: bool) {
        // A push never blocks, and the outbox keeps its control frames
        // through an abort, so teardown traffic needs nothing extra.
        self.push(fabric, dst, Out::Frame(frame.encode()));
    }

    fn ship_part_cts(&self, fabric: &Fabric, src: usize, rdv_id: u64, _: *const u8, _: usize) {
        self.send(fabric, src, Frame::PartCts { rdv_id }, false);
    }

    fn ship_chunk(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        _grant: Option<u64>,
        span: &Arc<SendSpan>,
        chunk: PinChunk,
    ) {
        let out = Out::Pinned(PinnedWrite::new(rdv_id, chunk, span));
        self.push(fabric, dst, out);
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
        let now = self.now_ms();
        // The Relaxed loads below read advisory counters and gauges;
        // this snapshot is inherently racy by design.
        let state = |(rank, peer): (usize, &Peer)| PeerSocketState {
            peer: rank,
            connected: peer.connected.load(Ordering::Acquire),
            // ORDERING: advisory stat for the racy snapshot.
            frames_sent: peer.frames_sent.load(Ordering::Relaxed),
            // ORDERING: advisory stat for the racy snapshot.
            frames_received: peer.frames_received.load(Ordering::Relaxed),
            pending_rdv: 0,
            queued: (peer.depth.load(Ordering::Acquire) + peer.intake.lock().len()) as u64,
            // ORDERING: liveness timestamp; staleness only shifts the
            // quiet-time estimate.
            quiet_ms: now.saturating_sub(peer.last_heard_ms.load(Ordering::Relaxed)),
        };
        self.each_peer().map(state).collect()
    }

    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        // Past the polling window, park — an armed socket wakes the
        // progress thread, which completes us.
        self.poll_until(fabric, || usize::from(!completion.is_set()))
            || completion.wait_timeout(WAIT_SLICE)
    }

    fn poll_burst(&self, fabric: &Fabric, peer: Option<usize>, completions: &[Arc<Completion>]) {
        match peer {
            // A `PartCts` rides the peer's socket: one look there, not a
            // pass over every peer.
            Some(p) if completions.is_empty() => {
                self.flush(fabric, p);
                self.read_in(fabric, p);
            }
            _ => {
                self.poll_until(fabric, unset_in(completions));
            }
        }
    }

    /// Queue `Bye` toward every peer — behind whatever the outboxes
    /// still hold — and let the progress thread finish the goodbyes
    /// (see [`SocketTransport::goodbyes_done`]) before it is joined.
    /// Aborted runs then `shutdown(2)` the sockets, so peers still
    /// reading hear the end at once.
    fn close(&self, fabric: &Fabric) {
        for (p, _) in self.each_peer() {
            self.push(fabric, p, Out::Frame(Frame::Bye.encode()));
        }
        self.closing.store(true, Ordering::Release);
        self.wake();
        let progress = self.progress.lock().take();
        if progress.is_some_and(|p| p.join().is_err()) {
            fabric.fail(PcommError::Misuse {
                rank: Some(self.rank),
                detail: "the socket progress thread panicked".into(),
            });
        }
        if fabric.aborted() {
            for (_, peer) in self.each_peer() {
                peer.tx.lock().ep.shutdown();
            }
        }
    }
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

/// The in-process "transport": every rank is local, so nothing here can
/// ever be called. Exists so the fabric carries exactly one transport
/// object either way and the seam costs one cached branch.
pub(crate) struct SharedMemTransport;

impl Transport for SharedMemTransport {
    fn local_rank(&self) -> Option<usize> {
        None
    }

    fn start(self: Arc<Self>, _: &Arc<Fabric>) -> Result<(), PcommError> {
        Ok(())
    }

    fn send(&self, _: &Fabric, _: usize, _: Frame, _: bool) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn ship_part_cts(&self, _: &Fabric, _: usize, _: u64, _: *const u8, _: usize) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn ship_chunk(
        &self,
        _: &Fabric,
        _: usize,
        _: u64,
        _: Option<u64>,
        _: &Arc<SendSpan>,
        _: PinChunk,
    ) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
        Vec::new()
    }

    fn close(&self, _: &Fabric) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fabric::PostedRecv;
    use crate::wire::tests::source;
    use crate::wire::StreamRecv;
    use pcomm_trace::Trace;

    /// Rank `rank`'s socket carrier of a 2-rank universe over `sock`,
    /// armed as `new` arms it, with no progress thread: each test is the
    /// only thread moving bytes. A reconnect meets in `dir`.
    pub(crate) fn carrier_on(
        rank: usize,
        sock: UnixStream,
        dir: std::path::PathBuf,
        trace: Trace,
        plan: Option<&FaultPlan>,
    ) -> (Arc<Fabric>, Arc<SocketTransport>) {
        let backend = pcomm_net::Backend::Uds;
        let (n_ranks, seq) = (2, 0);
        let cfg = MeshConfig {
            rank,
            n_ranks,
            dir,
            backend,
            seq,
        };
        let mut peers = vec![None, None];
        peers[1 - rank] = Some(Endpoint::Uds(sock));
        let mesh = Mesh {
            rank,
            n_ranks,
            peers,
        };
        let transport = Arc::new(SocketTransport::new(mesh, cfg, plan).unwrap());
        let carrier = Arc::clone(&transport) as Arc<dyn Transport>;
        let fabric = Fabric::new_configured(2, 1, 1024, trace, None, carrier);
        (fabric, transport)
    }

    /// Rank 0's socket carrier toward a peer rank 1 that is the far end
    /// of a socketpair (see [`carrier_on`]). The far end stays blocking;
    /// a read there gives up after 5 s.
    fn carrier_with(
        trace: Trace,
        plan: Option<&FaultPlan>,
    ) -> (Arc<Fabric>, Arc<SocketTransport>, UnixStream) {
        let (near, far) = UnixStream::pair().unwrap();
        far.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (fabric, transport) = carrier_on(0, near, std::env::temp_dir(), trace, plan);
        (fabric, transport, far)
    }

    fn carrier(trace: Trace) -> (Arc<Fabric>, Arc<SocketTransport>, UnixStream) {
        carrier_with(trace, None)
    }

    fn peer_of(transport: &SocketTransport) -> &Peer {
        transport.peers[1].as_ref().unwrap()
    }

    /// Entries not yet fully on the socket.
    fn waiting(transport: &SocketTransport) -> usize {
        let peer = peer_of(transport);
        peer.tx.lock().q.outbox.len() + peer.intake.lock().len()
    }

    fn frames_sent(transport: &SocketTransport) -> u64 {
        peer_of(transport).frames_sent.load(Ordering::Acquire)
    }

    /// The send span of a stream over the whole of `buf`.
    fn span_over(buf: &[u8]) -> Arc<SendSpan> {
        Arc::new(SendSpan {
            remaining: AtomicUsize::new(buf.len()),
            done: Completion::new(),
        })
    }

    /// Pinned writes of stream 7 cutting `buf` into `n` equal ranges.
    fn stream_writes(buf: &[u8], span: &Arc<SendSpan>, n: usize) -> Vec<Out> {
        let len = buf.len() / n;
        (0..n)
            .map(|i| PinChunk {
                offset: (i * len) as u64,
                ptr: buf[i * len..].as_ptr(),
                len,
                parts: 1,
            })
            .map(|chunk| Out::Pinned(PinnedWrite::new(7, chunk, span)))
            .collect()
    }

    fn part_data(rdv_id: u64, offset: usize, payload: &[u8]) -> Frame {
        Frame::PartData {
            rdv_id,
            offset: offset as u64,
            payload: payload.to_vec(),
        }
    }

    fn events_named(fabric: &Fabric, name: &str) -> Vec<EventKind> {
        let events = fabric.trace().snapshot().unwrap().events;
        let kinds = events.into_iter().map(|e| e.kind);
        kinds.filter(|k| k.name() == name).collect()
    }

    #[test]
    fn the_caller_moves_its_own_bytes() {
        let (fabric, transport, mut far) = carrier(Trace::disabled());
        let wire = fabric.wire();
        let src = vec![0x5Au8; 4096];
        let (s, done) = source(wire, 1, &src, &[(0, 4096, 1)]);
        let id = s.id;
        // `start`: its PartRts is on the socket before the call returns.
        wire.part_send_start(&fabric, 7, &s, 1);
        let rts = Frame::PartRts {
            ctx: 7,
            total_len: 4096,
            rdv_id: id,
        };
        assert_eq!(Frame::read_from(&mut far).unwrap(), rts);
        // The CTS arrives while the sender computes. The next issue
        // reads it first, and its range leaves with it.
        Frame::PartCts { rdv_id: id }.write_to(&mut far).unwrap();
        wire.part_issue(&fabric, &s, 0, 1);
        assert_eq!(
            waiting(&transport),
            0,
            "the range was not put on the socket"
        );
        assert_eq!(Frame::read_from(&mut far).unwrap(), part_data(id, 0, &src));
        assert_eq!(frames_sent(&transport), 2);
        // The source is reusable once the peer acks the range.
        assert!(!done.is_set(), "done before the peer acked the range");
        ack_from(&mut far, &fabric, &transport, 2);
        assert!(done.is_set(), "the ack did not count the range off");
        assert!(!fabric.aborted());
    }

    #[test]
    fn a_push_into_a_full_socket_returns_at_once_and_flushes_later() {
        let (fabric, transport, mut far) = carrier(Trace::disabled());
        let source: Vec<u8> = (0..1usize << 20).map(|i| (i * 7 % 251) as u8).collect();
        let span = span_over(&source);
        let eager = Frame::Eager {
            shard: 0,
            ctx: 3,
            tag: -4,
            payload: vec![1, 2, 3],
        };
        transport.send(&fabric, 1, eager.clone(), false);
        for out in stream_writes(&source, &span, 4) {
            transport.push(&fabric, 1, out);
        }
        transport.send(&fabric, 1, Frame::Heartbeat { received: 3 }, false);
        // Nobody reads the far end: the socket took what fits, the
        // rest waits in the outbox and the stream is not all out.
        assert!(waiting(&transport) > 0);
        assert!(!span.done.is_set());
        let mut want = eager.encode();
        for i in 0..4 {
            let range = &source[i << 18..(i + 1) << 18];
            want.extend(part_data(7, i << 18, range).encode());
        }
        want.extend(Frame::Heartbeat { received: 3 }.encode());
        let len = want.len();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; len];
            far.read_exact(&mut got).unwrap();
            (got, far)
        });
        while waiting(&transport) > 0 {
            transport.flush(&fabric, 1);
            std::thread::yield_now();
        }
        let (got, mut far) = reader.join().unwrap();
        assert!(got == want, "the wire bytes differ");
        assert_eq!(frames_sent(&transport), 6, "each entry left once");
        assert!(!span.done.is_set(), "counted off before the peer acked");
        ack_from(&mut far, &fabric, &transport, 6);
        assert!(span.done.is_set());
        assert_eq!(span.remaining.load(Ordering::Acquire), 0);
    }

    /// The far end acks `received` frames, and the carrier reads it.
    fn ack_from(far: &mut UnixStream, fabric: &Fabric, transport: &SocketTransport, received: u64) {
        Frame::Heartbeat { received }.write_to(far).unwrap();
        while !transport.read_in(fabric, 1) {}
    }

    #[test]
    fn an_outbox_resumes_every_torn_write_where_it_stopped() {
        let plan = FaultPlan::seeded(5).torn_writes(1.0);
        let (fabric, transport, mut far) = carrier_with(Trace::disabled(), Some(&plan));
        let source: Vec<u8> = (0..=255).collect();
        let span = span_over(&source);
        let mut want = Vec::new();
        for received in 0..8 {
            let frame = Frame::Heartbeat { received };
            want.extend(frame.encode());
            transport.send(&fabric, 1, frame, false);
        }
        for out in stream_writes(&source, &span, 2) {
            transport.push(&fabric, 1, out);
        }
        want.extend(part_data(7, 0, &source[..128]).encode());
        want.extend(part_data(7, 128, &source[128..]).encode());
        while waiting(&transport) > 0 {
            transport.flush(&fabric, 1);
        }
        let mut got = vec![0u8; want.len()];
        far.read_exact(&mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(frames_sent(&transport), 10);
        ack_from(&mut far, &fabric, &transport, 10);
        assert!(span.done.is_set());
    }

    #[test]
    fn wire_send_seq_is_wire_order_when_pushes_race() {
        let (fabric, transport, mut far) = carrier(Trace::ring_verify(4096));
        const ROUNDS: u64 = 50;
        let frame = |f: Frame| Out::Frame(f.encode());
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 0..ROUNDS {
                    for _ in 0..3 {
                        transport.push(&fabric, 1, frame(Frame::Heartbeat { received: seq }));
                    }
                }
            });
            s.spawn(|| {
                for rdv_id in 0..ROUNDS {
                    transport.push(&fabric, 1, frame(Frame::PartCts { rdv_id }));
                }
            });
        });
        assert_eq!(waiting(&transport), 0, "a push was stranded");
        let mut sends: Vec<(u32, u16)> = events_named(&fabric, "verify_wire_send")
            .into_iter()
            .map(|kind| match kind {
                EventKind::VerifyWireSend {
                    lane: 0, op, seq, ..
                } => (seq, op),
                other => panic!("unexpected stamp {other:?}"),
            })
            .collect();
        sends.sort_unstable();
        let seqs: Vec<u32> = sends.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, (0..4 * ROUNDS as u32).collect::<Vec<_>>());
        drop((fabric, transport));
        let on_wire: Vec<u16> = std::iter::from_fn(|| Frame::read_from(&mut far).ok())
            .map(|f| f.op() as u16)
            .collect();
        let stamped: Vec<u16> = sends.iter().map(|&(_, op)| op).collect();
        assert_eq!(stamped, on_wire, "seq order is not wire order");
    }

    /// `take` one frame whose head claims `claimed` body bytes for `op`,
    /// followed by `fixed` and then EOF; returns the error and the
    /// capacity the decoder's reusable body buffer was left with.
    fn take_lying_head(op: u8, claimed: u32, fixed: &[u8]) -> (io::Error, usize) {
        let (fabric, transport, mut far) = carrier(Trace::disabled());
        let mut head = claimed.to_le_bytes().to_vec();
        head.extend([frame::WIRE_VERSION, op]);
        head.extend(fixed);
        far.write_all(&head).unwrap();
        drop(far);
        let mut guard = peer_of(&transport).rx.lock();
        let rx = &mut *guard;
        let err = transport
            .take(&fabric, 1, &mut rx.ep, &mut rx.rd)
            .unwrap_err();
        assert!(!fabric.aborted());
        (err, rx.rd.dec.body_capacity())
    }

    #[test]
    fn a_lying_length_prefix_costs_the_reader_one_allocation_step() {
        // A control frame: the body grows as bytes arrive, never to the
        // claimed gigabyte.
        let (err, cap) = take_lying_head(frame::op::EAGER, 1 << 30, &[]);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(cap <= 2 << 20, "body buffer grew to {cap} B");
        // A range of a stream nobody waits for: drained, not buffered.
        let retired = [9u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        let (err, cap) = take_lying_head(frame::op::PART_DATA, 1 << 30, &retired);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(cap, 0);
        // Shorter than its own fixed header.
        let (err, _) = take_lying_head(frame::op::PART_DATA, 10, &[0; 8]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Hands out `data` piece by piece: a read stops at the next cut,
    /// and the read after a cut is refused (`WouldBlock`), as a
    /// nonblocking socket refuses while the peer has sent nothing more.
    struct Pieces<'a> {
        data: &'a [u8],
        at: usize,
        cuts: VecDeque<usize>,
        dry: bool,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.dry || self.at == self.data.len() {
                self.dry = false;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let end = self.cuts.front().copied().unwrap_or(self.data.len());
            let n = buf.len().min(end - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            if self.at == end {
                self.cuts.pop_front();
                self.dry = true;
            }
            Ok(n)
        }
    }

    const BIG: usize = (1 << 20) + 3;

    /// Eager, `PartRts`, three overlapping `PartData`, a rendezvous
    /// `Rts` with its one `PartData`, and an eager frame with a 1 MiB
    /// body, as one byte stream; also where the big frame starts.
    fn mixed_stream() -> (Vec<u8>, usize) {
        let src: Vec<u8> = (0..64).map(|i| i as u8 ^ 0xA5).collect();
        let eager = |tag, payload: Vec<u8>| Frame::Eager {
            shard: 0,
            ctx: 0,
            tag,
            payload,
        };
        let frames = [
            eager(1, b"small eager".to_vec()),
            Frame::PartRts {
                ctx: 7,
                total_len: 64,
                rdv_id: 5,
            },
            part_data(5, 0, &src[0..24]),
            part_data(5, 16, &src[16..40]),
            part_data(5, 8, &src[8..64]),
            Frame::Rts {
                shard: 0,
                ctx: 0,
                tag: 3,
                len: 300,
                rdv_id: 9,
            },
            part_data(9, 0, &(0..300).map(|i| (i % 241) as u8).collect::<Vec<_>>()),
        ];
        let mut bytes: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let big_at = bytes.len();
        bytes.extend(eager(2, (0..BIG).map(|i| (i % 239) as u8).collect()).encode());
        (bytes, big_at)
    }

    /// What one delivery of the mixed stream left behind: the frame
    /// heads read in order, every destination's bytes, and the matches.
    #[derive(Debug, PartialEq)]
    struct Landed {
        heads: Vec<u16>,
        dests: [Vec<u8>; 4],
        completed: [bool; 5],
        matched: u64,
    }

    /// Deliver `stream` through a fresh carrier's decoder in the pieces
    /// `cuts` marks, `WouldBlock` between every two.
    fn land_mixed(stream: &[u8], cuts: impl IntoIterator<Item = usize>) -> Landed {
        let (fabric, transport, _far) = carrier(Trace::ring_verify(4096));
        let wire = fabric.wire();
        let mut dests = [vec![0u8; 16], vec![0u8; BIG], vec![0u8; 64], vec![0u8; 300]];
        let posted = |buf: &mut Vec<u8>, tag| PostedRecv {
            ctx: 0,
            src: Some(1),
            tag: Some(tag),
            dest_ptr: buf.as_mut_ptr(),
            dest_cap: buf.len(),
            info: Arc::new(Mutex::new(None)),
            completion: Completion::new(),
            verify_msg: None,
        };
        let [small, big, part, rdv] = &mut dests;
        let small = fabric.post_recv(0, 0, posted(small, 1));
        let big = fabric.post_recv(0, 0, posted(big, 2));
        let landed: Arc<[AtomicU64]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let msgs = vec![(0, 32), (32, 32)];
        let (base, stamps) = (part.as_mut_ptr(), Arc::clone(&landed));
        let recv = StreamRecv::new(base, 64, msgs, stamps, Completion::new(), None, false);
        wire.part_recv_start(&fabric, 1, 7, &recv, 1);
        let rdv = fabric.post_recv(0, 0, posted(rdv, 3));
        let mut reader = Pieces {
            data: stream,
            at: 0,
            cuts: cuts.into_iter().collect(),
            dry: false,
        };
        let mut rd = Reader::new(0, 0);
        while reader.at < stream.len() {
            transport.take(&fabric, 1, &mut reader, &mut rd).unwrap();
        }
        assert!(!fabric.aborted());
        let heads = events_named(&fabric, "verify_wire_recv")
            .into_iter()
            .map(|kind| match kind {
                EventKind::VerifyWireRecv { op, .. } => op,
                other => panic!("unexpected stamp {other:?}"),
            })
            .collect();
        Landed {
            heads,
            completed: [
                small.test(),
                big.test(),
                landed[0].load(Ordering::Acquire) == 1,
                landed[1].load(Ordering::Acquire) == 1,
                rdv.test(),
            ],
            matched: fabric.matched_count(),
            dests,
        }
    }

    /// What a round's credit rests on: the reader that lands the last
    /// byte of a `PartData` counts the frame as read whole before it
    /// lets go of the read half (the decoder is back at a frame head in
    /// the same `next` call), and a reconnect takes its count under that
    /// half. So the one reconnect never sends a range of a landed round
    /// again, into the next round.
    #[test]
    fn a_part_data_whose_last_byte_landed_counts_as_read_whole() {
        let frame = part_data(4, 0, &[7u8; 64]).encode();
        for cut in 1..frame.len() {
            let (fabric, transport, _far) = carrier(Trace::disabled());
            let wire = fabric.wire();
            let mut buf = vec![0u8; 64];
            let (landed, done) = (Arc::new([AtomicU64::new(0)]), Completion::new());
            let msgs = vec![(0, 64)];
            let (base, d) = (buf.as_mut_ptr(), Arc::clone(&done));
            let stream = StreamRecv::new(base, 64, msgs, landed, d, None, false);
            wire.part_recv_start(&fabric, 1, 7, &stream, 1);
            let rts = Frame::PartRts {
                ctx: 7,
                total_len: 64,
                rdv_id: 4,
            };
            wire.dispatch(&fabric, 1, rts);
            let mut reader = Pieces {
                data: &frame,
                at: 0,
                cuts: [cut].into(),
                dry: false,
            };
            let mut rd = Reader::new(0, 0);
            transport.take(&fabric, 1, &mut reader, &mut rd).unwrap();
            assert_eq!(rd.whole(), 0, "cut {cut}: read in part, yet counted");
            assert!(!done.is_set(), "cut {cut}");
            transport.take(&fabric, 1, &mut reader, &mut rd).unwrap();
            assert!(done.is_set(), "cut {cut}: the round did not land");
            assert_eq!(
                rd.whole(),
                1,
                "cut {cut}: the round landed, its frame not whole"
            );
            assert_eq!(buf, [7u8; 64]);
            assert!(!fabric.aborted());
        }
    }

    #[test]
    fn the_decoder_lands_the_same_bytes_at_every_split() {
        let (stream, big_at) = mixed_stream();
        let whole = land_mixed(&stream, []);
        assert_eq!(whole.completed, [true; 5]);
        assert_eq!(whole.matched, 5, "a completion flipped twice");
        assert_eq!(whole.heads.len(), 8);
        let body_step = big_at + 6 + (1 << 20);
        let in_big = (1..=24)
            .chain(body_step - 8..body_step + 8)
            .map(|k| big_at + k)
            .chain([stream.len() - 2, stream.len() - 1]);
        let mut cuts: Vec<usize> = (1..=big_at + 24).chain(in_big).collect();
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            assert_eq!(land_mixed(&stream, [cut]), whole, "cut at byte {cut}");
        }
        assert_eq!(land_mixed(&stream, 1..stream.len()), whole, "byte by byte");
    }

    /// A control frame entry, told apart by `gen`.
    fn ctl(gen: u64) -> Out {
        Out::Frame(Frame::BarrierArrive { gen }.encode())
    }

    /// The frames `q`'s outbox holds, decoded from their wire bytes.
    fn outbox_frames(q: &Queue) -> Vec<Frame> {
        let bytes: Vec<u8> = q
            .outbox
            .iter()
            .flat_map(Out::parts)
            .flatten()
            .copied()
            .collect();
        let mut r = io::Cursor::new(bytes);
        std::iter::from_fn(|| Frame::read_from(&mut r).ok()).collect()
    }

    /// Everything in `q`'s outbox leaves whole; returns the entries.
    fn write_all(q: &mut Queue) -> usize {
        let bytes: usize = q.outbox.iter().map(Out::wire_len).sum();
        q.advance(bytes - q.at)
    }

    #[test]
    fn a_peer_that_has_everything_is_sent_nothing_again() {
        let mut q = Queue::default();
        q.outbox.extend((0..10).map(ctl));
        assert_eq!(write_all(&mut q), 10);
        q.outbox.push_back(ctl(10));
        assert!(q.replay(10));
        assert_eq!(outbox_frames(&q), [Frame::BarrierArrive { gen: 10 }]);
        assert!(q.unacked.is_empty());
        assert_eq!((q.written, q.at), (10, 0));
    }

    #[test]
    fn frames_the_peer_lacks_go_again_once_in_order_ahead_of_newer_ones() {
        // Handshakes, rendezvous, eager and barrier traffic, more frames
        // than any acked window.
        let frames: Vec<Frame> = (0..5000u64)
            .map(|i| match i % 4 {
                0 => Frame::PartRts {
                    ctx: 3,
                    total_len: 64,
                    rdv_id: i,
                },
                1 => Frame::PartCts { rdv_id: i },
                2 => Frame::Rts {
                    shard: 0,
                    ctx: 0,
                    tag: 4,
                    len: 64,
                    rdv_id: i,
                },
                _ => Frame::Eager {
                    shard: 0,
                    ctx: 0,
                    tag: i as i64,
                    payload: i.to_le_bytes().to_vec(),
                },
            })
            .collect();
        let mut q = Queue::default();
        q.outbox
            .extend(frames.iter().map(|f| Out::Frame(f.encode())));
        assert_eq!(write_all(&mut q), 5000);
        q.ack(900);
        assert_eq!(q.unacked.len(), 4100, "an ack trims the queue");
        // A newer frame, torn on the dead socket.
        let newer = Frame::BarrierArrive { gen: 1 };
        q.outbox.push_back(Out::Frame(newer.encode()));
        q.advance(3);
        assert!(q.replay(1000));
        let mut want = frames[1000..].to_vec();
        want.push(newer);
        assert!(
            outbox_frames(&q) == want,
            "the suffix, in order, then the newer frame whole"
        );
        assert_eq!((q.written, q.at), (1000, 0));
        // Written again, they are sent once: a peer that now has them
        // all is sent nothing more.
        assert_eq!(write_all(&mut q), 4001);
        assert!(q.replay(5001));
        assert!(q.outbox.is_empty() && q.unacked.is_empty());
    }

    #[test]
    fn a_pinned_range_that_left_whole_and_never_arrived_goes_again_whole() {
        let src: Vec<u8> = (0..128).collect();
        let span = span_over(&src);
        let mut q = Queue::default();
        q.outbox.push_back(ctl(0));
        q.outbox.extend(stream_writes(&src, &span, 2));
        q.outbox.push_back(ctl(1));
        assert_eq!(write_all(&mut q), 4);
        assert!(!span.done.is_set(), "left whole, yet nobody acked it");
        // The peer read the first range, not the second: that one goes
        // again whole, ahead of the control frame behind it.
        assert!(q.replay(2));
        let want = [
            part_data(7, 64, &src[64..]),
            Frame::BarrierArrive { gen: 1 },
        ];
        assert_eq!(outbox_frames(&q), want);
        assert_eq!(span.remaining.load(Ordering::Acquire), 64);
        assert_eq!(write_all(&mut q), 2);
        q.ack(4);
        assert!(span.done.is_set());
    }

    /// Rank 0 streams 64 KiB to rank 1, all of it into the socket; rank
    /// 1's socket dies (its write after the `PartCts`) before it read
    /// the range, and its queue goes with it. After the one reconnect
    /// the range goes again whole: rank 1's bytes are exact, and rank
    /// 0's send completes once rank 1 acks them.
    #[test]
    fn a_range_a_dead_socket_took_lands_exactly_after_the_reconnect() {
        let (a, b) = UnixStream::pair().unwrap();
        let dir = pcomm_net::launch::unique_rendezvous_dir().unwrap();
        let cts_len = Frame::PartCts { rdv_id: 0 }.encode().len() as u64;
        let kill = FaultPlan::seeded(1).lane_kill(cts_len);
        let (f0, t0) = carrier_on(0, a, dir.clone(), Trace::disabled(), None);
        let (f1, t1) = carrier_on(1, b, dir.clone(), Trace::disabled(), Some(&kill));
        let src: Vec<u8> = (0..1usize << 16).map(|i| (i * 7 % 251) as u8).collect();
        let mut dst = vec![0u8; src.len()];
        let (half, landed) = (
            src.len() / 2,
            Arc::new([AtomicU64::new(0), AtomicU64::new(0)]),
        );
        let (base, msgs, recv_done) = (
            dst.as_mut_ptr(),
            vec![(0, half), (half, half)],
            Completion::new(),
        );
        let recv = StreamRecv::new(
            base,
            src.len(),
            msgs,
            landed,
            Arc::clone(&recv_done),
            None,
            false,
        );
        f1.wire().part_recv_start(&f1, 0, 7, &recv, 1);
        let (s, sent) = source(f0.wire(), 1, &src, &[(0, src.len(), 2)]);
        f0.wire().part_send_start(&f0, 7, &s, 1);
        t1.read_in(&f1, 0);
        f0.wire().part_issue(&f0, &s, 0, 1);
        assert_eq!(waiting(&t0), 0, "the range is not all in the socket");
        t1.send(&f1, 0, Frame::Heartbeat { received: 0 }, false);
        assert!(t1.peers[0].as_ref().unwrap().broken.load(Ordering::Acquire));
        assert!(!recv_done.is_set() && !sent.is_set());
        let err = io::Error::from(io::ErrorKind::ConnectionReset);
        std::thread::scope(|s| {
            s.spawn(|| t0.socket_failed(&f0, 1, &err));
            s.spawn(|| t1.socket_failed(&f1, 0, &err));
        });
        let reader = t1.peers[0].as_ref().unwrap();
        let has = reader.frames_received.load(Ordering::Acquire);
        assert_eq!(has, 1, "rank 1 read more than the PartRts");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sent.is_set() && Instant::now() < deadline {
            t0.pass(&f0);
            t1.pass(&f1);
        }
        assert!(
            recv_done.is_set() && sent.is_set(),
            "the range never went again"
        );
        assert!(dst == src, "the replayed bytes differ");
        assert!(!f0.aborted() && !f1.aborted());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_partly_written_pinned_front_entry_goes_again_whole() {
        let src: Vec<u8> = (0..128).collect();
        let span = span_over(&src);
        let mut q = Queue::default();
        q.outbox.push_back(ctl(0));
        q.outbox.extend(stream_writes(&src, &span, 2));
        // The control frame and half the first range left.
        let torn = q.outbox[0].wire_len() + q.outbox[1].wire_len() / 2;
        assert_eq!(q.advance(torn), 1);
        assert!(q.replay(1));
        let want = [part_data(7, 0, &src[..64]), part_data(7, 64, &src[64..])];
        assert_eq!(outbox_frames(&q), want, "the torn range goes again whole");
        assert_eq!(write_all(&mut q), 2);
        assert!(!span.done.is_set());
        q.ack(3);
        assert!(span.done.is_set());
        assert_eq!(span.remaining.load(Ordering::Acquire), 0, "completed once");
    }

    #[test]
    fn a_replay_refuses_a_count_our_writes_could_not_produce() {
        let mut q = Queue::default();
        q.outbox.extend((0..3).map(ctl));
        write_all(&mut q);
        q.ack(2);
        assert!(!q.replay(1), "below what the peer acked");
        assert!(!q.replay(4), "past what was written");
        assert!(q.replay(2));
    }

    #[test]
    fn acks_keep_the_unacked_queue_short() {
        let (a, b) = UnixStream::pair().unwrap();
        let dir = std::env::temp_dir();
        let (f0, t0) = carrier_on(0, a, dir.clone(), Trace::disabled(), None);
        let (f1, t1) = carrier_on(1, b, dir, Trace::disabled(), None);
        let reader = t1.peers[0].as_ref().unwrap();
        let mut most = 0;
        for gen in 0..20 * ACK_EVERY {
            t0.send(&f0, 1, Frame::BarrierRelease { gen }, false);
            let (kept, written) = {
                let tx = peer_of(&t0).tx.lock();
                (tx.q.unacked.len() as u64, tx.q.written)
            };
            let in_flight = written - reader.frames_received.load(Ordering::Acquire);
            assert!(
                kept <= ACK_EVERY + in_flight,
                "frame {gen}: {kept} kept, {in_flight} in flight"
            );
            most = most.max(kept);
            // The receiver reads in bursts of three.
            if gen % 3 == 2 {
                t1.read_in(&f1, 0);
                t0.read_in(&f0, 1);
            }
        }
        assert!(most < ACK_EVERY + 3, "retention peaked at {most}");
        assert!(!f0.aborted() && !f1.aborted());
    }

    /// Rank 1's socket dies after it read 64 of rank 0's 100 eager
    /// frames (its first ack kills it); rank 0 queues 50 more. After
    /// the one reconnect, rank 1's 150 posted receives each hold their
    /// own frame, in order, and a 151st gets nothing: every frame the
    /// dead socket took arrived, once.
    #[test]
    fn a_reconnect_delivers_what_the_dead_socket_took_exactly_once() {
        const N: u64 = 150;
        let (a, b) = UnixStream::pair().unwrap();
        let dir = pcomm_net::launch::unique_rendezvous_dir().unwrap();
        let kill = FaultPlan::seeded(1).lane_kill(0);
        let (f0, t0) = carrier_on(0, a, dir.clone(), Trace::disabled(), None);
        let (f1, t1) = carrier_on(1, b, dir.clone(), Trace::disabled(), Some(&kill));
        let mut bufs = vec![[0u8; 8]; N as usize + 1];
        let receives: Vec<_> = bufs
            .iter_mut()
            .map(|buf| {
                let posted = PostedRecv {
                    ctx: 0,
                    src: Some(0),
                    tag: None,
                    dest_ptr: buf.as_mut_ptr(),
                    dest_cap: buf.len(),
                    info: Arc::new(Mutex::new(None)),
                    completion: Completion::new(),
                    verify_msg: None,
                };
                f1.post_recv(1, 0, posted)
            })
            .collect();
        let eager = |gen: u64| Frame::Eager {
            shard: 0,
            ctx: 0,
            tag: gen as i64,
            payload: gen.to_le_bytes().to_vec(),
        };
        for gen in 0..100 {
            t0.send(&f0, 1, eager(gen), false);
        }
        t1.read_in(&f1, 0);
        assert!(t1.peers[0].as_ref().unwrap().broken.load(Ordering::Acquire));
        assert_eq!(
            f1.matched_count(),
            ACK_EVERY,
            "the kill came with the first ack"
        );
        for gen in 100..N {
            t0.send(&f0, 1, eager(gen), false);
        }
        let err = io::Error::from(io::ErrorKind::ConnectionReset);
        std::thread::scope(|s| {
            s.spawn(|| t0.socket_failed(&f0, 1, &err));
            s.spawn(|| t1.socket_failed(&f1, 0, &err));
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while f1.matched_count() < N && Instant::now() < deadline {
            t0.pass(&f0);
            t1.pass(&f1);
        }
        for (gen, (receive, buf)) in receives.iter().zip(&bufs).enumerate().take(N as usize) {
            assert!(receive.test(), "frame {gen} never arrived");
            assert_eq!(u64::from_le_bytes(*buf), gen as u64, "receive {gen}");
        }
        assert!(!receives[N as usize].test(), "a frame arrived twice");
        assert!(!f0.aborted() && !f1.aborted());
        let _ = std::fs::remove_dir_all(dir);
    }
}
