//! The transport seam: what carries wire traffic out of the process.
//!
//! The protocol itself — eager, RTS/CTS rendezvous, partitioned
//! streams, barrier, RMA, abort — lives once in [`crate::wire`]. A
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
//! Per peer, per lane: one **writer** thread draining an unbounded
//! channel (senders only enqueue — a send can never block on a remote
//! process, so there is no distributed write-write deadlock), and one
//! **reader** thread dispatching what arrives into the engine. Lane 0
//! carries all ordered traffic (eager, rendezvous control, barriers,
//! RMA, abort, `Bye`); lanes `1..N` (`PCOMM_NET_LANES`) carry only the
//! order-independent `PartData` ranges, round-robined so a large
//! partition stream cannot head-of-line-block small eager traffic.
//!
//! Exactly one function touches a lane's socket per direction.
//! [`SocketTransport::put`] takes a batch — control frames and pinned
//! writes (a stream range or a CTS-released rendezvous payload) — and,
//! under the lane's mutex, encodes, audit-stamps and sends it as one
//! vectored write, payloads straight out of the pinned source; then it
//! completes what the pinned writes cover. The writer thread `put`s
//! what it drained; a reader thread mid-dispatch (CTS release) `put`s
//! its own batch directly, skipping the thread hop; app threads never
//! `put`, they enqueue ([`Caller`]). [`SocketTransport::take`] reads
//! one frame head and either lands a pinned payload with a `read(2)`
//! straight *into* its destination
//! ([`WireProtocol::land_part`](crate::wire::WireProtocol::land_part),
//! `land_rdv`) — so the only copies are the kernel's socket transfers —
//! or reads the body (`pcomm_net::frame` owns head and body reads, and
//! never trusts the length prefix for an allocation) and dispatches it.
//!
//! Either one failing goes through the one triage,
//! [`SocketTransport::lane_failed`]:
//!
//! | lane          | verdict                                                     |
//! |---------------|-------------------------------------------------------------|
//! | 0             | the peer's one bounded reconnect; a `put` retries its batch on the new socket, a reader continues on it |
//! | data lane     | marked dead (`LaneDown`); a `put` re-queues its pinned writes and the writer's backlog on survivors (`LaneFailover`), a reader exits |
//! | otherwise     | the peer is dead: typed `PeerPanicked` for every local waiter |
//!
//! Abort tears everything down: the engine broadcasts an `Abort` frame,
//! then `shutdown(2)` unblocks this process's own readers.

use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame};
use pcomm_net::{Endpoint, Mesh, MeshConfig, WireFault, WireFaults};
use pcomm_trace::{EventKind, FaultKind, FaultPlan};

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, WAIT_SLICE};
use crate::sync::{Completion, Mutex};
use crate::wire::{complete_spans, PinChunk, PinnedSend, SendSpan};

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

/// Which context asks a carrier to move bytes. An application thread
/// (inside `pready`/`start`) must never block on a peer, so carriers
/// with writer threads enqueue for it; the carrier's own progress
/// context (a reader thread mid-dispatch) may write directly and skip
/// the thread hop.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Caller {
    App,
    Progress,
}

/// A carrier: how the wire protocol engine reaches ranks hosted outside
/// this process. Everything but `local_rank` and the waiting hooks is
/// called only in multiprocess runs.
pub(crate) trait Transport: Send + Sync {
    /// The rank this process hosts; `None` when every rank is a thread
    /// of this process and nothing ever crosses the seam.
    fn local_rank(&self) -> Option<usize>;

    /// Partition-stream aggregation threshold: ready ranges coalesce
    /// until they reach this many bytes. 0 ships every range as pushed.
    fn stream_aggr(&self) -> usize {
        0
    }

    /// Start the carrier's threads. Called once, after the fabric
    /// referencing this carrier exists.
    fn start(self: Arc<Self>, fabric: &Arc<Fabric>) -> Result<(), PcommError>;

    /// Send one control frame toward `dst`, ordered after every earlier
    /// `send` to the same peer. `teardown` marks abort and goodbye
    /// traffic: it must leave even though the fabric is already
    /// aborted, within a bounded time.
    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame, teardown: bool);

    /// The CTS for rendezvous `rdv_id` arrived: move the pinned payload
    /// to `dst` and set `pinned.done` once it has left.
    fn ship_rdv(&self, fabric: &Fabric, dst: usize, rdv_id: u64, pinned: PinnedSend);

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
        caller: Caller,
    );

    /// Move ready chunks of stream `rdv_id` to `dst` under the `grant`
    /// its CTS carried, completing the covered `spans` as bytes leave.
    #[allow(clippy::too_many_arguments)] // one per stream-descriptor field
    fn ship_chunks(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        spans: &Arc<Vec<SendSpan>>,
        chunks: &[PinChunk],
        caller: Caller,
    );

    /// Reconnect epoch of the ordered connection to `peer`, for audit
    /// stamps (0 on carriers that never reconnect).
    fn epoch(&self, peer: usize) -> u32 {
        let _ = peer;
        0
    }

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
    /// carriers without reader threads (ipc) override this to run
    /// inline progress while the app thread waits.
    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        let _ = fabric;
        completion.wait_timeout(WAIT_SLICE)
    }

    /// Opportunistic inline progress ahead of a burst of
    /// [`Transport::wait_slice`] calls, one per entry of `completions`:
    /// a polling carrier (ipc) polls until all are set or the peer
    /// goes quiet, as *one* poller rather than one per completion.
    /// Never required for correctness — the waits that follow block
    /// properly; the default does nothing.
    fn poll_burst(&self, fabric: &Fabric, completions: &[Arc<Completion>]) {
        let _ = (fabric, completions);
    }

    /// Try to pin a receiver-side destination of `len` bytes that the
    /// sender can reach directly (the ipc partition arena). Returns the
    /// carrier's grant token and the mapped base pointer, or `None`
    /// when the carrier has no shared destination memory (sockets) or
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

    /// Say goodbye to every peer and stop the carrier's threads; the
    /// engine calls this last in teardown. Never unwinds.
    fn close(&self, fabric: &Fabric);
}

/// A pinned byte range headed for the wire without an intermediate
/// copy: `head` (a `PartData` or `RdvData` frame header — length prefix
/// through the last fixed field) goes out followed by the payload
/// straight from the pinned source buffer, as one vectored write, and
/// `then` names what that write completes. A CTS-released rendezvous
/// payload therefore pays one kernel copy instead of three buffer hops
/// (pinned→Vec, Vec→scratch, scratch→socket), like a stream range.
struct PinnedWrite {
    head: [u8; 4 + frame::PART_DATA_BODY_HDR],
    head_len: usize,
    ptr: *const u8,
    len: usize,
    then: Then,
}

/// What a [`PinnedWrite`] completes once its bytes have left.
enum Then {
    /// The sender spans covered by the range at `offset` of partitioned
    /// stream `rdv_id`.
    Spans {
        rdv_id: u64,
        offset: u64,
        spans: Arc<Vec<SendSpan>>,
    },
    /// The rendezvous sender's `done` (lane 0 only).
    Done(Arc<Completion>),
}

// SAFETY: same argument as [`PinChunk`] and [`PinnedSend`] — the source
// stays pinned until `then` is completed (the spans' `done`
// completions, or the rendezvous `done`), which `put` does only after
// the write, and only the thread holding the lane's `direct` mutex
// reads through the pointer.
unsafe impl Send for PinnedWrite {}

impl PinnedWrite {
    fn stream(rdv_id: u64, chunk: PinChunk, spans: &Arc<Vec<SendSpan>>) -> PinnedWrite {
        PinnedWrite {
            head: frame::part_data_header(rdv_id, chunk.offset, chunk.len),
            head_len: 4 + frame::PART_DATA_BODY_HDR,
            ptr: chunk.ptr,
            len: chunk.len,
            then: Then::Spans {
                rdv_id,
                offset: chunk.offset,
                spans: Arc::clone(spans),
            },
        }
    }

    fn rdv(rdv_id: u64, pinned: PinnedSend) -> PinnedWrite {
        let short = frame::rdv_data_header(rdv_id, pinned.len);
        let mut head = [0u8; 4 + frame::PART_DATA_BODY_HDR];
        head[..short.len()].copy_from_slice(&short);
        PinnedWrite {
            head,
            head_len: short.len(),
            ptr: pinned.ptr,
            len: pinned.len,
            then: Then::Done(pinned.done),
        }
    }
}

/// What goes onto a lane: the entries of a [`SocketTransport::put`]
/// batch, and what a writer thread consumes. Frames cross the channel
/// undecoded; `put` encodes them into its caller's reusable scratch.
enum WriterMsg {
    /// A frame to put on the wire.
    Frame(Frame),
    /// A pinned stream range or rendezvous payload (zero-copy).
    Pinned(PinnedWrite),
    /// Flush and exit (teardown).
    Shutdown,
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
    /// The write half. Every `put` locks it for its batch: the lane's
    /// writer thread, and reader threads releasing a CTS batch, which
    /// write under the same mutex directly, skipping the context switch
    /// that would otherwise cap partitioned bandwidth on small
    /// machines. App threads never write here — a `pready` must not
    /// donate its timeslice to a blocking socket write. After a lane-0
    /// reconnect this holds the re-handshaken endpoint.
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
}

/// A writer thread's end of its lane's channel.
struct Inbox {
    rx: Receiver<WriterMsg>,
    /// Cleared by `Shutdown` (or a vanished sender): nothing further
    /// will be consumed.
    open: bool,
}

impl Inbox {
    /// Move queued messages into `batch` until it holds `max`, blocking
    /// for the first one when `block`.
    fn drain(&mut self, lane: &Lane, batch: &mut Vec<WriterMsg>, max: usize, block: bool) {
        while self.open && batch.len() < max {
            let blocking = block && batch.is_empty();
            let got = if blocking {
                self.rx.recv().ok()
            } else {
                self.rx.try_recv().ok()
            };
            let Some(msg) = got else {
                // A blocking receive fails only once every sender is gone.
                self.open = !blocking;
                return;
            };
            // ORDERING: `queued` is an advisory backlog gauge (see
            // `Lane::enqueue`); exact interleaving with readers does not
            // matter.
            lane.queued.fetch_sub(1, Ordering::Relaxed);
            match msg {
                WriterMsg::Shutdown => self.open = false,
                msg => batch.push(msg),
            }
        }
    }
}

/// How a [`SocketTransport::put`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Put {
    /// The batch reached the socket (less what an abort skipped).
    Sent,
    /// The data lane died: the batch's pinned writes (and the writer's
    /// backlog) were re-queued on survivors, its control frames are
    /// left in the batch.
    FailedOver,
    /// The peer is gone (typed error raised) or the universe is
    /// aborting; nothing was completed.
    Dead,
}

/// What a dead lane means: the verdict of
/// [`SocketTransport::lane_failed`].
enum Fate {
    /// Lane 0 was re-established; a read handle on the new socket.
    Reconnected(Endpoint),
    /// A data lane: marked dead, the survivors carry on.
    FailedOver,
    /// The peer is gone for good (or the universe is tearing down).
    Dead,
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
    connected: AtomicBool,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    saw_bye: AtomicBool,
    /// Round-robin cursor over the data lanes.
    next_lane: AtomicUsize,
    /// Transport-relative ms timestamp of the last frame read from this
    /// peer on any lane — the liveness signal the heartbeat monitor
    /// escalates on.
    last_heard_ms: AtomicU64,
    /// The one bounded lane-0 reconnect, shared by every thread that
    /// notices the death (whichever arrives first performs it; the
    /// others block on this lock and reuse the outcome).
    reconnect: Mutex<Reconnected>,
    /// Reconnect epoch for audit events: 0 until the peer's one bounded
    /// lane-0 reconnect succeeds, 1 after. Bumped while the lane-0
    /// `direct` mutex is held, so writers reading it under that mutex
    /// always stamp frames with the epoch of the socket they write to.
    epoch: AtomicU32,
}

/// The socket carrier: per-peer-per-lane reader/writer threads (see the
/// module docs for the model).
pub(crate) struct SocketTransport {
    rank: usize,
    peers: Vec<Option<Peer>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Mesh parameters, kept for the bounded lane-0 reconnect.
    cfg: MeshConfig,
    /// `PCOMM_NET_HB_MS`: heartbeat interval; `None` disables liveness.
    hb_ms: Option<u64>,
    hb_stop: AtomicBool,
    hb_thread: Mutex<Option<JoinHandle<()>>>,
    /// Transport epoch for the ms timestamps in `last_heard_ms`.
    t0: Instant,
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
                        connected: AtomicBool::new(true),
                        frames_sent: AtomicU64::new(0),
                        frames_received: AtomicU64::new(0),
                        saw_bye: AtomicBool::new(false),
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
            peers,
            readers: Mutex::new(Vec::new()),
            cfg,
            hb_ms: pcomm_net::launch::hb_ms_from_env(),
            hb_stop: AtomicBool::new(false),
            hb_thread: Mutex::new(None),
            t0: Instant::now(),
            fault_obs,
        }
    }

    /// Milliseconds since the transport was built (the epoch of
    /// `last_heard_ms`).
    fn now_ms(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Audit hook: one frame is about to leave on `lane_idx` toward
    /// `dst`. The caller holds the lane's `direct` mutex, so the
    /// per-lane `tx_seq` order is exact wire order and the epoch read
    /// matches the socket the frame goes to. No-op unless the trace is
    /// verify-grade.
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

    /// Enqueue one ordered frame toward `dst` (lane 0; never blocks —
    /// the writer thread does the I/O). Sends to an already-torn-down
    /// peer are dropped.
    fn send_frame(&self, dst: usize, frame: Frame) {
        if let Some(peer) = &self.peers[dst] {
            let _ = peer.lanes[0].enqueue(WriterMsg::Frame(frame));
        }
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

    /// Hand one message to `lane_idx`'s writer thread. An enqueue can
    /// only fail when that writer exited — mark the lane dead and
    /// re-route to a surviving one (data lanes first, lane 0 as the
    /// last resort); a failed lane-0 enqueue means the universe is
    /// tearing down and the waiters unwind via the abort.
    fn enqueue_on(&self, peer: &Peer, mut lane_idx: usize, mut msg: WriterMsg) {
        while let Err(back) = peer.lanes[lane_idx].enqueue(msg) {
            peer.lanes[lane_idx].alive.store(false, Ordering::Release);
            if lane_idx == 0 {
                return;
            }
            (lane_idx, msg) = (self.pick_lane(peer), back);
        }
    }

    /// Re-route every pinned write of `batch` to surviving lanes after
    /// theirs died, leaving the control frames behind; returns how many
    /// moved.
    fn requeue_pinned(&self, peer: &Peer, batch: &mut Vec<WriterMsg>) -> u64 {
        let mut requeued = 0;
        for msg in std::mem::take(batch) {
            if matches!(msg, WriterMsg::Pinned(_)) {
                self.enqueue_on(peer, self.pick_lane(peer), msg);
                requeued += 1;
            } else {
                batch.push(msg);
            }
        }
        requeued
    }

    /// The one way onto a lane's socket. Under the lane's `direct`
    /// mutex — which is what keeps the writer thread's and the reader
    /// threads' frames from interleaving — the batch's control frames
    /// are encoded into `scratch`, every entry gets its audit stamp in
    /// wire order, and everything leaves as one vectored write, pinned
    /// payloads straight from their source buffers; only then do the
    /// pinned writes complete their spans / `done`. The writer thread
    /// passes its drained channel batch (and its `inbox`), a reader
    /// thread mid-dispatch a local one. A failed write goes through
    /// [`lane_failed`](Self::lane_failed): lane 0 retries the same
    /// batch once on the reconnected socket (at-least-once — the
    /// receiving engine deduplicates), a data lane's pinned writes move
    /// to the survivors.
    fn put(
        &self,
        fabric: &Fabric,
        dst: usize,
        lane_idx: usize,
        batch: &mut Vec<WriterMsg>,
        scratch: &mut Vec<Vec<u8>>,
        inbox: Option<&mut Inbox>,
    ) -> Put {
        let Some(peer) = &self.peers[dst] else {
            return Put::Dead;
        };
        if batch.is_empty() {
            return Put::Sent;
        }
        let lane = &peer.lanes[lane_idx];
        // An aborting universe may already be unwinding the buffers that
        // pinned entries point into: drop them unsent (their waiters
        // unwind via the abort), keep the control frames (the abort
        // broadcast is one of them).
        let aborting = fabric.aborted();
        let mut n_frames = 0;
        for msg in batch.iter() {
            if let WriterMsg::Frame(f) = msg {
                if scratch.len() == n_frames {
                    scratch.push(Vec::new());
                }
                f.encode_into(&mut scratch[n_frames]);
                n_frames += 1;
            }
        }
        let failed_over = {
            let mut encoded = scratch.iter();
            let mut slices: Vec<&[u8]> = Vec::with_capacity(batch.len() * 2);
            for msg in batch.iter() {
                match msg {
                    WriterMsg::Frame(_) => slices.extend(encoded.next().map(Vec::as_slice)),
                    WriterMsg::Pinned(pw) if !aborting => {
                        slices.push(&pw.head[..pw.head_len]);
                        // SAFETY: the source buffer stays pinned until
                        // `then` is completed below, after the write
                        // (invariant (1)); the abort check above plus
                        // the drain grace cover teardown races.
                        slices.push(unsafe { std::slice::from_raw_parts(pw.ptr, pw.len) });
                    }
                    _ => {}
                }
            }
            let mut may_recover = true;
            loop {
                let wrote = match lane.direct.lock().as_mut() {
                    Some(ep) => {
                        // Audit record under the lane mutex, one event
                        // per frame in wire order, emitted before the
                        // write so a torn batch still records what may
                        // have reached the peer, and re-stamped on a
                        // post-reconnect retry (each attempt is a
                        // genuine new wire frame).
                        for msg in batch.iter() {
                            match msg {
                                WriterMsg::Frame(f) => {
                                    self.emit_wire_send(fabric, dst, lane_idx, f.op())
                                }
                                WriterMsg::Pinned(pw) if !aborting => {
                                    self.emit_wire_send(fabric, dst, lane_idx, pw.head[5]);
                                    if let Then::Spans { rdv_id, offset, .. } = pw.then {
                                        let (p16, l16) = (dst as u16, lane_idx as u16);
                                        fabric.trace().emit_verify(self.rank as u16, || {
                                            EventKind::VerifyStreamData {
                                                peer: p16,
                                                lane: l16,
                                                tx: true,
                                                stream: rdv_id as u32,
                                                offset,
                                                len: pw.len as u32,
                                            }
                                        });
                                    }
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
                };
                let Err(err) = wrote else { break false };
                match self.lane_failed(fabric, dst, lane_idx, may_recover, &err) {
                    // `direct` now holds the new socket: same batch again.
                    Fate::Reconnected(_) => may_recover = false,
                    Fate::FailedOver => break true,
                    Fate::Dead => return Put::Dead,
                }
            }
        };
        if failed_over {
            // The batch never reached the wire (or did so only partially
            // — the receiver's interval ledger absorbs the overlap) and
            // nothing in it has completed, so the pinned sources are
            // still live: replay them whole on the survivors, with
            // whatever this lane's writer still had queued behind them.
            if let Some(inbox) = inbox {
                inbox.drain(lane, batch, usize::MAX, false);
            }
            let requeued = self.requeue_pinned(peer, batch);
            let (p16, l16) = (dst as u16, lane_idx as u16);
            fabric
                .trace()
                .emit(self.rank as u16, || EventKind::LaneFailover {
                    peer: p16,
                    lane: l16,
                    requeued,
                });
            return Put::FailedOver;
        }
        let mut sent = 0;
        for msg in batch.drain(..) {
            match msg {
                WriterMsg::Pinned(_) if aborting => continue,
                WriterMsg::Pinned(pw) => match pw.then {
                    Then::Spans { offset, spans, .. } => {
                        complete_spans(&spans, offset as usize, pw.len)
                    }
                    Then::Done(done) => done.set(),
                },
                _ => {}
            }
            sent += 1;
        }
        // ORDERING: statistics counter surfaced in diagnostics snapshots
        // only; no memory is published through it.
        peer.frames_sent.fetch_add(sent, Ordering::Relaxed);
        Put::Sent
    }

    /// The one triage of a dead lane, for writers and readers alike
    /// (`err` is what the socket said). A data lane fails over quietly:
    /// the first caller (its reader and writers race) marks it dead,
    /// kills both halves so the twin thread and the remote end stop
    /// waiting on it, and traces the death — the surviving lanes carry
    /// the stream and lane 0 carries liveness, so this is a trace
    /// event, not a universe failure. Lane 0 gets the one bounded
    /// reconnect while `may_recover` (a reader's second failure, or a
    /// batch that failed again on the new socket, may not). Anything
    /// else — EOF or an error without a `Bye` — means the peer process
    /// died: the would-be hang becomes a typed error for every local
    /// waiter.
    fn lane_failed(
        &self,
        fabric: &Fabric,
        peer_rank: usize,
        lane_idx: usize,
        may_recover: bool,
        err: &io::Error,
    ) -> Fate {
        let Some(peer) = &self.peers[peer_rank] else {
            return Fate::Dead;
        };
        if fabric.aborted() {
            return Fate::Dead; // teardown; the abort already carries the story
        }
        let lane = &peer.lanes[lane_idx];
        if lane_idx > 0 {
            if lane.alive.swap(false, Ordering::AcqRel) {
                lane.endpoint.shutdown();
                let (p16, l16) = (peer_rank as u16, lane_idx as u16);
                fabric
                    .trace()
                    .emit(self.rank as u16, || EventKind::LaneDown {
                        peer: p16,
                        lane: l16,
                    });
            }
            return Fate::FailedOver;
        }
        if may_recover {
            // Kill our half first so the lane's other threads and the
            // remote peer all observe the failure and join the
            // reconnect handshake.
            lane.endpoint.shutdown();
            if let Some(ep) = self.recover_lane0(fabric, peer_rank) {
                return Fate::Reconnected(ep);
            }
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
        Fate::Dead
    }

    /// Put the ready chunks of stream `rdv_id` on the wire toward
    /// `dst`, round-robined over the data lanes. `caller` picks the
    /// write discipline: reader threads (CTS release) `put` each lane's
    /// share directly as one vectored batch (no thread hop); app
    /// threads (post-CTS `pready`) enqueue to the lane writers instead,
    /// because a blocking socket write inside `pready` stalls the
    /// computation for a scheduler quantum whenever the host is
    /// oversubscribed.
    fn dispatch_chunks(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        spans: &Arc<Vec<SendSpan>>,
        chunks: &[PinChunk],
        caller: Caller,
    ) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let mut buckets: Vec<Vec<WriterMsg>> = peer.lanes.iter().map(|_| Vec::new()).collect();
        for &chunk in chunks {
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
            buckets[lane].push(WriterMsg::Pinned(PinnedWrite::stream(rdv_id, chunk, spans)));
        }
        for (lane_idx, mut bucket) in buckets.into_iter().enumerate() {
            match caller {
                Caller::App => {
                    for msg in bucket {
                        self.enqueue_on(peer, lane_idx, msg);
                    }
                }
                Caller::Progress => {
                    self.put(fabric, dst, lane_idx, &mut bucket, &mut Vec::new(), None);
                }
            }
        }
    }

    /// Put a small control frame on a data lane's socket directly if
    /// one exists (bypassing the lane-0 writer thread), else fall back
    /// to the ordered lane. Only valid for frames with no ordering
    /// obligation toward lane-0 traffic — which is also why a lane that
    /// dies under the frame just hands it to the next survivor.
    fn send_data_frame(&self, fabric: &Fabric, dst: usize, frame: Frame) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let (mut batch, mut scratch) = (vec![WriterMsg::Frame(frame)], Vec::new());
        for (lane_idx, lane) in peer.lanes.iter().enumerate().skip(1) {
            if lane.alive.load(Ordering::Acquire)
                && self.put(fabric, dst, lane_idx, &mut batch, &mut scratch, None)
                    != Put::FailedOver
            {
                return;
            }
        }
        for msg in batch {
            self.enqueue_on(peer, 0, msg);
        }
    }

    /// Recover from a dead lane-0 socket with ONE bounded reconnect per
    /// peer for the transport's lifetime: re-run the pair rendezvous
    /// (Hello re-handshake included), swap the new endpoint into the
    /// lane's write handle, and tell the peer which stream bytes we
    /// already hold so it can detect unreplayable loss. The lane's
    /// threads race here; whoever arrives first performs the attempt,
    /// the others block on the slot and reuse the outcome. Returns a
    /// read handle on the new socket (a fresh socket starts at a frame
    /// boundary, so a mid-frame death resynchronizes naturally), or
    /// `None` when the peer is gone for good.
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
        // ORDERING: liveness timestamp read only by the heartbeat
        // monitor to estimate quiet time; a stale read just shifts the
        // estimate by one poll interval.
        peer.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
        peer.connected.store(true, Ordering::Release);
        *slot = Reconnected::Yes(ep);
        drop(slot);
        fabric.wire().resync_streams(fabric, peer_rank);
        Some(caller_ep)
    }

    /// The one way off a lane's socket: read one frame head (every one
    /// refreshes the peer's liveness timestamp and gets its audit
    /// stamp), then either land a pinned payload straight in its
    /// destination or read the body into the reusable `body` and
    /// dispatch the frame into the engine. `Ok(false)` is the peer's
    /// clean goodbye. `epoch`/`seq` are the calling reader's audit
    /// counters: `seq` counts every frame head read off this lane in
    /// order, `epoch` the lane-0 reconnect this reader lived through —
    /// reader-local (not the shared peer epoch) so frames still
    /// buffered in a dying socket keep their pre-reconnect epoch even
    /// if the writer side already reconnected.
    #[allow(clippy::too_many_arguments)] // the reader's whole state
    fn take(
        &self,
        fabric: &Fabric,
        peer_rank: usize,
        lane: usize,
        ep: &mut Endpoint,
        body: &mut Vec<u8>,
        epoch: u32,
        seq: &mut u32,
    ) -> io::Result<bool> {
        let (rest, op) = frame::read_head(ep)?;
        if let Some(peer) = &self.peers[peer_rank] {
            // ORDERING: liveness timestamp (see `recover_lane0`).
            peer.last_heard_ms.store(self.now_ms(), Ordering::Relaxed);
            // ORDERING: statistics counter (diagnostics only).
            peer.frames_received.fetch_add(1, Ordering::Relaxed);
        }
        let (p16, l16, op16, seq32) = (peer_rank as u16, lane as u16, op as u16, *seq);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyWireRecv {
                peer: p16,
                lane: l16,
                op: op16,
                epoch,
                seq: seq32,
            });
        *seq = seq.wrapping_add(1);
        if op == frame::op::PART_DATA || op == frame::op::RDV_DATA {
            take_pinned(fabric, peer_rank, lane, ep, op, rest).map(|()| true)
        } else {
            frame::read_rest(ep, op, rest, body)
                .map(|f| fabric.wire().dispatch(fabric, peer_rank, lane, f))
        }
    }
}

/// Fast path for an incoming `PartData` or `RdvData`: read the small
/// fixed header (stream or rendezvous id, plus the offset a `PartData`
/// names), then `read(2)` the payload straight off the socket into the
/// pinned destination — the kernel read is the only copy, mirroring the
/// writer's vectored send of the pinned source. A payload nobody waits
/// for (retired stream, unmatched id after a reconnect replay,
/// post-abort straggler) is drained through a fixed buffer so the byte
/// stream stays framed; its length is the peer's word and allocates
/// nothing.
fn take_pinned(
    fabric: &Fabric,
    peer: usize,
    lane: usize,
    ep: &mut Endpoint,
    op: u8,
    rest: usize,
) -> io::Result<()> {
    let is_part = op == frame::op::PART_DATA;
    let fixed = if is_part { 16 } else { 8 };
    let Some(len) = rest.checked_sub(fixed) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("net: truncated {} body ({rest} B)", frame::op::name(op)),
        ));
    };
    let mut hdr = [0u8; 16];
    ep.read_exact(&mut hdr[..fixed])?;
    let word = |at: usize| u64::from_le_bytes(std::array::from_fn(|i| hdr[at + i]));
    let (id, offset) = (word(0), word(8) as usize);
    let wire = fabric.wire();
    let fill = |dest: &mut [u8]| ep.read_exact(dest);
    let landed = if is_part {
        wire.land_part(fabric, peer, lane, id, offset, len, fill)?
    } else {
        wire.land_rdv(fabric, peer, id, 0, len, true, fill)?
    };
    if !landed && io::copy(&mut ep.take(len as u64), &mut io::sink())? < len as u64 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

impl Transport for SocketTransport {
    fn local_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    fn stream_aggr(&self) -> usize {
        pcomm_net::launch::DEFAULT_AGGR
    }

    /// Spawn the per-peer-per-lane reader and writer threads (plus the
    /// heartbeat monitor when enabled). Thread-spawn or socket-clone
    /// failure comes back as a typed error instead of a panic: resource
    /// exhaustion at launch is an environment problem, not a bug.
    fn start(self: Arc<Self>, fabric: &Arc<Fabric>) -> Result<(), PcommError> {
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
            // ORDERING: liveness timestamp (see `recover_lane0`); the
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
                // mutex and a writer thread draining the channel: app
                // threads always enqueue, reader threads `put` directly
                // under the same mutex (see `Lane::direct`).
                *lane.direct.lock() = Some(
                    lane.endpoint
                        .try_clone()
                        .map_err(|e| start_err("cloning the lane write handle", e))?,
                );
                let (t, f) = (Arc::clone(&self), Arc::clone(fabric));
                let writer = std::thread::Builder::new()
                    .name(format!("pcomm-wr{peer_rank}.{lane_idx}"))
                    .spawn(move || writer_loop(&t, rx, &f, peer_rank, lane_idx))
                    .map_err(|e| start_err("spawning a writer thread", e))?;
                *lane.writer.lock() = Some(writer);

                let ep = lane
                    .endpoint
                    .try_clone()
                    .map_err(|e| start_err("cloning the lane read handle", e))?;
                let (t, f) = (Arc::clone(&self), Arc::clone(fabric));
                let reader = std::thread::Builder::new()
                    .name(format!("pcomm-rd{peer_rank}.{lane_idx}"))
                    .spawn(move || reader_loop(&t, &f, peer_rank, lane_idx, ep))
                    .map_err(|e| start_err("spawning a reader thread", e))?;
                readers.push(reader);
            }
        }
        drop(readers);
        if self.hb_ms.is_some() {
            let t = Arc::clone(&self);
            let f = Arc::clone(fabric);
            let hb = std::thread::Builder::new()
                .name("pcomm-hb".into())
                .spawn(move || heartbeat_loop(t, f))
                .map_err(|e| start_err("spawning the heartbeat thread", e))?;
            *self.hb_thread.lock() = Some(hb);
        }
        Ok(())
    }

    fn send(&self, _: &Fabric, dst: usize, frame: Frame, _teardown: bool) {
        // Enqueueing never blocks and the writers keep draining control
        // frames through an abort, so teardown traffic needs nothing
        // extra here.
        self.send_frame(dst, frame);
    }

    fn ship_rdv(&self, _: &Fabric, dst: usize, rdv_id: u64, pinned: PinnedSend) {
        // Zero-copy: the pinned source rides to the lane-0 writer, whose
        // `put` fires its `done` after the vectored write, so the buffer
        // stays pinned through the kernel handoff (invariant (1)). If
        // the writer is already gone the universe is tearing down and
        // the sender unwinds via the abort flag.
        if let Some(p) = &self.peers[dst] {
            let _ = p.lanes[0].enqueue(WriterMsg::Pinned(PinnedWrite::rdv(rdv_id, pinned)));
        }
    }

    fn ship_part_cts(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        _base: *const u8,
        _total_len: usize,
        caller: Caller,
    ) {
        // From a reader thread, prefer a direct data-lane write for the
        // CTS: the sender's data-lane reader then dispatches the queued
        // chunks from its own thread, so the whole release chain costs
        // no writer-thread wakeups. The CTS orders against nothing on
        // the ordered lane — the sender just needs it as fast as
        // possible. From an app thread, enqueue instead of blocking.
        match caller {
            Caller::Progress => self.send_data_frame(fabric, src, Frame::PartCts { rdv_id }),
            Caller::App => self.send_frame(src, Frame::PartCts { rdv_id }),
        }
    }

    fn ship_chunks(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        _grant: Option<u64>,
        spans: &Arc<Vec<SendSpan>>,
        chunks: &[PinChunk],
        caller: Caller,
    ) {
        self.dispatch_chunks(fabric, dst, rdv_id, spans, chunks, caller);
    }

    fn epoch(&self, peer: usize) -> u32 {
        self.peers[peer]
            .as_ref()
            .map_or(0, |p| p.epoch.load(Ordering::Acquire))
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
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
                    pending_rdv: 0,
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
    /// Flush `Bye` on every lane, join the writers, and join the
    /// readers (each exits on its peer's `Bye`). Aborted runs
    /// `shutdown(2)` the sockets so blocked readers return.
    fn close(&self, fabric: &Fabric) {
        // Liveness held through the closing barrier (a dead peer there
        // must still escalate); from here on silence is expected.
        self.hb_stop.store(true, Ordering::Release);
        if let Some(hb) = self.hb_thread.lock().take() {
            let _ = hb.join();
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

/// Writer thread: drain up to [`WRITER_BATCH`] messages from the
/// channel and [`put`](SocketTransport::put) them, until the teardown
/// `Shutdown`. Once a `put` has failed the thread stays alive so
/// senders keep enqueueing into a live channel: behind a failed-over
/// data lane it keeps re-routing late pinned writes to the survivors,
/// behind a dead peer it discards the rest of the queue so enqueuers
/// never notice.
fn writer_loop(
    transport: &SocketTransport,
    rx: Receiver<WriterMsg>,
    fabric: &Fabric,
    peer_rank: usize,
    lane_idx: usize,
) {
    let peer = transport.peers[peer_rank]
        .as_ref()
        // PANIC: writer threads are spawned (in `start`) only for
        // ranks whose peer slot was populated by the mesh join.
        .expect("writer thread for a missing peer");
    let lane = &peer.lanes[lane_idx];
    let mut inbox = Inbox { rx, open: true };
    let mut scratch: Vec<Vec<u8>> = Vec::new();
    let mut batch: Vec<WriterMsg> = Vec::with_capacity(WRITER_BATCH);
    let mut queue_hwm = QUEUE_HWM_BASE;
    let mut fate = Put::Sent;
    while inbox.open {
        batch.clear();
        inbox.drain(lane, &mut batch, WRITER_BATCH, true);
        match fate {
            Put::Sent => {
                // Unbounded channels cannot push back, so depth growth
                // is the congestion signal: trace it at doubling
                // high-water marks.
                // ORDERING: advisory backlog gauge (see `Lane::enqueue`).
                let depth = lane.queued.load(Ordering::Relaxed);
                if depth >= queue_hwm {
                    let (p16, l16, d64) = (peer_rank as u16, lane_idx as u16, depth as u64);
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
                fate = transport.put(
                    fabric,
                    peer_rank,
                    lane_idx,
                    &mut batch,
                    &mut scratch,
                    Some(&mut inbox),
                );
            }
            Put::FailedOver => {
                transport.requeue_pinned(peer, &mut batch);
            }
            Put::Dead => {}
        }
    }
}

/// Reader thread: [`take`](SocketTransport::take) frames off the lane
/// until the peer says `Bye`, the connection drops past recovery, or
/// the universe aborts. After a lane-0 reconnect it continues on the
/// new socket.
fn reader_loop(
    transport: &SocketTransport,
    fabric: &Fabric,
    peer: usize,
    lane: usize,
    mut ep: Endpoint,
) {
    let mut body: Vec<u8> = Vec::new();
    let mut recovered = false;
    let (mut rx_epoch, mut rx_seq) = (0u32, 0u32);
    loop {
        match transport.take(
            fabric,
            peer,
            lane,
            &mut ep,
            &mut body,
            rx_epoch,
            &mut rx_seq,
        ) {
            Ok(true) => {}
            Ok(false) => {
                if let Some(p) = &transport.peers[peer] {
                    p.saw_bye.store(true, Ordering::Release);
                }
                return; // clean goodbye
            }
            Err(err) => match transport.lane_failed(fabric, peer, lane, !recovered, &err) {
                Fate::Reconnected(new_ep) => {
                    (ep, recovered) = (new_ep, true);
                    rx_epoch += 1;
                }
                Fate::FailedOver | Fate::Dead => return,
            },
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

    fn ship_rdv(&self, _: &Fabric, _: usize, _: u64, _: PinnedSend) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn ship_part_cts(&self, _: &Fabric, _: usize, _: u64, _: *const u8, _: usize, _: Caller) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn ship_chunks(
        &self,
        _: &Fabric,
        _: usize,
        _: u64,
        _: Option<u64>,
        _: &Arc<Vec<SendSpan>>,
        _: &[PinChunk],
        _: Caller,
    ) {
        unreachable!("shared-memory fabric never routes through the wire")
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
        Vec::new()
    }

    fn close(&self, _: &Fabric) {}
}

#[cfg(test)]
mod tests {
    use super::*;

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

    use pcomm_trace::Trace;
    use std::os::unix::net::UnixStream;

    /// Rank 0's socket carrier toward a peer rank 1 that is the far
    /// ends of `lanes` socketpairs, armed as `start` arms it but with
    /// no threads: each test is the only caller of `put` and `take`.
    fn carrier(lanes: usize, trace: Trace) -> (Arc<Fabric>, Arc<SocketTransport>, Vec<UnixStream>) {
        let (near, far): (Vec<_>, Vec<_>) = (0..lanes)
            .map(|_| UnixStream::pair().unwrap())
            .map(|(a, b)| (Endpoint::Uds(a), b))
            .unzip();
        let cfg = MeshConfig {
            rank: 0,
            n_ranks: 2,
            dir: std::env::temp_dir(),
            backend: pcomm_net::Backend::Uds,
            seq: 0,
            lanes,
        };
        let mesh = Mesh {
            rank: 0,
            n_ranks: 2,
            lanes,
            peers: vec![None, Some(near)],
        };
        let transport = Arc::new(SocketTransport::new(mesh, cfg, None));
        for lane in &peer_of(&transport).lanes {
            *lane.direct.lock() = Some(lane.endpoint.try_clone().unwrap());
        }
        let carrier = Arc::clone(&transport) as Arc<dyn Transport>;
        let fabric = Fabric::new_configured(2, 1, 1024, trace, None, carrier);
        (fabric, transport, far)
    }

    fn peer_of(transport: &SocketTransport) -> &Peer {
        transport.peers[1].as_ref().unwrap()
    }

    /// The writer thread's end of `lane`'s channel, holding what was
    /// enqueued so far.
    fn inbox_of(transport: &SocketTransport, lane: usize) -> Inbox {
        let rx = peer_of(transport).lanes[lane].rx.lock().take().unwrap();
        Inbox { rx, open: true }
    }

    fn queued_on(transport: &SocketTransport, lane: usize) -> Vec<WriterMsg> {
        let mut batch = Vec::new();
        let lane_ref = &peer_of(transport).lanes[lane];
        inbox_of(transport, lane).drain(lane_ref, &mut batch, usize::MAX, false);
        batch
    }

    /// One send span over all of `buf`, and pinned stream writes of
    /// stream 7 cutting it into `n` equal ranges.
    fn stream_writes(buf: &[u8], n: usize) -> (Arc<Vec<SendSpan>>, Vec<WriterMsg>) {
        let spans = Arc::new(vec![SendSpan {
            offset: 0,
            len: buf.len(),
            remaining: AtomicUsize::new(buf.len()),
            done: Completion::new(),
        }]);
        let len = buf.len() / n;
        let writes = (0..n)
            .map(|i| PinChunk {
                offset: (i * len) as u64,
                ptr: buf[i * len..].as_ptr(),
                len,
                parts: 1,
            })
            .map(|chunk| WriterMsg::Pinned(PinnedWrite::stream(7, chunk, &spans)))
            .collect();
        (spans, writes)
    }

    fn events_named(fabric: &Fabric, name: &str) -> Vec<EventKind> {
        let events = fabric.trace().snapshot().unwrap().events;
        let kinds = events.into_iter().map(|e| e.kind);
        kinds.filter(|k| k.name() == name).collect()
    }

    #[test]
    fn a_mixed_batch_leaves_as_the_bytes_of_its_owned_frames() {
        let (fabric, transport, mut far) = carrier(1, Trace::disabled());
        let eager = Frame::Eager {
            shard: 0,
            ctx: 3,
            tag: -4,
            payload: vec![1, 2, 3],
        };
        let source: Vec<u8> = (0..=255).collect();
        let (spans, mut writes) = stream_writes(&source[..200], 1);
        let done = Completion::new();
        let pinned = PinnedSend {
            ptr: source[200..].as_ptr(),
            len: 56,
            done: Arc::clone(&done),
        };
        let mut batch = vec![
            WriterMsg::Frame(eager.clone()),
            writes.remove(0),
            WriterMsg::Pinned(PinnedWrite::rdv(9, pinned)),
        ];
        assert!(!spans[0].done.is_set() && !done.is_set());
        let put = transport.put(&fabric, 1, 0, &mut batch, &mut Vec::new(), None);
        assert_eq!(put, Put::Sent);
        assert!(batch.is_empty());
        assert!(spans[0].done.is_set() && done.is_set());
        assert_eq!(spans[0].remaining.load(Ordering::Acquire), 0);
        assert_eq!(peer_of(&transport).frames_sent.load(Ordering::Acquire), 3);
        let mut want = eager.encode();
        want.extend(
            Frame::PartData {
                rdv_id: 7,
                offset: 0,
                payload: source[..200].to_vec(),
            }
            .encode(),
        );
        want.extend(
            Frame::RdvData {
                rdv_id: 9,
                payload: source[200..].to_vec(),
            }
            .encode(),
        );
        drop((fabric, transport));
        let mut got = Vec::new();
        far[0].read_to_end(&mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn wire_send_seq_is_wire_order_when_writer_and_direct_puts_interleave() {
        let (fabric, transport, mut far) = carrier(2, Trace::ring_verify(4096));
        const ROUNDS: u64 = 50;
        std::thread::scope(|s| {
            // The lane's writer thread: batches of three heartbeats.
            s.spawn(|| {
                let mut inbox = inbox_of(&transport, 1);
                let (mut batch, mut scratch) = (Vec::new(), Vec::new());
                for seq in 0..ROUNDS {
                    batch.extend((0..3).map(|_| WriterMsg::Frame(Frame::Heartbeat { seq })));
                    let put =
                        transport.put(&fabric, 1, 1, &mut batch, &mut scratch, Some(&mut inbox));
                    assert_eq!(put, Put::Sent);
                }
            });
            // A reader thread mid-dispatch: one CTS at a time, directly.
            s.spawn(|| {
                for rdv_id in 0..ROUNDS {
                    transport.send_data_frame(&fabric, 1, Frame::PartCts { rdv_id });
                }
            });
        });
        let mut sends: Vec<(u32, u16)> = events_named(&fabric, "verify_wire_send")
            .into_iter()
            .map(|kind| match kind {
                EventKind::VerifyWireSend {
                    lane: 1, op, seq, ..
                } => (seq, op),
                other => panic!("unexpected stamp {other:?}"),
            })
            .collect();
        sends.sort_unstable();
        let seqs: Vec<u32> = sends.iter().map(|&(seq, _)| seq).collect();
        assert_eq!(seqs, (0..4 * ROUNDS as u32).collect::<Vec<_>>());
        drop((fabric, transport));
        let on_wire: Vec<u16> = std::iter::from_fn(|| Frame::read_from(&mut far[1]).ok())
            .map(|f| f.op() as u16)
            .collect();
        let stamped: Vec<u16> = sends.iter().map(|&(_, op)| op).collect();
        assert_eq!(stamped, on_wire, "seq order is not wire order");
    }

    #[test]
    fn a_dead_data_lane_fails_its_batch_and_backlog_over_once() {
        let (fabric, transport, mut far) = carrier(3, Trace::ring(256));
        drop(far.remove(2));
        let source = vec![0x5Au8; 4096];
        let (spans, mut writes) = stream_writes(&source, 4);
        let lane2 = &peer_of(&transport).lanes[2];
        for msg in writes.split_off(2) {
            assert!(lane2.enqueue(msg).is_ok());
        }
        assert!(lane2.enqueue(WriterMsg::Shutdown).is_ok());
        let mut inbox = inbox_of(&transport, 2);
        writes.push(WriterMsg::Frame(Frame::Bye));
        let put = transport.put(
            &fabric,
            1,
            2,
            &mut writes,
            &mut Vec::new(),
            Some(&mut inbox),
        );
        assert_eq!(put, Put::FailedOver);
        assert!(!inbox.open, "the backlog's Shutdown was consumed");
        assert!(matches!(writes[..], [WriterMsg::Frame(Frame::Bye)]));
        // A straggler behind the failure, and the lane's reader noticing
        // the same death, change nothing.
        let (_, mut late) = stream_writes(&source, 1);
        assert_eq!(
            transport.put(&fabric, 1, 2, &mut late, &mut Vec::new(), None),
            Put::FailedOver
        );
        let eof = io::Error::from(io::ErrorKind::UnexpectedEof);
        let fate = transport.lane_failed(&fabric, 1, 2, true, &eof);
        assert!(matches!(fate, Fate::FailedOver));
        assert!(!lane2.alive.load(Ordering::Acquire));
        assert_eq!(
            events_named(&fabric, "lane_down"),
            [EventKind::LaneDown { peer: 1, lane: 2 }]
        );
        let failover = |requeued| EventKind::LaneFailover {
            peer: 1,
            lane: 2,
            requeued,
        };
        assert_eq!(
            events_named(&fabric, "lane_failover"),
            [failover(4), failover(1)]
        );
        // Everything pinned moved to the one surviving data lane, whole
        // and uncompleted; lane 0 got nothing.
        let moved = queued_on(&transport, 1);
        assert_eq!(moved.len(), 5);
        assert!(moved.iter().all(|m| matches!(m, WriterMsg::Pinned(_))));
        assert!(queued_on(&transport, 0).is_empty());
        assert!(!spans[0].done.is_set());
        assert_eq!(spans[0].remaining.load(Ordering::Acquire), source.len());
        assert_eq!(peer_of(&transport).frames_sent.load(Ordering::Acquire), 0);
        assert!(!fabric.aborted(), "a data lane's death is not the peer's");
    }

    #[test]
    fn a_direct_control_frame_falls_through_dead_data_lanes_to_lane_0() {
        let (fabric, transport, mut far) = carrier(3, Trace::ring(64));
        let cts = |rdv_id| Frame::PartCts { rdv_id };
        drop(far.remove(1));
        transport.send_data_frame(&fabric, 1, cts(5));
        let mut lane2_far = far.remove(1);
        assert_eq!(Frame::read_from(&mut lane2_far).unwrap(), cts(5));
        drop(lane2_far);
        transport.send_data_frame(&fabric, 1, cts(6));
        let peer = peer_of(&transport);
        assert!(peer.lanes[1..]
            .iter()
            .all(|l| !l.alive.load(Ordering::Acquire)));
        assert_eq!(events_named(&fabric, "lane_down").len(), 2);
        // Lane 0 is the ordered lane: the frame is enqueued for its
        // writer, never written past it.
        match &queued_on(&transport, 0)[..] {
            [WriterMsg::Frame(f)] => assert_eq!(*f, cts(6)),
            _ => panic!("the CTS did not reach lane 0's writer"),
        }
        assert_eq!(peer.frames_sent.load(Ordering::Acquire), 1);
        assert!(!fabric.aborted());
    }

    /// `take` one frame whose head claims `claimed` body bytes for `op`,
    /// followed by `fixed` and then EOF; returns the error and the
    /// capacity the reusable body buffer was left with.
    fn take_lying_head(op: u8, claimed: u32, fixed: &[u8]) -> (io::Error, usize) {
        let (fabric, transport, mut far) = carrier(1, Trace::disabled());
        let mut head = claimed.to_le_bytes().to_vec();
        head.extend([frame::WIRE_VERSION, op]);
        head.extend(fixed);
        far[0].write_all(&head).unwrap();
        drop(far);
        let mut ep = peer_of(&transport).lanes[0].endpoint.try_clone().unwrap();
        let mut body = Vec::new();
        let err = transport
            .take(&fabric, 1, 0, &mut ep, &mut body, 0, &mut 0)
            .unwrap_err();
        assert!(!fabric.aborted());
        (err, body.capacity())
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
        let (err, _) = take_lying_head(frame::op::RDV_DATA, 6, &[0; 4]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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
}
