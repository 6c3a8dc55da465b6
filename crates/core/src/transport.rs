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
//! Both ends of a partitioned stream are zero-copy: writers put ranges
//! on the wire with a vectored write straight out of the pinned source,
//! and readers `read(2)` each range straight *into* the pinned
//! destination ([`WireProtocol::land_part`](crate::wire::WireProtocol::land_part))
//! — the only copies are the kernel's socket transfers. CTS-released
//! rendezvous payloads travel the same way.
//!
//! Per peer, per lane: one **writer** thread owning that lane's write
//! half and an unbounded channel (senders only enqueue — a send can
//! never block on a remote process, so there is no distributed
//! write-write deadlock), and one **reader** thread owning the read
//! half, dispatching frames into the engine. Lane 0 carries all
//! ordered traffic (eager, rendezvous control, barriers, RMA, abort,
//! `Bye`); lanes `1..N` (`PCOMM_NET_LANES`) carry only the
//! order-independent `PartData` ranges, round-robined so a large
//! partition stream cannot head-of-line-block small eager traffic.
//! Writers drain their channel in batches and put each batch on the
//! wire with one vectored write. Abort tears everything down: the
//! engine broadcasts an `Abort` frame, then `shutdown(2)` unblocks this
//! process's own readers.

use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame, MAX_FRAME_BODY};
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
    /// `dst`, round-robined over the data lanes. `caller` picks the
    /// write discipline: reader threads (CTS release) write each lane's
    /// share directly as one vectored batch (headers from the stack,
    /// payloads straight from the pinned source — no thread hop); app
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
        let stream_write = |chunk: PinChunk| StreamWrite {
            rdv_id,
            offset: chunk.offset,
            ptr: chunk.ptr,
            len: chunk.len,
            spans: Arc::clone(spans),
        };
        let n_lanes = peer.lanes.len();
        let mut buckets: Vec<Vec<PinChunk>> = (0..n_lanes).map(|_| Vec::new()).collect();
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
            buckets[lane].push(chunk);
        }
        if caller == Caller::App {
            for (lane_idx, bucket) in buckets.into_iter().enumerate() {
                for chunk in bucket {
                    if let Err(WriterMsg::Stream(sw)) =
                        peer.lanes[lane_idx].enqueue(WriterMsg::Stream(stream_write(chunk)))
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
                    if let Err(WriterMsg::Stream(sw)) =
                        lane.enqueue(WriterMsg::Stream(stream_write(chunk)))
                    {
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
                    // For lane 0 (single-lane meshes) this re-enqueues to
                    // the lane-0 writer, whose own error path performs
                    // the bounded reconnect-and-retry.
                    self.requeue_stream(dst, stream_write(chunk));
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
        fabric.wire().resync_streams(fabric, peer_rank);
        Some(caller_ep)
    }
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
                let t = Arc::clone(&self);
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
                let t = Arc::clone(&self);
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
        // Zero-copy: the pinned source rides to the lane-0 writer as an
        // `RdvWrite`; its `done` fires there, after the vectored write,
        // so the buffer stays pinned through the kernel handoff
        // (invariant (1)). If the writer is already gone the universe is
        // tearing down and the sender unwinds via the abort flag.
        if let Some(p) = &self.peers[dst] {
            let _ = p.lanes[0].enqueue(WriterMsg::Rdv(RdvWrite { rdv_id, pinned }));
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
    let wire = fabric.wire();
    if !wire.land_part(fabric, peer, lane, rdv_id, offset, len, |dest| {
        ep.read_exact(dest)
    })? {
        scratch.clear();
        scratch.resize(len, 0);
        ep.read_exact(scratch)?;
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
    let wire = fabric.wire();
    if !wire.land_rdv(fabric, peer, rdv_id, 0, len, true, |dest| {
        ep.read_exact(dest)
    })? {
        scratch.clear();
        scratch.resize(len, 0);
        ep.read_exact(scratch)?;
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
            read_part_data(&fabric, peer, lane, &mut ep, len, &mut body).map(|()| true)
        } else if op == frame::op::RDV_DATA {
            read_rdv_data(&fabric, peer, &mut ep, len, &mut body).map(|()| true)
        } else {
            body.clear();
            body.resize(len, 0);
            // `read_head` already validated the wire's version byte;
            // rebuild the two head bytes `Frame::decode` expects.
            body[0] = frame::WIRE_VERSION;
            body[1] = op;
            ep.read_exact(&mut body[2..])
                .and_then(|()| Frame::decode(&body))
                .map(|f| fabric.wire().dispatch(&fabric, peer, lane, f))
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
