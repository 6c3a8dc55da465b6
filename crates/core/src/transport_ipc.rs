//! `IpcTransport`: the same-host zero-syscall fabric. Ranks map one
//! shared memory segment (memfd + `MAP_SHARED`, see
//! [`pcomm_net::ipc`]) holding, per directed pair, an SPSC descriptor
//! ring plus a FIFO slab and a partition arena. Small frames ride
//! inline in ring slots (bcopy); large rendezvous payloads stream
//! through the slab; partitioned streams whose destination lives in
//! the arena commit with **no copy at all** — every `pready` lands its
//! bytes directly in receiver-visible memory and publishes a
//! payload-less `K_PART` descriptor, so `parrived` flips without a
//! reader-thread hop.
//!
//! Wakeups are futex doorbells ([`pcomm_net::ipc::doorbell`]): the
//! steady state is zero syscalls per transfer (spin-then-futex on both
//! the producer's backpressure path and the consumer's idle path).
//!
//! Progress discipline: there are no reader/writer threads. The app
//! thread makes progress inline from [`Transport::wait_slice`], and a
//! single low-duty "pcomm-ipc" thread per process backstops
//! completions nobody is actively waiting on and runs the heartbeat
//! monitor (peer death becomes a typed [`PcommError::PeerPanicked`]
//! instead of a hang). The two share the rank's inbound doorbell
//! through a [`Handoff`]: while an app thread polls, the progress
//! thread's park is not counted in `sleepers`, so a peer's push costs
//! no `FUTEX_WAKE`; the last poller out hands the doorbell back.
//!
//! Verify/audit semantics mirror the socket transport exactly — same
//! `VerifyWire*`/`VerifyStream*` events, with the ipc simplifications
//! `lane == 0` and `epoch == 0` everywhere (the segment never
//! reconnects, so there is a single always-epoch-0 lane per pair).

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame};
use pcomm_net::ipc::doorbell::Handoff;
use pcomm_net::ipc::ring::{
    Channel, SlotDesc, INLINE_MAX, K_FRAME, K_PART, K_PARTF, K_PART_CTS, K_RDV, K_SLAB,
};
use pcomm_net::ipc::slab::ArenaAlloc;
use pcomm_net::ipc::{self, IpcParams, Segment};
use pcomm_net::{sys, Mesh};
use pcomm_trace::EventKind;

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, PostedRecv, WAIT_SLICE};
use crate::sync::{Completion, Mutex};
use crate::transport::{
    claim_range, complete_spans, decode_abort, encode_abort, PartPair, PartStreamRecv, PinnedSend,
    SendSpan, StreamRecv, Transport, FINALIZE_TIMEOUT, TEARDOWN_SLICE,
};

/// How long `wait_slice` spins making inline progress before parking on
/// the completion. Long enough to cover a same-host round trip (the
/// latency-critical window), short enough not to burn a core when the
/// peer is genuinely slow.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// `spin_loop` hints between two polls of an idle ring, before the
/// `yield_now` (which stays: on a 1-CPU host the peer needs the core).
/// Enough that an idle poller stops hammering the producer's head line
/// and `sched_yield`; few enough that a record is seen within ~100 ns.
const POLL_PAUSES: u32 = 8;

/// Futex timeout for one backpressure wait on a full ring, ns. Short:
/// a stuck consumer is re-checked often enough that abort flags and
/// deadlines stay responsive.
const PUSH_SLICE_NS: u64 = 200_000;

/// Default heartbeat publish period when `PCOMM_NET_HB_MS` is unset.
/// A peer is declared dead after 7/4 of this with no counter movement.
const DEFAULT_HB_MS: u64 = 500;

/// Hard bound on force-pushes during teardown (abort broadcast, `Bye`):
/// past this the peer is not draining and the record is dropped — the
/// heartbeat monitor or the universe watchdog carries the diagnosis.
const TEARDOWN_PUSH_BUDGET: Duration = Duration::from_secs(1);

/// Per-peer shared-memory channel pair plus this process's send/recv
/// bookkeeping for the peer.
struct IpcPeer {
    /// Producer side of `channel(rank, peer)`. The mutex serialises
    /// producers (app threads and the progress thread both push).
    out: Mutex<Channel>,
    /// Unlocked copy of `out` for lock-free doorbell/arena reads.
    out_ch: Channel,
    /// Consumer side of `channel(peer, rank)`; `try_lock` elects one
    /// drainer at a time (app threads race the progress thread).
    inb: Mutex<Channel>,
    /// Unlocked copy of `inb` for lock-free doorbell/arena reads.
    inb_ch: Channel,
    /// Verify-mode send sequence (serialised by the `out` mutex).
    tx_seq: AtomicU32,
    /// Verify-mode receive sequence (serialised by the `inb` drainer).
    rx_seq: AtomicU32,
    /// Descriptors published toward this peer (diagnostics).
    frames_sent: AtomicU64,
    /// Descriptors drained from this peer (diagnostics).
    frames_received: AtomicU64,
    /// The peer's `Bye` arrived; its heartbeat may legitimately stop.
    saw_bye: AtomicBool,
    /// Last observed heartbeat value and when it last changed.
    hb_seen: Mutex<Option<(u64, Instant)>>,
    /// Allocator over the *inbound* channel's partition arena: grants
    /// receiver-side destinations for streams arriving from this peer.
    arena: Mutex<ArenaAlloc>,
}

/// A parked remote rendezvous receive: the posted destination plus the
/// envelope to publish once every `K_RDV` chunk has landed.
struct RdvIn {
    posted: PostedRecv,
    shard: usize,
    tag: i64,
    rts_ns: Option<u64>,
    /// Bytes landed so far (chunks arrive in order on the SPSC ring).
    received: usize,
}

/// A pinned rendezvous source waiting for its CTS.
struct PendingRdvIpc {
    pinned: PinnedSend,
    dst: usize,
}

/// One pushed range queued while the stream's `K_PART_CTS` is still in
/// flight.
struct QueuedRange {
    offset: u64,
    ptr: *const u8,
    len: usize,
    parts: u16,
}

// SAFETY: the pointed-to source buffer stays alive and unmodified until
// the covering spans' `done` completions fire (fabric invariant (1)),
// and only the thread that ships the range reads through the pointer.
unsafe impl Send for QueuedRange {}

/// Sender-side state of one partitioned stream.
struct IpcStreamSend {
    dst: usize,
    total_len: usize,
    /// Bytes pushed so far; the entry retires at `total_len` once the
    /// CTS has also arrived.
    pushed: usize,
    /// `None` until the `K_PART_CTS` arrives; then the receiver's arena
    /// grant (`Some(offset)`) or `None` for the FIFO-copy fallback.
    cts: Option<Option<u64>>,
    queued: Vec<QueuedRange>,
    spans: Arc<Vec<SendSpan>>,
}

/// Payload placement for one pushed record.
enum Body<'a> {
    /// Copied into the ring slot (`len <= INLINE_MAX`).
    Inline(&'a [u8]),
    /// Copied into the FIFO slab (anything larger, up to `fifo_bytes`).
    Slab(&'a [u8]),
}

/// A drained record whose handler may *push* (CTS answers, barrier
/// releases, get responses). Dispatching those while holding the
/// inbound guard — with the popped slot not yet recycled — can
/// deadlock two ranks symmetrically: both blocked pushing into full
/// rings, both drain passes skipping the channel they hold. So pushy
/// records are deferred until the guard drops and the slot is free;
/// everything else dispatches inline (zero extra copies).
enum Deferred {
    Frame(Frame),
    PartCts { rdv_id: u64, grant: Option<u64> },
}

/// The shared-memory transport for one rank of a same-host run.
pub(crate) struct IpcTransport {
    rank: usize,
    n_ranks: usize,
    segment: Segment,
    /// FIFO slab capacity per channel (caps one frame's body).
    fifo_bytes: u64,
    /// Chunk size for slab-staged bulk transfers (`K_RDV`/`K_PARTF`).
    rdv_chunk: usize,
    peers: Vec<Option<IpcPeer>>,
    /// Back-reference for trait methods that lack a `fabric` parameter
    /// (set by `start`; `Weak` breaks the `Fabric → Transport` cycle).
    fabric_slot: OnceLock<Weak<Fabric>>,
    next_rdv_id: AtomicU64,
    pending_rdv: Mutex<HashMap<u64, PendingRdvIpc>>,
    rdv_in: Mutex<HashMap<(usize, u64), RdvIn>>,
    streams_out: Mutex<HashMap<u64, IpcStreamSend>>,
    part_registry: Mutex<HashMap<(usize, u64), PartPair>>,
    streams_in: Mutex<HashMap<(usize, u64), Arc<StreamRecv>>>,
    barrier_gen: AtomicU64,
    arrivals: Mutex<HashMap<u64, HashSet<usize>>>,
    releases: Mutex<HashMap<u64, Arc<Completion>>>,
    #[allow(clippy::type_complexity)] // announce slot pair, as in the socket transport
    win_slots: Mutex<HashMap<u64, (Arc<Completion>, Option<usize>)>>,
    next_get_token: AtomicU64,
    #[allow(clippy::type_complexity)] // waiter pair, as in the socket transport
    get_waiters: Mutex<HashMap<u64, (Arc<Completion>, Arc<Mutex<Option<Vec<u8>>>>)>>,
    abort_sent: AtomicBool,
    progress: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
    /// Heartbeat publish period, ms.
    hb_ms: u64,
    /// Who owns this rank's inbound doorbell right now: polling app
    /// threads or the parked progress thread.
    handoff: Handoff,
    /// Peer doorbells rung by this rank (one per published record).
    doorbell_rings: AtomicU64,
    /// Of those, how many found a counted sleeper and paid `FUTEX_WAKE`.
    doorbell_wakes: AtomicU64,
    /// Progress-thread parks counted in `sleepers` (no poller active).
    progress_parks_counted: AtomicU64,
    /// Progress-thread parks taken over by a polling app thread.
    progress_parks_uncounted: AtomicU64,
}

impl IpcTransport {
    pub(crate) fn new(segment: Segment, rank: usize, n_ranks: usize) -> Arc<IpcTransport> {
        let params = *segment.params();
        let mut peers = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            if r == rank {
                peers.push(None);
                continue;
            }
            let out_ch = segment.channel(rank, r);
            let inb_ch = segment.channel(r, rank);
            peers.push(Some(IpcPeer {
                out: Mutex::new(out_ch),
                out_ch,
                inb: Mutex::new(inb_ch),
                inb_ch,
                tx_seq: AtomicU32::new(0),
                rx_seq: AtomicU32::new(0),
                frames_sent: AtomicU64::new(0),
                frames_received: AtomicU64::new(0),
                saw_bye: AtomicBool::new(false),
                hb_seen: Mutex::new(None),
                arena: Mutex::new(ArenaAlloc::new(params.arena_bytes)),
            }));
        }
        let fifo_bytes = params.fifo_bytes;
        Arc::new(IpcTransport {
            rank,
            n_ranks,
            segment,
            fifo_bytes,
            rdv_chunk: ((fifo_bytes / 2).max(1) as usize).min(256 << 10),
            peers,
            fabric_slot: OnceLock::new(),
            next_rdv_id: AtomicU64::new(1),
            pending_rdv: Mutex::new(HashMap::new()),
            rdv_in: Mutex::new(HashMap::new()),
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
            progress: Mutex::new(None),
            stop: AtomicBool::new(false),
            hb_ms: pcomm_net::launch::hb_ms_from_env().unwrap_or(DEFAULT_HB_MS),
            handoff: Handoff::new(),
            doorbell_rings: AtomicU64::new(0),
            doorbell_wakes: AtomicU64::new(0),
            progress_parks_counted: AtomicU64::new(0),
            progress_parks_uncounted: AtomicU64::new(0),
        })
    }

    /// The fabric this transport serves, if it is still alive (trait
    /// methods without a `fabric` parameter route through here; during
    /// teardown the weak can be gone, and the op is dropped).
    fn fabric(&self) -> Option<Arc<Fabric>> {
        self.fabric_slot.get()?.upgrade()
    }

    /// Spawn the progress/heartbeat thread and publish the fabric
    /// back-reference. Mirrors `SocketTransport::start`.
    pub(crate) fn start(self: &Arc<IpcTransport>, fabric: &Arc<Fabric>) -> Result<(), PcommError> {
        let _ = self.fabric_slot.set(Arc::downgrade(fabric));
        // ORDERING: liveness counter only; peers poll for movement.
        self.segment
            .heartbeat(self.rank)
            .fetch_add(1, Ordering::Relaxed);
        let me = Arc::clone(self);
        let fab = Arc::clone(fabric);
        let handle = std::thread::Builder::new()
            .name("pcomm-ipc".into())
            .spawn(move || me.progress_loop(&fab))
            .map_err(|e| PcommError::Misuse {
                rank: Some(self.rank),
                detail: format!("transport start: spawning ipc progress thread: {e}"),
            })?;
        *self.progress.lock() = Some(handle);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Producer side: publishing records with backpressure.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Publish one record toward `dst`, blocking on the peer's space
    /// doorbell while the ring (or FIFO) is full. Returns `false` when
    /// the push was abandoned: the run aborted (unless `force`), the
    /// transport is stopping, or `deadline` passed. The doorbell seq is
    /// snapshotted *before* each push attempt, so a consumer pop
    /// between the failed attempt and the wait rings a bell the wait
    /// observes — no lost wakeup.
    #[allow(clippy::too_many_arguments)] // one per wire-record field
    fn push_record(
        &self,
        fabric: &Fabric,
        dst: usize,
        op: u8,
        desc: SlotDesc,
        body: Body<'_>,
        deadline: Option<Instant>,
        force: bool,
    ) -> bool {
        let Some(peer) = &self.peers[dst] else {
            return false;
        };
        let mut waited_since: Option<Instant> = None;
        loop {
            let seen = peer.out_ch.space_doorbell().seq();
            let pushed = {
                let out = peer.out.lock();
                // Stamped *before* the publish: a polling consumer pops
                // (and stamps its recv) within nanoseconds of it, and
                // the auditor's clock alignment needs send <= recv.
                let trace = fabric.trace();
                let t_send = trace.verify_now_ns();
                let ok = match body {
                    Body::Inline(p) => out.try_push(desc, p).is_ok(),
                    Body::Slab(p) => out.try_push_slab(desc, &[p]).is_ok(),
                };
                if ok {
                    trace.emit_span(t_send, self.rank as u16, |at, _| {
                        // ORDERING: Relaxed suffices — the `out` mutex
                        // already serialises every producer on this
                        // counter (same argument as the socket lanes).
                        let seq = peer.tx_seq.fetch_add(1, Ordering::Relaxed);
                        EventKind::VerifyWireSend {
                            peer: dst as u16,
                            lane: 0,
                            op: op as u16,
                            epoch: 0,
                            seq,
                        }
                        .at(at)
                    });
                }
                ok
            };
            if pushed {
                // ORDERING: advisory stat for diagnostics snapshots.
                peer.frames_sent.fetch_add(1, Ordering::Relaxed);
                // ORDERING: always-on diagnostics tallies, read racily.
                self.doorbell_rings.fetch_add(1, Ordering::Relaxed);
                if self.segment.doorbell(dst).ring().unwrap_or(false) {
                    // ORDERING: as `doorbell_rings`.
                    self.doorbell_wakes.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(since) = waited_since {
                    let (p16, kind) = (dst as u16, desc.kind);
                    let wait_ns = since.elapsed().as_nanos() as u64;
                    fabric
                        .trace()
                        .emit(self.rank as u16, || EventKind::IpcRingFull {
                            peer: p16,
                            kind,
                            wait_ns,
                        });
                }
                return true;
            }
            // Ring full: pure backpressure. Never drop; keep our own
            // inbound draining (the peer may be blocked pushing to us —
            // symmetric fullness must not deadlock), then park briefly
            // on the space doorbell.
            if !force && (fabric.aborted() || self.stop.load(Ordering::Acquire)) {
                return false;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            waited_since.get_or_insert_with(Instant::now);
            if self.progress_pass(fabric) {
                continue;
            }
            let _ = peer.out_ch.space_doorbell().wait(seen, PUSH_SLICE_NS);
        }
    }

    /// Encode and publish one control/data frame: inline when it fits a
    /// ring slot, staged through the FIFO slab otherwise. A body larger
    /// than the slab itself is user error (one unchunkable RMA put/get
    /// larger than the configured slab) and fails the universe.
    fn push_frame(
        &self,
        fabric: &Fabric,
        dst: usize,
        frame: &Frame,
        deadline: Option<Instant>,
        force: bool,
    ) -> bool {
        let mut buf = Vec::with_capacity(64);
        frame.encode_into(&mut buf);
        let body = &buf[4..]; // strip the length prefix: rings are record-framed
        let desc = SlotDesc {
            kind: if body.len() <= INLINE_MAX {
                K_FRAME
            } else {
                K_SLAB
            },
            parts: 0,
            a: 0,
            b: 0,
            c: 0,
        };
        if body.len() as u64 > self.fifo_bytes {
            fabric.fail(PcommError::misuse(
                self.rank,
                format!(
                    "ipc frame body of {} B exceeds the {}-byte FIFO slab; \
                     raise PCOMM_NET_IPC_SLAB",
                    body.len(),
                    self.fifo_bytes
                ),
            ));
            return false;
        }
        let placed = if desc.kind == K_FRAME {
            Body::Inline(body)
        } else {
            Body::Slab(body)
        };
        self.push_record(fabric, dst, frame.op(), desc, placed, deadline, force)
    }

    /// `push_frame` for trait methods that have no `fabric` parameter.
    fn send_frame(&self, dst: usize, frame: Frame) {
        if let Some(fabric) = self.fabric() {
            self.push_frame(&fabric, dst, &frame, None, false);
        }
    }
}

// ---------------------------------------------------------------------
// Consumer side: draining records and dispatching.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Drain every peer's inbound channel once; returns whether any
    /// record was consumed.
    fn progress_pass(&self, fabric: &Fabric) -> bool {
        self.drain_all(fabric, false)
    }

    /// One drain pass over every peer. `wait_for_drainer` is for the
    /// last poller out (see `poll_until_none`): it owes the rings one look
    /// of its *own* after re-counting the progress thread, so it waits
    /// for a concurrent drainer's (record-sized) critical section
    /// instead of trusting that drainer to have looked late enough.
    fn drain_all(&self, fabric: &Fabric, wait_for_drainer: bool) -> bool {
        let mut any = false;
        for src in 0..self.n_ranks {
            if src != self.rank {
                any |= self.drain_peer(fabric, src, wait_for_drainer);
            }
        }
        any
    }

    /// Drain `src`'s inbound channel until it is empty or (unless
    /// `wait_for_drainer`) another thread holds it. One record per lock
    /// acquisition: pushy records are dispatched *after* the guard
    /// drops and the slot is recycled (see [`Deferred`]), so a dispatch
    /// that blocks on backpressure can never wedge this channel's
    /// drain.
    fn drain_peer(&self, fabric: &Fabric, src: usize, wait_for_drainer: bool) -> bool {
        let Some(peer) = &self.peers[src] else {
            return false;
        };
        let mut any = false;
        loop {
            let mut deferred: Option<Deferred> = None;
            let popped = {
                let inb = if wait_for_drainer {
                    peer.inb.lock()
                } else if let Some(inb) = peer.inb.try_lock() {
                    inb
                } else {
                    return any; // another thread is draining this peer
                };
                let r = inb.try_pop(|desc, payload| {
                    let trace = fabric.trace();
                    if trace.is_verify() {
                        // ORDERING: Relaxed — the `inb` drainer election
                        // serialises this counter.
                        let seq = peer.rx_seq.fetch_add(1, Ordering::Relaxed);
                        let op16 = match desc.kind {
                            K_PART | K_PARTF => frame::op::PART_DATA as u16,
                            K_RDV => frame::op::RDV_DATA as u16,
                            K_PART_CTS => frame::op::PART_CTS as u16,
                            // [ver][op][body]: the op byte of the frame.
                            _ => payload.get(1).copied().unwrap_or(0) as u16,
                        };
                        let p16 = src as u16;
                        trace.emit_verify(self.rank as u16, || EventKind::VerifyWireRecv {
                            peer: p16,
                            lane: 0,
                            op: op16,
                            epoch: 0,
                            seq,
                        });
                    }
                    // ORDERING: advisory stat for diagnostics snapshots.
                    peer.frames_received.fetch_add(1, Ordering::Relaxed);
                    match desc.kind {
                        K_PART => self.handle_part_commit(
                            fabric,
                            src,
                            desc.a,
                            desc.b as usize,
                            desc.c as usize,
                        ),
                        K_PARTF => {
                            self.handle_part_fifo(fabric, src, desc.a, desc.b as usize, payload)
                        }
                        K_RDV => self.handle_rdv_chunk(
                            fabric,
                            src,
                            desc.a,
                            desc.b as usize,
                            desc.parts == 1,
                            payload,
                        ),
                        K_PART_CTS => {
                            deferred = Some(Deferred::PartCts {
                                rdv_id: desc.a,
                                grant: (desc.b != u64::MAX).then_some(desc.b),
                            });
                        }
                        K_FRAME | K_SLAB => match Frame::decode(payload) {
                            Ok(f) => match f {
                                // Handlers that answer with a push of
                                // their own: deferred (deadlock rule).
                                Frame::Cts { .. }
                                | Frame::Rts { .. }
                                | Frame::PartRts { .. }
                                | Frame::PartCts { .. }
                                | Frame::GetReq { .. }
                                | Frame::BarrierArrive { .. } => {
                                    deferred = Some(Deferred::Frame(f))
                                }
                                f => self.dispatch_frame(fabric, src, f),
                            },
                            Err(e) => fabric.fail(PcommError::misuse(
                                src,
                                format!("undecodable ipc frame record: {e}"),
                            )),
                        },
                        k => fabric.fail(PcommError::misuse(
                            src,
                            format!("unknown ipc slot kind {k}"),
                        )),
                    }
                });
                match r {
                    Ok(p) => p,
                    Err(e) => {
                        fabric.fail(PcommError::misuse(
                            src,
                            format!("corrupt ipc ring from rank {src}: {e}"),
                        ));
                        return any;
                    }
                }
            };
            if !popped {
                return any;
            }
            any = true;
            match deferred {
                Some(Deferred::Frame(f)) => self.dispatch_frame(fabric, src, f),
                Some(Deferred::PartCts { rdv_id, grant }) => {
                    self.handle_part_cts(fabric, src, rdv_id, grant)
                }
                None => {}
            }
        }
    }

    /// Dispatch one decoded frame (the non-ring-native records; bulk
    /// data uses the `K_*` descriptor kinds instead). Mirrors the
    /// socket transport's `dispatch` arm for arm.
    fn dispatch_frame(&self, fabric: &Fabric, peer: usize, frame: Frame) {
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
            // Zero-length rendezvous only: non-empty payloads ride
            // `K_RDV` chunks, which never materialise a `Frame`.
            Frame::RdvData { rdv_id, payload } => {
                let entry = self.rdv_in.lock().remove(&(peer, rdv_id));
                if let Some(r) = entry {
                    fabric.complete_remote_rdv(r.posted, peer, r.tag, r.shard, &payload, r.rts_ns);
                }
            }
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => self.handle_part_rts(fabric, peer, ctx, total_len as usize, rdv_id),
            // The ipc CTS is the payload-less `K_PART_CTS` record; a
            // framed one would be a peer protocol bug, but absorbing it
            // as "no grant" keeps the FSM total.
            Frame::PartCts { rdv_id } => self.handle_part_cts(fabric, peer, rdv_id, None),
            Frame::PartData {
                rdv_id,
                offset,
                payload,
            } => self.handle_part_fifo(fabric, peer, rdv_id, offset as usize, &payload),
            Frame::BarrierArrive { gen } => self.note_arrival(fabric, gen, peer),
            Frame::BarrierRelease { gen } => self.release_completion(gen).set(),
            Frame::Heartbeat { .. } => {} // liveness rides the segment counter instead
            Frame::StreamResync { .. } => {} // shared memory never loses ranges
            Frame::Abort {
                kind,
                a,
                b,
                tag,
                attempts,
                detail,
            } => fabric.fail_from_wire(decode_abort(kind, a, b, tag, attempts, detail)),
            Frame::Bye => {
                if let Some(p) = &self.peers[peer] {
                    p.saw_bye.store(true, Ordering::Release);
                }
            }
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
                Some(data) => {
                    self.push_frame(
                        fabric,
                        peer,
                        &Frame::GetResp {
                            token,
                            payload: data,
                        },
                        None,
                        false,
                    );
                }
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
    }
}

// ---------------------------------------------------------------------
// Rendezvous: RTS/CTS handshake, then K_RDV chunks through the slab.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Sender: the CTS arrived — stream the pinned source through the
    /// FIFO slab in `rdv_chunk` pieces and complete the send. The ring
    /// is SPSC and ordered, so chunks land in order and the receiver
    /// can count bytes instead of tracking ranges.
    fn handle_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64) {
        let Some(pending) = self.pending_rdv.lock().remove(&rdv_id) else {
            return; // duplicate or post-abort straggler
        };
        if fabric.aborted() {
            // The sender is unwinding via the abort; its buffer may be
            // on its way out — do not touch it, do not set done.
            return;
        }
        let PendingRdvIpc { pinned, dst } = pending;
        debug_assert_eq!(dst, peer, "CTS must come from the RTS target");
        if pinned.len == 0 {
            // Zero-length rendezvous: no bytes to chunk; a framed
            // RdvData completes the posted receive envelope.
            if self.push_frame(
                fabric,
                dst,
                &Frame::RdvData {
                    rdv_id,
                    payload: Vec::new(),
                },
                None,
                false,
            ) {
                pinned.done.set();
            }
            return;
        }
        let mut off = 0usize;
        while off < pinned.len {
            let n = self.rdv_chunk.min(pinned.len - off);
            // SAFETY: invariant (1) — the pinned source stays alive and
            // unmodified until `done` fires below; `off + n <= len`.
            let chunk = unsafe { std::slice::from_raw_parts(pinned.ptr.add(off), n) };
            let desc = SlotDesc {
                kind: K_RDV,
                parts: u16::from(off + n == pinned.len),
                a: rdv_id,
                b: off as u64,
                c: 0,
            };
            if !self.push_record(
                fabric,
                dst,
                frame::op::RDV_DATA,
                desc,
                Body::Slab(chunk),
                None,
                false,
            ) {
                return; // aborted mid-stream: unwind via the abort flag
            }
            off += n;
        }
        pinned.done.set();
    }

    /// Receiver: one in-order `K_RDV` chunk — copy it straight into the
    /// posted destination and, on the final chunk, publish the envelope.
    fn handle_rdv_chunk(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        is_final: bool,
        payload: &[u8],
    ) {
        let mut rdv_in = self.rdv_in.lock();
        let Some(entry) = rdv_in.get_mut(&(src, rdv_id)) else {
            return; // post-abort straggler
        };
        if fabric.aborted() {
            rdv_in.remove(&(src, rdv_id));
            return;
        }
        let end = offset + payload.len();
        if end > entry.posted.dest_cap {
            rdv_in.remove(&(src, rdv_id));
            drop(rdv_in);
            fabric.fail(PcommError::misuse(
                src,
                format!(
                    "ipc rendezvous chunk {offset}+{} overflows a {}-byte destination",
                    payload.len(),
                    end - payload.len().min(end)
                ),
            ));
            return;
        }
        // SAFETY: invariant (2) — the posted destination is exclusive
        // and stays alive until its completion fires; the bound was
        // checked above, and the SPSC ring serialises chunk writers.
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                entry.posted.dest_ptr.add(offset),
                payload.len(),
            );
        }
        entry.received += payload.len();
        if is_final {
            let total = entry.received;
            // PANIC: the entry was fetched from this map three lines up
            // under the same guard.
            let entry = rdv_in.remove(&(src, rdv_id)).expect("entry held above");
            drop(rdv_in);
            fabric.complete_remote_rdv_in_place(
                entry.posted,
                src,
                entry.tag,
                entry.shard,
                total,
                entry.rts_ns,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Partitioned streams: arena zero-copy commits, FIFO fallback.
// ---------------------------------------------------------------------

impl IpcTransport {
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
            self.activate_stream(fabric, src, rdv_id, total_len, recv);
        }
    }

    /// Receiver: a posted destination met its announcement — register
    /// the active stream and answer with a `K_PART_CTS` carrying the
    /// arena grant (zero-copy) or `u64::MAX` (FIFO fallback: the
    /// destination is ordinary heap memory the sender cannot reach).
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
            // Same join events as the socket transport: the receiver is
            // the only side that knows both the wire stream id and the
            // verify-layer (req, msg) identities.
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
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                peer: p16,
                tx: true,
                stream: stream32,
                epoch: 0,
            });
        }
        // Arena grant: when the pinned destination lies inside the
        // inbound channel's partition arena (it was handed out by
        // `alloc_part_dest`), tell the sender its base offset so every
        // `pready` commits bytes straight into it.
        let grant = self.peers[src].as_ref().and_then(|peer| {
            let arena_bytes = peer.inb_ch.arena_bytes();
            if arena_bytes == 0 {
                return None;
            }
            // SAFETY: offset 0 of a non-empty arena is in bounds; the
            // pointer is only used for address arithmetic.
            let a0 = unsafe { peer.inb_ch.arena_ptr(0) } as usize;
            let base = recv.base as usize;
            (base >= a0 && base + total_len <= a0 + arena_bytes as usize)
                .then(|| (base - a0) as u64)
        });
        let stream = Arc::new(StreamRecv {
            base: recv.base,
            total_len,
            remaining_total: std::sync::atomic::AtomicUsize::new(total_len),
            msgs: recv.msgs,
            committed: Mutex::new(Vec::new()),
        });
        self.streams_in.lock().insert((src, rdv_id), stream);
        let desc = SlotDesc {
            kind: K_PART_CTS,
            parts: 0,
            a: rdv_id,
            b: grant.unwrap_or(u64::MAX),
            c: 0,
        };
        self.push_record(
            fabric,
            src,
            frame::op::PART_CTS,
            desc,
            Body::Inline(&[]),
            None,
            false,
        );
    }

    /// Sender: the receiver pinned its destination — release every
    /// queued range under the arrived grant.
    fn handle_part_cts(&self, fabric: &Fabric, peer: usize, rdv_id: u64, grant: Option<u64>) {
        if fabric.aborted() {
            return;
        }
        {
            let (p16, stream) = (peer as u16, rdv_id as u32);
            fabric
                .trace()
                .emit_verify(self.rank as u16, || EventKind::VerifyStreamCts {
                    peer: p16,
                    tx: false,
                    stream,
                    epoch: 0,
                });
        }
        let (dst, spans, queued) = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&rdv_id) else {
                return; // duplicate or post-abort straggler
            };
            stream.cts = Some(grant);
            let queued = std::mem::take(&mut stream.queued);
            let dst = stream.dst;
            let spans = Arc::clone(&stream.spans);
            if stream.pushed >= stream.total_len {
                out.remove(&rdv_id);
            }
            (dst, spans, queued)
        };
        debug_assert_eq!(dst, peer, "PartCts must come from the stream's receiver");
        for q in queued {
            self.ship_range(
                fabric, dst, rdv_id, grant, &spans, q.offset, q.ptr, q.len, q.parts,
            );
        }
    }

    /// Sender: put one ready range in the receiver's hands. With a
    /// grant: copy once into the shared arena destination and publish a
    /// payload-less `K_PART` — the receiver commits in place, no second
    /// copy, no reader-thread hop. Without: stage `K_PARTF` chunks
    /// through the FIFO slab.
    #[allow(clippy::too_many_arguments)] // one per range field
    fn ship_range(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        spans: &Arc<Vec<SendSpan>>,
        offset: u64,
        ptr: *const u8,
        len: usize,
        parts: u16,
    ) {
        let trace = fabric.trace();
        let stream32 = rdv_id as u32;
        match grant {
            Some(g) => {
                let Some(peer) = &self.peers[dst] else {
                    return;
                };
                // SAFETY: the receiver granted `g .. g + total_len` of
                // the outbound channel's arena to this stream and will
                // not read `offset..offset+len` of it until the K_PART
                // below publishes; the source side is invariant (1).
                unsafe {
                    std::ptr::copy_nonoverlapping(ptr, peer.out_ch.arena_ptr(g + offset), len);
                }
                let (p16, off64, len32) = (dst as u16, offset, len as u32);
                trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                    peer: p16,
                    lane: 0,
                    tx: true,
                    stream: stream32,
                    offset: off64,
                    len: len32,
                });
                let desc = SlotDesc {
                    kind: K_PART,
                    parts,
                    a: rdv_id,
                    b: offset,
                    c: len as u64,
                };
                if self.push_record(
                    fabric,
                    dst,
                    frame::op::PART_DATA,
                    desc,
                    Body::Inline(&[]),
                    None,
                    false,
                ) {
                    complete_spans(spans, offset as usize, len);
                }
            }
            None => {
                let mut done = 0usize;
                while done < len {
                    let n = self.rdv_chunk.min(len - done);
                    // SAFETY: invariant (1) — the source stays pinned
                    // until the covering spans complete below.
                    let chunk = unsafe { std::slice::from_raw_parts(ptr.add(done), n) };
                    let (p16, off64, len32) = (dst as u16, offset + done as u64, n as u32);
                    trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                        peer: p16,
                        lane: 0,
                        tx: true,
                        stream: stream32,
                        offset: off64,
                        len: len32,
                    });
                    let desc = SlotDesc {
                        kind: K_PARTF,
                        parts: if done + n == len { parts } else { 0 },
                        a: rdv_id,
                        b: offset + done as u64,
                        c: 0,
                    };
                    if !self.push_record(
                        fabric,
                        dst,
                        frame::op::PART_DATA,
                        desc,
                        Body::Slab(chunk),
                        None,
                        false,
                    ) {
                        return; // aborted mid-stream
                    }
                    complete_spans(spans, (offset + done as u64) as usize, n);
                    done += n;
                }
            }
        }
    }

    /// Receiver: a zero-copy `K_PART` commit — the bytes are already in
    /// the pinned destination (the sender wrote the granted arena range
    /// directly); only the bookkeeping remains.
    fn handle_part_commit(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        len: usize,
    ) {
        let Some(stream) = self.stream_range(fabric, src, rdv_id, offset, len) else {
            return;
        };
        self.commit_stream_range(fabric, src, rdv_id, &stream, offset, len);
    }

    /// Receiver: a FIFO-staged `K_PARTF` range — copy it into the
    /// pinned destination, then commit.
    fn handle_part_fifo(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        offset: usize,
        payload: &[u8],
    ) {
        let Some(stream) = self.stream_range(fabric, src, rdv_id, offset, payload.len()) else {
            return;
        };
        // SAFETY: the range was validated against `total_len` above,
        // the destination stays pinned until the stream's completions
        // fire (invariant (1)), and every byte belongs to exactly one
        // record on this SPSC ring, so writes never alias.
        unsafe {
            std::ptr::copy_nonoverlapping(payload.as_ptr(), stream.base.add(offset), payload.len());
        }
        self.commit_stream_range(fabric, src, rdv_id, &stream, offset, payload.len());
    }

    /// Receiver: look up the active stream for `(src, rdv_id)` and
    /// validate that `offset..offset+len` fits its destination.
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
    /// and retire the stream once the whole buffer has landed. Same
    /// dedup ledger as the socket transport (the wire can't replay on
    /// ipc, but the audit FSM proves that rather than assuming it).
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
        let stream32 = rdv_id as u32;
        {
            let (p16, off64, len32) = (src as u16, offset as u64, len as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer: p16,
                lane: 0,
                tx: false,
                stream: stream32,
                offset: off64,
                len: len32,
            });
        }
        let fresh = {
            let mut committed = stream.committed.lock();
            claim_range(&mut committed, offset, end)
        };
        let fresh_bytes: usize = fresh.iter().map(|&(lo, hi)| hi - lo).sum();
        if fresh_bytes == 0 {
            return; // pure duplicate: every byte landed before
        }
        for &(f_lo, f_hi) in &fresh {
            let (p16, lo64, flen) = (src as u16, f_lo as u64, (f_hi - f_lo) as u32);
            trace.emit_verify(self.rank as u16, || EventKind::VerifyStreamCommit {
                peer: p16,
                lane: 0,
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
        let (off64, bytes64) = (offset as u64, fresh_bytes as u64);
        trace.emit(self.rank as u16, || EventKind::StreamCommit {
            lane: 0,
            msgs: msgs_done,
            offset: off64,
            bytes: bytes64,
        });
        // AcqRel: pairs with the other committers' decrements so the
        // map removal below observes a fully committed stream.
        if stream
            .remaining_total
            .fetch_sub(fresh_bytes, Ordering::AcqRel)
            == fresh_bytes
        {
            self.streams_in.lock().remove(&(src, rdv_id));
        }
    }
}

// ---------------------------------------------------------------------
// Barrier, progress loop, heartbeat monitor, teardown.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Get-or-create the release completion for barrier generation
    /// `gen` (a drain pass and the waiting rank race to create it).
    fn release_completion(&self, gen: u64) -> Arc<Completion> {
        Arc::clone(self.releases.lock().entry(gen).or_default())
    }

    /// Rank 0: record `from`'s arrival for `gen`; on the last distinct
    /// one, broadcast the release and complete the local waiter.
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
                self.push_frame(fabric, peer, &Frame::BarrierRelease { gen }, None, false);
            }
            self.release_completion(gen).set();
        }
    }

    /// The "pcomm-ipc" thread body: drain inbound channels, publish the
    /// heartbeat, watch peers' heartbeats, and park on this rank's
    /// doorbell while idle. App threads waiting in `wait_slice` do the
    /// latency-critical progress inline; this thread is the backstop
    /// for completions nobody is spinning on.
    fn progress_loop(self: &Arc<IpcTransport>, fabric: &Arc<Fabric>) {
        let tick = Duration::from_millis((self.hb_ms / 4).max(1));
        let tick_ns = tick.as_nanos() as u64;
        let mut last_tick = Instant::now();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if last_tick.elapsed() >= tick {
                self.heartbeat_tick(fabric);
                last_tick = Instant::now();
            }
            if self.progress_pass(fabric) {
                continue;
            }
            let bell = self.segment.doorbell(self.rank);
            let seen = bell.seq();
            // Re-check after the snapshot: a producer that pushed and
            // rang between the drain above and here bumped the bell, so
            // the park below would return immediately anyway — this
            // just skips the syscall.
            if self.progress_pass(fabric) {
                continue;
            }
            // Counted only while no app thread polls (the hand-off);
            // either way bounded by the tick, so heartbeats and
            // peer-death detection keep their cadence.
            let Ok(parked) = self.handoff.park(&bell, seen, tick_ns) else {
                continue;
            };
            let tally = if parked.counted {
                &self.progress_parks_counted
            } else {
                &self.progress_parks_uncounted
            };
            // ORDERING: always-on diagnostics tally, read racily.
            tally.fetch_add(1, Ordering::Relaxed);
            fabric
                .trace()
                .emit(self.rank as u16, || EventKind::IpcDoorbell {
                    seq: seen,
                    woken: parked.woken,
                });
        }
    }

    /// Poll with inline progress until `pending()` reaches zero or
    /// nothing has happened for [`SPIN_WINDOW`] (every drop of
    /// `pending()` renews it); returns whether it reached zero. The
    /// same-host round trip is microseconds, and handing it to the
    /// progress thread would add two context switches. While we poll,
    /// this rank's doorbell is ours — the progress thread's park is not
    /// counted, so peers push without a `FUTEX_WAKE`.
    fn poll_until_none(&self, fabric: &Fabric, mut pending: impl FnMut() -> usize) -> bool {
        let mut left = pending();
        if left == 0 {
            return true;
        }
        let bell = self.segment.doorbell(self.rank);
        self.handoff.poller_enter(&bell);
        let mut spin_until = Instant::now() + SPIN_WINDOW;
        let mut renew = false;
        while left > 0 {
            if !self.progress_pass(fabric) {
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
        if self.handoff.poller_exit(&bell) {
            // Last poller out: the parked progress thread is counted
            // again, and a peer that pushed while it was not saw
            // `sleepers == 0` and skipped the wake — that record is
            // ours to drain (lost-wakeup argument: `ipc::doorbell`).
            self.drain_all(fabric, true);
        }
        left == 0
    }

    /// Racy snapshot of the always-on doorbell tallies.
    fn doorbell_stats_now(&self) -> DoorbellStats {
        // ORDERING: advisory tallies; each is independently monotonic
        // and the snapshot is racy by design.
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DoorbellStats {
            rings: get(&self.doorbell_rings),
            wakes: get(&self.doorbell_wakes),
            parks_counted: get(&self.progress_parks_counted),
            parks_uncounted: get(&self.progress_parks_uncounted),
        }
    }

    /// Publish this rank's liveness and check every attached peer's:
    /// a heartbeat word that has not moved for 7/4 heartbeat periods
    /// while the peer never said `Bye` means its process died mid-run.
    fn heartbeat_tick(&self, fabric: &Fabric) {
        // ORDERING: liveness counter only; peers poll for movement, no
        // memory is published through it.
        self.segment
            .heartbeat(self.rank)
            .fetch_add(1, Ordering::Relaxed);
        let stale_after = Duration::from_millis(self.hb_ms * 7 / 4);
        for (r, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            if peer.saw_bye.load(Ordering::Acquire) {
                continue;
            }
            // ORDERING: attach flag is a rendezvous latch; Acquire pairs
            // with the attaching store so a set flag implies the peer's
            // mapping (and first heartbeat) exists.
            if self.segment.attached(r).load(Ordering::Acquire) == 0 {
                continue;
            }
            // ORDERING: liveness counter (see above).
            let val = self.segment.heartbeat(r).load(Ordering::Relaxed);
            let mut seen = peer.hb_seen.lock();
            match *seen {
                Some((prev, since)) if prev == val => {
                    if since.elapsed() >= stale_after
                        && !fabric.aborted()
                        && !self.stop.load(Ordering::Acquire)
                    {
                        fabric.fail(PcommError::PeerPanicked {
                            rank: r,
                            message: format!(
                                "ipc heartbeat from rank {r} stale for {} ms (bound {} ms): \
                                 the peer process likely died; tune PCOMM_NET_HB_MS to adjust \
                                 detection latency",
                                since.elapsed().as_millis(),
                                stale_after.as_millis()
                            ),
                        });
                    }
                }
                _ => *seen = Some((val, Instant::now())),
            }
        }
    }

    /// Shut the fabric down after the rank's closure returned. Clean
    /// runs pass a closing barrier first (nobody quits while a peer
    /// might still need them), then exchange `Bye` records and keep
    /// draining until every peer's `Bye` arrived — both sides drain, so
    /// the `Bye`s always flow. Aborted runs broadcast the abort and
    /// force-push `Bye` under a hard budget. Never unwinds.
    pub(crate) fn finalize(&self, fabric: &Fabric) {
        if !fabric.aborted() {
            // ORDERING: generation allocator — uniqueness only; the
            // value travels to peers inside frames, not via memory.
            let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
            let completion = self.release_completion(gen);
            if self.rank == 0 {
                self.note_arrival(fabric, gen, self.rank);
            } else {
                self.push_frame(fabric, 0, &Frame::BarrierArrive { gen }, None, false);
            }
            let deadline = Instant::now() + FINALIZE_TIMEOUT;
            loop {
                if completion.is_set() || fabric.aborted() {
                    break;
                }
                if Instant::now() >= deadline {
                    fabric.fail(PcommError::Misuse {
                        rank: Some(self.rank),
                        detail: format!(
                            "ipc finalize barrier timed out after {}s: a peer never \
                             reached teardown",
                            FINALIZE_TIMEOUT.as_secs()
                        ),
                    });
                    break;
                }
                if !self.progress_pass(fabric) {
                    completion.wait_timeout(TEARDOWN_SLICE);
                }
            }
            self.releases.lock().remove(&gen);
        }
        if fabric.aborted() {
            if let Some(err) = fabric.failure_snapshot() {
                self.broadcast_abort(&err);
            }
        }
        let bye_deadline = Instant::now() + TEARDOWN_PUSH_BUDGET;
        for peer in 0..self.n_ranks {
            if peer != self.rank {
                self.push_frame(fabric, peer, &Frame::Bye, Some(bye_deadline), true);
            }
        }
        // Clean path: drain until every peer said goodbye, so no peer
        // blocks pushing its own Bye into a full ring we abandoned.
        if !fabric.aborted() {
            let deadline = Instant::now() + FINALIZE_TIMEOUT;
            loop {
                let all_bye = self
                    .peers
                    .iter()
                    .flatten()
                    .all(|p| p.saw_bye.load(Ordering::Acquire));
                if all_bye || fabric.aborted() || Instant::now() >= deadline {
                    break;
                }
                if !self.progress_pass(fabric) {
                    std::thread::sleep(TEARDOWN_SLICE);
                }
            }
        }
        fabric.trace().emit(self.rank as u16, || {
            let stats = self.doorbell_stats_now();
            let sat = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            EventKind::IpcDoorbellStats {
                rings: sat(stats.rings),
                wakes: sat(stats.wakes),
                parks_counted: sat(stats.parks_counted),
                parks_uncounted: sat(stats.parks_uncounted),
            }
        });
        self.stop.store(true, Ordering::Release);
        // Unconditional: `ring()` skips the wake of a sleeper that is
        // not counted (a poller took the doorbell over), and teardown
        // must not sit out a progress-thread tick.
        let _ = self.segment.doorbell(self.rank).wake();
        if let Some(handle) = self.progress.lock().take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// The Transport implementation.
// ---------------------------------------------------------------------

impl Transport for IpcTransport {
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
            .insert(rdv_id, PendingRdvIpc { pinned, dst });
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
        self.rdv_in.lock().insert(
            (src, rdv_id),
            RdvIn {
                posted,
                shard,
                tag,
                rts_ns,
                received: 0,
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
        // Register before the RTS leaves so a fast K_PART_CTS finds us.
        self.streams_out.lock().insert(
            rdv_id,
            IpcStreamSend {
                dst,
                total_len,
                pushed: 0,
                cts: None,
                queued: Vec::new(),
                spans: Arc::new(spans),
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
        let shipped = {
            let mut out = self.streams_out.lock();
            let Some(stream) = out.get_mut(&stream_id) else {
                return; // post-abort straggler
            };
            stream.pushed += data.len();
            match stream.cts {
                None => {
                    // The CTS handler drains `queued` and retires the
                    // entry when it arrives.
                    stream.queued.push(QueuedRange {
                        offset,
                        ptr: data.as_ptr(),
                        len: data.len(),
                        parts,
                    });
                    return;
                }
                Some(grant) => {
                    let dst = stream.dst;
                    let spans = Arc::clone(&stream.spans);
                    if stream.pushed >= stream.total_len {
                        // Last byte pushed post-CTS: the entry is done.
                        out.remove(&stream_id);
                    }
                    (dst, grant, spans)
                }
            }
        };
        let (dst, grant, spans) = shipped;
        self.ship_range(
            fabric,
            dst,
            stream_id,
            grant,
            &spans,
            offset,
            data.as_ptr(),
            data.len(),
            parts,
        );
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
            self.activate_stream(fabric, src, rdv_id, total_len, recv);
        }
    }

    fn barrier(&self, fabric: &Fabric, rank: usize) {
        // ORDERING: generation allocator (see `finalize`) — uniqueness
        // only; barrier ordering comes from the records themselves.
        let gen = self.barrier_gen.fetch_add(1, Ordering::Relaxed);
        let completion = self.release_completion(gen);
        if self.rank == 0 {
            self.note_arrival(fabric, gen, self.rank);
        } else {
            self.push_frame(fabric, 0, &Frame::BarrierArrive { gen }, None, false);
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
        self.push_frame(
            fabric,
            target,
            &Frame::GetReq {
                win_ctx,
                offset: offset as u64,
                len: len as u64,
                token,
            },
            None,
            false,
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
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(rank, peer)| {
                let peer = peer.as_ref()?;
                let quiet_ms = peer
                    .hb_seen
                    .lock()
                    .map(|(_, since)| since.elapsed().as_millis() as u64)
                    .unwrap_or(0);
                Some(PeerSocketState {
                    peer: rank,
                    connected: self.segment.attached(rank).load(Ordering::Acquire) != 0
                        && !peer.saw_bye.load(Ordering::Acquire),
                    // ORDERING: advisory stats for the racy snapshot.
                    frames_sent: peer.frames_sent.load(Ordering::Relaxed),
                    // ORDERING: advisory stats for the racy snapshot.
                    frames_received: peer.frames_received.load(Ordering::Relaxed),
                    pending_rdv: pending.values().filter(|p| p.dst == rank).count()
                        + streams.values().filter(|s| s.dst == rank).count(),
                    queued: 0,     // no writer queues: producers push inline
                    lanes_down: 0, // a mapped segment has no lanes to lose
                    quiet_ms,
                })
            })
            .collect()
    }

    fn broadcast_abort(&self, err: &PcommError) {
        if self.abort_sent.swap(true, Ordering::SeqCst) {
            return;
        }
        let Some(fabric) = self.fabric() else {
            return;
        };
        let frame = encode_abort(err);
        let deadline = Instant::now() + TEARDOWN_PUSH_BUDGET;
        for peer in 0..self.n_ranks {
            if peer != self.rank {
                self.push_frame(&fabric, peer, &frame, Some(deadline), true);
            }
        }
    }

    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        // Past the polling window, park — the doorbell wakes the
        // progress thread, which completes us.
        self.poll_until_none(fabric, || usize::from(!completion.is_set()))
            || completion.wait_timeout(WAIT_SLICE)
    }

    fn poll_burst(&self, fabric: &Fabric, completions: &[Arc<Completion>]) {
        // Completions before the cursor are set. A stream arriving
        // piecemeal is one polling session — one doorbell hand-off —
        // not one per message.
        let mut next = 0;
        self.poll_until_none(fabric, || {
            while completions.get(next).is_some_and(|c| c.is_set()) {
                next += 1;
            }
            completions.len() - next
        });
    }

    fn doorbell_stats(&self) -> Option<DoorbellStats> {
        Some(self.doorbell_stats_now())
    }

    fn alloc_part_dest(&self, src: usize, len: usize) -> Option<(u64, *mut u8)> {
        if len == 0 {
            return None;
        }
        let peer = self.peers[src].as_ref()?;
        if (len as u64) > peer.inb_ch.arena_bytes() {
            return None;
        }
        let off = peer.arena.lock().alloc(len as u64)?;
        // SAFETY: `alloc` returned a range inside `0..arena_bytes`; the
        // receiver owns it until `release_part_dest`.
        Some((off, unsafe { peer.inb_ch.arena_ptr(off) }))
    }

    fn release_part_dest(&self, src: usize, token: u64, len: usize) {
        if let Some(peer) = self.peers[src].as_ref() {
            peer.arena.lock().release(token, len as u64);
        }
    }
}

// ---------------------------------------------------------------------
// Bootstrap: segment fd exchange over the already-established mesh.
// ---------------------------------------------------------------------

/// Create (rank 0) or attach (everyone else) the shared segment,
/// passing the memfd over the mesh's lane-0 Unix sockets with
/// `SCM_RIGHTS`. Rank 0 waits for a one-byte ACK from every peer
/// before returning, so no rank starts pushing before every mapping
/// exists (the heartbeat monitor keys off the attach flags the ACKs
/// order). Consumes nothing from the mesh — the sockets stay open (and
/// are dropped by the caller once the transport is built).
pub(crate) fn bootstrap(mesh: &mut Mesh, params: IpcParams) -> Result<Segment, PcommError> {
    let misuse = |rank: usize, what: &str, e: std::io::Error| PcommError::Misuse {
        rank: Some(rank),
        detail: format!("ipc bootstrap: {what}: {e}"),
    };
    let (rank, n_ranks) = (mesh.rank, mesh.n_ranks);
    let lane0 = |mesh: &mut Mesh, r: usize| -> Result<usize, PcommError> {
        match mesh.peers[r].as_ref().and_then(|eps| eps.first()) {
            Some(ep) => ep.raw_fd().ok_or_else(|| PcommError::Misuse {
                rank: Some(rank),
                detail: "ipc bootstrap: fd passing needs a Unix-socket mesh \
                         (PCOMM_NET_BACKEND=uds)"
                    .into(),
            }),
            None => Err(PcommError::Misuse {
                rank: Some(rank),
                detail: format!("ipc bootstrap: no mesh endpoint toward rank {r}"),
            }),
        }
        .map(|fd| fd as usize)
    };
    // Bounded reads: a peer that dies mid-bootstrap becomes a typed
    // error, not a hang.
    for r in 0..n_ranks {
        if let Some(eps) = mesh.peers[r].as_ref() {
            if let Some(ep) = eps.first() {
                let _ = ep.set_read_timeout(Some(pcomm_net::mesh::ESTABLISH_TIMEOUT));
            }
        }
    }
    let segment = if rank == 0 {
        let (segment, fd) =
            Segment::create(params).map_err(|e| misuse(rank, "creating the segment", e))?;
        // ORDERING: attach latch — Release pairs with the monitors'
        // Acquire loads so a set flag implies a live mapping.
        segment.attached(0).store(1, Ordering::Release);
        for r in 1..n_ranks {
            let sock = lane0(mesh, r)? as i32;
            ipc::send_segment_fd(sock, fd, 0)
                .map_err(|e| misuse(rank, "passing the segment fd", e))?;
        }
        // Collect one ACK byte per peer: after this, every rank is
        // mapped and no push can outrun an attach.
        for r in 1..n_ranks {
            let mut byte = [0u8; 1];
            let ep = mesh.peers[r]
                .as_mut()
                .and_then(|eps| eps.first_mut())
                // PANIC: `lane0` above already proved the endpoint exists.
                .expect("endpoint checked above");
            ep.read_exact(&mut byte)
                .map_err(|e| misuse(rank, "waiting for a peer's attach ACK", e))?;
        }
        let _ = sys::close(fd);
        segment
    } else {
        let sock = lane0(mesh, 0)? as i32;
        let (fd, from) =
            ipc::recv_segment_fd(sock).map_err(|e| misuse(rank, "receiving the segment fd", e))?;
        if from != 0 {
            let _ = sys::close(fd);
            return Err(PcommError::Misuse {
                rank: Some(rank),
                detail: format!("ipc bootstrap: segment fd came from rank {from}, expected 0"),
            });
        }
        let segment =
            Segment::attach(fd, params).map_err(|e| misuse(rank, "attaching the segment", e))?;
        let _ = sys::close(fd);
        // ORDERING: attach latch (see above).
        segment.attached(rank).store(1, Ordering::Release);
        let ep = mesh.peers[0]
            .as_mut()
            .and_then(|eps| eps.first_mut())
            // PANIC: `lane0` above already proved the endpoint exists.
            .expect("endpoint checked above");
        ep.write_all(&[1u8])
            .map_err(|e| misuse(rank, "sending the attach ACK", e))?;
        segment
    };
    for r in 0..n_ranks {
        if let Some(eps) = mesh.peers[r].as_ref() {
            if let Some(ep) = eps.first() {
                let _ = ep.set_read_timeout(None);
            }
        }
    }
    Ok(segment)
}
