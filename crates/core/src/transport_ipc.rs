//! `IpcTransport`: the same-host zero-syscall carrier. Ranks map one
//! shared memory segment (memfd + `MAP_SHARED`, see
//! [`pcomm_net::ipc`]) holding, per directed pair, an SPSC descriptor
//! ring plus a FIFO slab and a partition arena. The protocol is
//! [`crate::wire`]'s; this file only moves its bytes. Small frames ride
//! inline in ring slots (bcopy); stream ranges without an arena grant —
//! every rendezvous, a one-message stream into a posted buffer — stream
//! through the slab in `K_PARTF` chunks; partitioned streams whose
//! destination lives in the arena commit with **no copy at all** — the
//! `K_PART_CTS` carries the destination's arena offset as the grant,
//! every `pready` lands its bytes directly in receiver-visible memory
//! and publishes a payload-less `K_PART` descriptor, so `parrived`
//! flips without a reader-thread hop.
//!
//! Wakeups are futex doorbells ([`pcomm_net::ipc::doorbell`]): the
//! steady state is zero syscalls per transfer (spin-then-futex on both
//! the producer's backpressure path and the consumer's idle path).
//!
//! Progress discipline: there are no reader/writer threads. The app
//! thread makes progress inline from [`Transport::wait_slice`], and a
//! single low-duty "pcomm-ipc" thread per process backstops
//! completions nobody is actively waiting on and runs the heartbeat
//! monitor: the socket carrier's rule, a segment word bumped every
//! tick and a peer whose word stands still for [`HEARTBEAT_MISS`]
//! presumed dead (a typed [`PcommError::PeerPanicked`], not a hang).
//! The two share the rank's inbound doorbell through a [`Handoff`]: while an app thread polls, the progress
//! thread's park is not counted in `sleepers`, so a peer's push costs
//! no `FUTEX_WAKE`; the last poller out hands the doorbell back.
//!
//! Audit stamps use `lane == 0` and `epoch == 0` everywhere (the
//! segment never reconnects, so there is a single always-epoch-0 lane
//! per pair).

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame};
use pcomm_net::ipc::doorbell::Handoff;
use pcomm_net::ipc::ring::{
    Channel, SlotDesc, INLINE_MAX, K_FRAME, K_PART, K_PARTF, K_PART_CTS, K_SLAB,
};
use pcomm_net::ipc::slab::ArenaAlloc;
use pcomm_net::ipc::{self, IpcParams, Segment};
use pcomm_net::{sys, Mesh};
use pcomm_trace::EventKind;

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, WAIT_SLICE};
use crate::sync::{Completion, Mutex};
use crate::transport::{poll_window, unset_in, Transport, HEARTBEAT_MISS, HEARTBEAT_TICK};
use crate::wire::{answers_with_push, complete_spans, PinChunk, SendSpan, FINALIZE_TIMEOUT};

/// Sleep between drain passes while teardown waits for the peers'
/// `Bye`s (mirrors the fabric's `WAIT_SLICE`).
const TEARDOWN_SLICE: Duration = Duration::from_millis(2);

/// Futex timeout for one backpressure wait on a full ring, ns. Short:
/// a stuck consumer is re-checked often enough that abort flags and
/// deadlines stay responsive.
const PUSH_SLICE_NS: u64 = 200_000;

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

/// The shared-memory carrier for one rank of a same-host run.
pub(crate) struct IpcTransport {
    rank: usize,
    n_ranks: usize,
    segment: Segment,
    /// FIFO slab capacity per channel (caps one frame's body).
    fifo_bytes: u64,
    /// Chunk size for slab-staged stream ranges (`K_PARTF`).
    rdv_chunk: usize,
    peers: Vec<Option<IpcPeer>>,
    progress: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
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
    pub(crate) fn new(segment: Segment, rank: usize, n_ranks: usize) -> IpcTransport {
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
        IpcTransport {
            rank,
            n_ranks,
            segment,
            fifo_bytes,
            rdv_chunk: ((fifo_bytes / 2).max(1) as usize).min(256 << 10),
            peers,
            progress: Mutex::new(None),
            stop: AtomicBool::new(false),
            handoff: Handoff::new(),
            doorbell_rings: AtomicU64::new(0),
            doorbell_wakes: AtomicU64::new(0),
            progress_parks_counted: AtomicU64::new(0),
            progress_parks_uncounted: AtomicU64::new(0),
        }
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
                        // counter (same argument as the socket carrier).
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
    /// larger than the slab) and fails the universe.
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
        let body = frame::body_of(&buf); // rings are record-framed
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
                    "ipc frame body of {} B exceeds the {}-byte FIFO slab \
                     (one RMA transfer larger than that must be split)",
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
                            K_PART_CTS => frame::op::PART_CTS as u16,
                            _ => frame::body_opcode(payload).map_or(0, u16::from),
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
                    let wire = fabric.wire();
                    // Offsets and lengths in `desc` are the peer's word;
                    // the engine bounds-checks them before `dest` exists.
                    let copy_in = |dest: &mut [u8]| {
                        dest.copy_from_slice(payload);
                        Ok(payload.len())
                    };
                    let (id, at) = (desc.a, desc.b as usize);
                    match desc.kind {
                        // Zero-copy commit: the sender already wrote the
                        // granted arena range; only bookkeeping remains.
                        K_PART => {
                            let len = desc.c as usize;
                            let _ = wire.land_part(fabric, src, id, at, len, |_| Ok(len));
                        }
                        K_PARTF => {
                            let _ = wire.land_part(fabric, src, id, at, payload.len(), copy_in);
                        }
                        K_PART_CTS => {
                            deferred = Some(Deferred::PartCts {
                                rdv_id: desc.a,
                                grant: (desc.b != u64::MAX).then_some(desc.b),
                            });
                        }
                        K_FRAME | K_SLAB => match Frame::decode(payload) {
                            // Handlers that answer with a push of their
                            // own: deferred (deadlock rule).
                            Ok(f) if answers_with_push(&f) => deferred = Some(Deferred::Frame(f)),
                            Ok(f) => self.dispatch_frame(fabric, src, f),
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
                    let cap = peer.out_ch.arena_bytes();
                    fabric
                        .wire()
                        .handle_part_cts(fabric, src, rdv_id, grant, cap)
                }
                None => {}
            }
        }
    }

    /// Hand one decoded frame to the engine (bulk data uses the `K_*`
    /// descriptor kinds instead); a `Bye` means the peer's heartbeat may
    /// legitimately stop.
    fn dispatch_frame(&self, fabric: &Fabric, src: usize, frame: Frame) {
        if !fabric.wire().dispatch(fabric, src, frame) {
            if let Some(p) = &self.peers[src] {
                p.saw_bye.store(true, Ordering::Release);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Partitioned streams: arena zero-copy commits, FIFO fallback.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Sender: put one ready range in the receiver's hands. With a
    /// grant: copy once into the shared arena destination and publish a
    /// payload-less `K_PART` — the receiver commits in place, no second
    /// copy, no reader-thread hop. Without: stage `K_PARTF` chunks
    /// through the FIFO slab.
    fn ship_range(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        spans: &Arc<[SendSpan]>,
        chunk: PinChunk,
    ) {
        let PinChunk {
            offset,
            ptr,
            len,
            parts,
        } = chunk;
        let trace = fabric.trace();
        let stream32 = rdv_id as u32;
        match grant {
            Some(g) => {
                let Some(peer) = &self.peers[dst] else {
                    return;
                };
                // SAFETY: the receiver granted `g .. g + total_len` of
                // the outbound channel's arena to this stream (checked
                // against the arena size when the CTS arrived) and will
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
}

// ---------------------------------------------------------------------
// Progress loop, heartbeat monitor.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// The "pcomm-ipc" thread body: drain inbound channels, publish the
    /// heartbeat, watch peers' heartbeats, and park on this rank's
    /// doorbell while idle. App threads waiting in `wait_slice` do the
    /// latency-critical progress inline; this thread is the backstop
    /// for completions nobody is spinning on.
    fn progress_loop(self: &Arc<IpcTransport>, fabric: &Arc<Fabric>) {
        let tick_ns = HEARTBEAT_TICK.as_nanos() as u64;
        let mut last_tick = Instant::now();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if last_tick.elapsed() >= HEARTBEAT_TICK {
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

    /// Poll with inline progress ([`poll_window`]) until `pending()`
    /// reaches zero or the window closes; returns whether it reached
    /// zero. While we poll, this rank's doorbell is ours — the progress
    /// thread's park is not counted, so peers push without a
    /// `FUTEX_WAKE`.
    fn poll_until_none(&self, fabric: &Fabric, mut pending: impl FnMut() -> usize) -> bool {
        if pending() == 0 {
            return true;
        }
        let bell = self.segment.doorbell(self.rank);
        self.handoff.poller_enter(&bell);
        let done = poll_window(|| self.progress_pass(fabric), pending);
        if self.handoff.poller_exit(&bell) {
            // Last poller out: the parked progress thread is counted
            // again, and a peer that pushed while it was not saw
            // `sleepers == 0` and skipped the wake — that record is
            // ours to drain (lost-wakeup argument: `ipc::doorbell`).
            self.drain_all(fabric, true);
        }
        done
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
    /// a heartbeat word that has not moved for [`HEARTBEAT_MISS`] while
    /// the peer never said `Bye` means its process died mid-run.
    fn heartbeat_tick(&self, fabric: &Fabric) {
        let beat = self.segment.heartbeat(self.rank);
        // ORDERING: liveness counter only; peers poll for movement, no
        // memory is published through it.
        beat.fetch_add(1, Ordering::Relaxed);
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
                    if since.elapsed() >= HEARTBEAT_MISS
                        && !fabric.aborted()
                        && !self.stop.load(Ordering::Acquire)
                    {
                        fabric.fail(PcommError::PeerPanicked {
                            rank: r,
                            message: format!(
                                "ipc heartbeat from rank {r} stale for {} ms (bound {} ms): \
                                 the peer process likely died",
                                since.elapsed().as_millis(),
                                HEARTBEAT_MISS.as_millis()
                            ),
                        });
                    }
                }
                _ => *seen = Some((val, Instant::now())),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The carrier interface.
// ---------------------------------------------------------------------

impl Transport for IpcTransport {
    fn local_rank(&self) -> Option<usize> {
        Some(self.rank)
    }

    /// Publish the first heartbeat and spawn the progress/heartbeat
    /// thread.
    fn start(self: Arc<Self>, fabric: &Arc<Fabric>) -> Result<(), PcommError> {
        let beat = self.segment.heartbeat(self.rank);
        // ORDERING: liveness counter only; peers poll for movement.
        beat.fetch_add(1, Ordering::Relaxed);
        let me = Arc::clone(&self);
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

    fn send(&self, fabric: &Fabric, dst: usize, frame: Frame, teardown: bool) {
        // Teardown traffic is force-pushed under a hard budget: past it
        // the peer is not draining and the record is dropped.
        let deadline = teardown.then(|| Instant::now() + TEARDOWN_PUSH_BUDGET);
        self.push_frame(fabric, dst, &frame, deadline, teardown);
    }

    /// Answer with a `K_PART_CTS` carrying the arena grant (zero-copy)
    /// or `u64::MAX` (FIFO fallback: the destination is ordinary heap
    /// memory the sender cannot reach).
    fn ship_part_cts(
        &self,
        fabric: &Fabric,
        src: usize,
        rdv_id: u64,
        base: *const u8,
        total_len: usize,
    ) {
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
            let base = base as usize;
            (base >= a0 && base + total_len <= a0 + arena_bytes as usize)
                .then(|| (base - a0) as u64)
        });
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

    fn ship_chunks(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        spans: &Arc<[SendSpan]>,
        chunks: &[PinChunk],
    ) {
        for &chunk in chunks {
            self.ship_range(fabric, dst, rdv_id, grant, spans, chunk);
        }
    }

    fn peer_states(&self) -> Vec<PeerSocketState> {
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
                    pending_rdv: 0,
                    queued: 0, // no writer queues: producers push inline
                    quiet_ms,
                })
            })
            .collect()
    }

    /// Exchange `Bye` records and, on clean runs, keep draining until
    /// every peer's `Bye` arrived — both sides drain, so the `Bye`s
    /// always flow. Aborted runs force-push `Bye` under a hard budget.
    /// Then stop the progress thread.
    fn close(&self, fabric: &Fabric) {
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

    fn wait_slice(&self, fabric: &Fabric, completion: &Completion) -> bool {
        // Past the polling window, park — the doorbell wakes the
        // progress thread, which completes us.
        self.poll_until_none(fabric, || usize::from(!completion.is_set()))
            || completion.wait_timeout(WAIT_SLICE)
    }

    fn poll_burst(&self, fabric: &Fabric, _: Option<usize>, completions: &[Arc<Completion>]) {
        // One polling session — one doorbell hand-off — per burst; an
        // empty one is nothing to wait for (a CTS rings the doorbell).
        self.poll_until_none(fabric, unset_in(completions));
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
/// passing the memfd over the mesh's Unix sockets with `SCM_RIGHTS`.
/// Rank 0 waits for a one-byte ACK from every peer before returning, so
/// no rank starts pushing before every mapping exists (the heartbeat
/// monitor keys off the attach flags the ACKs order). Consumes nothing
/// from the mesh — the sockets stay open (and are dropped by the caller
/// once the transport is built).
pub(crate) fn bootstrap(mesh: &mut Mesh, params: IpcParams) -> Result<Segment, PcommError> {
    let misuse = |rank: usize, what: &str, e: std::io::Error| PcommError::Misuse {
        rank: Some(rank),
        detail: format!("ipc bootstrap: {what}: {e}"),
    };
    let (rank, n_ranks) = (mesh.rank, mesh.n_ranks);
    let sock = |mesh: &Mesh, r: usize| -> Result<i32, PcommError> {
        match &mesh.peers[r] {
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
    };
    // Bounded reads: a peer that dies mid-bootstrap becomes a typed
    // error, not a hang.
    for ep in mesh.peers.iter().flatten() {
        let _ = ep.set_read_timeout(Some(pcomm_net::mesh::ESTABLISH_TIMEOUT));
    }
    let segment = if rank == 0 {
        let (segment, fd) =
            Segment::create(params).map_err(|e| misuse(rank, "creating the segment", e))?;
        // ORDERING: attach latch — Release pairs with the monitors'
        // Acquire loads so a set flag implies a live mapping.
        segment.attached(0).store(1, Ordering::Release);
        for r in 1..n_ranks {
            ipc::send_segment_fd(sock(mesh, r)?, fd, 0)
                .map_err(|e| misuse(rank, "passing the segment fd", e))?;
        }
        // Collect one ACK byte per peer: after this, every rank is
        // mapped and no push can outrun an attach.
        for r in 1..n_ranks {
            let mut byte = [0u8; 1];
            let ep = mesh.peers[r]
                .as_mut()
                // PANIC: `sock` above already proved the endpoint exists.
                .expect("endpoint checked above");
            ep.read_exact(&mut byte)
                .map_err(|e| misuse(rank, "waiting for a peer's attach ACK", e))?;
        }
        let _ = sys::close(fd);
        segment
    } else {
        let (fd, from) = ipc::recv_segment_fd(sock(mesh, 0)?)
            .map_err(|e| misuse(rank, "receiving the segment fd", e))?;
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
            // PANIC: `sock` above already proved the endpoint exists.
            .expect("endpoint checked above");
        ep.write_all(&[1u8])
            .map_err(|e| misuse(rank, "sending the attach ACK", e))?;
        segment
    };
    for ep in mesh.peers.iter().flatten() {
        let _ = ep.set_read_timeout(None);
    }
    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::PostedRecv;

    /// Both ranks' carriers over one fresh segment of `params` (two
    /// mappings of one memfd), each with its own traced fabric. Never
    /// started: the test moves every record.
    fn both_ranks(params: IpcParams) -> Option<[(Arc<Fabric>, Arc<IpcTransport>); 2]> {
        if !sys::supported() {
            return None;
        }
        let (segment, fd) = Segment::create(params).expect("memfd segment");
        let attached = Segment::attach(fd, params).expect("second mapping");
        let _ = sys::close(fd);
        Some([(segment, 0), (attached, 1)].map(|(segment, rank)| {
            let carrier = Arc::new(IpcTransport::new(segment, rank, 2));
            let trace = pcomm_trace::Trace::ring(1024);
            let as_dyn = Arc::clone(&carrier) as Arc<dyn Transport>;
            (
                Fabric::new_configured(2, 1, 1024, trace, None, as_dyn),
                carrier,
            )
        }))
    }

    /// Rank 0's carrier, plus rank 1's producer end of the 1→0 ring for
    /// writing hostile descriptors. The test is the drainer.
    fn hostile_peer() -> Option<(Arc<Fabric>, Arc<IpcTransport>, Channel)> {
        let params = IpcParams {
            n_ranks: 2,
            ring_slots: 8,
            fifo_bytes: 64 << 10,
            arena_bytes: 1 << 20,
        };
        let [(fabric, carrier), _] = both_ranks(params)?;
        let peer_out = carrier.segment.channel(1, 0);
        Some((fabric, carrier, peer_out))
    }

    fn misuse_naming_the_peer(fabric: &Fabric) -> String {
        match fabric.failure_snapshot() {
            Some(PcommError::Misuse {
                rank: Some(1),
                detail,
            }) => detail,
            other => panic!("expected Misuse naming rank 1, got {other:?}"),
        }
    }

    #[test]
    fn a_peer_written_range_offset_cannot_leave_a_rendezvous_destination() {
        let Some((fabric, carrier, peer_out)) = hostile_peer() else {
            return;
        };
        // A canary on both sides of the 8-byte destination of a live
        // one-message stream.
        let mut mem = [0xaau8; 24];
        let completion = Completion::new();
        let posted = PostedRecv {
            ctx: 0,
            src: Some(1),
            tag: Some(4),
            dest_ptr: mem[8..16].as_mut_ptr(),
            dest_cap: 8,
            info: Arc::new(Mutex::new(None)),
            completion: Arc::clone(&completion),
            verify_msg: None,
        };
        fabric.wire().accept_remote_rdv(&fabric, 1, 3, 8, posted, 4);
        // `offset + len` wraps to 0 in a release build.
        let desc = SlotDesc {
            kind: K_PARTF,
            parts: 1,
            a: 3,
            b: (usize::MAX - 3) as u64,
            c: 0,
        };
        peer_out
            .try_push_slab(desc, &[&[1, 2, 3, 4]])
            .expect("ring has room");
        assert!(carrier.drain_peer(&fabric, 1, false));
        let detail = misuse_naming_the_peer(&fabric);
        assert!(
            detail.contains("overflows a 8-byte destination"),
            "{detail}"
        );
        assert!(!completion.is_set());
        assert_eq!(mem, [0xaau8; 24]);
    }

    #[test]
    fn a_peer_written_arena_grant_is_checked_before_any_copy() {
        // One byte past the arena, and one that overflows `grant + len`
        // (`u64::MAX` itself is the "no grant" sentinel).
        for grant in [(1u64 << 20) - 4096 + 1, u64::MAX - 1] {
            let Some((fabric, carrier, peer_out)) = hostile_peer() else {
                return;
            };
            let src = vec![7u8; 4096];
            let id = fabric
                .wire()
                .part_stream_begin(&fabric, 1, 9, 4096, Vec::new());
            let desc = SlotDesc {
                kind: K_PART_CTS,
                parts: 0,
                a: id,
                b: grant,
                c: 0,
            };
            peer_out.try_push(desc, &[]).expect("ring has room");
            assert!(carrier.drain_peer(&fabric, 1, false));
            let detail = misuse_naming_the_peer(&fabric);
            assert!(
                detail.contains("exceeds the 1048576-byte arena"),
                "{detail}"
            );
            // The stream never got its CTS: a later `pready` only queues.
            let sent = carrier.peers[1]
                .as_ref()
                .unwrap()
                .frames_sent
                .load(Ordering::Relaxed);
            fabric.wire().part_stream_push(&fabric, id, 0, &src, 1);
            let after = carrier.peers[1]
                .as_ref()
                .unwrap()
                .frames_sent
                .load(Ordering::Relaxed);
            assert_eq!(sent, after, "no K_PART may follow a refused grant");
        }
    }

    /// Backpressure, never loss: rank 1 pushes twelve records into a
    /// two-slot ring with a 4 KiB slab while nobody drains. The push
    /// blocks with the ring full; once the test drains `channel(1, 0)`
    /// every record arrives, in order and bit-exact, and the wait is in
    /// the trace as `ipc_ring_full`.
    #[test]
    fn a_full_ring_blocks_the_producer_and_drops_nothing() {
        let params = IpcParams {
            n_ranks: 2,
            ring_slots: 2,
            fifo_bytes: 4096,
            arena_bytes: 0,
        };
        let Some([_, (fabric, carrier)]) = both_ranks(params) else {
            return;
        };
        // Inline (16 B) and slab-staged (1500 B) records alternate.
        let frames: Vec<Frame> = (0..12u64)
            .map(|i| Frame::Put {
                win_ctx: 7,
                offset: i,
                payload: vec![0x5a ^ i as u8; if i % 2 == 0 { 16 } else { 1500 }],
            })
            .collect();
        let pusher = {
            let (fabric, carrier, frames) = (fabric.clone(), carrier.clone(), frames.clone());
            std::thread::spawn(move || {
                let push = |f: &Frame| carrier.push_frame(&fabric, 0, f, None, false);
                frames.iter().all(push)
            })
        };
        let sent = || {
            carrier.peers[0]
                .as_ref()
                .unwrap()
                .frames_sent
                .load(Ordering::Relaxed)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while sent() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(sent(), 2, "the pusher got past a full two-slot ring");
        assert!(
            !pusher.is_finished(),
            "the pusher returned with the ring full"
        );
        let inbound = carrier.segment.channel(1, 0);
        let mut got = Vec::new();
        while got.len() < frames.len() && Instant::now() < deadline {
            let pop = |desc: &SlotDesc, body: &[u8]| got.push((desc.kind, Frame::decode(body)));
            if !inbound.try_pop(pop).unwrap() {
                std::thread::yield_now();
            }
        }
        assert!(pusher.join().unwrap(), "a push gave up");
        let kinds: Vec<u16> = got.iter().map(|(kind, _)| *kind).collect();
        let want: Vec<u16> = (0..12).map(|i| [K_FRAME, K_SLAB][i % 2]).collect();
        assert_eq!(kinds, want);
        for ((_, frame), sent) in got.into_iter().zip(&frames) {
            assert_eq!(&frame.unwrap(), sent);
        }
        let events = fabric.trace().snapshot().unwrap().events;
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::IpcRingFull { peer: 0, .. })),
            "no ipc_ring_full event: the push never waited"
        );
    }

    /// An arena too small for the transfer refuses the grant: the
    /// receiver gets no destination in it, so its `K_PART_CTS` grants
    /// nothing and the sender streams every byte through the FIFO slab
    /// as `K_PARTF` chunks of half the slab — in order and bit-exact.
    #[test]
    fn an_arena_too_small_for_the_transfer_falls_back_to_the_slab() {
        let params = IpcParams {
            n_ranks: 2,
            ring_slots: 64,
            fifo_bytes: 4096,
            arena_bytes: 1024,
        };
        let Some([(fabric0, receiver), (fabric1, sender)]) = both_ranks(params) else {
            return;
        };
        let src: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
        assert!(receiver.alloc_part_dest(1, src.len()).is_none());
        let id = fabric1
            .wire()
            .part_stream_begin(&fabric1, 0, 9, src.len(), Vec::new());
        let dest = vec![0u8; src.len()];
        receiver.ship_part_cts(&fabric0, 1, id, dest.as_ptr(), dest.len());
        assert!(
            sender.drain_peer(&fabric1, 0, false),
            "the CTS never arrived"
        );
        fabric1.wire().part_stream_push(&fabric1, id, 0, &src, 1);
        let inbound = receiver.segment.channel(1, 0);
        let (mut kinds, mut offsets, mut landed) = (Vec::new(), Vec::new(), vec![0u8; src.len()]);
        let mut pop = |desc: &SlotDesc, body: &[u8]| {
            kinds.push(desc.kind);
            if desc.kind == K_PARTF {
                assert_eq!(desc.a, id);
                offsets.push(desc.b);
                landed[desc.b as usize..][..body.len()].copy_from_slice(body);
            }
        };
        while inbound.try_pop(&mut pop).unwrap() {}
        assert_eq!(kinds, [K_FRAME, K_PARTF, K_PARTF]);
        assert_eq!(offsets, [0, 2048]);
        assert_eq!(landed, src);
    }
}
