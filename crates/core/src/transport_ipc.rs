//! `IpcTransport`: the same-host zero-syscall carrier. Ranks map one
//! shared memory segment (memfd + `MAP_SHARED`, see
//! [`pcomm_net::ipc`]) holding, per directed pair, an SPSC descriptor
//! ring plus a FIFO slab and a partition arena. The protocol is
//! [`crate::wire`]'s; this file only moves its bytes. Frames ride
//! inline in ring slots (bcopy), or in the slab when too large for one.
//! A stream range moves with **one copy**, made by whichever side claims
//! its `K_READY` ([`pcomm_net::ipc::claim`]): the receiver in any drain
//! (then a `K_PULLED` ack), the sender's app thread while it polls in a
//! wait (newest first, then a `K_PART` commit). The `K_PART_CTS` grants
//! the destination's arena offset — a `memcpy` from a source in the
//! arena — or else its address, as for every rendezvous: then each
//! [`PULL_FLOOR`]-sized piece is one cross-memory call to or from the
//! pid the kernel attested for the peer. A smaller range, or a heap
//! source into the arena, is copied by its sender at once. So two cores
//! move one stream, and `parrived` flips without a reader-thread hop.
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

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pcomm_net::frame::{self, Frame};
use pcomm_net::ipc::claim::Pulls;
use pcomm_net::ipc::doorbell::Handoff;
use pcomm_net::ipc::ring::{
    Channel, ReadyRange, SlotDesc, INLINE_MAX, K_FRAME, K_PART, K_PART_CTS, K_PULLED, K_READY,
    K_SLAB,
};
use pcomm_net::ipc::slab::ArenaAlloc;
use pcomm_net::ipc::{Segment, Tallies};
use pcomm_net::sys;
use pcomm_trace::EventKind;

use crate::error::{DoorbellStats, PcommError, PeerSocketState};
use crate::fabric::{Fabric, WAIT_SLICE};
use crate::sync::{Completion, Mutex};
use crate::transport::{poll_window, unset_in, Transport, SPIN_WINDOW};
use crate::transport::{HEARTBEAT_MISS, HEARTBEAT_TICK};
use crate::wire::{answers_with_push, PinChunk, SendSpan, FINALIZE_TIMEOUT};

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

/// Smallest ready range that waits to be claimed (`K_READY`) instead of
/// being copied by its sender at once: below it, the claim, the
/// receiver's ack and a second core's cache misses cost more than the
/// copy they split (`EXPERIMENTS.md`, "Two cores move an ipc partitioned
/// stream"). Also the most a range toward an address moves in one claim:
/// the smallest pieces either side can claim let the receiver read them
/// oldest first while the sender writes them newest first.
const PULL_FLOOR: usize = 64 << 10;

/// Marks a grant as the destination's address in the receiver's
/// process, not an arena offset (no user address sets the top bit).
const ADDR_GRANT: u64 = 1 << 63;

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
    /// Allocator over the *inbound* channel's partition arena: the
    /// buffers of partitioned streams from and toward this peer.
    arena: Mutex<ArenaAlloc>,
    /// Our ready ranges toward this peer not moved yet, by claim slot of
    /// the outbound channel.
    pulls: Mutex<Pulls<Pull>>,
}

/// The destination's address in the receiver's process, for a grant
/// that is one; `None` for an arena offset.
fn grant_addr(grant: u64) -> Option<u64> {
    (grant & ADDR_GRANT != 0).then_some(grant & !ADDR_GRANT)
}

/// A ready range of a stream toward a peer: everything its movers need.
struct Pull {
    rdv_id: u64,
    grant: u64,
    span: Arc<SendSpan>,
    chunk: PinChunk,
}

/// A drained record whose handler may *push* (CTS answers, barrier
/// releases, get responses). Dispatching those while holding the
/// inbound guard — with the popped slot not yet recycled — can
/// deadlock two ranks symmetrically: both blocked pushing into full
/// rings, both drain passes skipping the channel they hold. So pushy
/// records are deferred until the guard drops and the slot is free;
/// everything else dispatches inline (zero extra copies). `Pulled` is
/// the `K_PULLED` ack of a range this side copied.
enum Deferred {
    Frame(Frame),
    PartCts { rdv_id: u64, grant: u64, cap: u64 },
    Pulled(SlotDesc),
}

/// The shared-memory carrier for one rank of a same-host run.
pub(crate) struct IpcTransport {
    rank: usize,
    n_ranks: usize,
    segment: Segment,
    peers: Vec<Option<IpcPeer>>,
    progress: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
    /// Who owns this rank's inbound doorbell right now: polling app
    /// threads or the parked progress thread.
    handoff: Handoff,
    /// Doorbell and copy tallies ([`DoorbellStats`]).
    tallies: Tallies,
}

impl IpcTransport {
    pub(crate) fn new(segment: Segment, rank: usize, n_ranks: usize) -> IpcTransport {
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
                arena: Mutex::new(ArenaAlloc::new(segment.params().arena_bytes)),
                pulls: Mutex::new(Pulls::default()),
            }));
        }
        IpcTransport {
            rank,
            n_ranks,
            segment,
            peers,
            progress: Mutex::new(None),
            stop: AtomicBool::new(false),
            handoff: Handoff::new(),
            tallies: Tallies::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Producer side: publishing records with backpressure.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Publish one record toward `dst` — its payload copied into the
    /// FIFO slab for `K_SLAB`, into the ring slot for the others
    /// — blocking on the peer's space doorbell while the ring (or FIFO)
    /// is full. Returns `false` when
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
        body: &[u8],
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
                let ok = match desc.kind {
                    K_SLAB => out.try_push_slab(desc, &[body]).is_ok(),
                    _ => out.try_push(desc, body).is_ok(),
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
                Tallies::bump(&self.tallies.rings);
                if self.segment.doorbell(dst).ring().unwrap_or(false) {
                    Tallies::bump(&self.tallies.wakes);
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
            if self.drain_all(fabric, false) {
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
        let (body, fifo_bytes) = (frame::body_of(&buf), self.segment.params().fifo_bytes);
        if body.len() as u64 > fifo_bytes {
            fabric.fail(PcommError::misuse(
                self.rank,
                format!(
                    "ipc frame body of {} B exceeds the {}-byte FIFO slab \
                     (one RMA transfer larger than that must be split)",
                    body.len(),
                    fifo_bytes
                ),
            ));
            return false;
        }
        let kind = if body.len() <= INLINE_MAX {
            K_FRAME
        } else {
            K_SLAB
        };
        let desc = SlotDesc::new(kind, 0, 0, 0, 0);
        self.push_record(fabric, dst, frame.op(), desc, body, deadline, force)
    }
}

// ---------------------------------------------------------------------
// Consumer side: draining records and dispatching.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// One drain pass over every peer; returns whether any record was
    /// consumed. `wait_for_drainer` is for the
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
                            K_PART | K_READY => frame::op::PART_DATA as u16,
                            K_PART_CTS => frame::op::PART_CTS as u16,
                            K_PULLED => frame::op::HEARTBEAT as u16,
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
                    // Offsets and lengths in `desc` are the peer's word;
                    // the engine bounds-checks them before `dest` exists.
                    let wire = fabric.wire();
                    let (id, at, len) = (desc.a, desc.b as usize, desc.c as usize);
                    match desc.kind {
                        // Commit: the sender copied the range into the
                        // granted destination; bookkeeping remains.
                        K_PART => {
                            let _ = wire.land_part(fabric, src, id, at, len, |_| Ok(len));
                        }
                        K_READY => deferred = self.pull(fabric, src, peer, desc, payload),
                        K_PULLED => self.pulled(fabric, src, peer, desc.a, desc.b),
                        // An arena offset (the engine checks it against
                        // the arena), or else the destination's address.
                        K_PART_CTS => {
                            let (grant, cap) = match desc.b {
                                u64::MAX => (desc.c | ADDR_GRANT, u64::MAX),
                                offset => (offset, peer.out_ch.arena_bytes()),
                            };
                            let rdv_id = desc.a;
                            deferred = Some(Deferred::PartCts { rdv_id, grant, cap });
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
                Some(Deferred::PartCts { rdv_id, grant, cap }) => {
                    fabric
                        .wire()
                        .handle_part_cts(fabric, src, rdv_id, Some(grant), cap)
                }
                Some(Deferred::Pulled(ack)) => {
                    self.push_record(fabric, src, frame::op::HEARTBEAT, ack, &[], None, false);
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
// Stream ranges: one copy, by whichever side claims it.
// ---------------------------------------------------------------------

impl IpcTransport {
    /// Sender: copy a range into the receiver's destination — into the
    /// arena, or with cross-memory writes into the receiver's process —
    /// and publish its payload-less `K_PART` commit, so the receiver
    /// commits in place. Called at once for a range nobody pulls, and
    /// from a polling app thread for a ready range it claimed.
    fn copy_out(&self, fabric: &Fabric, dst: usize, pull: &Pull) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let (chunk, offset, len) = (pull.chunk, pull.chunk.offset, pull.chunk.len);
        match grant_addr(pull.grant) {
            // SAFETY: the receiver granted `grant .. grant + total_len` of
            // the outbound channel's arena to this stream (checked against
            // the arena size when the CTS arrived) and will not read
            // `offset..offset+len` of it until the K_PART below publishes;
            // nobody else copies the range (it was never published, or this
            // side won its claim); the source side is invariant (1).
            None => unsafe {
                let dest = peer.out_ch.arena_ptr(pull.grant + offset);
                std::ptr::copy_nonoverlapping(chunk.ptr, dest, len);
            },
            Some(base) => {
                // SAFETY: invariant (1) — the source stays pinned until
                // its bytes count off the span below.
                let src = unsafe { std::slice::from_raw_parts(chunk.ptr, len) };
                // The kernel checks the receiver's word against its mappings.
                if let Err(e) = sys::process_vm_writev(self.segment.pid(dst), src, base + offset) {
                    let what = format!("destination {base:#x}+{offset}+{len} of rank {dst}");
                    return fabric.fail(PcommError::misuse(dst, format!("{what} unwritten: {e}")));
                }
            }
        }
        let desc = SlotDesc::new(K_PART, chunk.parts, pull.rdv_id, offset, len as u64);
        if self.push_record(fabric, dst, frame::op::PART_DATA, desc, &[], None, false) {
            pull.span.left(len);
        }
    }

    /// Sender, from a polling app thread: claim the newest ready range no
    /// peer has claimed and copy it here. Returns whether it did.
    fn claim_own(&self, fabric: &Fabric) -> bool {
        if fabric.aborted() {
            return false;
        }
        for (dst, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            let claimed = peer.pulls.lock().claim_newest(&peer.out_ch.claims());
            if let Some(pull) = claimed {
                self.copy_out(fabric, dst, &pull);
                return true;
            }
        }
        false
    }

    /// Receiver: `src` has a range ready (`K_READY`). Check the peer's
    /// words, then claim it and copy it into the destination: out of the
    /// peer's window, or with cross-memory reads from the peer's process,
    /// whose pid the kernel attested, for a range at an address. The
    /// `K_PULLED` to send once this side claimed it.
    fn pull(
        &self,
        fabric: &Fabric,
        src: usize,
        peer: &IpcPeer,
        desc: &SlotDesc,
        payload: &[u8],
    ) -> Option<Deferred> {
        let (at, len, window) = (desc.b as usize, desc.c as usize, &peer.out_ch);
        let ready = (ReadyRange::check(payload, len, window))
            .map_err(|detail| fabric.fail(PcommError::misuse(src, detail)))
            .ok()?;
        let (claims, idx, seq) = (peer.inb_ch.claims(), ready.idx as usize, ready.seq);
        let (mut won, wire) = (false, fabric.wire());
        let _ = wire.land_part(fabric, src, desc.a, at, len, |dest| {
            if !claims.claim(idx, seq) {
                return Ok(0);
            }
            if ready.addr {
                // The kernel checks the peer's word against its mappings.
                if let Err(e) = sys::process_vm_readv(self.segment.pid(src), dest, ready.src) {
                    let what = format!("ready range {:#x}+{len} of rank {src}", ready.src);
                    fabric.fail(PcommError::misuse(src, format!("{what} unread: {e}")));
                    return Ok(0);
                }
            } else {
                // SAFETY: `ReadyRange::check` put `src..src+len` inside the
                // window, and the won claim keeps the sender off the range
                // until our `K_PULLED` reaches it.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        window.arena_ptr(ready.src),
                        dest.as_mut_ptr(),
                        len,
                    )
                };
            }
            won = true;
            Ok(len)
        });
        if !won {
            return None; // the sender copied it (or the stream is gone)
        }
        Tallies::bump(&self.tallies.copied_for_peers);
        let ack = SlotDesc::new(K_PULLED, 0, ready.idx, seq, 0);
        Some(Deferred::Pulled(ack))
    }

    /// Sender: `src` claimed and copied our ready range `(idx, seq)`
    /// (`K_PULLED`) — its bytes count off its span. An ack for a range
    /// we never published, or that `src` never claimed, is misuse.
    fn pulled(&self, fabric: &Fabric, src: usize, peer: &IpcPeer, idx: u64, seq: u64) {
        let acked = peer.pulls.lock().acked(&peer.out_ch.claims(), idx, seq);
        match acked {
            Ok(pull) => {
                Tallies::bump(&self.tallies.copied_by_peers);
                pull.span.left(pull.chunk.len);
            }
            Err(e) if !fabric.aborted() => fabric.fail(PcommError::misuse(
                src,
                format!(
                    "ack for a ready range never published (claim {idx}, sequence {seq}: {e:?})"
                ),
            )),
            Err(_) => {}
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
        let (mut last_tick, mut last_work) = (Instant::now(), Instant::now());
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if last_tick.elapsed() >= HEARTBEAT_TICK {
                self.heartbeat_tick(fabric);
                last_tick = Instant::now();
            }
            if self.drain_all(fabric, false) {
                last_work = Instant::now();
                continue;
            }
            // After work, and while no app thread polls, poll on for a
            // window as a waiting app thread does: a peer's ranges readied
            // microseconds apart then cost one wake, not one each.
            if last_work.elapsed() < SPIN_WINDOW && !self.handoff.polled() {
                std::thread::yield_now();
                continue;
            }
            let bell = self.segment.doorbell(self.rank);
            let seen = bell.seq();
            // Re-check after the snapshot: a producer that pushed and
            // rang between the drain above and here bumped the bell, so
            // the park below would return immediately anyway — this
            // just skips the syscall.
            if self.drain_all(fabric, false) {
                continue;
            }
            // Counted only while no app thread polls (the hand-off);
            // either way bounded by the tick, so heartbeats and
            // peer-death detection keep their cadence.
            let Ok(parked) = self.handoff.park(&bell, seen, tick_ns) else {
                continue;
            };
            let t = &self.tallies;
            Tallies::bump(if parked.counted {
                &t.parks_counted
            } else {
                &t.parks_uncounted
            });
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
    /// `FUTEX_WAKE` — and so are our ready ranges nobody claimed yet.
    fn poll_until_none(&self, fabric: &Fabric, mut pending: impl FnMut() -> usize) -> bool {
        if pending() == 0 {
            return true;
        }
        let bell = self.segment.doorbell(self.rank);
        self.handoff.poller_enter(&bell);
        let done = poll_window(
            || self.drain_all(fabric, false) | self.claim_own(fabric),
            pending,
        );
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
        let t = &self.tallies;
        DoorbellStats {
            rings: Tallies::read(&t.rings),
            wakes: Tallies::read(&t.wakes),
            parks_counted: Tallies::read(&t.parks_counted),
            parks_uncounted: Tallies::read(&t.parks_uncounted),
            copied_for_peers: Tallies::read(&t.copied_for_peers),
            copied_by_peers: Tallies::read(&t.copied_by_peers),
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

    /// Answer with a `K_PART_CTS` carrying the arena grant, or `u64::MAX`
    /// and the destination's address: ordinary heap memory, which either
    /// side reaches with cross-memory attach.
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
        // `alloc_part_buf`), tell the sender its base offset so either
        // side can copy a ready range straight into it.
        let grant =
            (self.peers[src].as_ref()).and_then(|peer| peer.inb_ch.arena_offset(base, total_len));
        let (b, c) = grant.map_or((u64::MAX, base as u64), |offset| (offset, 0));
        let desc = SlotDesc::new(K_PART_CTS, 0, rdv_id, b, c);
        self.push_record(fabric, src, frame::op::PART_CTS, desc, &[], None, false);
    }

    /// Sender: put one ready range in the receiver's hands: toward an
    /// address, one `K_READY` per [`PULL_FLOOR`]-sized piece, naming the
    /// piece's address in this process; into the arena, one naming the
    /// source's offset there if it has one. Either side may claim a
    /// `K_READY`; any other piece is copied at once ([`Self::copy_out`]).
    fn ship_chunk(
        &self,
        fabric: &Fabric,
        dst: usize,
        rdv_id: u64,
        grant: Option<u64>,
        span: &Arc<SendSpan>,
        chunk: PinChunk,
    ) {
        let Some(peer) = &self.peers[dst] else {
            return;
        };
        let (p16, stream, len32) = (dst as u16, rdv_id as u32, chunk.len as u32);
        fabric
            .trace()
            .emit_verify(self.rank as u16, || EventKind::VerifyStreamData {
                peer: p16,
                lane: 0,
                tx: true,
                stream,
                offset: chunk.offset,
                len: len32,
            });
        // Every `K_PART_CTS` this carrier reads carries a grant.
        let Some(grant) = grant else {
            return fabric.fail(PcommError::misuse(dst, "a credit without a grant"));
        };
        let addr = grant_addr(grant).is_some();
        let piece = if addr { PULL_FLOOR } else { chunk.len.max(1) };
        for at in (0..chunk.len).step_by(piece) {
            let len = piece.min(chunk.len - at);
            let part = PinChunk {
                offset: chunk.offset + at as u64,
                // SAFETY: `at < chunk.len`: inside the pinned source.
                ptr: unsafe { chunk.ptr.add(at) },
                len,
                parts: chunk.parts,
            };
            // Open a claim slot where the peer can read the source (at its
            // address, or in the arena we keep for the peer), or copy at
            // once: a range the peer cannot read, or one the table lacks
            // room for.
            let src = match addr {
                _ if len < PULL_FLOOR => None,
                true => Some(part.ptr as u64),
                false => peer.inb_ch.arena_offset(part.ptr, len),
            };
            let (claims, span) = (peer.out_ch.claims(), Arc::clone(span));
            let pull = Pull {
                rdv_id,
                grant,
                span,
                chunk: part,
            };
            let opened = match src {
                Some(src) => (peer.pulls.lock().open(&claims, pull)).map(|(idx, seq)| ReadyRange {
                    src,
                    idx: idx as u64,
                    seq,
                    addr,
                }),
                None => Err(pull),
            };
            match opened {
                Ok(ready) => {
                    let desc = SlotDesc::new(K_READY, part.parts, rdv_id, part.offset, len as u64);
                    let op = frame::op::PART_DATA;
                    self.push_record(fabric, dst, op, desc, &ready.encode(), None, false);
                }
                Err(pull) => self.copy_out(fabric, dst, &pull),
            }
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
                if !self.drain_all(fabric, false) {
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

    fn alloc_part_buf(&self, peer: usize, len: usize) -> Option<(u64, *mut u8)> {
        if len == 0 {
            return None;
        }
        let peer = self.peers[peer].as_ref()?;
        if (len as u64) > peer.inb_ch.arena_bytes() {
            return None;
        }
        let off = peer.arena.lock().alloc(len as u64)?;
        // SAFETY: `alloc` returned a range inside `0..arena_bytes`; the
        // request owns it until `release_part_buf`.
        Some((off, unsafe { peer.inb_ch.arena_ptr(off) }))
    }

    fn release_part_buf(&self, peer: usize, token: u64, len: usize) {
        if let Some(peer) = self.peers[peer].as_ref() {
            peer.arena.lock().release(token, len as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::PostedRecv;
    use crate::part::PartOptions;
    use crate::wire::tests::source;
    use crate::Comm;
    use pcomm_net::ipc::claim::CLAIM_SLOTS;
    use pcomm_net::ipc::IpcParams;
    use pcomm_net::sys;

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
        // `offset + len` wraps to 0 in a release build; the source is a
        // real 4-byte range of the peer's (this process's) memory.
        let source = [1u8, 2, 3, 4];
        let ready = ReadyRange {
            src: source.as_ptr() as u64,
            idx: 0,
            seq: 1,
            addr: true,
        };
        let at = (usize::MAX - 3) as u64;
        refused_ready(ready, at, 4, "overflows a 8-byte destination");
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
            let (s, _) = source(fabric.wire(), 1, &src, &[(0, 4096, 1)]);
            fabric.wire().part_send_start(&fabric, 9, &s, 1);
            let desc = SlotDesc {
                kind: K_PART_CTS,
                parts: 0,
                a: s.id,
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
            // The stream never got its CTS: a later issue only waits.
            let sent = carrier.peers[1]
                .as_ref()
                .unwrap()
                .frames_sent
                .load(Ordering::Relaxed);
            fabric.wire().part_issue(&fabric, &s, 0, 1);
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
    /// receiver's destination is heap memory, so its `K_PART_CTS` grants
    /// its address, and the sender's range goes out in [`PULL_FLOOR`]s — three
    /// address-form `K_READY`s and a short tail the sender writes at
    /// once; no slab record carries stream bytes. The sender, polling,
    /// claims and writes the newest piece; the receiver reads the other
    /// two and acks them, which completes the sender. Every byte lands.
    #[test]
    fn an_arena_too_small_for_the_transfer_is_moved_by_both_sides_in_pieces() {
        let params = IpcParams {
            n_ranks: 2,
            ring_slots: 64,
            fifo_bytes: 4096,
            arena_bytes: 1024,
        };
        let Some([(fabric0, receiver), (fabric1, sender)]) = both_ranks(params) else {
            return;
        };
        let src: Vec<u8> = (0..3 * PULL_FLOOR as u32 + 4096)
            .map(|i| (i * 7 + 3) as u8)
            .collect();
        assert!(receiver.alloc_part_buf(1, src.len()).is_none());
        let (s, done) = source(fabric1.wire(), 0, &src, &[(0, src.len(), 1)]);
        fabric1.wire().part_send_start(&fabric1, 9, &s, 1);
        let mut dest = vec![0u8; src.len()];
        let landed = Completion::new();
        let posted = PostedRecv {
            ctx: 9,
            src: Some(1),
            tag: Some(0),
            dest_ptr: dest.as_mut_ptr(),
            dest_cap: dest.len(),
            info: Arc::new(Mutex::new(None)),
            completion: Arc::clone(&landed),
            verify_msg: None,
        };
        // Pins the heap destination and answers with an address-form CTS.
        let wire0 = fabric0.wire();
        wire0.accept_remote_rdv(&fabric0, 1, s.id, src.len(), posted, 0);
        assert!(
            sender.drain_peer(&fabric1, 0, false),
            "the CTS never arrived"
        );
        fabric1.wire().part_issue(&fabric1, &s, 0, 1);
        assert!(sender.claim_own(&fabric1), "the sender claimed no piece");
        let (inbound, peer) = (receiver.segment.channel(1, 0), receiver.peers[1].as_ref());
        let (mut kinds, mut acks) = (Vec::new(), Vec::new());
        let mut pop = |desc: &SlotDesc, body: &[u8]| {
            kinds.push((desc.kind, desc.b));
            if desc.kind == K_READY {
                let ready = ReadyRange::decode(body).expect("a ready range");
                assert!(ready.addr && ready.src == src.as_ptr() as u64 + desc.b);
                acks.extend(receiver.pull(&fabric0, 1, peer.unwrap(), desc, body));
            } else if desc.kind == K_PART {
                let (at, len) = (desc.b as usize, desc.c as usize);
                let _ = wire0.land_part(&fabric0, 1, desc.a, at, len, |_| Ok(len));
            }
        };
        while inbound.try_pop(&mut pop).unwrap() {}
        // The PartRts (an inline frame), the three pieces, the tail the
        // sender wrote at once and the piece it claimed: nothing else.
        let piece = |k: usize| (k * PULL_FLOOR) as u64;
        let want = [
            (K_FRAME, 0),
            (K_READY, piece(0)),
            (K_READY, piece(1)),
            (K_READY, piece(2)),
            (K_PART, piece(3)),
            (K_PART, piece(2)),
        ];
        assert_eq!(kinds, want);
        assert!(landed.is_set() && dest == src, "the transfer did not land");
        assert_eq!(acks.len(), 2, "the receiver did not ack its two pieces");
        for ack in acks {
            let Deferred::Pulled(ack) = ack else {
                panic!("a pull answered with something but an ack");
            };
            assert!(receiver.push_record(&fabric0, 1, frame::op::HEARTBEAT, ack, &[], None, false));
            assert!(!done.is_set(), "the sender let go before the last ack");
            assert!(sender.drain_peer(&fabric1, 0, false));
        }
        assert!(done.is_set(), "the acks did not complete the sender");
        let (r, w) = (receiver.doorbell_stats_now(), sender.doorbell_stats_now());
        assert_eq!((r.copied_for_peers, w.copied_by_peers), (2, 2));
        assert!(fabric0.failure_snapshot().is_none() && fabric1.failure_snapshot().is_none());
    }

    /// A peer's `K_PART_CTS` granting an address it does not map: the
    /// sender's write fails as a typed `Misuse` naming the peer (the
    /// kernel checked the word), and no commit follows.
    #[test]
    fn a_destination_address_the_peer_does_not_map_is_refused_not_a_fault() {
        let Some((fabric, carrier, peer_out)) = hostile_peer() else {
            return;
        };
        let src = vec![7u8; 4096];
        let (s, _) = source(fabric.wire(), 1, &src, &[(0, 4096, 1)]);
        fabric.wire().part_send_start(&fabric, 9, &s, 1);
        let desc = SlotDesc::new(K_PART_CTS, 0, s.id, u64::MAX, 8);
        peer_out.try_push(desc, &[]).expect("ring has room");
        assert!(carrier.drain_peer(&fabric, 1, false));
        fabric.wire().part_issue(&fabric, &s, 0, 1);
        let detail = misuse_naming_the_peer(&fabric);
        assert!(detail.contains("unwritten: Bad address"), "{detail}");
        let (toward_peer, mut kinds) = (carrier.segment.channel(0, 1), Vec::new());
        while toward_peer.try_pop(|d, _| kinds.push(d.kind)).unwrap() {}
        assert!(!kinds.contains(&K_PART), "a commit followed a failed write");
    }

    /// A live 8-byte rendezvous destination at rank 0 for stream 3 from
    /// rank 1, with canaries on both sides (as in the range-offset
    /// test), and claim 0 of the 1→0 table opened under sequence 1.
    fn live_destination(fabric: &Arc<Fabric>, peer_out: &Channel, mem: &mut [u8; 24]) {
        let posted = PostedRecv {
            ctx: 0,
            src: Some(1),
            tag: Some(4),
            dest_ptr: mem[8..16].as_mut_ptr(),
            dest_cap: 8,
            info: Arc::new(Mutex::new(None)),
            completion: Completion::new(),
            verify_msg: None,
        };
        fabric.wire().accept_remote_rdv(fabric, 1, 3, 8, posted, 4);
        peer_out.claims().open(0, 1);
    }

    /// A peer's `K_READY` for `at..at+len` of the destination the
    /// receiver must refuse: a typed `Misuse` naming the peer, with the
    /// destination, the peer's window and the claim word untouched.
    fn refused_ready(ready: ReadyRange, at: u64, len: u64, want: &str) {
        let Some((fabric, carrier, peer_out)) = hostile_peer() else {
            return;
        };
        let mut mem = [0xaau8; 24];
        live_destination(&fabric, &peer_out, &mut mem);
        let desc = SlotDesc::new(K_READY, 1, 3, at, len);
        peer_out
            .try_push(desc, &ready.encode())
            .expect("ring has room");
        assert!(carrier.drain_peer(&fabric, 1, false));
        let detail = misuse_naming_the_peer(&fabric);
        assert!(detail.contains(want), "{detail}");
        assert_eq!(mem, [0xaau8; 24]);
        assert!(
            peer_out.claims().claim(0, 1),
            "the refused range was claimed"
        );
        assert_eq!(carrier.doorbell_stats_now().copied_for_peers, 0);
    }

    #[test]
    fn a_ready_range_outside_the_peers_window_is_refused_before_any_copy() {
        // Past the end, and a source offset whose end overflows.
        for src in [(1u64 << 20) - 4, u64::MAX - 2] {
            refused_ready(
                ReadyRange {
                    src,
                    idx: 0,
                    seq: 1,
                    addr: false,
                },
                0,
                8,
                "leaves the peer's 1048576-byte window",
            );
        }
    }

    #[test]
    fn a_ready_range_naming_a_claim_outside_the_table_is_refused() {
        let idx = CLAIM_SLOTS as u64;
        refused_ready(
            ReadyRange {
                src: 0,
                idx,
                seq: 1,
                addr: false,
            },
            0,
            8,
            "outside the 64-slot table",
        );
    }

    #[test]
    fn a_ready_range_past_the_posted_buffer_is_refused_before_any_read() {
        let source = [9u8; 16];
        let ready = ReadyRange {
            src: source.as_ptr() as u64,
            idx: 0,
            seq: 1,
            addr: true,
        };
        refused_ready(ready, 0, 16, "overflows a 8-byte destination");
    }

    /// A peer's address-form `K_READY` for the whole 8-byte destination
    /// whose read fails: a typed `Misuse` naming the peer, nothing
    /// written outside the destination, no ack, no completion.
    fn unreadable_ready(src: u64, want: &str) {
        let Some((fabric, carrier, peer_out)) = hostile_peer() else {
            return;
        };
        let mut mem = [0xaau8; 24];
        live_destination(&fabric, &peer_out, &mut mem);
        let ready = ReadyRange {
            src,
            idx: 0,
            seq: 1,
            addr: true,
        };
        let desc = SlotDesc::new(K_READY, 1, 3, 0, 8);
        peer_out
            .try_push(desc, &ready.encode())
            .expect("ring has room");
        assert!(carrier.drain_peer(&fabric, 1, false));
        let detail = misuse_naming_the_peer(&fabric);
        assert!(detail.contains(want), "{detail}");
        assert_eq!((&mem[..8], &mem[16..]), (&[0xaa; 8][..], &[0xaa; 8][..]));
        assert_eq!(carrier.doorbell_stats_now().copied_for_peers, 0);
        let (toward_peer, mut acked) = (carrier.segment.channel(0, 1), false);
        while toward_peer
            .try_pop(|d, _| acked |= d.kind == K_PULLED)
            .unwrap()
        {}
        assert!(!acked, "a failed read was acked");
    }

    #[test]
    fn a_ready_address_the_peer_does_not_map_is_refused_not_a_fault() {
        // The zero page, and a range that wraps the address space.
        for src in [8, u64::MAX - 4] {
            unreadable_ready(src, "Bad address");
        }
    }

    #[test]
    fn a_ready_source_shorter_than_it_claims_is_refused() {
        if !sys::supported() {
            return;
        }
        // Two mapped pages over a one-page file: the second page is in
        // the mapping but has nothing behind it, so a read stops there.
        let fd = sys::memfd_create("pcomm-short-source").unwrap();
        sys::ftruncate(fd, 4096).unwrap();
        let base = sys::mmap_shared(fd, 8192).unwrap();
        sys::close(fd).unwrap();
        unreadable_ready(base as u64 + 4092, "4 of 8 B moved");
        // SAFETY: `base..base + 8192` is the one mapping made above, and
        // nothing reads it any more.
        unsafe { sys::munmap(base, 8192).unwrap() };
    }

    #[test]
    fn an_ack_for_a_range_never_published_is_refused() {
        let Some((fabric, carrier, peer_out)) = hostile_peer() else {
            return;
        };
        // Rank 0 opened nothing toward rank 1; claim 0 of its table even
        // reads "claimed under sequence 1" — there is still no range.
        carrier.segment.channel(0, 1).claims().open(0, 1);
        assert!(carrier.segment.channel(0, 1).claims().claim(0, 1));
        for (idx, seq) in [(0, 1), (CLAIM_SLOTS as u64, 1)] {
            let desc = SlotDesc::new(K_PULLED, 0, idx, seq, 0);
            peer_out.try_push(desc, &[]).expect("ring has room");
        }
        assert!(carrier.drain_peer(&fabric, 1, false));
        let detail = misuse_naming_the_peer(&fabric);
        assert!(
            detail.contains("ack for a ready range never published"),
            "{detail}"
        );
        assert_eq!(carrier.doorbell_stats_now().copied_by_peers, 0);
    }

    /// Geometry with room for a 16 x 256 KiB stream both ways.
    fn stream_params() -> IpcParams {
        IpcParams {
            n_ranks: 2,
            ring_slots: 128,
            fifo_bytes: 1 << 20,
            arena_bytes: 16 << 20,
        }
    }

    const PARTS: usize = 16;
    const PART_BYTES: usize = 256 << 10;

    /// The bytes of partition `p` in iteration `iter`: four variants,
    /// made once, so a write is one copy.
    fn patterns() -> Vec<Vec<u8>> {
        (0..4 * PARTS)
            .map(|k| (0..PART_BYTES).map(|i| (i * 31 + k * 7) as u8).collect())
            .collect()
    }

    /// Rank 1 streams `iters` iterations of 16 x 256 KiB to rank 0 over
    /// a fresh segment, both carriers' progress threads running as in a
    /// real run. The sender writes every partition, readies them all,
    /// then waits. In an iteration `held` names, rank 0 only probes
    /// `parrived` until everything arrived and the sender enters `wait`
    /// only after that, so rank 0's progress thread must move every
    /// range; in the others rank 0 waits at once. Checks every byte and
    /// returns both carriers' tallies.
    fn stream(iters: usize, held: impl Fn(usize) -> bool + Sync) -> Option<[DoorbellStats; 2]> {
        let [(f0, c0), (f1, c1)] = both_ranks(stream_params())?;
        for (c, f) in [(&c0, &f0), (&c1, &f1)] {
            Arc::clone(c).start(f).expect("progress thread");
        }
        let (bytes, arrived) = (patterns(), AtomicU64::new(0));
        let want = |iter: usize, p: usize| &bytes[(iter % 4) * PARTS + p][..];
        std::thread::scope(|s| {
            let (f0, arrived, held) = (&f0, &arrived, &held);
            s.spawn(move || {
                let comm = Comm::world(Arc::clone(f0), 0);
                let pr = comm.precv_init(1, 7, PARTS, PART_BYTES, PartOptions::default());
                for iter in 0..iters {
                    pr.start();
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while held(iter) && !(0..PARTS).all(|p| pr.parrived(p)) {
                        assert!(
                            Instant::now() < deadline,
                            "the progress thread never landed it"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    arrived.store(iter as u64 + 1, Ordering::Release);
                    pr.wait();
                    for p in 0..PARTS {
                        let ok = pr.partition(p) == want(iter, p);
                        assert!(ok, "iteration {iter} partition {p}");
                    }
                }
            });
            let comm = Comm::world(Arc::clone(&f1), 1);
            let ps = comm.psend_init(0, 7, PARTS, PART_BYTES, PartOptions::default());
            for iter in 0..iters {
                ps.start();
                for p in 0..PARTS {
                    ps.write_partition(p, |buf| buf.copy_from_slice(want(iter, p)));
                }
                ps.pready_range(0, PARTS - 1);
                while held(iter) && arrived.load(Ordering::Acquire) <= iter as u64 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ps.wait();
            }
        });
        std::thread::scope(|s| {
            s.spawn(|| c0.close(&f0));
            c1.close(&f1);
        });
        assert!(f0.failure_snapshot().is_none() && f1.failure_snapshot().is_none());
        Some([c0.doorbell_stats_now(), c1.doorbell_stats_now()])
    }

    /// Every range lands bit-exact and is copied once — by the receiver
    /// (then acked) or by the sender — and each side copies some: all
    /// of every held iteration's ranges go to the receiver, and a
    /// sender that waits right after readying its ranges claims the
    /// newest one before the receiver, working oldest first, gets to it.
    #[test]
    fn a_stream_is_copied_by_both_sides() {
        const ITERS: u64 = 40;
        let Some([receiver, sender]) = stream(ITERS as usize, |iter| iter % 2 == 1) else {
            return;
        };
        let pulled = receiver.copied_for_peers;
        assert_eq!(
            pulled, sender.copied_by_peers,
            "every pulled range is acked once"
        );
        assert!(
            pulled >= ITERS / 2 * PARTS as u64,
            "the receiver copied {pulled} ranges, fewer than the held iterations'"
        );
        assert!(
            pulled < ITERS * PARTS as u64,
            "the sender never copied a range"
        );
    }

    /// A receiver that never enters `wait` before everything arrived
    /// (and a sender that waits only after that) still completes: the
    /// receiver's progress thread claims and copies every range.
    #[test]
    fn a_receiver_that_never_waits_completes_through_its_progress_thread() {
        let Some([receiver, sender]) = stream(2, |_| true) else {
            return;
        };
        assert_eq!(receiver.copied_for_peers, 2 * PARTS as u64);
        assert_eq!(sender.copied_by_peers, 2 * PARTS as u64);
    }

    /// A range that finds every claim word of the channel taken is
    /// written by its sender at once; the open ones wait for a mover. The
    /// receiver here has no stream for the ranges (say its request
    /// dropped), so it discards them unclaimed, and the sender's own
    /// claims move them.
    #[test]
    fn a_range_that_finds_the_claim_table_full_is_written_at_once() {
        let Some([(fabric0, receiver), (fabric1, sender)]) = both_ranks(stream_params()) else {
            return;
        };
        let n = CLAIM_SLOTS + 1;
        let src: Vec<u8> = (0..n * PULL_FLOOR).map(|i| (i % 251) as u8).collect();
        let mut dest = vec![0u8; src.len()];
        let span = Arc::new(SendSpan {
            remaining: std::sync::atomic::AtomicUsize::new(src.len()),
            done: Completion::new(),
        });
        let grant = Some(dest.as_mut_ptr() as u64 | ADDR_GRANT);
        for k in 0..n {
            let chunk = PinChunk {
                offset: (k * PULL_FLOOR) as u64,
                ptr: src[k * PULL_FLOOR..].as_ptr(),
                len: PULL_FLOOR,
                parts: 1,
            };
            sender.ship_chunk(&fabric1, 0, 5, grant, &span, chunk);
        }
        let sent = sender.peers[0]
            .as_ref()
            .unwrap()
            .frames_sent
            .load(Ordering::Relaxed);
        assert_eq!(sent, n as u64, "one record per range");
        let opened = CLAIM_SLOTS * PULL_FLOOR;
        assert_eq!(span.remaining.load(Ordering::Relaxed), opened);
        assert!(
            dest[opened..] == src[opened..],
            "the last range was not written"
        );
        assert!(
            dest[..opened].iter().all(|&b| b == 0),
            "an open range moved"
        );
        assert!(receiver.drain_peer(&fabric0, 1, false));
        while sender.claim_own(&fabric1) {}
        assert!(
            span.done.is_set() && dest == src,
            "the open ranges did not move"
        );
        assert_eq!(receiver.doorbell_stats_now().copied_for_peers, 0);
        assert!(fabric0.failure_snapshot().is_none() && fabric1.failure_snapshot().is_none());
    }

    /// Send windows come from the arena the rank keeps for the peer and
    /// go back on drop: 1000 init/drop cycles leave it empty.
    #[test]
    fn a_thousand_psend_init_drop_cycles_leave_the_arena_empty() {
        let Some([_, (fabric, carrier)]) = both_ranks(stream_params()) else {
            return;
        };
        let comm = Comm::world(fabric, 1);
        let arena = || carrier.peers[0].as_ref().unwrap().arena.lock().is_empty();
        for _ in 0..1000 {
            let ps = comm.psend_init(0, 7, PARTS, 4096, PartOptions::default());
            assert!(!arena(), "the send window is not in the arena");
            drop(ps);
        }
        assert!(arena(), "a send window was never handed back");
    }
}
