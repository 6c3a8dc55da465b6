//! MPI-4 partitioned communication with real atomics (paper §3).
//!
//! The path mirrors the paper's MPICH changes: the partition buffer is
//! split into internal messages — `gcd(N_send, N_recv)` base messages,
//! aggregated under [`PartOptions::aggr_size`] — each guarded by an
//! `AtomicI64` counter of outstanding partitions. `pready(p)` decrements
//! its message's counter; the thread that brings it to zero injects the
//! message *itself* — a physically real early-bird send. A local peer is
//! paired once, at init (`Binding`): a ready message is copied straight
//! into the receiver's buffer, never tag-matched. A remote peer is paired
//! once too: the request's one wire stream costs a receiver credit per
//! iteration. Either way a side holds its buffer, per-message iteration
//! stamps and one completion, and no message lands before the receiver
//! has started its iteration. The paper's old protocol (Fig. 4) is a
//! configuration of this path: one message covering the whole buffer
//! ([`PartOptions::aggr_size`] = its size), sent only in `wait`
//! ([`PartOptions::defer_sends`]). The simulator keeps MPICH's own
//! active-message path for it.

use std::cell::UnsafeCell;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use pcomm_trace::{EventKind, FaultKind};

use crate::comm::Comm;
use crate::error::{PcommError, RankAborted};
use crate::fabric::Fabric;
use crate::sync::Completion;
use crate::wire::{StreamRecv, StreamSend};

/// Options for a partitioned request.
#[derive(Debug, Clone, Default)]
pub struct PartOptions {
    /// Aggregation upper bound in bytes (`MPIR_CVAR_PART_AGGR_SIZE`
    /// analogue); `None` disables aggregation.
    pub aggr_size: Option<usize>,
    /// Defer all sends to `wait()` (no early-bird).
    pub defer_sends: bool,
}

/// One internal message of a partitioned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSpec {
    /// First sender partition contributing.
    pub first_spart: usize,
    /// Sender partitions contributing.
    pub n_sparts: usize,
    /// First receiver partition covered.
    pub first_rpart: usize,
    /// Receiver partitions covered.
    pub n_rparts: usize,
    /// Payload bytes.
    pub bytes: usize,
}

/// The negotiated partition→message mapping (paper §3.2.1), with dense
/// partition→message tables: the per-`pready` / per-`parrived` lookup
/// is one array read, not a scan over messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgLayout {
    /// Messages in buffer order.
    pub msgs: Vec<MsgSpec>,
    /// `spart_msg[p]` = index of the message sender partition `p` feeds.
    spart_msg: Vec<u32>,
    /// `rpart_msg[p]` = index of the message covering receiver partition `p`.
    rpart_msg: Vec<u32>,
}

impl MsgLayout {
    fn from_msgs(msgs: Vec<MsgSpec>) -> MsgLayout {
        let n_sparts: usize = msgs.iter().map(|m| m.n_sparts).sum();
        let n_rparts: usize = msgs.iter().map(|m| m.n_rparts).sum();
        let mut spart_msg = vec![0u32; n_sparts];
        let mut rpart_msg = vec![0u32; n_rparts];
        for (i, m) in msgs.iter().enumerate() {
            for s in &mut spart_msg[m.first_spart..m.first_spart + m.n_sparts] {
                *s = i as u32;
            }
            for r in &mut rpart_msg[m.first_rpart..m.first_rpart + m.n_rparts] {
                *r = i as u32;
            }
        }
        MsgLayout {
            msgs,
            spart_msg,
            rpart_msg,
        }
    }

    /// Message index a sender partition contributes to (O(1)).
    pub fn msg_of_spart(&self, p: usize) -> usize {
        self.spart_msg[p] as usize
    }

    /// Message index covering a receiver partition (O(1)).
    pub fn msg_of_rpart(&self, p: usize) -> usize {
        self.rpart_msg[p] as usize
    }

    /// Number of messages.
    pub fn n_msgs(&self) -> usize {
        self.msgs.len()
    }

    /// Message count before aggregation: `gcd(N_send, N_recv)`.
    pub fn base_msgs(&self) -> usize {
        gcd(self.spart_msg.len(), self.rpart_msg.len())
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Receiver-decided layout: `gcd` base count, then greedy aggregation of
/// consecutive messages under the `aggr_size` bound.
pub fn negotiate_layout(
    n_send: usize,
    n_recv: usize,
    send_part_bytes: usize,
    aggr_size: Option<usize>,
) -> MsgLayout {
    assert!(n_send >= 1 && n_recv >= 1, "partition counts must be >= 1");
    let g = gcd(n_send, n_recv);
    let sparts = n_send / g;
    let rparts = n_recv / g;
    let bytes = sparts * send_part_bytes;
    let mut msgs: Vec<MsgSpec> = Vec::with_capacity(g);
    for i in 0..g {
        let spec = MsgSpec {
            first_spart: i * sparts,
            n_sparts: sparts,
            first_rpart: i * rparts,
            n_rparts: rparts,
            bytes,
        };
        match (aggr_size, msgs.last_mut()) {
            (Some(limit), Some(prev)) if prev.bytes + spec.bytes <= limit => {
                prev.n_sparts += spec.n_sparts;
                prev.n_rparts += spec.n_rparts;
                prev.bytes += spec.bytes;
            }
            _ => msgs.push(spec),
        }
    }
    MsgLayout::from_msgs(msgs)
}

/// A blocked partitioned wait, as a stall report names it.
fn blocked(what: String, peer: usize) -> (String, Option<i64>, Option<usize>) {
    (format!("partitioned {what}"), Some(0), Some(peer))
}

/// Per-partition buffer state machine.
const PART_WRITABLE: u8 = 0;
const PART_WRITING: u8 = 1;
const PART_READY: u8 = 2;

/// Shared-arena backing for a partitioned buffer of a stream from or
/// toward `peer`: the transport granted `len` bytes at `ptr` (token
/// `token`) inside the ipc segment's partition arena for the pair, so
/// one copy moves each range, made by whichever side claims it (the
/// sender into this destination, or the receiver out of this send
/// window). Handed back to the transport on drop.
struct SegBacking {
    ptr: *mut u8,
    len: usize,
    token: u64,
    peer: usize,
    fabric: Arc<Fabric>,
}

impl Drop for SegBacking {
    fn drop(&mut self) {
        // The owning request drained its completion first: no transfer
        // can still touch the range.
        Fabric::release_part_buf(&self.fabric, self.peer, self.token, self.len);
    }
}

/// The partitioned buffer: contiguous storage with per-partition access
/// states that make the raw-pointer sharing sound. Backed by owned heap
/// memory, or — on the ipc fabric — by a granted range of the shared
/// partition arena.
struct PartStorage {
    /// Owned storage; empty (and unused) when `seg` backs the buffer.
    data: UnsafeCell<Box<[u8]>>,
    seg: Option<SegBacking>,
    states: Vec<AtomicU8>,
    part_bytes: usize,
}

// SAFETY: all access to `data` is mediated by the per-partition state
// machine (WRITABLE→WRITING→WRITABLE→READY): writers hold WRITING
// exclusively; readers (message injection) only touch READY partitions,
// which can no longer be written this iteration.
unsafe impl Sync for PartStorage {}
unsafe impl Send for PartStorage {}

impl PartStorage {
    /// Zeroed storage: in memory `peer` can reach when `shared` names a
    /// stream's fabric and peer and the transport has room for it (see
    /// [`SegBacking`]), on the heap otherwise.
    fn new(n_parts: usize, part_bytes: usize, shared: Option<(&Arc<Fabric>, usize)>) -> Self {
        let len = n_parts * part_bytes;
        let seg = shared.and_then(|(fabric, peer)| {
            let (token, ptr) = fabric.alloc_part_buf(peer, len)?;
            // SAFETY: the transport granted `ptr..ptr+len` exclusively
            // to this storage until the grant is released on drop.
            unsafe { std::ptr::write_bytes(ptr, 0, len) };
            let fabric = Arc::clone(fabric);
            Some(SegBacking {
                ptr,
                len,
                token,
                peer,
                fabric,
            })
        });
        PartStorage {
            data: UnsafeCell::new(
                vec![0u8; if seg.is_some() { 0 } else { len }].into_boxed_slice(),
            ),
            seg,
            states: (0..n_parts).map(|_| AtomicU8::new(PART_WRITABLE)).collect(),
            part_bytes,
        }
    }

    /// Base of the buffer, wherever it lives.
    fn base(&self) -> *mut u8 {
        match &self.seg {
            Some(s) => s.ptr,
            // SAFETY: taking a raw base pointer aliases nothing by
            // itself; all dereferences go through the state machine.
            None => unsafe { (*self.data.get()).as_mut_ptr() },
        }
    }

    fn reset(&self) {
        for s in &self.states {
            s.store(PART_WRITABLE, Ordering::Release);
        }
    }

    /// The check of a wait that sends: every partition readied.
    fn assert_all_ready(&self) {
        let ready = |s: &AtomicU8| s.load(Ordering::Acquire) == PART_READY;
        let all = self.states.iter().all(ready);
        assert!(all, "deferred wait requires all partitions ready");
    }

    fn write_partition(&self, p: usize, f: impl FnOnce(&mut [u8])) {
        self.leave_writable(p, PART_WRITING).unwrap_or_else(|cur| {
            panic!("partition {p} not writable (state {cur}): already ready or being written")
        });
        let off = p * self.part_bytes;
        let slice =
            // SAFETY: WRITING grants exclusive access to this disjoint range.
            unsafe { std::slice::from_raw_parts_mut(self.base().add(off), self.part_bytes) };
        f(slice);
        self.states[p].store(PART_WRITABLE, Ordering::Release);
    }

    /// Transition a partition WRITABLE→`to` (WRITING or READY).
    /// `Err(state)` when it is already READY (readied twice) or mid-write
    /// — the storage is left untouched either way, so the caller can
    /// surface the misuse without corrupting the iteration.
    fn leave_writable(&self, p: usize, to: u8) -> Result<u8, u8> {
        self.states[p].compare_exchange(PART_WRITABLE, to, Ordering::AcqRel, Ordering::Relaxed)
    }

    fn read_partition(&self, p: usize) -> &[u8] {
        let off = p * self.part_bytes;
        // SAFETY: PrecvRequest exposes reads after wait() (no writer
        // exists) or, mid-iteration, once the covering message's stamp
        // says it landed: set with Release after the last write into the
        // range and loaded with Acquire, and no writer touches the range
        // again until the next start().
        unsafe { std::slice::from_raw_parts(self.base().add(off), self.part_bytes) }
    }
}

/// Who moves each message of a pairing, one rule for both movers. The
/// receiver posts its iteration `k`, the sender stamps each message it
/// issues with `k`: `SeqCst` stores each followed by a `SeqCst` load of
/// the other word, so at least one side sees both, and one CAS on
/// `turn[m]` (`k − 1 → k`) lets exactly one of them move `m`. The post is
/// the receiver's `start` in process ([`Binding`]), its credit on the
/// wire ([`StreamSend`], whose close claims what is left).
pub(crate) struct Claims {
    /// The receiver's current iteration.
    posted: AtomicU64,
    /// The last iteration each message was claimed in.
    turn: Box<[AtomicU64]>,
}

impl Claims {
    pub(crate) fn new(n_msgs: usize) -> Claims {
        let turn = (0..n_msgs).map(|_| AtomicU64::new(0)).collect();
        let posted = AtomicU64::new(0);
        Claims { posted, turn }
    }

    /// The receiver's iteration (0 before its first post).
    pub(crate) fn posted(&self) -> u64 {
        self.posted.load(Ordering::SeqCst)
    }

    /// The receiver posts `k`: `moves` runs for each message the sender
    /// already stamped `k` in `issued` that this post claims.
    pub(crate) fn post(&self, k: u64, issued: &[AtomicU64], mut moves: impl FnMut(usize)) {
        self.posted.store(k, Ordering::SeqCst);
        for (m, stamp) in issued.iter().enumerate() {
            if stamp.load(Ordering::SeqCst) == k && self.claim(m, k) {
                moves(m);
            }
        }
    }

    /// The sender issues message `m` in `k`: stamp it, and return whether
    /// the receiver already posted `k` and this issue claimed `m`.
    pub(crate) fn issue(&self, issued: &[AtomicU64], m: usize, k: u64) -> bool {
        issued[m].store(k, Ordering::SeqCst);
        self.posted() == k && self.claim(m, k)
    }

    /// Whether the caller moves message `m` of iteration `k`: the one
    /// decision, made once per message and iteration.
    pub(crate) fn claim(&self, m: usize, k: u64) -> bool {
        let turn = &self.turn[m];
        turn.compare_exchange(k - 1, k, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// One side of a [`Binding`]: its buffer, its per-message iteration
/// stamps (`issued` on the sender, `landed` on the receiver) and its
/// request's one completion.
type Side = (Arc<PartStorage>, Arc<[AtomicU64]>, Arc<Completion>);

/// The in-process pairing of a `psend_init` with its
/// `precv_init`, made once by the second of the two (the first waits in
/// the fabric's `pairs` table). Both sides count iterations from 1. The
/// receiver's `start` of iteration `k` posts `k`, the sender's issue of
/// message `m` stamps it, and whichever side [`Claims`] picks copies `m`
/// into the receiver's buffer. The copy stamps `landed[m] = k`, and the
/// one that takes the countdown `left` to zero completes both requests.
/// The binding holds both buffers: no drop frees memory a copy may still
/// touch.
pub(crate) struct Binding {
    /// `(part ctx, src, dst)`: inits of one key pair oldest first.
    key: (u64, usize, usize),
    layout: MsgLayout,
    vreq: u16,
    claims: Claims,
    /// Messages of the posted iteration not yet copied.
    left: AtomicUsize,
    /// `[receiver, sender]`, each set by its own side's init.
    sides: [OnceLock<Side>; 2],
}

impl Binding {
    /// Pair this side's init (`me`: 1 on the sender, 0 on the receiver)
    /// with the oldest the peer left under `key`, or leave a fresh
    /// binding for the peer's.
    fn pair(
        comm: &Comm,
        key: (u64, usize, usize),
        me: usize,
        layout: &MsgLayout,
        vreq: u16,
        side: Side,
    ) -> Arc<Self> {
        let mut pairs = comm.fabric().pairs.lock();
        let peer_left = |b: &Arc<Binding>| b.key == key && b.sides[me].get().is_none();
        let b = match pairs.iter().position(peer_left) {
            Some(i) => pairs.remove(i),
            None => {
                let b = Arc::new(Binding {
                    key,
                    layout: layout.clone(),
                    vreq,
                    claims: Claims::new(layout.n_msgs()),
                    left: AtomicUsize::new(0),
                    sides: Default::default(),
                });
                pairs.push(Arc::clone(&b));
                b
            }
        };
        let _ = b.sides[me].set(side);
        drop(pairs);
        assert_eq!(b.layout, *layout, "psend_init and precv_init disagree");
        b
    }

    /// The receiver's start of iteration `k`: re-arm the countdown and
    /// its completion, post `k`, and copy what the sender already
    /// issued in `k`.
    fn post(&self, fabric: &Fabric, k: u64) {
        let (_, _, done) = self.sides[0].get().expect("receiver side set");
        self.left.store(self.layout.n_msgs(), Ordering::Relaxed);
        done.reset();
        let issued = self.sides[1].get().map_or(&[][..], |(_, issued, _)| issued);
        self.claims.post(k, issued, |m| self.copy(fabric, m, k));
    }

    /// Copy message `m` of iteration `k`, which the caller claimed (at
    /// one offset: the layout puts it at the same byte on both sides).
    fn copy(&self, fabric: &Fabric, m: usize, k: u64) {
        let (rbuf, landed, rdone) = self.sides[0].get().expect("receiver side set");
        let (sbuf, _, sdone) = self.sides[1].get().expect("sender side set");
        let spec = self.layout.msgs[m];
        let off = spec.first_spart * sbuf.part_bytes;
        // SAFETY: the sender's range is READY until its next start, which
        // follows its wait on `sdone`, set only once this copy is counted;
        // nothing reads the receiver's range before `landed[m]` says `k`.
        // Equal layouts (asserted at pairing) put the range inside both
        // buffers, which `self` keeps alive.
        unsafe {
            std::ptr::copy_nonoverlapping(sbuf.base().add(off), rbuf.base().add(off), spec.bytes)
        };
        // For the analyzer: ordered before the probes and waits it enables.
        let vmsg = || EventKind::VerifyMsgRecv {
            req: self.vreq,
            msg: m as u16,
            tid: pcomm_trace::current_tid(),
            eager: false,
        };
        fabric.trace().emit_verify(self.key.2 as u16, vmsg);
        landed[m].store(k, Ordering::Release);
        let left = self.left.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(left > 0, "message {m} of iteration {k} claimed twice");
        if left == 1 {
            fabric.count_matched(self.layout.n_msgs());
            rdone.set();
            sdone.set();
        }
    }

    /// Take this binding out of the table if nobody paired with it (its
    /// request is dropping): a later init must pair with a live peer.
    fn unpair(self: &Arc<Self>, fabric: &Fabric) {
        fabric.pairs.lock().retain(|b| !Arc::ptr_eq(b, self));
    }
}

/// What moves a request's messages, chosen at init by where the peer
/// is; the old protocol's one deferred message moves the same way.
enum Mover {
    /// The pairing with a local peer.
    Bound(Arc<Binding>),
    /// Toward a remote peer: the request's one wire stream.
    Send(Arc<StreamSend>),
    /// From a remote peer: where the request's one wire stream lands.
    Recv(Arc<StreamRecv>),
}

/// What both sides of a partitioned request hold; each side's shared
/// state derefs to it.
struct Core {
    comm: Comm,
    /// Interned verify request id (see [`Trace::verify_req_id`]), the
    /// same on both sides; 0 when verification is off.
    vreq: u16,
    n_parts: usize,
    layout: MsgLayout,
    mover: Mover,
    storage: Arc<PartStorage>,
    /// The iteration each message was last issued in (sender) or
    /// landed in (receiver).
    stamps: Arc<[AtomicU64]>,
    /// This side's one completion, pre-set so an inactive request waits
    /// for nothing: every message sent (or copied), every message landed.
    done: Arc<Completion>,
    started: AtomicBool,
    /// Iterations started so far; `iters - 1` is the current (or most
    /// recently completed) iteration, the `iter` of the verify events.
    iters: AtomicU64,
}

impl Core {
    /// Current iteration index for verify provenance (0 before the
    /// first `start`).
    fn cur_iter(&self) -> u32 {
        self.iters.load(Ordering::Relaxed).saturating_sub(1) as u32
    }

    /// The head of `MPI_Start` on either side: arm and record it, and
    /// return the iteration it starts (counted from 1).
    fn begin(&self, sender: bool) -> u64 {
        let was = self.started.swap(true, Ordering::AcqRel);
        let side = if sender { "send" } else { "recv" };
        assert!(!was, "partitioned {side} started twice");
        let iter = self.iters.fetch_add(1, Ordering::Relaxed);
        self.verify(|| EventKind::VerifyStart {
            req: self.vreq,
            sender,
            iter: iter as u32,
            tid: pcomm_trace::current_tid(),
        });
        iter + 1
    }

    /// The tail of `MPI_Wait` on either side, whose wait began at
    /// `t_wait`: record it and mark the request inactive.
    fn end(&self, sender: bool, t_wait: Option<u64>) {
        let (trace, rank) = (self.comm.fabric().trace(), self.comm.rank() as u16);
        trace.emit_span(t_wait, rank, |start, dur| {
            EventKind::PartWait {
                msgs: self.layout.n_msgs() as u16,
                wait_ns: dur,
            }
            .at(start)
        });
        self.verify(|| EventKind::VerifyWaitDone {
            req: self.vreq,
            sender,
            iter: self.cur_iter(),
            tid: pcomm_trace::current_tid(),
        });
        self.started.store(false, Ordering::Release);
    }

    /// `Misuse` unless `p` is one of this side's partitions.
    fn check_part(&self, op: &str, p: usize) -> Result<(), PcommError> {
        if p < self.n_parts {
            return Ok(());
        }
        let n = self.n_parts;
        let detail = format!("{op}({p}) out of range: request has {n} partitions");
        Err(PcommError::misuse(self.comm.rank(), detail))
    }

    /// Verify-clock nanoseconds since `t0` (0 with verification off).
    fn verify_since(&self, t0: Option<u64>) -> u64 {
        let now = self.comm.fabric().trace().verify_now_ns();
        t0.zip(now).map_or(0, |(t0, now)| now.saturating_sub(t0))
    }

    /// Emit an analysis-grade event from this side's rank.
    fn verify(&self, kind: impl FnOnce() -> EventKind) {
        let rank = self.comm.rank() as u16;
        self.comm.fabric().trace().emit_verify(rank, kind);
    }

    /// What both inits share: the request's own communicator, buffer,
    /// stamps and completion, its mover (a binding toward a local `peer`,
    /// else one wire stream), and its init's verify events.
    fn new(
        comm: &Comm,
        peer: usize,
        sender: bool,
        tag: i64,
        n_parts: usize,
        part_bytes: usize,
        layout: MsgLayout,
    ) -> Core {
        let ctx = comm.part_ctx(tag);
        let (src, dst) = if sender {
            (comm.rank(), peer)
        } else {
            (peer, comm.rank())
        };
        // Both sides intern by the sender's rank, which disambiguates
        // pairs sharing a (ctx, tag) — e.g. a ring whose links all use
        // one tag.
        let vreq = comm.fabric().trace().verify_req_id(ctx, src as u16);
        // A wire stream's buffers live where the peer can reach them
        // when the transport allows (the ipc partition arena), for the
        // request's life: one copy moves each range, and a grant never
        // moves.
        let stream = !comm.fabric().is_local(peer);
        let shared = stream.then_some((comm.fabric(), peer));
        let storage = Arc::new(PartStorage::new(n_parts, part_bytes, shared));
        let stamps: Arc<[AtomicU64]> = layout.msgs.iter().map(|_| AtomicU64::new(0)).collect();
        let done = Completion::new_set();
        let mover = match (stream, sender) {
            (false, _) => {
                let side = (storage.clone(), stamps.clone(), done.clone());
                let (key, me) = ((ctx, src, dst), usize::from(sender));
                Mover::Bound(Binding::pair(comm, key, me, &layout, vreq, side))
            }
            (true, true) => {
                let msgs = layout.msgs.iter();
                let msgs = msgs.map(|m| (m.first_spart * part_bytes, m.bytes, m.n_sparts as u16));
                let (id, base) = (comm.fabric().wire().stream_id(), storage.base());
                let (issued, vreq) = (stamps.clone(), Some(vreq));
                let s = StreamSend::new(id, peer, base, msgs, issued, &done, vreq, false);
                Mover::Send(s)
            }
            (true, false) => {
                let msgs = layout.msgs.iter();
                let msgs = msgs
                    .map(|m| (m.first_rpart * part_bytes, m.bytes))
                    .collect();
                let (base, total) = (storage.base(), n_parts * part_bytes);
                let (landed, done) = (stamps.clone(), done.clone());
                let r = StreamRecv::new(base, total, msgs, landed, done, Some(vreq), false);
                Mover::Recv(r)
            }
        };
        let core = Core {
            comm: comm.with_ctx(ctx, comm.fabric().shard_of_ctx(ctx)),
            vreq,
            n_parts,
            layout,
            mover,
            storage,
            stamps,
            done,
            started: AtomicBool::new(false),
            iters: AtomicU64::new(0),
        };
        if comm.fabric().trace().is_verify() {
            let l = &core.layout;
            let n_peer_parts = if sender {
                l.rpart_msg.len()
            } else {
                l.spart_msg.len()
            };
            let bytes = n_parts * part_bytes;
            let emit = |kind| core.verify(|| kind);
            verify_init_events(vreq, sender, n_parts, n_peer_parts, false, l, bytes, emit);
        }
        core
    }

    /// Record `err` as the universe's failure and unwind this rank.
    ///
    /// Failure is recorded *before* the unwind starts, so every
    /// abort-aware drain that runs while locals drop is time-bounded.
    fn fail(&self, err: PcommError) -> ! {
        self.comm.fabric().fail(err);
        panic_any(RankAborted);
    }
}

struct PsendShared {
    core: Core,
    dst: usize,
    defer_sends: bool,
    counters: Vec<AtomicI64>,
    /// Round counter for chaos `pready` jitter permutations.
    jitter_round: AtomicU64,
}

impl std::ops::Deref for PsendShared {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.core
    }
}

impl Drop for PsendShared {
    fn drop(&mut self) {
        // A binding holds both buffers: nothing to drain. Otherwise, mid-
        // iteration (a rank unwinding on abort or a panic), a range a
        // carrier holds pins a pointer into `storage`: the stream counts
        // off what no carrier holds, then the one completion drains
        // (abort-aware) before the buffer is freed.
        let fabric = self.comm.fabric();
        if let Mover::Bound(b) = &self.mover {
            return b.unpair(fabric);
        }
        if let Mover::Send(s) = &self.mover {
            fabric
                .wire()
                .part_send_close(s, self.iters.load(Ordering::Relaxed));
        }
        if self.started.load(Ordering::Acquire) {
            fabric.drain_completion(&self.done);
        }
    }
}

/// Sender-side partitioned request. Clone freely across the rank's
/// threads; `pready` is thread-safe.
#[derive(Clone)]
pub struct PsendRequest {
    inner: Arc<PsendShared>,
}

/// The analysis-grade init events of one side of a partitioned request:
/// the request's shape plus one layout event per wire message, so the
/// verifier can map partitions to transfer accesses. Both sides emit — a
/// layout disagreement between them is itself a lint finding. The real
/// runtime and the simulator both emit through here (each only when its
/// verification is on), so `pcomm-verify` consumes their traces
/// identically. `am_path` is the simulator's MPICH active-message path,
/// which moves the whole buffer as one message whatever the layout.
#[allow(clippy::too_many_arguments)] // one-shot plumbing of the init shape
pub fn verify_init_events(
    req: u16,
    sender: bool,
    n_parts: usize,
    n_peer_parts: usize,
    am_path: bool,
    layout: &MsgLayout,
    total_bytes: usize,
    mut emit: impl FnMut(EventKind),
) {
    let (n_sparts, n_rparts) = if sender {
        (n_parts, n_peer_parts)
    } else {
        (n_peer_parts, n_parts)
    };
    let whole = [MsgSpec {
        first_spart: 0,
        n_sparts,
        first_rpart: 0,
        n_rparts,
        bytes: total_bytes,
    }];
    let msgs = if am_path { &whole[..] } else { &layout.msgs };
    emit(EventKind::VerifyPartInit {
        req,
        sender,
        parts: n_parts as u32,
        msgs: msgs.len() as u32,
    });
    for (m, spec) in msgs.iter().enumerate() {
        emit(EventKind::VerifyLayoutMsg {
            req,
            msg: m as u16,
            first_spart: spec.first_spart as u16,
            n_sparts: spec.n_sparts as u16,
            first_rpart: spec.first_rpart as u16,
            n_rparts: spec.n_rparts as u16,
            bytes: spec.bytes as u64,
        });
    }
}

impl Comm {
    /// `MPI_Psend_init`: create a partitioned send of `n_parts` partitions
    /// of `part_bytes` each towards `dst`. The receiver must create the
    /// matching `precv_init` with the same tag and compatible options.
    pub fn psend_init(
        &self,
        dst: usize,
        tag: i64,
        n_parts: usize,
        part_bytes: usize,
        opts: PartOptions,
    ) -> PsendRequest {
        self.psend_init_general(dst, tag, n_parts, part_bytes, n_parts, opts)
    }

    /// `MPI_Psend_init` with a different partition count on the receiver
    /// side: the internal message count becomes `gcd(n_parts,
    /// n_recv_parts)` (paper §3.2.1). The total buffer sizes must match:
    /// `n_parts · part_bytes == n_recv_parts · recv_part_bytes`.
    pub fn psend_init_general(
        &self,
        dst: usize,
        tag: i64,
        n_parts: usize,
        part_bytes: usize,
        n_recv_parts: usize,
        opts: PartOptions,
    ) -> PsendRequest {
        assert!(n_parts >= 1 && part_bytes >= 1 && n_recv_parts >= 1);
        assert_eq!(
            (n_parts * part_bytes) % n_recv_parts,
            0,
            "total size must divide into receiver partitions"
        );
        let layout = negotiate_layout(n_parts, n_recv_parts, part_bytes, opts.aggr_size);
        let n_msgs = layout.n_msgs();
        self.fabric()
            .trace()
            .emit(self.rank() as u16, || EventKind::AggrLayout {
                base_msgs: layout.base_msgs() as u16,
                msgs: n_msgs as u16,
                bytes_per_msg: layout.msgs[0].bytes as u64,
            });
        let core = Core::new(self, dst, true, tag, n_parts, part_bytes, layout);
        let inner = Arc::new(PsendShared {
            core,
            dst,
            defer_sends: opts.defer_sends,
            counters: (0..n_msgs).map(|_| AtomicI64::new(0)).collect(),
            jitter_round: AtomicU64::new(0),
        });
        PsendRequest { inner }
    }

    /// `MPI_Precv_init`: the matching receive side.
    pub fn precv_init(
        &self,
        src: usize,
        tag: i64,
        n_parts: usize,
        part_bytes: usize,
        opts: PartOptions,
    ) -> PrecvRequest {
        self.precv_init_general(src, tag, n_parts, part_bytes, n_parts, part_bytes, opts)
    }

    /// `MPI_Precv_init` with a different partition count on the sender
    /// side; `n_send_parts`/`send_part_bytes` describe the incoming
    /// layout (agreed during init, as in the improved MPICH protocol).
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Precv_init's arity
    pub fn precv_init_general(
        &self,
        src: usize,
        tag: i64,
        n_parts: usize,
        part_bytes: usize,
        n_send_parts: usize,
        send_part_bytes: usize,
        opts: PartOptions,
    ) -> PrecvRequest {
        assert!(n_parts >= 1 && part_bytes >= 1);
        assert_eq!(
            n_parts * part_bytes,
            n_send_parts * send_part_bytes,
            "sender and receiver buffer sizes must agree"
        );
        let layout = negotiate_layout(n_send_parts, n_parts, send_part_bytes, opts.aggr_size);
        let core = Core::new(self, src, false, tag, n_parts, part_bytes, layout);
        let inner = Arc::new(PrecvShared { core, src });
        PrecvRequest { inner }
    }
}

impl PsendRequest {
    /// Number of internal messages.
    pub fn n_msgs(&self) -> usize {
        self.inner.layout.n_msgs()
    }

    /// The negotiated layout.
    pub fn layout(&self) -> &MsgLayout {
        &self.inner.layout
    }

    /// `MPI_Start`: arm the iteration.
    pub fn start(&self) {
        let s = &self.inner;
        let k = s.begin(true);
        s.storage.reset();
        s.done.reset();
        for (m, spec) in s.layout.msgs.iter().enumerate() {
            s.counters[m].store(spec.n_sparts as i64, Ordering::Release);
        }
        let Mover::Send(stream) = &s.mover else {
            return;
        };
        // Wire stream: the first start announces the whole buffer, so the
        // receiver's first credit can race the first pready; every start
        // re-arms the stream's span, and each message moves once the
        // receiver's start of this iteration credits it.
        s.comm.fabric().part_send_start(s.comm.ctx(), stream, k);
    }

    /// Fill partition `p`'s bytes. Misuse (out of range, already
    /// readied) aborts the universe with [`PcommError::Misuse`].
    pub fn write_partition(&self, p: usize, f: impl FnOnce(&mut [u8])) {
        let s = &self.inner;
        if let Err(err) = s.check_part("write_partition", p) {
            s.fail(err);
        }
        if s.storage.states[p].load(Ordering::Acquire) == PART_READY {
            s.fail(PcommError::misuse(
                s.comm.rank(),
                format!("write_partition({p}) after pready({p}): partition already readied"),
            ));
        }
        let t0 = s.comm.fabric().trace().verify_now_ns();
        s.storage.write_partition(p, f);
        s.verify(|| EventKind::VerifyWrite {
            req: s.vreq,
            part: p as u32,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
            dur_ns: s.verify_since(t0),
        });
    }

    /// `MPI_Pready`: mark partition `p` ready. If this completes an
    /// internal message, the calling thread injects it (early-bird).
    ///
    /// Misuse aborts the universe with [`PcommError::Misuse`]; use
    /// [`PsendRequest::try_pready`] to detect it without aborting.
    pub fn pready(&self, p: usize) {
        if let Err(err) = self.try_pready(p) {
            self.inner.fail(err);
        }
    }

    /// Fallible [`PsendRequest::pready`]: returns [`PcommError::Misuse`]
    /// for an inactive request, an out-of-range partition, or a
    /// partition readied twice — always *before* touching the message
    /// counters, so a rejected call leaves the iteration fully intact
    /// and the request usable.
    pub fn try_pready(&self, p: usize) -> Result<(), PcommError> {
        let s = &self.inner;
        if !s.started.load(Ordering::Acquire) {
            return Err(PcommError::misuse(
                s.comm.rank(),
                format!("pready({p}) on an inactive request (before start or after wait)"),
            ));
        }
        s.check_part("pready", p)?;
        let trace = s.comm.fabric().trace();
        let pready_ns = trace.now_ns();
        trace.emit(s.comm.rank() as u16, || EventKind::Pready {
            part: p as u64,
        });
        // Before the state gate on purpose: a double pready leaves two
        // VerifyPready events for the lint pass to find.
        s.verify(|| EventKind::VerifyPready {
            req: s.vreq,
            part: p as u32,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
        });
        if let Err(state) = s.storage.leave_writable(p, PART_READY) {
            let why = if state == PART_WRITING {
                "still being written"
            } else {
                "readied twice"
            };
            return Err(PcommError::misuse(
                s.comm.rank(),
                format!("pready({p}): partition {why}"),
            ));
        }
        // The CAS above is the sole gate to the counters: a duplicate or
        // out-of-range pready can no longer skew them. A message of one
        // partition needs no count.
        let m = s.layout.msg_of_spart(p);
        let whole = s.layout.msgs[m].n_sparts == 1 || {
            let left = s.counters[m].fetch_sub(1, Ordering::AcqRel) - 1;
            debug_assert!(left >= 0, "counter underflow despite state gate");
            left == 0
        };
        if whole && !s.defer_sends {
            self.issue(m, pready_ns);
        }
        Ok(())
    }

    /// `MPI_Pready_range`: mark partitions `lo..=hi` ready, in order
    /// (under chaos `pready` jitter, in a seeded permuted order).
    pub fn pready_range(&self, lo: usize, hi: usize) {
        if let Err(err) = self.try_pready_range(lo, hi) {
            self.inner.fail(err);
        }
    }

    /// Fallible [`PsendRequest::pready_range`]. Stops at the first
    /// misuse; partitions already readied by the call stay readied.
    pub fn try_pready_range(&self, lo: usize, hi: usize) -> Result<(), PcommError> {
        if lo > hi {
            return Err(PcommError::misuse(
                self.inner.comm.rank(),
                format!("pready_range({lo}, {hi}): empty or inverted range"),
            ));
        }
        let parts: Vec<usize> = (lo..=hi).collect();
        self.try_pready_list(&parts)
    }

    /// `MPI_Pready_list`: mark the listed partitions ready, in order
    /// (under chaos `pready` jitter, in a seeded permuted order).
    pub fn pready_list(&self, parts: &[usize]) {
        if let Err(err) = self.try_pready_list(parts) {
            self.inner.fail(err);
        }
    }

    /// Fallible [`PsendRequest::pready_list`]. Stops at the first
    /// misuse; partitions already readied by the call stay readied.
    /// Under the fault plan's `pready` jitter the issue order is
    /// permuted — the reordering stress the paper's early-bird path must
    /// tolerate (any pready may complete a message).
    pub fn try_pready_list(&self, parts: &[usize]) -> Result<(), PcommError> {
        let s = &self.inner;
        if let Some(plan) = s.comm.fabric().fault_plan() {
            if plan.jitter_pready && parts.len() > 1 {
                let round = s.jitter_round.fetch_add(1, Ordering::Relaxed);
                let order = plan.jitter_order(s.comm.rank(), round, parts.len());
                s.comm
                    .fabric()
                    .trace()
                    .emit(s.comm.rank() as u16, || EventKind::FaultInjected {
                        fault: FaultKind::PreadyJitter,
                        dst: s.dst as u16,
                        tag: 0,
                        arg: round,
                    });
                for &i in &order {
                    self.try_pready(parts[i])?;
                }
                return Ok(());
            }
        }
        for &p in parts {
            self.try_pready(p)?;
        }
        Ok(())
    }

    /// Inject internal message `m`. `pready_ns` is the trace timestamp of
    /// the completing `pready` (None on the deferred-send path, which is
    /// not an early-bird send).
    fn issue(&self, m: usize, pready_ns: Option<u64>) {
        let s = &self.inner;
        let spec = s.layout.msgs[m];
        let fabric = s.comm.fabric();
        // The transfer's read of the send partitions, for the analyzer.
        s.verify(|| EventKind::VerifyMsgSend {
            req: s.vreq,
            msg: m as u16,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
        });
        let k = s.iters.load(Ordering::Relaxed);
        // The fault plan decides once, whoever moves the message: one lost
        // for good fails the universe and is never stamped.
        if fabric.chaos_survives(s.dst, s.comm.ctx(), s.comm.rank(), m as i64) {
            match &s.mover {
                // In process: copy it if the receiver already posted `k`
                // (the request's stamps are the binding's sender side).
                Mover::Bound(b) if b.claims.issue(&s.stamps, m, k) => b.copy(fabric, m, k),
                Mover::Bound(_) => {}
                // Wire streaming: the message's range ships pinned, as
                // one chunk — no copy, no per-message envelope. Every
                // partition of it is READY (counted down, or its only
                // one) until `done`, which the next start() observes.
                Mover::Send(stream) => fabric.part_issue(stream, m, k),
                Mover::Recv(_) => unreachable!("a send request moves no receive stream"),
            }
        }
        if let Some(t0) = pready_ns {
            let trace = fabric.trace();
            let gap_ns = trace.now_ns().map_or(0, |now| now.saturating_sub(t0));
            trace.emit(s.comm.rank() as u16, || EventKind::EarlyBird {
                msg: m as u16,
                shard: s.comm.shard() as u16,
                bytes: spec.bytes as u64,
                gap_ns,
            });
        }
    }

    /// `MPI_Wait`: complete the iteration, first issuing every message
    /// when sends are deferred. It returns once the receiver has started
    /// the iteration and every message is copied (toward a local peer;
    /// rendezvous semantics, which MPI permits) or on the wire (toward a
    /// remote one, whose ranges wait for the receiver's credit).
    pub fn wait(&self) {
        let s = &self.inner;
        assert!(s.started.load(Ordering::Acquire), "wait before start");
        let t_wait = s.comm.fabric().trace().now_ns();
        if s.defer_sends {
            s.storage.assert_all_ready();
            for m in 0..s.layout.n_msgs() {
                self.issue(m, None);
            }
        }
        let what = |_| blocked(format!("send wait(dst={})", s.dst), s.dst);
        let done = std::slice::from_ref(&s.done);
        s.comm.fabric().wait_all(done, s.comm.rank(), what);
        s.end(true, t_wait);
    }
}

struct PrecvShared {
    core: Core,
    src: usize,
}

impl std::ops::Deref for PrecvShared {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.core
    }
}

impl PrecvShared {
    /// The message covering receiver partition `p`, and whether it has
    /// landed this iteration (true on an inactive request): one load of
    /// its arrival stamp, no lock.
    fn arrival(&self, p: usize) -> (usize, bool) {
        let m = self.layout.msg_of_rpart(p);
        crate::hotpath::count_fast_probe();
        let stamp = self.stamps[m].load(Ordering::Acquire);
        (m, stamp >= self.iters.load(Ordering::Relaxed))
    }
}

impl Drop for PrecvShared {
    fn drop(&mut self) {
        // As on the send side; a completion the iteration never re-armed
        // is still set and drains instantly. A stream leaves the engine's
        // tables once nothing lands in it any more.
        let fabric = self.comm.fabric();
        if let Mover::Bound(b) = &self.mover {
            return b.unpair(fabric);
        }
        if self.started.load(Ordering::Acquire) {
            fabric.drain_completion(&self.done);
        }
        if let Mover::Recv(r) = &self.mover {
            fabric.wire().part_recv_close(self.src, self.comm.ctx(), r);
        }
    }
}

/// Receiver-side partitioned request.
#[derive(Clone)]
pub struct PrecvRequest {
    inner: Arc<PrecvShared>,
}

impl PrecvRequest {
    /// Number of internal messages.
    pub fn n_msgs(&self) -> usize {
        self.inner.layout.n_msgs()
    }

    /// `MPI_Start`: open the iteration; no message of it lands before.
    pub fn start(&self) {
        let s = &self.inner;
        let k = s.begin(false);
        let fabric = s.comm.fabric();
        match &s.mover {
            // In process: post the iteration. The messages the sender
            // already issued are copied here, the rest by its issue.
            Mover::Bound(b) => b.post(fabric, k),
            // From a remote peer: open the iteration's round of the
            // request's one stream and credit it. Its ranges commit
            // straight into the pinned buffer and stamp each message as
            // it lands; the round's last byte sets the one completion.
            Mover::Recv(r) => fabric.part_recv_start(s.src, s.comm.ctx(), r, k),
            Mover::Send(_) => unreachable!("a receive request moves no send stream"),
        }
    }

    /// `MPI_Parrived`: has receiver partition `p` landed?
    ///
    /// Hot path: an O(1) partition→message table lookup plus one atomic
    /// load of the message's arrival stamp — no lock is taken
    /// whether the answer is yes or no. Probing an inactive request
    /// (before the first `start()` or after `wait()`) reports `true`, the
    /// MPI convention for inactive persistent requests.
    pub fn parrived(&self, p: usize) -> bool {
        match self.try_parrived(p) {
            Ok(arrived) => arrived,
            Err(err) => self.inner.fail(err),
        }
    }

    /// Fallible [`PrecvRequest::parrived`]: an out-of-range partition
    /// returns [`PcommError::Misuse`] instead of aborting, and the
    /// request stays usable. The success path is identical to
    /// `parrived` — one bounds check, one table lookup, one atomic load.
    pub fn try_parrived(&self, p: usize) -> Result<bool, PcommError> {
        let s = &self.inner;
        s.check_part("parrived", p)?;
        let (_, arrived) = s.arrival(p);
        s.verify(|| EventKind::VerifyParrived {
            req: s.vreq,
            part: p as u32,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
            arrived,
        });
        Ok(arrived)
    }

    /// `MPI_Wait`: block until every internal message landed.
    pub fn wait(&self) {
        let s = &self.inner;
        assert!(s.started.load(Ordering::Acquire), "wait before start");
        let t_wait = s.comm.fabric().trace().now_ns();
        let what = |_| blocked(format!("recv wait(src={})", s.src), s.src);
        let done = std::slice::from_ref(&s.done);
        s.comm.fabric().wait_all(done, s.comm.rank(), what);
        s.end(false, t_wait);
    }

    /// Read partition `p`'s bytes (after `wait`).
    pub fn partition(&self, p: usize) -> &[u8] {
        let s = &self.inner;
        assert!(
            !s.started.load(Ordering::Acquire),
            "cannot read partitions while an iteration is active"
        );
        assert!(p < s.n_parts, "partition out of range");
        s.verify(|| EventKind::VerifyRead {
            req: s.vreq,
            part: p as u32,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
            dur_ns: 0,
        });
        s.storage.read_partition(p)
    }

    /// Checked read of partition `p`: the consumer-overlap access path.
    ///
    /// Unlike [`partition`](PrecvRequest::partition) this is legal *while
    /// the iteration is active*, provided the covering message has landed
    /// (`parrived(p)` observed `true` establishes the ordering; this
    /// method re-checks the arrival stamp itself, so a call without the
    /// prior probe is still memory-safe). Reading a partition whose
    /// message has not arrived aborts the universe with
    /// [`PcommError::Misuse`] — that access would race the fabric's copy.
    pub fn read_partition(&self, p: usize, f: impl FnOnce(&[u8])) {
        let s = &self.inner;
        if let Err(err) = s.check_part("read_partition", p) {
            s.fail(err);
        }
        if s.started.load(Ordering::Acquire) {
            let (m, arrived) = s.arrival(p);
            if !arrived {
                s.fail(PcommError::misuse(
                    s.comm.rank(),
                    format!("read_partition({p}) before parrived: message {m} still in flight"),
                ));
            }
            // The arrival check that just passed *is* the synchronization
            // with the delivering message; record it as a readiness edge
            // so the analyzer orders this read without a prior
            // `parrived` probe on the same thread.
            s.verify(|| EventKind::VerifyParrived {
                req: s.vreq,
                part: p as u32,
                iter: s.cur_iter(),
                tid: pcomm_trace::current_tid(),
                arrived: true,
            });
        }
        let t0 = s.comm.fabric().trace().verify_now_ns();
        f(s.storage.read_partition(p));
        s.verify(|| EventKind::VerifyRead {
            req: s.vreq,
            part: p as u32,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
            dur_ns: s.verify_since(t0),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::Universe;

    fn opts() -> PartOptions {
        PartOptions::default()
    }

    #[test]
    fn layout_gcd_and_aggregation() {
        let l = negotiate_layout(12, 8, 100, None);
        assert_eq!((l.n_msgs(), l.base_msgs()), (4, 4));
        let l = negotiate_layout(16, 16, 512, Some(2048));
        assert_eq!((l.n_msgs(), l.base_msgs()), (4, 16));
        assert!(l.msgs.iter().all(|m| m.bytes == 2048));
        // Mapping is total on both sides.
        for p in 0..16 {
            let _ = l.msg_of_spart(p);
            let _ = l.msg_of_rpart(p);
        }
    }

    #[test]
    fn layout_equal_counts_no_aggregation() {
        let l = negotiate_layout(8, 8, 1024, None);
        assert_eq!(l.n_msgs(), 8);
        for (i, m) in l.msgs.iter().enumerate() {
            assert_eq!(m.n_sparts, 1);
            assert_eq!(m.n_rparts, 1);
            assert_eq!(m.bytes, 1024);
            assert_eq!(m.first_spart, i);
        }
    }

    #[test]
    fn layout_gcd_mismatched_counts() {
        // gcd(12, 8) = 4 messages; 3 send parts / 2 recv parts each.
        let l = negotiate_layout(12, 8, 100, None);
        assert_eq!(l.n_msgs(), 4);
        for m in &l.msgs {
            assert_eq!(m.n_sparts, 3);
            assert_eq!(m.n_rparts, 2);
            assert_eq!(m.bytes, 300);
        }
    }

    #[test]
    fn layout_aggregation_respects_bound() {
        // 16 partitions of 512 B, aggregate up to 2048 B → 4 msgs of 4.
        let l = negotiate_layout(16, 16, 512, Some(2048));
        assert_eq!(l.n_msgs(), 4);
        for m in &l.msgs {
            assert_eq!(m.bytes, 2048);
            assert_eq!(m.n_sparts, 4);
        }
    }

    #[test]
    fn layout_aggregation_is_upper_bound_not_exact() {
        // 5 partitions of 900 B, limit 2000 → groups of 2,2,1.
        let l = negotiate_layout(5, 5, 900, Some(2000));
        let sizes: Vec<usize> = l.msgs.iter().map(|m| m.bytes).collect();
        assert_eq!(sizes, vec![1800, 1800, 900]);
    }

    #[test]
    fn layout_oversized_partition_stays_alone() {
        let l = negotiate_layout(4, 4, 4096, Some(1024));
        assert_eq!(l.n_msgs(), 4);
    }

    #[test]
    fn layout_partition_mapping_is_total() {
        let l = negotiate_layout(24, 16, 64, Some(512));
        for p in 0..24 {
            let m = l.msg_of_spart(p);
            assert!(m < l.n_msgs(), "partition {p} maps to missing msg {m}");
        }
        for p in 0..16 {
            let _ = l.msg_of_rpart(p);
        }
    }

    #[test]
    fn roundtrip_with_data_integrity() {
        Universe::new(2)
            .with_shards(4)
            .run(|comm| {
                let n = 8;
                let bytes = 256;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n, bytes, opts());
                    ps.start();
                    for p in 0..n {
                        ps.write_partition(p, |b| b.fill(p as u8 + 1));
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, n, bytes, opts());
                    pr.start();
                    pr.wait();
                    for p in 0..n {
                        assert!(pr.partition(p).iter().all(|&x| x == p as u8 + 1));
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn multithreaded_preadys_from_worker_threads() {
        Universe::new(2)
            .with_shards(4)
            .run(|comm| {
                let n_threads = 4;
                let theta = 4;
                let n = n_threads * theta;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n, 64, opts());
                    for _iter in 0..5 {
                        ps.start();
                        std::thread::scope(|s| {
                            for t in 0..n_threads {
                                let ps = ps.clone();
                                s.spawn(move || {
                                    for j in 0..theta {
                                        let p = t + j * n_threads;
                                        ps.write_partition(p, |b| b.fill(p as u8));
                                        ps.pready(p);
                                    }
                                });
                            }
                        });
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 0, n, 64, opts());
                    for _iter in 0..5 {
                        pr.start();
                        pr.wait();
                        for p in 0..n {
                            assert!(pr.partition(p).iter().all(|&x| x == p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn aggregation_reduces_message_count() {
        Universe::new(2)
            .run(|comm| {
                let o = PartOptions {
                    aggr_size: Some(4096),
                    ..PartOptions::default()
                };
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 32, 512, o);
                    assert_eq!(ps.n_msgs(), 4);
                    ps.start();
                    for p in 0..32 {
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 32, 512, o);
                    assert_eq!(pr.n_msgs(), 4);
                    pr.start();
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn early_bird_parrived_before_last_pready() {
        use std::sync::atomic::AtomicBool;
        static SAW_EARLY: AtomicBool = AtomicBool::new(false);
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 128, opts());
                    ps.start();
                    ps.pready(0);
                    // Give the receiver time to observe partition 0.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    ps.pready(1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 2, 128, opts());
                    pr.start();
                    // Poll for the early partition while the last is delayed.
                    let t0 = std::time::Instant::now();
                    while !pr.parrived(0) && t0.elapsed().as_millis() < 25 {
                        std::hint::spin_loop();
                    }
                    if pr.parrived(0) && !pr.parrived(1) {
                        SAW_EARLY.store(true, Ordering::SeqCst);
                    }
                    pr.wait();
                }
            })
            .unwrap();
        assert!(
            SAW_EARLY.load(Ordering::SeqCst),
            "partition 0 should arrive while partition 1 is still delayed"
        );
    }

    #[test]
    fn the_old_protocol_is_one_message_that_lands_only_in_the_senders_wait() {
        // The paper's old row: one message over the whole buffer, sent in
        // wait. Mismatched counts (8 × 96 B into 6 × 128 B) still make one.
        let o = PartOptions {
            aggr_size: Some(8 * 96),
            defer_sends: true,
        };
        let byte = |it: usize, g: usize| (g * 7 + it * 13) as u8;
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init_general(1, 0, 8, 96, 6, o.clone());
                    assert_eq!(ps.n_msgs(), 1);
                    for it in 0..3 {
                        comm.barrier(); // the receiver started
                        ps.start();
                        for p in 0..8 {
                            ps.write_partition(p, |b| {
                                for (i, x) in b.iter_mut().enumerate() {
                                    *x = byte(it, p * 96 + i);
                                }
                            });
                            ps.pready(p);
                        }
                        comm.barrier(); // every partition readied
                        comm.barrier(); // the receiver probed
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init_general(0, 0, 6, 128, 8, 96, o.clone());
                    assert_eq!(pr.n_msgs(), 1);
                    for it in 0..3 {
                        pr.start();
                        comm.barrier();
                        comm.barrier();
                        for p in 0..6 {
                            assert!(!pr.parrived(p), "iteration {it}: {p} landed before wait");
                        }
                        comm.barrier();
                        pr.wait();
                        for p in 0..6 {
                            let want: Vec<u8> = (0..128).map(|i| byte(it, p * 128 + i)).collect();
                            assert_eq!(pr.partition(p), &want[..], "iteration {it}, partition {p}");
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn rendezvous_sized_partitions() {
        Universe::new(2)
            .with_eager_max(1024)
            .run(|comm| {
                let bytes = 16 * 1024; // above eager_max → zcopy path
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 4, bytes, opts());
                    ps.start();
                    for p in 0..4 {
                        ps.write_partition(p, |b| b.fill(p as u8 + 10));
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 4, bytes, opts());
                    pr.start();
                    pr.wait();
                    for p in 0..4 {
                        assert!(pr.partition(p).iter().all(|&x| x == p as u8 + 10));
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn write_after_ready_is_misuse() {
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 64, opts());
                    ps.start();
                    ps.pready(0);
                    ps.write_partition(0, |b| b.fill(1));
                } else {
                    // Keep rank 1 passive; messages park unexpected.
                }
            })
            .unwrap_err();
        match err {
            crate::PcommError::Misuse { rank, detail } => {
                assert_eq!(rank, Some(0));
                assert!(detail.contains("already readied"), "{detail}");
            }
            other => panic!("expected Misuse, got {other:?}"),
        }
    }

    #[test]
    fn double_pready_is_misuse_and_leaves_request_usable() {
        // try_pready reports the duplicate without touching the message
        // counters: the iteration still completes and the data is intact.
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 64, opts());
                    ps.start();
                    ps.write_partition(0, |b| b.fill(7));
                    ps.pready(0);
                    let err = ps.try_pready(0).unwrap_err();
                    assert!(
                        matches!(&err, crate::PcommError::Misuse { rank: Some(0), detail }
                            if detail.contains("readied twice")),
                        "{err:?}"
                    );
                    ps.write_partition(1, |b| b.fill(8));
                    ps.pready(1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 2, 64, opts());
                    pr.start();
                    pr.wait();
                    assert!(pr.partition(0).iter().all(|&x| x == 7));
                    assert!(pr.partition(1).iter().all(|&x| x == 8));
                }
            })
            .unwrap();
    }

    #[test]
    fn inactive_pready_is_misuse() {
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 64, opts());
                    // Not started: MPI forbids pready on an inactive
                    // request.
                    ps.pready(0);
                }
            })
            .unwrap_err();
        match err {
            crate::PcommError::Misuse { rank, detail } => {
                assert_eq!(rank, Some(0));
                assert!(detail.contains("inactive"), "{detail}");
            }
            other => panic!("expected Misuse, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_pready_range_is_misuse_and_recoverable() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 4, 64, opts());
                    ps.start();
                    // 2..=5 walks off the end: partitions 2 and 3 are
                    // readied, 4 is rejected before any counter moves.
                    let err = ps.try_pready_range(2, 5).unwrap_err();
                    assert!(
                        matches!(&err, crate::PcommError::Misuse { rank: Some(0), detail }
                            if detail.contains("out of range")),
                        "{err:?}"
                    );
                    assert!(ps
                        .try_pready_range(5, 2)
                        .unwrap_err()
                        .to_string()
                        .contains("inverted"));
                    // The iteration is intact: finish the valid ones.
                    ps.pready_range(0, 1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 4, 64, opts());
                    pr.start();
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn out_of_range_parrived_is_misuse_and_recoverable() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 64, opts());
                    ps.start();
                    ps.pready_range(0, 1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 2, 64, opts());
                    pr.start();
                    let err = pr.try_parrived(99).unwrap_err();
                    assert!(
                        matches!(&err, crate::PcommError::Misuse { rank: Some(1), detail }
                            if detail.contains("out of range")),
                        "{err:?}"
                    );
                    // Probing misuse does not disturb the iteration.
                    pr.wait();
                    assert!(pr.try_parrived(1).unwrap());
                }
            })
            .unwrap();
    }

    #[test]
    fn pready_jitter_permutes_issue_order_and_data_survives() {
        use pcomm_trace::FaultKind;
        let plan = crate::FaultPlan::seeded(11).jitter(true);
        let (out, data) = Universe::new(2).with_fault_plan(plan).run_traced(|comm| {
            let n = 16;
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 0, n, 64, opts());
                for it in 0..3u8 {
                    ps.start();
                    for p in 0..n {
                        ps.write_partition(p, |b| b.fill(it ^ p as u8));
                    }
                    ps.pready_range(0, n - 1);
                    ps.wait();
                }
            } else {
                let pr = comm.precv_init(0, 0, n, 64, opts());
                for it in 0..3u8 {
                    pr.start();
                    pr.wait();
                    for p in 0..n {
                        assert!(pr.partition(p).iter().all(|&x| x == it ^ p as u8));
                    }
                }
            }
        });
        out.unwrap();
        let jitters = data
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    pcomm_trace::EventKind::FaultInjected {
                        fault: FaultKind::PreadyJitter,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(jitters, 3, "one jitter permutation per pready_range");
        // Bound in process: no message went through a match queue.
        let eager = |e: &&pcomm_trace::Event| matches!(e.kind, EventKind::EagerSend { .. });
        assert_eq!(data.events.iter().filter(eager).count(), 0);
    }

    #[test]
    fn pready_range_and_list() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 8, 64, PartOptions::default());
                    ps.start();
                    ps.pready_range(0, 3);
                    ps.pready_list(&[6, 4, 7, 5]);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 8, 64, PartOptions::default());
                    pr.start();
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn mismatched_partition_counts_use_gcd() {
        // 12 sender partitions of 100 B vs 8 receiver partitions of 150 B:
        // gcd = 4 messages of 300 B; data lands bit-exact.
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init_general(1, 0, 12, 100, 8, PartOptions::default());
                    assert_eq!(ps.n_msgs(), 4);
                    ps.start();
                    for p in 0..12 {
                        ps.write_partition(p, |b| {
                            for (i, x) in b.iter_mut().enumerate() {
                                *x = ((p * 100 + i) % 251) as u8;
                            }
                        });
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init_general(0, 0, 8, 150, 12, 100, PartOptions::default());
                    assert_eq!(pr.n_msgs(), 4);
                    pr.start();
                    pr.wait();
                    // Receiver partition r covers global bytes [150r, 150r+150).
                    for r in 0..8 {
                        let data = pr.partition(r);
                        for (i, &x) in data.iter().enumerate() {
                            let g = r * 150 + i; // global byte index
                            assert_eq!(x as usize, g % 251, "recv part {r} byte {i}");
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn mismatched_counts_with_aggregation() {
        Universe::new(2)
            .run(|comm| {
                let opts = PartOptions {
                    aggr_size: Some(600),
                    ..PartOptions::default()
                };
                if comm.rank() == 0 {
                    let ps = comm.psend_init_general(1, 0, 12, 100, 8, opts.clone());
                    // 4 base messages of 300 B aggregate pairwise under 600 B.
                    assert_eq!(ps.n_msgs(), 2);
                    ps.start();
                    for p in 0..12 {
                        ps.write_partition(p, |b| b.fill(p as u8));
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init_general(0, 0, 8, 150, 12, 100, opts);
                    assert_eq!(pr.n_msgs(), 2);
                    pr.start();
                    pr.wait();
                    // Global byte g belongs to sender partition g / 100.
                    for r in 0..8 {
                        for (i, &x) in pr.partition(r).iter().enumerate() {
                            let g = r * 150 + i;
                            assert_eq!(x as usize, g / 100, "recv part {r} byte {i}");
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn block_assignment_roundtrip_from_worker_threads() {
        // Block partition→thread ownership (the θ>1 layout §3.2.2 warns
        // about): each thread readies a contiguous run of partitions.
        let n_threads = 2;
        let theta = 4;
        let n = n_threads * theta;
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n, 128, opts());
                    ps.start();
                    std::thread::scope(|s| {
                        for t in 0..n_threads {
                            let ps = ps.clone();
                            s.spawn(move || {
                                for j in 0..theta {
                                    let p = t * theta + j; // block ownership
                                    ps.write_partition(p, |b| b.fill(p as u8 + 1));
                                    ps.pready(p);
                                }
                            });
                        }
                    });
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, n, 128, opts());
                    pr.start();
                    pr.wait();
                    for p in 0..n {
                        assert!(pr.partition(p).iter().all(|&x| x == p as u8 + 1));
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn deferred_sends_arrive_only_at_wait() {
        Universe::new(2)
            .run(|comm| {
                let opts = PartOptions {
                    defer_sends: true,
                    ..PartOptions::default()
                };
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 64, opts);
                    ps.start();
                    ps.pready(0);
                    // Give the receiver time to (not) observe partition 0.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    ps.pready(1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 2, 64, opts);
                    pr.start();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    assert!(
                        !pr.parrived(0),
                        "deferred mode must not deliver before wait"
                    );
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn parrived_probe_takes_no_locks() {
        // Acceptance check for the atomics-first hot path: once a
        // partition has arrived, probing it is a table lookup plus one
        // atomic load — zero runtime-mutex acquisitions on the probing
        // thread, and every probe lands on the completion fast path.
        Universe::new(2)
            .run(|comm| {
                const N: usize = 4;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, N, 64, opts());
                    ps.start();
                    for p in 0..N {
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, N, 64, opts());
                    pr.start();
                    while !(0..N).all(|p| pr.parrived(p)) {
                        std::hint::spin_loop();
                    }
                    let before = crate::hotpath::thread_stats();
                    for i in 0..1000 {
                        assert!(pr.parrived(i % N));
                    }
                    let after = crate::hotpath::thread_stats();
                    assert_eq!(
                        after.mutex_locks, before.mutex_locks,
                        "parrived hit path must take no runtime mutex"
                    );
                    assert_eq!(
                        after.completion_fast_probes - before.completion_fast_probes,
                        1000,
                        "every probe must use the single-load fast path"
                    );
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn parrived_true_on_inactive_request() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 32, opts());
                    ps.start();
                    ps.pready_range(0, 1);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 2, 32, opts());
                    // Inactive (never started): MPI reports complete.
                    assert!(pr.parrived(0) && pr.parrived(1));
                    pr.start();
                    pr.wait();
                    // Inactive again after wait().
                    assert!(pr.parrived(0) && pr.parrived(1));
                }
            })
            .unwrap();
    }

    #[test]
    fn pready_range_single_partition_and_empty_list() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 4, 32, opts());
                    ps.start();
                    ps.pready_list(&[]); // no-op, must not complete anything
                    ps.pready_range(2, 2); // lo == hi: exactly one partition
                    ps.pready_range(0, 1);
                    ps.pready(3);
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 4, 32, opts());
                    pr.start();
                    pr.wait();
                }
            })
            .unwrap();
    }

    #[test]
    fn pready_range_all_partitions_one_call() {
        Universe::new(2)
            .run(|comm| {
                let n = 16;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n, 64, opts());
                    for it in 0..3u8 {
                        ps.start();
                        for p in 0..n {
                            ps.write_partition(p, |b| b.fill(it ^ p as u8));
                        }
                        ps.pready_range(0, n - 1);
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 0, n, 64, opts());
                    for it in 0..3u8 {
                        pr.start();
                        pr.wait();
                        for p in 0..n {
                            assert!(pr.partition(p).iter().all(|&x| x == it ^ p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn multithreaded_pready_ranges() {
        // Worker threads each ready their own block via pready_range;
        // ranges race on the shared per-message counters.
        Universe::new(2)
            .with_shards(4)
            .run(|comm| {
                let n_threads = 4;
                let theta = 8;
                let n = n_threads * theta;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n, 32, opts());
                    for _it in 0..5 {
                        ps.start();
                        std::thread::scope(|s| {
                            for t in 0..n_threads {
                                let ps = ps.clone();
                                s.spawn(move || {
                                    let lo = t * theta;
                                    for p in lo..lo + theta {
                                        ps.write_partition(p, |b| b.fill(p as u8));
                                    }
                                    ps.pready_range(lo, lo + theta - 1);
                                });
                            }
                        });
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 0, n, 32, opts());
                    for _it in 0..5 {
                        pr.start();
                        pr.wait();
                        for p in 0..n {
                            assert!(pr.partition(p).iter().all(|&x| x == p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn reuse_many_iterations_data_fresh() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 2, 32, opts());
                    for it in 0..10u8 {
                        ps.start();
                        for p in 0..2 {
                            ps.write_partition(p, |b| b.fill(it * 2 + p as u8));
                            ps.pready(p);
                        }
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 0, 2, 32, opts());
                    for it in 0..10u8 {
                        pr.start();
                        pr.wait();
                        for p in 0..2 {
                            assert!(pr.partition(p).iter().all(|&x| x == it * 2 + p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    /// Sender's one completion set: every message of the iteration was
    /// copied (on whichever thread bumped second).
    fn all_sent(ps: &PsendRequest) -> bool {
        ps.inner.done.is_set()
    }

    #[test]
    fn matched_messages_advance_by_n_msgs_per_in_process_iteration() {
        // A bound copy is a matched message: the counter the benchmark's
        // `fabric.msgs_per_iter` and the watchdog read must keep moving.
        for aggr_size in [None, Some(4 * 64)] {
            Universe::new(2)
                .run(|comm| {
                    let o = PartOptions {
                        aggr_size,
                        ..opts()
                    };
                    if comm.rank() == 0 {
                        let ps = comm.psend_init(1, 0, 16, 64, o);
                        for _ in 0..5 {
                            ps.start();
                            ps.pready_range(0, 15);
                            ps.wait();
                        }
                    } else {
                        let pr = comm.precv_init(0, 0, 16, 64, o);
                        let n_msgs = pr.n_msgs() as u64;
                        assert_eq!(n_msgs, if aggr_size.is_some() { 4 } else { 16 });
                        let before = comm.matched_messages();
                        for it in 1..=5 {
                            pr.start();
                            pr.wait();
                            assert_eq!(comm.matched_messages() - before, it * n_msgs);
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn receiver_first_iterations_copy_on_the_readying_thread() {
        // The receiver starts and then holds the sender back, so every
        // bump of the sender comes second: its own pready copies.
        Universe::new(2)
            .run(|comm| {
                for it in 0..3u8 {
                    if comm.rank() == 0 {
                        let ps = comm.psend_init(1, 4, 8, 32, opts());
                        comm.barrier();
                        ps.start();
                        for p in 0..8 {
                            ps.write_partition(p, |b| b.fill(it * 8 + p as u8));
                            ps.pready(p);
                        }
                        assert!(all_sent(&ps), "the receiver started first");
                        ps.wait();
                    } else {
                        let pr = comm.precv_init(0, 4, 8, 32, opts());
                        pr.start();
                        comm.barrier();
                        pr.wait();
                        for p in 0..8 {
                            assert!(pr.partition(p).iter().all(|&x| x == it * 8 + p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn sender_first_iterations_copy_in_the_receivers_start() {
        // The sender readies everything before the receiver starts, so
        // the receiver's bumps come second: `start` itself lands every
        // message, before any wait.
        Universe::new(2)
            .run(|comm| {
                let n = 8;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 4, n, 32, opts());
                    for it in 0..3u8 {
                        ps.start();
                        for p in 0..n {
                            ps.write_partition(p, |b| b.fill(it ^ p as u8));
                        }
                        ps.pready_range(0, n - 1);
                        assert!(!all_sent(&ps), "the receiver has not started");
                        comm.barrier();
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 4, n, 32, opts());
                    for it in 0..3u8 {
                        comm.barrier();
                        pr.start();
                        assert!((0..n).all(|p| pr.parrived(p)), "start copies");
                        pr.wait();
                        for p in 0..n {
                            assert!(pr.partition(p).iter().all(|&x| x == it ^ p as u8));
                        }
                    }
                }
            })
            .unwrap();
    }

    /// Run `body` as ranks 0 and 1 of an in-process universe.
    fn in_process(body: &(dyn Fn(Comm) + Sync)) -> Result<(), PcommError> {
        Universe::new(2)
            .with_watchdog_ms(10_000)
            .run(body)
            .map(drop)
    }

    /// Run `body` as ranks 0 and 1 of two fabrics in this process joined
    /// by one socketpair, each rank on its own thread beside its
    /// carrier's progress thread, as in a multi-process run.
    fn over_a_socket(body: &(dyn Fn(Comm) + Sync)) -> Result<(), PcommError> {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let ranks = [(0, a), (1, b)].map(|(rank, sock)| {
            let trace = pcomm_trace::Trace::disabled();
            let dir = std::env::temp_dir();
            let (fabric, carrier) =
                crate::transport::tests::carrier_on(rank, sock, dir, trace, None);
            Arc::clone(&carrier).start(&fabric).unwrap();
            fabric
        });
        std::thread::scope(|s| {
            for (rank, fabric) in ranks.iter().enumerate() {
                s.spawn(move || {
                    crate::universe::run_ranks(fabric, rank..rank + 1, Some(10_000), &body);
                    fabric.wire().finalize(fabric);
                });
            }
        });
        ranks
            .iter()
            .find_map(|f| f.take_failure())
            .map_or(Ok(()), Err)
    }

    /// The one claim rule, over both movers. Both ranks leave a barrier
    /// together every iteration, so the receiver's post (its `start` in
    /// process, its credit on the wire) races the sender's stamps:
    /// either side may see the other first, or both may. A message
    /// claimed twice trips a debug assertion (the binding's countdown, or
    /// the wire span's), one claimed by neither stalls the waits until
    /// the watchdog fails the run, and a stale copy fails the fill check.
    /// Layouts: eight one-partition messages (no countdown in `pready`),
    /// and four of two partitions each (8 sender against 4 receiver
    /// partitions).
    #[test]
    fn binding_claims_each_message_once() {
        type Run = fn(&(dyn Fn(Comm) + Sync)) -> Result<(), PcommError>;
        const ITERS: u32 = 10_000;
        let fill = |it: u32, p: usize| (it as usize * 31 + p * 7) as u8;
        for run in [in_process as Run, over_a_socket] {
            for n_recv in [8, 4] {
                let go = std::sync::Barrier::new(2);
                let body = |comm: Comm| {
                    if comm.rank() == 0 {
                        let ps = comm.psend_init_general(1, 5, 8, 16, n_recv, opts());
                        for it in 0..ITERS {
                            ps.start();
                            for p in 0..8 {
                                ps.write_partition(p, |b| b.fill(fill(it, p)));
                            }
                            go.wait();
                            ps.pready_range(0, 7);
                            ps.wait();
                        }
                    } else {
                        let pr = comm.precv_init_general(0, 5, n_recv, 128 / n_recv, 8, 16, opts());
                        for it in 0..ITERS {
                            go.wait();
                            pr.start();
                            pr.wait();
                            for p in 0..8 {
                                let (rp, off) = (p * n_recv / 8, p * 16 % (128 / n_recv));
                                let got = &pr.partition(rp)[off..off + 16];
                                assert!(got.iter().all(|&x| x == fill(it, p)), "{it}: {p}");
                            }
                        }
                    }
                };
                run(&body).unwrap();
            }
        }
    }

    #[test]
    fn two_inits_on_one_peer_and_tag_pair_in_init_order() {
        // Both sends are initialised before either receive: the pairing
        // table holds two sender bindings for one key, taken oldest first.
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let a = comm.psend_init(1, 9, 4, 64, opts());
                    let b = comm.psend_init(1, 9, 4, 64, opts());
                    comm.barrier();
                    for (ps, fill) in [(&a, 0xA), (&b, 0xB)] {
                        ps.start();
                        for p in 0..4 {
                            ps.write_partition(p, |buf| buf.fill(fill));
                        }
                        ps.pready_range(0, 3);
                    }
                    a.wait();
                    b.wait();
                } else {
                    comm.barrier();
                    let a = comm.precv_init(0, 9, 4, 64, opts());
                    let b = comm.precv_init(0, 9, 4, 64, opts());
                    for (pr, fill) in [(&a, 0xA), (&b, 0xB)] {
                        pr.start();
                        pr.wait();
                        assert!((0..4).all(|p| pr.partition(p).iter().all(|&x| x == fill)));
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn a_started_request_dropped_after_an_abort_frees_nothing_in_use() {
        // Rank 1 starts its receive, then aborts the universe and drops
        // the request mid-iteration. Rank 0 readies afterwards, so its
        // bumps copy into the dropped receiver's buffer: the binding
        // keeps that buffer alive, and neither side hangs.
        let recv_buf = std::sync::Mutex::new(None::<std::sync::Weak<PartStorage>>);
        let t0 = std::time::Instant::now();
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 2, 4, 64, opts());
                    ps.start();
                    while !comm.fabric().aborted() {
                        std::thread::yield_now();
                    }
                    while recv_buf.lock().unwrap().is_none() {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ps.pready_range(0, 3);
                    assert!(all_sent(&ps), "the dropped receiver had started");
                    let buf = recv_buf.lock().unwrap().clone().expect("rank 1 ran");
                    assert!(buf.upgrade().is_some(), "the binding keeps it alive");
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 2, 4, 64, opts());
                    pr.start();
                    let _ = pr.try_parrived(99).map_err(|e| comm.fabric().fail(e));
                    *recv_buf.lock().unwrap() = Some(Arc::downgrade(&pr.inner.storage));
                    drop(pr);
                    panic_any(RankAborted);
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, PcommError::Misuse { rank: Some(1), .. }),
            "{err:?}"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "a drop hung"
        );
        let buf = recv_buf.into_inner().unwrap().expect("rank 1 ran");
        assert!(buf.upgrade().is_none(), "freed once both sides dropped");
    }

    #[test]
    fn inits_that_disagree_fail_at_pairing_instead_of_copying_out_of_bounds() {
        // 8 × 256 B against 8 × 128 B: the second init to arrive sees
        // the other layout and fails the universe before any copy.
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let _ps = comm.psend_init(1, 0, 8, 256, opts());
                    comm.barrier();
                    comm.barrier(); // unwinds once rank 1 fails
                } else {
                    comm.barrier();
                    let _pr = comm.precv_init(0, 0, 8, 128, opts());
                    comm.barrier();
                }
            })
            .unwrap_err();
        match err {
            PcommError::PeerPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("disagree"), "{message}");
            }
            other => panic!("expected a panic at pairing, got {other:?}"),
        }
    }

    #[test]
    fn a_thousand_init_drop_cycles_leave_the_pairing_table_empty() {
        Universe::new(2)
            .run(|comm| {
                for cycle in 0..1000u32 {
                    let (ps, pr) = if comm.rank() == 0 {
                        (Some(comm.psend_init(1, 1, 2, 16, opts())), None)
                    } else {
                        (None, Some(comm.precv_init(0, 1, 2, 16, opts())))
                    };
                    // Both inits ran (and paired) before either drop.
                    comm.barrier();
                    if cycle % 10 == 0 {
                        if let Some(ps) = &ps {
                            ps.start();
                            ps.pready_range(0, 1);
                            ps.wait();
                        }
                        if let Some(pr) = &pr {
                            pr.start();
                            pr.wait();
                        }
                    }
                }
                comm.barrier();
                assert!(comm.fabric().pairs.lock().is_empty());
                // Both ranks looked before rank 0's lone init below.
                comm.barrier();
                // A lone init waits in the table until its request drops.
                if comm.rank() == 0 {
                    let lone = comm.psend_init(1, 3, 2, 16, opts());
                    assert_eq!(comm.fabric().pairs.lock().len(), 1);
                    drop(lone);
                    assert!(comm.fabric().pairs.lock().is_empty());
                }
            })
            .unwrap();
    }
}
