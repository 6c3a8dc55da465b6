//! MPI-4 partitioned communication with real atomics (paper §3).
//!
//! The improved path (default) mirrors the paper's MPICH changes: the
//! partition buffer is split into internal messages — `gcd(N_send,
//! N_recv)` base messages, aggregated under
//! [`PartOptions::aggr_size`] — each guarded by an `AtomicI64` counter of
//! outstanding partitions. `pready(p)` decrements its message's counter;
//! the thread that brings it to zero injects the message *itself* — a
//! physically real early-bird send. A local peer is paired once, at
//! init (`Binding`): a ready message is copied straight into the
//! receiver's buffer, never tag-matched. A remote peer gets one pinned
//! wire stream per iteration. The legacy mode sends the whole buffer as
//! a single message only in `wait`, after a per-iteration CTS
//! round-trip, exactly the behaviour whose cost Fig. 4 exposes.

use std::cell::UnsafeCell;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use pcomm_trace::{EventKind, FaultKind};

use crate::sync::Mutex;

use crate::comm::Comm;
use crate::error::{PcommError, RankAborted};
use crate::fabric::{Fabric, MsgInfo, PostedRecv};
use crate::sync::Completion;

/// Tag of the legacy clear-to-send control message.
const TAG_CTS: i64 = -1;
/// Tag of the legacy single data message.
const TAG_DATA: i64 = -2;

/// Options for a partitioned request.
#[derive(Debug, Clone, Default)]
pub struct PartOptions {
    /// Aggregation upper bound in bytes (`MPIR_CVAR_PART_AGGR_SIZE`
    /// analogue); `None` disables aggregation.
    pub aggr_size: Option<usize>,
    /// Use the legacy single-message path (CTS every iteration, no
    /// early-bird) instead of the improved multi-message path.
    pub legacy_single_message: bool,
    /// Ablation: defer all sends to `wait()` (disables early-bird).
    pub defer_sends: bool,
}

/// One internal message of the improved path.
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

/// The negotiated partition→message mapping (paper §3.2.1).
///
/// Alongside the message list it carries dense partition→message index
/// tables, so the per-`pready` / per-`parrived` lookup is one bounds
/// check and one array read instead of a linear scan over messages —
/// `pready` sits on the application's inner loop.
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
        self.spart_msg
            .get(p)
            .copied()
            .expect("sender partition out of range") as usize
    }

    /// Message index covering a receiver partition (O(1)).
    pub fn msg_of_rpart(&self, p: usize) -> usize {
        self.rpart_msg
            .get(p)
            .copied()
            .expect("receiver partition out of range") as usize
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

/// Per-partition buffer state machine.
const PART_WRITABLE: u8 = 0;
const PART_WRITING: u8 = 1;
const PART_READY: u8 = 2;

/// Shared-arena backing for a receive-side partition buffer: the
/// transport granted `len` bytes at `ptr` (grant `token`) inside the
/// ipc segment's partition arena for the pair with `src`, so the
/// sender's `pready` commits bytes straight into this buffer — no copy
/// on either side. Released back to the transport when the request
/// drops.
struct SegBacking {
    ptr: *mut u8,
    len: usize,
    token: u64,
    src: usize,
}

/// The partitioned buffer: contiguous storage with per-partition access
/// states that make the raw-pointer sharing sound. Backed by owned heap
/// memory, or — receive side on the ipc fabric — by a granted range of
/// the shared partition arena.
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
    fn new(n_parts: usize, part_bytes: usize) -> PartStorage {
        PartStorage {
            data: UnsafeCell::new(vec![0u8; n_parts * part_bytes].into_boxed_slice()),
            seg: None,
            states: (0..n_parts).map(|_| AtomicU8::new(PART_WRITABLE)).collect(),
            part_bytes,
        }
    }

    /// Storage over a transport-granted shared-arena range (see
    /// [`SegBacking`]). Zeroed for parity with the heap constructor.
    fn new_in_segment(
        ptr: *mut u8,
        token: u64,
        src: usize,
        n_parts: usize,
        part_bytes: usize,
    ) -> PartStorage {
        let len = n_parts * part_bytes;
        // SAFETY: the transport granted `ptr..ptr+len` exclusively to
        // this storage until the grant is released on drop.
        unsafe {
            std::ptr::write_bytes(ptr, 0, len);
        }
        PartStorage {
            data: UnsafeCell::new(Vec::new().into_boxed_slice()),
            seg: Some(SegBacking {
                ptr,
                len,
                token,
                src,
            }),
            states: (0..n_parts).map(|_| AtomicU8::new(PART_WRITABLE)).collect(),
            part_bytes,
        }
    }

    /// The arena grant to return on drop, if segment-backed:
    /// `(src, token, len)`.
    fn seg_grant(&self) -> Option<(usize, u64, usize)> {
        self.seg.as_ref().map(|s| (s.src, s.token, s.len))
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

    fn write_partition(&self, p: usize, f: impl FnOnce(&mut [u8])) {
        let s = &self.states[p];
        s.compare_exchange(
            PART_WRITABLE,
            PART_WRITING,
            Ordering::Acquire,
            Ordering::Relaxed,
        )
        .unwrap_or_else(|cur| {
            panic!("partition {p} not writable (state {cur}): already ready or being written")
        });
        let off = p * self.part_bytes;
        let slice =
            // SAFETY: WRITING grants exclusive access to this disjoint range.
            unsafe { std::slice::from_raw_parts_mut(self.base().add(off), self.part_bytes) };
        f(slice);
        s.store(PART_WRITABLE, Ordering::Release);
    }

    /// Transition a partition WRITABLE→READY. `Err(state)` when the
    /// partition is already READY (readied twice) or mid-write — the
    /// storage is left untouched either way, so the caller can surface
    /// the misuse without corrupting the iteration.
    fn try_mark_ready(&self, p: usize) -> Result<(), u8> {
        self.states[p]
            .compare_exchange(
                PART_WRITABLE,
                PART_READY,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .map(|_| ())
    }

    /// A read-only view of a byte range whose partitions are all READY.
    ///
    /// # Safety
    /// Caller must ensure every partition in the range is READY (no
    /// writers) and remains READY while the slice is used.
    unsafe fn ready_slice(&self, byte_off: usize, len: usize) -> &[u8] {
        // SAFETY: bounds and aliasing forwarded from the caller's
        // contract (every covered partition READY for the lifetime).
        unsafe { std::slice::from_raw_parts(self.base().add(byte_off), len) }
    }

    /// Mutable view for the receive side (fabric writes while in flight).
    ///
    /// # Safety
    /// Caller must guarantee no concurrent access until completion.
    #[allow(clippy::mut_from_ref)]
    unsafe fn raw_range(&self, byte_off: usize, len: usize) -> &mut [u8] {
        // SAFETY: exclusivity forwarded from the caller's contract (the
        // fabric owns the range until its completion fires).
        unsafe { std::slice::from_raw_parts_mut(self.base().add(byte_off), len) }
    }

    fn read_partition(&self, p: usize) -> &[u8] {
        let off = p * self.part_bytes;
        // SAFETY: reads are only exposed by PrecvRequest after wait()
        // (iteration inactive — no writer exists) or, mid-iteration, via
        // the checked `read_partition` path after the covering message's
        // arrival signal was observed set. The fabric sets that signal
        // with Release *after* its last write into the range and the
        // probe loads it with Acquire, so the fabric's writes
        // happened-before this read and no writer touches the range
        // again until the next start().
        unsafe { std::slice::from_raw_parts(self.base().add(off), self.part_bytes) }
    }
}

/// One side of a [`Binding`]: its buffer and its per-message
/// completions (`arrived` on the receiver, `sent` on the sender).
type Side = (Arc<PartStorage>, Vec<Arc<Completion>>);

/// The in-process improved path's pairing of a `psend_init` with its
/// `precv_init`, made once by the second of the two (the first waits in
/// the fabric's `pairs` table). Each iteration both sides bump `turn[m]`
/// once per message — the sender when it issues `m`, the receiver in
/// `start` — and the second bump copies the message into the receiver's
/// buffer. The binding holds both buffers: no drop frees memory a copy
/// may still touch.
pub(crate) struct Binding {
    /// `(part ctx, src, dst)`: inits of one key pair oldest first.
    key: (u64, usize, usize),
    layout: MsgLayout,
    vreq: u16,
    turn: Vec<AtomicU64>,
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
                    turn: layout.msgs.iter().map(|_| AtomicU64::new(0)).collect(),
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

    /// This side's bump of message `m`, after it re-armed its own
    /// completion. The second bump copies the message (at one offset:
    /// the layout puts it at the same byte on both sides), then fires
    /// the receiver's `arrived[m]` — a matched message, for the counters
    /// and the analyzer — and the sender's `sent[m]`.
    fn bump(&self, fabric: &Fabric, m: usize) {
        if self.turn[m].fetch_add(1, Ordering::AcqRel) & 1 == 0 {
            return;
        }
        // Both sides bumped, so both inits ran.
        let (rbuf, arrived) = self.sides[0].get().expect("receiver side set");
        let (sbuf, sent) = self.sides[1].get().expect("sender side set");
        let spec = self.layout.msgs[m];
        let off = spec.first_spart * sbuf.part_bytes;
        // SAFETY: both bumps happened (AcqRel), so the sender's range is
        // READY until `sent[m]` lets its next start reset it, and nothing
        // touches the receiver's range until `arrived[m]` fires. Equal
        // layouts (asserted at pairing) put the range inside both
        // buffers, which `self` keeps alive.
        unsafe {
            std::ptr::copy_nonoverlapping(sbuf.base().add(off), rbuf.base().add(off), spec.bytes)
        };
        let info = MsgInfo {
            src: self.key.1,
            tag: m as i64,
            len: spec.bytes,
        };
        let vmsg = Some((self.vreq, m as u16));
        fabric.finish_recv(self.key.2, info, false, None, &arrived[m], vmsg);
        sent[m].set();
    }

    /// Take this binding out of the table if nobody paired with it (its
    /// request is dropping): a later init must pair with a live peer.
    fn unpair(self: &Arc<Self>, fabric: &Fabric) {
        fabric.pairs.lock().retain(|b| !Arc::ptr_eq(b, self));
    }
}

/// What both sides of a partitioned request hold; each side's shared
/// state derefs to it.
struct Core {
    comm: Comm,
    /// Interned verify request id (see [`Trace::verify_req_id`]), the
    /// same on both sides; 0 when verification is off.
    vreq: u16,
    n_parts: usize,
    part_bytes: usize,
    layout: MsgLayout,
    legacy: bool,
    /// The pairing with a local peer. `None` on the improved path means
    /// a remote peer: the messages travel as `PartData` ranges on one
    /// partitioned wire stream per iteration.
    bound: Option<Arc<Binding>>,
    storage: Arc<PartStorage>,
    started: AtomicBool,
    /// Iterations started so far; `iters - 1` is the current (or most
    /// recently completed) iteration, the `iter` of the verify events.
    iters: AtomicU64,
}

impl Core {
    fn n_msgs(&self) -> usize {
        if self.legacy {
            1
        } else {
            self.layout.n_msgs()
        }
    }

    /// Current iteration index for verify provenance (0 before the
    /// first `start`).
    fn cur_iter(&self) -> u32 {
        self.iters.load(Ordering::Relaxed).saturating_sub(1) as u32
    }

    /// The head of `MPI_Start` on either side: arm and record it.
    fn begin(&self, sender: bool) {
        let was = self.started.swap(true, Ordering::AcqRel);
        let side = if sender { "send" } else { "recv" };
        assert!(!was, "partitioned {side} started twice");
        let iter = self.iters.fetch_add(1, Ordering::Relaxed) as u32;
        self.verify(|| EventKind::VerifyStart {
            req: self.vreq,
            sender,
            iter,
            tid: pcomm_trace::current_tid(),
        });
    }

    /// The tail of `MPI_Wait` on either side, whose wait began at
    /// `t_wait`: record it and mark the request inactive.
    fn end(&self, sender: bool, t_wait: Option<u64>) {
        let (trace, rank) = (self.comm.fabric().trace(), self.comm.rank() as u16);
        trace.emit_span(t_wait, rank, |start, dur| {
            EventKind::PartWait {
                msgs: self.n_msgs() as u16,
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

    /// The verify events of this side's init (see
    /// [`verify_init_events`]); `n_peer_parts` is the peer's count.
    fn init_events(&self, sender: bool, n_peer_parts: usize) {
        let trace = self.comm.fabric().trace();
        if trace.is_verify() {
            verify_init_events(
                self.vreq,
                sender,
                self.n_parts,
                n_peer_parts,
                self.legacy,
                &self.layout,
                self.n_parts * self.part_bytes,
                |kind| self.verify(|| kind),
            );
        }
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
    /// The current iteration's stream id (valid while `started`).
    stream_id: AtomicU64,
    counters: Vec<AtomicI64>,
    /// Persistent per-message send signals: `sent[m]` is set once the
    /// bytes of message `m` are safely out of the partition buffer
    /// (copied into a local receiver's buffer, all on the wire, or sent
    /// by legacy's `wait`). Reset — never reallocated — by each `start()`,
    /// so the `pready`→`issue` hot path touches no lock and allocates
    /// nothing.
    sent: Vec<Arc<Completion>>,
    /// `issued[m]` is set once message `m` was handed to the fabric this
    /// iteration (the fabric may then hold a pointer into `storage`), so
    /// teardown knows exactly which `sent` signals it must drain.
    issued: Vec<AtomicBool>,
    /// Round counter for chaos `pready` jitter permutations.
    jitter_round: AtomicU64,
    /// Legacy: persistent CTS completion + envelope slot, re-armed and
    /// re-posted by each `start()`.
    cts_done: Arc<Completion>,
    cts_info: Arc<Mutex<Option<MsgInfo>>>,
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
        // iteration (a rank unwinding on abort or a panic), an issued
        // legacy or stream message pins a pointer into `storage`: drain
        // those signals (abort-aware) before the buffer is freed.
        if let Some(b) = &self.bound {
            b.unpair(self.comm.fabric());
        } else if self.started.load(Ordering::Acquire) {
            for (m, sent) in self.sent.iter().enumerate() {
                if self.issued[m].load(Ordering::Acquire) {
                    self.comm.fabric().drain_completion(sent);
                }
            }
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
/// identically.
#[allow(clippy::too_many_arguments)] // one-shot plumbing of the init shape
pub fn verify_init_events(
    req: u16,
    sender: bool,
    n_parts: usize,
    n_peer_parts: usize,
    legacy: bool,
    layout: &MsgLayout,
    total_bytes: usize,
    mut emit: impl FnMut(EventKind),
) {
    // Legacy: one message covering the whole buffer, sent in wait().
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
    let msgs = if legacy { &whole[..] } else { &layout.msgs };
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
        let part_comm = Comm::part_comm(self, tag);
        let n_msgs = layout.n_msgs();
        self.fabric()
            .trace()
            .emit(self.rank() as u16, || EventKind::AggrLayout {
                base_msgs: layout.base_msgs() as u16,
                msgs: n_msgs as u16,
                bytes_per_msg: layout.msgs[0].bytes as u64,
            });
        // The sender's rank disambiguates pairs sharing a (ctx, tag) —
        // e.g. a ring whose links all use one tag.
        let vreq = self
            .fabric()
            .trace()
            .verify_req_id(part_comm.ctx(), self.rank() as u16);
        let storage = Arc::new(PartStorage::new(n_parts, part_bytes));
        let sent: Vec<_> = (0..n_msgs).map(|_| Completion::new()).collect();
        let key = (part_comm.ctx(), self.rank(), dst);
        let side = (Arc::clone(&storage), sent.clone());
        let bound = (!opts.legacy_single_message && self.fabric().is_local(dst))
            .then(|| Binding::pair(self, key, 1, &layout, vreq, side));
        let inner = Arc::new(PsendShared {
            core: Core {
                comm: part_comm,
                vreq,
                n_parts,
                part_bytes,
                layout,
                legacy: opts.legacy_single_message,
                bound,
                storage,
                started: AtomicBool::new(false),
                iters: AtomicU64::new(0),
            },
            dst,
            defer_sends: opts.defer_sends,
            stream_id: AtomicU64::new(0),
            counters: (0..n_msgs).map(|_| AtomicI64::new(0)).collect(),
            sent,
            issued: (0..n_msgs).map(|_| AtomicBool::new(false)).collect(),
            jitter_round: AtomicU64::new(0),
            cts_done: Completion::new(),
            cts_info: Arc::new(Mutex::new(None)),
        });
        inner.init_events(true, n_recv_parts);
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
        self.precv_init_general(
            src,
            tag,
            n_parts,
            part_bytes,
            n_parts,
            n_parts * part_bytes / n_parts,
            opts,
        )
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
        let part_comm = Comm::part_comm(self, tag);
        let n_msgs = layout.n_msgs();
        // Same id the sender interned: both sides key by the sender's rank.
        let vreq = self
            .fabric()
            .trace()
            .verify_req_id(part_comm.ctx(), src as u16);
        let stream = !opts.legacy_single_message && !self.fabric().is_local(src);
        // On the ipc fabric, pin the destination inside the shared
        // partition arena when it fits: the sender then commits every
        // `pready` range directly into this buffer (true zero-copy).
        // Heap storage is the fallback everywhere else.
        let seg = stream.then(|| self.fabric().alloc_part_dest(src, n_parts * part_bytes));
        let storage = Arc::new(match seg.flatten() {
            Some((token, ptr)) => PartStorage::new_in_segment(ptr, token, src, n_parts, part_bytes),
            None => PartStorage::new(n_parts, part_bytes),
        });
        let arrived: Vec<_> = (0..n_msgs).map(|_| Completion::new_set()).collect();
        let key = (part_comm.ctx(), src, self.rank());
        let side = (Arc::clone(&storage), arrived.clone());
        let bound = (!opts.legacy_single_message && !stream)
            .then(|| Binding::pair(self, key, 0, &layout, vreq, side));
        let inner = Arc::new(PrecvShared {
            core: Core {
                comm: part_comm,
                vreq,
                n_parts,
                part_bytes,
                layout,
                legacy: opts.legacy_single_message,
                bound,
                storage,
                started: AtomicBool::new(false),
                iters: AtomicU64::new(0),
            },
            src,
            arrived,
            infos: (0..n_msgs).map(|_| Arc::new(Mutex::new(None))).collect(),
        });
        inner.init_events(false, n_send_parts);
        PrecvRequest { inner }
    }

    fn part_comm(parent: &Comm, tag: i64) -> Comm {
        let ctx = parent.part_ctx(tag);
        let shard = parent.fabric().shard_of_ctx(ctx);
        parent.with_ctx(ctx, shard)
    }
}

impl PsendRequest {
    /// Number of internal messages.
    pub fn n_msgs(&self) -> usize {
        self.inner.n_msgs()
    }

    /// The negotiated layout.
    pub fn layout(&self) -> &MsgLayout {
        &self.inner.layout
    }

    /// `MPI_Start`: arm the iteration.
    pub fn start(&self) {
        let s = &self.inner;
        s.begin(true);
        s.storage.reset();
        for issued in &s.issued {
            issued.store(false, Ordering::Release);
        }
        if s.legacy {
            // Re-arm the persistent CTS slots (quiescent: the previous
            // iteration's wait() returned) and post the receive; the data
            // send happens in wait().
            s.cts_done.reset();
            *s.cts_info.lock() = None;
            s.sent[0].reset();
            s.comm.fabric().post_recv(
                s.comm.rank(),
                s.comm.shard(),
                PostedRecv {
                    ctx: s.comm.ctx(),
                    src: Some(s.dst),
                    tag: Some(TAG_CTS),
                    dest_ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    dest_cap: 0,
                    info: Arc::clone(&s.cts_info),
                    completion: Arc::clone(&s.cts_done),
                    verify_msg: None,
                },
            );
            s.counters[0].store(s.n_parts as i64, Ordering::Release);
        } else {
            for (m, spec) in s.layout.msgs.iter().enumerate() {
                s.sent[m].reset();
                s.counters[m].store(spec.n_sparts as i64, Ordering::Release);
            }
            if s.bound.is_none() {
                // Wire stream: announce the whole buffer now so the
                // receiver's CTS can race the first pready — ranges
                // stream the moment both are in. Each message's byte span
                // carries its `sent` completion: the carrier flips it
                // when the span is fully on the wire.
                let spans = s
                    .layout
                    .msgs
                    .iter()
                    .enumerate()
                    .map(|(m, spec)| {
                        let offset = spec.first_spart * s.part_bytes;
                        crate::wire::SendSpan::new(offset, spec.bytes, Arc::clone(&s.sent[m]))
                    })
                    .collect();
                let id = s.comm.fabric().part_stream_begin(
                    s.dst,
                    s.comm.ctx(),
                    s.n_parts * s.part_bytes,
                    spans,
                );
                s.stream_id.store(id, Ordering::Release);
                let trace = s.comm.fabric().trace();
                if trace.is_verify() {
                    let (rank, stream) = (s.comm.rank() as u16, id as u32);
                    // Tie this process's interned request id to the wire
                    // stream id, per message: the offline auditor joins
                    // both ranks' id spaces through these events.
                    for (m, spec) in s.layout.msgs.iter().enumerate() {
                        let (m16, off, len32) = (
                            m as u16,
                            (spec.first_spart * s.part_bytes) as u64,
                            spec.bytes as u32,
                        );
                        trace.emit_verify(rank, || EventKind::VerifyStreamMsg {
                            stream,
                            req: s.vreq,
                            msg: m16,
                            tx: true,
                            offset: off,
                            len: len32,
                        });
                    }
                }
            }
        }
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
        if let Err(state) = s.storage.try_mark_ready(p) {
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
        // out-of-range pready can no longer skew them.
        if s.legacy {
            let left = s.counters[0].fetch_sub(1, Ordering::AcqRel) - 1;
            debug_assert!(left >= 0, "counter underflow despite state gate");
            return Ok(());
        }
        let m = s.layout.msg_of_spart(p);
        let left = s.counters[m].fetch_sub(1, Ordering::AcqRel) - 1;
        debug_assert!(left >= 0, "counter underflow despite state gate");
        if left == 0 && !s.defer_sends {
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
        let byte_off = spec.first_spart * s.part_bytes;
        let fabric = s.comm.fabric();
        // The transfer's read of the send partitions, for the analyzer.
        s.verify(|| EventKind::VerifyMsgSend {
            req: s.vreq,
            msg: m as u16,
            iter: s.cur_iter(),
            tid: pcomm_trace::current_tid(),
        });
        // Marked before the fabric sees the pointer: teardown must drain
        // `sent[m]` whenever the fabric might hold a reference.
        s.issued[m].store(true, Ordering::Release);
        match &s.bound {
            // In process: the fault plan decides as on the wire (a message
            // lost for good fails the universe and is never bumped).
            Some(b) => {
                if fabric.chaos_survives(s.dst, s.comm.ctx(), s.comm.rank(), m as i64) {
                    b.bump(fabric, m);
                }
            }
            // Wire streaming: the range is pinned into the stream's
            // aggregation window — no copy, no per-message envelope, no
            // CTS wait on this path. The carrier flips `sent[m]` once
            // the message's whole span is on the wire.
            None => fabric.part_stream_send(
                s.dst,
                s.comm.rank(),
                s.comm.ctx(),
                m as i64,
                s.stream_id.load(Ordering::Acquire),
                byte_off as u64,
                // SAFETY: every partition of message m is READY (its
                // counter hit zero) and stays READY until `sent[m]`,
                // which the next start() observes before resetting them.
                unsafe { s.storage.ready_slice(byte_off, spec.bytes) },
                spec.n_sparts as u16,
            ),
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

    /// `MPI_Wait`: complete the iteration. In legacy mode this waits for
    /// the CTS, then sends the whole buffer as one message. Toward a
    /// local peer it returns once the receiver has started the iteration
    /// and every message is copied (rendezvous semantics, which MPI
    /// permits).
    pub fn wait(&self) {
        let s = &self.inner;
        assert!(s.started.load(Ordering::Acquire), "wait before start");
        let trace = s.comm.fabric().trace();
        let t_wait = trace.now_ns();
        if s.legacy {
            assert_eq!(
                s.counters[0].load(Ordering::Acquire),
                0,
                "legacy wait requires all partitions ready"
            );
            let t_cts = trace.now_ns();
            s.comm.fabric().wait_on(&s.cts_done, s.comm.rank(), || {
                (
                    format!("partitioned send CTS wait(dst={})", s.dst),
                    Some(TAG_CTS),
                    Some(s.dst),
                )
            });
            trace.emit_span(t_cts, s.comm.rank() as u16, |start, dur| {
                EventKind::CtsWait {
                    peer: s.dst as u16,
                    wait_ns: dur,
                }
                .at(start)
            });
            let total = s.n_parts * s.part_bytes;
            // SAFETY: all partitions READY; exclusive until reset.
            let data = unsafe { s.storage.ready_slice(0, total) };
            s.verify(|| EventKind::VerifyMsgSend {
                req: s.vreq,
                msg: 0,
                iter: s.cur_iter(),
                tid: pcomm_trace::current_tid(),
            });
            s.issued[0].store(true, Ordering::Release);
            s.comm.fabric().send_raw_signal(
                s.dst,
                s.comm.shard(),
                s.comm.ctx(),
                s.comm.rank(),
                TAG_DATA,
                data,
                &s.sent[0],
            );
            s.comm.fabric().wait_on(&s.sent[0], s.comm.rank(), || {
                (
                    format!("partitioned send data wait(dst={})", s.dst),
                    Some(TAG_DATA),
                    Some(s.dst),
                )
            });
        } else {
            if s.defer_sends {
                for m in 0..s.layout.n_msgs() {
                    assert_eq!(
                        s.counters[m].load(Ordering::Acquire),
                        0,
                        "deferred wait requires all partitions ready"
                    );
                    self.issue(m, None);
                }
            }
            // Toward a local peer, `sent[m]` needs the receiver's start
            // (the copy); toward a remote one, the bytes on the wire.
            s.comm.fabric().wait_all(&s.sent, s.comm.rank(), |m| {
                (
                    format!("partitioned send wait(dst={}, msg={m})", s.dst),
                    Some(m as i64),
                    Some(s.dst),
                )
            });
        }
        s.end(true, t_wait);
    }
}

struct PrecvShared {
    core: Core,
    src: usize,
    /// Persistent per-message arrival signals: created pre-set so probing
    /// an *inactive* request reports completion (MPI's convention for
    /// inactive persistent requests), reset by `start()` and set by the
    /// fabric when message `m` lands. `parrived` is thus a table lookup
    /// plus a single atomic load — no lock, ever.
    arrived: Vec<Arc<Completion>>,
    /// Persistent envelope slots handed to the fabric with each post.
    infos: Vec<Arc<Mutex<Option<MsgInfo>>>>,
}

impl std::ops::Deref for PrecvShared {
    type Target = Core;
    fn deref(&self) -> &Core {
        &self.core
    }
}

impl Drop for PrecvShared {
    fn drop(&mut self) {
        // As on the send side; an arrival signal the iteration never
        // re-armed is still set and drains instantly.
        if let Some(b) = &self.bound {
            b.unpair(self.comm.fabric());
        } else if self.started.load(Ordering::Acquire) {
            for arrived in &self.arrived {
                self.comm.fabric().drain_completion(arrived);
            }
        }
        // Hand a shared-arena destination back to the transport (no-op
        // for heap storage). After the drains above, no commit can still
        // target the range.
        if let Some((src, token, len)) = self.storage.seg_grant() {
            self.comm.fabric().release_part_dest(src, token, len);
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
        self.inner.n_msgs()
    }

    /// `MPI_Start`: re-arm the internal messages (improved) or send the
    /// CTS and post the single data receive (legacy).
    pub fn start(&self) {
        let s = &self.inner;
        s.begin(false);
        if s.legacy {
            // Re-arm the persistent slots *before* posting: a fulfilled
            // post sets `arrived[0]` immediately when the data message is
            // already parked in the unexpected queue.
            s.arrived[0].reset();
            *s.infos[0].lock() = None;
            s.comm.fabric().send_raw(
                s.src,
                s.comm.shard(),
                s.comm.ctx(),
                s.comm.rank(),
                TAG_CTS,
                &[],
            );
            let total = s.n_parts * s.part_bytes;
            // SAFETY: buffer exclusively owned by the fabric until wait().
            let buf = unsafe { s.storage.raw_range(0, total) };
            s.comm.fabric().post_recv(
                s.comm.rank(),
                s.comm.shard(),
                PostedRecv {
                    ctx: s.comm.ctx(),
                    src: Some(s.src),
                    tag: Some(TAG_DATA),
                    dest_ptr: buf.as_mut_ptr(),
                    dest_cap: buf.len(),
                    info: Arc::clone(&s.infos[0]),
                    completion: Arc::clone(&s.arrived[0]),
                    verify_msg: Some((s.vreq, 0)),
                },
            );
        } else if let Some(b) = &s.bound {
            // In process: re-arm each message, then bump it; a sender
            // that already issued it is waiting for this bump to copy.
            for (m, arrived) in s.arrived.iter().enumerate() {
                arrived.reset();
                b.bump(s.comm.fabric(), m);
            }
        } else {
            // Streaming path: hand the whole pinned buffer to the
            // transport once; PartData ranges commit straight into it and
            // flip each message's `arrived` as its bytes land.
            let mut msgs = Vec::with_capacity(s.layout.msgs.len());
            for (m, spec) in s.layout.msgs.iter().enumerate() {
                s.arrived[m].reset();
                *s.infos[m].lock() = None;
                msgs.push(crate::wire::PartStreamMsg {
                    offset: spec.first_rpart * s.part_bytes,
                    len: spec.bytes,
                    remaining: AtomicUsize::new(spec.bytes),
                    completion: Arc::clone(&s.arrived[m]),
                    info: Arc::clone(&s.infos[m]),
                    verify_msg: Some((s.vreq, m as u16)),
                    tag: m as i64,
                });
            }
            let total = s.n_parts * s.part_bytes;
            // SAFETY: buffer exclusively owned by the fabric until wait().
            let buf = unsafe { s.storage.raw_range(0, total) };
            s.comm.fabric().part_stream_post(
                s.src,
                s.comm.ctx(),
                crate::wire::PartStreamRecv {
                    base: buf.as_mut_ptr(),
                    total_len: total,
                    msgs,
                },
            );
        }
    }

    /// `MPI_Parrived`: has receiver partition `p` landed?
    ///
    /// Hot path: an O(1) partition→message table lookup plus one atomic
    /// load on the message's persistent arrival signal — no lock is taken
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
        let m = if s.legacy {
            0
        } else {
            s.layout.msg_of_rpart(p)
        };
        let arrived = s.arrived[m].is_set();
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
        s.comm
            .fabric()
            .wait_all(&s.arrived[..s.n_msgs()], s.comm.rank(), |m| {
                (
                    format!("partitioned recv wait(src={}, msg={m})", s.src),
                    Some(m as i64),
                    Some(s.src),
                )
            });
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
    /// method re-checks the arrival signal itself, so a call without the
    /// prior probe is still memory-safe). Reading a partition whose
    /// message has not arrived aborts the universe with
    /// [`PcommError::Misuse`] — that access would race the fabric's copy.
    pub fn read_partition(&self, p: usize, f: impl FnOnce(&[u8])) {
        let s = &self.inner;
        if let Err(err) = s.check_part("read_partition", p) {
            s.fail(err);
        }
        let m = if s.legacy {
            0
        } else {
            s.layout.msg_of_rpart(p)
        };
        if s.started.load(Ordering::Acquire) {
            if !s.arrived[m].is_set() {
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
    fn legacy_single_message_roundtrip() {
        Universe::new(2)
            .run(|comm| {
                let o = PartOptions {
                    legacy_single_message: true,
                    ..PartOptions::default()
                };
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 4, 128, o);
                    for _ in 0..3 {
                        ps.start();
                        for p in 0..4 {
                            ps.write_partition(p, |b| b.fill(9));
                            ps.pready(p);
                        }
                        ps.wait();
                    }
                } else {
                    let pr = comm.precv_init(0, 0, 4, 128, o);
                    for _ in 0..3 {
                        pr.start();
                        pr.wait();
                        assert!(pr.partition(3).iter().all(|&x| x == 9));
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

    /// Sender's `sent` signals all set: every message of the iteration
    /// was copied (on whichever thread bumped second).
    fn all_sent(ps: &PsendRequest) -> bool {
        ps.inner.sent.iter().all(|c| c.is_set())
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
