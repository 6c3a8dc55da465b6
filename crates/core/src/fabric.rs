//! The shared-memory fabric: tag matching, eager and rendezvous transfer.
//!
//! # Structure
//!
//! Each rank owns `n_shards` *match shards* — independently locked
//! matching queues. A shard is the in-process analogue of an MPICH VCI:
//! all traffic of a communicator goes through one shard, so threads
//! sending on the *same* communicator contend on one lock, while threads
//! with `dup()`ed communicators spread over shards and do not (the
//! mechanism behind the paper's Figs. 5–6).
//!
//! # Transfer paths
//!
//! * **Eager** (`len <= eager_max`): the sender copies the payload into a
//!   heap buffer, then either fulfills a posted receive (second copy into
//!   the destination) or parks the buffer in the unexpected queue. The
//!   send completes locally — the bcopy path.
//! * **Rendezvous** (`len > eager_max`): the sender publishes a raw
//!   pointer to its buffer; whoever completes the match (sender if the
//!   receive was pre-posted, receiver otherwise) copies directly from the
//!   source into the destination, then signals the sender — the zcopy
//!   path. The sender's request completes only then.
//! * **Partitioned** (improved path): never matched here. A local pair
//!   meets once, at init, in `pairs`; each ready message is then copied
//!   straight into the receiver's buffer ([`crate::part::Binding`]).
//!
//! # Safety
//!
//! The raw pointers crossing threads are governed by two invariants,
//! enforced by the safe wrappers in [`crate::p2p`] / [`crate::part`]:
//!
//! 1. A rendezvous source buffer stays immutable and alive until its
//!    `done` completion is set (senders block or hold the ticket).
//! 2. A posted destination buffer stays exclusively borrowed and alive
//!    until its `completion` is set (receivers block or own the buffer).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pcomm_trace::{EventKind, FaultAction, FaultKind, FaultPlan, Trace};

use crate::error::{BlockedWait, PcommError, QueueEntry, RankAborted, StallReport};
use crate::hotpath;
use crate::sync::{CachePadded, Condvar, Mutex};

use crate::sync::Completion;

/// Slice length for abort-aware blocking waits: blocked threads park in
/// slices of this and poll the abort flag between them. Short enough
/// that an abort propagates promptly, long enough that a blocked thread
/// wakes only ~500 times/s.
pub(crate) const WAIT_SLICE: Duration = Duration::from_millis(2);

/// After an abort, how long teardown paths keep waiting for an
/// in-progress fulfill to finish before giving up the buffer. No *new*
/// fulfill can start once the abort flag is set, so this only needs to
/// cover a memcpy already under way.
const ABORT_DRAIN_GRACE: Duration = Duration::from_millis(200);

/// Recycled-buffer slots per source rank in the eager pool. Eight covers
/// the in-flight window of a rank's sender threads in the bench workloads
/// without hoarding memory.
const POOL_SLOTS: usize = 8;

/// Lock-free pool of eager payload buffers, striped by *source* rank.
///
/// Each stripe is a fixed array of `AtomicPtr` slots holding boxed
/// `Vec<u8>`s. `acquire` swaps a slot to null and takes whole ownership of
/// the pointed-to vector; `release` CASes a cleared vector into the first
/// null slot (or drops it when the stripe is full). Because slots exchange
/// *whole owned values* — never links into a shared list — there is no ABA
/// hazard and no lock. A sender therefore pays one allocation per stripe
/// warm-up instead of one per message.
struct BufPool {
    stripes: Vec<[AtomicPtr<Vec<u8>>; POOL_SLOTS]>,
    /// Buffers whose capacity grew past this are dropped, not pooled.
    max_cap: usize,
}

impl BufPool {
    fn new(n_ranks: usize, max_cap: usize) -> BufPool {
        BufPool {
            stripes: (0..n_ranks)
                .map(|_| std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())))
                .collect(),
            max_cap,
        }
    }

    /// Take a cleared buffer from `rank`'s stripe; `true` means recycled.
    fn acquire(&self, rank: usize) -> (Vec<u8>, bool) {
        for slot in &self.stripes[rank] {
            let p = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: non-null slot values come only from
                // `Box::into_raw` in `release`; the swap transferred sole
                // ownership to us.
                let v = unsafe { *Box::from_raw(p) };
                return (v, true);
            }
        }
        (Vec::new(), false)
    }

    /// Return `buf` to `rank`'s stripe for reuse.
    fn release(&self, rank: usize, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_cap {
            return;
        }
        buf.clear();
        let p = Box::into_raw(Box::new(buf));
        for slot in &self.stripes[rank] {
            if slot
                .compare_exchange(
                    std::ptr::null_mut(),
                    p,
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
        // Stripe full: free the buffer instead of blocking.
        // SAFETY: `p` came from `Box::into_raw` above and was never
        // published (every CAS failed).
        unsafe { drop(Box::from_raw(p)) };
    }
}

impl Drop for BufPool {
    fn drop(&mut self) {
        for stripe in &self.stripes {
            for slot in stripe {
                let p = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
                if !p.is_null() {
                    // SAFETY: sole owner at drop time; pointer came from
                    // `Box::into_raw` in `release`.
                    unsafe { drop(Box::from_raw(p)) };
                }
            }
        }
    }
}

/// Envelope information returned by receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// Source rank.
    pub src: usize,
    /// Message tag.
    pub tag: i64,
    /// Payload length in bytes.
    pub len: usize,
}

/// Rendezvous handoff: pointer to the sender's buffer plus the completion
/// the copier must set.
pub(crate) struct RdvHandoff {
    pub(crate) src_ptr: *const u8,
    pub(crate) len: usize,
    pub(crate) done: Arc<Completion>,
    /// Trace timestamp of the RTS (None when tracing is disabled).
    pub(crate) rts_ns: Option<u64>,
}

// SAFETY: the pointer is only dereferenced by the matching thread before
// `done.set()`; invariant (1) above guarantees the buffer outlives that.
unsafe impl Send for RdvHandoff {}

pub(crate) enum Payload {
    Eager(Vec<u8>),
    Rdv(RdvHandoff),
    /// A rendezvous RTS that arrived over the wire: no local pointer —
    /// matching hands the posted buffer to the wire engine as the
    /// destination of the rendezvous's one-message stream.
    RdvRemote {
        len: usize,
        rdv_id: u64,
    },
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::Eager(v) => v.len(),
            Payload::Rdv(h) => h.len,
            Payload::RdvRemote { len, .. } => *len,
        }
    }
}

/// A receive posted into a shard, waiting for its message.
pub(crate) struct PostedRecv {
    pub(crate) ctx: u64,
    pub(crate) src: Option<usize>,
    pub(crate) tag: Option<i64>,
    pub(crate) dest_ptr: *mut u8,
    pub(crate) dest_cap: usize,
    pub(crate) info: Arc<Mutex<Option<MsgInfo>>>,
    pub(crate) completion: Arc<Completion>,
    /// `Some((req, m))` when this is message `m` of partitioned request
    /// `req` (the interned verify id): fulfilling it emits a
    /// `VerifyMsgRecv` analysis event (the transfer's write into the
    /// partition buffer).
    pub(crate) verify_msg: Option<(u16, u16)>,
}

// SAFETY: the destination is only written by the fulfilling thread before
// `completion.set()`; invariant (2) above guarantees exclusive access.
unsafe impl Send for PostedRecv {}

impl PostedRecv {
    fn matches(&self, ctx: u64, src: usize, tag: i64) -> bool {
        self.ctx == ctx
            && self.src.map(|s| s == src).unwrap_or(true)
            && self.tag.map(|t| t == tag).unwrap_or(true)
    }
}

struct UnexpectedMsg {
    ctx: u64,
    src: usize,
    tag: i64,
    payload: Payload,
}

#[derive(Default)]
struct MatchQueues {
    posted: Vec<PostedRecv>,
    unexpected: Vec<UnexpectedMsg>,
}

/// Ticket for an in-flight send; `None` completion means it completed
/// locally (eager).
pub(crate) struct SendTicket {
    done: Option<Arc<Completion>>,
}

impl SendTicket {
    /// The pending completion, if the send did not complete locally.
    /// Callers inside a universe wait on it through
    /// [`Fabric::wait_on`] so the wait stays abort-aware.
    pub(crate) fn done(&self) -> Option<&Arc<Completion>> {
        self.done.as_ref()
    }
}

/// Ticket for an in-flight receive.
pub(crate) struct RecvTicket {
    pub(crate) completion: Arc<Completion>,
    pub(crate) info: Arc<Mutex<Option<MsgInfo>>>,
}

/// An eager message held back by the chaos reorder fault, waiting for a
/// later message to overtake it.
struct HeldMsg {
    shard: usize,
    ctx: u64,
    src: usize,
    tag: i64,
    buf: Vec<u8>,
}

/// Chaos-injection state: the plan plus the mutable bookkeeping its
/// determinism and the reorder fault need. Present only when a
/// [`FaultPlan`] is configured — the fault-free hot path pays exactly
/// one `Option` branch per send.
struct FaultState {
    plan: FaultPlan,
    /// Per-channel `(src, dst, ctx, tag)` message sequence numbers. The
    /// plan's decisions are keyed by these (not by arrival order), which
    /// is what makes a seeded run bit-for-bit reproducible regardless of
    /// thread interleaving.
    seqs: Mutex<HashMap<(usize, usize, u64, i64), u64>>,
    /// Held-back (reordered) messages, indexed by destination rank.
    held: Vec<Mutex<Vec<HeldMsg>>>,
}

impl FaultState {
    fn new(plan: FaultPlan, n_ranks: usize) -> FaultState {
        FaultState {
            plan,
            seqs: Mutex::new(HashMap::new()),
            held: (0..n_ranks).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn next_seq(&self, src: usize, dst: usize, ctx: u64, tag: i64) -> u64 {
        let mut seqs = self.seqs.lock();
        let c = seqs.entry((src, dst, ctx, tag)).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }
}

/// Sense-reversing barrier that waits in slices so a blocked rank can
/// notice the abort flag instead of deadlocking on a dead peer
/// (`std::sync::Barrier` has no way out).
struct BarrierState {
    count: usize,
    generation: u64,
}

/// The shared-memory interconnect between ranks.
pub(crate) struct Fabric {
    n_ranks: usize,
    n_shards: usize,
    eager_max: usize,
    /// `[rank][shard]` matching queues.
    shards: Vec<Vec<Mutex<MatchQueues>>>,
    /// Deterministic child-context derivation (dup/window/partitioned);
    /// collective creation order must agree across ranks, as in MPI.
    ctx_counters: Mutex<HashMap<(usize, u64, u8), u64>>,
    /// Window registry for collective window creation.
    win_registry: Mutex<HashMap<u64, Arc<crate::rma::WinMem>>>,
    win_cv: Condvar,
    /// Rank-level barrier (sense-reversing, abort-aware).
    barrier_state: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Messages matched so far, bound partitioned copies included.
    matched: CachePadded<AtomicU64>,
    /// Local partitioned inits waiting for their peer's, oldest first.
    pub(crate) pairs: Mutex<Vec<Arc<crate::part::Binding>>>,
    /// Recycled eager payload buffers, striped by source rank.
    pool: BufPool,
    /// Trace sink; `Trace::disabled()` costs one branch per event site.
    trace: Trace,
    /// Chaos-injection state; `None` outside chaos runs.
    fault: Option<FaultState>,
    /// First failure wins; everything after is a casualty of the abort.
    failure: Mutex<Option<PcommError>>,
    /// Once set, blocking waits unwind with [`RankAborted`] and the
    /// match queues stop fulfilling (so teardown can free buffers).
    aborted: AtomicBool,
    /// Bumped at every progress point; the watchdog declares a stall
    /// only after this stays still for the whole deadline.
    activity: CachePadded<AtomicU64>,
    /// Blocked waits by registration id, for the stall report.
    wait_registry: Mutex<HashMap<u64, BlockedWait>>,
    next_wait_id: AtomicU64,
    /// Per-rank "closure returned" flags, for the stall report.
    finished: Vec<AtomicBool>,
    /// How remote-hosted ranks are reached (multiprocess runs): the
    /// protocol engine over its carrier — the shared-memory stub
    /// otherwise, in which case nothing in it is ever called.
    wire: crate::wire::WireProtocol,
    /// Whether ranks live in separate processes — keeps the hot-path
    /// locality check to one branch on a plain bool.
    multiproc: bool,
}

/// Child-context kinds (must match across ranks for a given creation).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CtxKind {
    Dup = 1,
    Win = 2,
    Part = 3,
}

impl Fabric {
    pub(crate) fn new_configured(
        n_ranks: usize,
        n_shards: usize,
        eager_max: usize,
        trace: Trace,
        fault_plan: Option<FaultPlan>,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> Arc<Fabric> {
        assert!(n_ranks >= 1 && n_shards >= 1);
        let multiproc = transport.local_rank().is_some();
        Arc::new(Fabric {
            n_ranks,
            n_shards,
            eager_max,
            shards: (0..n_ranks)
                .map(|_| {
                    (0..n_shards)
                        .map(|_| Mutex::new(MatchQueues::default()))
                        .collect()
                })
                .collect(),
            ctx_counters: Mutex::new(HashMap::new()),
            win_registry: Mutex::new(HashMap::new()),
            win_cv: Condvar::new(),
            barrier_state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
            matched: CachePadded::default(),
            pairs: Mutex::new(Vec::new()),
            pool: BufPool::new(n_ranks, eager_max.max(64)),
            trace,
            fault: fault_plan.map(|p| FaultState::new(p, n_ranks)),
            failure: Mutex::new(None),
            aborted: AtomicBool::new(false),
            activity: CachePadded::default(),
            wait_registry: Mutex::new(HashMap::new()),
            next_wait_id: AtomicU64::new(0),
            finished: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
            wire: crate::wire::WireProtocol::new(n_ranks, transport),
            multiproc,
        })
    }

    /// Whether `rank` is hosted by this process. Always true for
    /// in-process universes; in multiprocess runs only the local rank is.
    #[inline]
    pub(crate) fn is_local(&self, rank: usize) -> bool {
        !self.multiproc || rank == self.wire.rank()
    }

    /// The wire protocol engine (multiprocess runs).
    pub(crate) fn wire(&self) -> &crate::wire::WireProtocol {
        &self.wire
    }

    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    pub(crate) fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.n_shards
    }

    pub(crate) fn eager_max(&self) -> usize {
        self.eager_max
    }

    pub(crate) fn matched_count(&self) -> u64 {
        self.matched.load(Ordering::Relaxed)
    }

    /// The transport's doorbell tallies (ipc fabric only).
    pub(crate) fn doorbell_stats(&self) -> Option<crate::error::DoorbellStats> {
        self.wire.carrier().doorbell_stats()
    }

    /// The configured fault plan, if any (chaos runs only).
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Record a failure and abort the universe. The first failure wins;
    /// later ones are casualties of the abort and are discarded. In
    /// multiprocess runs the first local failure is also broadcast to
    /// every peer process.
    pub(crate) fn fail(&self, err: PcommError) {
        self.fail_with(err, true);
    }

    /// Record a failure received *from* the wire: identical to
    /// [`Fabric::fail`] but never re-broadcast, so abort frames cannot
    /// echo between processes forever.
    pub(crate) fn fail_from_wire(&self, err: PcommError) {
        self.fail_with(err, false);
    }

    fn fail_with(&self, err: PcommError, broadcast: bool) {
        let first = {
            let mut f = self.failure.lock();
            if f.is_none() {
                *f = Some(err.clone());
                true
            } else {
                false
            }
        };
        self.aborted.store(true, Ordering::Release);
        // Barrier waiters poll in slices, but wake them now anyway.
        self.barrier_cv.notify_all();
        self.win_cv.notify_all();
        if first && broadcast && self.multiproc {
            self.wire.broadcast_abort(self, &err);
        }
    }

    /// A clone of the failure of record, if any (leaves it in place for
    /// [`Fabric::take_failure`]).
    pub(crate) fn failure_snapshot(&self) -> Option<PcommError> {
        self.failure.lock().clone()
    }

    /// Whether some rank already failed and the universe is unwinding.
    pub(crate) fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Take the failure of record (once, by the universe after joining).
    pub(crate) fn take_failure(&self) -> Option<PcommError> {
        self.failure.lock().take()
    }

    /// Monotonic progress counter for the watchdog.
    pub(crate) fn activity(&self) -> u64 {
        self.activity.load(Ordering::Relaxed)
    }

    #[inline]
    fn touch(&self) {
        self.activity.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark `rank`'s closure as returned (stall-report bookkeeping).
    pub(crate) fn mark_finished(&self, rank: usize) {
        self.finished[rank].store(true, Ordering::Release);
        self.touch();
    }

    /// Whether any blocked wait is currently registered.
    pub(crate) fn has_blocked_waits(&self) -> bool {
        !self.wait_registry.lock().is_empty()
    }

    fn register_wait(
        &self,
        rank: usize,
        what: String,
        tag: Option<i64>,
        peer: Option<usize>,
    ) -> u64 {
        let id = self.next_wait_id.fetch_add(1, Ordering::Relaxed);
        self.wait_registry.lock().insert(
            id,
            BlockedWait {
                rank,
                what,
                tag,
                peer,
            },
        );
        id
    }

    fn unregister_wait(&self, id: u64) {
        self.wait_registry.lock().remove(&id);
    }

    /// Abort-aware blocking wait: park on `completion` in
    /// [`WAIT_SLICE`]s, polling the abort flag between slices, and
    /// unwind with [`RankAborted`] once some rank failed. After the
    /// first slice times out the wait registers itself (lazily — short
    /// waits never touch the registry) so a stall report can say which
    /// rank is blocked on what. `label` builds that description and is
    /// called at most once.
    ///
    /// The completed fast path is identical to `Completion::wait`: one
    /// atomic load, no locks.
    pub(crate) fn wait_on<F>(&self, completion: &Completion, rank: usize, label: F)
    where
        F: FnOnce() -> (String, Option<i64>, Option<usize>),
    {
        let mut label = Some(label);
        let mut reg_id = None;
        loop {
            // The carrier owns the park: the default sleeps one
            // WAIT_SLICE on the completion; the ipc fabric instead runs
            // inline progress (drain + yield-spin + futex) so a waiting
            // app thread is also the progress engine.
            if self.wire.carrier().wait_slice(self, completion) {
                break;
            }
            if self.aborted() {
                if let Some(id) = reg_id {
                    self.unregister_wait(id);
                }
                std::panic::panic_any(RankAborted);
            }
            if reg_id.is_none() {
                if let Some(f) = label.take() {
                    let (what, tag, peer) = f();
                    reg_id = Some(self.register_wait(rank, what, tag, peer));
                }
            }
        }
        if let Some(id) = reg_id {
            self.unregister_wait(id);
        }
    }

    /// [`Fabric::wait_on`] every completion of a burst, in order
    /// (`label(i)` describes the wait on the `i`-th). The transport is
    /// shown the whole burst first: one that polls (ipc) keeps polling
    /// across it, so the per-completion waits below find their
    /// completion already set instead of each starting a poll — and a
    /// doorbell hand-off — of its own.
    pub(crate) fn wait_all<F>(&self, completions: &[Arc<Completion>], rank: usize, label: F)
    where
        F: Fn(usize) -> (String, Option<i64>, Option<usize>),
    {
        self.wire.carrier().poll_burst(self, None, completions);
        for (i, completion) in completions.iter().enumerate() {
            self.wait_on(completion, rank, || label(i));
        }
    }

    /// Teardown wait: block until `completion` is set, but after an
    /// abort give up once [`ABORT_DRAIN_GRACE`] has passed (no new
    /// fulfill can start post-abort, so the grace only needs to cover a
    /// copy already in flight). Never unwinds — safe in `Drop` impls.
    pub(crate) fn drain_completion(&self, completion: &Completion) {
        let mut waited_after_abort = Duration::ZERO;
        loop {
            if completion.wait_timeout(WAIT_SLICE) {
                return;
            }
            if self.aborted() {
                waited_after_abort += WAIT_SLICE;
                if waited_after_abort >= ABORT_DRAIN_GRACE {
                    return;
                }
            }
        }
    }

    /// Rank-level barrier; must be called by exactly one thread per rank.
    /// Unwinds with [`RankAborted`] if the universe fails while waiting.
    pub(crate) fn rank_barrier(&self, rank: usize) {
        self.touch();
        if self.multiproc {
            // Cross-process: a rank-0-coordinated arrive/release round
            // over the wire.
            self.wire.barrier(self, rank);
            return;
        }
        let mut st = self.barrier_state.lock();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.n_ranks {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.barrier_cv.notify_all();
            return;
        }
        let reg_id = self.register_wait(rank, format!("barrier (generation {gen})"), None, None);
        while st.generation == gen {
            if self.aborted() {
                self.unregister_wait(reg_id);
                std::panic::panic_any(RankAborted);
            }
            self.barrier_cv.wait_timeout(&mut st, WAIT_SLICE);
        }
        self.unregister_wait(reg_id);
    }

    /// Derive a child context id; creation order must agree across ranks.
    pub(crate) fn alloc_child_ctx(&self, rank: usize, parent: u64, kind: CtxKind) -> u64 {
        let mut c = self.ctx_counters.lock();
        let counter = c.entry((rank, parent, kind as u8)).or_insert(0);
        let idx = *counter;
        *counter += 1;
        assert!(idx < 1 << 16, "too many child contexts");
        parent * (1 << 18) + ((kind as u64) << 16) + idx + 1
    }

    /// The shard a context's traffic uses (round-robin by context id).
    pub(crate) fn shard_of_ctx(&self, ctx: u64) -> usize {
        (ctx % self.n_shards as u64) as usize
    }

    /// Register a window's memory under its context (target side).
    pub(crate) fn register_win(&self, win_ctx: u64, mem: Arc<crate::rma::WinMem>) {
        self.touch();
        let mut reg = self.win_registry.lock();
        let prev = reg.insert(win_ctx, mem);
        assert!(prev.is_none(), "window registered twice");
        self.win_cv.notify_all();
    }

    /// Look up a window's memory, blocking until the target registers it.
    /// Unwinds with [`RankAborted`] if the universe fails while waiting.
    pub(crate) fn attach_win(&self, win_ctx: u64, rank: usize) -> Arc<crate::rma::WinMem> {
        let mut reg = self.win_registry.lock();
        if let Some(mem) = reg.get(&win_ctx) {
            return Arc::clone(mem);
        }
        let reg_id = self.register_wait(rank, format!("attach_win(ctx={win_ctx})"), None, None);
        loop {
            if let Some(mem) = reg.get(&win_ctx) {
                self.unregister_wait(reg_id);
                return Arc::clone(mem);
            }
            if self.aborted() {
                self.unregister_wait(reg_id);
                std::panic::panic_any(RankAborted);
            }
            self.win_cv.wait_timeout(&mut reg, WAIT_SLICE);
        }
    }

    /// Send `data` to `dst` on `(ctx, shard, tag)`.
    ///
    /// Eager messages complete locally (the returned ticket is already
    /// done); rendezvous tickets complete when a receiver has copied the
    /// data out.
    ///
    /// # Safety contract (rendezvous)
    /// The caller must keep `data`'s memory alive and unmodified until the
    /// ticket completes. The safe wrappers guarantee this by blocking or
    /// by owning the buffer alongside the ticket.
    pub(crate) fn send_raw(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        data: &[u8],
    ) -> SendTicket {
        if self.eager_max > 0 && data.len() <= self.eager_max {
            self.send_eager(dst, shard, ctx, src_rank, tag, data);
            SendTicket { done: None }
        } else {
            let done = Completion::new();
            self.send_rdv(dst, shard, ctx, src_rank, tag, data, &done);
            SendTicket { done: Some(done) }
        }
    }

    /// Like [`send_raw`](Fabric::send_raw), but signals a caller-supplied
    /// persistent completion instead of allocating a ticket: eager sends
    /// set `done` before returning, rendezvous sends hand `done` to the
    /// copier. Persistent requests (`p2p`, `part`) reuse one completion
    /// per message slot across `start()` cycles, so the per-send hot path
    /// allocates nothing.
    ///
    /// # Safety contract (rendezvous)
    /// Same as `send_raw`: `data` must stay alive and unmodified until
    /// `done` is set. `done` must be unset at the call.
    #[allow(clippy::too_many_arguments)] // one per MPI envelope field
    pub(crate) fn send_raw_signal(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        data: &[u8],
        done: &Arc<Completion>,
    ) {
        if self.eager_max > 0 && data.len() <= self.eager_max {
            self.send_eager(dst, shard, ctx, src_rank, tag, data);
            done.set();
        } else {
            self.send_rdv(dst, shard, ctx, src_rank, tag, data, done);
        }
    }

    /// Eager path: copy into a pooled buffer, hand it to the destination.
    /// Completes locally — the buffer travels, `data` is free immediately.
    fn send_eager(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        data: &[u8],
    ) {
        let (mut buf, hit) = self.pool.acquire(src_rank);
        buf.extend_from_slice(data);
        hotpath::count_pool(hit);
        self.trace.emit(src_rank as u16, || EventKind::EagerPool {
            shard: shard as u16,
            hit,
            bytes: data.len() as u64,
        });
        self.trace.emit(src_rank as u16, || EventKind::EagerSend {
            dst: dst as u16,
            shard: shard as u16,
            bytes: data.len() as u64,
        });
        if self.fault.is_some() {
            self.send_eager_chaos(dst, shard, ctx, src_rank, tag, buf);
        } else {
            self.route_eager(dst, shard, ctx, src_rank, tag, buf);
        }
    }

    /// Deliver an eager payload locally or put it on the wire — the one
    /// seam every eager path (clean, chaos, held-message flush) funnels
    /// through, so fault decisions happen identically either way.
    fn route_eager(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        buf: Vec<u8>,
    ) {
        if self.is_local(dst) {
            self.deliver(dst, shard, ctx, src_rank, tag, Payload::Eager(buf));
        } else {
            self.wire.ship_eager(self, dst, shard, ctx, tag, &buf);
            self.pool.release(src_rank, buf);
            self.touch();
        }
    }

    /// Trace one injected fault on a message from `src_rank`.
    fn trace_fault(&self, src_rank: usize, fault: FaultKind, dst: usize, tag: i64, arg: u64) {
        self.trace
            .emit(src_rank as u16, || EventKind::FaultInjected {
                fault,
                dst: dst as u16,
                tag,
                arg,
            });
    }

    /// The fault plan's decision for the next message on a channel, with
    /// drops and delays played out. A *drop* consumes one retry and
    /// re-decides with the next attempt number — modelling a sender that
    /// retransmits after a NACK/timeout; a *delay* sleeps here. Returns
    /// the surviving decision, or `None` once the drop budget is
    /// exhausted: the message is lost for good and the universe has been
    /// failed with [`PcommError::MessageLost`].
    fn chaos_decide(
        &self,
        fs: &FaultState,
        dst: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
    ) -> Option<FaultAction> {
        let seq = fs.next_seq(src_rank, dst, ctx, tag);
        let mut attempt: u32 = 0;
        loop {
            match fs.plan.decide(src_rank, dst, ctx, tag, seq, attempt) {
                FaultAction::Drop => {
                    self.trace_fault(src_rank, FaultKind::Drop, dst, tag, attempt as u64);
                    if attempt >= fs.plan.max_retries {
                        self.fail(PcommError::MessageLost {
                            src: src_rank,
                            dst,
                            tag,
                            attempts: attempt + 1,
                        });
                        return None;
                    }
                    attempt += 1;
                    self.trace
                        .emit(src_rank as u16, || EventKind::RetryAttempt {
                            dst: dst as u16,
                            attempt: attempt as u16,
                            tag,
                        });
                }
                FaultAction::Delay { us } => {
                    self.trace_fault(src_rank, FaultKind::Delay, dst, tag, us);
                    std::thread::sleep(Duration::from_micros(us));
                    return Some(FaultAction::Delay { us });
                }
                other => return Some(other),
            }
        }
    }

    /// Whether the next message on a channel survives the fault plan
    /// (always, without one): drops and delays play out, a duplicate or
    /// reorder decays to clean delivery — the seam of transfers that
    /// land once in pinned memory (rendezvous, partitioned messages).
    pub(crate) fn chaos_survives(&self, dst: usize, ctx: u64, src_rank: usize, tag: i64) -> bool {
        let survives = |fs| self.chaos_decide(fs, dst, ctx, src_rank, tag).is_some();
        self.fault.as_ref().is_none_or(survives)
    }

    /// Eager delivery under a fault plan: the plan decides per message
    /// (keyed by channel sequence number, so the decision sequence is
    /// independent of thread interleaving) whether to drop, delay,
    /// duplicate, or reorder ([`Fabric::chaos_decide`] runs the drops).
    /// A lost send still completes locally: eager sends are
    /// fire-and-forget, exactly like a real eager protocol that learns
    /// of the loss only later.
    fn send_eager_chaos(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        buf: Vec<u8>,
    ) {
        let fs = self.fault.as_ref().expect("chaos path without fault state");
        let Some(action) = self.chaos_decide(fs, dst, ctx, src_rank, tag) else {
            self.pool.release(src_rank, buf);
            return;
        };
        match action {
            FaultAction::None | FaultAction::Drop | FaultAction::Delay { .. } => {
                self.chaos_deliver_eager(dst, shard, ctx, src_rank, tag, buf);
            }
            FaultAction::Duplicate => {
                self.trace_fault(src_rank, FaultKind::Duplicate, dst, tag, 0);
                let copy = buf.clone();
                self.chaos_deliver_eager(dst, shard, ctx, src_rank, tag, copy);
                self.chaos_deliver_eager(dst, shard, ctx, src_rank, tag, buf);
            }
            FaultAction::Reorder => {
                self.trace_fault(src_rank, FaultKind::Reorder, dst, tag, 0);
                fs.held[dst].lock().push(HeldMsg {
                    shard,
                    ctx,
                    src: src_rank,
                    tag,
                    buf,
                });
            }
        }
    }

    /// Chaos-path delivery preserving MPI's per-channel non-overtaking
    /// guarantee: any held-back message of the *same* `(src, dst, ctx,
    /// tag)` channel is delivered first (channel FIFO — the reorder
    /// quietly decays), then the current message, then every *other* held
    /// message for `dst` (which has thereby been overtaken — the reorder
    /// the fault wanted).
    fn chaos_deliver_eager(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        buf: Vec<u8>,
    ) {
        self.flush_held_channel(dst, ctx, src_rank, tag);
        self.route_eager(dst, shard, ctx, src_rank, tag, buf);
        self.flush_held_for(dst);
    }

    /// Deliver held-back messages of one channel, oldest first.
    fn flush_held_channel(&self, dst: usize, ctx: u64, src: usize, tag: i64) {
        let Some(fs) = &self.fault else { return };
        let msgs: Vec<HeldMsg> = {
            let mut held = fs.held[dst].lock();
            let mut out = Vec::new();
            let mut i = 0;
            while i < held.len() {
                if held[i].ctx == ctx && held[i].src == src && held[i].tag == tag {
                    out.push(held.remove(i));
                } else {
                    i += 1;
                }
            }
            out
        };
        for m in msgs {
            self.route_eager(dst, m.shard, m.ctx, m.src, m.tag, m.buf);
        }
    }

    /// Deliver every held-back message destined for `dst`, oldest
    /// first; returns how many.
    fn flush_held_for(&self, dst: usize) -> usize {
        let Some(fs) = &self.fault else { return 0 };
        let msgs: Vec<HeldMsg> = std::mem::take(&mut *fs.held[dst].lock());
        let n = msgs.len();
        for m in msgs {
            self.route_eager(dst, m.shard, m.ctx, m.src, m.tag, m.buf);
        }
        n
    }

    /// Deliver every held-back message fabric-wide; returns how many.
    /// The watchdog supervisor calls this when the fabric goes quiet, so
    /// a reorder hold-back with no follow-up traffic cannot stall the
    /// run; the universe also calls it once after the rank closures
    /// return.
    pub(crate) fn flush_held(&self) -> usize {
        (0..self.n_ranks).map(|dst| self.flush_held_for(dst)).sum()
    }

    /// Rendezvous path: publish the source pointer; the matching side
    /// copies and sets `done`.
    #[allow(clippy::too_many_arguments)] // one per MPI envelope field
    fn send_rdv(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        data: &[u8],
        done: &Arc<Completion>,
    ) {
        self.trace.emit(src_rank as u16, || EventKind::RdvSend {
            dst: dst as u16,
            shard: shard as u16,
            bytes: data.len() as u64,
        });
        // A rendezvous hands over a pointer, which a duplicate would
        // alias and a hold-back outlive. An RTS lost for good leaves
        // `done` unset; the sender's wait unwinds via the abort.
        if !self.chaos_survives(dst, ctx, src_rank, tag) {
            return;
        }
        // Channel FIFO: a held-back eager message of the same channel
        // goes before the rendezvous (no-op without a fault plan).
        self.flush_held_channel(dst, ctx, src_rank, tag);
        if !self.is_local(dst) {
            // Wire rendezvous: a one-message stream over the pinned
            // buffer; `done` fires once its last byte has left (same
            // pin-until-done contract as the in-process pointer handoff).
            self.wire.ship_rts(self, dst, shard, ctx, tag, data, done);
            self.touch();
            self.flush_held_for(dst);
            return;
        }
        let payload = Payload::Rdv(RdvHandoff {
            src_ptr: data.as_ptr(),
            len: data.len(),
            done: Arc::clone(done),
            rts_ns: self.trace.now_ns(),
        });
        self.deliver(dst, shard, ctx, src_rank, tag, payload);
        self.flush_held_for(dst);
    }

    /// Open a partitioned wire stream toward `dst` (see the transport's
    /// streaming protocol); returns the stream id that pushes name.
    /// `spans` carries the per-message sender completions: the writer
    /// threads flip each one once its byte range is on the wire.
    pub(crate) fn part_stream_begin(
        &self,
        dst: usize,
        ctx: u64,
        total_len: usize,
        spans: Vec<crate::wire::SendSpan>,
    ) -> u64 {
        let id = self
            .wire
            .part_stream_begin(self, dst, ctx, total_len, spans);
        self.touch();
        id
    }

    /// Ship one ready partition range on a wire stream
    /// ([`Fabric::chaos_survives`] decides its fate): a range lost for
    /// good leaves its span's `done` unset (the sender's wait unwinds
    /// via the abort). Partitioned pairs put no eager traffic on their
    /// context, so there is no held-eager channel to flush first.
    #[allow(clippy::too_many_arguments)] // one per envelope field
    pub(crate) fn part_stream_send(
        &self,
        dst: usize,
        src_rank: usize,
        ctx: u64,
        tag: i64,
        stream_id: u64,
        offset: u64,
        data: &[u8],
        parts: u16,
    ) {
        if !self.chaos_survives(dst, ctx, src_rank, tag) {
            return;
        }
        self.wire
            .part_stream_push(self, stream_id, offset, data, parts);
        // The range stays pinned in the sender's buffer: the carrier
        // flips the message's span completion once the bytes are on the
        // wire, so there is no local copy to declare done here.
        self.touch();
    }

    /// Pin a whole partitioned destination buffer for the next stream
    /// from `src` on `ctx`.
    pub(crate) fn part_stream_post(&self, src: usize, ctx: u64, recv: crate::wire::PartStreamRecv) {
        self.wire.part_stream_post(self, src, ctx, recv);
        self.touch();
    }

    /// Try to pin a partitioned destination the sender can reach
    /// directly (the ipc fabric's shared arena); `None` on transports
    /// without shared destination memory — callers fall back to owned
    /// storage.
    pub(crate) fn alloc_part_dest(&self, src: usize, len: usize) -> Option<(u64, *mut u8)> {
        self.wire.carrier().alloc_part_dest(src, len)
    }

    /// Return a grant from [`Fabric::alloc_part_dest`].
    pub(crate) fn release_part_dest(&self, src: usize, token: u64, len: usize) {
        self.wire.carrier().release_part_dest(src, token, len);
    }

    fn deliver(
        &self,
        dst: usize,
        shard: usize,
        ctx: u64,
        src_rank: usize,
        tag: i64,
        payload: Payload,
    ) {
        assert!(dst < self.n_ranks, "destination rank out of range");
        self.touch();
        if self.aborted() {
            // The universe is unwinding: receivers' destination buffers
            // may already be gone, so no new fulfill may start. Eager
            // buffers go back to the pool; a rendezvous handoff is simply
            // dropped (its sender unwinds via the abort, not via `done`).
            if let Payload::Eager(v) = payload {
                self.pool.release(src_rank, v);
            }
            return;
        }
        let t0 = self.trace.now_ns();
        let mut q = self.shards[dst][shard].lock();
        self.trace.emit_span(t0, src_rank as u16, |start, dur| {
            EventKind::LockWait {
                shard: shard as u16,
                wait_ns: dur,
            }
            .at(start)
        });
        if let Some(pos) = q.posted.iter().position(|p| p.matches(ctx, src_rank, tag)) {
            let posted = q.posted.remove(pos);
            drop(q); // copy outside the shard lock
            self.fulfill(posted, payload, src_rank, tag, shard, dst);
        } else {
            q.unexpected.push(UnexpectedMsg {
                ctx,
                src: src_rank,
                tag,
                payload,
            });
        }
    }

    /// Post a receive into `(rank, shard)`; matches the oldest unexpected
    /// message first.
    pub(crate) fn post_recv(&self, rank: usize, shard: usize, posted: PostedRecv) -> RecvTicket {
        let ticket = RecvTicket {
            completion: Arc::clone(&posted.completion),
            info: Arc::clone(&posted.info),
        };
        self.touch();
        if self.aborted() {
            // Ticket never completes; the caller's wait unwinds via the
            // abort flag. Not enqueuing keeps the raw destination pointer
            // out of the fabric while ranks tear down.
            return ticket;
        }
        let t0 = self.trace.now_ns();
        let mut q = self.shards[rank][shard].lock();
        self.trace.emit_span(t0, rank as u16, |start, dur| {
            EventKind::LockWait {
                shard: shard as u16,
                wait_ns: dur,
            }
            .at(start)
        });
        if let Some(pos) = q
            .unexpected
            .iter()
            .position(|u| u.ctx == posted.ctx && posted.matches(u.ctx, u.src, u.tag))
        {
            let u = q.unexpected.remove(pos);
            drop(q);
            self.fulfill(posted, u.payload, u.src, u.tag, shard, rank);
        } else {
            q.posted.push(posted);
        }
        ticket
    }

    /// Complete a matched pair: copy the payload into the destination and
    /// fire the completions.
    fn fulfill(
        &self,
        posted: PostedRecv,
        payload: Payload,
        src: usize,
        tag: i64,
        shard: usize,
        dst_rank: usize,
    ) {
        let len = payload.len();
        let matched_eager = matches!(payload, Payload::Eager(_));
        if len > posted.dest_cap {
            // Contract violation, caught before any copy: fail the
            // universe instead of panicking the fulfilling thread (which
            // might be the *sender*, nowhere near the offending recv).
            // The posted completion stays unset — the receiver unwinds
            // via the abort.
            if let Payload::Eager(v) = payload {
                self.pool.release(src, v);
            }
            self.fail(PcommError::misuse(
                dst_rank,
                format!(
                    "message of {len} bytes overflows {}-byte receive buffer \
                     (src rank {src}, tag {tag})",
                    posted.dest_cap
                ),
            ));
            return;
        }
        match payload {
            Payload::RdvRemote { rdv_id, .. } => {
                // The data is still in the sending process: the posted
                // buffer becomes the destination of its one-message
                // stream, which completes it when the bytes land.
                self.wire
                    .accept_remote_rdv(self, src, rdv_id, len, posted, tag);
                return;
            }
            Payload::Eager(v) => {
                if len > 0 {
                    // SAFETY: invariant (2) — exclusive, live destination.
                    unsafe {
                        std::ptr::copy_nonoverlapping(v.as_ptr(), posted.dest_ptr, len);
                    }
                }
                // Recycle the payload buffer for the sender's next eager
                // message.
                self.pool.release(src, v);
            }
            Payload::Rdv(h) => {
                if len > 0 {
                    // SAFETY: invariants (1) and (2); source and
                    // destination are distinct allocations.
                    unsafe {
                        std::ptr::copy_nonoverlapping(h.src_ptr, posted.dest_ptr, len);
                    }
                }
                h.done.set();
                // RTS-to-completion span, attributed to the sender whose
                // buffer stayed pinned for its duration.
                self.trace.emit_span(h.rts_ns, src as u16, |start, dur| {
                    EventKind::RdvCopy {
                        shard: shard as u16,
                        bytes: len as u64,
                        wait_ns: dur,
                    }
                    .at(start)
                });
            }
        }
        let info = MsgInfo { src, tag, len };
        self.finish_recv(
            dst_rank,
            info,
            matched_eager,
            Some(&posted.info),
            &posted.completion,
            posted.verify_msg,
        );
    }

    /// The tail of every receive — matched in process, a rendezvous
    /// landed by the wire engine, the last range of a partitioned
    /// stream's message or a bound partitioned copy (on whichever thread
    /// committed it): the bytes are in the destination, so record the
    /// transfer for the analyzer, publish the envelope (if anyone reads
    /// it), count the match, fire the completion.
    pub(crate) fn finish_recv(
        &self,
        rank: usize,
        msg: MsgInfo,
        eager: bool,
        info: Option<&Mutex<Option<MsgInfo>>>,
        completion: &Completion,
        verify_msg: Option<(u16, u16)>,
    ) {
        if let Some((vreq, m)) = verify_msg {
            // Emitted before the completion fires so the analyzer sees
            // the transfer's buffer write ordered before any parrived /
            // wait edge it enables.
            self.trace
                .emit_verify(rank as u16, || EventKind::VerifyMsgRecv {
                    req: vreq,
                    msg: m,
                    tid: pcomm_trace::current_tid(),
                    eager,
                });
        }
        if let Some(info) = info {
            *info.lock() = Some(msg);
        }
        self.matched.fetch_add(1, Ordering::Relaxed);
        completion.set();
        self.touch();
    }

    /// Wire ingress, eager: copy the frame payload into a pooled buffer
    /// and feed it to the ordinary matching path. Runs in the carrier's
    /// read path (whichever thread is reading the socket or ring).
    pub(crate) fn deliver_wire_eager(
        &self,
        src: usize,
        shard: usize,
        ctx: u64,
        tag: i64,
        data: &[u8],
    ) {
        let (mut buf, hit) = self.pool.acquire(src);
        buf.extend_from_slice(data);
        hotpath::count_pool(hit);
        let dst = self.wire.rank();
        self.deliver(dst, shard, ctx, src, tag, Payload::Eager(buf));
    }

    /// Wire ingress, rendezvous RTS: enters matching as a
    /// [`Payload::RdvRemote`]. Runs in the carrier's read path.
    pub(crate) fn deliver_wire_rts(
        &self,
        src: usize,
        shard: usize,
        ctx: u64,
        tag: i64,
        len: usize,
        rdv_id: u64,
    ) {
        let dst = self.wire.rank();
        self.deliver(
            dst,
            shard,
            ctx,
            src,
            tag,
            Payload::RdvRemote { len, rdv_id },
        );
    }

    /// The in-bounds start of a peer-named `len`-byte range of a
    /// `win_len`-byte window. `offset` and `len` come straight off the
    /// wire: the sum is checked, never wrapped.
    fn win_range(offset: u64, len: u64, win_len: usize) -> Option<usize> {
        let end = offset.checked_add(len)?;
        (end <= win_len as u64).then_some(offset as usize)
    }

    /// Wire ingress, one-sided put into a locally registered window.
    /// Runs in the carrier's read path.
    pub(crate) fn apply_remote_put(&self, src: usize, win_ctx: u64, offset: u64, data: &[u8]) {
        let Some(mem) = self.win_registry.lock().get(&win_ctx).cloned() else {
            return self.fail(PcommError::misuse(
                src,
                format!("remote put targets unregistered window ctx {win_ctx}"),
            ));
        };
        match Self::win_range(offset, data.len() as u64, mem.len()) {
            Some(start) => {
                mem.apply_put(start, data);
                self.touch();
            }
            None => self.fail(PcommError::misuse(
                src,
                format!(
                    "remote put of {} bytes at offset {offset} overflows {}-byte window \
                     (ctx {win_ctx})",
                    data.len(),
                    mem.len()
                ),
            )),
        }
    }

    /// Wire ingress, one-sided get from a locally registered window.
    /// `None` when the window is unknown or the range is out of bounds.
    pub(crate) fn read_win(&self, win_ctx: u64, offset: u64, len: u64) -> Option<Vec<u8>> {
        let mem = self.win_registry.lock().get(&win_ctx).cloned()?;
        let start = Self::win_range(offset, len, mem.len())?;
        Some(mem.read_range(start, len as usize))
    }

    /// One-sided put targeting a remote-hosted rank (multiprocess runs).
    pub(crate) fn remote_put(&self, target: usize, win_ctx: u64, offset: usize, data: &[u8]) {
        self.wire.put(self, target, win_ctx, offset, data);
        self.touch();
    }

    /// Blocking one-sided get from a remote-hosted rank.
    pub(crate) fn remote_get(
        &self,
        rank: usize,
        target: usize,
        win_ctx: u64,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        self.wire.get(self, rank, target, win_ctx, offset, len)
    }

    /// Announce a locally registered window to its remote origin.
    pub(crate) fn remote_announce_win(&self, origin: usize, win_ctx: u64, len: usize) {
        self.wire.announce_win(self, origin, win_ctx, len);
        self.touch();
    }

    /// Block until the remote target announces the window; returns its
    /// length.
    pub(crate) fn remote_wait_win_announce(&self, rank: usize, win_ctx: u64) -> usize {
        self.wire.wait_win_announce(self, rank, win_ctx)
    }

    /// Snapshot the fabric's blocked-wait and match-queue state into a
    /// [`StallReport`] (called by the watchdog supervisor when activity
    /// has been quiet past the deadline).
    pub(crate) fn stall_report(&self, watchdog_ms: u64, quiet_ms: u64) -> StallReport {
        let mut blocked: Vec<BlockedWait> = self.wait_registry.lock().values().cloned().collect();
        blocked.sort_by(|a, b| (a.rank, &a.what).cmp(&(b.rank, &b.what)));
        let finished_ranks = self
            .finished
            .iter()
            .enumerate()
            .filter(|(_, f)| f.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect();
        let mut unmatched_posted = Vec::new();
        let mut unmatched_unexpected = Vec::new();
        for (rank, shards) in self.shards.iter().enumerate() {
            for (shard, q) in shards.iter().enumerate() {
                let q = q.lock();
                for p in &q.posted {
                    unmatched_posted.push(QueueEntry {
                        rank,
                        shard,
                        ctx: p.ctx,
                        src: p.src,
                        tag: p.tag,
                        bytes: p.dest_cap,
                    });
                }
                for u in &q.unexpected {
                    unmatched_unexpected.push(QueueEntry {
                        rank,
                        shard,
                        ctx: u.ctx,
                        src: Some(u.src),
                        tag: Some(u.tag),
                        bytes: u.payload.len(),
                    });
                }
            }
        }
        StallReport {
            watchdog_ms,
            quiet_ms,
            finished_ranks,
            blocked,
            unmatched_posted,
            unmatched_unexpected,
            matched: self.matched_count(),
            peers: self.wire.peer_states(),
            doorbell: self.wire.carrier().doorbell_stats(),
        }
    }
}

// Test-only entry points, kept after the non-test code: universe code
// waits through the abort-aware [`Fabric::wait_on`] instead.
#[cfg(test)]
impl SendTicket {
    /// Block until the send buffer is reusable.
    pub(crate) fn wait(&self) {
        if let Some(d) = &self.done {
            d.wait();
        }
    }

    /// Non-blocking completion probe.
    pub(crate) fn test(&self) -> bool {
        self.done.as_ref().map(|d| d.is_set()).unwrap_or(true)
    }
}

#[cfg(test)]
impl RecvTicket {
    pub(crate) fn wait(&self) -> MsgInfo {
        self.completion.wait();
        self.info.lock().expect("completed receive carries info")
    }

    pub(crate) fn test(&self) -> bool {
        self.completion.is_set()
    }
}

#[cfg(test)]
impl Fabric {
    pub(crate) fn new(n_ranks: usize, n_shards: usize, eager_max: usize) -> Arc<Fabric> {
        Fabric::new_configured(
            n_ranks,
            n_shards,
            eager_max,
            Trace::disabled(),
            None,
            Arc::new(crate::transport::SharedMemTransport),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(
        fabric: &Fabric,
        rank: usize,
        shard: usize,
        ctx: u64,
        src: Option<usize>,
        tag: Option<i64>,
        buf: &mut [u8],
    ) -> RecvTicket {
        fabric.post_recv(
            rank,
            shard,
            PostedRecv {
                ctx,
                src,
                tag,
                dest_ptr: buf.as_mut_ptr(),
                dest_cap: buf.len(),
                info: Arc::new(Mutex::new(None)),
                completion: Completion::new(),
                verify_msg: None,
            },
        )
    }

    #[test]
    fn eager_send_to_posted_recv() {
        let f = Fabric::new(2, 1, 1024);
        let mut buf = vec![0u8; 16];
        let ticket = post(&f, 1, 0, 0, Some(0), Some(7), &mut buf);
        let st = f.send_raw(1, 0, 0, 0, 7, &[1, 2, 3]);
        assert!(st.test(), "eager completes locally");
        let info = ticket.wait();
        assert_eq!(
            info,
            MsgInfo {
                src: 0,
                tag: 7,
                len: 3
            }
        );
        assert_eq!(&buf[..3], &[1, 2, 3]);
    }

    #[test]
    fn eager_unexpected_then_post() {
        let f = Fabric::new(2, 1, 1024);
        f.send_raw(1, 0, 0, 0, 9, &[42; 8]);
        let mut buf = vec![0u8; 8];
        let ticket = post(&f, 1, 0, 0, None, Some(9), &mut buf);
        assert!(ticket.test());
        assert_eq!(buf, vec![42; 8]);
    }

    #[test]
    fn rendezvous_send_blocks_until_recv() {
        let f = Fabric::new(2, 1, 64);
        let data = vec![7u8; 1000]; // > eager_max
        let ticket = f.send_raw(1, 0, 0, 0, 1, &data);
        assert!(!ticket.test(), "rendezvous must not complete locally");
        let mut buf = vec![0u8; 1000];
        let rt = post(&f, 1, 0, 0, Some(0), Some(1), &mut buf);
        assert!(ticket.test(), "receiver copy completes the send");
        assert_eq!(rt.wait().len, 1000);
        assert_eq!(buf, data);
    }

    #[test]
    fn rendezvous_preposted_recv() {
        let f = Fabric::new(2, 1, 64);
        let mut buf = vec![0u8; 256];
        let rt = post(&f, 1, 0, 0, Some(0), Some(2), &mut buf);
        let data: Vec<u8> = (0..=255).collect();
        let st = f.send_raw(1, 0, 0, 0, 2, &data);
        st.wait();
        rt.wait();
        assert_eq!(buf, data);
    }

    #[test]
    fn context_and_tag_isolation() {
        let f = Fabric::new(2, 1, 1024);
        let mut buf = vec![0u8; 4];
        let rt = post(&f, 1, 0, 5, Some(0), Some(1), &mut buf);
        f.send_raw(1, 0, 6, 0, 1, &[1]); // wrong ctx
        f.send_raw(1, 0, 5, 0, 2, &[2]); // wrong tag
        assert!(!rt.test());
        f.send_raw(1, 0, 5, 0, 1, &[3]);
        assert!(rt.test());
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn cross_thread_eager_roundtrip() {
        let f = Fabric::new(2, 2, 256);
        let f2 = Arc::clone(&f);
        let sender = std::thread::spawn(move || {
            for i in 0..100u8 {
                f2.send_raw(1, 1, 0, 0, i as i64, &[i]).wait();
            }
        });
        let mut got = Vec::new();
        for i in 0..100u8 {
            let mut b = [0u8; 1];
            let rt = post(&f, 1, 1, 0, Some(0), Some(i as i64), &mut b);
            rt.wait();
            got.push(b[0]);
        }
        sender.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u8>>());
    }

    #[test]
    fn cross_thread_rendezvous_roundtrip() {
        let f = Fabric::new(2, 1, 16);
        let f2 = Arc::clone(&f);
        let payload: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let sender = std::thread::spawn(move || {
            f2.send_raw(1, 0, 0, 0, 3, &payload).wait();
        });
        let mut buf = vec![0u8; 5000];
        let rt = post(&f, 1, 0, 0, Some(0), Some(3), &mut buf);
        rt.wait();
        sender.join().unwrap();
        assert_eq!(buf, expect);
    }

    #[test]
    fn ctx_derivation_symmetric() {
        let f = Fabric::new(2, 4, 64);
        let a = f.alloc_child_ctx(0, 0, CtxKind::Dup);
        let b = f.alloc_child_ctx(1, 0, CtxKind::Dup);
        assert_eq!(a, b);
        let a2 = f.alloc_child_ctx(0, 0, CtxKind::Dup);
        assert_ne!(a, a2);
        // Shards cycle with consecutive contexts.
        let shards: Vec<usize> = (0..8)
            .map(|_| f.shard_of_ctx(f.alloc_child_ctx(0, 0, CtxKind::Dup)))
            .collect();
        let distinct: std::collections::HashSet<_> = shards.iter().collect();
        assert_eq!(distinct.len(), 4, "dup contexts should cover all shards");
    }

    #[test]
    fn oversized_message_fails_universe_not_thread() {
        let f = Fabric::new(2, 1, 1024);
        let mut buf = vec![0u8; 2];
        let rt = post(&f, 1, 0, 0, None, None, &mut buf);
        f.send_raw(1, 0, 0, 0, 5, &[1, 2, 3]);
        assert!(f.aborted(), "oversized message must abort the universe");
        assert!(!rt.test(), "receive must not complete");
        match f.take_failure() {
            Some(PcommError::Misuse { rank, detail }) => {
                assert_eq!(rank, Some(1), "misuse attributed to the receiver");
                assert!(detail.contains("overflows"), "{detail}");
            }
            other => panic!("expected Misuse, got {other:?}"),
        }
    }

    #[test]
    fn chaos_drop_with_retries_still_delivers() {
        // drop_p = 1 forces a Drop on every decision *below* the retry
        // threshold... that would never deliver. Instead use a plan whose
        // drop probability is high but the retry budget is large enough
        // that some attempt decides differently.
        let plan = FaultPlan::seeded(7).drops(0.5).retries(64);
        let f = Fabric::new_configured(
            2,
            1,
            1024,
            Trace::disabled(),
            Some(plan),
            Arc::new(crate::transport::SharedMemTransport),
        );
        let mut bufs = [[0u8; 1]; 32];
        let tickets: Vec<RecvTicket> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| post(&f, 1, 0, 0, Some(0), Some(i as i64), b))
            .collect();
        for i in 0..32 {
            f.send_raw(1, 0, 0, 0, i as i64, &[i as u8]);
        }
        assert!(
            !f.aborted(),
            "retry budget must absorb 0.5-probability drops"
        );
        for (i, t) in tickets.iter().enumerate() {
            t.wait();
            assert_eq!(bufs[i], [i as u8]);
        }
    }

    #[test]
    fn chaos_certain_drop_without_retries_loses_message() {
        let plan = FaultPlan::seeded(1).drops(1.0).retries(0);
        let f = Fabric::new_configured(
            2,
            1,
            64,
            Trace::disabled(),
            Some(plan),
            Arc::new(crate::transport::SharedMemTransport),
        );
        let mut buf = [0u8; 1];
        let rt = post(&f, 1, 0, 0, Some(0), Some(3), &mut buf);
        f.send_raw(1, 0, 0, 0, 3, &[9]);
        assert!(f.aborted());
        assert!(!rt.test());
        match f.take_failure() {
            Some(PcommError::MessageLost {
                src,
                dst,
                tag,
                attempts,
            }) => {
                assert_eq!((src, dst, tag, attempts), (0, 1, 3, 1));
            }
            other => panic!("expected MessageLost, got {other:?}"),
        }
    }

    #[test]
    fn chaos_reorder_holds_then_flushes() {
        let plan = FaultPlan::seeded(11).reorders(1.0);
        let f = Fabric::new_configured(
            2,
            1,
            1024,
            Trace::disabled(),
            Some(plan),
            Arc::new(crate::transport::SharedMemTransport),
        );
        let mut buf = [0u8; 1];
        let rt = post(&f, 1, 0, 0, Some(0), Some(1), &mut buf);
        f.send_raw(1, 0, 0, 0, 1, &[7]);
        assert!(!rt.test(), "reordered message must be held back");
        assert_eq!(f.flush_held(), 1);
        rt.wait();
        assert_eq!(buf, [7]);
    }

    #[test]
    fn chaos_channel_fifo_survives_reorder() {
        // Two messages on the SAME channel under certain-reorder: the
        // second send must first flush the held first message, so payload
        // order (and therefore data) is preserved.
        let plan = FaultPlan::seeded(3).reorders(1.0);
        let f = Fabric::new_configured(
            2,
            1,
            1024,
            Trace::disabled(),
            Some(plan),
            Arc::new(crate::transport::SharedMemTransport),
        );
        let mut a = [0u8; 1];
        let mut b = [0u8; 1];
        let ra = post(&f, 1, 0, 0, Some(0), Some(4), &mut a);
        let rb = post(&f, 1, 0, 0, Some(0), Some(4), &mut b);
        f.send_raw(1, 0, 0, 0, 4, &[1]);
        f.send_raw(1, 0, 0, 0, 4, &[2]);
        f.flush_held();
        ra.wait();
        rb.wait();
        assert_eq!((a, b), ([1], [2]), "per-channel FIFO must hold");
    }

    #[test]
    fn chaos_decisions_are_interleaving_independent() {
        // Same plan, same channel+seq: the decision must not depend on
        // what other channels did in between.
        let plan = FaultPlan::seeded(99).drops(0.3).delays(0.3, 50);
        let a: Vec<FaultAction> = (0..20).map(|s| plan.decide(0, 1, 0, 7, s, 0)).collect();
        let b: Vec<FaultAction> = (0..20).map(|s| plan.decide(0, 1, 0, 7, s, 0)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn eager_pool_recycles_buffers() {
        let f = Fabric::new(2, 1, 1024);
        let before = crate::hotpath::pool_stats();
        // First send allocates; once fulfilled, the buffer returns to
        // rank 0's stripe and the following sends reuse it.
        for i in 0..5u8 {
            let mut buf = [0u8; 4];
            let rt = post(&f, 1, 0, 0, Some(0), Some(i as i64), &mut buf);
            f.send_raw(1, 0, 0, 0, i as i64, &[i; 4]);
            rt.wait();
            assert_eq!(buf, [i; 4]);
        }
        let after = crate::hotpath::pool_stats();
        // Sends 2..5 ran strictly after send 1's buffer was released, so
        // at least 4 of the 5 acquisitions were pool hits (other tests in
        // the process can only add hits, never subtract).
        assert!(
            after.hits >= before.hits + 4,
            "expected >=4 pool hits, got {} -> {}",
            before.hits,
            after.hits
        );
    }

    #[test]
    fn recycled_buffer_carries_no_stale_bytes() {
        let f = Fabric::new(2, 1, 1024);
        // Long message first, then a short one: the short message must
        // arrive with exactly its own bytes even though it likely reuses
        // the long message's (larger-capacity) buffer.
        let mut big = [0u8; 16];
        let rt = post(&f, 1, 0, 0, Some(0), Some(1), &mut big);
        f.send_raw(1, 0, 0, 0, 1, &[0xAA; 16]);
        rt.wait();
        let mut small = [7u8; 16];
        let rt = post(&f, 1, 0, 0, Some(0), Some(2), &mut small);
        f.send_raw(1, 0, 0, 0, 2, &[0xBB; 3]);
        let info = rt.wait();
        assert_eq!(info.len, 3);
        assert_eq!(&small[..3], &[0xBB; 3]);
        assert_eq!(&small[3..], &[7u8; 13], "bytes past len untouched");
    }

    #[test]
    fn send_raw_signal_eager_sets_immediately() {
        let f = Fabric::new(2, 1, 1024);
        let done = Completion::new();
        f.send_raw_signal(1, 0, 0, 0, 4, &[9; 8], &done);
        assert!(done.is_set(), "eager signal-send completes locally");
        let mut buf = [0u8; 8];
        let rt = post(&f, 1, 0, 0, Some(0), Some(4), &mut buf);
        rt.wait();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn send_raw_signal_rdv_sets_on_copy() {
        let f = Fabric::new(2, 1, 16);
        let data = vec![5u8; 500];
        let done = Completion::new();
        f.send_raw_signal(1, 0, 0, 0, 4, &data, &done);
        assert!(!done.is_set(), "rendezvous completes only on copy");
        let mut buf = vec![0u8; 500];
        let rt = post(&f, 1, 0, 0, Some(0), Some(4), &mut buf);
        rt.wait();
        assert!(done.is_set());
        assert_eq!(buf, data);
    }

    #[test]
    fn pool_stripe_overflow_drops_excess() {
        // More unmatched releases than slots: fill the stripe via many
        // matched sends in flight, then keep going — must not leak or
        // crash, and data stays correct.
        let f = Fabric::new(2, 1, 1024);
        let mut bufs = [[0u8; 2]; 2 * POOL_SLOTS];
        let tickets: Vec<RecvTicket> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| post(&f, 1, 0, 0, Some(0), Some(i as i64), b))
            .collect();
        for i in 0..2 * POOL_SLOTS {
            f.send_raw(1, 0, 0, 0, i as i64, &[i as u8; 2]);
        }
        for (i, t) in tickets.iter().enumerate() {
            t.wait();
            assert_eq!(bufs[i], [i as u8; 2]);
        }
    }

    #[test]
    fn matched_counter_increments() {
        let f = Fabric::new(2, 1, 1024);
        assert_eq!(f.matched_count(), 0);
        let mut buf = [0u8; 1];
        let _rt = post(&f, 1, 0, 0, None, None, &mut buf);
        f.send_raw(1, 0, 0, 0, 0, &[1]);
        assert_eq!(f.matched_count(), 1);
    }
}
