//! MPI-4 partitioned communication (paper §3).
//!
//! Two implementations are provided, mirroring MPICH before and after the
//! paper's improvements:
//!
//! * [`PartPath::LegacyAm`] — the original active-message path: one atomic
//!   counter set to `N_part + 1`; a CTS from the receiver is required every
//!   iteration; once all partitions are ready *and* the CTS arrived, the
//!   whole buffer is sent as a single AM message, paying copy overhead at
//!   both ends and forfeiting the early-bird effect (§3.1).
//! * [`PartPath::Improved`] — the paper's contribution (§3.2): the
//!   receiver decides a message count `gcd(N_send, N_recv)`, aggregates
//!   consecutive messages under `MPIR_CVAR_PART_AGGR_SIZE`
//!   ([`PartOptions::aggr_size`]), and each message is sent over the
//!   tag-matching path as soon as its last contributing partition is
//!   readied — by the readying thread itself (early-bird), on a VCI chosen
//!   round-robin by message index (§3.2.2).
//!
//! If more partitioned requests are created towards one receiver than the
//! reserved tag space allows, the implementation falls back to the AM path
//! (§3.2.1); see [`MAX_PART_REQUESTS_PER_PEER`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

// The partition→message layout and the verify init events exist once, in
// the real runtime.
use pcomm_core::part::{negotiate_layout, verify_init_events, MsgLayout};
use pcomm_simcore::sync::Signal;
use pcomm_trace::{EventKind, FaultKind};

use crate::comm::Comm;
use crate::p2p::{Msg, RecvRequest, SendRequest};
use crate::tag::Posted;
use crate::world::World;
use crate::TAG_CTS;

/// Internal tag for the legacy path's single AM data message.
const TAG_AM_DATA: i64 = -4;

/// Reserved tag space: partitioned requests per (sender, receiver) pair
/// beyond this fall back to the AM path (paper §3.2.1).
pub const MAX_PART_REQUESTS_PER_PEER: usize = 64;

/// Which implementation path a partitioned request uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartPath {
    /// Original MPICH single-message active-message path.
    LegacyAm,
    /// Improved multi-message tag-matched path (this paper).
    Improved,
}

/// How internal messages are attributed to VCIs.
#[derive(Debug, Clone, Default)]
pub enum VciMapping {
    /// The paper's default: message index modulo the VCI count — the
    /// "round-robin attribution of threads to partitions" assumption that
    /// §3.2.2 calls inflexible and likely to break for θ > 1.
    #[default]
    RoundRobinByMessage,
    /// MPIX_Stream-style thread hint (the paper's future-work fix, §5):
    /// `hint[p]` is the thread that owns partition `p`; a message is sent
    /// on its owning thread's VCI, guaranteeing conflict-free access for
    /// any user partition→thread assignment.
    ThreadHint(std::rc::Rc<Vec<usize>>),
}

/// User-controllable options for a partitioned request.
#[derive(Debug, Clone)]
pub struct PartOptions {
    /// Upper bound in bytes for message aggregation
    /// (`MPIR_CVAR_PART_AGGR_SIZE`); `None` disables aggregation.
    pub aggr_size: Option<usize>,
    /// Implementation path.
    pub path: PartPath,
    /// Message→VCI attribution (improved path only).
    pub vci_mapping: VciMapping,
    /// Ablation switch: defer all sends to `wait()` instead of issuing
    /// them from `pready` (disables the early-bird effect).
    pub defer_sends: bool,
    /// Model the first-iteration clear-to-send the receiver-decided
    /// protocol requires (paper §3.2.1; the paper's future work removes
    /// it). On by default, as in the paper's implementation.
    pub first_iteration_cts: bool,
}

impl Default for PartOptions {
    fn default() -> Self {
        PartOptions {
            aggr_size: None,
            path: PartPath::Improved,
            vci_mapping: VciMapping::default(),
            defer_sends: false,
            first_iteration_cts: true,
        }
    }
}

struct PsendShared {
    world: World,
    /// Internal communicator on the partitioned context; `vci_idx` is
    /// re-chosen per message for the round-robin VCI mapping.
    comm: Comm,
    /// Interned verify request id (see `World::verify_req_id`).
    vreq: u16,
    dst: usize,
    n_parts: usize,
    part_bytes: usize,
    layout: MsgLayout,
    path: PartPath,
    vci_mapping: VciMapping,
    defer_sends: bool,
    first_iteration_cts: bool,
    /// True until the first start() consumed the initial CTS.
    first_iteration: Cell<bool>,
    /// Improved: per-message remaining-partition counters.
    counters: Vec<Cell<i64>>,
    /// Improved: fired when message *m* has been injected.
    issued: RefCell<Vec<Signal>>,
    sent_reqs: RefCell<Vec<Option<SendRequest>>>,
    /// Legacy: single counter (`N_part + 1` per §3.1).
    am_counter: Cell<i64>,
    /// Legacy: fired when the single AM message has been injected.
    am_issued: RefCell<Signal>,
    /// Threads concurrently inside `pready` (atomic-contention model).
    /// Scoped per request, not per message: a request's counters are
    /// allocated contiguously (as in MPICH), so concurrent updates to any
    /// of them contend via false sharing.
    concurrent_preadys: Cell<usize>,
    started: Cell<bool>,
    /// Iterations started so far; `iters - 1` is the current (or most
    /// recently completed) iteration, the `iter` of the verify events.
    iters: Cell<u64>,
    /// Chaos `pready` jitter rounds consumed (one per permuted
    /// `pready_range`/`pready_list` call); mirrors the real runtime.
    jitter_round: Cell<u64>,
}

/// Sender-side partitioned request (`MPI_Psend_init`). Cheap to clone;
/// clones are handed to the worker threads that call
/// [`PsendRequest::pready`].
#[derive(Clone)]
pub struct PsendRequest {
    inner: Rc<PsendShared>,
}

/// Create a sender-side partitioned request.
///
/// `n_recv_parts` is the receiver's partition count (agreed during the
/// init handshake); the layout is derived deterministically on both sides.
pub fn psend_init(
    comm: &Comm,
    dst: usize,
    tag: i64,
    n_parts: usize,
    part_bytes: usize,
    n_recv_parts: usize,
    opts: PartOptions,
) -> PsendRequest {
    assert!(n_parts >= 1, "need at least one partition");
    if let VciMapping::ThreadHint(hint) = &opts.vci_mapping {
        assert_eq!(
            hint.len(),
            n_parts,
            "thread hint must cover every partition"
        );
    }
    let world = comm.world().clone();
    let path = effective_path(&world, comm.rank(), dst, opts.path);
    let layout = negotiate_layout(n_parts, n_recv_parts, part_bytes, opts.aggr_size);
    world.trace(comm.rank(), || EventKind::AggrLayout {
        base_msgs: layout.base_msgs() as u16,
        msgs: layout.n_msgs() as u16,
        bytes_per_msg: layout.msgs[0].bytes as u64,
    });
    let part_comm = Comm::new(
        world.clone(),
        comm.rank(),
        comm.size(),
        comm.part_ctx(tag),
        comm.vci_idx(),
    );
    let n_msgs = layout.n_msgs();
    // Keyed by the sender's rank so pairs sharing a (ctx, tag) — e.g. a
    // ring whose links all use one tag — stay distinct for the analyzer.
    let vreq = world.verify_req_id(part_comm.ctx(), comm.rank() as u16);
    if world.verify_on() {
        verify_init_events(
            vreq,
            true,
            n_parts,
            n_recv_parts,
            path == PartPath::LegacyAm,
            &layout,
            n_parts * part_bytes,
            |kind| world.emit_verify(comm.rank(), || kind),
        );
    }
    PsendRequest {
        inner: Rc::new(PsendShared {
            world,
            comm: part_comm,
            vreq,
            dst,
            n_parts,
            part_bytes,
            layout,
            path,
            vci_mapping: opts.vci_mapping.clone(),
            defer_sends: opts.defer_sends,
            first_iteration_cts: opts.first_iteration_cts,
            first_iteration: Cell::new(true),
            counters: (0..n_msgs).map(|_| Cell::new(0)).collect(),
            issued: RefCell::new(vec![Signal::new(); n_msgs]),
            sent_reqs: RefCell::new((0..n_msgs).map(|_| None).collect()),
            am_counter: Cell::new(0),
            am_issued: RefCell::new(Signal::new()),
            concurrent_preadys: Cell::new(0),
            started: Cell::new(false),
            iters: Cell::new(0),
            jitter_round: Cell::new(0),
        }),
    }
}

/// Track partitioned-request pressure per peer and decide the actual path
/// (tag-space exhaustion forces the AM path, §3.2.1).
fn effective_path(world: &World, src: usize, dst: usize, requested: PartPath) -> PartPath {
    let created = world.count_part_request(src, dst);
    if requested == PartPath::Improved && created >= MAX_PART_REQUESTS_PER_PEER {
        PartPath::LegacyAm
    } else {
        requested
    }
}

impl PsendRequest {
    /// Number of internal messages the layout produced.
    pub fn n_msgs(&self) -> usize {
        self.inner.layout.n_msgs()
    }

    /// The negotiated layout (inspection/testing).
    pub fn layout(&self) -> &MsgLayout {
        &self.inner.layout
    }

    /// The path actually in use (may differ from the requested one if the
    /// reserved tag space was exhausted).
    pub fn path(&self) -> PartPath {
        self.inner.path
    }

    /// Current iteration index for verify provenance (0 before the
    /// first `start`). The simulated thread id is the rank: each rank's
    /// "threads" are coroutines of one deterministic schedule.
    fn cur_iter(&self) -> u32 {
        self.inner.iters.get().saturating_sub(1) as u32
    }

    /// `MPI_Start`: reset counters and arm the iteration. Charges the
    /// per-message request-setup cost serially (master thread).
    pub async fn start(&self) {
        let s = &self.inner;
        assert!(!s.started.get(), "partitioned send started twice");
        s.started.set(true);
        let iter = s.iters.get();
        s.iters.set(iter + 1);
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyStart {
                req: s.vreq,
                sender: true,
                iter: iter as u32,
                tid: s.comm.rank() as u16,
            });
        let cfg = s.world.config().clone();
        match s.path {
            PartPath::Improved => {
                if s.first_iteration.replace(false) && s.first_iteration_cts {
                    // Receiver-decided message count (§3.2.1): the first
                    // iteration cannot send before the receiver's CTS
                    // announced the agreed count.
                    let t0 = s.world.trace_now_ns();
                    s.comm.recv(Some(s.dst), Some(TAG_CTS)).await;
                    s.world
                        .trace_span(t0, s.comm.rank(), |wait_ns| EventKind::CtsWait {
                            peer: s.dst as u16,
                            wait_ns,
                        });
                }
                for (m, spec) in s.layout.msgs.iter().enumerate() {
                    s.world
                        .sim()
                        .sleep(s.world.jitter(cfg.o_request_setup))
                        .await;
                    s.counters[m].set(spec.n_sparts as i64);
                }
                let n = s.layout.n_msgs();
                *s.issued.borrow_mut() = vec![Signal::new(); n];
                *s.sent_reqs.borrow_mut() = (0..n).map(|_| None).collect();
            }
            PartPath::LegacyAm => {
                s.world
                    .sim()
                    .sleep(s.world.jitter(cfg.o_request_setup))
                    .await;
                // N_part + 1: the extra decrement comes from the CTS.
                s.am_counter.set(s.n_parts as i64 + 1);
                *s.am_issued.borrow_mut() = Signal::new();
                // Watch for the receiver's CTS of this iteration.
                let req = s.comm.irecv(Some(s.dst), Some(TAG_CTS)).await;
                let this = self.clone();
                let t0 = s.world.trace_now_ns();
                s.world.sim().spawn(async move {
                    req.wait().await;
                    let s = &this.inner;
                    s.world
                        .trace_span(t0, s.comm.rank(), |wait_ns| EventKind::CtsWait {
                            peer: s.dst as u16,
                            wait_ns,
                        });
                    this.am_decrement().await;
                });
            }
        }
    }

    /// `MPI_Pready(p)`: mark partition `p` ready. Called from worker
    /// threads; charges the (possibly contended) atomic update and, if
    /// this was the last partition of a message, injects that message from
    /// the calling thread — the early-bird effect.
    pub async fn pready(&self, p: usize) {
        let s = &self.inner;
        assert!(s.started.get(), "pready before start");
        assert!(p < s.n_parts, "partition index out of range");
        // Atomic counter update under contention.
        let conc = s.concurrent_preadys.get();
        s.concurrent_preadys.set(conc + 1);
        let cost = s.world.jitter(s.world.config().atomic_cost(conc));
        s.world.sim().sleep(cost).await;
        s.concurrent_preadys.set(s.concurrent_preadys.get() - 1);
        s.world
            .trace(s.comm.rank(), || EventKind::Pready { part: p as u64 });
        // Before the state gate on purpose: a double pready leaves two
        // VerifyPready events for the lint pass to find.
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyPready {
                req: s.vreq,
                part: p as u32,
                iter: self.cur_iter(),
                tid: s.comm.rank() as u16,
            });
        match s.path {
            PartPath::Improved => {
                let m = s.layout.msg_of_spart(p);
                let left = s.counters[m].get() - 1;
                s.counters[m].set(left);
                assert!(left >= 0, "partition {p} readied twice");
                if left == 0 && !s.defer_sends {
                    // Early-bird: this pready injects the message itself;
                    // the gap is pready-to-injection latency.
                    let pready_ns = s.world.trace_now_ns();
                    self.issue_message(m, pready_ns).await;
                }
            }
            PartPath::LegacyAm => self.am_decrement().await,
        }
    }

    /// `MPI_Pready_range`: mark partitions `lo..=hi` ready, in order
    /// (permuted under chaos `pready` jitter).
    pub async fn pready_range(&self, lo: usize, hi: usize) {
        assert!(lo <= hi, "empty or inverted range");
        let parts: Vec<usize> = (lo..=hi).collect();
        self.pready_permuted(&parts).await;
    }

    /// `MPI_Pready_list`: mark the listed partitions ready, in order
    /// (permuted under chaos `pready` jitter).
    pub async fn pready_list(&self, parts: &[usize]) {
        self.pready_permuted(parts).await;
    }

    /// Chaos mirror of the real runtime's `pready` jitter: when the
    /// world's fault plan asks for it, issue the batch in a seeded
    /// permuted order (same `jitter_order` stream as `pcomm-core`, so
    /// sim and real runs of one seed scramble identically).
    async fn pready_permuted(&self, parts: &[usize]) {
        let s = &self.inner;
        if parts.len() > 1 {
            if let Some(plan) = s.world.fault_plan() {
                if plan.jitter_pready {
                    let round = s.jitter_round.get();
                    s.jitter_round.set(round + 1);
                    let order = plan.jitter_order(s.comm.rank(), round, parts.len());
                    s.world.trace(s.comm.rank(), || EventKind::FaultInjected {
                        fault: FaultKind::PreadyJitter,
                        dst: s.dst as u16,
                        tag: 0,
                        arg: round,
                    });
                    for &i in &order {
                        self.pready(parts[i]).await;
                    }
                    return;
                }
            }
        }
        for &p in parts {
            self.pready(p).await;
        }
    }

    /// Improved path: inject message `m` on its round-robin VCI.
    /// `pready_ns` is set when the completing `pready` injects the message
    /// itself (the early-bird path); deferred sends pass `None`.
    async fn issue_message(&self, m: usize, pready_ns: Option<u64>) {
        let s = &self.inner;
        let spec = s.layout.msgs[m];
        // The injection is the transfer's read of the send partitions
        // this message covers.
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyMsgSend {
                req: s.vreq,
                msg: m as u16,
                iter: self.cur_iter(),
                tid: s.comm.rank() as u16,
            });
        let vci_idx = match &s.vci_mapping {
            // Round-robin message → VCI attribution (§3.2.2).
            VciMapping::RoundRobinByMessage => m % s.world.n_vcis(),
            // Stream hint: the owning thread's VCI.
            VciMapping::ThreadHint(hint) => hint[spec.first_spart] % s.world.n_vcis(),
        };
        let comm = s.comm.with_vci(vci_idx);
        let req = comm
            .isend(s.dst, m as i64, Msg::synthetic(spec.bytes))
            .await;
        if let Some(t0) = pready_ns {
            let gap_ns = s
                .world
                .trace_now_ns()
                .map_or(0, |now| now.saturating_sub(t0));
            s.world.trace(s.comm.rank(), || EventKind::EarlyBird {
                msg: m as u16,
                shard: vci_idx as u16,
                bytes: spec.bytes as u64,
                gap_ns,
            });
        }
        s.sent_reqs.borrow_mut()[m] = Some(req);
        s.issued.borrow()[m].set();
    }

    /// Legacy path: decrement the single counter; on zero, send the whole
    /// buffer as one AM message (copy at both ends).
    async fn am_decrement(&self) {
        let s = &self.inner;
        let left = s.am_counter.get() - 1;
        s.am_counter.set(left);
        if left == 0 {
            let total = s.n_parts * s.part_bytes;
            let cfg = s.world.config().clone();
            {
                let vci = s.world.vci(s.comm.rank(), s.comm.vci_idx());
                let guard = vci.acquire().await;
                let penalty = cfg.contention_penalty(guard.waiters_behind());
                let occupancy = s.world.jitter(cfg.o_am + cfg.copy_time(total)) + penalty;
                s.world.sim().sleep(occupancy).await;
            }
            s.world
                .emit_verify(s.comm.rank(), || EventKind::VerifyMsgSend {
                    req: s.vreq,
                    msg: 0,
                    iter: self.cur_iter(),
                    tid: s.comm.rank() as u16,
                });
            s.world.transmit(
                s.comm.rank(),
                s.dst,
                crate::tag::Delivered {
                    src: s.comm.rank(),
                    ctx: s.comm.ctx(),
                    tag: TAG_AM_DATA,
                    bytes: total,
                    data: None,
                    meta: 0,
                    rendezvous: None,
                },
            );
            s.am_issued.borrow().set();
        }
    }

    /// `MPI_Wait`: complete the iteration (master thread). Blocks until
    /// every message has been injected and locally completed.
    pub async fn wait(&self) {
        let s = &self.inner;
        assert!(s.started.get(), "wait before start");
        let t0 = s.world.trace_now_ns();
        let n_msgs;
        match s.path {
            PartPath::Improved => {
                n_msgs = s.layout.n_msgs();
                if s.defer_sends {
                    for m in 0..s.layout.n_msgs() {
                        assert_eq!(
                            s.counters[m].get(),
                            0,
                            "deferred wait requires all partitions ready"
                        );
                        self.issue_message(m, None).await;
                    }
                }
                for m in 0..s.layout.n_msgs() {
                    let sig = s.issued.borrow()[m].clone();
                    sig.wait().await;
                    let req = s.sent_reqs.borrow_mut()[m]
                        .take()
                        .expect("issued message must have a request");
                    req.wait().await;
                }
            }
            PartPath::LegacyAm => {
                n_msgs = 1;
                let sig = s.am_issued.borrow().clone();
                sig.wait().await;
                let cost = s.world.jitter(s.world.config().o_request_complete);
                s.world.sim().sleep(cost).await;
            }
        }
        s.world
            .trace_span(t0, s.comm.rank(), |wait_ns| EventKind::PartWait {
                msgs: n_msgs as u16,
                wait_ns,
            });
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyWaitDone {
                req: s.vreq,
                sender: true,
                iter: self.cur_iter(),
                tid: s.comm.rank() as u16,
            });
        s.started.set(false);
    }
}

struct PrecvShared {
    world: World,
    comm: Comm,
    /// Interned verify request id, agreed with the sender side.
    vreq: u16,
    src: usize,
    n_parts: usize,
    total_bytes: usize,
    layout: MsgLayout,
    path: PartPath,
    first_iteration_cts: bool,
    first_iteration: Cell<bool>,
    reqs: RefCell<Vec<Option<RecvRequest>>>,
    arrived: RefCell<Vec<Signal>>,
    /// Legacy: completion of the single AM message.
    am_ready: RefCell<Signal>,
    started: Cell<bool>,
    /// Iterations started so far (verify provenance, as on the send side).
    iters: Cell<u64>,
}

/// Receiver-side partitioned request (`MPI_Precv_init`).
#[derive(Clone)]
pub struct PrecvRequest {
    inner: Rc<PrecvShared>,
}

/// Create a receiver-side partitioned request. `n_send_parts` /
/// `send_part_bytes` describe the sender side (agreed at init).
pub fn precv_init(
    comm: &Comm,
    src: usize,
    tag: i64,
    n_parts: usize,
    n_send_parts: usize,
    send_part_bytes: usize,
    opts: PartOptions,
) -> PrecvRequest {
    assert!(n_parts >= 1, "need at least one partition");
    let world = comm.world().clone();
    let path = effective_path(&world, src, comm.rank(), opts.path);
    let layout = negotiate_layout(n_send_parts, n_parts, send_part_bytes, opts.aggr_size);
    let part_comm = Comm::new(
        world.clone(),
        comm.rank(),
        comm.size(),
        comm.part_ctx(tag),
        comm.vci_idx(),
    );
    let n_msgs = layout.n_msgs();
    // Same id the sender interned: both sides key by the sender's rank.
    let vreq = world.verify_req_id(part_comm.ctx(), src as u16);
    if world.verify_on() {
        verify_init_events(
            vreq,
            false,
            n_parts,
            n_send_parts,
            path == PartPath::LegacyAm,
            &layout,
            n_send_parts * send_part_bytes,
            |kind| world.emit_verify(comm.rank(), || kind),
        );
    }
    PrecvRequest {
        inner: Rc::new(PrecvShared {
            world,
            comm: part_comm,
            vreq,
            src,
            n_parts,
            total_bytes: n_send_parts * send_part_bytes,
            layout,
            path,
            first_iteration_cts: opts.first_iteration_cts,
            first_iteration: Cell::new(true),
            reqs: RefCell::new((0..n_msgs).map(|_| None).collect()),
            arrived: RefCell::new(vec![Signal::new(); n_msgs]),
            am_ready: RefCell::new(Signal::new()),
            started: Cell::new(false),
            iters: Cell::new(0),
        }),
    }
}

impl PrecvRequest {
    /// Number of internal messages.
    pub fn n_msgs(&self) -> usize {
        self.inner.layout.n_msgs()
    }

    /// The path actually in use.
    pub fn path(&self) -> PartPath {
        self.inner.path
    }

    /// Current iteration index for verify provenance (0 before the
    /// first `start`).
    fn cur_iter(&self) -> u32 {
        self.inner.iters.get().saturating_sub(1) as u32
    }

    /// Spawn an observer coroutine that emits [`EventKind::VerifyMsgRecv`]
    /// the moment `sig` fires — the virtual instant the wire message's
    /// payload lands in the recv buffer. Observers add no virtual time,
    /// so verification never perturbs the simulated schedule.
    fn watch_arrival(&self, m: usize, sig: Signal) {
        let s = &self.inner;
        if !s.world.verify_on() {
            return;
        }
        let world = s.world.clone();
        let rank = s.comm.rank();
        let req = s.vreq;
        s.world.sim().spawn(async move {
            sig.wait().await;
            // The simulated transport always lands payloads through a
            // staging copy, never a peek into the sender's live buffer —
            // eager semantics as far as the sender's HB edges go.
            world.emit_verify(rank, || EventKind::VerifyMsgRecv {
                req,
                msg: m as u16,
                tid: rank as u16,
                eager: true,
            });
        });
    }

    /// `MPI_Start`: post the internal receives (improved) or send the CTS
    /// and post the AM receive (legacy).
    pub async fn start(&self) {
        let s = &self.inner;
        assert!(!s.started.get(), "partitioned recv started twice");
        s.started.set(true);
        let iter = s.iters.get();
        s.iters.set(iter + 1);
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyStart {
                req: s.vreq,
                sender: false,
                iter: iter as u32,
                tid: s.comm.rank() as u16,
            });
        match s.path {
            PartPath::Improved => {
                if s.first_iteration.replace(false) && s.first_iteration_cts {
                    // Announce the receiver-decided message count (§3.2.1).
                    s.comm
                        .send(s.src, TAG_CTS, Msg::ctrl(s.layout.n_msgs() as u64))
                        .await;
                }
                let n = s.layout.n_msgs();
                *s.arrived.borrow_mut() = vec![Signal::new(); n];
                for m in 0..n {
                    let req = s.comm.irecv(Some(s.src), Some(m as i64)).await;
                    self.watch_arrival(m, req.ready_signal());
                    // Bridge the request's readiness to the arrived signal
                    // so Parrived can poll without consuming the request.
                    s.reqs.borrow_mut()[m] = Some(req);
                }
            }
            PartPath::LegacyAm => {
                // CTS to the sender: mandatory every iteration (§3.1).
                let cost = s.world.jitter(s.world.config().o_ctrl);
                s.world.sim().sleep(cost).await;
                s.world.transmit_ctrl(
                    s.comm.rank(),
                    s.src,
                    crate::tag::Delivered {
                        src: s.comm.rank(),
                        ctx: s.comm.ctx(),
                        tag: TAG_CTS,
                        bytes: 0,
                        data: None,
                        meta: 0,
                        rendezvous: None,
                    },
                );
                // Post the receive for the single AM data message.
                let ready = Signal::new();
                let posted = Posted {
                    ctx: s.comm.ctx(),
                    src: Some(s.src),
                    tag: Some(TAG_AM_DATA),
                    slot: Rc::new(RefCell::new(None)),
                    ready: ready.clone(),
                };
                let engine = s.world.engine(s.comm.rank());
                if let Some(matched) = engine.post(posted) {
                    s.world.finalize_match(s.comm.rank(), matched);
                }
                self.watch_arrival(0, ready.clone());
                *s.am_ready.borrow_mut() = ready;
            }
        }
    }

    /// `MPI_Parrived(p)`: has receiver partition `p` arrived?
    ///
    /// In the improved path this tests the internal message covering the
    /// partition; in the legacy path the whole buffer arrives at once.
    /// An *inactive* request — never started, or between iterations —
    /// reports `true`, as MPI defines for completed operations (and as
    /// the real runtime does).
    pub fn parrived(&self, p: usize) -> bool {
        let s = &self.inner;
        assert!(p < s.n_parts, "partition index out of range");
        let arrived = match s.path {
            PartPath::Improved => {
                let m = s.layout.msg_of_rpart(p);
                // An empty request slot means the request is inactive:
                // either wait() consumed it completing the iteration, or
                // start() never ran. Both answer true.
                s.reqs.borrow()[m]
                    .as_ref()
                    .map(|r| r.test())
                    .unwrap_or(!s.started.get())
            }
            PartPath::LegacyAm => !s.started.get() || s.am_ready.borrow().is_set(),
        };
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyParrived {
                req: s.vreq,
                part: p as u32,
                iter: self.cur_iter(),
                tid: s.comm.rank() as u16,
                arrived,
            });
        arrived
    }

    /// Wait until **some** internal message has arrived and return its
    /// index (an `MPI_Waitany` over the partition groups — lets a consumer
    /// start processing the earliest data without polling `parrived`).
    pub async fn wait_any_msg(&self) -> usize {
        let s = &self.inner;
        assert!(s.started.get(), "wait_any_msg outside an active iteration");
        match s.path {
            PartPath::Improved => {
                let signals: Vec<Signal> = s
                    .reqs
                    .borrow()
                    .iter()
                    .map(|r| {
                        r.as_ref()
                            .expect("started recv has requests")
                            .ready_signal()
                    })
                    .collect();
                pcomm_simcore::sync::wait_any(signals).await
            }
            PartPath::LegacyAm => {
                let sig = s.am_ready.borrow().clone();
                sig.wait().await;
                0
            }
        }
    }

    /// `MPI_Wait`: complete the iteration; charges per-message completion
    /// (improved) or the AM copy (legacy).
    pub async fn wait(&self) {
        let s = &self.inner;
        assert!(s.started.get(), "wait before start");
        let t0 = s.world.trace_now_ns();
        let n_msgs;
        match s.path {
            PartPath::Improved => {
                n_msgs = s.layout.n_msgs();
                for m in 0..s.layout.n_msgs() {
                    let req = s.reqs.borrow_mut()[m]
                        .take()
                        .expect("started recv must have requests");
                    req.wait().await;
                }
            }
            PartPath::LegacyAm => {
                n_msgs = 1;
                let ready = s.am_ready.borrow().clone();
                ready.wait().await;
                let cfg = s.world.config().clone();
                let cost = s.world.jitter(cfg.o_am + cfg.copy_time(s.total_bytes));
                s.world.sim().sleep(cost).await;
            }
        }
        s.world
            .trace_span(t0, s.comm.rank(), |wait_ns| EventKind::PartWait {
                msgs: n_msgs as u16,
                wait_ns,
            });
        s.world
            .emit_verify(s.comm.rank(), || EventKind::VerifyWaitDone {
                req: s.vreq,
                sender: false,
                iter: self.cur_iter(),
                tid: s.comm.rank() as u16,
            });
        s.started.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_netmodel::MachineConfig;
    use pcomm_simcore::{Dur, Sim};

    fn setup(n_vcis: usize) -> (Sim, World) {
        let sim = Sim::new();
        let world = World::new(&sim, MachineConfig::meluxina_quiet(), 2, n_vcis, 1);
        (sim, world)
    }

    // ---- improved path -------------------------------------------------

    fn mk_pair(
        world: &World,
        n_parts: usize,
        part_bytes: usize,
        opts: PartOptions,
    ) -> (PsendRequest, PrecvRequest) {
        let cs = world.comm_world(0);
        let cr = world.comm_world(1);
        let ps = psend_init(&cs, 1, 0, n_parts, part_bytes, n_parts, opts.clone());
        let pr = precv_init(&cr, 0, 0, n_parts, n_parts, part_bytes, opts);
        (ps, pr)
    }

    #[test]
    fn improved_roundtrip_all_partitions() {
        let (sim, world) = setup(1);
        let (ps, pr) = mk_pair(&world, 4, 256, PartOptions::default());
        let done = sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                pr.wait().await;
                (0..4).all(|p| pr.parrived(p))
            }
        });
        sim.spawn(async move {
            ps.start().await;
            for p in 0..4 {
                ps.pready(p).await;
            }
            ps.wait().await;
        });
        sim.run();
        assert!(done.try_take().unwrap());
    }

    #[test]
    fn pready_jitter_permutes_order_and_roundtrip_survives() {
        use pcomm_trace::FaultPlan;
        let (sim, world) = setup(1);
        world.enable_trace();
        world.enable_faults(FaultPlan::seeded(11).jitter(true));
        let (ps, pr) = mk_pair(&world, 16, 64, PartOptions::default());
        let done = sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                pr.wait().await;
                (0..16).all(|p| pr.parrived(p))
            }
        });
        sim.spawn(async move {
            ps.start().await;
            ps.pready_range(0, 15).await;
            ps.wait().await;
        });
        sim.run();
        assert!(done.try_take().unwrap());
        // Exactly one jitter round was traced, and the Pready events do
        // not appear in ascending partition order.
        let events = world.take_trace();
        let jitters = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::FaultInjected {
                        fault: FaultKind::PreadyJitter,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(jitters, 1);
        let order: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Pready { part } => Some(part),
                _ => None,
            })
            .collect();
        assert_eq!(order.len(), 16);
        assert_ne!(order, (0..16).collect::<Vec<u64>>(), "order must scramble");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn early_bird_message_leaves_before_last_pready() {
        let (sim, world) = setup(1);
        let (ps, pr) = mk_pair(&world, 2, 64, PartOptions::default());
        // Receiver polls Parrived(0) while partition 1 is still delayed.
        let saw_early = sim.spawn({
            let pr = pr.clone();
            let s = sim.clone();
            async move {
                pr.start().await;
                s.sleep(Dur::from_us(100)).await; // partition 0 readied at ~0
                let early = pr.parrived(0) && !pr.parrived(1);
                pr.wait().await;
                early
            }
        });
        sim.spawn({
            let s = sim.clone();
            async move {
                ps.start().await;
                ps.pready(0).await;
                s.sleep(Dur::from_us(500)).await; // delayed last partition
                ps.pready(1).await;
                ps.wait().await;
            }
        });
        sim.run();
        assert!(saw_early.try_take().unwrap(), "early-bird arrival not seen");
    }

    #[test]
    fn aggregated_request_sends_fewer_messages() {
        let (_sim, world) = setup(1);
        let opts = PartOptions {
            aggr_size: Some(4096),
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 32, 512, opts);
        assert_eq!(ps.n_msgs(), 4);
        assert_eq!(pr.n_msgs(), 4);
    }

    #[test]
    fn reuse_across_iterations() {
        let (sim, world) = setup(2);
        let (ps, pr) = mk_pair(&world, 3, 128, PartOptions::default());
        let iters = sim.spawn({
            let pr = pr.clone();
            async move {
                for _ in 0..5 {
                    pr.start().await;
                    pr.wait().await;
                }
                5
            }
        });
        sim.spawn(async move {
            for _ in 0..5 {
                ps.start().await;
                for p in 0..3 {
                    ps.pready(p).await;
                }
                ps.wait().await;
            }
        });
        sim.run();
        assert_eq!(iters.try_take().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "readied twice")]
    fn double_pready_detected() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            first_iteration_cts: false, // no receiver task in this test
            ..PartOptions::default()
        };
        let (ps, _pr) = mk_pair(&world, 2, 64, opts);
        sim.block_on(async move {
            ps.start().await;
            ps.pready(0).await;
            ps.pready(0).await;
        });
    }

    #[test]
    #[should_panic(expected = "pready before start")]
    fn pready_requires_start() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            first_iteration_cts: false,
            ..PartOptions::default()
        };
        let (ps, _pr) = mk_pair(&world, 2, 64, opts);
        sim.block_on(async move {
            ps.pready(0).await;
        });
    }

    // ---- legacy AM path -------------------------------------------------

    #[test]
    fn legacy_roundtrip() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            path: PartPath::LegacyAm,
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 4, 1024, opts);
        assert_eq!(ps.path(), PartPath::LegacyAm);
        let done = sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                pr.wait().await;
                pr.parrived(3)
            }
        });
        sim.spawn(async move {
            ps.start().await;
            for p in 0..4 {
                ps.pready(p).await;
            }
            ps.wait().await;
        });
        sim.run();
        assert!(done.try_take().unwrap());
    }

    #[test]
    fn legacy_slower_than_improved_single_partition() {
        // Fig. 4's headline: the AM path pays copies at both ends; the
        // improved path matches plain Pt2Pt.
        // Warm-up iteration first (as the paper does) so the improved
        // path's first-iteration CTS does not skew the steady state.
        fn one_iter(path: PartPath, bytes: usize) -> f64 {
            let (sim, world) = setup(1);
            let opts = PartOptions {
                path,
                ..PartOptions::default()
            };
            let (ps, pr) = mk_pair(&world, 1, bytes, opts);
            let done = sim.spawn({
                let pr = pr.clone();
                async move {
                    pr.start().await;
                    pr.wait().await;
                    let t0 = pr.inner.world.sim().now();
                    pr.start().await;
                    pr.wait().await;
                    pr.inner.world.sim().now().since(t0).as_us_f64()
                }
            });
            sim.spawn(async move {
                for _ in 0..2 {
                    ps.start().await;
                    ps.pready(0).await;
                    ps.wait().await;
                }
            });
            sim.run();
            done.try_take().unwrap()
        }
        for bytes in [512usize, 8192, 1 << 20] {
            let legacy = one_iter(PartPath::LegacyAm, bytes);
            let improved = one_iter(PartPath::Improved, bytes);
            assert!(
                legacy > improved,
                "{bytes}B: legacy {legacy}us <= improved {improved}us"
            );
        }
    }

    #[test]
    fn legacy_waits_for_cts() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            path: PartPath::LegacyAm,
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 1, 64, opts);
        // Receiver starts late → CTS late → AM send cannot leave earlier.
        let recv_done = sim.spawn({
            let pr = pr.clone();
            let s = sim.clone();
            async move {
                s.sleep(Dur::from_us(300)).await;
                pr.start().await;
                pr.wait().await;
                s.now()
            }
        });
        let send_done = sim.spawn({
            let s = sim.clone();
            async move {
                ps.start().await;
                ps.pready(0).await;
                ps.wait().await;
                s.now()
            }
        });
        sim.run();
        let t_send = send_done.try_take().unwrap().as_us_f64();
        let t_recv = recv_done.try_take().unwrap().as_us_f64();
        assert!(t_send > 300.0, "AM send left before CTS: {t_send}");
        assert!(t_recv > t_send);
    }

    #[test]
    fn mismatched_partition_counts_roundtrip() {
        // 12 sender vs 8 receiver partitions → gcd = 4 messages; the
        // receiver-side Parrived granularity follows the receiver count.
        let (sim, world) = setup(1);
        let cs = world.comm_world(0);
        let cr = world.comm_world(1);
        let opts = PartOptions::default();
        let ps = psend_init(&cs, 1, 0, 12, 100, 8, opts.clone());
        let pr = precv_init(&cr, 0, 0, 8, 12, 100, opts);
        assert_eq!(ps.n_msgs(), 4);
        assert_eq!(pr.n_msgs(), 4);
        let done = sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                pr.wait().await;
                (0..8).all(|r| pr.parrived(r))
            }
        });
        sim.spawn(async move {
            ps.start().await;
            for p in 0..12 {
                ps.pready(p).await;
            }
            ps.wait().await;
        });
        sim.run();
        assert!(done.try_take().unwrap());
    }

    #[test]
    fn trace_records_early_bird_ordering() {
        let (sim, world) = setup(1);
        world.enable_trace();
        let opts = PartOptions {
            first_iteration_cts: false,
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 2, 64, opts);
        sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                pr.wait().await;
            }
        });
        sim.spawn({
            let s = sim.clone();
            async move {
                ps.start().await;
                ps.pready(0).await;
                s.sleep(Dur::from_us(50)).await;
                ps.pready(1).await;
                ps.wait().await;
            }
        });
        sim.run();
        let trace = world.take_trace();
        assert!(!trace.is_empty());
        // Timestamps are monotone (take_trace sorts by virtual time).
        for w in trace.windows(2) {
            assert!(w[1].ts_ns >= w[0].ts_ns, "trace out of order");
        }
        // Message 0 leaves early-bird, before partition 1 is even ready.
        let early0 = trace
            .iter()
            .position(|e| matches!(e.kind, EventKind::EarlyBird { msg: 0, .. }))
            .expect("missing early-bird event for message 0");
        let pready1 = trace
            .iter()
            .position(|e| matches!(e.kind, EventKind::Pready { part: 1 }))
            .expect("missing pready event for partition 1");
        assert!(early0 < pready1, "early-bird send must precede pready(1)");
        // The sender's injections are typed eager sends on rank 0.
        assert!(trace
            .iter()
            .any(|e| e.rank == 0 && matches!(e.kind, EventKind::EagerSend { dst: 1, .. })));
        // Disabled tracing yields nothing further.
        assert!(world.take_trace().is_empty());
    }

    #[test]
    fn wait_any_msg_returns_earliest() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            first_iteration_cts: false,
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 3, 64, opts);
        let first = sim.spawn({
            let pr = pr.clone();
            async move {
                pr.start().await;
                let m = pr.wait_any_msg().await;
                pr.wait().await;
                m
            }
        });
        sim.spawn({
            let s = sim.clone();
            async move {
                ps.start().await;
                // Partition 1 first, then 0 and 2 much later.
                ps.pready(1).await;
                s.sleep(Dur::from_us(200)).await;
                ps.pready(0).await;
                ps.pready(2).await;
                ps.wait().await;
            }
        });
        sim.run();
        assert_eq!(first.try_take().unwrap(), 1, "earliest arrival wins");
    }

    // ---- extensions: thread hints, deferred sends, first-iter CTS ----

    #[test]
    fn thread_hint_controls_vci_attribution() {
        // 2 threads × θ=2 on 2 VCIs. Round-robin-by-message puts messages
        // 0,1,2,3 on VCIs 0,1,0,1; the thread hint (p % 2) puts messages
        // of thread 0 (partitions 0,2) on VCI 0 and thread 1's on VCI 1 —
        // same distribution here, so instead use a *block* hint where
        // thread 0 owns partitions 0,1: the mappings then differ.
        fn vci_counts(mapping: VciMapping) -> (u64, u64) {
            let (sim, world) = setup(2);
            let opts = PartOptions {
                vci_mapping: mapping,
                first_iteration_cts: false,
                ..PartOptions::default()
            };
            let (ps, _pr) = mk_pair(&world, 4, 64, opts);
            sim.block_on({
                let ps = ps.clone();
                async move {
                    ps.start().await;
                    for p in 0..4 {
                        ps.pready(p).await;
                    }
                }
            });
            (
                world.vci(0, 0).stats().acquisitions,
                world.vci(0, 1).stats().acquisitions,
            )
        }
        let rr = vci_counts(VciMapping::RoundRobinByMessage);
        assert_eq!(rr, (2, 2), "round-robin spreads 4 messages evenly");
        // Block hint: thread 0 owns partitions 0..2, thread 1 owns 2..4.
        let hint = std::rc::Rc::new(vec![0usize, 0, 1, 1]);
        let hinted = vci_counts(VciMapping::ThreadHint(hint));
        assert_eq!(hinted, (2, 2), "two messages per owning thread's VCI");
        // With an adversarial hint (everything owned by thread 0), all
        // traffic lands on VCI 0.
        let all0 = vci_counts(VciMapping::ThreadHint(std::rc::Rc::new(vec![0; 4])));
        assert_eq!(all0, (4, 0));
    }

    #[test]
    fn deferred_sends_disable_early_bird() {
        let (sim, world) = setup(1);
        let opts = PartOptions {
            defer_sends: true,
            ..PartOptions::default()
        };
        let (ps, pr) = mk_pair(&world, 2, 64, opts);
        let saw_early = sim.spawn({
            let pr = pr.clone();
            let s = sim.clone();
            async move {
                pr.start().await;
                s.sleep(Dur::from_us(100)).await;
                let early = pr.parrived(0);
                pr.wait().await;
                early
            }
        });
        sim.spawn({
            let s = sim.clone();
            async move {
                ps.start().await;
                ps.pready(0).await;
                s.sleep(Dur::from_us(500)).await;
                ps.pready(1).await;
                ps.wait().await;
            }
        });
        sim.run();
        assert!(
            !saw_early.try_take().unwrap(),
            "deferred mode must not deliver partition 0 early"
        );
    }

    #[test]
    fn first_iteration_cts_slows_only_iteration_zero() {
        let (sim, world) = setup(1);
        let (ps, pr) = mk_pair(&world, 2, 128, PartOptions::default());
        let times = sim.spawn({
            let pr = pr.clone();
            let s = sim.clone();
            async move {
                let mut v = Vec::new();
                for _ in 0..3 {
                    let t0 = s.now();
                    pr.start().await;
                    pr.wait().await;
                    v.push(s.now().since(t0).as_us_f64());
                }
                v
            }
        });
        sim.spawn(async move {
            for _ in 0..3 {
                ps.start().await;
                for p in 0..2 {
                    ps.pready(p).await;
                }
                ps.wait().await;
            }
        });
        sim.run();
        let v = times.try_take().unwrap();
        // Iteration 0 pays the CTS round trip; later iterations do not.
        assert!(
            v[0] > v[1] + 1.0,
            "first iteration should carry the CTS overhead: {v:?}"
        );
        assert!((v[1] - v[2]).abs() < 0.2, "steady state: {v:?}");
    }

    #[test]
    fn tag_space_exhaustion_falls_back_to_am() {
        let (_sim, world) = setup(1);
        let cs = world.comm_world(0);
        let mut last = None;
        for t in 0..(MAX_PART_REQUESTS_PER_PEER + 1) as i64 {
            let ps = psend_init(&cs, 1, t, 1, 64, 1, PartOptions::default());
            last = Some(ps.path());
        }
        assert_eq!(last, Some(PartPath::LegacyAm));
    }
}
