//! The simulated machine: ranks, links, VCIs and the message delivery path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pcomm_netmodel::{MachineConfig, NoiseInjector, VciPool};
use pcomm_simcore::sync::{channel, Receiver, Resource, Sender};
use pcomm_simcore::{Dur, Sim};
use pcomm_trace::{Event, EventKind, FaultAction, FaultKind, FaultPlan};

use crate::comm::Comm;
use crate::tag::{Delivered, MatchEngine, Posted};

/// Kind discriminator for deterministic context-id derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtxKind {
    /// `MPI_Comm_dup` child.
    Dup = 1,
    /// Window control context.
    Win = 2,
    /// Partitioned-communication internal context.
    Part = 3,
}

struct WorldState {
    engines: Vec<Rc<MatchEngine>>,
    links: HashMap<(usize, usize), Resource>,
    vci_pools: Vec<VciPool>,
    noise: NoiseInjector,
    /// (rank, parent ctx, kind) → next child index; "collective" calls must
    /// happen in the same order on every rank (as in MPI) so derived
    /// context ids agree.
    child_counts: HashMap<(usize, u64, u8), u64>,
    /// Per rank: number of windows created (progress-engine overhead).
    windows: Vec<usize>,
    /// Partitioned requests created per (src, dst) peer pair (tag-space
    /// accounting, paper §3.2.1).
    part_requests: HashMap<(usize, usize), usize>,
    /// Window context → its put-arrival channel, where the window's two
    /// ends find each other.
    win_links: HashMap<u64, WinLink>,
    /// Per rank: next VCI assignment for communicators/windows
    /// (round-robin, as MPICH maps comms to VCIs).
    vci_assign: Vec<usize>,
    /// Optional event trace (None = tracing disabled). Events use the
    /// same typed schema as the real runtime ([`pcomm_trace`]), stamped
    /// with *virtual* nanoseconds, so sim and real traces are directly
    /// comparable in one viewer.
    trace: Option<Vec<Event>>,
    /// Analysis-grade `Verify*` event emission for `pcomm-verify`
    /// (implies tracing). Off by default: the verify events are dense
    /// (one per partition access and per message hop) and only the
    /// verification passes consume them.
    verify: bool,
    /// Interned `(ctx, sender_rank)` request identities, in first-seen
    /// order; a request's `Verify*` id is its index. The sender's rank
    /// disambiguates pairs sharing a partitioned (ctx, tag) — mirrors
    /// `Trace::verify_req_id` in the real runtime.
    verify_reqs: Vec<(u64, u16)>,
    /// Optional chaos plan (None = no fault injection). Shares the
    /// [`FaultPlan`] definition with the real runtime so one
    /// `PCOMM_FAULTS` spec drives both.
    fault_plan: Option<FaultPlan>,
    /// Per-channel (src, dst, ctx, tag) message sequence numbers for
    /// [`FaultPlan::decide`]; incremented at transmit-call order, which
    /// the single-threaded simulation makes deterministic.
    fault_seq: HashMap<(usize, usize, u64, i64), u64>,
}

/// A window's put-arrival channel: the origin end clones the sender, the
/// target end takes the receiver.
pub(crate) type WinLink = (Sender<()>, Option<Receiver<()>>);

/// Chaos decisions for one simulated transmission, computed at transmit
/// time and charged in virtual time by [`World::charge_faults`].
///
/// The simulated transport stays reliable: where the real fabric loses a
/// message after `max_retries` resends (surfacing `MessageLost`), the
/// simulator's link layer always recovers — each dropped attempt is
/// charged one retransmission round trip and the message is delivered
/// anyway. Drops therefore surface as *latency*, never as data loss;
/// `Duplicate`/`Reorder` decisions decay to clean delivery because an
/// in-order reliable link absorbs them.
struct FaultOutcome {
    /// Dropped attempts before the delivered one (each costs 2×latency).
    drops: u32,
    /// Injected delay on the delivered attempt, microseconds (0 = none).
    delay_us: u64,
}

/// Handle to the simulated machine. Cheap to clone.
#[derive(Clone)]
pub struct World {
    sim: Sim,
    cfg: Rc<MachineConfig>,
    state: Rc<RefCell<WorldState>>,
}

impl World {
    /// Create a world with `n_ranks` ranks, `n_vcis` VCIs per rank and a
    /// deterministic noise seed.
    pub fn new(sim: &Sim, cfg: MachineConfig, n_ranks: usize, n_vcis: usize, seed: u64) -> World {
        assert!(n_ranks >= 1, "need at least one rank");
        let noise = NoiseInjector::new(cfg.noise_rel_sd, seed);
        World {
            sim: sim.clone(),
            cfg: Rc::new(cfg),
            state: Rc::new(RefCell::new(WorldState {
                engines: (0..n_ranks).map(|_| Rc::new(MatchEngine::new())).collect(),
                links: HashMap::new(),
                vci_pools: (0..n_ranks).map(|_| VciPool::new(sim, n_vcis)).collect(),
                noise,
                child_counts: HashMap::new(),
                windows: vec![0; n_ranks],
                part_requests: HashMap::new(),
                win_links: HashMap::new(),
                trace: None,
                verify: false,
                verify_reqs: Vec::new(),
                fault_plan: None,
                fault_seq: HashMap::new(),
                vci_assign: vec![1; n_ranks], // 0 is comm_world's VCI
            })),
        }
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.state.borrow().engines.len()
    }

    /// Number of VCIs per rank.
    pub fn n_vcis(&self) -> usize {
        self.state.borrow().vci_pools[0].len()
    }

    /// `MPI_COMM_WORLD` as seen from `rank`.
    pub fn comm_world(&self, rank: usize) -> Comm {
        assert!(rank < self.n_ranks(), "rank out of range");
        Comm::new(self.clone(), rank, self.n_ranks(), 0, 0)
    }

    pub(crate) fn engine(&self, rank: usize) -> Rc<MatchEngine> {
        Rc::clone(&self.state.borrow().engines[rank])
    }

    /// The (src → dst) link resource; created lazily.
    pub(crate) fn link(&self, src: usize, dst: usize) -> Resource {
        let mut s = self.state.borrow_mut();
        s.links
            .entry((src, dst))
            .or_insert_with(|| Resource::new(&self.sim))
            .clone()
    }

    /// VCI `idx` of `rank` (round-robin over the pool).
    pub(crate) fn vci(&self, rank: usize, idx: usize) -> Resource {
        self.state.borrow().vci_pools[rank].vci(idx).clone()
    }

    /// Apply system noise to a CPU-side cost.
    pub(crate) fn jitter(&self, d: Dur) -> Dur {
        self.state.borrow_mut().noise.jitter(d)
    }

    /// Enable event tracing (records message injections, VCI waits and
    /// partitioned-communication milestones as typed [`Event`]s).
    pub fn enable_trace(&self) {
        self.state.borrow_mut().trace = Some(Vec::new());
    }

    /// Enable analysis-grade `Verify*` event emission for the
    /// `pcomm-verify` passes (happens-before races, wait-for-graph
    /// deadlocks, protocol lints). Implies [`World::enable_trace`]; the
    /// collected events come back through [`World::take_trace`].
    pub fn enable_verify(&self) {
        let mut s = self.state.borrow_mut();
        if s.trace.is_none() {
            s.trace = Some(Vec::new());
        }
        s.verify = true;
    }

    /// Whether `Verify*` emission is on (callers that must spawn
    /// observer tasks check this up front).
    pub(crate) fn verify_on(&self) -> bool {
        self.state.borrow().verify
    }

    /// Intern a partitioned request's `(ctx, sender_rank)` identity into
    /// the stable `u16` id carried by `Verify*` events; both sides call
    /// with the sender's rank and agree. Returns 0 when verification is
    /// off (no event carries it then).
    pub(crate) fn verify_req_id(&self, ctx: u64, sender_rank: u16) -> u16 {
        let mut s = self.state.borrow_mut();
        if !s.verify {
            return 0;
        }
        let key = (ctx, sender_rank);
        if let Some(i) = s.verify_reqs.iter().position(|&k| k == key) {
            return i as u16;
        }
        s.verify_reqs.push(key);
        (s.verify_reqs.len() - 1) as u16
    }

    /// Record a `Verify*` event at virtual-now, only when verification
    /// is enabled. The closure only runs when it is, keeping the
    /// default path to one branch.
    pub(crate) fn emit_verify(&self, rank: usize, kind: impl FnOnce() -> EventKind) {
        let mut s = self.state.borrow_mut();
        if !s.verify {
            return;
        }
        if let Some(trace) = s.trace.as_mut() {
            let ts_ns = self.sim.now().as_ps() / 1000;
            let mut ev = kind().at(ts_ns);
            ev.rank = rank as u16;
            trace.push(ev);
        }
    }

    /// Enable chaos fault injection on the simulated transport. Every
    /// transmission consults the plan; drops are charged as
    /// retransmission round trips in virtual time (the simulated link
    /// layer is reliable — see [`FaultOutcome`]) and delays as extra
    /// virtual sleeps, each traced as a [`EventKind::FaultInjected`]
    /// event with a virtual timestamp when tracing is on.
    pub fn enable_faults(&self, plan: FaultPlan) {
        self.state.borrow_mut().fault_plan = Some(plan);
    }

    /// The configured fault plan, if any (e.g. for `pready` jitter at
    /// the partitioned layer).
    pub(crate) fn fault_plan(&self) -> Option<FaultPlan> {
        self.state.borrow().fault_plan.clone()
    }

    /// Decide the chaos outcome for one transmission. Sequence numbers
    /// advance at transmit-call order; since the simulation executes
    /// rank coroutines deterministically, the same workload and seed
    /// reproduce the same outcome sequence bit-for-bit.
    fn fault_outcome(&self, src: usize, dst: usize, ctx: u64, tag: i64) -> Option<FaultOutcome> {
        let (plan, seq) = {
            let mut s = self.state.borrow_mut();
            let plan = s.fault_plan.clone()?;
            if !plan.any_faults() {
                return None;
            }
            let counter = s.fault_seq.entry((src, dst, ctx, tag)).or_insert(0);
            let seq = *counter;
            *counter += 1;
            (plan, seq)
        };
        let mut drops = 0u32;
        let action = loop {
            match plan.decide(src, dst, ctx, tag, seq, drops) {
                FaultAction::Drop => {
                    drops += 1;
                    // Retries exhausted: the reliable link recovers
                    // where the real fabric would report `MessageLost`
                    // (same drop count as the real runtime's trace —
                    // initial attempt + `max_retries` resends).
                    if drops > plan.max_retries {
                        break FaultAction::None;
                    }
                }
                other => break other,
            }
        };
        let delay_us = match action {
            FaultAction::Delay { us } => us,
            // Duplicate/Reorder are absorbed by the in-order link.
            _ => 0,
        };
        if drops == 0 && delay_us == 0 {
            return None;
        }
        Some(FaultOutcome { drops, delay_us })
    }

    /// Charge a chaos outcome in virtual time: one retransmission round
    /// trip per dropped attempt, then the injected delay, emitting the
    /// same trace events the real fabric does (virtual timestamps).
    async fn charge_faults(&self, src: usize, dst: usize, tag: i64, f: &FaultOutcome) {
        for attempt in 0..f.drops {
            self.trace(src, || EventKind::FaultInjected {
                fault: FaultKind::Drop,
                dst: dst as u16,
                tag,
                arg: attempt as u64,
            });
            // Loss detection + resend: a full round trip on the link.
            self.sim.sleep(self.cfg.latency * 2).await;
            self.trace(src, || EventKind::RetryAttempt {
                dst: dst as u16,
                attempt: (attempt + 1) as u16,
                tag,
            });
        }
        if f.delay_us > 0 {
            self.trace(src, || EventKind::FaultInjected {
                fault: FaultKind::Delay,
                dst: dst as u16,
                tag,
                arg: f.delay_us,
            });
            self.sim.sleep(Dur::from_us_f64(f.delay_us as f64)).await;
        }
    }

    /// Take the collected trace, sorted by virtual timestamp (empties it;
    /// never-enabled worlds return an empty vector).
    pub fn take_trace(&self) -> Vec<Event> {
        let mut events = self
            .state
            .borrow_mut()
            .trace
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default();
        // Span events are recorded at completion but stamped with their
        // start time; restore timeline order.
        events.sort_by_key(|e| e.ts_ns);
        events
    }

    /// Virtual now in nanoseconds, only while tracing is enabled. Span
    /// sites capture this as the start timestamp; `None` keeps the
    /// disabled path to a single branch.
    pub(crate) fn trace_now_ns(&self) -> Option<u64> {
        if self.state.borrow().trace.is_some() {
            Some(self.sim.now().as_ps() / 1000)
        } else {
            None
        }
    }

    /// Record an instant event at virtual-now if tracing is enabled. The
    /// closure only runs when tracing is on, keeping the disabled path
    /// free.
    pub(crate) fn trace(&self, rank: usize, kind: impl FnOnce() -> EventKind) {
        let mut s = self.state.borrow_mut();
        if let Some(trace) = s.trace.as_mut() {
            let ts_ns = self.sim.now().as_ps() / 1000;
            let mut ev = kind().at(ts_ns);
            ev.rank = rank as u16;
            trace.push(ev);
        }
    }

    /// Record a span event that started at `start_ns` (from
    /// [`World::trace_now_ns`]) and ends now; the closure receives the
    /// span duration in ns. No-op when `start_ns` is `None`.
    pub(crate) fn trace_span(
        &self,
        start_ns: Option<u64>,
        rank: usize,
        kind: impl FnOnce(u64) -> EventKind,
    ) {
        let Some(t0) = start_ns else { return };
        let mut s = self.state.borrow_mut();
        if let Some(trace) = s.trace.as_mut() {
            let now = self.sim.now().as_ps() / 1000;
            let mut ev = kind(now.saturating_sub(t0)).at(t0);
            ev.rank = rank as u16;
            trace.push(ev);
        }
    }

    /// Deterministically derive a child context id. Collective creations
    /// (dup, window, partitioned init) must occur in the same order on all
    /// participating ranks, as MPI requires.
    pub(crate) fn alloc_child_ctx(&self, rank: usize, parent: u64, kind: CtxKind) -> u64 {
        let mut s = self.state.borrow_mut();
        let counter = s
            .child_counts
            .entry((rank, parent, kind as u8))
            .or_insert(0);
        let idx = *counter;
        *counter += 1;
        assert!(idx < 1 << 16, "too many child contexts");
        parent * (1 << 18) + ((kind as u64) << 16) + idx + 1
    }

    /// Round-robin VCI assignment for a new communicator/window on `rank`.
    pub(crate) fn assign_vci(&self, rank: usize) -> usize {
        let mut s = self.state.borrow_mut();
        let n = s.vci_pools[rank].len();
        let idx = s.vci_assign[rank] % n;
        s.vci_assign[rank] += 1;
        idx
    }

    /// Record a new window on `rank`; returns the total including it.
    pub(crate) fn register_window(&self, rank: usize) -> usize {
        let mut s = self.state.borrow_mut();
        s.windows[rank] += 1;
        s.windows[rank]
    }

    /// Window `win_ctx`'s put-arrival channel, created by whichever end of
    /// the window is created first.
    pub(crate) fn win_link<T>(&self, win_ctx: u64, pick: impl FnOnce(&mut WinLink) -> T) -> T {
        let mut s = self.state.borrow_mut();
        pick(s.win_links.entry(win_ctx).or_insert_with(|| {
            let (tx, rx) = channel();
            (tx, Some(rx))
        }))
    }

    /// Windows currently registered on `rank` (progress-engine load).
    pub(crate) fn windows_on(&self, rank: usize) -> usize {
        self.state.borrow().windows[rank]
    }

    /// Count of partitioned requests previously created for the (src, dst)
    /// peer pair; increments the counter (tag-space accounting).
    pub(crate) fn count_part_request(&self, src: usize, dst: usize) -> usize {
        let mut s = self.state.borrow_mut();
        let c = s.part_requests.entry((src, dst)).or_insert(0);
        let prev = *c;
        *c += 1;
        prev
    }

    /// Transmit a payload-bearing message: occupies the (src→dst) link for
    /// the wire time, then propagates for the one-way latency, then enters
    /// `dst`'s matching engine.
    pub(crate) fn transmit(&self, src: usize, dst: usize, d: Delivered) {
        let world = self.clone();
        let link = self.link(src, dst);
        let bytes = d.bytes;
        let faults = self.fault_outcome(src, dst, d.ctx, d.tag);
        self.sim.spawn(async move {
            if let Some(f) = &faults {
                world.charge_faults(src, dst, d.tag, f).await;
            }
            {
                let _g = link.acquire().await;
                world.sim.sleep(world.cfg.wire_time(bytes)).await;
            }
            world.sim.sleep(world.cfg.latency).await;
            world.deliver(dst, d);
        });
    }

    /// Transmit a small control message (RTS/CTS/0-byte sync): pure
    /// latency, no link occupancy.
    pub(crate) fn transmit_ctrl(&self, src: usize, dst: usize, d: Delivered) {
        let world = self.clone();
        let faults = self.fault_outcome(src, dst, d.ctx, d.tag);
        self.sim.spawn(async move {
            if let Some(f) = &faults {
                world.charge_faults(src, dst, d.tag, f).await;
            }
            world.sim.sleep(world.cfg.latency).await;
            world.deliver(dst, d);
        });
    }

    /// An arrival at `dst`: match or queue; finalize on match.
    pub(crate) fn deliver(&self, dst: usize, d: Delivered) {
        let engine = self.engine(dst);
        if let Some(posted) = engine.arrive(d) {
            self.finalize_match(dst, posted);
        }
    }

    /// A receive matched a message (either direction). Eager messages are
    /// complete; rendezvous arrivals start their data transfer now (the
    /// CTS goes back to the sender, then the data crosses the link).
    pub(crate) fn finalize_match(&self, dst: usize, posted: Posted) {
        let (src, bytes, rdv) = {
            let slot = posted.slot.borrow();
            let d = slot.as_ref().expect("matched slot must be filled");
            (d.src, d.bytes, d.rendezvous.clone())
        };
        match rdv {
            None => posted.ready.set(),
            Some(handle) => {
                let world = self.clone();
                let link = self.link(src, dst);
                let cts_cost = self.jitter(self.cfg.o_ctrl);
                // Span start: the match; the sender's buffer stays pinned
                // from here until the zero-copy data lands.
                let t0 = self.trace_now_ns();
                self.sim.spawn(async move {
                    // CTS travels back to the sender.
                    world.sim.sleep(cts_cost + world.cfg.latency).await;
                    // Zero-copy data transfer at full bandwidth.
                    {
                        let _g = link.acquire().await;
                        world.sim.sleep(world.cfg.wire_time(bytes)).await;
                    }
                    handle.sender_done.set();
                    world.sim.sleep(world.cfg.latency).await;
                    world.trace_span(t0, src, |wait_ns| EventKind::RdvCopy {
                        shard: 0,
                        bytes: bytes as u64,
                        wait_ns,
                    });
                    posted.ready.set();
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_simcore::sync::Signal;

    fn quiet_world(n_vcis: usize) -> (Sim, World) {
        let sim = Sim::new();
        let world = World::new(&sim, MachineConfig::meluxina_quiet(), 2, n_vcis, 1);
        (sim, world)
    }

    #[test]
    fn world_basics() {
        let (_sim, world) = quiet_world(4);
        assert_eq!(world.n_ranks(), 2);
        assert_eq!(world.n_vcis(), 4);
        let c = world.comm_world(0);
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn ctx_derivation_is_symmetric_across_ranks() {
        let (_sim, world) = quiet_world(1);
        // Both ranks derive children in the same order → same ids.
        let a1 = world.alloc_child_ctx(0, 0, CtxKind::Dup);
        let a2 = world.alloc_child_ctx(0, 0, CtxKind::Dup);
        let b1 = world.alloc_child_ctx(1, 0, CtxKind::Dup);
        let b2 = world.alloc_child_ctx(1, 0, CtxKind::Dup);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_ne!(a1, a2);
        // Different kinds never collide.
        let w = world.alloc_child_ctx(0, 0, CtxKind::Win);
        let p = world.alloc_child_ctx(0, 0, CtxKind::Part);
        assert_ne!(w, a1);
        assert_ne!(p, a1);
        assert_ne!(w, p);
    }

    #[test]
    fn vci_assignment_round_robin() {
        let (_sim, world) = quiet_world(4);
        // comm_world holds VCI 0; assignments start at 1.
        assert_eq!(world.assign_vci(0), 1);
        assert_eq!(world.assign_vci(0), 2);
        assert_eq!(world.assign_vci(0), 3);
        assert_eq!(world.assign_vci(0), 0);
        assert_eq!(world.assign_vci(0), 1);
    }

    #[test]
    fn transmit_delivers_after_wire_plus_latency() {
        let (sim, world) = quiet_world(1);
        let d = Delivered {
            src: 0,
            ctx: 0,
            tag: 5,
            bytes: 1_000_000, // 40us wire at 25 GB/s
            data: None,
            meta: 0,
            rendezvous: None,
        };
        world.transmit(0, 1, d);
        sim.run();
        assert_eq!(world.engine(1).unexpected_len(), 1);
        // 40us wire + 1.22us latency.
        assert!((sim.now().as_us_f64() - 41.22).abs() < 1e-9);
    }

    #[test]
    fn ctrl_takes_latency_only() {
        let (sim, world) = quiet_world(1);
        let d = Delivered {
            src: 0,
            ctx: 0,
            tag: crate::TAG_CTS,
            bytes: 0,
            data: None,
            meta: 0,
            rendezvous: None,
        };
        world.transmit_ctrl(0, 1, d);
        sim.run();
        assert!((sim.now().as_us_f64() - 1.22).abs() < 1e-9);
    }

    #[test]
    fn rendezvous_match_schedules_transfer() {
        let (sim, world) = quiet_world(1);
        let sender_done = Signal::new();
        let d = Delivered {
            src: 0,
            ctx: 0,
            tag: 1,
            bytes: 2_500_000, // 100us wire
            data: None,
            meta: 0,
            rendezvous: Some(crate::tag::RendezvousHandle {
                sender_done: sender_done.clone(),
            }),
        };
        // Post the receive first, then let the RTS arrive.
        let slot = Rc::new(RefCell::new(None));
        let ready = Signal::new();
        let posted = Posted {
            ctx: 0,
            src: Some(0),
            tag: Some(1),
            slot,
            ready: ready.clone(),
        };
        assert!(world.engine(1).post(posted).is_none());
        world.transmit_ctrl(0, 1, d); // RTS
        sim.run();
        assert!(sender_done.is_set());
        assert!(ready.is_set());
        // RTS latency (1.22) + CTS (o_ctrl 0.3 + 1.22) + wire 100 + latency
        // 1.22 = 103.96us.
        assert!(
            (sim.now().as_us_f64() - 103.96).abs() < 1e-6,
            "t = {}",
            sim.now().as_us_f64()
        );
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn bad_rank_rejected() {
        let (_sim, world) = quiet_world(1);
        let _ = world.comm_world(5);
    }

    /// One faulted transmission batch: returns (virtual end time in µs,
    /// chaos trace events).
    fn faulted_run(plan: FaultPlan) -> (f64, Vec<(u16, EventKind)>) {
        let (sim, world) = quiet_world(1);
        world.enable_trace();
        world.enable_faults(plan);
        for tag in 0..32 {
            let d = Delivered {
                src: 0,
                ctx: 0,
                tag,
                bytes: 4096,
                data: None,
                meta: 0,
                rendezvous: None,
            };
            world.transmit(0, 1, d);
        }
        sim.run();
        let events = world
            .take_trace()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::FaultInjected { .. } | EventKind::RetryAttempt { .. }
                )
            })
            .map(|e| (e.rank, e.kind))
            .collect();
        (sim.now().as_us_f64(), events)
    }

    #[test]
    fn seeded_faults_are_bit_for_bit_reproducible() {
        let plan = FaultPlan::seeded(42).drops(0.3).delays(0.3, 200);
        let (t_a, ev_a) = faulted_run(plan.clone());
        let (t_b, ev_b) = faulted_run(plan);
        assert!(!ev_a.is_empty(), "p=0.6 over 32 messages must inject");
        assert_eq!(ev_a, ev_b, "same seed must inject the same faults");
        assert_eq!(t_a, t_b, "virtual end time must be identical");
        // A different seed perturbs the injection sequence.
        let (_, ev_c) = faulted_run(FaultPlan::seeded(43).drops(0.3).delays(0.3, 200));
        assert_ne!(ev_a, ev_c, "seed must steer the fault stream");
    }

    #[test]
    fn drops_cost_time_but_never_lose_messages() {
        // Certain drop: every attempt is dropped, retries exhaust, yet
        // the reliable simulated link still delivers everything.
        let plan = FaultPlan::seeded(7).drops(1.0).retries(2);
        let (t, events) = faulted_run(plan);
        // 32 messages × 3 dropped attempts (initial + 2 retries) each
        // charged 2×latency before delivery.
        let drops = events
            .iter()
            .filter(|(_, k)| {
                matches!(
                    k,
                    EventKind::FaultInjected {
                        fault: FaultKind::Drop,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(drops, 32 * 3);
        // All 32 messages arrived despite 100% attempt loss.
        let (sim2, world2) = quiet_world(1);
        world2.enable_faults(FaultPlan::seeded(7).drops(1.0).retries(2));
        for tag in 0..32 {
            world2.transmit(
                0,
                1,
                Delivered {
                    src: 0,
                    ctx: 0,
                    tag,
                    bytes: 4096,
                    data: None,
                    meta: 0,
                    rendezvous: None,
                },
            );
        }
        sim2.run();
        assert_eq!(world2.engine(1).unexpected_len(), 32);
        // And the retransmissions cost virtual time (3 RTTs ≈ 7.32 µs
        // on top of the clean wire+latency path).
        assert!(t > 7.0, "retransmission must show up in virtual time: {t}");
    }

    #[test]
    fn zero_probability_plan_changes_nothing() {
        let (sim, world) = quiet_world(1);
        world.enable_faults(FaultPlan::seeded(5));
        let d = Delivered {
            src: 0,
            ctx: 0,
            tag: 5,
            bytes: 1_000_000,
            data: None,
            meta: 0,
            rendezvous: None,
        };
        world.transmit(0, 1, d);
        sim.run();
        assert_eq!(world.engine(1).unexpected_len(), 1);
        // Identical timing to `transmit_delivers_after_wire_plus_latency`.
        assert!((sim.now().as_us_f64() - 41.22).abs() < 1e-9);
    }
}
