//! One-sided (RMA) communication: windows, put, active and passive
//! synchronization.
//!
//! The model captures what the paper's RMA strategies pay for (§2.3.3):
//!
//! * `put` is cheaper to issue than a tag-matched send (no matching), but
//!   remote completion needs an ack round-trip, paid at `flush`;
//! * **active** synchronization exchanges post/complete control messages
//!   (`MPI_Post` → origin, `MPI_Complete` → target);
//! * **passive** synchronization (lock/unlock with `MPI_MODE_NOCHECK`) is
//!   local, but exposure must then be managed with explicit 0-byte
//!   messages, which the strategies in [`crate::strategies`] issue;
//! * a rank's progress engine slows down with every additional window it
//!   must progress (the `RMA many – passive` penalty of Fig. 5).

use std::cell::{Cell, RefCell};

use pcomm_simcore::sync::{channel, Receiver, Sender};
use pcomm_trace::EventKind;

use crate::comm::Comm;
use crate::p2p::Msg;
use crate::world::{CtxKind, World};
use crate::{TAG_COMPLETE, TAG_POST};

impl Comm {
    /// `MPI_Win_create`, origin side: this rank will `put` into `target`'s
    /// exposed memory of `bytes` bytes.
    ///
    /// Collective: `target` calls [`Comm::win_create_target`] on its handle
    /// of the same communicator, and both ranks create their windows in
    /// the same order (as MPI requires) so the derived contexts agree. The
    /// window is assigned the next VCI round-robin, as MPICH does.
    pub fn win_create_origin(&self, target: usize, bytes: usize) -> WinOrigin {
        let (world, ctrl) = self.win_ctrl();
        let (acks_tx, acks_rx) = channel();
        WinOrigin {
            arrivals_tx: world.win_link(ctrl.ctx(), |link| link.0.clone()),
            world,
            vci_idx: ctrl.vci_idx(),
            ctrl,
            target_rank: target,
            bytes,
            puts_in_epoch: Cell::new(0),
            acks_tx,
            acks_rx: RefCell::new(acks_rx),
        }
    }

    /// `MPI_Win_create`, target side: expose memory to `origin`'s puts.
    pub fn win_create_target(&self, origin: usize) -> WinTarget {
        let (world, ctrl) = self.win_ctrl();
        let arrivals = world.win_link(ctrl.ctx(), |link| link.1.take());
        WinTarget {
            arrivals_rx: RefCell::new(arrivals.expect("window target created twice")),
            world,
            ctrl,
            origin_rank: origin,
        }
    }

    /// This rank's share of a window creation: the window's control
    /// communicator on its own context and VCI.
    fn win_ctrl(&self) -> (World, Comm) {
        let (world, rank) = (self.world().clone(), self.rank());
        let win_ctx = world.alloc_child_ctx(rank, self.ctx(), CtxKind::Win);
        let vci = world.assign_vci(rank);
        world.register_window(rank);
        let ctrl = Comm::new(world.clone(), rank, self.size(), win_ctx, vci);
        (world, ctrl)
    }
}

/// Origin side of a window.
pub struct WinOrigin {
    world: World,
    ctrl: Comm,
    target_rank: usize,
    vci_idx: usize,
    bytes: usize,
    puts_in_epoch: Cell<u64>,
    acks_tx: Sender<()>,
    acks_rx: RefCell<Receiver<()>>,
    arrivals_tx: Sender<()>,
}

impl WinOrigin {
    /// Exposed window size.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// `MPI_Win_lock(MPI_MODE_NOCHECK)`: local bookkeeping only.
    pub async fn lock(&self) {
        let cost = self.world.jitter(self.world.config().o_win_sync);
        self.world.sim().sleep(cost).await;
    }

    /// `MPI_Win_unlock`: completes outstanding puts, then local release.
    pub async fn unlock(&self) {
        self.flush().await;
    }

    /// `MPI_Put` of `bytes` at some offset (offsets don't affect timing).
    ///
    /// Issues on the window's VCI; completes locally at injection. Remote
    /// completion is observed by [`WinOrigin::flush`].
    pub async fn put(&self, bytes: usize) {
        assert!(bytes <= self.bytes, "put exceeds window size");
        let world = &self.world;
        let cfg = world.config().clone();
        {
            let vci = world.vci(self.ctrl.rank(), self.vci_idx);
            let guard = vci.acquire().await;
            let penalty = cfg.contention_penalty(guard.waiters_behind());
            let occupancy = world.jitter(cfg.o_rma_put) + penalty;
            world.sim().sleep(occupancy).await;
        }
        self.puts_in_epoch.set(self.puts_in_epoch.get() + 1);
        let link = world.link(self.ctrl.rank(), self.target_rank);
        let arrivals = self.arrivals_tx.clone();
        let acks = self.acks_tx.clone();
        let w = world.clone();
        world.sim().spawn(async move {
            {
                let _g = link.acquire().await;
                w.sim().sleep(w.config().wire_time(bytes)).await;
            }
            w.sim().sleep(w.config().latency).await;
            arrivals.send(());
            // Remote-completion ack travels back for flush semantics.
            w.sim().sleep(w.config().latency).await;
            acks.send(());
        });
    }

    /// `MPI_Get` of `bytes`: issue on the window's VCI; data travels
    /// target→origin (wire + latency each way for the request/response).
    /// Completes at [`WinOrigin::flush`] like puts.
    pub async fn get(&self, bytes: usize) {
        assert!(bytes <= self.bytes, "get exceeds window size");
        let world = &self.world;
        let cfg = world.config().clone();
        {
            let vci = world.vci(self.ctrl.rank(), self.vci_idx);
            let guard = vci.acquire().await;
            let penalty = cfg.contention_penalty(guard.waiters_behind());
            let occupancy = world.jitter(cfg.o_rma_put) + penalty;
            world.sim().sleep(occupancy).await;
        }
        self.puts_in_epoch.set(self.puts_in_epoch.get() + 1);
        // Request travels to the target, data comes back over the reverse
        // link; completion (the "ack") is the data arrival itself.
        let link_back = world.link(self.target_rank, self.ctrl.rank());
        let arrivals = self.arrivals_tx.clone();
        let acks = self.acks_tx.clone();
        let w = world.clone();
        world.sim().spawn(async move {
            w.sim().sleep(w.config().latency).await; // request
            {
                let _g = link_back.acquire().await;
                w.sim().sleep(w.config().wire_time(bytes)).await;
            }
            w.sim().sleep(w.config().latency).await; // response
            arrivals.send(());
            acks.send(());
        });
    }

    /// `MPI_Win_flush`: wait until every put of this epoch is remotely
    /// complete. Pays the synchronization cost plus the progress-engine
    /// overhead of every *other* window this rank must keep progressing.
    // Holding the RefCell borrow across the await is intentional: the ack
    // channel has a single consumer (the window's flusher) by design, and
    // a second concurrent flush would be an API-contract violation that
    // the borrow panic surfaces loudly.
    #[allow(clippy::await_holding_refcell_ref)]
    pub async fn flush(&self) {
        let cfg = self.world.config().clone();
        let others = self.world.windows_on(self.ctrl.rank()).saturating_sub(1);
        let cost = self.world.jitter(cfg.o_win_sync) + cfg.o_progress_per_object * others as u64;
        self.world.sim().sleep(cost).await;
        let n = self.puts_in_epoch.replace(0);
        let mut rx = self.acks_rx.borrow_mut();
        for _ in 0..n {
            rx.recv().await.expect("ack channel lives with the window");
        }
    }

    /// Active sync: `MPI_Win_start` — wait for the target's post.
    pub async fn start_epoch(&self) {
        let cost = self.world.jitter(self.world.config().o_win_sync);
        self.world.sim().sleep(cost).await;
        let t0 = self.world.trace_now_ns();
        self.ctrl.recv(Some(self.target_rank), Some(TAG_POST)).await;
        let win = (self.ctrl.ctx() & 0xffff) as u16;
        self.world
            .trace_span(t0, self.ctrl.rank(), |wait_ns| EventKind::EpochOpen {
                win,
                wait_ns,
            });
    }

    /// Active sync: `MPI_Win_complete` — notify the target how many puts
    /// to expect and close the access epoch.
    pub async fn complete_epoch(&self) {
        let cost = self.world.jitter(self.world.config().o_win_sync);
        self.world.sim().sleep(cost).await;
        let n = self.puts_in_epoch.replace(0);
        self.ctrl
            .send(self.target_rank, TAG_COMPLETE, Msg::ctrl(n))
            .await;
        let win = (self.ctrl.ctx() & 0xffff) as u16;
        self.world
            .trace(self.ctrl.rank(), || EventKind::EpochClose { win, puts: n });
    }
}

/// Target side of a window.
pub struct WinTarget {
    world: World,
    ctrl: Comm,
    origin_rank: usize,
    arrivals_rx: RefCell<Receiver<()>>,
}

impl WinTarget {
    /// Active sync: `MPI_Post` — expose the window to the origin.
    pub async fn post(&self) {
        let cost = self.world.jitter(self.world.config().o_win_sync);
        self.world.sim().sleep(cost).await;
        self.ctrl
            .send(self.origin_rank, TAG_POST, Msg::ctrl(0))
            .await;
    }

    /// Active sync: `MPI_Win_wait` — wait for the origin's complete
    /// notification and for all announced puts to have landed.
    // Single consumer by design; see flush() above.
    #[allow(clippy::await_holding_refcell_ref)]
    pub async fn wait_epoch(&self) {
        let d = self
            .ctrl
            .recv(Some(self.origin_rank), Some(TAG_COMPLETE))
            .await;
        let mut rx = self.arrivals_rx.borrow_mut();
        for _ in 0..d.meta {
            rx.recv().await.expect("arrival channel lives with window");
        }
        drop(rx);
        let cost = self.world.jitter(self.world.config().o_win_sync);
        self.world.sim().sleep(cost).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_netmodel::MachineConfig;
    use pcomm_simcore::{Dur, Sim};
    use std::rc::Rc;

    fn setup() -> (Sim, World) {
        let sim = Sim::new();
        let world = World::new(&sim, MachineConfig::meluxina_quiet(), 2, 4, 1);
        (sim, world)
    }

    fn create_win(origin: &Comm, target: &Comm, bytes: usize) -> (WinOrigin, WinTarget) {
        let wo = origin.win_create_origin(target.rank(), bytes);
        (wo, target.win_create_target(origin.rank()))
    }

    #[test]
    fn put_flush_roundtrip_time() {
        let (sim, world) = setup();
        let (wo, _wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1 << 20);
        let done = sim.spawn(async move {
            wo.put(1024).await;
            wo.flush().await;
            wo.world.sim().now()
        });
        sim.run();
        let t = done.try_take().unwrap().as_us_f64();
        // Put issues at 0.25; data + ack: wire(1024B)=0.041 + 2*1.22.
        // Flush CPU: 0.25 + progress for the peer's window count... this
        // rank has 1 window → no extra. Ack path dominates.
        let ack_at = 0.25 + 1024.0 / 25e9 * 1e6 + 2.44;
        assert!((t - ack_at).abs() < 1e-2, "t = {t}, expect {ack_at}");
    }

    #[test]
    fn flush_waits_for_all_puts() {
        let (sim, world) = setup();
        let (wo, _wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1 << 24);
        let done = sim.spawn(async move {
            for _ in 0..4 {
                wo.put(2_500_000).await; // 100us wire each
            }
            wo.flush().await;
            wo.world.sim().now()
        });
        sim.run();
        let t = done.try_take().unwrap().as_us_f64();
        // Four serialized 100us transfers on the link dominate.
        assert!(t > 400.0, "flush returned before transfers done: {t}");
        assert!(t < 410.0, "flush too slow: {t}");
    }

    #[test]
    fn get_round_trip_time() {
        let (sim, world) = setup();
        let (wo, _wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1 << 22);
        let done = sim.spawn(async move {
            wo.get(2_500_000).await; // 100us wire
            wo.flush().await;
            wo.world.sim().now()
        });
        sim.run();
        let t = done.try_take().unwrap().as_us_f64();
        // o_rma_put 0.25 + latency 1.22 + wire 100 + latency 1.22.
        let expect = 0.25 + 1.22 + 100.0 + 1.22;
        assert!((t - expect).abs() < 0.1, "t = {t}, expect {expect}");
    }

    #[test]
    fn active_epoch_synchronizes() {
        let (sim, world) = setup();
        let (wo, wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1 << 20);
        let wo = Rc::new(wo);
        let wt = Rc::new(wt);
        let target_done = sim.spawn({
            let wt = Rc::clone(&wt);
            async move {
                wt.post().await;
                wt.wait_epoch().await;
                wt.world.sim().now()
            }
        });
        let origin_done = sim.spawn({
            let wo = Rc::clone(&wo);
            async move {
                wo.start_epoch().await;
                wo.put(65536).await;
                wo.complete_epoch().await;
                wo.world.sim().now()
            }
        });
        sim.run();
        let t_t = target_done.try_take().unwrap().as_us_f64();
        let t_o = origin_done.try_take().unwrap().as_us_f64();
        assert!(t_t > 0.0 && t_o > 0.0);
        // Target completes after the put landed AND the complete ctrl came.
        let wire = 65536.0 / 25e9 * 1e6;
        assert!(t_t > wire, "target finished before data landed: {t_t}");
    }

    #[test]
    fn start_epoch_blocks_until_post() {
        let (sim, world) = setup();
        let (wo, wt) = create_win(&world.comm_world(0), &world.comm_world(1), 4096);
        let started_at = sim.spawn(async move {
            wo.start_epoch().await;
            wo.world.sim().now()
        });
        sim.spawn(async move {
            wt.world.sim().sleep(Dur::from_us(50)).await;
            wt.post().await;
        });
        sim.run();
        let t = started_at.try_take().unwrap().as_us_f64();
        assert!(t > 50.0, "start returned before post: {t}");
    }

    #[test]
    fn epochs_are_reusable() {
        let (sim, world) = setup();
        let (wo, wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1 << 16);
        let wo = Rc::new(wo);
        let wt = Rc::new(wt);
        let iters = sim.spawn({
            let wt = Rc::clone(&wt);
            async move {
                for _ in 0..5 {
                    wt.post().await;
                    wt.wait_epoch().await;
                }
                5
            }
        });
        sim.spawn({
            let wo = Rc::clone(&wo);
            async move {
                for _ in 0..5 {
                    wo.start_epoch().await;
                    wo.put(4096).await;
                    wo.put(4096).await;
                    wo.complete_epoch().await;
                }
            }
        });
        sim.run();
        assert_eq!(iters.try_take().unwrap(), 5);
    }

    #[test]
    fn progress_overhead_grows_with_windows() {
        // Same flush on a rank with 1 vs 4 windows: extra windows slow the
        // progress engine (the RMA many-passive effect of Fig. 5).
        fn flush_time(extra_windows: usize) -> f64 {
            let (sim, world) = setup();
            let mut keep = Vec::new();
            for _ in 0..extra_windows {
                keep.push(create_win(&world.comm_world(0), &world.comm_world(1), 1024));
            }
            let (wo, _wt) = create_win(&world.comm_world(0), &world.comm_world(1), 1024);
            let done = sim.spawn(async move {
                // Enough puts that the flush CPU cost is on the critical
                // path only via the progress term.
                wo.put(64).await;
                wo.flush().await;
                // Second flush with no pending acks: pure CPU cost.
                wo.flush().await;
                wo.world.sim().now()
            });
            sim.run();
            done.try_take().unwrap().as_us_f64()
        }
        let lone = flush_time(0);
        let crowded = flush_time(3);
        assert!(crowded > lone, "crowded {crowded} <= lone {lone}");
    }

    #[test]
    #[should_panic(expected = "put exceeds window size")]
    fn oversized_put_rejected() {
        let (sim, world) = setup();
        let (wo, _wt) = create_win(&world.comm_world(0), &world.comm_world(1), 16);
        sim.block_on(async move {
            wo.put(1024).await;
        });
    }
}
