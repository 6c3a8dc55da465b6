//! The Fig. 3 benchmark template on the simulated runtime.
//!
//! The eight strategies are the rows of `pcomm_core::strategies` (paper
//! Tables 1–2). This module interprets a row in virtual time: one task per
//! rank (`rank_task`) runs the template, one task per OpenMP thread
//! (`worker`) runs the `ready` column, and `Rank::init` / `Rank::exec` bind
//! each op to the simulated MPI.

use std::rc::Rc;

use pcomm_core::strategies::{Op, Strategy, NOTIFY_TAG, RECEIVER, SENDER};
use pcomm_simcore::{Dur, SimTime};

use crate::comm::Comm;
use crate::p2p::{Msg, PersistentRecv, PersistentSend};
use crate::part::PartPath::{Improved, LegacyAm};
use crate::part::{precv_init, psend_init, PartOptions, PrecvRequest, PsendRequest};
use crate::rma::{WinOrigin, WinTarget};
use crate::scenario::{Recorder, Scenario};
use crate::world::World;

/// Spawn the sender and receiver rank tasks for one table row.
pub(crate) fn spawn(world: &World, row: &'static Strategy, sc: &Scenario, rec: &Recorder) {
    for role in [SENDER, RECEIVER] {
        let rank = Rank {
            row,
            sc: sc.clone(),
            role,
            parent: world.comm_world(role),
            comms: Vec::new(),
            reqs: Vec::new(),
            origins: Vec::new(),
            targets: Vec::new(),
        };
        world.sim().spawn(rank_task(rank, rec.clone()));
    }
}

/// The template over one side of a row: init, then per iteration the
/// inter-rank barrier → start ops → N thread tasks issuing the ready ops
/// → wait ops; the receiver's last wait op ends the timed iteration.
async fn rank_task(mut rank: Rank, rec: Recorder) {
    let (row, role, n_threads) = (rank.row, rank.role, rank.sc.n_threads);
    let (side, world) = (&row.sides[role], rank.parent.world().clone());
    for slot in 0..if row.many { n_threads } else { 1 } {
        for op in row.init_ops(role) {
            rank.init(op, slot).await;
        }
    }
    let (rank, sim) = (Rc::new(rank), world.sim());
    // The receiver has no compute: it needs threads only for ready ops.
    let threaded = role == SENDER || side.needs_threads();
    // The OpenMP barrier between the master's ops and the parallel region
    // costs time only where the master has ops in that column.
    let omp_barrier = || sim.sleep(world.jitter(world.config().barrier_cost(n_threads)));
    for _ in 0..rank.sc.iterations {
        rec.begin(sim).await;
        for &op in side.start {
            rank.exec(op, 0, 0, &[]).await;
        }
        if threaded && !side.start.is_empty() {
            omp_barrier().await;
        }
        if threaded {
            let t0 = sim.now();
            let spawn = |t| sim.spawn(worker(Rc::clone(&rank), t, t0));
            for thread in (0..n_threads).map(spawn).collect::<Vec<_>>() {
                thread.await;
            }
        }
        if threaded && !side.wait.is_empty() {
            omp_barrier().await;
        }
        for &op in side.wait {
            rank.exec(op, 0, 0, &[]).await;
        }
        if role == RECEIVER {
            rec.end(sim.now());
        }
    }
}

/// Thread `t` of the parallel region: sleep until each of its partitions
/// is ready (sender only), issuing the `ready` column around them.
async fn worker(rank: Rc<Rank>, t: usize, t0: SimTime) {
    let (side, sc) = (&rank.row.sides[rank.role], &rank.sc);
    let ready = |j| {
        let p = sc.partition(t, j);
        (p, Dur::from_us_f64(sc.delays_us[p]))
    };
    let parts: Vec<(usize, Dur)> = (0..sc.theta).map(ready).collect();
    for &op in side.thread_begin {
        rank.exec(op, t, 0, &[]).await;
    }
    let mut j = 0;
    while j < parts.len() {
        let at = parts[j].1;
        if rank.role == SENDER {
            rank.parent.world().sim().sleep_until(t0 + at).await;
        }
        // A lone `Pready` covers every partition that became ready at the
        // same instant as one `pready_list` batch: timed like one call
        // per partition, but a unit the chaos pready jitter can permute,
        // which is what the verify layer's schedule exploration drives.
        let same_instant = parts[j..].iter().take_while(|(_, r)| *r == at).count();
        let lone_pready = side.per_partition == [Op::Pready];
        let n = if lone_pready { same_instant } else { 1 };
        let batch: Vec<usize> = parts[j..j + n].iter().map(|(p, _)| *p).collect();
        for &op in side.per_partition {
            rank.exec(op, t, j, &batch).await;
        }
        j += n;
    }
    for &op in side.thread_end {
        rank.exec(op, t, 0, &[]).await;
    }
}

/// A request of either kind, so `Start` / `Wait` need not know which.
enum Req {
    Psend(PsendRequest),
    Precv(PrecvRequest),
    Send(PersistentSend),
    Recv(PersistentRecv),
}

/// One rank's objects on the simulated runtime: built slot by slot by the
/// init column, then shared by the thread tasks of every iteration.
struct Rank {
    row: &'static Strategy,
    sc: Scenario,
    role: usize,
    parent: Comm,
    /// Slot → duplicated communicator; a slot without one uses `parent`.
    comms: Vec<Comm>,
    /// Slot → its requests, in the order of the slot's partitions.
    reqs: Vec<Vec<Req>>,
    origins: Vec<WinOrigin>,
    targets: Vec<WinTarget>,
}

impl Rank {
    /// One op of the init column, for `slot`.
    async fn init(&mut self, op: Op, slot: usize) {
        let (sc, peer, legacy) = (&self.sc, 1 - self.role, self.row.legacy);
        let (n, bytes) = (sc.n_parts(), sc.part_bytes);
        let comm = self.comms.get(slot).unwrap_or(&self.parent).clone();
        // The partitioned request's options, identical on both sides.
        let opts = PartOptions {
            aggr_size: sc.aggr_size.filter(|_| !legacy),
            path: if legacy { LegacyAm } else { Improved },
            defer_sends: sc.defer_sends,
            ..PartOptions::default()
        };
        let messages = self.row.messages(sc, slot).into_iter();
        match op {
            Op::CommDup => self.comms.push(self.parent.dup()),
            Op::PsendInit => {
                let req = psend_init(&comm, peer, 0, n, bytes, n, opts);
                self.reqs.push(vec![Req::Psend(req)]);
            }
            Op::PrecvInit => {
                let req = precv_init(&comm, peer, 0, n, n, bytes, opts);
                self.reqs.push(vec![Req::Precv(req)]);
            }
            Op::SendInit => {
                let send = |(first, k)| Req::Send(comm.send_init(peer, first as i64, k * bytes));
                self.reqs.push(messages.map(send).collect());
            }
            Op::RecvInit => {
                let recv = |(first, _)| Req::Recv(comm.recv_init(peer, first as i64));
                self.reqs.push(messages.map(recv).collect());
            }
            Op::WinCreate if self.role == SENDER => {
                let win = comm.win_create_origin(peer, sc.total_bytes());
                self.origins.push(win);
            }
            Op::WinCreate => self.targets.push(comm.win_create_target(peer)),
            Op::WinLock => self.origins[slot].lock().await,
            _ => unreachable!("{op:?} is not an init op"),
        }
    }

    /// One op of the start / ready / wait columns, executed by thread `t`
    /// (the master is thread 0) at its `j`-th partition; `batch` holds the
    /// partitions a `Pready` covers.
    async fn exec(&self, op: Op, t: usize, j: usize, batch: &[usize]) {
        let (slot, peer) = (if self.row.many { t } else { 0 }, 1 - self.role);
        let comm = self.comms.get(slot).unwrap_or(&self.parent);
        match op {
            Op::Start => match &self.reqs[slot][j] {
                Req::Psend(r) => r.start().await,
                Req::Precv(r) => r.start().await,
                Req::Send(r) => r.start().await,
                Req::Recv(r) => r.start().await,
            },
            Op::Wait => match &self.reqs[slot][j] {
                Req::Psend(r) => r.wait().await,
                Req::Precv(r) => r.wait().await,
                Req::Send(r) => r.wait().await,
                Req::Recv(r) => drop(r.wait().await),
            },
            Op::Pready => match &self.reqs[slot][0] {
                Req::Psend(r) => r.pready_list(batch).await,
                _ => unreachable!("Pready without PsendInit"),
            },
            Op::Parrived => {}
            Op::Put => self.origins[slot].put(self.sc.part_bytes).await,
            Op::WinFlush => self.origins[slot].flush().await,
            Op::Notify => comm.send(peer, NOTIFY_TAG[self.role], Msg::ctrl(0)).await,
            Op::AwaitNotify => drop(comm.recv(Some(peer), Some(NOTIFY_TAG[peer])).await),
            Op::EpochStart => self.origins[slot].start_epoch().await,
            Op::EpochComplete => self.origins[slot].complete_epoch().await,
            Op::Post => {
                for win in &self.targets {
                    win.post().await;
                }
            }
            Op::EpochWait => {
                for win in &self.targets {
                    win.wait_epoch().await;
                }
            }
            _ => unreachable!("{op:?} is an init op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, Approach};
    use pcomm_netmodel::MachineConfig;

    fn quiet() -> MachineConfig {
        MachineConfig::meluxina_quiet()
    }

    /// Every strategy completes a small scenario and yields plausible
    /// per-iteration times.
    #[test]
    fn all_strategies_run_to_completion() {
        let sc = Scenario::immediate(2, 1, 1024, 2, 4);
        for a in Approach::ALL {
            let times = run_scenario(&quiet(), 1, a, &sc);
            assert_eq!(times.len(), 4, "{a:?}");
            for t in &times {
                assert!(
                    t.as_us_f64() > 0.5 && t.as_us_f64() < 1000.0,
                    "{a:?}: implausible time {t}"
                );
            }
        }
    }

    /// With no delay and quiet config, iterations after the first are
    /// identical (steady state).
    #[test]
    fn steady_state_is_deterministic() {
        let sc = Scenario::immediate(4, 1, 512, 1, 6);
        for a in Approach::ALL {
            let times = run_scenario(&quiet(), 1, a, &sc);
            let tail = &times[1..];
            for w in tail.windows(2) {
                assert_eq!(w[0], w[1], "{a:?}: unstable steady state {times:?}");
            }
        }
    }

    /// Fig. 4's headline comparison at N=1, θ=1: the improved partitioned
    /// path matches Pt2Pt single closely, the legacy AM path is slower.
    #[test]
    fn fig4_shape_single_thread() {
        for bytes in [512usize, 4096, 1 << 20] {
            let sc = Scenario::immediate(1, 1, bytes, 1, 3);
            let t = |a: Approach| run_scenario(&quiet(), 1, a, &sc)[2].as_us_f64();
            let part = t(Approach::PtpPart);
            let old = t(Approach::PtpPartOld);
            let single = t(Approach::PtpSingle);
            assert!(
                old > part,
                "{bytes}B: legacy {old} should exceed improved {part}"
            );
            assert!(
                (part - single).abs() / single < 0.5,
                "{bytes}B: part {part} should be close to single {single}"
            );
        }
    }

    /// RMA passive approaches pay extra synchronization at small sizes.
    #[test]
    fn rma_slower_than_ptp_at_small_sizes() {
        let sc = Scenario::immediate(1, 1, 256, 1, 3);
        let t = |a: Approach| run_scenario(&quiet(), 1, a, &sc)[2].as_us_f64();
        let single = t(Approach::PtpSingle);
        for a in [
            Approach::RmaSinglePassive,
            Approach::RmaManyPassive,
            Approach::RmaSingleActive,
            Approach::RmaManyActive,
        ] {
            assert!(
                t(a) > single,
                "{a:?} should be slower than Pt2Pt single at 256B"
            );
        }
    }

    /// Thread contention (Fig. 5): with one VCI and many threads, the
    /// multithreaded strategies are far slower than the single-message
    /// one; with per-thread VCIs (Fig. 6) the gap collapses.
    #[test]
    fn contention_and_vci_relief() {
        let sc = |v| Scenario::immediate(16, 1, 512, v, 3);
        let run = |a: Approach, v: usize| run_scenario(&quiet(), 1, a, &sc(v))[2].as_us_f64();
        let single_1 = run(Approach::PtpSingle, 1);
        let many_1 = run(Approach::PtpMany, 1);
        let many_16 = run(Approach::PtpMany, 16);
        let part_1 = run(Approach::PtpPart, 1);
        let part_16 = run(Approach::PtpPart, 16);
        assert!(
            many_1 / single_1 > 5.0,
            "contention penalty too small: many/single = {}",
            many_1 / single_1
        );
        assert!(
            many_16 < many_1 / 3.0,
            "VCIs should relieve contention: {many_16} vs {many_1}"
        );
        assert!(part_16 < part_1, "partitioned also benefits from VCIs");
    }

    /// Message aggregation (Fig. 7): fewer messages → lower overhead for
    /// small partitions.
    #[test]
    fn aggregation_reduces_overhead() {
        let mut sc = Scenario::immediate(4, 8, 512, 1, 3);
        let no_aggr = run_scenario(&quiet(), 1, Approach::PtpPart, &sc)[2];
        sc.aggr_size = Some(8192);
        let aggr = run_scenario(&quiet(), 1, Approach::PtpPart, &sc)[2];
        assert!(
            aggr.as_us_f64() < no_aggr.as_us_f64() / 2.0,
            "aggregation: {aggr} vs {no_aggr}"
        );
    }

    /// Early-bird effect (Fig. 8): with a large delayed last partition,
    /// the pipelined partitioned send beats the bulk single send.
    #[test]
    fn early_bird_gain_at_large_sizes() {
        let part_bytes = 4 << 20; // 4 MiB per partition
        let gamma = 1e-10; // 100 µs/MB
        let delay = Dur::from_secs_f64(gamma * part_bytes as f64);
        let mut sc = Scenario::immediate(4, 1, part_bytes, 1, 3);
        sc.delays_us[3] = delay.as_us_f64();
        let t_part = run_scenario(&quiet(), 1, Approach::PtpPart, &sc)[2].as_us_f64();
        let t_single = run_scenario(&quiet(), 1, Approach::PtpSingle, &sc)[2].as_us_f64();
        let gain = t_single / t_part;
        // Theory: η = 4 / (4 − γβ) = 2.67; latency and contention shave it.
        assert!(
            gain > 1.8 && gain < 2.8,
            "early-bird gain {gain} out of expected band"
        );
    }

    /// The early-bird gain is approach-agnostic for large messages
    /// (paper §4.3): Pt2Pt many and RMA variants see it too.
    #[test]
    fn early_bird_gain_is_approach_agnostic() {
        let part_bytes = 4 << 20;
        let delay = Dur::from_secs_f64(1e-10 * part_bytes as f64);
        let mut sc = Scenario::immediate(4, 1, part_bytes, 1, 3);
        sc.delays_us[3] = delay.as_us_f64();
        let t_single = run_scenario(&quiet(), 1, Approach::PtpSingle, &sc)[2].as_us_f64();
        for a in [Approach::PtpMany, Approach::RmaSinglePassive] {
            let t = run_scenario(&quiet(), 1, a, &sc)[2].as_us_f64();
            let gain = t_single / t;
            assert!(gain > 1.8, "{a:?}: gain {gain} too small");
        }
    }
}
