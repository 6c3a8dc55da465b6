//! The benchmark template of the paper's Fig. 3, driving any of the eight
//! strategies over a [`Scenario`] — the runtime crate's, so one scenario
//! runs in both worlds. Here its `shards` are the VCIs per rank and its
//! µs ready times become virtual time through `Dur::from_us_f64`.
//!
//! Per iteration: both ranks synchronize (benchmark artifact, zero cost),
//! the sender performs its `start` operation and thread barrier, threads
//! compute (sleep until their partitions' ready times) and issue their
//! `ready` operations, a final barrier precedes the master's `wait`; the
//! iteration's *time-to-solution* runs until the receiver completes its
//! `wait`. The compute time (`max_delay_us`) is subtracted, yielding the
//! communication-only overhead the paper reports (§2.1).

use std::cell::RefCell;
use std::rc::Rc;

use pcomm_netmodel::MachineConfig;
use pcomm_simcore::sync::Barrier;
use pcomm_simcore::{Dur, Sim, SimTime};
use pcomm_trace::{Event, FaultPlan};

use crate::strategies;
use crate::world::World;

/// The eight strategies and their op tables (paper Tables 1–2), and the
/// scenario they run over, are defined once, in the runtime crate; this
/// template interprets the same rows over the same scenarios.
pub use pcomm_core::strategies::{Approach, Scenario};

/// Records per-iteration start/end timestamps; the inter-rank iteration
/// barrier is a benchmark artifact with no modeled cost.
#[derive(Clone)]
pub(crate) struct Recorder {
    barrier: Barrier,
    starts: Rc<RefCell<Vec<SimTime>>>,
    ends: Rc<RefCell<Vec<SimTime>>>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            barrier: Barrier::new(2),
            starts: Rc::new(RefCell::new(Vec::new())),
            ends: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Both ranks call this at the top of every iteration; the leader (the
    /// later arrival) records the iteration start time.
    pub(crate) async fn begin(&self, sim: &Sim) {
        let r = self.barrier.wait().await;
        if r.is_leader {
            self.starts.borrow_mut().push(sim.now());
        }
    }

    /// The receiver calls this once its `wait` completed.
    pub(crate) fn end(&self, now: SimTime) {
        self.ends.borrow_mut().push(now);
    }

    fn into_times(self, max_delay: Dur) -> Vec<Dur> {
        let starts = self.starts.borrow();
        let ends = self.ends.borrow();
        assert_eq!(starts.len(), ends.len(), "unbalanced iteration records");
        starts
            .iter()
            .zip(ends.iter())
            .map(|(s, e)| e.since(*s).saturating_sub(max_delay))
            .collect()
    }
}

/// Run one scenario under one strategy on a fresh simulated machine with
/// `sc.shards` VCIs per rank.
///
/// Returns the per-iteration communication overhead (time-to-solution
/// minus compute delay), in iteration order. Fully deterministic in
/// `(cfg, seed, approach, scenario)`.
pub fn run_scenario(cfg: &MachineConfig, seed: u64, approach: Approach, sc: &Scenario) -> Vec<Dur> {
    run(cfg, seed, approach, sc, |_| {}).0
}

/// Like [`run_scenario`], but with analysis-grade `Verify*` emission on
/// and an optional chaos plan steering the interleaving. Returns the
/// per-iteration overheads plus the collected trace, ready for
/// [`pcomm_verify::analyze`]. The [`crate::explore`] module drives this
/// over a seed sweep.
pub fn run_scenario_verified(
    cfg: &MachineConfig,
    seed: u64,
    approach: Approach,
    sc: &Scenario,
    plan: Option<FaultPlan>,
) -> (Vec<Dur>, Vec<Event>) {
    run(cfg, seed, approach, sc, |world| {
        world.enable_verify();
        if let Some(plan) = plan {
            world.enable_faults(plan);
        }
    })
}

/// The body of both: `arm` configures the world before the ranks spawn.
fn run(
    cfg: &MachineConfig,
    seed: u64,
    approach: Approach,
    sc: &Scenario,
    arm: impl FnOnce(&World),
) -> (Vec<Dur>, Vec<Event>) {
    sc.validate();
    let sim = Sim::new();
    let world = World::new(&sim, cfg.clone(), 2, sc.shards, seed);
    arm(&world);
    let rec = Recorder::new();
    strategies::spawn(&world, approach.table(), sc, &rec);
    sim.run();
    let times = rec.into_times(Dur::from_us_f64(sc.max_delay_us()));
    assert_eq!(times.len(), sc.iterations, "lost iterations");
    (times, world.take_trace())
}
