//! The benchmark template of the paper's Fig. 3, driving any of the eight
//! strategies over a parameterized scenario.
//!
//! Per iteration: both ranks synchronize (benchmark artifact, zero cost),
//! the sender performs its `start` operation and thread barrier, threads
//! compute (sleep until their partitions' ready times) and issue their
//! `ready` operations, a final barrier precedes the master's `wait`; the
//! iteration's *time-to-solution* runs until the receiver completes its
//! `wait`. The compute time (`max_delay`) is subtracted, yielding the
//! communication-only overhead the paper reports (§2.1).

use std::cell::RefCell;
use std::rc::Rc;

use pcomm_netmodel::MachineConfig;
use pcomm_simcore::sync::Barrier;
use pcomm_simcore::{Dur, Sim, SimTime};

use crate::strategies;
use crate::world::World;

/// The eight strategies and their op tables (paper Tables 1–2) are defined
/// once, in the runtime crate; this template interprets the same rows.
pub use pcomm_core::strategies::Approach;

/// A benchmark scenario: the knobs of the paper's figures.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// OpenMP threads per rank (N).
    pub n_threads: usize,
    /// Partitions per thread (θ).
    pub theta: usize,
    /// Bytes per partition (S_part).
    pub part_bytes: usize,
    /// Aggregation bound for the improved partitioned path
    /// (`MPIR_CVAR_PART_AGGR_SIZE`); `None` disables aggregation.
    pub aggr_size: Option<usize>,
    /// Ready time of each partition, measured from the compute start
    /// (length `n_threads·theta`). See `pcomm_workloads::DelaySchedule`.
    pub delays: Vec<Dur>,
    /// Iterations to run (including any warm-up the caller discards).
    pub iterations: usize,
    /// Ablation: defer partitioned sends to `wait()` (no early-bird).
    pub defer_sends: bool,
    /// Use an MPIX_Stream-style thread hint for partition→VCI mapping
    /// instead of the default round-robin-by-message attribution.
    pub thread_hint: bool,
    /// Assign partitions to threads in contiguous blocks (`thread t` owns
    /// partitions `[t·θ, (t+1)·θ)`) instead of round-robin — the user
    /// layout §3.2.2 says the default VCI attribution is "likely to
    /// break" for.
    pub block_assignment: bool,
}

impl Scenario {
    /// A delay-free scenario (Figs. 4–7 style).
    pub fn immediate(
        n_threads: usize,
        theta: usize,
        part_bytes: usize,
        iterations: usize,
    ) -> Scenario {
        Scenario {
            n_threads,
            theta,
            part_bytes,
            aggr_size: None,
            delays: vec![Dur::ZERO; n_threads * theta],
            iterations,
            defer_sends: false,
            thread_hint: false,
            block_assignment: false,
        }
    }

    /// Total number of partitions (N·θ).
    pub fn n_parts(&self) -> usize {
        self.n_threads * self.theta
    }

    /// Total buffer size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.n_parts() * self.part_bytes
    }

    /// The compute delay subtracted from the measured time.
    pub fn max_delay(&self) -> Dur {
        self.delays.iter().copied().max().unwrap_or(Dur::ZERO)
    }

    /// The thread owning partition `p` under this scenario's assignment.
    pub fn thread_of_partition(&self, p: usize) -> usize {
        if self.block_assignment {
            p / self.theta
        } else {
            p % self.n_threads
        }
    }

    /// The (partition, ready-time) pairs thread `t` processes, in order.
    pub fn parts_of_thread(&self, t: usize) -> Vec<(usize, Dur)> {
        (0..self.theta)
            .map(|j| {
                let p = if self.block_assignment {
                    t * self.theta + j
                } else {
                    t + j * self.n_threads
                };
                (p, self.delays[p])
            })
            .collect()
    }

    /// Check internal consistency; panics on malformed scenarios.
    pub fn validate(&self) {
        assert!(self.n_threads >= 1, "need at least one thread");
        assert!(self.theta >= 1, "need at least one partition per thread");
        assert!(self.part_bytes >= 1, "empty partitions not supported");
        assert!(self.iterations >= 1, "need at least one iteration");
        assert_eq!(
            self.delays.len(),
            self.n_parts(),
            "delays must cover every partition"
        );
    }
}

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

/// Run one scenario under one strategy on a fresh simulated machine.
///
/// Returns the per-iteration communication overhead (time-to-solution
/// minus compute delay), in iteration order. Fully deterministic in
/// `(cfg, n_vcis, seed, approach, scenario)`.
pub fn run_scenario(
    cfg: &MachineConfig,
    n_vcis: usize,
    seed: u64,
    approach: Approach,
    sc: &Scenario,
) -> Vec<Dur> {
    sc.validate();
    let sim = Sim::new();
    let world = World::new(&sim, cfg.clone(), 2, n_vcis, seed);
    let rec = Recorder::new();
    strategies::spawn(&world, approach.table(), sc, &rec);
    sim.run();
    let times = rec.into_times(sc.max_delay());
    assert_eq!(times.len(), sc.iterations, "lost iterations");
    times
}

/// Like [`run_scenario`], but with analysis-grade `Verify*` emission on
/// and an optional chaos plan steering the interleaving. Returns the
/// per-iteration overheads plus the collected trace, ready for
/// [`pcomm_verify::analyze`]. The [`crate::explore`] module drives this
/// over a seed sweep.
pub fn run_scenario_verified(
    cfg: &MachineConfig,
    n_vcis: usize,
    seed: u64,
    approach: Approach,
    sc: &Scenario,
    plan: Option<pcomm_trace::FaultPlan>,
) -> (Vec<Dur>, Vec<pcomm_trace::Event>) {
    sc.validate();
    let sim = Sim::new();
    let world = World::new(&sim, cfg.clone(), 2, n_vcis, seed);
    world.enable_verify();
    if let Some(plan) = plan {
        world.enable_faults(plan);
    }
    let rec = Recorder::new();
    strategies::spawn(&world, approach.table(), sc, &rec);
    sim.run();
    let times = rec.into_times(sc.max_delay());
    assert_eq!(times.len(), sc.iterations, "lost iterations");
    (times, world.take_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_accessors() {
        let sc = Scenario::immediate(4, 2, 1024, 10);
        assert_eq!(sc.n_parts(), 8);
        assert_eq!(sc.total_bytes(), 8192);
        assert_eq!(sc.max_delay(), Dur::ZERO);
        assert_eq!(sc.parts_of_thread(1), vec![(1, Dur::ZERO), (5, Dur::ZERO)]);
        sc.validate();
    }

    #[test]
    fn max_delay_is_max() {
        let mut sc = Scenario::immediate(2, 2, 64, 1);
        sc.delays = vec![Dur::ZERO, Dur::from_us(3), Dur::from_us(7), Dur::from_us(5)];
        assert_eq!(sc.max_delay(), Dur::from_us(7));
    }

    #[test]
    #[should_panic(expected = "delays must cover")]
    fn validate_catches_bad_delays() {
        let mut sc = Scenario::immediate(2, 2, 64, 1);
        sc.delays.pop();
        sc.validate();
    }

    #[test]
    fn approach_labels_match_paper() {
        let labels: Vec<&str> = Approach::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Pt2Pt part",
                "Pt2Pt part - old",
                "Pt2Pt single",
                "Pt2Pt many",
                "RMA single - passive",
                "RMA many - passive",
                "RMA single - active",
                "RMA many - active",
            ]
        );
    }

    #[test]
    fn op_tables_are_complete() {
        for a in Approach::ALL {
            let s = a.sender_ops();
            let r = a.receiver_ops();
            assert!(!s[0].is_empty(), "{a:?} sender init must not be empty");
            assert!(!r[0].is_empty(), "{a:?} receiver init must not be empty");
        }
        // Spot-check against the paper's tables.
        assert_eq!(Approach::PtpPart.sender_ops()[2], "MPI_Pready");
        assert_eq!(
            Approach::RmaManyPassive.sender_ops()[2],
            "MPI_Put MPI_Win_flush"
        );
        assert_eq!(Approach::RmaSingleActive.receiver_ops()[1], "MPI_Post");
    }
}
