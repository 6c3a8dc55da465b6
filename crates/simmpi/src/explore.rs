//! Bounded schedule exploration: replay one scenario under N seeded
//! pready-jitter permutations and run the full verification suite
//! (happens-before races, wait-for-graph deadlocks, protocol lints) on
//! every interleaving.
//!
//! The simulator is deterministic in `(cfg, seed, approach, scenario)`,
//! so each seed names exactly one interleaving: the seed drives both the
//! machine-noise stream (perturbing compute and atomic costs, hence
//! message timing) and the chaos [`FaultPlan`]'s
//! `jitter_order` permutation stream, which scrambles the intra-batch
//! order of `pready_list`/`pready_range` calls — the same stream the
//! real runtime consumes, so a seed that trips a finding here can be
//! replayed against `pcomm-core` under `PCOMM_FAULTS=seed=...,jitter`.
//!
//! Guarantees and limits: the sweep is *bounded* — it certifies only the
//! explored interleavings, not all schedules (there is no DPOR-style
//! reduction), but every explored schedule gets an exact verdict, and a
//! clean protocol stays clean under any permutation the stream emits.

use pcomm_netmodel::MachineConfig;
use pcomm_trace::FaultPlan;
use pcomm_verify::VerifyReport;

use crate::scenario::{run_scenario_verified, Approach, Scenario};

/// The outcome of one explored interleaving.
#[derive(Debug)]
pub struct Exploration {
    /// Seed that produced (and reproduces) this interleaving.
    pub seed: u64,
    /// Verification verdict for the interleaving's trace.
    pub report: VerifyReport,
    /// Verify events analyzed (sanity: a partitioned scenario that
    /// emitted nothing was not actually instrumented).
    pub verify_events: usize,
}

/// Replay `sc` under `approach` once per seed, each run under that
/// seed's pready-jitter permutation, and verify every interleaving.
///
/// Returns one [`Exploration`] per seed, in order. Callers typically
/// assert `report.is_clean()` across the sweep (a correct protocol must
/// hold under any readiness order) or scan for the first finding.
pub fn explore_scenario(
    cfg: &MachineConfig,
    approach: Approach,
    sc: &Scenario,
    seeds: &[u64],
) -> Vec<Exploration> {
    seeds
        .iter()
        .map(|&seed| {
            let plan = FaultPlan::seeded(seed).jitter(true);
            let (_times, events) = run_scenario_verified(cfg, seed, approach, sc, Some(plan));
            // The simulator's trace is an unbounded `Vec`: nothing drops.
            let report = pcomm_verify::analyze(&events, 0);
            let verify_events = report.stats.verify_events;
            Exploration {
                seed,
                report,
                verify_events,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn partitioned_scenario_is_clean_across_jitter_sweep() {
        let cfg = MachineConfig::meluxina_quiet();
        let sc = Scenario::immediate(4, 2, 256, 2, 3);
        let runs = explore_scenario(&cfg, Approach::PtpPart, &sc, &seeds(8));
        assert_eq!(runs.len(), 8);
        for r in &runs {
            assert!(r.report.is_clean(), "seed {} found: {}", r.seed, r.report);
            assert!(
                r.verify_events > 0,
                "seed {} emitted no verify events",
                r.seed
            );
            // Full protocol coverage: both sides init'd and waited.
            assert_eq!(r.report.stats.requests, 1);
        }
    }

    #[test]
    fn legacy_path_is_clean_across_jitter_sweep() {
        let cfg = MachineConfig::meluxina_quiet();
        let mut sc = Scenario::immediate(2, 4, 128, 1, 2);
        sc.aggr_size = None;
        let runs = explore_scenario(&cfg, Approach::PtpPartOld, &sc, &seeds(4));
        for r in &runs {
            assert!(r.report.is_clean(), "seed {}: {}", r.seed, r.report);
            assert!(r.verify_events > 0);
        }
    }

    #[test]
    fn non_partitioned_strategies_pass_vacuously() {
        // RMA / plain p2p strategies emit no partitioned verify events;
        // the passes must report clean, not crash, on such traces.
        let cfg = MachineConfig::meluxina_quiet();
        let sc = Scenario::immediate(2, 1, 512, 1, 2);
        for approach in [Approach::PtpSingle, Approach::RmaSinglePassive] {
            let runs = explore_scenario(&cfg, approach, &sc, &seeds(2));
            for r in &runs {
                assert!(
                    r.report.is_clean(),
                    "{approach:?} seed {}: {}",
                    r.seed,
                    r.report
                );
            }
        }
    }

    #[test]
    fn seeds_steer_distinct_interleavings_deterministically() {
        let cfg = MachineConfig::meluxina_quiet();
        let sc = Scenario::immediate(2, 4, 64, 1, 1);
        let a = explore_scenario(&cfg, Approach::PtpPart, &sc, &[5]);
        let b = explore_scenario(&cfg, Approach::PtpPart, &sc, &[5]);
        assert_eq!(
            a[0].verify_events, b[0].verify_events,
            "same seed must replay the same interleaving"
        );
        // Different seeds permute the pready batches differently: the
        // traces differ even though both verify clean.
        let plan5 = FaultPlan::seeded(5).jitter(true);
        let plan9 = FaultPlan::seeded(9).jitter(true);
        let (_, ev5) = run_scenario_verified(&cfg, 5, Approach::PtpPart, &sc, Some(plan5));
        let (_, ev9) = run_scenario_verified(&cfg, 9, Approach::PtpPart, &sc, Some(plan9));
        let order = |evs: &[pcomm_trace::Event]| {
            evs.iter()
                .filter_map(|e| match e.kind {
                    pcomm_trace::EventKind::VerifyPready { part, .. } => Some(part),
                    _ => None,
                })
                .collect::<Vec<u32>>()
        };
        assert_ne!(order(&ev5), order(&ev9), "seed must steer pready order");
    }
}
