//! `pcomm-workloads` — compute/delay workload generators for the pipelined
//! communication benchmarks.
//!
//! The paper's benchmark (Fig. 3) interposes *compute* between `start` and
//! `pready`: threads work on their partitions and mark them ready as they
//! finish. This crate turns the Appendix-A compute model into concrete
//! per-partition *ready times*:
//!
//! * [`DelaySchedule::Immediate`] — all partitions ready at once
//!   (Figs. 4–7: "all the partitions are ready immediately");
//! * [`DelaySchedule::LastPartitionGamma`] — the last partition is delayed
//!   by `γ·S_part` (Fig. 8's controlled early-bird experiment);
//! * [`DelaySchedule::GaussianCompute`] — per-partition compute time
//!   `µ·S·N(1, (ε+δ)/2)` accumulated per thread (Appendix A, eq. 7).

#![warn(missing_docs)]

use pcomm_core::strategies::Scenario;
use pcomm_perfmodel::DelayModel;
use pcomm_prng::{Normal, Xoshiro256pp};
use pcomm_simcore::Dur;

/// How partition ready times are generated for one iteration.
#[derive(Debug, Clone)]
pub enum DelaySchedule {
    /// Every partition ready at compute start.
    Immediate,
    /// All partitions ready immediately except the last, delayed by
    /// `γ · S_part` (γ in s/B).
    LastPartitionGamma {
        /// Delay rate γ in seconds per byte.
        gamma_s_per_b: f64,
    },
    /// Appendix-A Gaussian compute: partition compute time is
    /// `µ·S·N(1, σ)` (clamped at 0), accumulated in processing order on
    /// each thread.
    GaussianCompute {
        /// The delay model providing µ and σ.
        model: DelayModel,
    },
}

impl DelaySchedule {
    /// Ready time of every partition (indexed by partition id), measured
    /// from the start of the compute phase.
    ///
    /// `n_threads × theta` partitions of `part_bytes` each; `rng` drives
    /// the Gaussian variant (deterministic per seed).
    pub fn ready_times(
        &self,
        n_threads: usize,
        theta: usize,
        part_bytes: usize,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Dur> {
        assert!(n_threads >= 1 && theta >= 1, "need threads and partitions");
        let n_parts = n_threads * theta;
        match self {
            DelaySchedule::Immediate => vec![Dur::ZERO; n_parts],
            DelaySchedule::LastPartitionGamma { gamma_s_per_b } => {
                assert!(*gamma_s_per_b >= 0.0, "γ must be non-negative");
                let mut v = vec![Dur::ZERO; n_parts];
                v[n_parts - 1] = Dur::from_secs_f64(gamma_s_per_b * part_bytes as f64);
                v
            }
            DelaySchedule::GaussianCompute { model } => {
                // Each thread's partitions, in the order it processes them.
                let sc = Scenario::immediate(n_threads, theta, part_bytes, 1, 1);
                let mut v = vec![Dur::ZERO; n_parts];
                let mut dist = Normal::new(1.0, model.noise.sigma());
                for t in 0..n_threads {
                    let mut elapsed = 0.0f64;
                    for p in (0..theta).map(|j| sc.partition(t, j)) {
                        let factor = dist.sample_clamped_min(rng, 0.0);
                        elapsed += model.mu * part_bytes as f64 * factor;
                        v[p] = Dur::from_secs_f64(elapsed);
                    }
                }
                v
            }
        }
    }

    /// The maximum ready time — the delay `D` the benchmark subtracts from
    /// the measured time-to-solution (the compute is not being measured).
    pub fn max_delay(
        &self,
        n_threads: usize,
        theta: usize,
        part_bytes: usize,
        rng: &mut Xoshiro256pp,
    ) -> Dur {
        self.ready_times(n_threads, theta, part_bytes, rng)
            .into_iter()
            .max()
            .unwrap_or(Dur::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_perfmodel::{ComputeProfile, NoiseModel};

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(42)
    }

    #[test]
    fn immediate_is_all_zero() {
        let v = DelaySchedule::Immediate.ready_times(8, 4, 1024, &mut rng());
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|&d| d == Dur::ZERO));
    }

    #[test]
    fn last_partition_gamma_delay() {
        // γ = 100 µs/MB = 1e-10 s/B, S = 1 MB → D = 100 µs.
        let sched = DelaySchedule::LastPartitionGamma {
            gamma_s_per_b: 1e-10,
        };
        let v = sched.ready_times(4, 1, 1_000_000, &mut rng());
        assert_eq!(v[0], Dur::ZERO);
        assert_eq!(v[1], Dur::ZERO);
        assert_eq!(v[2], Dur::ZERO);
        assert_eq!(v[3], Dur::from_us(100));
        assert_eq!(
            sched.max_delay(4, 1, 1_000_000, &mut rng()),
            Dur::from_us(100)
        );
    }

    #[test]
    fn gaussian_ready_times_increase_along_thread() {
        let model = DelayModel::new(
            ComputeProfile::fft(),
            NoiseModel {
                epsilon: 0.04,
                delta: 0.0,
            },
        );
        let sched = DelaySchedule::GaussianCompute { model };
        let v = sched.ready_times(4, 8, 65536, &mut rng());
        let sc = Scenario::immediate(4, 8, 65536, 1, 1);
        for t in 0..4 {
            let parts: Vec<usize> = (0..8).map(|j| sc.partition(t, j)).collect();
            for w in parts.windows(2) {
                assert!(v[w[1]] >= v[w[0]], "ready times must be cumulative");
            }
        }
    }

    #[test]
    fn gaussian_mean_close_to_mu_s() {
        let model = DelayModel {
            mu: 1e-9,
            noise: NoiseModel {
                epsilon: 0.04,
                delta: 0.0,
            },
        };
        let sched = DelaySchedule::GaussianCompute { model };
        // θ=1: ready time of each partition ≈ µ·S = 65.536 µs.
        let mut r = rng();
        let mut total = 0.0;
        let n = 200;
        for _ in 0..n {
            let v = sched.ready_times(8, 1, 65536, &mut r);
            total += v.iter().map(|d| d.as_us_f64()).sum::<f64>() / v.len() as f64;
        }
        let mean = total / n as f64;
        assert!((mean - 65.536).abs() < 1.0, "mean ready {mean}");
    }

    #[test]
    fn gaussian_observed_delay_matches_gamma_model() {
        // The spread between first and last ready time should be of the
        // order γ_θ·S from the analytical model (Appendix A validation).
        let model = DelayModel::new(
            ComputeProfile::fft(),
            NoiseModel {
                epsilon: 0.04,
                delta: 0.0,
            },
        );
        let sched = DelaySchedule::GaussianCompute { model };
        let s_part = 1 << 20;
        let theta = 8;
        let sc = Scenario::immediate(8, theta, s_part, 1, 1);
        let mut r = rng();
        let mut spreads = Vec::new();
        for _ in 0..300 {
            let v = sched.ready_times(8, theta, s_part, &mut r);
            let max = v.iter().max().unwrap().as_secs_f64();
            let min_first: f64 = (0..8)
                .map(|t| v[sc.partition(t, 0)].as_secs_f64())
                .fold(f64::INFINITY, f64::min);
            spreads.push(max - (min_first - model.mu * s_part as f64));
        }
        let mean_spread = spreads.iter().sum::<f64>() / spreads.len() as f64;
        let predicted = model.delay(theta as u64, s_part as f64);
        let ratio = mean_spread / predicted;
        // The analytical formula uses expected extremes; Monte-Carlo over 8
        // threads lands in the same ballpark.
        assert!(
            (0.5..2.0).contains(&ratio),
            "spread {mean_spread} vs predicted {predicted} (ratio {ratio})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let model = DelayModel {
            mu: 1e-9,
            noise: NoiseModel {
                epsilon: 0.1,
                delta: 0.0,
            },
        };
        let sched = DelaySchedule::GaussianCompute { model };
        let a = sched.ready_times(4, 2, 4096, &mut Xoshiro256pp::seed_from_u64(7));
        let b = sched.ready_times(4, 2, 4096, &mut Xoshiro256pp::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_gamma_rejected() {
        let sched = DelaySchedule::LastPartitionGamma {
            gamma_s_per_b: -1.0,
        };
        let _ = sched.ready_times(2, 1, 64, &mut rng());
    }
}
