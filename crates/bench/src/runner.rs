//! The measurement protocol driver: paper §4's statistics applied to the
//! simulated runtime.

use pcomm_netmodel::MachineConfig;
use pcomm_perfmodel::ConfidenceInterval;
use pcomm_simmpi::scenario::{run_scenario, Approach, Scenario};

/// Protocol and sweep options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Measured iterations per attempt (paper: 150).
    pub iterations: usize,
    /// Warm-up iterations discarded (paper: 1).
    pub warmup: usize,
    /// Maximum reruns on a too-wide interval (paper: 50).
    pub max_retries: usize,
    /// Accepted relative half-width (paper: 0.05).
    pub rel_halfwidth: f64,
    /// Base RNG seed; attempt `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Take every `size_stride`-th point of each size sweep (1 = all).
    pub size_stride: usize,
}

impl RunOpts {
    /// The paper's protocol over the full size sweeps.
    pub fn paper() -> RunOpts {
        RunOpts {
            iterations: 150,
            warmup: 1,
            max_retries: 50,
            rel_halfwidth: 0.05,
            base_seed: 0x1CC9_2023,
            size_stride: 1,
        }
    }

    /// A fast variant for tests/CI: fewer iterations, coarser sweeps,
    /// looser convergence.
    pub fn quick() -> RunOpts {
        RunOpts {
            iterations: 25,
            warmup: 1,
            max_retries: 2,
            rel_halfwidth: 0.25,
            base_seed: 0x1CC9_2023,
            size_stride: 4,
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Mean communication overhead in µs.
    pub mean_us: f64,
    /// 90% CI half-width in µs.
    pub halfwidth_us: f64,
    /// Reruns needed (0 = first attempt converged).
    pub retries: usize,
}

/// Measure one (approach, scenario) cell under the protocol; the
/// scenario's `shards` are its VCIs.
pub fn measure(
    cfg: &MachineConfig,
    approach: Approach,
    base: &Scenario,
    opts: &RunOpts,
) -> Measured {
    let mut sc = base.clone();
    sc.iterations = opts.warmup + opts.iterations;
    let mut retries = 0;
    loop {
        let times = run_scenario(cfg, opts.base_seed + retries as u64, approach, &sc);
        let xs: Vec<f64> = times[opts.warmup..].iter().map(|d| d.as_us_f64()).collect();
        let ci = ConfidenceInterval::of(&xs);
        if ci.relative_halfwidth() <= opts.rel_halfwidth || retries >= opts.max_retries {
            return Measured {
                mean_us: ci.mean,
                halfwidth_us: ci.halfwidth,
                retries,
            };
        }
        retries += 1;
    }
}

/// Powers-of-two total-size sweep `[min, max]`, subsampled by
/// `opts.size_stride` (endpoints always kept).
pub fn size_sweep(min_total: usize, max_total: usize, opts: &RunOpts) -> Vec<usize> {
    let mut all = Vec::new();
    let mut s = min_total;
    while s <= max_total {
        all.push(s);
        s *= 2;
    }
    if opts.size_stride <= 1 || all.len() <= 2 {
        return all;
    }
    let last = *all.last().unwrap();
    let mut out: Vec<usize> = all.iter().copied().step_by(opts.size_stride).collect();
    if *out.last().unwrap() != last {
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_constants() {
        let p = RunOpts::paper();
        assert_eq!(p.iterations, 150);
        assert_eq!(p.warmup, 1);
        assert_eq!(p.max_retries, 50);
        assert_eq!(p.rel_halfwidth, 0.05);
    }

    #[test]
    fn size_sweep_powers_of_two() {
        let opts = RunOpts::paper();
        let s = size_sweep(16, 128, &opts);
        assert_eq!(s, vec![16, 32, 64, 128]);
    }

    #[test]
    fn size_sweep_stride_keeps_endpoints() {
        let mut opts = RunOpts::paper();
        opts.size_stride = 3;
        let s = size_sweep(16, 4096, &opts);
        assert_eq!(s.first(), Some(&16));
        assert_eq!(s.last(), Some(&4096));
        assert!(s.len() < 9);
    }

    #[test]
    fn measure_converges_on_quiet_machine() {
        let cfg = MachineConfig::meluxina_quiet();
        let sc = Scenario::immediate(1, 1, 1024, 1, 1);
        let mut opts = RunOpts::quick();
        opts.iterations = 10;
        let m = measure(&cfg, Approach::PtpSingle, &sc, &opts);
        assert!(m.mean_us > 1.0 && m.mean_us < 10.0, "mean {}", m.mean_us);
        assert!(
            m.halfwidth_us < 1e-9,
            "quiet machine should have (numerically) zero variance, got {}",
            m.halfwidth_us
        );
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn measure_with_noise_has_finite_ci() {
        let cfg = MachineConfig::meluxina();
        let sc = Scenario::immediate(2, 1, 2048, 1, 1);
        let opts = RunOpts::quick();
        let m = measure(&cfg, Approach::PtpPart, &sc, &opts);
        assert!(m.mean_us > 0.0);
        assert!(m.halfwidth_us >= 0.0);
        assert!(m.halfwidth_us < m.mean_us, "CI wider than the mean");
    }
}
