//! Cross-crate validation: the simulator's measurements must agree with
//! the closed-form model (§2.2) where the model's assumptions hold, and
//! the Appendix-A Monte-Carlo delay matches its analytic rate.

use pcomm::netmodel::MachineConfig;
use pcomm::perfmodel::{
    eta_large, t_bulk, t_pipelined, us_per_mb_to_s_per_b, ComputeProfile, DelayModel, NoiseModel,
};
use pcomm::prng::Xoshiro256pp;
use pcomm::simcore::Dur;
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};
use pcomm::workloads::DelaySchedule;

fn mean_us(cfg: &MachineConfig, approach: Approach, sc: &Scenario) -> f64 {
    let times = run_scenario(cfg, 11, approach, sc);
    let xs: Vec<f64> = times[1..].iter().map(|t| t.as_us_f64()).collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Large bandwidth-bound messages: measured bulk time ≈ eq. (2).
#[test]
fn bulk_time_matches_eq2() {
    let cfg = MachineConfig::meluxina_quiet();
    let n_parts = 4u64;
    let part = 8 << 20; // 8 MiB partitions
    let sc = Scenario::immediate(4, 1, part, 1, 4);
    let measured = mean_us(&cfg, Approach::PtpSingle, &sc);
    let model = t_bulk(n_parts, part as f64, cfg.bandwidth) * 1e6;
    let rel = (measured - model).abs() / model;
    assert!(
        rel < 0.05,
        "measured {measured} vs eq.(2) {model} (rel {rel})"
    );
}

/// Pipelined with delay: measured ≈ eq. (3) at large sizes.
#[test]
fn pipelined_time_matches_eq3() {
    let cfg = MachineConfig::meluxina_quiet();
    let part = 8 << 20;
    let gamma = us_per_mb_to_s_per_b(100.0);
    let delay = gamma * part as f64;
    let mut sc = Scenario::immediate(4, 1, part, 1, 4);
    sc.delays_us[3] = Dur::from_secs_f64(delay).as_us_f64();
    let measured = mean_us(&cfg, Approach::PtpPart, &sc);
    let model = t_pipelined(4, part as f64, cfg.bandwidth, delay) * 1e6;
    let rel = (measured - model).abs() / model;
    assert!(
        rel < 0.10,
        "measured {measured} vs eq.(3) {model} (rel {rel})"
    );
}

/// The measured gain converges to eq. (4) from below as size grows.
#[test]
fn gain_converges_to_eq4() {
    let cfg = MachineConfig::meluxina_quiet();
    let gamma = us_per_mb_to_s_per_b(100.0);
    let ideal = eta_large(4, 1, gamma, cfg.bandwidth);
    let gain_at = |part: usize| -> f64 {
        let mut sc = Scenario::immediate(4, 1, part, 1, 4);
        sc.delays_us[3] = Dur::from_secs_f64(gamma * part as f64).as_us_f64();
        mean_us(&cfg, Approach::PtpSingle, &sc) / mean_us(&cfg, Approach::PtpPart, &sc)
    };
    let g1 = gain_at(1 << 20);
    let g16 = gain_at(16 << 20);
    assert!(g16 > g1, "gain must grow with size: {g1} → {g16}");
    assert!(g16 < ideal, "measured gain cannot exceed the ideal");
    assert!(
        ideal - g16 < 0.15,
        "16MiB gain {g16} too far from ideal {ideal}"
    );
}

/// Appendix A: the Monte-Carlo delay of the Gaussian compute schedule
/// scales with θ as the analytic γ_θ predicts.
#[test]
fn monte_carlo_delay_tracks_gamma_growth() {
    let model = DelayModel::new(
        ComputeProfile::fft(),
        NoiseModel {
            epsilon: 0.04,
            delta: 0.0,
        },
    );
    let sched = DelaySchedule::GaussianCompute { model };
    let s_part = 1 << 20;
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    let mean_delay = |theta: usize, rng: &mut Xoshiro256pp| -> f64 {
        let n = 200;
        (0..n)
            .map(|_| {
                let v = sched.ready_times(8, theta, s_part, rng);
                let max = v.iter().max().unwrap().as_secs_f64();
                let min = v.iter().min().unwrap().as_secs_f64();
                max - min
            })
            .sum::<f64>()
            / n as f64
    };
    let d1 = mean_delay(1, &mut rng);
    let d8 = mean_delay(8, &mut rng);
    // γ₈/γ₁ ≈ 177 for the FFT profile; the Monte-Carlo measures the
    // spread between extremes rather than the analytic first/last
    // decomposition, but the strong θ growth must be present.
    assert!(
        d8 / d1 > 20.0,
        "delay must grow strongly with θ: {d1} → {d8}"
    );
}

/// Small-message law (eq. 5): pipelined loses roughly as 1/(Nθ) before
/// contention; with contention it loses even more.
#[test]
fn small_message_penalty_at_least_eq5() {
    let cfg = MachineConfig::meluxina_quiet();
    let sc = Scenario::immediate(8, 1, 64, 1, 4);
    let single = mean_us(&cfg, Approach::PtpSingle, &sc);
    let many = mean_us(&cfg, Approach::PtpMany, &sc);
    let eta = single / many;
    assert!(
        eta < 1.0,
        "small messages: pipelining must lose (η = {eta})"
    );
}
