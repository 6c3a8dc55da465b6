//! The early-bird effect (paper §4.3 / Fig. 8) on the simulated MeluXina:
//! sweep the message size and print the measured gain of pipelined
//! strategies over the bulk-synchronized single message, next to the
//! analytical prediction of eq. (4).
//!
//! ```text
//! cargo run --release --example early_bird
//! ```

use pcomm::netmodel::MachineConfig;
use pcomm::perfmodel::{eta_large, us_per_mb_to_s_per_b};
use pcomm::simcore::Dur;
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};

fn main() {
    let cfg = MachineConfig::meluxina();
    let n_threads = 4;
    let gamma = us_per_mb_to_s_per_b(100.0); // 100 µs/MB delay rate
    let iters = 40;
    let warmup = 1;

    println!("early-bird gain, γ = 100 µs/MB, {n_threads} threads / partitions");
    println!(
        "{:>10}  {:>12}  {:>12}  {:>12}  {:>10}",
        "total", "single [us]", "part [us]", "gain", "theory"
    );

    let ideal = eta_large(n_threads as u64, 1, gamma, cfg.bandwidth);
    let mut total = 8 << 10;
    while total <= 64 << 20 {
        let part_bytes = total / n_threads;
        let mut sc = Scenario::immediate(n_threads, 1, part_bytes, 1, iters + warmup);
        let d = Dur::from_secs_f64(gamma * part_bytes as f64);
        let n = sc.delays_us.len();
        sc.delays_us[n - 1] = d.as_us_f64();

        let mean = |a: Approach| -> f64 {
            let times = run_scenario(&cfg, 7, a, &sc);
            let xs: Vec<f64> = times[warmup..].iter().map(|t| t.as_us_f64()).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let single = mean(Approach::PtpSingle);
        let part = mean(Approach::PtpPart);
        println!(
            "{:>10}  {:>12.2}  {:>12.2}  {:>12.3}  {:>10.3}",
            human(total),
            single,
            part,
            single / part,
            ideal
        );
        total *= 4;
    }
    println!("\n(eq. 4 gain is the large-size asymptote; at small sizes latency and");
    println!(" thread contention make pipelining lose, as in the paper's Fig. 8)");
}

fn human(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else {
        format!("{}KiB", b >> 10)
    }
}
