//! Message aggregation (paper §4.2.2 / Fig. 7): sweep the aggregation
//! bound (`MPIR_CVAR_PART_AGGR_SIZE` analogue) for a many-small-partitions
//! workload and print the overhead against the single-message bound.
//!
//! ```text
//! cargo run --release --example aggregation_sweep
//! ```

use pcomm::netmodel::MachineConfig;
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};

fn main() {
    let cfg = MachineConfig::meluxina();
    let n_threads = 4;
    let theta = 32; // 128 partitions
    let n_parts = n_threads * theta;
    let iters = 40;
    let warmup = 1;

    println!("aggregation sweep: {n_threads} threads × θ={theta} partitions");
    println!(
        "{:>10}  {:>10}  {:>12}  {:>12}  {:>14}",
        "total", "aggr", "msgs", "time [us]", "vs single"
    );

    for total in [16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let part_bytes = total / n_parts;
        let base = Scenario::immediate(n_threads, theta, part_bytes, 1, iters + warmup);
        let mean = |a: Approach, sc: &Scenario| -> f64 {
            let times = run_scenario(&cfg, 3, a, sc);
            let xs: Vec<f64> = times[warmup..].iter().map(|t| t.as_us_f64()).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let single = mean(Approach::PtpSingle, &base);
        for aggr in [None, Some(512usize), Some(2048), Some(16384)] {
            let mut sc = base.clone();
            sc.aggr_size = aggr;
            let layout = pcomm::core::part::negotiate_layout(n_parts, n_parts, part_bytes, aggr);
            let t = mean(Approach::PtpPart, &sc);
            println!(
                "{:>10}  {:>10}  {:>12}  {:>12.2}  {:>13.1}x",
                human(total),
                aggr.map(human).unwrap_or_else(|| "off".into()),
                layout.n_msgs(),
                t,
                t / single
            );
        }
        println!(
            "{:>10}  {:>10}  {:>12}  {:>12.2}  {:>13.1}x",
            human(total),
            "(single)",
            1,
            single,
            1.0
        );
        println!();
    }
}

fn human(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}
