//! Benches on the simulation stack itself: executor throughput and
//! full-scenario simulation cost (how fast the figures regenerate).
//!
//! Plain timing harness (no external bench framework): each case runs a
//! fixed number of times after one warm-up, and the minimum and mean
//! are printed — the minimum is the robust statistic on noisy CI hosts.
//! Run with `cargo bench --bench simulator`.

use std::time::{Duration, Instant};

use pcomm_netmodel::MachineConfig;
use pcomm_simcore::{Dur, Sim};
use pcomm_simmpi::scenario::{run_scenario, Approach, Scenario};

const SAMPLES: usize = 10;

fn bench<T>(group: &str, id: &str, mut f: impl FnMut() -> T) {
    f(); // warm-up
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed());
    }
    let min = samples.iter().copied().min().unwrap();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{group:<20} {id:<36} min {:>10.2?}  mean {:>10.2?}  ({SAMPLES} samples)",
        min, mean,
    );
}

/// Raw executor throughput: tasks ping-ponging through timers.
fn bench_executor() {
    for n_tasks in [10usize, 100, 1000] {
        bench(
            "simcore_executor",
            &format!("timer_storm/{n_tasks}"),
            || {
                let sim = Sim::new();
                for i in 0..n_tasks as u64 {
                    let s = sim.clone();
                    sim.spawn(async move {
                        for k in 0..20u64 {
                            s.sleep(Dur::from_ns((i * 7 + k) % 100 + 1)).await;
                        }
                    });
                }
                sim.run();
                sim.polls()
            },
        );
    }
}

/// End-to-end scenario simulation cost per strategy (small scenario).
fn bench_scenarios() {
    let cfg = MachineConfig::meluxina();
    for a in Approach::ALL {
        let sc = Scenario::immediate(8, 1, 4096, 2, 10);
        let id = format!("iterate/{}", a.label().replace(' ', "_"));
        bench("simmpi_scenarios", &id, || run_scenario(&cfg, 1, a, &sc));
    }
}

/// The congestion scenario the paper's Fig. 5 needs (heaviest case).
fn bench_fig5_cell() {
    let cfg = MachineConfig::meluxina();
    let sc = Scenario::immediate(32, 1, 512, 1, 10);
    for a in [
        Approach::PtpPart,
        Approach::PtpMany,
        Approach::RmaManyPassive,
    ] {
        let id = format!("32threads/{}", a.label().replace(' ', "_"));
        bench("simmpi_fig5_cell", &id, || run_scenario(&cfg, 1, a, &sc));
    }
}

fn main() {
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    if want("executor") {
        bench_executor();
    }
    if want("scenarios") {
        bench_scenarios();
    }
    if want("fig5") {
        bench_fig5_cell();
    }
}
