//! Halo exchange for a 3D finite-difference stencil — the workload of the
//! paper's Appendix A.2.2 — comparing bulk-synchronized and partitioned
//! pipelined communication on the real runtime.
//!
//! Two ranks each own a 64³ block; after every "compute" step they
//! exchange a ghost plane. Threads finish their sub-planes at different
//! times (the stencil's algorithmic imbalance, δ = 0.5); partitioned
//! communication lets early sub-planes leave immediately.
//!
//! ```text
//! cargo run --release --example halo_exchange
//! ```

use std::time::Instant;

use pcomm::core::{part::PartOptions, strategies::Scenario, sync::spin_for_micros, Universe};
use pcomm::perfmodel::{ComputeProfile, DelayModel, NoiseModel};
use pcomm::prng::Xoshiro256pp;
use pcomm::workloads::DelaySchedule;

fn main() {
    let n = 64usize; // block edge
    let plane_bytes = n * n * 8; // one f64 ghost plane
    let n_threads = 4;
    let theta = 2;
    let n_parts = n_threads * theta;
    let part_bytes = plane_bytes / n_parts;
    let steps = 20;

    // Appendix A.2.2 stencil delay model (δ = 0.5 algorithmic imbalance).
    let model = DelayModel::new(
        ComputeProfile::stencil3d(),
        NoiseModel {
            epsilon: 0.04,
            delta: 0.5,
        },
    );
    let sched = DelaySchedule::GaussianCompute { model };
    println!(
        "halo exchange: {n}³ block, {plane_bytes} B plane, {n_parts} partitions, γ₁ = {:.2} µs/MB",
        pcomm::perfmodel::s_per_b_to_us_per_mb(model.gamma(1)),
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 * (n_threads + 1) {
        println!(
            "note: {cores} core(s) available for {} threads — wall-clock numbers below \
             reflect scheduler oversubscription, not communication overhead; \
             use the simulator (`figures fig8`) for calibrated timing",
            2 * (n_threads + 1)
        );
    }

    for (label, pipelined) in [
        ("bulk (single message)", false),
        ("partitioned (pipelined)", true),
    ] {
        let wall = run_exchange(
            n_threads,
            theta,
            part_bytes,
            steps,
            pipelined,
            sched.clone(),
        );
        println!("{label:<26} {steps} steps in {wall:?}");
    }
}

fn run_exchange(
    n_threads: usize,
    theta: usize,
    part_bytes: usize,
    steps: usize,
    pipelined: bool,
    sched: DelaySchedule,
) -> std::time::Duration {
    let n_parts = n_threads * theta;
    // Thread `t` owns the partitions `layout.partition(t, j)`.
    let layout = &Scenario::immediate(n_threads, theta, part_bytes, n_threads, steps);
    let out = Universe::new(2).with_shards(n_threads).run(|comm| {
        let peer = 1 - comm.rank();
        let psend = comm.psend_init(peer, 0, n_parts, part_bytes, PartOptions::default());
        let precv = comm.precv_init(peer, 0, n_parts, part_bytes, PartOptions::default());
        let mut rng = Xoshiro256pp::seed_from_u64(42 + comm.rank() as u64);
        comm.barrier();
        let t0 = Instant::now();
        for _step in 0..steps {
            let delays = sched.ready_times(n_threads, theta, part_bytes, &mut rng);
            precv.start();
            psend.start();
            if pipelined {
                // Each thread computes its sub-planes and marks them ready.
                std::thread::scope(|s| {
                    for t in 0..n_threads {
                        let psend = psend.clone();
                        let delays = &delays;
                        s.spawn(move || {
                            let mut elapsed = 0.0;
                            for p in (0..theta).map(|j| layout.partition(t, j)) {
                                let ready = delays[p].as_us_f64();
                                spin_for_micros(ready - elapsed);
                                elapsed = ready;
                                psend.pready(p);
                            }
                        });
                    }
                });
            } else {
                // Bulk: compute everything, synchronize, then send.
                std::thread::scope(|s| {
                    for t in 0..n_threads {
                        let delays = &delays;
                        s.spawn(move || {
                            let last = (0..theta)
                                .map(|j| delays[layout.partition(t, j)].as_us_f64())
                                .fold(0.0, f64::max);
                            spin_for_micros(last);
                        });
                    }
                });
                for p in 0..n_parts {
                    psend.pready(p);
                }
            }
            psend.wait();
            precv.wait();
        }
        t0.elapsed()
    });
    out.unwrap_or_else(|err| {
        eprintln!("halo_exchange: universe failed: {err}");
        std::process::exit(2);
    })
    .into_iter()
    .max()
    .unwrap()
}
