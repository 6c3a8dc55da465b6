//! Guard: the verification layer must not tax the verify-off hot path.
//!
//! The retired `hotpath` micro-bench recorded `pready` at 144.2 ns
//! under an armed watchdog (1-CPU container, release build; frozen in
//! experiments/ARCHIVE.md "Retired instruments"); the verify gate added on top is a
//! single predictable branch (`Trace::emit_verify` with a disabled or
//! plain trace), so the off-path cost must stay within noise of that
//! figure. The envelope here is deliberately generous — CI boxes vary
//! and `cargo test` builds unoptimized — so it catches a *structural*
//! regression (events allocated, clocks read, or locks taken with
//! verification off), not a few-nanosecond drift. The precise
//! instrument is the `part.pready_ns` row of `benchmark/`'s ledger.

use std::time::Instant;

use pcomm_core::part::PartOptions;
use pcomm_core::Universe;

/// `pready_watchdog_ns` as last recorded by the retired `hotpath` bench.
const RECORDED_PREADY_NS: f64 = 144.2;

/// A structural regression on the off path (per-op event emission or
/// locking) multiplies the cost; plain noise does not. Debug builds pay
/// a large constant factor over the recorded release figure.
const NOISE_FACTOR: f64 = if cfg!(debug_assertions) { 100.0 } else { 12.0 };

fn pready_ns_verify_off(reps: usize) -> f64 {
    const N: usize = 64;
    let out = Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 1, N, 64, PartOptions::default());
                let mut best = f64::INFINITY;
                for _ in 0..reps {
                    ps.start();
                    let t0 = Instant::now();
                    for p in 0..N {
                        ps.pready(p);
                    }
                    let per_op = t0.elapsed().as_nanos() as f64 / N as f64;
                    ps.wait();
                    best = best.min(per_op);
                }
                best
            } else {
                let pr = comm.precv_init(0, 1, N, 64, PartOptions::default());
                for _ in 0..reps {
                    pr.start();
                    pr.wait();
                }
                0.0
            }
        })
        .unwrap();
    out[0]
}

#[test]
fn verify_off_pready_stays_within_noise_of_recorded_figure() {
    let measured = pready_ns_verify_off(20);
    let ceiling = RECORDED_PREADY_NS * NOISE_FACTOR;
    assert!(
        measured > 0.0 && measured < ceiling,
        "verify-off pready took {measured:.1} ns/op, over the {ceiling:.0} ns \
         noise envelope around the recorded {RECORDED_PREADY_NS} ns — the \
         verification layer is taxing the off path"
    );
}
