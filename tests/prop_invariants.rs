//! Randomized tests of the workspace's core invariants, driven by the
//! internal PRNG (see `prop_util`). Off by default; enable with
//! `cargo test --features proptests`.

#![cfg(feature = "proptests")]

mod prop_util;

use prop_util::{cases, maybe_usize, u64_in, usize_in};

use pcomm::netmodel::MachineConfig;
use pcomm::perfmodel::{eta_large, sample_sd, student_t_90, ConfidenceInterval};
use pcomm::prng::{Rng64, Xoshiro256pp};
use pcomm::simcore::{Dur, Sim};
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};

/// The two layout implementations (simulated and real runtime) are the
/// same algorithm — they must agree bit-for-bit.
#[test]
fn layouts_agree_between_crates() {
    cases(64, |rng| {
        let n_send_base = usize_in(rng, 1, 64);
        let mult = usize_in(rng, 1, 6);
        let part_bytes = usize_in(rng, 1, 10_000);
        let aggr = maybe_usize(rng, 1, 100_000);
        let n_send = n_send_base * mult;
        let n_recv = n_send_base;
        let a = pcomm::core::part::negotiate_layout(n_send, n_recv, part_bytes, aggr);
        // simmpi's layout is internal; compare via the public psend_init.
        let sim = Sim::new();
        let world = pcomm::simmpi::World::new(&sim, MachineConfig::meluxina_quiet(), 2, 1, 0);
        let opts = pcomm::simmpi::part::PartOptions {
            aggr_size: aggr,
            path: pcomm::simmpi::part::PartPath::Improved,
            first_iteration_cts: false, // no receiver task in this property
            ..Default::default()
        };
        let ps = pcomm::simmpi::part::psend_init(
            &world.comm_world(0),
            1,
            0,
            n_send,
            part_bytes,
            n_recv,
            opts,
        );
        assert_eq!(a.n_msgs(), ps.layout().n_msgs());
        for (x, y) in a.msgs.iter().zip(ps.layout().msgs.iter()) {
            assert_eq!(x.first_spart, y.first_spart);
            assert_eq!(x.n_sparts, y.n_sparts);
            assert_eq!(x.first_rpart, y.first_rpart);
            assert_eq!(x.n_rparts, y.n_rparts);
            assert_eq!(x.bytes, y.bytes);
        }
    });
}

/// Layout invariants: messages tile the partition ranges exactly, in
/// order, and aggregation never exceeds its bound unless a single base
/// message already does.
#[test]
fn layout_tiles_partitions() {
    cases(64, |rng| {
        let g = usize_in(rng, 1, 48);
        let sparts_per = usize_in(rng, 1, 8);
        let rparts_per = usize_in(rng, 1, 8);
        let part_bytes = usize_in(rng, 1, 4096);
        let aggr = maybe_usize(rng, 1, 65_536);
        let n_send = g * sparts_per;
        let n_recv = g * rparts_per;
        let l = pcomm::core::part::negotiate_layout(n_send, n_recv, part_bytes, aggr);
        // Tiling.
        let mut next_s = 0;
        let mut next_r = 0;
        let mut total = 0;
        for m in &l.msgs {
            assert_eq!(m.first_spart, next_s);
            assert_eq!(m.first_rpart, next_r);
            next_s += m.n_sparts;
            next_r += m.n_rparts;
            total += m.bytes;
            assert_eq!(m.bytes, m.n_sparts * part_bytes);
        }
        assert_eq!(next_s, n_send);
        assert_eq!(next_r, n_recv);
        assert_eq!(total, n_send * part_bytes);
        // Aggregation bound.
        if let Some(limit) = aggr {
            let base_bytes = (n_send / gcd(n_send, n_recv)) * part_bytes;
            for m in &l.msgs {
                assert!(m.bytes <= limit.max(base_bytes));
            }
        }
        // Mapping consistency.
        for p in 0..n_send {
            let m = l.msg_of_spart(p);
            let spec = l.msgs[m];
            assert!(p >= spec.first_spart && p < spec.first_spart + spec.n_sparts);
        }
    });
}

/// The simulator is deterministic: identical inputs give identical
/// per-iteration times, for any strategy and scenario.
#[test]
fn simulator_deterministic() {
    cases(24, |rng| {
        let approach = Approach::ALL[usize_in(rng, 0, Approach::ALL.len())];
        let n_threads = usize_in(rng, 1, 9);
        let theta = usize_in(rng, 1, 4);
        let part_kb = usize_in(rng, 1, 64);
        let seed = rng.next_u64();
        let sc = Scenario::immediate(n_threads, theta, part_kb * 256, 2, 3);
        let cfg = MachineConfig::meluxina();
        let a = run_scenario(&cfg, seed, approach, &sc);
        let b = run_scenario(&cfg, seed, approach, &sc);
        assert_eq!(a, b);
    });
}

/// Gain model sanity: η ≥ 1 whenever there is any delay, η ≤ Nθ, and η
/// is monotone in γ.
#[test]
fn eta_bounds_and_monotonicity() {
    cases(64, |rng| {
        let n = u64_in(rng, 1, 64);
        let theta = u64_in(rng, 1, 16);
        let gamma_a = rng.next_range_f64(0.0, 1e-9);
        let gamma_b = rng.next_range_f64(0.0, 1e-9);
        let beta = 25e9;
        let (lo, hi) = if gamma_a <= gamma_b {
            (gamma_a, gamma_b)
        } else {
            (gamma_b, gamma_a)
        };
        let e_lo = eta_large(n, theta, lo, beta);
        let e_hi = eta_large(n, theta, hi, beta);
        assert!(e_lo >= 1.0 - 1e-12);
        assert!(e_hi <= (n * theta) as f64 + 1e-12);
        assert!(e_hi >= e_lo - 1e-12);
    });
}

/// Student-t CI: the half-width shrinks as 1/√n (fixed variance), and
/// the mean always lies inside the interval.
#[test]
fn ci_behaviour() {
    cases(48, |rng| {
        let seed = rng.next_u64();
        let n_small = usize_in(rng, 8, 40);
        let mut sample_rng = Xoshiro256pp::seed_from_u64(seed);
        let n_large = n_small * 16;
        let sample: Vec<f64> = (0..n_large).map(|_| sample_rng.next_f64() * 10.0).collect();
        let small = ConfidenceInterval::of(&sample[..n_small]);
        let large = ConfidenceInterval::of(&sample);
        if sample_sd(&sample[..n_small]) > 0.1 {
            assert!(large.halfwidth < small.halfwidth * 1.5);
        }
        assert!(large.halfwidth >= 0.0);
        assert!(student_t_90((n_large - 1) as u64) >= 1.6449);
    });
}

/// Virtual-time arithmetic: Dur conversions round-trip within a ps.
#[test]
fn dur_roundtrip() {
    cases(256, |rng| {
        let us = rng.next_range_f64(0.0, 1e6);
        let d = Dur::from_us_f64(us);
        assert!((d.as_us_f64() - us).abs() < 1e-5);
    });
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
