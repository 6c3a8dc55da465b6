//! Calibration regression: pin the quiet-machine (noise-free) simulator
//! values that EXPERIMENTS.md reports, so any change to the cost model or
//! to the runtime's control flow that would silently shift the figures is
//! caught here.
//!
//! Tolerances are tight (±2%) because the quiet machine is deterministic;
//! an intentional recalibration should update these pins *and*
//! EXPERIMENTS.md together.

use pcomm::netmodel::MachineConfig;
use pcomm::simcore::Dur;
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};

fn steady_us(approach: Approach, sc: &Scenario) -> f64 {
    let times = run_scenario(&MachineConfig::meluxina_quiet(), 0, approach, sc);
    times.last().unwrap().as_us_f64()
}

fn assert_close(actual: f64, pinned: f64, what: &str) {
    let rel = (actual - pinned).abs() / pinned;
    assert!(
        rel < 0.02,
        "{what}: {actual:.4} us drifted from pinned {pinned:.4} us ({:.1}%)",
        rel * 100.0
    );
}

/// Fig. 4 anchor points (1 thread, 1 partition).
#[test]
fn fig4_anchors() {
    let sc = |bytes| Scenario::immediate(1, 1, bytes, 1, 3);
    // 16 B short-protocol latencies.
    assert_close(steady_us(Approach::PtpSingle, &sc(16)), 2.121, "single@16B");
    assert_close(steady_us(Approach::PtpPart, &sc(16)), 2.171, "part@16B");
    assert_close(steady_us(Approach::PtpPartOld, &sc(16)), 3.644, "old@16B");
    assert_close(
        steady_us(Approach::RmaSinglePassive, &sc(16)),
        6.331,
        "rma-passive@16B",
    );
    assert_close(
        steady_us(Approach::RmaSingleActive, &sc(16)),
        4.640,
        "rma-active@16B",
    );
    // 16 MiB bandwidth regime: everything near the 671 us wire time.
    let wire = (16u64 << 20) as f64 / 25e9 * 1e6;
    for a in [Approach::PtpPart, Approach::PtpSingle, Approach::PtpMany] {
        let t = steady_us(a, &sc(16 << 20));
        assert!(
            t > wire && t < wire * 1.02,
            "{a:?}@16MiB: {t} vs wire {wire}"
        );
    }
}

/// Protocol switch steps (Fig. 4): short→bcopy and bcopy→rendezvous.
#[test]
fn protocol_switch_anchors() {
    let sc = |bytes| Scenario::immediate(1, 1, bytes, 1, 3);
    let t1k = steady_us(Approach::PtpSingle, &sc(1024));
    let t2k = steady_us(Approach::PtpSingle, &sc(2048));
    let t8k = steady_us(Approach::PtpSingle, &sc(8192));
    let t16k = steady_us(Approach::PtpSingle, &sc(16384));
    // bcopy adds two copies (~0.17 us each at 2 KiB).
    assert!(t2k - t1k > 0.25, "bcopy step too small: {t1k} → {t2k}");
    // Rendezvous adds an RTS/CTS round trip (~2.7 us) minus the copies.
    assert!(
        t16k - t8k > 1.0,
        "rendezvous step too small: {t8k} → {t16k}"
    );
}

/// Fig. 5/6 contention anchors.
#[test]
fn contention_anchors() {
    let sc = |vcis| Scenario::immediate(32, 1, 512, vcis, 3); // 16 KiB total
    let single_1 = steady_us(Approach::PtpSingle, &sc(1));
    let part_1 = steady_us(Approach::PtpPart, &sc(1));
    let part_32 = steady_us(Approach::PtpPart, &sc(32));
    let many_32 = steady_us(Approach::PtpMany, &sc(32));
    let ratio_1 = part_1 / single_1;
    let ratio_32 = part_32 / single_1;
    assert!(
        (25.0..35.0).contains(&ratio_1),
        "1-VCI contention factor {ratio_1} (paper ≈30)"
    );
    assert!(
        (2.0..5.0).contains(&ratio_32),
        "32-VCI residual factor {ratio_32} (paper ≈4)"
    );
    assert!(
        many_32 < single_1 * 1.2,
        "many with per-thread VCIs must reach single: {many_32} vs {single_1}"
    );
}

/// Fig. 7 aggregation anchors.
#[test]
fn aggregation_anchors() {
    let mut sc = Scenario::immediate(4, 32, 512, 1, 3); // 64 KiB total
    let single = steady_us(Approach::PtpSingle, &sc);
    let noag = steady_us(Approach::PtpPart, &sc);
    sc.aggr_size = Some(16384);
    let ag = steady_us(Approach::PtpPart, &sc);
    let f_noag = noag / single;
    let f_ag = ag / single;
    assert!(
        (9.0..17.0).contains(&f_noag),
        "no-aggregation factor {f_noag} (paper ≈10)"
    );
    assert!(
        (2.0..4.0).contains(&f_ag),
        "aggregated factor {f_ag} (paper ≈3)"
    );
}

/// Fig. 8 early-bird anchor.
#[test]
fn early_bird_anchor() {
    let part_bytes = 16 << 20;
    let gamma = 1e-10; // 100 µs/MB
    let mut sc = Scenario::immediate(4, 1, part_bytes, 1, 3);
    sc.delays_us[3] = Dur::from_secs_f64(gamma * part_bytes as f64).as_us_f64();
    let gain = steady_us(Approach::PtpSingle, &sc) / steady_us(Approach::PtpPart, &sc);
    assert!(
        (2.55..2.67).contains(&gain),
        "early-bird gain {gain} (paper ≈2.54, theory 2.667)"
    );
}
