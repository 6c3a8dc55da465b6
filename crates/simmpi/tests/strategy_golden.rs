//! Golden per-iteration times of the eight strategies.
//!
//! The simulator is deterministic, so the values below — recorded on the
//! tree that still had one hand-written `async fn` per strategy and side —
//! must be reproduced to the picosecond by the table interpreter in
//! `pcomm_simmpi::strategies`. The noisy machine config is used on
//! purpose: every jitter draw comes from one seeded stream, so a single
//! reordered operation anywhere in the template shifts every later value.
//!
//! Never edit a recorded value to make this pass; a mismatch means the
//! template, the op tables or the simulated runtime changed behaviour.

use pcomm_netmodel::MachineConfig;
use pcomm_simcore::Dur;
use pcomm_simmpi::scenario::{run_scenario, Approach, Scenario};

const SEED: u64 = 1;
const ITERATIONS: usize = 3;

/// Fig. 8's scenario: 4 threads × 1 partition, the last partition delayed
/// by γ·S_part with γ = 100 µs/MB.
fn fig8_delayed_last(total: usize) -> Scenario {
    let part_bytes = total / 4;
    let mut sc = Scenario::immediate(4, 1, part_bytes, 1, ITERATIONS);
    sc.delays_us[3] = Dur::from_secs_f64(1e-10 * part_bytes as f64).as_us_f64();
    sc
}

/// `(name, scenario)` in the order of [`GOLDEN_PS`]'s columns; a
/// scenario's `shards` are its VCIs.
fn cells() -> Vec<(&'static str, Scenario)> {
    vec![
        (
            "immediate(4,2,256) 1 vci",
            Scenario::immediate(4, 2, 256, 1, ITERATIONS),
        ),
        (
            "immediate(4,2,256) 4 vcis",
            Scenario::immediate(4, 2, 256, 4, ITERATIONS),
        ),
        ("fig8 delayed last, 4 MiB", fig8_delayed_last(4 << 20)),
    ]
}

/// Per-iteration overheads in picoseconds: one row per approach (in
/// `Approach::ALL` order), one `[iter0, iter1, iter2]` per cell.
const GOLDEN_PS: [[[u64; ITERATIONS]; 3]; 8] = [
    // PtpPart
    [
        [9_809_897, 8_017_858, 8_048_882],
        [7_970_479, 6_179_411, 6_194_159],
        [71_033_389, 69_230_221, 69_221_931],
    ],
    // PtpPartOld
    [
        [4_426_450, 4_415_570, 4_448_758],
        [4_426_450, 4_415_570, 4_448_758],
        [869_993_663, 866_576_404, 874_972_733],
    ],
    // PtpSingle
    [
        [3_030_191, 3_050_858, 3_048_025],
        [3_030_191, 3_050_858, 3_048_025],
        [173_113_716, 173_135_774, 173_126_749],
    ],
    // PtpMany
    [
        [5_124_968, 5_153_395, 5_143_358],
        [3_095_708, 3_108_244, 3_100_044],
        [67_760_965, 67_765_499, 67_774_965],
    ],
    // RmaSinglePassive
    [
        [9_599_398, 9_599_640, 9_601_325],
        [9_599_398, 9_599_640, 9_601_325],
        [69_729_863, 69_732_662, 69_738_086],
    ],
    // RmaManyPassive
    [
        [10_109_405, 10_099_765, 10_108_562],
        [7_617_132, 7_606_895, 7_613_511],
        [70_225_111, 70_236_856, 70_231_695],
    ],
    // RmaSingleActive
    [
        [8_396_075, 8_381_816, 8_404_824],
        [8_396_075, 8_381_816, 8_404_824],
        [67_393_432, 67_399_162, 67_392_527],
    ],
    // RmaManyActive
    [
        [8_027_933, 8_033_077, 8_026_810],
        [7_575_814, 7_566_682, 7_583_328],
        [66_902_199, 66_896_462, 66_908_809],
    ],
];

#[test]
fn interpreter_reproduces_recorded_times() {
    let cfg = MachineConfig::meluxina();
    let cells = cells();
    let mut actual = [[[0u64; ITERATIONS]; 3]; 8];
    for (a, approach) in Approach::ALL.into_iter().enumerate() {
        for (c, (_, sc)) in cells.iter().enumerate() {
            let times = run_scenario(&cfg, SEED, approach, sc);
            for (i, t) in times.iter().enumerate() {
                actual[a][c][i] = t.as_ps();
            }
        }
    }
    if actual != GOLDEN_PS {
        for (a, approach) in Approach::ALL.into_iter().enumerate() {
            for (c, (name, _)) in cells.iter().enumerate() {
                if actual[a][c] != GOLDEN_PS[a][c] {
                    eprintln!(
                        "{:?} / {name}: got {:?} ps, recorded {:?} ps",
                        approach, actual[a][c], GOLDEN_PS[a][c]
                    );
                }
            }
        }
        eprintln!("actual table:\n{actual:?}");
        panic!("strategy timings drifted from the recorded golden values");
    }
}
