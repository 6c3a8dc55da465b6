//! CI sweep: bounded schedule exploration over all eight strategies.
//!
//! Replays the Fig. 3 scenario under every strategy × a bank of jitter
//! seeds, running the full verification suite (races, deadlock
//! verdicts, protocol lints) on each interleaving. Any finding is a
//! CI failure and prints the seed that reproduces it.
//!
//! `--quick` shrinks the seed bank for the smoke stage; the default
//! sweep is still small enough for an offline CI box.

use std::process::ExitCode;

use pcomm_netmodel::MachineConfig;
use pcomm_simmpi::explore::explore_scenario;
use pcomm_simmpi::scenario::{Approach, Scenario};

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: Vec<u64> = if quick {
        (1..=4).collect()
    } else {
        (1..=8).collect()
    };

    let cfg = MachineConfig::meluxina_quiet();
    let sc = Scenario::immediate(4, 2, 256, 2, 2);

    let mut findings = 0usize;
    let mut runs = 0usize;
    for approach in Approach::ALL {
        let sweep = explore_scenario(&cfg, approach, &sc, &seeds);
        let partitioned = matches!(approach, Approach::PtpPart | Approach::PtpPartOld);
        for r in &sweep {
            runs += 1;
            if partitioned && r.verify_events == 0 {
                eprintln!(
                    "verify_sweep: {} seed {}: partitioned run emitted no verify events",
                    approach.label(),
                    r.seed
                );
                findings += 1;
            }
            if !r.report.is_clean() {
                eprintln!(
                    "verify_sweep: {} seed {} (replay with PCOMM_FAULTS='seed={},jitter'):\n{}",
                    approach.label(),
                    r.seed,
                    r.seed,
                    r.report
                );
                findings += 1;
            }
        }
    }

    if findings == 0 {
        println!(
            "verify_sweep: {} interleavings across {} strategies × {} seeds, all clean",
            runs,
            Approach::ALL.len(),
            seeds.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("verify_sweep: {findings} finding(s) across {runs} interleavings");
        ExitCode::FAILURE
    }
}
