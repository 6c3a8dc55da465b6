//! Audit the persisted per-rank `.events` rings of a multi-process run.
//!
//! ```text
//! pcomm-audit <rank0.events> <rank1.events> ...
//! ```
//!
//! Reads every `.events` sidecar (written next to the Chrome trace when
//! `PCOMM_TRACE` and `PCOMM_VERIFY=1` are set), merges them into one
//! global order, and runs the wire-FSM, stream-ledger, and
//! cross-process happens-before passes. The full report goes to
//! stdout.
//!
//! Exit status: 0 when the run audits clean, 1 when any finding
//! survived, 2 on usage or input errors.

use std::process::ExitCode;

const USAGE: &str = "usage: pcomm-audit <file.events>...";

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut ranks = Vec::new();
    for f in &files {
        match pcomm_trace::read_events(std::path::Path::new(f)) {
            Ok(r) => ranks.push(r),
            Err(e) => {
                eprintln!("pcomm-audit: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = pcomm_verify::audit(&ranks);
    print!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
