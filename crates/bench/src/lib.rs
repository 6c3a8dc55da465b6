//! `pcomm-bench` — the harness that regenerates every table and figure of
//! *Quantifying the Performance Benefits of Partitioned Communication in
//! MPI* (ICPP 2023).
//!
//! The `figures` binary drives the simulated runtime through the paper's
//! exact scenarios using the paper's measurement protocol (150 iterations,
//! 1 warm-up, 90% Student-t confidence interval, rerun while the half
//! width exceeds 5% of the mean, at most 50 times) and prints the series
//! of each figure alongside CSV files. `benches/simulator.rs` times the
//! simulator itself; the *real* runtime is timed by `benchmark/` (its own
//! package at the repository root) and by nothing here.
//!
//! ```text
//! cargo run --release -p pcomm-bench --bin figures -- all
//! cargo run --release -p pcomm-bench --bin figures -- fig5 --quick
//! ```

#![warn(missing_docs)]

pub mod figures;
pub mod runner;
