//! `pcomm-simmpi` — a simulated MPI runtime over the `pcomm` discrete-event
//! simulator.
//!
//! This crate reproduces, in simulation, the communication machinery that
//! the paper benchmarks on MeluXina:
//!
//! * tag-matched point-to-point with persistent requests ([`p2p`]),
//!   including UCX-like short / eager-bcopy / rendezvous-zcopy protocol
//!   switching;
//! * one-sided windows with active and passive synchronization ([`rma`]);
//! * MPI-4 partitioned communication ([`part`]) in both the legacy
//!   active-message single-message path and the paper's improved
//!   tag-matched multi-message path with gcd message-count negotiation,
//!   message aggregation (`MPIR_CVAR_PART_AGGR_SIZE` analogue) and
//!   round-robin partition→VCI mapping;
//! * the Fig. 3 benchmark template ([`scenario`], [`strategies`]) as an
//!   interpreter over the eight strategy rows of the paper's Tables 1–2
//!   and the [`scenario::Scenario`] they run over, both defined once in
//!   `pcomm_core::strategies` (a scenario's `shards` are its VCIs here).
//!
//! Simulated MPI ranks are async tasks; OpenMP threads within a rank are
//! nested tasks. All timing comes from [`pcomm_netmodel::MachineConfig`].

#![warn(missing_docs)]

mod comm;
pub mod explore;
pub mod p2p;
pub mod part;
pub mod rma;
pub mod scenario;
pub mod strategies;
mod tag;
mod world;

pub use comm::Comm;
// Re-exported so sim users consume the unified trace schema without a
// direct `pcomm-trace` dependency.
pub use pcomm_trace::{Event, EventKind};
// Re-exported so exploration users consume the verification verdicts
// without a direct `pcomm-verify` dependency.
pub use pcomm_verify::VerifyReport;
pub use tag::{Delivered, MatchEngine};
pub use world::World;

/// Internal tag used for clear-to-send control messages.
pub(crate) const TAG_CTS: i64 = -1;
/// Internal tag used for active-target "post" notifications.
pub(crate) const TAG_POST: i64 = -2;
/// Internal tag used for active-target "complete" notifications.
pub(crate) const TAG_COMPLETE: i64 = -3;
