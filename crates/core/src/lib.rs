//! `pcomm-core` — a real multithreaded in-process message-passing runtime
//! with MPI-4 partitioned-communication semantics.
//!
//! Where `pcomm-simmpi` reproduces the paper's *timing* in a simulator,
//! this crate reproduces its *mechanics* with actual OS threads, locks and
//! atomics, so the phenomena the paper measures — lock contention between
//! sending threads, per-partition atomic counter updates, the early-bird
//! effect of sending a partition the moment its last `pready` lands — are
//! physically real and measurable with `cargo bench`.
//!
//! # Model
//!
//! * A [`Universe`] hosts `n` ranks, each an OS thread, connected by a
//!   shared-memory fabric with tag matching.
//! * A [`Comm`] is a communicator: isolated matching context plus a *match
//!   shard* (the VCI analogue — a lane with its own lock). `dup()` maps
//!   the new communicator to the next shard round-robin, exactly the
//!   MPICH VCI trick the paper leans on (Figs. 5–6).
//! * Small messages travel eagerly (copy in, copy out — the bcopy path);
//!   large messages rendezvous (the sender parks until a receiver copies
//!   directly from its buffer — the zcopy path).
//! * [`part`] implements partitioned send/recv with real per-message
//!   atomic counters, gcd message-count negotiation and aggregation
//!   (paper §3.2), plus the legacy single-message mode. An in-process
//!   pair is bound once, at init: a ready message is copied straight
//!   into the receiver's buffer instead of being tag-matched.
//! * [`rma`] implements windows over shared memory with active and
//!   passive synchronization.
//!
//! # Quickstart
//!
//! ```
//! use pcomm_core::{Universe, part::PartOptions};
//!
//! // Two ranks; rank 0 sends a 4-partition buffer to rank 1.
//! Universe::new(2).with_shards(4).run(|comm| {
//!     if comm.rank() == 0 {
//!         let psend = comm.psend_init(1, 7, 4, 1024, PartOptions::default());
//!         psend.start();
//!         for p in 0..4 {
//!             psend.write_partition(p, |buf| buf.fill(p as u8));
//!             psend.pready(p);
//!         }
//!         psend.wait();
//!     } else {
//!         let precv = comm.precv_init(0, 7, 4, 1024, PartOptions::default());
//!         precv.start();
//!         precv.wait();
//!         assert_eq!(precv.partition(2)[0], 2);
//!     }
//! }).unwrap();
//! ```
//!
//! Failure is data: [`Universe::run`] returns `Result<Vec<T>,
//! PcommError>`, and with a seeded [`FaultPlan`] (or `PCOMM_FAULTS` in
//! the environment) the fabric injects reproducible message drops,
//! delays, duplicates and reorders while a watchdog turns any hang into
//! a structured [`StallReport`].

#![warn(missing_docs)]

mod comm;
mod error;
mod fabric;
pub mod hotpath;
pub mod p2p;
pub mod part;
pub mod rma;
pub mod strategies;
pub mod sync;
mod transport;
mod transport_ipc;
mod universe;
mod wire;

pub use comm::Comm;
pub use error::{BlockedWait, DoorbellStats, PcommError, PeerSocketState, QueueEntry, StallReport};
pub use fabric::MsgInfo;
pub use transport::HEARTBEAT_MS;
pub use universe::{Universe, DEFAULT_CHAOS_WATCHDOG_MS};

// Chaos configuration is shared with the simulator via `pcomm-trace`;
// re-export it so runtime users need only this crate.
pub use pcomm_trace::{FaultKind, FaultPlan};

// The verification layer's report type, returned by
// [`Universe::run_verified`]; re-exported so runtime users need only
// this crate.
pub use pcomm_verify::VerifyReport;
