//! `pcomm-net` — the inter-process half of the pcomm transport layer.
//!
//! This crate is deliberately free of any dependency on `pcomm-core`: it
//! only knows about bytes, sockets and processes. It provides
//!
//! * [`frame`] — the versioned, length-prefixed wire protocol every
//!   backend speaks (eager payloads, RTS/CTS rendezvous, barrier,
//!   one-sided put/get, abort/shutdown);
//! * [`endpoint`] — a stream abstraction over Unix domain sockets and
//!   TCP loopback, so the progress engine is backend-agnostic;
//! * [`mesh`] — full-mesh connection establishment between the rank
//!   processes of one universe, rendezvousing through a shared
//!   directory;
//! * [`faults`] — seeded wire-level fault injection (torn writes,
//!   short reads, garbage, resets, lane kill, half-open death) for
//!   chaos runs, wrapped around any endpoint;
//! * [`launch`] — the `PCOMM_NET_*` environment contract between a
//!   launcher and the rank processes, plus the one way to start ranks
//!   (the `pcomm-launch` binary and every multi-process test harness
//!   spawn through it; `pcomm-core` only reads the environment).
//!
//! The matching in-process glue — the `Transport` seam and the socket
//! carrier that owns these sockets and their `epoll` loop ([`sys`]) —
//! lives in `pcomm-core`, which depends on this crate.

#![warn(missing_docs)]

pub mod endpoint;
pub mod faults;
pub mod frame;
pub mod ipc;
pub mod launch;
pub mod mesh;
pub mod sys;

pub use endpoint::Endpoint;
pub use faults::{WireFault, WireFaults};
pub use frame::Frame;
pub use launch::MultiprocEnv;
pub use mesh::{Backend, Mesh, MeshConfig};
