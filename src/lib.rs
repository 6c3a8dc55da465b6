//! # pcomm — Partitioned Communication in MPI, reproduced in Rust
//!
//! A full reproduction of *Quantifying the Performance Benefits of
//! Partitioned Communication in MPI* (Gillis, Raffenetti, Zhou, Guo,
//! Thakur — ICPP 2023): the MPI-4 partitioned-communication machinery the
//! paper improves in MPICH, the seven MPI-3.1 strategies it compares
//! against, the analytical performance model of §2.2/Appendix A, and the
//! benchmark harness that regenerates every figure.
//!
//! The workspace is layered:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `pcomm-core` | **real** multithreaded in-process runtime: tag matching, eager/rendezvous, RMA windows, partitioned requests with real atomic counters and early-bird sends |
//! | [`simcore`] | `pcomm-simcore` | deterministic discrete-event async executor on virtual time |
//! | [`netmodel`] | `pcomm-netmodel` | MeluXina-calibrated cost model: UCX-style protocols, VCIs, contention |
//! | [`simmpi`] | `pcomm-simmpi` | simulated MPI runtime + the eight benchmark strategies of Tables 1–2 |
//! | [`perfmodel`] | `pcomm-perfmodel` | closed-form gain/delay model (eqs. 1–9) and the paper's measurement statistics |
//! | [`workloads`] | `pcomm-workloads` | compute/delay generators (Gaussian noise model, FFT/stencil presets) |
//! | [`prng`] | `pcomm-prng` | deterministic xoshiro256++ / Gaussian sampling |
//! | [`trace`] | `pcomm-trace` | unified low-overhead tracing: typed events, per-thread rings, Chrome JSON + summary exporters |
//! | [`net`] | `pcomm-net` | inter-process transport: versioned wire framing, UDS/TCP endpoints, mesh rendezvous, `pcomm-launch` |
//!
//! ## Quickstart (real runtime)
//!
//! ```
//! use pcomm::core::{Universe, part::PartOptions};
//!
//! Universe::new(2).with_shards(4).run(|comm| {
//!     if comm.rank() == 0 {
//!         let psend = comm.psend_init(1, 7, 4, 1024, PartOptions::default());
//!         psend.start();
//!         for p in 0..4 {
//!             psend.write_partition(p, |buf| buf.fill(p as u8));
//!             psend.pready(p); // early-bird: sends as soon as ready
//!         }
//!         psend.wait();
//!     } else {
//!         let precv = comm.precv_init(0, 7, 4, 1024, PartOptions::default());
//!         precv.start();
//!         precv.wait();
//!         assert_eq!(precv.partition(3)[0], 3);
//!     }
//! }).unwrap();
//! ```
//!
//! ## Quickstart (simulator + model)
//!
//! ```
//! use pcomm::netmodel::MachineConfig;
//! use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};
//! use pcomm::perfmodel::eta_large;
//!
//! // 4 threads × 1 partition of 4 KiB, 1 VCI, 3 iterations.
//! let sc = Scenario::immediate(4, 1, 4096, 1, 3);
//! let times = run_scenario(&MachineConfig::meluxina_quiet(), 0, Approach::PtpPart, &sc);
//! assert_eq!(times.len(), 3);
//! // Theoretical early-bird gain for γ = 100 µs/MB, N = 4, β = 25 GB/s:
//! assert!((eta_large(4, 1, 1e-10, 25e9) - 8.0 / 3.0).abs() < 1e-9);
//! ```

pub use pcomm_core as core;
pub use pcomm_net as net;
pub use pcomm_netmodel as netmodel;
pub use pcomm_perfmodel as perfmodel;
pub use pcomm_prng as prng;
pub use pcomm_simcore as simcore;
pub use pcomm_simmpi as simmpi;
pub use pcomm_trace as trace;
pub use pcomm_workloads as workloads;
