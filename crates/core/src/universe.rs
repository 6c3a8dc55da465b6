//! The [`Universe`]: runs ranks over a shared fabric.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pcomm_trace::{EventKind, FaultPlan, Trace, TraceData};

use crate::comm::Comm;
use crate::error::{panic_message, PcommError, RankAborted};
use crate::fabric::Fabric;
use crate::sync::Completion;

/// Default eager/rendezvous switch: MPICH's shared-memory eager limit is
/// of this order; messages above it use the zero-copy handoff path.
pub const DEFAULT_EAGER_MAX: usize = 64 * 1024;

/// Default per-thread trace ring capacity (events retained per thread).
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Watchdog deadline used automatically when a fault plan is configured
/// but no explicit watchdog was requested: a chaos run must never hang.
pub const DEFAULT_CHAOS_WATCHDOG_MS: u64 = 5000;

/// Builder/runner for a multi-rank in-process job.
#[derive(Debug, Clone)]
pub struct Universe {
    n_ranks: usize,
    n_shards: usize,
    eager_max: usize,
    trace: Trace,
    fault_plan: Option<FaultPlan>,
    watchdog_ms: Option<u64>,
}

impl Universe {
    /// A universe of `n_ranks` ranks with one match shard (VCI) per rank.
    pub fn new(n_ranks: usize) -> Universe {
        assert!(n_ranks >= 1, "need at least one rank");
        Universe {
            n_ranks,
            n_shards: 1,
            eager_max: DEFAULT_EAGER_MAX,
            trace: Trace::disabled(),
            fault_plan: None,
            watchdog_ms: None,
        }
    }

    /// Set the number of match shards per rank (the `MPIR_CVAR_NUM_VCIS`
    /// analogue).
    pub fn with_shards(mut self, n_shards: usize) -> Universe {
        assert!(n_shards >= 1, "need at least one shard");
        self.n_shards = n_shards;
        self
    }

    /// Set the eager/rendezvous threshold in bytes.
    pub fn with_eager_max(mut self, eager_max: usize) -> Universe {
        self.eager_max = eager_max;
        self
    }

    /// Attach a trace sink; every fabric and partitioned-communication
    /// event of the run is recorded into it. Use [`Universe::run_traced`]
    /// to get the merged trace back directly.
    pub fn with_trace(mut self, trace: Trace) -> Universe {
        self.trace = trace;
        self
    }

    /// Attach a fault-injection plan: the fabric consults it at every
    /// send/deliver point and injects seeded, reproducible drops, delays,
    /// duplicates, reorders, and `pready` jitter. A watchdog (default
    /// [`DEFAULT_CHAOS_WATCHDOG_MS`]) is armed automatically so an
    /// injected fault can never hang the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Universe {
        self.fault_plan = Some(plan);
        self
    }

    /// Arm the hang watchdog: if the fabric makes no progress for `ms`
    /// milliseconds while some rank is blocked in the runtime, the run
    /// fails with [`PcommError::Stall`] carrying a structured
    /// [`StallReport`](crate::StallReport) instead of hanging forever.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Universe {
        assert!(ms > 0, "watchdog deadline must be positive");
        self.watchdog_ms = Some(ms);
        self
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Run `f` once per rank, each on its own OS thread, and collect the
    /// per-rank results in rank order.
    ///
    /// Failure is data, not a hang or an opaque panic:
    ///
    /// * a rank panic aborts the survivors and returns
    ///   [`PcommError::PeerPanicked`];
    /// * a watchdog-detected hang returns [`PcommError::Stall`] with a
    ///   structured report;
    /// * chaos-injected unrecoverable faults return
    ///   [`PcommError::MessageLost`];
    /// * caught API misuse returns [`PcommError::Misuse`].
    ///
    /// Environment knobs (each ignored when the corresponding builder was
    /// used): `PCOMM_TRACE=<path>` writes a Chrome trace at `<path>` and
    /// its text summary at `<path>.txt` at teardown; `PCOMM_FAULTS=<spec>`
    /// attaches a fault plan (see [`FaultPlan::parse`]);
    /// `PCOMM_WATCHDOG_MS=<ms>` arms the watchdog; `PCOMM_VERIFY=1` runs
    /// the [`pcomm_verify`] analyses (races, deadlock verdicts, protocol
    /// lints) at teardown — findings are printed to stderr and turn an
    /// otherwise successful run into [`PcommError::Misuse`], so a CI job
    /// fails loudly.
    ///
    /// This library never starts processes. When the `PCOMM_NET_*`
    /// environment a launcher wrote (`pcomm-launch`, or
    /// `pcomm_net::launch::launch_ranks` from a program) says this
    /// process is rank *k* and the rank counts agree, the universe joins
    /// the socket mesh and runs only rank *k* here — the closure,
    /// strategies and chaos plans are unchanged. The returned vector
    /// then repeats the local rank's result (hence `T: Clone`); the
    /// `PCOMM_TRACE` path gets a `.rank<k>` suffix (before the summary's
    /// `.txt`) so the processes do not clobber each other's files, and
    /// under `PCOMM_VERIFY=1` each rank leaves a `.events` ring beside
    /// its trace for `pcomm-audit` (`pcomm_verify::audit`) to merge.
    pub fn run<T, F>(&self, f: F) -> Result<Vec<T>, PcommError>
    where
        T: Send + Clone,
        F: Fn(Comm) -> T + Send + Sync,
    {
        let mut u = self.clone();
        if u.fault_plan.is_none() {
            if let Ok(spec) = std::env::var("PCOMM_FAULTS") {
                if !spec.trim().is_empty() {
                    match FaultPlan::parse(&spec) {
                        Ok(plan) => u.fault_plan = Some(plan),
                        Err(e) => eprintln!("pcomm: ignoring invalid PCOMM_FAULTS: {e}"),
                    }
                }
            }
        }
        if u.watchdog_ms.is_none() {
            if let Ok(v) = std::env::var("PCOMM_WATCHDOG_MS") {
                if !v.trim().is_empty() {
                    match v.trim().parse::<u64>() {
                        Ok(ms) if ms > 0 => u.watchdog_ms = Some(ms),
                        _ => eprintln!("pcomm: ignoring invalid PCOMM_WATCHDOG_MS=`{v}`"),
                    }
                }
            }
        }
        // Multiprocess launch detection. Builder-attached traces keep
        // the run in-process (their sink belongs to this process and
        // expects every rank's events); the env-driven trace/verify
        // paths below work per process instead.
        let wire_env = if u.trace.is_enabled() {
            None
        } else {
            match pcomm_net::MultiprocEnv::from_env() {
                Some(env) if env.n_ranks != u.n_ranks => {
                    eprintln!(
                        "pcomm: PCOMM_NET_RANKS={} does not match this universe's {} ranks; \
                         running in-process",
                        env.n_ranks, u.n_ranks
                    );
                    None
                }
                other => other,
            }
        };
        let rank_suffix = |p: String| match &wire_env {
            Some(env) => format!("{p}.rank{}", env.rank),
            None => p,
        };
        let env_json = std::env::var("PCOMM_TRACE")
            .ok()
            .filter(|p| !p.is_empty())
            .map(&rank_suffix);
        let env_verify = std::env::var("PCOMM_VERIFY")
            .map(|v| {
                let v = v.trim().to_string();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false);
        let engine = |trace: Trace| match &wire_env {
            Some(env) => u.run_wire(env, trace, &f),
            None => u.run_on(trace, &f),
        };
        if u.trace.is_enabled() || (env_json.is_none() && !env_verify) {
            return engine(u.trace.clone());
        }
        let trace = if env_verify {
            Trace::ring_verify(DEFAULT_TRACE_CAP)
        } else {
            Trace::ring(DEFAULT_TRACE_CAP)
        };
        let out = engine(trace.clone());
        let data = trace.snapshot().expect("trace was enabled");
        if env_verify {
            // Persist the analysis-grade ring next to the Chrome trace:
            // `pcomm-audit` merges these per-rank `.events` sidecars
            // after a multi-process run. This point is reached on typed
            // failures too (`engine` already returned), so crashed and
            // aborted runs still leave auditable evidence.
            if let Some(path) = &env_json {
                let rank = wire_env.as_ref().map_or(0, |e| e.rank as u16);
                let ev_path = format!("{path}.events");
                if let Err(e) =
                    pcomm_trace::write_events(std::path::Path::new(&ev_path), rank, &data)
                {
                    eprintln!("pcomm: failed to write {ev_path}: {e}");
                }
            }
        }
        if let Some(path) = env_json {
            let json = pcomm_trace::chrome_trace_json(&data.events, data.dropped);
            let report = pcomm_trace::summary_report(&data.events, data.dropped);
            let txt = format!("{path}.txt");
            for (path, text) in [(path, json), (txt, report)] {
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("pcomm: failed to write {path} (PCOMM_TRACE): {e}");
                }
            }
        }
        if env_verify {
            let report = pcomm_verify::analyze(&data.events, data.dropped);
            let clean = report.is_clean();
            if !clean || report.stats.demoted_lints > 0 {
                eprintln!("{report}");
            }
            if !clean && out.is_ok() {
                return Err(PcommError::Misuse {
                    rank: None,
                    detail: format!(
                        "PCOMM_VERIFY: {} findings (see report above)",
                        report.finding_count()
                    ),
                });
            }
        }
        out
    }

    /// Run with verification instrumentation on and return the analysis
    /// report alongside the per-rank results. A verify-capable trace is
    /// attached automatically (the one from [`Universe::with_trace`] is
    /// reused if it was created with
    /// [`Trace::ring_verify`](pcomm_trace::Trace::ring_verify)); at
    /// teardown the captured events run through all three
    /// [`pcomm_verify`] passes — happens-before races, wait-for-graph
    /// deadlock verdicts, and protocol lints. The report is returned
    /// even when the run itself failed: a stalled run's report carries
    /// the deadlock-vs-orphan verdict for the stall.
    pub fn run_verified<T, F>(
        &self,
        f: F,
    ) -> (Result<Vec<T>, PcommError>, pcomm_verify::VerifyReport)
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        let trace = if self.trace.is_verify() {
            self.trace.clone()
        } else {
            Trace::ring_verify(DEFAULT_TRACE_CAP)
        };
        let out = self.run_on(trace.clone(), &f);
        let data = trace.snapshot().expect("trace is enabled");
        (out, pcomm_verify::analyze(&data.events, data.dropped))
    }

    /// Run with the attached trace (see [`Universe::with_trace`]) and
    /// return the per-rank results together with the merged trace data.
    /// Unlike [`Universe::run`], configuration comes only from the
    /// builders — the environment is not consulted — so traced runs are
    /// exactly reproducible.
    pub fn run_traced<T, F>(&self, f: F) -> (Result<Vec<T>, PcommError>, TraceData)
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        let trace = if self.trace.is_enabled() {
            self.trace.clone()
        } else {
            Trace::ring(DEFAULT_TRACE_CAP)
        };
        let out = self.run_on(trace.clone(), &f);
        let data = trace.snapshot().expect("trace is enabled");
        (out, data)
    }

    /// The watchdog deadline in effect: explicit, or the chaos default
    /// when a fault plan is set (a chaos run must never hang).
    fn effective_watchdog_ms(&self) -> Option<u64> {
        self.watchdog_ms
            .or(self.fault_plan.as_ref().map(|_| DEFAULT_CHAOS_WATCHDOG_MS))
    }

    fn run_on<T, F>(&self, trace: Trace, f: &F) -> Result<Vec<T>, PcommError>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        install_quiet_abort_hook();
        let fabric = Fabric::new_configured(
            self.n_ranks,
            self.n_shards,
            self.eager_max,
            trace,
            self.fault_plan.clone(),
            Arc::new(crate::transport::SharedMemTransport),
        );
        let results = run_ranks(&fabric, 0..self.n_ranks, self.effective_watchdog_ms(), f);
        match fabric.take_failure() {
            Some(err) => Err(err),
            None => Ok(results
                .into_iter()
                .map(|r| r.expect("rank produced no result yet no failure was recorded"))
                .collect()),
        }
    }

    /// Run as one rank process of a multiprocess universe: join the
    /// socket mesh, start the progress engine, and run the local rank's
    /// closure on the calling thread.
    fn run_wire<T, F>(
        &self,
        env: &pcomm_net::MultiprocEnv,
        trace: Trace,
        f: &F,
    ) -> Result<Vec<T>, PcommError>
    where
        T: Send + Clone,
        F: Fn(Comm) -> T + Send + Sync,
    {
        install_quiet_abort_hook();
        // The ipc fabric needs a same-host UDS mesh (to pass the memfd),
        // cross-memory attach (`sys::cma_works`), and a fault-free plan
        // (wire chaos is a socket concept: the shared segment has no
        // byte stream to corrupt). Anything else falls back to sockets.
        let want_ipc = pcomm_net::launch::fabric_from_env() == pcomm_net::launch::FabricKind::Ipc;
        let use_ipc = want_ipc
            && pcomm_net::sys::cma_works()
            && env.backend == pcomm_net::Backend::Uds
            && !self
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.any_wire_faults());
        if want_ipc && !use_ipc {
            eprintln!(
                "pcomm: PCOMM_NET_FABRIC=ipc unavailable here \
                 (needs linux x86_64/aarch64, cross-memory attach (CMA), a UDS mesh \
                 and no wire faults); falling back to the socket fabric"
            );
        }
        let cfg = pcomm_net::MeshConfig {
            rank: env.rank,
            n_ranks: env.n_ranks,
            dir: env.dir.clone(),
            backend: env.backend,
            seq: next_multiproc_seq(),
        };
        let mut mesh = pcomm_net::mesh::establish(&cfg).map_err(|e| PcommError::Misuse {
            rank: Some(env.rank),
            detail: format!("multiprocess mesh establishment failed: {e}"),
        })?;
        let transport: Arc<dyn crate::transport::Transport> = if use_ipc {
            let params = pcomm_net::ipc::IpcParams {
                n_ranks: env.n_ranks,
                ring_slots: pcomm_net::launch::DEFAULT_IPC_SLOTS,
                fifo_bytes: pcomm_net::launch::DEFAULT_IPC_SLAB,
                arena_bytes: pcomm_net::launch::DEFAULT_IPC_ARENA,
            };
            let segment = pcomm_net::ipc::bootstrap(&mut mesh, params)
                .map_err(|e| PcommError::misuse(env.rank, e.to_string()))?;
            // The mesh sockets carried the fd exchange; the segment is the wire now.
            drop(mesh);
            Arc::new(crate::transport_ipc::IpcTransport::new(
                segment,
                env.rank,
                env.n_ranks,
            ))
        } else {
            let plan = self.fault_plan.as_ref();
            Arc::new(crate::transport::SocketTransport::new(mesh, cfg, plan)?)
        };
        let fabric = Fabric::new_configured(
            self.n_ranks,
            self.n_shards,
            self.eager_max,
            trace,
            self.fault_plan.clone(),
            Arc::clone(&transport),
        );
        transport.start(&fabric)?;
        let ranks = env.rank..env.rank + 1;
        let result = run_ranks(&fabric, ranks, self.effective_watchdog_ms(), f)
            .pop()
            .flatten();
        fabric.flush_held();
        // Closing barrier, goodbye frames, thread joins — never unwinds.
        fabric.wire().finalize(&fabric);
        match fabric.take_failure() {
            Some(err) => Err(err),
            None => {
                let local = result.expect("rank produced no result yet no failure was recorded");
                Ok(vec![local; self.n_ranks])
            }
        }
    }
}

/// Run `ranks` of `fabric`, with the watchdog supervisor beside them
/// when `watchdog_ms` is set, and return each rank's result in order.
/// A lone rank runs on the calling thread; several get a thread each.
pub(crate) fn run_ranks<T, F>(
    fabric: &Arc<Fabric>,
    ranks: std::ops::Range<usize>,
    watchdog_ms: Option<u64>,
    f: &F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    std::thread::scope(|scope| {
        let supervisor_shutdown = Completion::new();
        let supervisor = watchdog_ms.map(|ms| {
            let shutdown = Arc::clone(&supervisor_shutdown);
            scope.spawn(move || supervise(fabric, &shutdown, ms))
        });
        let results = if ranks.len() == 1 {
            vec![rank_main(fabric, ranks.start, f)]
        } else {
            let handles: Vec<_> = ranks
                .map(|rank| scope.spawn(move || rank_main(fabric, rank, f)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank wrapper never panics"))
                .collect()
        };
        supervisor_shutdown.set();
        if let Some(s) = supervisor {
            s.join().expect("supervisor never panics");
        }
        results
    })
}

/// The shared body of every rank: run the closure under `catch_unwind`,
/// convert unwinds into recorded failures, and emit the per-thread probe
/// statistics when tracing.
fn rank_main<T, F>(fabric: &Arc<Fabric>, rank: usize, f: &F) -> Option<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    let traced = fabric.trace().is_enabled();
    let before = crate::hotpath::thread_stats();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        f(Comm::world(Arc::clone(fabric), rank))
    }));
    let out = match out {
        Ok(v) => Some(v),
        Err(payload) => {
            if payload.downcast_ref::<RankAborted>().is_some() {
                // Casualty of an abort some other rank already recorded;
                // nothing to add.
            } else if let Some(e) = payload.downcast_ref::<PcommError>() {
                fabric.fail(e.clone());
            } else {
                fabric.fail(PcommError::PeerPanicked {
                    rank,
                    message: panic_message(payload.as_ref()),
                });
            }
            None
        }
    };
    fabric.mark_finished(rank);
    if traced {
        // The rank thread's completion-probe tally for this run: how
        // often probes stayed on the single-load fast path vs fell back
        // to spin-then-park.
        let after = crate::hotpath::thread_stats();
        fabric
            .trace()
            .emit(rank as u16, || pcomm_trace::EventKind::ProbeStats {
                fast_probes: after.completion_fast_probes - before.completion_fast_probes,
                slow_waits: after.completion_slow_waits - before.completion_slow_waits,
            });
    }
    out
}

/// Per-process counter of multiprocess universes. All rank processes of
/// an SPMD program execute the same universes in the same order, so the
/// counter yields the same sequence number in each — it names the mesh
/// the processes rendezvous on (`u<seq>.r<rank>` sockets). Bumped only
/// for multiprocess runs so in-process universes never desynchronize it.
fn next_multiproc_seq() -> u64 {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Silence the default panic hook for the runtime's control-flow unwind
/// ([`RankAborted`]): it is always caught by the rank wrapper and the
/// real error surfaced as `Err`, so the default hook's "thread panicked"
/// backtrace would make every clean abort look like a crash. Installed
/// once, wrapping (and otherwise delegating to) the previous hook, so
/// genuine panics still print.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankAborted>().is_none() {
                prev(info);
            }
        }));
    });
}

/// The watchdog supervisor: watches the fabric's activity counter and,
/// when it stays still past the deadline while some thread is blocked in
/// the runtime, records [`PcommError::Stall`] with a structured report
/// and aborts the universe. Reorder hold-backs are flushed after a short
/// quiet period *before* any stall is declared — a held message may be
/// exactly what the blocked ranks are waiting for.
fn supervise(fabric: &Fabric, shutdown: &Completion, watchdog_ms: u64) {
    let interval = Duration::from_millis((watchdog_ms / 4).clamp(10, 250));
    let mut last_activity = fabric.activity();
    let mut quiet_since = Instant::now();
    let mut flushed_this_quiet = false;
    loop {
        if shutdown.wait_timeout(interval) {
            return;
        }
        let now = fabric.activity();
        if now != last_activity {
            last_activity = now;
            quiet_since = Instant::now();
            flushed_this_quiet = false;
            continue;
        }
        let quiet = quiet_since.elapsed();
        if !flushed_this_quiet && quiet >= 2 * interval {
            flushed_this_quiet = true;
            if fabric.flush_held() > 0 {
                continue; // delivered something: that is progress
            }
        }
        if quiet >= Duration::from_millis(watchdog_ms) && fabric.has_blocked_waits() {
            let quiet_ms = quiet.as_millis() as u64;
            let report = fabric.stall_report(watchdog_ms, quiet_ms);
            let blocked = report.blocked.len() as u16;
            fabric.trace().emit(0, || EventKind::StallDetected {
                blocked,
                watchdog_ms,
                quiet_ms,
            });
            // One analysis-grade edge per blocked wait: the wait-for
            // graph the deadlock analyzer builds its cycle search from.
            for b in &report.blocked {
                fabric
                    .trace()
                    .emit_verify(b.rank as u16, || EventKind::VerifyBlocked {
                        peer: b.peer.map(|p| p as u16),
                        tag: b.tag,
                    });
            }
            fabric.fail(PcommError::Stall(Box::new(report)));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_collects_results_in_rank_order() {
        let out = Universe::new(4).run(|comm| comm.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn comm_world_properties() {
        let sizes = Universe::new(3)
            .run(|comm| (comm.rank(), comm.size()))
            .unwrap();
        assert_eq!(sizes, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        Universe::new(4)
            .run(|comm| {
                arrived.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                assert_eq!(arrived.load(Ordering::SeqCst), 4);
            })
            .unwrap();
    }

    #[test]
    fn rank_panic_becomes_peer_panicked() {
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("deliberate test panic");
                }
            })
            .unwrap_err();
        match err {
            PcommError::PeerPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate test panic"), "{message}");
            }
            other => panic!("expected PeerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_unblocks_peers_waiting_on_it() {
        // Rank 1 dies before sending; rank 0 is blocked in recv. Without
        // abort propagation this deadlocks; with it, run() returns.
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let mut b = [0u8; 1];
                    comm.recv_into(Some(1), Some(7), &mut b);
                } else {
                    panic!("rank 1 dies before sending");
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, PcommError::PeerPanicked { rank: 1, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn run_traced_captures_fabric_events() {
        let (out, data) = Universe::new(2).run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1, 2, 3]);
            } else {
                let mut b = [0u8; 3];
                comm.recv_into(Some(0), Some(1), &mut b);
            }
            comm.rank()
        });
        assert_eq!(out.unwrap(), vec![0, 1]);
        assert!(
            data.events
                .iter()
                .any(|e| matches!(e.kind, pcomm_trace::EventKind::EagerSend { .. })),
            "expected an eager send in the trace, got {} events",
            data.events.len()
        );
    }

    #[test]
    fn traced_run_emits_per_rank_probe_stats() {
        let (_, data) = Universe::new(2).run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1]);
            } else {
                let mut b = [0u8; 1];
                comm.recv_into(Some(0), Some(1), &mut b);
            }
        });
        let stats: Vec<u16> = data
            .events
            .iter()
            .filter(|e| matches!(e.kind, pcomm_trace::EventKind::ProbeStats { .. }))
            .map(|e| e.rank)
            .collect();
        assert_eq!(stats.len(), 2, "one ProbeStats event per rank");
        assert!(stats.contains(&0) && stats.contains(&1));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Universe::new(0);
    }

    #[test]
    fn run_verified_clean_partitioned_roundtrip() {
        use crate::part::PartOptions;
        let (out, report) = Universe::new(2).with_shards(2).run_verified(|comm| {
            if comm.rank() == 0 {
                let psend = comm.psend_init(1, 7, 4, 256, PartOptions::default());
                psend.start();
                for p in 0..4 {
                    psend.write_partition(p, |buf| buf.fill(p as u8));
                    psend.pready(p);
                }
                psend.wait();
            } else {
                let precv = comm.precv_init(0, 7, 4, 256, PartOptions::default());
                precv.start();
                precv.wait();
                assert_eq!(precv.partition(3)[0], 3);
            }
        });
        out.unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.stats.verify_events > 0, "instrumentation was on");
        assert_eq!(report.stats.requests, 1);
    }

    #[test]
    fn run_verified_returns_deadlock_verdict_on_stall() {
        // Two ranks each wait for a message the other never sends: the
        // watchdog stalls out and the analyzer must upgrade the stall to
        // an exact cycle verdict.
        let (out, report) = Universe::new(2).with_watchdog_ms(150).run_verified(|comm| {
            let peer = 1 - comm.rank();
            let mut b = [0u8; 1];
            comm.recv_into(Some(peer), Some(5), &mut b);
        });
        assert!(
            matches!(out, Err(PcommError::Stall(_))),
            "expected a stall, got {out:?}"
        );
        assert!(
            report
                .deadlocks
                .iter()
                .any(|d| matches!(d, pcomm_verify::DeadlockFinding::Cycle { .. })),
            "{report}"
        );
    }
}
