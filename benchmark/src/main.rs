//! `pcomm-benchmark` — the repo's one performance instrument.
//!
//! `--workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]` runs
//! one workload as an odd number of *epochs* — each a fresh universe in
//! fresh, pinned rank processes doing fixed iteration counts — checks
//! every validated byte, and prints the better quartile over epochs of
//! each timing; the last line of standard output is the result object.
//! See `README.md` beside this package.

mod epoch;
mod probes;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pcomm_core::strategies::{measure_validated, RealApproach};
use pcomm_core::Universe;
use pcomm_net::launch::{ENV_BACKEND, ENV_DIR, ENV_FABRIC, ENV_RANK, ENV_RANKS};
use pcomm_net::MultiprocEnv;

use epoch::{EpochSpec, Launcher, Mode};
use procfs::Host;
use report::{result_line, trace_json, EpochOut, Metric, RankOut};
use spans::{Clock, Recorder};
use stats::{better_quartile, disagreement_pct, iqr_share_pct, median, spread_pct};
use workloads::{
    approach_key, expected_part_digest, find, part_rank, pipeline_model, scenario, steps,
    strategies_epoch, Counts, Fabric, Kind, Workload, STRATEGY_VALIDATED_ITERS, WORKLOADS,
};

/// `--seconds` at which the table's iteration counts apply; other values
/// scale the timed counts in proportion (never a time box: the work of a
/// run is fixed by its arguments, so it is identical on two commits).
const NOMINAL_SECONDS: f64 = 20.0;
/// Epochs of each phase of a traced run.
const TRACE_EPOCHS: usize = 3;
/// Spans one rank may record in one traced epoch, warm-up included.
const SPAN_BUDGET: usize = 10_000;
/// No epoch starts once a run's epochs have taken this long, so a run of
/// hanging epochs still ends inside the contract's 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(140);
/// Iterations of the traced `Part` loop the probe epoch runs on the
/// partition shape of a strategy-kind workload.
const SHAPE_PROBE: Counts = Counts {
    warm: 50,
    timed: 200,
};

const USAGE: &str = "usage: pcomm-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick]
       pcomm-benchmark --calibrate <K> [--seed <u64>] [--seconds <n>]
workloads: small_shm stream_ipc pipeline_uds (in BENCHMARK.json), small_ipc stream_uds strategies_ipc (by name only)";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    calibrate: Option<usize>,
    // Rank-process arguments, set by the parent only.
    child: Option<Mode>,
    warm: usize,
    timed: usize,
    traced: bool,
    t0: u128,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = num(flag, value("a u64")?)?,
            "--seconds" => a.seconds = Some(num(flag, value("a number")?)?),
            "--calibrate" => a.calibrate = Some(num(flag, value("a count")?)?),
            "--quick" => a.quick = true,
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--child" => {
                let m = value("a mode")?;
                a.child = Some(Mode::parse(&m).ok_or(format!("unknown child mode `{m}`"))?);
            }
            "--warm" => a.warm = num(flag, value("a count")?)?,
            "--timed" => a.timed = num(flag, value("a count")?)?,
            "--traced" => a.traced = value("0 or 1")? == "1",
            "--t0" => a.t0 = num(flag, value("nanoseconds")?)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(s) = a.seconds {
        if !(s.is_finite() && s > 0.0) {
            return Err("--seconds must be positive".into());
        }
    }
    if a.calibrate.is_some_and(|k| k < 3) {
        return Err("--calibrate needs at least 3 sets".into());
    }
    Ok(a)
}

/// The benchmark measures defaults: any `PCOMM_*` variable other than
/// the launcher's own would tune the library under it.
fn foreign_pcomm_vars() -> Vec<String> {
    let own = [ENV_RANK, ENV_RANKS, ENV_DIR, ENV_BACKEND, ENV_FABRIC];
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("PCOMM_") && !own.contains(&k.as_str()))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pcomm-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = args.child {
        return child_main(mode, &args);
    }
    let foreign = foreign_pcomm_vars();
    if !foreign.is_empty() {
        eprintln!(
            "pcomm-benchmark: refusing to run with {} set: the benchmark measures the library's defaults",
            foreign.join(", ")
        );
        return ExitCode::from(2);
    }
    let bench = match Bench::new(&args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pcomm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(sets) = args.calibrate {
        return bench.calibrate(sets, args.seed);
    }
    let Some(w) = args.workload.as_deref().and_then(find) else {
        eprintln!("pcomm-benchmark: --workload names none of the six workloads\n{USAGE}");
        return ExitCode::from(2);
    };
    bench.header(w.name, args.seed);
    let outcome = if args.trace {
        bench.traced_run(w, args.seed)
    } else {
        bench.run(w, args.seed)
    };
    match outcome {
        Ok(r) => {
            println!("{}", r.note);
            for m in &r.metrics {
                println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(r.attempted, r.failed, r.failed == 0, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pcomm-benchmark: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------ parent --

/// The three kinds of epoch: the workload untraced, the workload with
/// spans recorded, and the probe phases.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Plain,
    Traced,
    Probe,
}

/// What one run of one workload yields.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// One line for the reader: epoch counts and the per-epoch medians.
    note: String,
}

struct Bench {
    launcher: Launcher,
    host: Host,
    seconds: f64,
    quick: bool,
}

/// The digest a correct epoch reports. `Part`: computed here without
/// the library. Strategy kinds: the in-process (`shm`) digest of the
/// same scenario, which every strategy on every fabric must equal.
fn expected_digest(w: &Workload, counts: Counts, seed: u64) -> u64 {
    match w.kind {
        Kind::Part => expected_part_digest(w, counts, seed),
        _ => {
            measure_validated(
                w.approaches()[0],
                &scenario(w, seed, STRATEGY_VALIDATED_ITERS),
            )
            .1
        }
    }
}

/// Iterations (validated ones included) one epoch attempts.
fn ops_per_epoch(w: &Workload, counts: Counts) -> u64 {
    match w.kind {
        Kind::Part => steps(counts.warm + counts.timed).len() as u64,
        _ => (counts.warm + counts.timed + STRATEGY_VALIDATED_ITERS) as u64,
    }
}

/// Median over the epochs that carry `key`; `None` when none does.
fn med<'a>(epochs: impl IntoIterator<Item = &'a EpochOut>, key: &str) -> Option<f64> {
    let v: Vec<f64> = epochs.into_iter().filter_map(|e| e.get(key)).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// The four gated numbers of one epoch.
fn end_to_end(e: &EpochOut) -> Option<[f64; 4]> {
    Some([
        e.get("iter.p50_us")?,
        e.get("iter.bytes")? * e.get("iter.samples")? / e.get("iter.sum_us")?,
        e.get("rss.hwm_kb")? / 1024.0,
        e.get("setup.done_us")? / 1e6,
    ])
}

/// How the per-epoch values of an end-to-end metric become the run's.
#[derive(Debug, Clone, Copy)]
enum Over {
    /// The quartile on the good side (see [`better_quartile`]).
    BetterQuartile { higher_is_better: bool },
    /// A peak is a peak: the UDS pipeline's high-water mark is 5.9 or
    /// 7.9 MB epoch by epoch, and any quantile of that flips from run
    /// to run.
    Max,
}

const END_TO_END: [(&str, &str, Over); 4] = [
    (
        "iter_p50_us",
        "us",
        Over::BetterQuartile {
            higher_is_better: false,
        },
    ),
    (
        "goodput_mbps",
        "MB/s",
        Over::BetterQuartile {
            higher_is_better: true,
        },
    ),
    ("peak_rss_mb", "MB", Over::Max),
    (
        "setup_s",
        "s",
        Over::BetterQuartile {
            higher_is_better: false,
        },
    ),
];

impl Bench {
    fn new(args: &Args) -> Result<Bench, String> {
        let host = Host::detect();
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Bench {
            launcher: Launcher {
                exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
                out_dir,
                pin: host.taskset,
                cpus: host.cpus.clone(),
            },
            host,
            seconds: args.seconds.unwrap_or(NOMINAL_SECONDS),
            quick: args.quick,
        })
    }

    fn header(&self, workload: &str, seed: u64) {
        println!(
            "pcomm-benchmark workload={workload} seed={seed} seconds={} quick={} pinned={} nproc={} \
             taskset={} kernel={} llc={} commit={}",
            self.seconds,
            u8::from(self.quick),
            u8::from(self.launcher.pin),
            self.host.cpus.len(),
            u8::from(self.host.taskset),
            self.host.kernel,
            self.host.llc,
            commit().unwrap_or_else(|| "unknown".into()),
        );
        if !self.launcher.pin {
            println!("note: taskset is missing, ranks run unpinned; numbers are not comparable with pinned runs");
        }
    }

    /// Epoch count and per-epoch iteration counts of a run.
    fn plan(&self, w: &Workload) -> (usize, Counts) {
        if self.quick {
            let two_pct = |n: usize| (n / 50).max(2);
            return (
                1,
                Counts {
                    warm: two_pct(w.warm),
                    timed: two_pct(w.timed),
                },
            );
        }
        let timed = (w.timed as f64 * self.seconds / NOMINAL_SECONDS).round() as usize;
        (
            w.epochs,
            Counts {
                warm: w.warm,
                timed: timed.max(2),
            },
        )
    }

    /// Ten times what the epoch took on the sizing box, plus slack:
    /// generous for a healthy epoch, short enough that hung ones cannot
    /// use up the run (see [`RUN_BUDGET`]).
    fn deadline(w: &Workload, counts: Counts) -> Duration {
        let sized_us = (counts.warm + counts.timed) * w.iter_us;
        Duration::from_secs(8) + Duration::from_micros(10 * sized_us as u64)
    }

    /// Run `n` epochs of one phase; a failed one is reported and counted,
    /// not retried. An epoch of the workload fails too when its digest
    /// is not the expected one.
    fn epochs(
        &self,
        w: &Workload,
        phase: Phase,
        counts: Counts,
        seed: u64,
        n: usize,
    ) -> (Vec<EpochOut>, usize) {
        let (mode, traced, tag) = match phase {
            Phase::Plain => (Mode::Epoch, false, "plain"),
            Phase::Traced => (Mode::Epoch, true, "traced"),
            Phase::Probe => (Mode::Probes, true, "probe"),
        };
        let expect = (mode == Mode::Epoch).then(|| expected_digest(w, counts, seed));
        let started = Instant::now();
        let mut good = Vec::new();
        let mut failed = 0;
        for e in 0..n {
            if started.elapsed() > RUN_BUDGET {
                eprintln!(
                    "pcomm-benchmark: {} epoch {tag}{e}: not started, the run is out of time",
                    w.name
                );
                failed += 1;
                continue;
            }
            let spec = EpochSpec {
                workload: w,
                mode,
                counts,
                traced,
                seed,
                label: format!("{tag}{e}"),
            };
            match self.launcher.run(&spec, Self::deadline(w, counts)) {
                Ok(out) if expect.is_none() || out.digest == expect => good.push(out),
                Ok(out) => {
                    failed += 1;
                    eprintln!(
                        "pcomm-benchmark: {} epoch {tag}{e}: digest {:x?} differs from the expected {:x?}",
                        w.name, out.digest, expect
                    );
                }
                Err(err) => {
                    failed += 1;
                    eprintln!("pcomm-benchmark: {} epoch {tag}{e}: {err}", w.name);
                }
            }
        }
        (good, failed)
    }

    /// An untraced run: the four end-to-end metrics.
    fn run(&self, w: &Workload, seed: u64) -> Result<RunResult, String> {
        let (n, counts) = self.plan(w);
        let (good, failed) = self.epochs(w, Phase::Plain, counts, seed, n);
        let per_epoch: Vec<[f64; 4]> = good.iter().filter_map(end_to_end).collect();
        if per_epoch.is_empty() {
            return Err("no epoch completed".into());
        }
        let column = |i: usize| per_epoch.iter().map(|m| m[i]).collect::<Vec<f64>>();
        let p50s = column(0);
        let note = format!(
            "epochs={n} failed={failed} warm={} timed={} ({:.2} s an epoch) per-epoch iter_p50_us: {} (spread {:.2} %)",
            counts.warm,
            counts.timed,
            med(&good, "iter.sum_us").unwrap_or(0.0) / 1e6,
            p50s.iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            spread_pct(&p50s)
        );
        let metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit, over))| Metric {
                name: name.to_string(),
                unit,
                value: match *over {
                    Over::BetterQuartile { higher_is_better } => {
                        better_quartile(&column(i), higher_is_better)
                    }
                    Over::Max => column(i).into_iter().fold(0.0, f64::max),
                },
            })
            .collect();
        let ops = ops_per_epoch(w, counts);
        Ok(RunResult {
            attempted: ops * n as u64,
            failed: ops * failed as u64,
            metrics,
            note,
        })
    }

    /// A traced run: the per-layer ledger. Three untraced epochs give
    /// the tails, process counters and set-up breakdown; three traced
    /// ones the spans around every public call; one probe epoch prices
    /// each layer on this fabric. Nothing here feeds an end-to-end metric.
    fn traced_run(&self, w: &Workload, seed: u64) -> Result<RunResult, String> {
        let (_, counts) = self.plan(w);
        let n = if self.quick { 1 } else { TRACE_EPOCHS };
        let (plain, failed_plain) = self.epochs(w, Phase::Plain, counts, seed, n);

        // Cap the traced loop so a rank's spans stay within budget: an
        // iteration records up to `n_parts + 5` of them, warm or timed.
        let cap = SPAN_BUDGET / (w.n_parts() + 5);
        let warm = counts.warm.min(cap / 4);
        let traced_counts = Counts {
            warm,
            timed: counts.timed.min(cap - warm),
        };
        let (traced, failed_traced) = self.epochs(w, Phase::Traced, traced_counts, seed, n);
        let (probe, failed_probe) = self.epochs(w, Phase::Probe, SHAPE_PROBE, seed, 1);
        if plain.is_empty() || traced.is_empty() || probe.is_empty() {
            return Err("a phase of the traced run completed no epoch".into());
        }

        let spans: Vec<_> = traced
            .iter()
            .chain(&probe)
            .flat_map(|e| e.spans.iter().cloned())
            .collect();
        let path = self.launcher.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, trace_json(w.name, &spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let note = format!("spans={} written to {}", spans.len(), path.display());

        let metrics = layer_metrics(w, &plain, &traced, &probe)
            .ok_or("a ledger value is missing from the reports")?;
        let ops = ops_per_epoch(w, counts);
        let traced_ops = ops_per_epoch(w, traced_counts);
        Ok(RunResult {
            attempted: (ops + traced_ops) * n as u64 + 1,
            failed: ops * failed_plain as u64
                + traced_ops * failed_traced as u64
                + failed_probe as u64,
            metrics,
            note,
        })
    }

    /// `sets` full sets back to back, each workload once per set with a
    /// seed of its own; prints the calibration table as markdown.
    fn calibrate(&self, sets: usize, seed: u64) -> ExitCode {
        self.header("all", seed);
        println!();
        println!("| workload | metric | median | quartile distance / median | largest disagreement | values |");
        println!("|---|---|---:|---:|---:|---|");
        let mut failed = 0;
        for w in &WORKLOADS {
            let mut values: [Vec<f64>; 4] = Default::default();
            for k in 0..sets {
                match self.run(w, seed + k as u64) {
                    Ok(r) => {
                        failed += r.failed;
                        for (slot, m) in values.iter_mut().zip(&r.metrics) {
                            slot.push(m.value);
                        }
                    }
                    Err(e) => {
                        eprintln!("pcomm-benchmark: {} set {k}: {e}", w.name);
                        failed += 1;
                    }
                }
            }
            for ((name, unit, _), v) in END_TO_END.iter().zip(&values) {
                if v.len() < 2 {
                    continue;
                }
                println!(
                    "| {}{} | {name} ({unit}) | {:.4} | {:.2} % | {:.2} % | {} |",
                    w.name,
                    if w.gated { "" } else { " (not gated)" },
                    median(v),
                    iqr_share_pct(v),
                    disagreement_pct(v),
                    v.iter()
                        .map(|x| format!("{x:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
            }
        }
        println!("\nfailed ops over all sets: {failed}");
        if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The ledger of a traced run, in `BENCHMARK.json`'s order. `plain` are
/// the untraced epochs, `traced` the span-recording ones, `probe` the
/// probe epoch. Per-call `part.*` rows come from whichever of the two
/// ran the traced `Part` loop: the workload itself, or the probe epoch
/// on the workload's partition shape for the strategy kinds.
fn layer_metrics(
    w: &Workload,
    plain: &[EpochOut],
    traced: &[EpochOut],
    probe: &[EpochOut],
) -> Option<Vec<Metric>> {
    let span_ns = |name: &str| med(traced.iter().chain(probe), &format!("span.{name}.p50_ns"));
    let iters = med(plain, "iter.samples")?;
    let per_iter = |key: &str| Some(med(plain, key)? / iters);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        m.push(Metric {
            name: name.to_string(),
            unit,
            value,
        })
    };

    put("universe.bringup_us", "us", med(plain, "setup.bringup_us")?);
    put("part.init_us", "us", med(plain, "setup.init_us")?);
    put(
        "part.first_iter_us",
        "us",
        med(plain, "setup.first_iter_us")?,
    );
    put("part.start_send_ns", "ns", span_ns("part.start_send")?);
    put("part.pready_ns", "ns", span_ns("part.pready")?);
    put("part.start_recv_ns", "ns", span_ns("part.start_recv")?);
    put(
        "part.parrived_probe_ns",
        "ns",
        span_ns("part.parrived_sweep")? / w.n_parts() as f64,
    );
    put("part.send_wait_us", "us", span_ns("part.send_wait")? / 1e3);
    put("part.recv_wait_us", "us", span_ns("part.recv_wait")? / 1e3);
    put(
        "part.first_arrival_us",
        "us",
        span_ns("part.first_arrival")? / 1e3,
    );
    let either = |key: &str| med(plain.iter().chain(probe), key);
    put(
        "fabric.msgs_per_iter",
        "count",
        either("fabric.msgs_per_iter")?,
    );
    put("comm.barrier_us", "us", span_ns("comm.barrier")? / 1e3);
    put("p2p.eager_rtt_us", "us", span_ns("p2p.eager_rtt")? / 1e3);
    put("p2p.rdv_rtt_us", "us", span_ns("p2p.rdv_rtt")? / 1e3);
    put("rma.put_us", "us", span_ns("rma.put")? / 1e3);
    put("rma.epoch_us", "us", span_ns("rma.epoch")? / 1e3);
    put("frame.encode_ns", "ns", med(probe, "frame.encode_ns")?);
    put("frame.decode_ns", "ns", med(probe, "frame.decode_ns")?);
    for approach in RealApproach::ALL {
        let key = approach_key(approach);
        put(
            &format!("strategies.{key}.overhead_p50_us"),
            "us",
            med(probe, &format!("strat.{key}.p50_us"))?,
        );
    }
    // `measure` reports the receiver-side time with the injected compute
    // subtracted, which is what the model's T_b and T_p are; η is their
    // ratio. The bulk time-to-solution row adds the compute back so it
    // reads against `iter_p50_us` of `pipeline_uds`.
    let bulk = med(probe, "pipe.bulk_overhead_us")?;
    put(
        "strategies.t_bulk_p50_us",
        "us",
        bulk + med(probe, "pipe.max_delay_us")?,
    );
    put(
        "strategies.eta_measured",
        "ratio",
        bulk / med(probe, "pipe.pipelined_overhead_us")?,
    );
    // β as measured: the bulk transfer's bytes over its overhead.
    let shape = find("pipeline_uds")?;
    let beta = med(probe, "pipe.bytes")? / (bulk * 1e-6);
    put(
        "perfmodel.eta_predicted",
        "ratio",
        pcomm_perfmodel::eta_large(
            shape.n_threads as u64,
            shape.theta as u64,
            pipeline_model().gamma(shape.theta as u64),
            beta,
        ),
    );
    let user = per_iter("proc.user_us")?;
    let sys = per_iter("proc.sys_us")?;
    put("proc.cpu_us_per_iter", "us", user + sys);
    put("proc.user_us_per_iter", "us", user);
    put("proc.sys_us_per_iter", "us", sys);
    put(
        "proc.vol_ctxsw_per_iter",
        "count",
        per_iter("proc.vol_ctxsw")?,
    );
    put(
        "proc.invol_ctxsw_per_iter",
        "count",
        per_iter("proc.invol_ctxsw")?,
    );
    put(
        "proc.minor_faults_per_iter",
        "count",
        per_iter("proc.minor_faults")?,
    );
    // Strategy kinds bring their universes up inside `measure`, out of the
    // harness's sight; their thread count is the shape probe's.
    put(
        "proc.threads_per_rank",
        "count",
        either("proc.threads")? / 2.0,
    );
    put("tail.iter_p25_us", "us", med(plain, "iter.p25_us")?);
    put("tail.iter_p90_us", "us", med(plain, "iter.p90_us")?);
    put("tail.iter_p99_us", "us", med(plain, "iter.p99_us")?);
    let maxes: Vec<f64> = plain.iter().filter_map(|e| e.get("iter.max_us")).collect();
    put(
        "tail.iter_max_us",
        "us",
        maxes.iter().copied().fold(0.0, f64::max),
    );
    put(
        "tail.samples",
        "count",
        plain.iter().filter_map(|e| e.get("iter.samples")).sum(),
    );
    let p50s: Vec<f64> = plain.iter().filter_map(|e| e.get("iter.p50_us")).collect();
    put("epoch.p50_spread_pct", "%", spread_pct(&p50s));
    let untraced = median(&p50s);
    put(
        "trace.overhead_pct",
        "%",
        (med(traced, "iter.p50_us")? - untraced) / untraced * 100.0,
    );
    Some(m)
}

/// The commit of the enclosing git checkout, read from `.git` beside
/// this package; `None` outside one (the driver's checkout is not one).
fn commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.chars().take(12).collect());
    };
    let hash = std::fs::read_to_string(git.join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split(' ').next()?.to_string())
        })?;
    Some(hash.trim().chars().take(12).collect())
}

// ------------------------------------------------------ rank process --

/// Run `body` on both ranks of a fresh default universe and keep what
/// the ranks hosted by this process returned.
fn in_universe(
    wire: &Option<MultiprocEnv>,
    body: impl Fn(&pcomm_core::Comm) -> RankOut + Send + Sync,
) -> Vec<RankOut> {
    match (Universe::new(2).run(|comm| body(&comm)), wire) {
        (Ok(outs), Some(env)) => vec![outs[env.rank].clone()],
        (Ok(outs), None) => outs,
        (Err(e), _) => {
            eprintln!("pcomm-benchmark: rank process: {e}");
            std::process::exit(1);
        }
    }
}

fn child_main(mode: Mode, args: &Args) -> ExitCode {
    let Some(w) = args.workload.as_deref().and_then(find) else {
        eprintln!("pcomm-benchmark: rank process without a workload");
        return ExitCode::from(2);
    };
    let clock = Clock::since(args.t0);
    let counts = Counts {
        warm: args.warm,
        timed: args.timed,
    };
    let (seed, traced) = (args.seed, args.traced);
    let wire = MultiprocEnv::from_env();
    if wire.is_some() != (w.fabric != Fabric::Shm) {
        eprintln!("pcomm-benchmark: rank process environment does not match the workload's fabric");
        return ExitCode::from(2);
    }
    let my_rank = wire.as_ref().map_or(0, |e| e.rank);
    // One rank per process reads the process counters.
    let owns_proc = |rank: usize| wire.is_some() || rank == 0;
    let part_loop = |counts: Counts, traced: bool| {
        in_universe(&wire, |comm| {
            let rec = Recorder::new(clock, traced);
            part_rank(comm, w, counts, seed, rec, owns_proc(comm.rank()))
        })
    };
    let outs = match (mode, w.kind) {
        (Mode::Epoch, Kind::Part) => part_loop(counts, traced),
        (Mode::Epoch, _) => vec![strategies_epoch(
            w,
            counts,
            seed,
            Recorder::new(clock, traced),
            my_rank,
        )],
        (Mode::Probes, kind) => {
            let mut outs = in_universe(&wire, |comm| {
                probes::comm_probes(comm, Recorder::new(clock, true))
            });
            if my_rank == 0 {
                probes::frame_probe(&mut outs[0]);
            }
            probes::strategy_probes(seed, &mut outs[0]);
            if kind != Kind::Part {
                outs.extend(part_loop(counts, true));
            }
            outs
        }
    };
    let text: String = outs.iter().map(RankOut::to_lines).collect();
    print!("{text}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload stream_uds --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("stream_uds"), 7, Some(12.0), false)
        );
        assert!(
            args("--workload small_shm --seed 1 --trace 1")
                .unwrap()
                .trace
        );
        assert!(args("--workload small_shm --trace --seed 1").unwrap().trace);
        assert_eq!(args("--trace --seed 9").unwrap().seed, 9);
        assert!(args("--seed x").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--calibrate 2").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
