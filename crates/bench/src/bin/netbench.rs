//! `netbench` — the same workload timed on all three fabrics: ranks as
//! threads in one address space (shared memory), ranks as OS processes
//! wired together over Unix domain sockets, and ranks as OS processes
//! sharing a mapped segment with futex doorbells (`ipc`).
//!
//! Three figures per fabric:
//!
//! * `pingpong_small_ns` — 256 B eager round trip;
//! * `pingpong_large_us` — 256 KiB rendezvous round trip (RTS/CTS and,
//!   on the wire, `RdvData` frames);
//! * `part_bw_mbps` — perceived bandwidth of a partitioned transfer
//!   (16 × 64 KiB partitions), timed on the receiving rank from `start`
//!   to `wait` — the paper's receiver-side view of early-bird overlap.
//!
//! The shared-memory pass runs in-process. The socket pass re-execs this
//! binary twice with `--child` under a `PCOMM_NET_*` environment, so the
//! numbers go through the real mesh rendezvous, progress threads, and
//! wire framing. Results go to `BENCH_net.json` at the repo root; the
//! first run seeds `baseline`, later runs overwrite `current`
//! (`--set-baseline` re-seeds, `--out <path>` redirects).
//!
//! The partitioned figure is taken over several *sessions* (fresh
//! process pairs on the wire) of a few reps each: `part_bw_mbps` is the
//! best rep of all (comparable with every earlier record),
//! `part_bw_mean_mbps` ± `part_bw_ci_mbps` the mean of the sessions'
//! best reps and its 90 % Student-t half-width (`perfmodel::stats`).
//! `--guard` compares intervals, so a noisy run widens its own
//! allowance instead of being retried.
//!
//! `--append-series <label>` measures as usual but *appends* the result
//! as a row keyed by commit to the file's `series` array, touching
//! nothing else — a before/after pair stays a pair. `--table <path>`
//! prints the README tables from such a file and exits.
//!
//! ```text
//! cargo run --release -p pcomm-bench --bin netbench
//! cargo run --release -p pcomm-bench --bin netbench -- --quick --out /tmp/n.json
//! cargo run --release -p pcomm-bench --bin netbench -- --append-series "after: ..."
//! cargo run --release -p pcomm-bench --bin netbench -- --table BENCH_net.json
//! ```

use std::process::Command;
use std::time::{Duration, Instant};

use pcomm_core::part::PartOptions;
use pcomm_core::Universe;
use pcomm_net::launch::{self, RankOutput};
use pcomm_net::{Backend, MultiprocEnv};
use pcomm_perfmodel::stats::ConfidenceInterval;

/// One fabric's worth of measurements.
#[derive(Debug, Clone, Copy)]
struct NetNumbers {
    pingpong_small_ns: f64,
    pingpong_large_us: f64,
    /// Best rep of the partitioned transfer, any session.
    part_bw_mbps: f64,
    /// Mean of the sessions' best reps, and its 90 % half-width.
    part_bw_mean_mbps: f64,
    part_bw_ci_mbps: f64,
}

impl NetNumbers {
    fn to_json(self) -> String {
        format!(
            concat!(
                "{{\n",
                "      \"pingpong_small_ns\": {:.1},\n",
                "      \"pingpong_large_us\": {:.2},\n",
                "      \"part_bw_mbps\": {:.1},\n",
                "      \"part_bw_mean_mbps\": {:.1},\n",
                "      \"part_bw_ci_mbps\": {:.1}\n",
                "    }}"
            ),
            self.pingpong_small_ns,
            self.pingpong_large_us,
            self.part_bw_mbps,
            self.part_bw_mean_mbps,
            self.part_bw_ci_mbps,
        )
    }

    /// Read one fabric's figures back from a JSON object; records
    /// older than the session protocol carry no mean/half-width.
    fn from_json(obj: &str) -> Option<NetNumbers> {
        let best = json_f64(obj, "part_bw_mbps")?;
        Some(NetNumbers {
            pingpong_small_ns: json_f64(obj, "pingpong_small_ns")?,
            pingpong_large_us: json_f64(obj, "pingpong_large_us")?,
            part_bw_mbps: best,
            part_bw_mean_mbps: json_f64(obj, "part_bw_mean_mbps").unwrap_or(best),
            part_bw_ci_mbps: json_f64(obj, "part_bw_ci_mbps").unwrap_or(f64::NAN),
        })
    }
}

/// Minimum of `reps` timed runs of `f`, where `f` returns (total ns, ops).
fn min_ns_per_op(reps: usize, mut f: impl FnMut() -> (f64, usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (ns, ops) = f();
        let per_op = ns / ops.max(1) as f64;
        if per_op < best {
            best = per_op;
        }
    }
    best
}

/// `bytes`-sized ping-pong; rank 0 reports ns per round trip. Works on
/// either fabric: under a `PCOMM_NET_*` environment `Universe::run`
/// routes rank 1 to the other process.
fn bench_pingpong(reps: usize, iters: usize, bytes: usize) -> f64 {
    let out = Universe::new(2)
        .run(|comm| {
            let mut buf = vec![0u8; bytes];
            if comm.rank() == 0 {
                min_ns_per_op(reps, || {
                    comm.barrier();
                    let t0 = Instant::now();
                    for _ in 0..iters {
                        comm.send(1, 0, &buf);
                        comm.recv_into(Some(1), Some(0), &mut buf);
                    }
                    (t0.elapsed().as_nanos() as f64, iters)
                })
            } else {
                for _ in 0..reps {
                    comm.barrier();
                    for _ in 0..iters {
                        comm.recv_into(Some(0), Some(0), &mut buf);
                        comm.send(0, 0, &buf);
                    }
                }
                0.0
            }
        })
        .expect("bench universe failed");
    out[0]
}

/// Perceived bandwidth of a partitioned transfer, receiver-side. Rank 0
/// *receives* so the reporting rank is the same process in both the
/// in-process and multi-process configurations. `legacy` selects the
/// single-message CTS baseline instead of the improved (and, over the
/// wire, streaming) path. Returns MB/s (best rep).
fn bench_part_bw(reps: usize, n_parts: usize, part_bytes: usize, legacy: bool) -> f64 {
    let total = (n_parts * part_bytes) as f64;
    let opts = PartOptions {
        legacy_single_message: legacy,
        ..PartOptions::default()
    };
    let out = Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                let pr = comm.precv_init(1, 3, n_parts, part_bytes, opts.clone());
                let best_ns = min_ns_per_op(reps, || {
                    comm.barrier();
                    let t0 = Instant::now();
                    pr.start();
                    pr.wait();
                    (t0.elapsed().as_nanos() as f64, 1)
                });
                // bytes per ns == GB/s; ×1000 for MB/s.
                total / best_ns * 1000.0
            } else {
                let ps = comm.psend_init(0, 3, n_parts, part_bytes, opts.clone());
                for _ in 0..reps {
                    comm.barrier();
                    ps.start();
                    for p in 0..n_parts {
                        ps.pready(p);
                    }
                    ps.wait();
                }
                0.0
            }
        })
        .expect("bench universe failed");
    out[0]
}

/// Total message sizes of the early-bird crossover sweep (16 KiB …
/// 4 MiB, 16 partitions each).
const SWEEP_BYTES: [usize; 5] = [
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];
const SWEEP_PARTS: usize = 16;

/// One point of the crossover sweep: the streaming (improved) path vs
/// the legacy single-message baseline at the same total size.
#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    bytes: usize,
    stream_mbps: f64,
    legacy_mbps: f64,
}

/// Message-size sweep on the current fabric: where does early-bird
/// streaming pull ahead of the legacy single-message transfer?
fn bench_sweep(quick: bool) -> Vec<SweepPoint> {
    if part_only() {
        return Vec::new();
    }
    let reps = if quick { 2 } else { 8 };
    SWEEP_BYTES
        .iter()
        .map(|&bytes| SweepPoint {
            bytes,
            stream_mbps: bench_part_bw(reps, SWEEP_PARTS, bytes / SWEEP_PARTS, false),
            legacy_mbps: bench_part_bw(reps, SWEEP_PARTS, bytes / SWEEP_PARTS, true),
        })
        .collect()
}

fn sweep_json(fabric: &str, points: &[SweepPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"bytes\": {}, \"stream_mbps\": {:.1}, \"legacy_mbps\": {:.1} }}",
                p.bytes, p.stream_mbps, p.legacy_mbps
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "    \"fabric\": \"{}\",\n",
            "    \"n_parts\": {},\n",
            "    \"points\": [\n{}\n    ]\n",
            "  }}"
        ),
        fabric,
        SWEEP_PARTS,
        rows.join(",\n")
    )
}

/// The wire fabric this process (or its children) will use, as the
/// label that goes into the output JSON.
fn fabric_label() -> &'static str {
    match launch::fabric_from_env() {
        launch::FabricKind::Ipc => "ipc",
        launch::FabricKind::Socket => "uds",
    }
}

/// Run all three sections on whatever fabric the environment selects.
/// `PCOMM_NETBENCH_PART_ONLY=1` skips the ping-pongs and the sweep — a
/// fast inner loop for tuning the streaming path.
fn part_only() -> bool {
    std::env::var("PCOMM_NETBENCH_PART_ONLY").is_ok_and(|v| v == "1")
}

/// Sessions of the partitioned transfer per fabric, and reps in each.
fn part_depth(quick: bool) -> (usize, usize) {
    if quick {
        (3, 3)
    } else {
        (7, 32)
    }
}

/// One session of the headline partitioned transfer (16 × 64 KiB):
/// its best rep, MB/s.
fn part_session(quick: bool) -> f64 {
    bench_part_bw(part_depth(quick).1, 16, 64 * 1024, false)
}

/// Both ping-pongs (skipped under `PCOMM_NETBENCH_PART_ONLY=1`) and one
/// session of the partitioned transfer, on whatever fabric the
/// environment selects.
fn wire_sections(quick: bool) -> (f64, f64, f64) {
    let (reps, pp_iters) = if quick { (3, 300) } else { (10, 2_000) };
    let (pingpong_small_ns, pingpong_large_us) = if part_only() {
        (0.0, 0.0)
    } else {
        (
            bench_pingpong(reps, pp_iters, 256),
            bench_pingpong(reps, pp_iters / 10 + 1, 256 * 1024) / 1_000.0,
        )
    };
    (pingpong_small_ns, pingpong_large_us, part_session(quick))
}

/// Fold a fabric's sessions into its figures. One transfer is
/// ~hundreds of µs, so a deep rep count is cheap and the best rep of a
/// session is what rejects scheduler noise; how far the sessions' bests
/// disagree is the run's own width.
fn fold_sessions(pingpong_small_ns: f64, pingpong_large_us: f64, bests: &[f64]) -> NetNumbers {
    let ci = ConfidenceInterval::of(bests);
    NetNumbers {
        pingpong_small_ns,
        pingpong_large_us,
        part_bw_mbps: bests.iter().copied().fold(0.0, f64::max),
        part_bw_mean_mbps: ci.mean,
        part_bw_ci_mbps: ci.halfwidth,
    }
}

/// SPMD child body: rank 0 writes its numbers where the parent reads
/// them. Both ranks run the sweep too — each point is its own 2-rank
/// universe, and the mesh sequence numbers stay in lockstep only if both
/// processes execute the same run sequence.
fn run_child(quick: bool) {
    let env = MultiprocEnv::from_env().expect("--child requires the PCOMM_NET_* environment");
    let (small, large, part) = wire_sections(quick);
    let sweep = bench_sweep(quick);
    if env.rank == 0 {
        let body = format!(
            concat!(
                "{{\n  \"pingpong_small_ns\": {:.1},\n  \"pingpong_large_us\": {:.2},\n",
                "  \"part_best_mbps\": {:.1},\n",
                "  \"sweep\": {}\n}}"
            ),
            small,
            large,
            part,
            sweep_json(fabric_label(), &sweep)
        );
        std::fs::write(env.dir.join("out-0"), body).expect("write child results");
    }
}

/// Spawn this binary twice as a 2-rank SPMD mesh over UDS and return
/// rank 0's raw result file. `common_env` applies to both ranks,
/// `rank1_env` only to rank 1 (per-rank fault plans).
fn spawn_uds_children(
    quick: bool,
    common_env: &[(&str, &str)],
    rank1_env: &[(&str, &str)],
) -> String {
    let spmd = MultiprocEnv::in_fresh_dir(2, Backend::Uds).expect("rendezvous dir");
    let dir = &spmd.dir;
    let exe = std::env::current_exe().expect("netbench binary path");
    let cpus = launch::pin_cpus();
    let children = launch::spawn_ranks(&spmd, 0..2, RankOutput::Files, |rank| {
        // One rank per core where the host has them: unpinned,
        // where the six threads land differs per universe and moves
        // the partitioned figure by a third.
        let cpu = cpus.get(rank % cpus.len().max(1)).copied();
        let mut cmd = launch::pinned_command(&exe, cpu);
        cmd.arg("--child");
        if quick {
            cmd.arg("--quick");
        }
        cmd.envs(common_env.iter().copied());
        if rank == 1 {
            cmd.envs(rank1_env.iter().copied());
        }
        cmd
    })
    .expect("spawn netbench children");
    let deadline = Instant::now() + Duration::from_secs(600);
    let statuses = launch::wait_ranks(children, Some(deadline)).expect("netbench children");
    for (rank, status) in statuses.iter().enumerate() {
        assert!(
            status.success(),
            "netbench child rank {rank}: {status}\n{}",
            launch::rank_output(dir, rank)
        );
    }
    let raw = std::fs::read_to_string(dir.join("out-0")).expect("child results");
    let _ = std::fs::remove_dir_all(dir);
    raw
}

/// Read `"key": <number>` from a child's output, panicking if absent.
fn field(json: &str, key: &str) -> f64 {
    json_f64(json, key).unwrap_or_else(|| panic!("missing or bad {key} in child output"))
}

/// A wire pass over a UDS bootstrap, `common_env` selecting the fabric:
/// one child pair for the ping-pongs, the crossover sweep and the first
/// partitioned session, then one fresh pair per further session — a
/// session is a fresh pair of *processes*, so what the sessions
/// disagree by includes where the kernel put them. Returns the
/// figures plus the sweep (as a JSON object, passed through to the
/// output file verbatim).
fn run_wire_pass(quick: bool, common_env: &[(&str, &str)]) -> (NetNumbers, String) {
    let raw = spawn_uds_children(quick, common_env, &[]);
    let sweep = extract_object(&raw, "sweep")
        .expect("missing sweep in child output")
        .to_owned();
    let mut part_env = common_env.to_vec();
    part_env.push(("PCOMM_NETBENCH_PART_ONLY", "1"));
    let mut runs = vec![field(&raw, "part_best_mbps")];
    for _ in 1..part_depth(quick).0 {
        let raw = spawn_uds_children(quick, &part_env, &[]);
        runs.push(field(&raw, "part_best_mbps"));
    }
    let figures = fold_sessions(
        field(&raw, "pingpong_small_ns"),
        field(&raw, "pingpong_large_us"),
        &runs,
    );
    (figures, sweep)
}

/// One fabric's figures plus its crossover sweep (a JSON object).
type WirePass = (NetNumbers, String);

/// All three passes: in-process, UDS, and ipc where the platform has
/// the raw-syscall layer.
fn measure_fabrics(quick: bool) -> (NetNumbers, WirePass, Option<WirePass>) {
    eprintln!("netbench: shared-memory pass ...");
    let shm = {
        let (small, large, first) = wire_sections(quick);
        let mut runs = vec![first];
        runs.extend((1..part_depth(quick).0).map(|_| part_session(quick)));
        fold_sessions(small, large, &runs)
    };
    eprintln!("netbench: UDS pass (2 processes) ...");
    let uds = run_wire_pass(quick, &[]);
    let ipc = pcomm_net::sys::supported().then(|| {
        eprintln!("netbench: ipc pass (2 processes, shared segment) ...");
        run_wire_pass(quick, &[("PCOMM_NET_FABRIC", "ipc")])
    });
    if ipc.is_none() {
        eprintln!("netbench: ipc fabric unsupported on this platform, skipping");
    }
    (shm, uds, ipc)
}

/// The `--degraded` pass: the same partitioned-bandwidth workload over a
/// 3-lane mesh whose data lane 2 is killed (seeded) 128 KiB into the
/// sender's stream. The writer fails the lane over to the survivor
/// mid-transfer; the best-of-reps figure is therefore the steady-state
/// bandwidth of the degraded mesh, not the hiccup itself.
fn run_degraded_pass(quick: bool) -> f64 {
    let raw = spawn_uds_children(
        quick,
        &[("PCOMM_NETBENCH_PART_ONLY", "1"), ("PCOMM_NET_LANES", "3")],
        &[("PCOMM_FAULTS", "seed=7,lanekill=2:131072")],
    );
    field(&raw, "part_best_mbps")
}

/// The balanced `open`…`close` span `json` starts with.
fn balanced(json: &str, open: char, close: char) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in json.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(&json[..i + 1]);
            }
        }
    }
    None
}

/// Extract the balanced object (`{`) or array (`[`) following
/// `"<key>":` in `json`.
fn extract_span<'a>(json: &'a str, key: &str, open: char, close: char) -> Option<&'a str> {
    let at = json.find(&format!("\"{key}\""))?;
    let start = at + json[at..].find(open)?;
    balanced(&json[start..], open, close)
}

fn extract_object<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    extract_span(json, key, '{', '}')
}

fn extract_array<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    extract_span(json, key, '[', ']')
}

/// Where `inner`, a subslice of `outer`, starts in it.
fn offset_in(outer: &str, inner: &str) -> usize {
    inner.as_ptr() as usize - outer.as_ptr() as usize
}

fn trio_json(label: &str, shm: NetNumbers, uds: NetNumbers, ipc: Option<NetNumbers>) -> String {
    let ipc_line = match ipc {
        Some(n) => format!(",\n    \"ipc\": {}", n.to_json()),
        None => String::new(),
    };
    format!(
        concat!(
            "{{\n",
            "    \"label\": \"{}\",\n",
            "    \"shm\": {},\n",
            "    \"uds\": {}{}\n",
            "  }}"
        ),
        label,
        shm.to_json(),
        uds.to_json(),
        ipc_line
    )
}

/// Read `"key": <number>` anywhere in `json`.
fn json_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    json[at..]
        .trim_start()
        .split([',', '\n', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
}

/// The top-level objects of a JSON array's text, in order.
fn array_rows(array: &str) -> Vec<&str> {
    let mut rows = Vec::new();
    let mut rest = &array[1..];
    while let Some(row) = rest
        .find('{')
        .and_then(|at| balanced(&rest[at..], '{', '}'))
    {
        rows.push(row);
        rest = &rest[offset_in(rest, row) + row.len()..];
    }
    rows
}

/// Read `"key": "<string>"` anywhere in `json`.
fn json_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// The records the guard holds `fabric` to: every `series` row of the
/// newest commit that measured it (a commit measured at several times
/// of day spans the host's moods), else the `baseline`.
fn guard_records(raw: &str, fabric: &str) -> Vec<NetNumbers> {
    let of = |trio: &str| extract_object(trio, fabric).and_then(NetNumbers::from_json);
    let rows = extract_array(raw, "series").map_or(Vec::new(), array_rows);
    let newest = rows
        .iter()
        .rev()
        .find(|row| of(row).is_some())
        .and_then(|row| json_str(row, "commit"));
    let recs: Vec<NetNumbers> = rows
        .iter()
        .filter(|row| json_str(row, "commit") == newest)
        .filter_map(|row| of(row))
        .collect();
    if recs.is_empty() {
        extract_object(raw, "baseline")
            .and_then(of)
            .into_iter()
            .collect()
    } else {
        recs
    }
}

/// Regression guard, per fabric — `uds` always, `ipc` whenever a record
/// exists and this run measured it. Against records taken with the
/// session protocol the floor is the lowest recorded `mean - 90 %
/// half-width`, and the run passes when its own interval reaches it
/// (`mean + half-width >= floor`). A run whose sessions disagree widens
/// its own allowance, so nothing is retried; a build that is really
/// slower has sessions that agree on it — which is also why a run
/// whose half-width exceeds a quarter of its mean is reported as
/// unresolved rather than failed. An older record holds only a
/// best rep, so like is compared with like: this run's best rep
/// against 0.9 × the recorded one. Exits nonzero on regression.
fn run_guard(guard_path: &str, uds: NetNumbers, ipc: Option<NetNumbers>) {
    let raw = std::fs::read_to_string(guard_path)
        .unwrap_or_else(|e| panic!("--guard: cannot read {guard_path}: {e}"));
    let check = |fabric: &str, run: NetNumbers| {
        let recs = guard_records(&raw, fabric);
        let Some(rec) = recs.iter().copied().min_by(|a, b| {
            (a.part_bw_mean_mbps - a.part_bw_ci_mbps)
                .total_cmp(&(b.part_bw_mean_mbps - b.part_bw_ci_mbps))
        }) else {
            if fabric == "uds" {
                panic!("--guard: no uds record in {guard_path}");
            }
            eprintln!("netbench: guard: no {fabric} record yet, skipping");
            return;
        };
        let (reach, floor, verdict) = if rec.part_bw_ci_mbps.is_nan() {
            (
                run.part_bw_mbps,
                0.9 * rec.part_bw_mbps,
                format!("best rep vs 0.9 x recorded best {:.1}", rec.part_bw_mbps),
            )
        } else {
            (
                run.part_bw_mean_mbps + run.part_bw_ci_mbps,
                rec.part_bw_mean_mbps - rec.part_bw_ci_mbps,
                format!(
                    "{:.1} +- {:.1} vs the lowest of {} record(s), {:.1} +- {:.1}",
                    run.part_bw_mean_mbps,
                    run.part_bw_ci_mbps,
                    recs.len(),
                    rec.part_bw_mean_mbps,
                    rec.part_bw_ci_mbps
                ),
            )
        };
        if reach < floor && run.part_bw_ci_mbps > 0.25 * run.part_bw_mean_mbps {
            // Sessions a quarter apart measured the host, not the build
            // (a slower build's sessions agree with each other).
            eprintln!(
                "netbench: guard UNRESOLVED: {fabric} part_bw {verdict}: this run's sessions \
                 disagree by more than a quarter of their mean; not a verdict either way"
            );
            return;
        }
        if reach < floor {
            eprintln!(
                "netbench: GUARD FAILED: {fabric} part_bw {verdict}: {reach:.1} < floor {floor:.1} \
                 MB/s ({guard_path})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "netbench: guard ok: {fabric} part_bw {verdict}: {reach:.1} >= floor {floor:.1} MB/s"
        );
    };
    check("uds", uds);
    if let Some(ipc) = ipc {
        check("ipc", ipc);
    }
}

/// `git rev-parse --short HEAD`, `+` appended when the tree differs
/// from it; `unknown` outside a checkout.
fn commit_id() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if !head.is_empty() => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            format!("{head}{}", if dirty { "+" } else { "" })
        }
        _ => "unknown".to_owned(),
    }
}

/// `--append-series`: measure every fabric and append the result to
/// `out_path`'s `series` array as one row keyed by commit; every other
/// byte of the file stays as it was.
fn append_series(out_path: &str, label: &str, commit: &str, quick: bool) {
    let (shm, (uds, _), ipc) = measure_fabrics(quick);
    let (ipc, sweep) =
        ipc.expect("--append-series records the ipc fabric, which this platform lacks");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = format!(
        concat!(
            "    {{\n",
            "    \"commit\": \"{}\",\n",
            "    \"label\": \"{}\",\n",
            "    \"mode\": \"{}\",\n",
            "    \"host_parallelism\": {},\n",
            "    \"shm\": {},\n",
            "    \"uds\": {},\n",
            "    \"ipc\": {},\n",
            "    \"sweep_ipc\": {}\n",
            "    }}"
        ),
        commit,
        label.replace('"', "'"),
        match (part_only(), quick) {
            (true, _) => "part-only",
            (_, true) => "quick",
            _ => "full",
        },
        host,
        shm.to_json(),
        uds.to_json(),
        ipc.to_json(),
        sweep.replace('\n', "\n  ")
    );
    let old = std::fs::read_to_string(out_path)
        .unwrap_or_else(|e| panic!("--append-series: cannot read {out_path}: {e}"));
    let new = match extract_array(&old, "series") {
        Some(series) => {
            let at = offset_in(&old, series) + series.len() - 1;
            let head = old[..at].trim_end();
            format!("{head},\n{row}\n  {}", &old[at..])
        }
        None => {
            let at = old.rfind('}').expect("--append-series: not a JSON object");
            let head = old[..at].trim_end();
            format!("{head},\n  \"series\": [\n{row}\n  ]\n{}", &old[at..])
        }
    };
    std::fs::write(out_path, new).expect("write bench output");
    eprintln!(
        "netbench: appended {commit} ({label}) to {out_path}: part_bw uds {:.1} +- {:.1}, \
         ipc {:.1} +- {:.1} MB/s",
        uds.part_bw_mean_mbps, uds.part_bw_ci_mbps, ipc.part_bw_mean_mbps, ipc.part_bw_ci_mbps
    );
}

/// `--table`: the README's tables, generated from a results file — the
/// three-fabric cost table from `current`, and one row per `series`
/// entry (the ipc trajectory, keyed by commit).
fn print_tables(path: &str) {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--table: {path}: {e}"));
    let current = extract_object(&raw, "current").expect("--table: no `current` record");
    let of = |fabric: &str| extract_object(current, fabric).and_then(NetNumbers::from_json);
    let (shm, uds, ipc) = (of("shm"), of("uds"), of("ipc"));
    let cell = |n: Option<NetNumbers>, f: &dyn Fn(NetNumbers) -> String| n.map_or("—".into(), f);
    println!(
        "| metric                            | shared memory | UDS (2 procs) | ipc (2 procs) |"
    );
    println!(
        "|-----------------------------------|--------------:|--------------:|--------------:|"
    );
    let small = |n: NetNumbers| format!("{:.2} µs", n.pingpong_small_ns / 1e3);
    let large = |n: NetNumbers| format!("{:.1} µs", n.pingpong_large_us);
    let part = |n: NetNumbers| format!("{:.0} MB/s", n.part_bw_mbps);
    for (name, f) in [
        (
            "ping-pong 256 B (round trip)",
            &small as &dyn Fn(NetNumbers) -> String,
        ),
        ("ping-pong 256 KiB (round trip)", &large),
        ("partitioned 1 MiB (perceived BW)", &part),
    ] {
        println!(
            "| {name:<33} | {:>13} | {:>13} | {:>13} |",
            cell(shm, f),
            cell(uds, f),
            cell(ipc, f)
        );
    }
    let Some(series) = extract_array(&raw, "series") else {
        return;
    };
    println!();
    println!("| commit | what | cores | ipc ping-pong 256 B | ipc ping-pong 256 KiB | ipc partitioned 1 MiB: best rep; sessions ± 90 % | ipc stream 16 × 256 KiB (best) | UDS partitioned 1 MiB, sessions |");
    println!("|--------|------|------:|--------------------:|----------------------:|------------------------------------------------:|-------------------------------:|--------------------------------:|");
    for row in array_rows(series) {
        let Some(n) = extract_object(row, "ipc").and_then(NetNumbers::from_json) else {
            continue;
        };
        let stream_4m = extract_object(row, "sweep_ipc")
            .and_then(|sw| sw.find("\"bytes\": 4194304,").map(|i| &sw[i..]))
            .and_then(|r| json_f64(r, "stream_mbps"));
        let uds = extract_object(row, "uds").and_then(NetNumbers::from_json);
        println!(
            "| `{}` | {} | {} | {} | {} | {:.0} MB/s; {:.0} ± {:.0} | {} | {} |",
            json_str(row, "commit").unwrap_or("?"),
            json_str(row, "label").unwrap_or(""),
            json_f64(row, "host_parallelism").map_or("?".into(), |c| format!("{c:.0}")),
            small(n),
            large(n),
            n.part_bw_mbps,
            n.part_bw_mean_mbps,
            n.part_bw_ci_mbps,
            stream_4m.map_or("—".into(), |v| format!("{v:.0} MB/s")),
            uds.map_or("—".into(), |u| format!(
                "{:.0} ± {:.0} MB/s",
                u.part_bw_mean_mbps, u.part_bw_ci_mbps
            )),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--child") {
        run_child(quick);
        return;
    }
    let set_baseline = args.iter().any(|a| a == "--set-baseline");
    let degraded = args.iter().any(|a| a == "--degraded");
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = value_of("--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_net.json", env!("CARGO_MANIFEST_DIR")));
    let guard_path = value_of("--guard");
    if let Some(path) = value_of("--table") {
        print_tables(&path);
        return;
    }
    if let Some(label) = value_of("--append-series") {
        let commit = value_of("--commit").unwrap_or_else(commit_id);
        append_series(&out_path, &label, &commit, quick);
        return;
    }

    let (shm, (uds, sweep), ipc_pass) = measure_fabrics(quick);
    let ipc = ipc_pass.as_ref().map(|(n, _)| *n);
    let degraded_bw = degraded.then(|| {
        eprintln!("netbench: degraded pass (lane 2 killed mid-stream) ...");
        run_degraded_pass(quick)
    });

    let ipc_col = |v: f64, unit: &str| match ipc {
        Some(_) => format!(" {v:>10.1} {unit}"),
        None => String::new(),
    };
    println!("                          shared-mem          UDS          ipc");
    println!(
        "pingpong 256 B       {:>10.1} ns/rt {:>10.1} ns/rt{}",
        shm.pingpong_small_ns,
        uds.pingpong_small_ns,
        ipc_col(ipc.map_or(0.0, |n| n.pingpong_small_ns), "ns/rt")
    );
    println!(
        "pingpong 256 KiB     {:>10.2} us/rt {:>10.2} us/rt{}",
        shm.pingpong_large_us,
        uds.pingpong_large_us,
        ipc_col(ipc.map_or(0.0, |n| n.pingpong_large_us), "us/rt")
    );
    println!(
        "partitioned 1 MiB    {:>10.1} MB/s  {:>10.1} MB/s{}",
        shm.part_bw_mbps,
        uds.part_bw_mbps,
        ipc_col(ipc.map_or(0.0, |n| n.part_bw_mbps), "MB/s")
    );
    if let Some(bw) = degraded_bw {
        println!(
            "  degraded (lane killed) {:>24.1} MB/s  ({:.2}x healthy)",
            bw,
            bw / uds.part_bw_mbps.max(f64::MIN_POSITIVE)
        );
    }
    println!("early-bird crossover (uds, {SWEEP_PARTS} parts):");
    println!("      bytes      stream      legacy");
    for &bytes in &SWEEP_BYTES {
        let at = sweep.find(&format!("\"bytes\": {bytes},"));
        let (s, l) = at
            .map(|i| &sweep[i..])
            .map(|row| {
                (
                    json_f64(row, "stream_mbps").unwrap_or(0.0),
                    json_f64(row, "legacy_mbps").unwrap_or(0.0),
                )
            })
            .unwrap_or((0.0, 0.0));
        println!("{bytes:>11} {s:>9.1} MB/s {l:>7.1} MB/s");
    }

    let current = trio_json("current", shm, uds, ipc);
    let baseline = if set_baseline {
        trio_json("baseline", shm, uds, ipc)
    } else {
        std::fs::read_to_string(&out_path)
            .ok()
            .and_then(|old| extract_object(&old, "baseline").map(str::to_owned))
            .unwrap_or_else(|| trio_json("baseline", shm, uds, ipc))
    };
    let degraded_json = match degraded_bw {
        Some(bw) => format!(
            concat!(
                "  \"degraded\": {{\n",
                "    \"part_bw_mbps\": {:.1},\n",
                "    \"healthy_part_bw_mbps\": {:.1},\n",
                "    \"ratio\": {:.3}\n",
                "  }},\n"
            ),
            bw,
            uds.part_bw_mbps,
            bw / uds.part_bw_mbps.max(f64::MIN_POSITIVE)
        ),
        None => String::new(),
    };
    let sweep_ipc = match &ipc_pass {
        Some((_, s)) => format!(",\n  \"sweep_ipc\": {s}"),
        None => String::new(),
    };
    // The series is append-only: a rewrite of the rest carries it over.
    let series = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|old| extract_array(&old, "series").map(str::to_owned))
        .map_or(String::new(), |rows| format!(",\n  \"series\": {rows}"));
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"pcomm-net-v1\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"baseline\": {},\n",
            "  \"current\": {},\n",
            "{}",
            "  \"sweep\": {}{}{}\n",
            "}}\n"
        ),
        if quick { "quick" } else { "full" },
        baseline,
        current,
        degraded_json,
        sweep,
        sweep_ipc,
        series
    );
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("netbench: wrote {out_path}");
    if let Some(gpath) = guard_path {
        run_guard(&gpath, uds, ipc);
    }
    if let Some(bw) = degraded_bw {
        // A mesh minus one data lane must keep at least half its healthy
        // bandwidth — failover that limps is a regression, fail loudly.
        let floor = uds.part_bw_mbps * 0.5;
        if bw < floor {
            eprintln!(
                "netbench: DEGRADED FLOOR FAILED: {bw:.1} MB/s < {floor:.1} MB/s \
                 (healthy {:.1} MB/s, 0.5x floor)",
                uds.part_bw_mbps
            );
            std::process::exit(1);
        }
        eprintln!(
            "netbench: degraded ok: {bw:.1} MB/s >= {floor:.1} MB/s (healthy {:.1} MB/s)",
            uds.part_bw_mbps
        );
    }
}
