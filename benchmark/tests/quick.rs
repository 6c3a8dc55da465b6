//! End-to-end smoke of the built binary: every workload at `--quick`
//! size (one epoch, 2 % of the iterations), the traced run, and the
//! harness's refusals. `BENCHMARK.json` is checked against what the
//! binary really prints.

use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The tests spawn pinned rank processes and one of them asserts a wall
/// time: they take turns, so each has the cores to itself.
static CORES: Mutex<()> = Mutex::new(());

fn cores() -> MutexGuard<'static, ()> {
    CORES.lock().unwrap_or_else(|e| e.into_inner())
}

const EXE: &str = env!("CARGO_BIN_EXE_pcomm-benchmark");
/// The workloads `BENCHMARK.json` lists, in its order.
const GATED: [&str; 3] = ["small_shm", "stream_ipc", "pipeline_uds"];
/// The three that run by name only (see `CALIBRATION.md`).
const UNGATED: [&str; 3] = ["small_ipc", "stream_uds", "strategies_ipc"];

fn bench(args: &[&str]) -> Output {
    let mut cmd = Command::new(EXE);
    cmd.args(args);
    // The harness refuses tuned environments; keep the test hermetic.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PCOMM_") {
            cmd.env_remove(key);
        }
    }
    cmd.output().expect("the benchmark binary runs")
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

/// Every `"name": "<x>"` inside the array that follows `"<section>":`.
fn names_in(manifest: &str, section: &str) -> Vec<String> {
    let from = manifest
        .find(&format!("\"{section}\":"))
        .expect("section exists");
    let body = &manifest[from..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn manifest() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json")
}

#[test]
fn every_workload_passes_at_quick_size_within_twenty_seconds() {
    let _turn = cores();
    let started = Instant::now();
    let gated = names_in(&manifest(), "end_to_end");
    assert_eq!(names_in(&manifest(), "workloads"), GATED);
    for w in GATED.into_iter().chain(UNGATED) {
        // Seed 2: validation must hold on a seed calibration never used.
        let out = bench(&[
            "--workload",
            w,
            "--seed",
            "2",
            "--seconds",
            "20",
            "--trace",
            "0",
            "--quick",
        ]);
        let line = result_line(&out);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{w}: {line}");
        for metric in &gated {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{w} lacks {metric}: {line}"
            );
        }
        assert_eq!(
            line.matches("\"value\"").count(),
            gated.len(),
            "{w} prints extra metrics: {line}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "quick smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_traced_run_prints_the_whole_ledger_and_writes_the_span_file() {
    let _turn = cores();
    let ledger = names_in(&manifest(), "per_layer");
    assert!(ledger.len() > 40, "ledger shrank to {}", ledger.len());
    // One `Part` workload and one strategy kind: the two ledger paths.
    for w in ["stream_ipc", "pipeline_uds"] {
        let path = format!("{}/out/trace-{w}.json", env!("CARGO_MANIFEST_DIR"));
        let _ = std::fs::remove_file(&path);
        let out = bench(&["--workload", w, "--seed", "3", "--trace", "1", "--quick"]);
        let line = result_line(&out);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(line.contains("\"failed\": 0, "), "{w}: {line}");
        for metric in &ledger {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{w} lacks {metric}"
            );
        }
        assert_eq!(
            line.matches("\"value\"").count(),
            ledger.len(),
            "{w}: {line}"
        );
        assert!(
            !line.contains("iter_p50_us"),
            "a traced run must not report end-to-end metrics"
        );
        let spans = std::fs::read_to_string(&path).expect("span file written");
        for name in ["part.pready", "part.recv_wait", "comm.barrier", "rma.epoch"] {
            assert!(
                spans.contains(&format!("\"name\": \"{name}\"")),
                "{w}: no {name} span"
            );
        }
    }
}

#[test]
fn a_tuned_environment_or_a_bad_command_line_is_refused() {
    let _turn = cores();
    let tuned = Command::new(EXE)
        .args(["--workload", "small_shm", "--seed", "1", "--quick"])
        .env("PCOMM_NET_AGGR", "4096")
        .output()
        .unwrap();
    assert!(!tuned.status.success());
    assert!(tuned.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&tuned.stderr).contains("PCOMM_NET_AGGR"));

    for args in [
        &["--workload", "no_such", "--seed", "1"][..],
        &["--seed"],
        &[],
    ] {
        let out = bench(args);
        assert!(!out.status.success() && out.stdout.is_empty(), "{args:?}");
    }
}
