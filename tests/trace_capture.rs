//! End-to-end trace capture on the real runtime: a contended run must
//! yield shard-lock-wait spans and early-bird events, the Chrome
//! exporter must produce loadable JSON for them, and the `PCOMM_TRACE`
//! environment hook must write that JSON, and its text summary beside
//! it, to disk. Tracing off must stay off.

use std::sync::Mutex;

use pcomm::core::part::PartOptions;
use pcomm::core::Universe;
use pcomm::trace::{chrome_trace_json, EventKind, Trace, TraceData};

/// `Universe::run` reads `PCOMM_TRACE`; serialize the tests that touch
/// the environment or run untraced universes.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A 4-rank job on a single shard: ranks 2 and 3 flood rank 0 with eager
/// messages (lock contention on the one shard) while rank 1 streams a
/// partitioned send to rank 0 (early-bird injections).
fn contended_run() -> TraceData {
    let n_parts = 8;
    let part_bytes = 2048;
    let (_, data) = Universe::new(4).with_shards(1).run_traced(|comm| {
        match comm.rank() {
            0 => {
                let precv = comm.precv_init(1, 9, n_parts, part_bytes, PartOptions::default());
                precv.start();
                let mut buf = [0u8; 256];
                for _ in 0..2 * 32 {
                    comm.recv_into(None, Some(5), &mut buf);
                }
                precv.wait();
            }
            1 => {
                let psend = comm.psend_init(0, 9, n_parts, part_bytes, PartOptions::default());
                psend.start();
                for p in 0..n_parts {
                    psend.write_partition(p, |buf| buf.fill(p as u8));
                    psend.pready(p);
                }
                psend.wait();
            }
            _ => {
                let buf = [7u8; 256];
                for _ in 0..32 {
                    comm.send(0, 5, &buf);
                }
            }
        }
        comm.barrier();
    });
    data
}

#[test]
fn contended_run_captures_lock_waits_and_early_birds() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = contended_run();
    assert_eq!(data.dropped, 0, "default ring must not drop this workload");
    let lock_waits = data
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockWait { .. }))
        .count();
    let early_birds: Vec<_> = data
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::EarlyBird { .. }))
        .collect();
    assert!(lock_waits > 0, "single-shard run must record lock waits");
    assert!(
        !early_birds.is_empty(),
        "pready-driven partitioned send must record early-bird events"
    );
    // Early-bird sends come from the sending rank.
    assert!(early_birds.iter().all(|e| e.rank == 1));
    // The merged timeline is sorted.
    for w in data.events.windows(2) {
        assert!(w[1].ts_ns >= w[0].ts_ns, "snapshot must be time-sorted");
    }
}

#[test]
fn chrome_export_contains_span_and_instant_names() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = contended_run();
    let json = chrome_trace_json(&data.events, data.dropped);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    // Lock waits render as complete spans, early-birds as instants.
    assert!(json.contains("\"name\":\"shard_lock_wait\",\"cat\":\"pcomm\",\"ph\":\"X\""));
    assert!(json.contains("\"name\":\"early_bird_send\",\"cat\":\"pcomm\",\"ph\":\"i\""));
    // Balanced braces/brackets outside strings (no string values contain
    // either, by construction).
    let (mut depth, mut max_depth) = (0i64, 0i64);
    for c in json.chars() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
        max_depth = max_depth.max(depth);
    }
    assert_eq!(depth, 0);
    assert!(max_depth >= 3, "events nest under traceEvents");
}

#[test]
fn env_hook_writes_chrome_json() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("pcomm_trace_{}.json", std::process::id()));
    std::env::set_var("PCOMM_TRACE", &path);
    Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1, 2, 3, 4]);
            } else {
                let mut b = [0u8; 4];
                comm.recv_into(Some(0), Some(3), &mut b);
            }
        })
        .unwrap();
    std::env::remove_var("PCOMM_TRACE");
    let json = std::fs::read_to_string(&path).expect("PCOMM_TRACE file must exist");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("eager_send"));
    // The same knob leaves the text summary beside the trace.
    let txt = format!("{}.txt", path.display());
    let summary = std::fs::read_to_string(&txt).expect("PCOMM_TRACE summary must exist");
    let _ = std::fs::remove_file(&txt);
    assert!(summary.contains("eager:"), "{summary}");
}

#[test]
fn disabled_trace_records_nothing() {
    let _g = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = Trace::disabled();
    assert!(!trace.is_enabled());
    assert!(trace.snapshot().is_none());
    // A run without an attached trace and without PCOMM_TRACE behaves
    // exactly as before tracing existed: results only, no side effects.
    let out = Universe::new(2).with_trace(Trace::disabled()).run(|comm| {
        let peer = 1 - comm.rank();
        let mut buf = vec![comm.rank() as u8; 4096];
        if comm.rank() == 0 {
            comm.send(peer, 0, &buf);
            comm.recv_into(Some(peer), Some(0), &mut buf);
        } else {
            let mut tmp = vec![0u8; 4096];
            comm.recv_into(Some(peer), Some(0), &mut tmp);
            comm.send(peer, 0, &tmp);
        }
        buf[0]
    });
    // Rank 0 got its own zeros echoed back; rank 1 kept its own buffer.
    assert_eq!(out.unwrap(), vec![0, 1]);
}
