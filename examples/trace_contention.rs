//! Shard-lock contention made visible: the same all-to-one workload run
//! on 1 shard and on 8 shards, traced with the unified `pcomm-trace`
//! subsystem. Prints the per-shard lock-wait summary for both runs and
//! writes Chrome trace-event JSON you can load in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example trace_contention
//! ```
//!
//! The same files can be produced from any run of your own program with
//! `PCOMM_TRACE=trace.json` in the environment (the summary lands beside
//! it, in `trace.json.txt`), and from the simulator with `figures trace`.

use pcomm::core::part::PartOptions;
use pcomm::core::{Comm, Universe};
use pcomm::trace::{chrome_trace_json, summary_report, EventKind, TraceData};

const RANKS: usize = 4;
const MSGS: usize = 200;
const BYTES: usize = 1024;
const N_PARTS: usize = 8;

/// Everyone hammers rank 0: eager floods from ranks 2.., a partitioned
/// stream (early-bird sends) from rank 1.
fn workload(comm: &Comm) {
    match comm.rank() {
        0 => {
            let precv = comm.precv_init(1, 9, N_PARTS, BYTES, PartOptions::default());
            precv.start();
            let mut buf = vec![0u8; BYTES];
            for _ in 0..(RANKS - 2) * MSGS {
                comm.recv_into(None, Some(5), &mut buf);
            }
            precv.wait();
        }
        1 => {
            let psend = comm.psend_init(0, 9, N_PARTS, BYTES, PartOptions::default());
            psend.start();
            for p in 0..N_PARTS {
                psend.write_partition(p, |b| b.fill(p as u8));
                psend.pready(p);
            }
            psend.wait();
        }
        _ => {
            let buf = vec![7u8; BYTES];
            for _ in 0..MSGS {
                comm.send(0, 5, &buf);
            }
        }
    }
    comm.barrier();
}

fn traced_run(shards: usize) -> TraceData {
    let (_, data) = Universe::new(RANKS)
        .with_shards(shards)
        .run_traced(|comm| workload(&comm));
    data
}

fn total_lock_wait_ns(data: &TraceData) -> u64 {
    data.events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LockWait { wait_ns, .. } => Some(wait_ns),
            _ => None,
        })
        .sum()
}

fn main() {
    for shards in [1, 8] {
        let data = traced_run(shards);
        println!(
            "=== {shards} shard(s): {} events, {} dropped, total lock wait {:.1} us ===",
            data.events.len(),
            data.dropped,
            total_lock_wait_ns(&data) as f64 / 1e3
        );
        println!("{}", summary_report(&data.events, data.dropped));
        let path = format!("trace_contention_{shards}shard.json");
        match std::fs::write(&path, chrome_trace_json(&data.events, data.dropped)) {
            Ok(()) => println!("wrote {path} (load it in Perfetto)\n"),
            Err(e) => eprintln!("could not write {path}: {e}\n"),
        }
    }
}
