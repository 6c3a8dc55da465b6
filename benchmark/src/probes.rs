//! Fixed-count probe phases of a traced run: each prices one layer on
//! the workload's own fabric, so a ledger row exists for every layer on
//! every workload whether or not the workload leans on it.

use std::hint::black_box;
use std::time::Instant;

use pcomm_core::strategies::{measure, RealApproach};
use pcomm_core::Comm;
use pcomm_net::frame::{self, Frame};

use crate::report::RankOut;
use crate::spans::Recorder;
use crate::stats::{percentile, sorted};
use crate::workloads::{approach_key, find, put_span_medians, scenario, KIB};

const BARRIERS: usize = 2_000;
const EAGER_RTTS: usize = 2_000;
const EAGER_BYTES: usize = 256;
const RDV_RTTS: usize = 200;
const RDV_BYTES: usize = 256 * KIB;
const RMA_EPOCHS: usize = 200;
const PUTS_PER_EPOCH: usize = 8;
const PUT_BYTES: usize = 4 * KIB;
const FRAME_BATCHES: usize = 101;
const FRAMES_PER_BATCH: usize = 1_000;
const STRATEGY_ITERS: usize = 200;
const PIPELINE_ITERS: usize = 100;

/// Barrier, eager and rendezvous round trips and an active-target RMA
/// epoch, timed on rank 0 of a universe on the workload's fabric.
pub fn comm_probes(comm: &Comm, mut rec: Recorder) -> RankOut {
    let mut out = RankOut::new(comm.rank());
    let first = comm.rank() == 0;
    let peer = 1 - comm.rank();

    for _ in 0..BARRIERS {
        let tok = rec.open("comm.barrier");
        comm.barrier();
        rec.close(tok);
    }

    for (name, bytes, reps, tag) in [
        ("p2p.eager_rtt", EAGER_BYTES, EAGER_RTTS, 21),
        ("p2p.rdv_rtt", RDV_BYTES, RDV_RTTS, 22),
    ] {
        let ping = vec![0x5Au8; bytes];
        let mut pong = vec![0u8; bytes];
        comm.barrier();
        for _ in 0..reps {
            if first {
                let tok = rec.open(name);
                comm.send(peer, tag, &ping);
                comm.recv_into(Some(peer), Some(tag), &mut pong);
                rec.close(tok);
            } else {
                comm.recv_into(Some(peer), Some(tag), &mut pong);
                comm.send(peer, tag, &ping);
            }
        }
    }

    let window = PUTS_PER_EPOCH * PUT_BYTES;
    if first {
        let win = comm.win_create_origin(peer, window);
        let payload = vec![0xA5u8; PUT_BYTES];
        for _ in 0..RMA_EPOCHS {
            comm.barrier();
            let epoch = rec.open("rma.epoch");
            win.start_epoch();
            for i in 0..PUTS_PER_EPOCH {
                let tok = rec.open("rma.put");
                win.put(i * PUT_BYTES, &payload);
                rec.close(tok);
            }
            win.complete_epoch();
            rec.close(epoch);
        }
    } else {
        let win = comm.win_create_target(peer, window);
        for _ in 0..RMA_EPOCHS {
            comm.barrier();
            win.post();
            win.wait_epoch();
        }
    }
    comm.barrier();

    put_span_medians(&mut out, rec.spans());
    out.spans = rec.spans().to_vec();
    out
}

/// Median ns per call over batches of `FRAMES_PER_BATCH` calls.
fn ns_per_call(mut call: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..FRAME_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..FRAMES_PER_BATCH {
                call();
            }
            t0.elapsed().as_nanos() as f64 / FRAMES_PER_BATCH as f64
        })
        .collect();
    percentile(&sorted(per_batch), 0.5)
}

/// The wire codec in isolation: one 256 B `Eager` frame through the
/// general codec plus one `PartData` header through the fast path, per
/// direction. No fabric is involved.
pub fn frame_probe(out: &mut RankOut) {
    let eager = Frame::Eager {
        shard: 0,
        ctx: 1,
        tag: 7,
        payload: vec![0x3Cu8; EAGER_BYTES],
    };
    let mut scratch = Vec::with_capacity(512);
    let mut header = Vec::with_capacity(32);
    out.put(
        "frame.encode_ns",
        ns_per_call(|| {
            black_box(&eager).encode_into(&mut scratch);
            frame::encode_part_data_header(
                black_box(9),
                black_box(1 << 20),
                RDV_BYTES,
                &mut header,
            );
            black_box((&scratch, &header));
        }),
    );
    let eager_body = eager.encode()[4..].to_vec();
    let mut part_body = frame::part_data_header(9, 1 << 20, 64)[4..].to_vec();
    part_body.extend_from_slice(&[0u8; 64]);
    out.put(
        "frame.decode_ns",
        ns_per_call(|| {
            black_box(Frame::decode(black_box(&eager_body)).expect("own encoding decodes"));
            black_box(frame::decode_part_data(black_box(&part_body)).expect("own header decodes"));
        }),
    );
}

/// Median overhead of each of the eight strategies on the
/// `strategies_ipc` shape, and the pipelined/bulk pair on the
/// `pipeline_uds` shape, over this process's fabric. Values land only
/// in the receiving process's report.
pub fn strategy_probes(seed: u64, out: &mut RankOut) {
    let p50_us = |approach: RealApproach, w, iters: usize| {
        let times = measure(approach, &scenario(w, seed, iters + 1));
        let us: Vec<f64> = times
            .iter()
            .skip(1)
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        (!us.is_empty()).then(|| percentile(&sorted(us), 0.5))
    };
    let shape = find("strategies_ipc").expect("table row");
    for approach in RealApproach::ALL {
        if let Some(v) = p50_us(approach, shape, STRATEGY_ITERS) {
            out.put(format!("strat.{}.p50_us", approach_key(approach)), v);
        }
    }
    let shape = find("pipeline_uds").expect("table row");
    let pipelined = p50_us(RealApproach::PtpPart, shape, PIPELINE_ITERS);
    let bulk = p50_us(RealApproach::PtpSingle, shape, PIPELINE_ITERS);
    if let (Some(p), Some(b)) = (pipelined, bulk) {
        out.put("pipe.pipelined_overhead_us", p);
        out.put("pipe.bulk_overhead_us", b);
        out.put("pipe.max_delay_us", scenario(shape, seed, 1).max_delay_us());
        out.put("pipe.bytes", (shape.n_parts() * shape.part_bytes) as f64);
    }
}
