//! Integration tests spanning the real runtime: stress, data integrity
//! across random ready orders, and qualitative agreement with the paper.

use std::sync::Arc;

use pcomm::core::part::PartOptions;
use pcomm::core::strategies::{measure, RealApproach, RealScenario};
use pcomm::core::Universe;
use pcomm::prng::{Rng64, Xoshiro256pp};

/// Random pready orders across threads and iterations never lose or
/// corrupt a partition.
#[test]
fn random_ready_orders_are_safe() {
    let n_threads = 4;
    let theta = 4;
    let n_parts = n_threads * theta;
    let part_bytes = 512;
    let iters = 25;
    Universe::new(2)
        .with_shards(4)
        .run(|comm| {
            if comm.rank() == 0 {
                let ps = comm.psend_init(1, 0, n_parts, part_bytes, PartOptions::default());
                let mut rng = Xoshiro256pp::seed_from_u64(1);
                for it in 0..iters {
                    // Random assignment of partitions to threads each round.
                    let mut order: Vec<usize> = (0..n_parts).collect();
                    rng.shuffle(&mut order);
                    let chunks: Vec<Vec<usize>> = order.chunks(theta).map(|c| c.to_vec()).collect();
                    ps.start();
                    std::thread::scope(|s| {
                        for chunk in &chunks {
                            let ps = ps.clone();
                            s.spawn(move || {
                                for &p in chunk {
                                    ps.write_partition(p, |b| b.fill((it as usize * 31 + p) as u8));
                                    ps.pready(p);
                                }
                            });
                        }
                    });
                    ps.wait();
                }
            } else {
                let pr = comm.precv_init(0, 0, n_parts, part_bytes, PartOptions::default());
                for it in 0..iters {
                    pr.start();
                    pr.wait();
                    for p in 0..n_parts {
                        let expect = (it as usize * 31 + p) as u8;
                        assert!(
                            pr.partition(p).iter().all(|&b| b == expect),
                            "iter {it}, partition {p} corrupted"
                        );
                    }
                }
            }
        })
        .unwrap();
}

/// Aggregated and non-aggregated paths deliver identical data.
#[test]
fn aggregation_preserves_data() {
    for aggr in [None, Some(1024), Some(4096), Some(1 << 20)] {
        let opts = PartOptions {
            aggr_size: aggr,
            ..PartOptions::default()
        };
        Universe::new(2)
            .run(move |comm| {
                let n_parts = 16;
                let part_bytes = 768;
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, n_parts, part_bytes, opts.clone());
                    ps.start();
                    for p in 0..n_parts {
                        ps.write_partition(p, |b| {
                            for (i, x) in b.iter_mut().enumerate() {
                                *x = ((p * 7 + i) % 251) as u8;
                            }
                        });
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, n_parts, part_bytes, opts.clone());
                    pr.start();
                    pr.wait();
                    for p in 0..n_parts {
                        let data = pr.partition(p);
                        for (i, &x) in data.iter().enumerate() {
                            assert_eq!(x as usize, (p * 7 + i) % 251, "p{p} i{i} aggr {aggr:?}");
                        }
                    }
                }
            })
            .unwrap();
    }
}

/// The default options and the old row's (one message over the whole
/// buffer, sent in wait) deliver the same bytes.
#[test]
fn legacy_and_improved_agree_on_data() {
    let old = PartOptions {
        aggr_size: Some(8 * 333),
        defer_sends: true,
    };
    for opts in [PartOptions::default(), old] {
        Universe::new(2)
            .run(move |comm| {
                if comm.rank() == 0 {
                    let ps = comm.psend_init(1, 0, 8, 333, opts.clone());
                    ps.start();
                    for p in 0..8 {
                        ps.write_partition(p, |b| b.fill(p as u8 * 3));
                        ps.pready(p);
                    }
                    ps.wait();
                } else {
                    let pr = comm.precv_init(0, 0, 8, 333, opts.clone());
                    pr.start();
                    pr.wait();
                    for p in 0..8 {
                        assert!(pr.partition(p).iter().all(|&b| b == p as u8 * 3));
                    }
                }
            })
            .unwrap();
    }
}

/// All eight real strategies complete a mixed workload with delays.
#[test]
fn all_real_strategies_with_delays() {
    let mut sc = RealScenario::immediate(2, 2, 1024, 2, 3);
    sc.delays_us = vec![0.0, 30.0, 10.0, 50.0];
    for a in RealApproach::ALL {
        let times = measure(a, &sc);
        assert_eq!(times.len(), 3, "{a:?}");
    }
}

/// The real fabric keeps per-channel FIFO even under concurrent senders
/// on different communicators.
#[test]
fn concurrent_channels_keep_fifo() {
    Universe::new(2)
        .with_shards(4)
        .run(|comm| {
            let n_chans = 4;
            let per_chan = 50;
            let comms: Vec<_> = (0..n_chans).map(|_| comm.dup()).collect();
            if comm.rank() == 0 {
                std::thread::scope(|s| {
                    for (c, cm) in comms.iter().enumerate() {
                        s.spawn(move || {
                            for i in 0..per_chan {
                                cm.send(1, 9, &[(c * per_chan + i) as u8]);
                            }
                        });
                    }
                });
            } else {
                std::thread::scope(|s| {
                    for (c, cm) in comms.iter().enumerate() {
                        s.spawn(move || {
                            for i in 0..per_chan {
                                let mut b = [0u8; 1];
                                cm.recv_into(Some(0), Some(9), &mut b);
                                assert_eq!(
                                    b[0] as usize,
                                    c * per_chan + i,
                                    "channel {c} out of order"
                                );
                            }
                        });
                    }
                });
            }
        })
        .unwrap();
}

/// Partitioned + RMA coexist on one fabric.
#[test]
fn mixed_partitioned_and_rma_traffic() {
    Universe::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                let win = Arc::new(comm.win_create_origin(1, 4096));
                let ps = comm.psend_init(1, 1, 4, 256, PartOptions::default());
                for _ in 0..5 {
                    win.start_epoch();
                    win.put(0, &[0xAB; 4096]);
                    win.complete_epoch();
                    ps.start();
                    for p in 0..4 {
                        ps.pready(p);
                    }
                    ps.wait();
                }
            } else {
                let win = comm.win_create_target(0, 4096);
                let pr = comm.precv_init(0, 1, 4, 256, PartOptions::default());
                for _ in 0..5 {
                    win.post();
                    win.wait_epoch();
                    pr.start();
                    pr.wait();
                }
                win.read(|b| assert!(b.iter().all(|&x| x == 0xAB)));
            }
        })
        .unwrap();
}
