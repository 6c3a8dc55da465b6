//! The six workloads and what one rank does in one epoch of each.
//!
//! Everything here runs inside a rank process the parent spawned and
//! calls only `pub` items of the library.

use std::hint::black_box;
use std::time::Instant;

use pcomm_core::part::PartOptions;
use pcomm_core::strategies::{measure, measure_validated, RealApproach, RealScenario};
use pcomm_core::Comm;
use pcomm_perfmodel::{ComputeProfile, DelayModel, NoiseModel};
use pcomm_prng::{Rng64, SplitMix64, Xoshiro256pp};
use pcomm_workloads::DelaySchedule;

use crate::procfs::Snapshot;
use crate::report::RankOut;
use crate::spans::{Recorder, Span};
use crate::stats::{percentile, sorted};

/// What carries the bytes between the two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Two rank threads in one process (`SharedMemTransport`).
    Shm,
    /// Two processes over the memfd segment (`PCOMM_NET_FABRIC=ipc`).
    Ipc,
    /// Two processes over Unix domain sockets, default lanes.
    Uds,
}

/// What the ranks do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The benchmark's own `start`/`pready`/`wait` loop, no compute.
    Part,
    /// `PtpPart` against `PtpSingle` under seeded compute delays.
    Pipeline,
    /// All eight strategies, no delay.
    Strategies,
}

/// One row of the workload table. The counts are sized for a 2-core
/// shared box at the nominal `--seconds`. `epochs` is odd. A `Part`
/// workload runs at least 7 epochs that each time at least a second
/// (`timed × iter_us`). A strategy kind brings up a fresh universe per
/// strategy inside every epoch, and which universe it gets moves its
/// time more than a longer loop steadies it: it runs at least 31 short
/// ones (sized in `CALIBRATION.md`).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub fabric: Fabric,
    pub kind: Kind,
    /// Listed in `BENCHMARK.json`. The three rows that are not did not
    /// repeat within a tenth on the sizing box (`CALIBRATION.md`); they
    /// run by name and in `--calibrate`, for paired comparisons.
    pub gated: bool,
    /// Worker threads per rank (strategy kinds) — 1 for `Part`.
    pub n_threads: usize,
    /// Partitions per thread.
    pub theta: usize,
    pub part_bytes: usize,
    pub epochs: usize,
    pub warm: usize,
    pub timed: usize,
    /// What one timed iteration took on the sizing box, rounded down;
    /// for the strategy kinds, one transfer by each strategy. Sizes
    /// `timed` and the epoch deadline, never a result.
    pub iter_us: usize,
}

impl Workload {
    pub fn n_parts(&self) -> usize {
        self.n_threads * self.theta
    }

    /// Verified payload bytes one iteration moves.
    pub fn bytes_per_iter(&self) -> usize {
        let one = self.n_parts() * self.part_bytes;
        match self.kind {
            // Under delays only the pipelined transfer is the iteration;
            // the bulk one is its yardstick.
            Kind::Part | Kind::Pipeline => one,
            Kind::Strategies => one * self.approaches().len(),
        }
    }

    /// The strategies an iteration of a strategy kind runs; the first is
    /// the one whose warm-up closes set-up.
    pub fn approaches(&self) -> &'static [RealApproach] {
        match self.kind {
            Kind::Part => &[],
            Kind::Pipeline => &[RealApproach::PtpPart, RealApproach::PtpSingle],
            Kind::Strategies => &RealApproach::ALL,
        }
    }
}

pub const KIB: usize = 1024;

/// The table. Why each row exists is in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "small_shm",
        fabric: Fabric::Shm,
        kind: Kind::Part,
        gated: true,
        n_threads: 1,
        theta: 64,
        part_bytes: 256,
        epochs: 13,
        warm: 2_000,
        timed: 28_000,
        iter_us: 38,
    },
    Workload {
        name: "small_ipc",
        fabric: Fabric::Ipc,
        kind: Kind::Part,
        gated: false,
        n_threads: 1,
        theta: 64,
        part_bytes: 256,
        epochs: 13,
        warm: 1_000,
        timed: 18_000,
        iter_us: 57,
    },
    Workload {
        name: "stream_ipc",
        fabric: Fabric::Ipc,
        kind: Kind::Part,
        gated: true,
        n_threads: 1,
        theta: 16,
        part_bytes: 256 * KIB,
        epochs: 13,
        warm: 200,
        timed: 2_100,
        iter_us: 480,
    },
    Workload {
        name: "stream_uds",
        fabric: Fabric::Uds,
        kind: Kind::Part,
        gated: false,
        n_threads: 1,
        theta: 16,
        part_bytes: 256 * KIB,
        epochs: 13,
        warm: 100,
        timed: 950,
        iter_us: 1_100,
    },
    Workload {
        name: "pipeline_uds",
        fabric: Fabric::Uds,
        kind: Kind::Pipeline,
        gated: true,
        n_threads: 1,
        theta: 8,
        part_bytes: 256 * KIB,
        epochs: 35,
        warm: 50,
        timed: 200,
        iter_us: 1_900,
    },
    Workload {
        name: "strategies_ipc",
        fabric: Fabric::Ipc,
        kind: Kind::Strategies,
        gated: false,
        n_threads: 2,
        theta: 4,
        part_bytes: 16 * KIB,
        epochs: 71,
        warm: 300,
        timed: 150,
        iter_us: 730,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Iterations of one epoch: `warm` untimed, then `timed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub warm: usize,
    pub timed: usize,
}

// ------------------------------------------------------------ inputs --

/// Tag of the workload's partitioned channel.
const TAG: i64 = 7;
/// A validated iteration follows every this many plain ones.
pub const VALIDATE_EVERY: usize = 64;
/// Validated iterations of the short `measure_validated` pass.
pub const STRATEGY_VALIDATED_ITERS: usize = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The bytes of partition `p` in validated iteration `k`, from the seed.
pub fn fill(buf: &mut [u8], seed: u64, k: usize, p: usize) {
    let mut rng = SplitMix64::new(seed ^ ((k as u64) << 32) ^ (p as u64).wrapping_mul(0x9E37_79B9));
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// One step of an epoch's `Part` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Untimed: the sender fills every partition, the receiver digests.
    Validated(usize),
    Plain(usize),
}

/// A validated iteration first, last and after every
/// [`VALIDATE_EVERY`]th plain one; both ranks walk the same list.
pub fn steps(plain: usize) -> Vec<Step> {
    let mut out = vec![Step::Validated(0)];
    let mut k = 1;
    for i in 0..plain {
        out.push(Step::Plain(i));
        if (i + 1) % VALIDATE_EVERY == 0 || i + 1 == plain {
            out.push(Step::Validated(k));
            k += 1;
        }
    }
    out
}

/// The digest a correct receiver reports for a `Part` epoch, computed
/// without the library.
pub fn expected_part_digest(w: &Workload, counts: Counts, seed: u64) -> u64 {
    let mut buf = vec![0u8; w.part_bytes];
    let mut digest = FNV_OFFSET;
    for step in steps(counts.warm + counts.timed) {
        if let Step::Validated(k) = step {
            for p in 0..w.n_parts() {
                fill(&mut buf, seed, k, p);
                digest = fnv1a(digest, &buf);
            }
        }
    }
    digest
}

/// The strategy kinds' scenario. `Pipeline` draws its ready times from
/// the seed: the FFT preset's Gaussian compute with little noise, so
/// the injected compute (µ·S ≈ 47 µs a partition) is comparable to the
/// transfer and hardly moves with the seed.
pub fn scenario(w: &Workload, seed: u64, iterations: usize) -> RealScenario {
    let mut sc =
        RealScenario::immediate(w.n_threads, w.theta, w.part_bytes, w.n_threads, iterations);
    if w.kind == Kind::Pipeline {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        sc.delays_us = DelaySchedule::GaussianCompute {
            model: pipeline_model(),
        }
        .ready_times(w.n_threads, w.theta, w.part_bytes, &mut rng)
        .into_iter()
        .map(|d| d.as_us_f64())
        .collect();
    }
    sc
}

/// The compute model behind [`scenario`]'s ready times; its `gamma(θ)`
/// is the delay rate the performance model's η takes.
pub fn pipeline_model() -> DelayModel {
    DelayModel::new(
        ComputeProfile::fft(),
        NoiseModel {
            epsilon: 0.02,
            delta: 0.02,
        },
    )
}

/// Metric-name form of a strategy (`ptp_part`, `rma_many_active`, …).
pub fn approach_key(a: RealApproach) -> &'static str {
    match a {
        RealApproach::PtpPart => "ptp_part",
        RealApproach::PtpPartOld => "ptp_part_old",
        RealApproach::PtpSingle => "ptp_single",
        RealApproach::PtpMany => "ptp_many",
        RealApproach::RmaSinglePassive => "rma_single_passive",
        RealApproach::RmaManyPassive => "rma_many_passive",
        RealApproach::RmaSingleActive => "rma_single_active",
        RealApproach::RmaManyActive => "rma_many_active",
    }
}

// ----------------------------------------------------------- helpers --

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The timed section's samples as the `iter.*` values.
fn put_samples(out: &mut RankOut, samples_us: Vec<f64>, bytes_per_iter: usize) {
    let s = sorted(samples_us);
    for (key, q) in [
        ("p25", 0.25),
        ("p50", 0.5),
        ("p90", 0.9),
        ("p99", 0.99),
        ("max", 1.0),
    ] {
        out.put(format!("iter.{key}_us"), percentile(&s, q));
    }
    out.put("iter.samples", s.len() as f64);
    out.put("iter.sum_us", s.iter().sum());
    out.put("iter.bytes", bytes_per_iter as f64);
}

/// This process's counters over the timed section, and its peak RSS.
fn put_proc(out: &mut RankOut, a: &Snapshot, b: &Snapshot) {
    out.put("proc.user_us", b.stat.user_us - a.stat.user_us);
    out.put("proc.sys_us", b.stat.sys_us - a.stat.sys_us);
    out.put("proc.vol_ctxsw", b.vol_ctxsw - a.vol_ctxsw);
    out.put("proc.invol_ctxsw", b.invol_ctxsw - a.invol_ctxsw);
    out.put(
        "proc.minor_faults",
        b.stat.minor_faults - a.stat.minor_faults,
    );
    out.put("rss.hwm_kb", b.vm_hwm_kb);
}

/// Median duration of every span name, as `span.<name>.p50_ns`.
pub fn put_span_medians(out: &mut RankOut, spans: &[Span]) {
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns() as f64);
    }
    for (name, durs) in by_name {
        out.put(
            format!("span.{name}.p50_ns"),
            percentile(&sorted(durs), 0.5),
        );
    }
}

// --------------------------------------------------------- Part loop --

/// One epoch of a `Part` workload on one rank: rank 0 receives, rank 1
/// sends. `owns_proc` is set on the one rank per process that reads the
/// process counters.
pub fn part_rank(
    comm: &Comm,
    w: &Workload,
    counts: Counts,
    seed: u64,
    mut rec: Recorder,
    owns_proc: bool,
) -> RankOut {
    let entered_ns = rec.clock.now_ns();
    let mut out = RankOut::new(comm.rank());
    let receiver = comm.rank() == 0;
    let n = w.n_parts();
    // A polling receiver must not starve a sender that shares its core.
    let one_core = std::thread::available_parallelism().map_or(1, |c| c.get()) == 1;

    let tok = rec.open("part.init");
    let pr = receiver.then(|| comm.precv_init(1, TAG, n, w.part_bytes, PartOptions::default()));
    let ps = (!receiver).then(|| comm.psend_init(0, TAG, n, w.part_bytes, PartOptions::default()));
    rec.close(tok);
    let init_done_ns = rec.clock.now_ns();

    let mut fill_buf = vec![0u8; w.part_bytes];
    let mut digest = FNV_OFFSET;
    let mut samples = Vec::with_capacity(counts.timed);
    let mut first_iter_us = 0.0;
    let mut setup_done_ns = 0;
    // Counters at the start of the timed section: process snapshot,
    // matched messages, iterations run so far.
    let mut timed_from = (Snapshot::default(), 0u64, 0usize);
    let mut iters_run = 0usize;

    for step in steps(counts.warm + counts.timed) {
        if step == Step::Plain(counts.warm) {
            let snap = if owns_proc {
                Snapshot::take()
            } else {
                Snapshot::default()
            };
            timed_from = (snap, comm.matched_messages(), iters_run);
        }
        iters_run += 1;
        match (step, &pr, &ps) {
            (Step::Validated(k), Some(pr), _) => {
                comm.barrier();
                let t0 = Instant::now();
                pr.start();
                pr.wait();
                if k == 0 {
                    first_iter_us = us(t0.elapsed());
                }
                for p in 0..n {
                    pr.read_partition(p, |b| digest = fnv1a(digest, b));
                }
            }
            (Step::Validated(k), _, Some(ps)) => {
                comm.barrier();
                ps.start();
                for p in 0..n {
                    fill(&mut fill_buf, seed, k, p);
                    ps.write_partition(p, |b| b.copy_from_slice(&fill_buf));
                    ps.pready(p);
                }
                ps.wait();
            }
            (Step::Plain(i), Some(pr), _) => {
                rec.set_iter(i);
                let it = rec.open("iter");
                let tok = rec.open("iter.barrier");
                comm.barrier();
                rec.close(tok);
                let t0 = Instant::now();
                if rec.is_on() {
                    // Traced only: poll for the first partition to land
                    // (early-bird latency), then price one probe sweep.
                    let first = rec.open("part.first_arrival");
                    let tok = rec.open("part.start_recv");
                    pr.start();
                    rec.close(tok);
                    while !(0..n).any(|p| pr.parrived(p)) {
                        if one_core {
                            std::thread::yield_now();
                        }
                    }
                    rec.close(first);
                    let tok = rec.open("part.parrived_sweep");
                    for p in 0..n {
                        black_box(pr.parrived(p));
                    }
                    rec.close(tok);
                } else {
                    pr.start();
                }
                let tok = rec.open("part.recv_wait");
                pr.wait();
                rec.close(tok);
                let dt = t0.elapsed();
                rec.close(it);
                if i >= counts.warm {
                    samples.push(us(dt));
                }
                if i + 1 == counts.warm {
                    setup_done_ns = rec.clock.now_ns();
                }
            }
            (Step::Plain(i), _, Some(ps)) => {
                rec.set_iter(i);
                let it = rec.open("iter");
                let tok = rec.open("iter.barrier");
                comm.barrier();
                rec.close(tok);
                let tok = rec.open("part.start_send");
                ps.start();
                rec.close(tok);
                for p in 0..n {
                    let tok = rec.open("part.pready");
                    ps.pready(p);
                    rec.close(tok);
                }
                let tok = rec.open("part.send_wait");
                ps.wait();
                rec.close(tok);
                rec.close(it);
            }
            _ => unreachable!("a rank either sends or receives"),
        }
    }

    if owns_proc {
        put_proc(&mut out, &timed_from.0, &Snapshot::take());
        // Counted while every thread of the universe is alive.
        out.put("proc.threads", timed_from.0.stat.threads);
    }
    // Hold every rank's threads until the counters above are read: a
    // thread that exits takes its context-switch counts with it.
    comm.barrier();
    if receiver {
        put_samples(&mut out, samples, w.bytes_per_iter());
        out.put("setup.done_us", setup_done_ns as f64 / 1e3);
        out.put("setup.bringup_us", entered_ns as f64 / 1e3);
        out.put("setup.init_us", (init_done_ns - entered_ns) as f64 / 1e3);
        out.put("setup.first_iter_us", first_iter_us);
        out.put(
            "fabric.msgs_per_iter",
            (comm.matched_messages() - timed_from.1) as f64 / (iters_run - timed_from.2) as f64,
        );
        out.put("ops.attempted", iters_run as f64);
        out.digest = Some(digest);
    }
    put_span_medians(&mut out, rec.spans());
    out.spans = rec.spans().to_vec();
    out
}

// ---------------------------------------------------- strategy kinds --

/// Per-iteration times of `approach` with the warm-up iteration
/// `measure` puts at index 0 dropped; empty on the sending process of a
/// wire fabric.
fn timed_overheads_us(approach: RealApproach, sc: &RealScenario, rec: &mut Recorder) -> Vec<f64> {
    let tok = rec.open("strategies.measure");
    let times = measure(approach, sc);
    rec.close(tok);
    times.into_iter().skip(1).map(us).collect()
}

/// One epoch of a strategy kind in this process. `measure` brings up a
/// universe of its own per call (a fresh mesh between the same two
/// processes on a wire fabric), so set-up is everything up to the
/// return of the first strategy's warm-up call.
pub fn strategies_epoch(
    w: &Workload,
    counts: Counts,
    seed: u64,
    mut rec: Recorder,
    rank: usize,
) -> RankOut {
    let entered_ns = rec.clock.now_ns();
    let mut out = RankOut::new(rank);
    let approaches = w.approaches();
    let max_delay_us = scenario(w, seed, 1).max_delay_us();

    let tok = rec.open("strategies.measure");
    let warm_call = Instant::now();
    let warm = measure(approaches[0], &scenario(w, seed, counts.warm));
    let warm_call_us = us(warm_call.elapsed());
    rec.close(tok);
    let setup_done_ns = rec.clock.now_ns();
    let receiver = !warm.is_empty();

    let a = Snapshot::take();
    let per_approach: Vec<Vec<f64>> = approaches
        .iter()
        .map(|&ap| timed_overheads_us(ap, &scenario(w, seed, counts.timed + 1), &mut rec))
        .collect();
    put_proc(&mut out, &a, &Snapshot::take());

    let sc = scenario(w, seed, STRATEGY_VALIDATED_ITERS);
    let digests: Vec<u64> = approaches
        .iter()
        .map(|&ap| {
            let tok = rec.open("strategies.measure_validated");
            let (_, digest) = measure_validated(ap, &sc);
            rec.close(tok);
            digest
        })
        .collect();

    if receiver {
        let p50s: Vec<f64> = per_approach
            .iter()
            .map(|t| percentile(&sorted(t.clone()), 0.5))
            .collect();
        for (ap, p50) in approaches.iter().zip(&p50s) {
            out.put(format!("strat.{}.p50_us", approach_key(*ap)), *p50);
        }
        // One iteration is one transfer by each strategy; under delays
        // only the pipelined strategy's time-to-solution is the iteration.
        let samples: Vec<f64> = if w.kind == Kind::Pipeline {
            per_approach[0].iter().map(|t| t + max_delay_us).collect()
        } else {
            (0..counts.timed)
                .map(|i| per_approach.iter().map(|t| t[i]).sum())
                .collect()
        };
        put_samples(&mut out, samples, w.bytes_per_iter());
        // The gated p50 is the sum of the per-strategy medians (what the
        // ledger rows add up to), not the median of the sums.
        let iter_p50 = if w.kind == Kind::Pipeline {
            p50s[0] + max_delay_us
        } else {
            p50s.iter().sum()
        };
        out.put("iter.p50_us", iter_p50);
        out.put("strat.max_delay_us", max_delay_us);
        out.put("setup.done_us", setup_done_ns as f64 / 1e3);
        out.put("setup.bringup_us", entered_ns as f64 / 1e3);
        let warm_iters_us: f64 = warm.iter().map(|d| us(*d) + max_delay_us).sum();
        out.put("setup.init_us", (warm_call_us - warm_iters_us).max(0.0));
        out.put("setup.first_iter_us", us(warm[0]) + max_delay_us);
        out.put(
            "ops.attempted",
            (counts.warm + counts.timed + STRATEGY_VALIDATED_ITERS) as f64,
        );
        // All strategies must have delivered the same bytes.
        if digests.iter().all(|d| *d == digests[0]) {
            out.digest = Some(digests[0]);
        }
    }
    put_span_medians(&mut out, rec.spans());
    out.spans = rec.spans().to_vec();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fill_is_a_function_of_seed_iteration_and_partition() {
        let mut a = [0u8; 37];
        let mut b = [0u8; 37];
        fill(&mut a, 42, 3, 5);
        fill(&mut b, 42, 3, 5);
        assert_eq!(a, b);
        // SplitMix64(42)'s first output, little-endian, opens the fill
        // of (k=0, p=0).
        fill(&mut a, 42, 0, 0);
        assert_eq!(a[..8], SplitMix64::new(42).next_u64().to_le_bytes());
        for (seed, k, p) in [(43, 3, 5), (42, 4, 5), (42, 3, 6)] {
            fill(&mut b, seed, k, p);
            fill(&mut a, 42, 3, 5);
            assert_ne!(a, b, "fill ignores one of its inputs");
        }
    }

    #[test]
    fn validated_steps_open_close_and_recur() {
        let s = steps(130);
        assert_eq!(s.first(), Some(&Step::Validated(0)));
        assert_eq!(s.last(), Some(&Step::Validated(3)));
        assert_eq!(
            s.iter().filter(|x| matches!(x, Step::Plain(_))).count(),
            130
        );
        let at = |k| s.iter().position(|x| *x == Step::Validated(k)).unwrap();
        assert_eq!(s[at(1) - 1], Step::Plain(63));
        assert_eq!(s[at(2) - 1], Step::Plain(127));
        // A plain count on the grid does not validate twice at the end.
        assert_eq!(steps(64).len(), 64 + 2);
    }

    #[test]
    fn the_table_follows_the_epoch_rules() {
        for w in &WORKLOADS {
            assert!(w.epochs % 2 == 1, "{}", w.name);
            if w.kind == Kind::Part {
                assert!(w.epochs >= 7, "{}", w.name);
                assert!(
                    w.timed * w.iter_us >= 1_000_000,
                    "{}: an epoch times less than a second",
                    w.name
                );
            } else {
                assert!(w.epochs >= 31, "{}", w.name);
            }
            assert_eq!(
                w.kind == Kind::Part,
                w.approaches().is_empty(),
                "{}",
                w.name
            );
            assert!(find(w.name).is_some());
        }
        let gated: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(gated, ["small_shm", "stream_ipc", "pipeline_uds"]);
        assert_eq!(
            find("pipeline_uds").unwrap().bytes_per_iter(),
            8 * 256 * KIB
        );
        assert_eq!(
            find("strategies_ipc").unwrap().bytes_per_iter(),
            8 * 8 * 16 * KIB
        );
        assert_eq!(find("stream_ipc").unwrap().bytes_per_iter(), 4 * KIB * KIB);
    }

    #[test]
    fn pipeline_ready_times_come_from_the_seed() {
        let w = find("pipeline_uds").unwrap();
        let a = scenario(w, 1, 5);
        assert_eq!(a.delays_us, scenario(w, 1, 9).delays_us);
        assert_ne!(a.delays_us, scenario(w, 2, 5).delays_us);
        // µ·S ≈ 47 µs a partition, accumulated over θ = 8.
        assert!(
            (300.0..450.0).contains(&a.max_delay_us()),
            "{}",
            a.max_delay_us()
        );
        assert!(scenario(find("strategies_ipc").unwrap(), 1, 5).max_delay_us() == 0.0);
    }
}
