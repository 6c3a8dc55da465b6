//! Shared harness for the multiprocess wire tests — the one way a test
//! starts rank processes. `pcomm-core`'s own test binaries and the root
//! package's (`#[path = "../crates/core/tests/common/mod.rs"] mod
//! common;`) both use it.
//!
//! Each `#[test]` doubles as its own SPMD body: the parent run spawns
//! this very test binary once per rank (filtered to the one test by
//! name, so a cell must be a top-level `#[test]` fn) with
//! the `PCOMM_NET_*` environment plus `PCOMM_TEST_CHILD=<scenario>`,
//! and the child branch — taken before any parent logic — joins the
//! socket mesh via `Universe::run`, executes the scenario closure, and
//! writes `ok <digest>` / `err <error>` to `test-out-<rank>` in the
//! rendezvous directory. The parent asserts on those files (and on the
//! per-rank Chrome traces the children write), so a child that fails in
//! an *expected* way still exits 0 and the parent keeps the authority
//! over what counts as a pass.

#![allow(dead_code)]

use std::path::PathBuf;
use std::process::ExitStatus;
use std::time::{Duration, Instant};

use pcomm_core::part::PartOptions;
use pcomm_core::strategies::{measure_validated, RealApproach, RealScenario};
use pcomm_core::{Comm, Universe};
use pcomm_net::launch::{self, RankOutput};
use pcomm_net::{Backend, MultiprocEnv};

/// Marker + scenario selector for the child branch.
pub const ENV_CHILD: &str = "PCOMM_TEST_CHILD";
/// Partition count for the transfer scenario (child side).
pub const ENV_PARTS: &str = "PCOMM_TEST_PARTS";
/// Partition size in bytes for the transfer scenario (child side).
pub const ENV_PART_BYTES: &str = "PCOMM_TEST_PART_BYTES";
/// Sleep between `pready` calls, ms — the "slow but alive" knob.
pub const ENV_PREADY_GAP_MS: &str = "PCOMM_TEST_PREADY_GAP_MS";
/// Passes of the `stream-repeat` scenario.
pub const ENV_ITERS: &str = "PCOMM_TEST_ITERS";
/// Seed of the `handoff-stress` scenario (traffic and timing).
pub const ENV_SEED: &str = "PCOMM_TEST_SEED";
/// Rounds of the `handoff-stress` scenario.
pub const ENV_ROUNDS: &str = "PCOMM_TEST_ROUNDS";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a accumulator.
pub fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc = (acc ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Deterministic payload for partition `p` — every byte depends on both
/// the partition index and the offset, so a misrouted or replayed chunk
/// shows up in the digest.
pub fn fill_pattern(p: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (p.wrapping_mul(131) ^ i.wrapping_mul(7) ^ 0x5a) as u8;
    }
}

/// The digest a correct receiver must compute for the transfer scenario.
pub fn expected_digest(n_parts: usize, part_bytes: usize) -> u64 {
    let mut buf = vec![0u8; part_bytes];
    let mut acc = FNV_OFFSET;
    for p in 0..n_parts {
        fill_pattern(p, &mut buf);
        acc = fnv1a(acc, &buf);
    }
    acc
}

/// The transfer scenario: rank 1 streams `n_parts` partitions to rank 0,
/// which digests them in order. Returns the digest at rank 0, 0 at the
/// sender. `pready_gap` paces the sender (slow-but-alive runs).
pub fn transfer(comm: &Comm, n_parts: usize, part_bytes: usize, pready_gap: Duration) -> u64 {
    if comm.rank() == 0 {
        let pr = comm.precv_init(1, 7, n_parts, part_bytes, PartOptions::default());
        pr.start();
        pr.wait();
        let mut acc = FNV_OFFSET;
        for p in 0..n_parts {
            acc = fnv1a(acc, pr.partition(p));
        }
        acc
    } else {
        let ps = comm.psend_init(0, 7, n_parts, part_bytes, PartOptions::default());
        ps.start();
        for p in 0..n_parts {
            ps.write_partition(p, |buf| fill_pattern(p, buf));
            ps.pready(p);
            if !pready_gap.is_zero() {
                std::thread::sleep(pready_gap);
            }
        }
        ps.wait();
        0
    }
}

/// How long the early-bird receiver polls for the first partition.
const EARLY_BIRD_DEADLINE: Duration = Duration::from_secs(10);
/// Tag of the early-bird receiver's eager "go".
const GO_TAG: i64 = 9;

/// The early-bird scenario: rank 1 readies partition 0 of `n_parts`
/// alone and then blocks on an eager "go" from rank 0 before it readies
/// the rest; rank 0 sends "go" once `parrived(0)` holds. A carrier that
/// held the lone partition back would stall the pair until the
/// receiver's [`EARLY_BIRD_DEADLINE`]: then rank 0 sends "go" anyway,
/// finishes the transfer and returns `Err`. `Ok`: rank 0's digest, 0 at
/// the sender.
pub fn early_bird(comm: &Comm, n_parts: usize, part_bytes: usize) -> Result<u64, String> {
    if comm.rank() == 0 {
        let pr = comm.precv_init(1, 7, n_parts, part_bytes, PartOptions::default());
        pr.start();
        let t0 = Instant::now();
        while !pr.parrived(0) && t0.elapsed() < EARLY_BIRD_DEADLINE {
            std::thread::yield_now();
        }
        let arrived = pr.parrived(0);
        comm.send(1, GO_TAG, &[1]);
        pr.wait();
        if !arrived {
            return Err(format!(
                "timeout: partition 0 had not arrived {EARLY_BIRD_DEADLINE:?} after its pready"
            ));
        }
        Ok((0..n_parts).fold(FNV_OFFSET, |acc, p| fnv1a(acc, pr.partition(p))))
    } else {
        let ps = comm.psend_init(0, 7, n_parts, part_bytes, PartOptions::default());
        ps.start();
        ps.write_partition(0, |buf| fill_pattern(0, buf));
        ps.pready(0);
        comm.recv_into(Some(0), Some(GO_TAG), &mut [0u8; 1]);
        for p in 1..n_parts {
            ps.write_partition(p, |buf| fill_pattern(p, buf));
            ps.pready(p);
        }
        ps.wait();
        Ok(0)
    }
}

/// SplitMix64: the stress scenarios' seeded source of traffic shapes
/// and timing (both ranks derive the same sequence from the seed).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Burn `d` of CPU without entering the library: "compute".
pub fn compute(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Shape of the hand-off stress traffic (both ranks must agree).
pub const STRESS_EAGER_BYTES: usize = 200;
pub const STRESS_RDV_BYTES: usize = 96 * 1024;
pub const STRESS_PARTS: usize = 8;
pub const STRESS_PART_BYTES: usize = 4096;
/// Every this-many-th round the receiver stays out of the library for
/// [`STRESS_LONG_AWAY`] instead of 0–300 µs — far longer than
/// [`STRESS_BOUND`], so a wake lost at the hand-off shows up as the
/// sender's rendezvous stalling until the receiver's next poll.
pub const STRESS_LONG_EVERY: u64 = 12;
pub const STRESS_LONG_AWAY: Duration = Duration::from_millis(60);
/// No completion may take longer than this: far below the 125 ms
/// progress-thread tick that would rescue a lost wake.
pub const STRESS_BOUND: Duration = Duration::from_millis(40);

fn stress_fill(round: u64, p: usize, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (round.wrapping_mul(31) as usize ^ p.wrapping_mul(131) ^ i.wrapping_mul(7)) as u8;
    }
}

/// What a correct receiver digests over `rounds` of the stress traffic.
pub fn stress_expected_digest(rounds: u64) -> u64 {
    let mut acc = FNV_OFFSET;
    let mut buf = vec![0u8; STRESS_RDV_BYTES];
    for round in 0..rounds {
        for p in 0..STRESS_PARTS {
            stress_fill(round, p, &mut buf[..STRESS_PART_BYTES]);
            acc = fnv1a(acc, &buf[..STRESS_PART_BYTES]);
        }
        stress_fill(round, STRESS_PARTS, &mut buf);
        acc = fnv1a(acc, &buf);
        stress_fill(round, STRESS_PARTS + 1, &mut buf[..STRESS_EAGER_BYTES]);
        acc = fnv1a(acc, &buf[..STRESS_EAGER_BYTES]);
    }
    acc
}

/// The hand-off stress scenario. Every round rank 1 streams a
/// partitioned message, then — a seeded 0–3 µs later, while rank 0 is
/// leaving the poll that message completed — starts a blocking
/// rendezvous send and an eager one. Rank 0 posted the rendezvous
/// receive up front and, between its partitioned `wait` (it polls: the
/// doorbell is its own) and collecting the rest, computes for a seeded
/// 0–300 µs (no polling: its progress thread is counted again and
/// alone answers RTS with CTS and drains the slab). A wake lost at that
/// hand-off leaves the rendezvous hanging until rank 0 polls again —
/// 60 ms later every twelfth round. Rounds close with a one-partition
/// ack 0 → 1 (partitioned, so the auditor's happens-before pass sees
/// what orders the sender's next buffer write after this round's
/// commits). Returns the digest at rank 0 (0 at the sender) and the
/// slowest completion on this rank (the ack wait, which absorbs the
/// peer's absence by design, is not timed).
pub fn handoff_stress(comm: &Comm, seed: u64, rounds: u64) -> (u64, Duration) {
    let mut timing = SplitMix(seed ^ (0xa5a5 + comm.rank() as u64));
    let mut gap = move |below_ns: u64| Duration::from_nanos(timing.below(below_ns));
    let mut slowest = Duration::ZERO;
    let mut timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        slowest = slowest.max(t0.elapsed());
    };
    let mut acc = FNV_OFFSET;
    let mut small = vec![0u8; STRESS_EAGER_BYTES];
    let opts = PartOptions::default;
    if comm.rank() == 0 {
        let pr = comm.precv_init(1, 9, STRESS_PARTS, STRESS_PART_BYTES, opts());
        let ack = comm.psend_init(1, 10, 1, 8, opts());
        let rdv = comm.recv_init(1, 5, STRESS_RDV_BYTES);
        for round in 0..rounds {
            rdv.start();
            pr.start();
            compute(gap(300_000));
            timed(&mut || pr.wait());
            if (round + 1) % STRESS_LONG_EVERY == 0 {
                std::thread::sleep(STRESS_LONG_AWAY);
            } else {
                compute(gap(300_000));
            }
            timed(&mut || {
                rdv.wait();
            });
            timed(&mut || {
                comm.recv_into(Some(1), Some(4), &mut small);
            });
            for p in 0..STRESS_PARTS {
                acc = fnv1a(acc, pr.partition(p));
            }
            rdv.read(|b| acc = fnv1a(acc, b));
            acc = fnv1a(acc, &small);
            ack.start();
            ack.write_partition(0, |b| b.copy_from_slice(&round.to_le_bytes()));
            ack.pready(0);
            ack.wait();
        }
        (acc, slowest)
    } else {
        let ps = comm.psend_init(0, 9, STRESS_PARTS, STRESS_PART_BYTES, opts());
        let ack = comm.precv_init(0, 10, 1, 8, opts());
        let mut big = vec![0u8; STRESS_RDV_BYTES];
        for round in 0..rounds {
            ack.start();
            compute(gap(300_000));
            timed(&mut || {
                ps.start();
                for p in 0..STRESS_PARTS {
                    ps.write_partition(p, |buf| stress_fill(round, p, buf));
                    ps.pready(p);
                    compute(gap(2_000));
                }
                ps.wait();
            });
            stress_fill(round, STRESS_PARTS, &mut big);
            stress_fill(round, STRESS_PARTS + 1, &mut small);
            compute(gap(3_000));
            // RTS, its CTS answer and the slab drain all need rank 0's
            // progress thread: its app thread is computing (or asleep).
            timed(&mut || comm.send(0, 5, &big));
            timed(&mut || comm.send(0, 4, &small));
            ack.wait();
            assert_eq!(ack.partition(0), round.to_le_bytes(), "ack out of step");
        }
        (0, slowest)
    }
}

/// The async-progress scenario: rank 0 posts a rendezvous-sized
/// receive and then stays out of the library — no wait, no poll — for
/// `away`; rank 1's blocking send needs rank 0's RTS→CTS answer and
/// slab drain meanwhile. Returns how long that send took (rank 1).
pub fn async_progress(comm: &Comm, away: Duration) -> (u64, Duration) {
    let len = 256 * 1024;
    if comm.rank() == 0 {
        let recv = comm.recv_init(1, 5, len);
        recv.start();
        std::thread::sleep(away);
        recv.wait();
        let mut acc = FNV_OFFSET;
        recv.read(|b| acc = fnv1a(acc, b));
        (acc, Duration::ZERO)
    } else {
        let mut buf = vec![0u8; len];
        fill_pattern(3, &mut buf);
        // Let rank 0's app thread go away and its progress thread park.
        std::thread::sleep(away / 4);
        let t0 = Instant::now();
        comm.send(0, 5, &buf);
        (0, t0.elapsed())
    }
}

/// Partition `p`'s bytes in the stream-repeat scenario: one `memset`,
/// so the sender's pace is the fabric's, not the fill's.
fn flat_byte(p: usize) -> u8 {
    (p as u8).wrapping_mul(37) ^ 0x5a
}

/// The digest a correct receiver computes for one stream-repeat pass.
pub fn flat_expected_digest(n_parts: usize, part_bytes: usize) -> u64 {
    (0..n_parts).fold(FNV_OFFSET, |acc, p| {
        fnv1a(acc, &vec![flat_byte(p); part_bytes])
    })
}

/// The stream-repeat scenario: the same partitioned transfer `iters`
/// times back to back, the receiver going straight from one `wait`
/// into the next `start`/`wait` (it is out of a wait for nanoseconds).
/// Returns the digest of the last pass at rank 0, 0 at the sender; and
/// at the sender, the doorbell wakes each pass paid (empty at rank 0).
pub fn stream_repeat(
    comm: &Comm,
    n_parts: usize,
    part_bytes: usize,
    iters: usize,
) -> (u64, Vec<u64>) {
    if comm.rank() == 0 {
        let pr = comm.precv_init(1, 7, n_parts, part_bytes, PartOptions::default());
        for _ in 0..iters {
            pr.start();
            pr.wait();
        }
        let digest = (0..n_parts).fold(FNV_OFFSET, |acc, p| fnv1a(acc, pr.partition(p)));
        (digest, Vec::new())
    } else {
        let ps = comm.psend_init(0, 7, n_parts, part_bytes, PartOptions::default());
        let wakes = || comm.doorbell_stats().unwrap_or_default().wakes;
        let mut pass_wakes = Vec::with_capacity(iters);
        for _ in 0..iters {
            let before = wakes();
            ps.start();
            for p in 0..n_parts {
                ps.write_partition(p, |buf| buf.fill(flat_byte(p)));
                ps.pready(p);
            }
            ps.wait();
            pass_wakes.push(wakes() - before);
        }
        (0, pass_wakes)
    }
}

/// Partition `p`'s bytes in pass `it` of the rewrite scenario.
fn pass_fill(it: usize, p: usize, buf: &mut [u8]) {
    fill_pattern(p.wrapping_add(it.wrapping_mul(31)), buf);
}

/// The rewrite scenario: `iters` passes of one partitioned transfer,
/// the sender rewriting its whole buffer with the next pass's bytes the
/// moment each `wait` returns (a `start`, then every partition, before
/// any `pready`). A send that completed before the receiver had read
/// its bytes shows as a wrong digest. Returns at rank 0 the digest of
/// every pass, folded; 0 at the sender.
pub fn rewrite_after_wait(comm: &Comm, n_parts: usize, part_bytes: usize, iters: usize) -> u64 {
    if comm.rank() == 0 {
        let pr = comm.precv_init(1, 7, n_parts, part_bytes, PartOptions::default());
        let mut acc = FNV_OFFSET;
        for _ in 0..iters {
            pr.start();
            pr.wait();
            acc = (0..n_parts).fold(acc, |acc, p| fnv1a(acc, pr.partition(p)));
        }
        acc
    } else {
        let ps = comm.psend_init(0, 7, n_parts, part_bytes, PartOptions::default());
        for it in 0..iters {
            ps.start();
            for p in 0..n_parts {
                ps.write_partition(p, |buf| pass_fill(it, p, buf));
            }
            (0..n_parts).for_each(|p| ps.pready(p));
            ps.wait();
        }
        0
    }
}

/// The digest a correct receiver computes for the rewrite scenario.
pub fn rewrite_expected_digest(n_parts: usize, part_bytes: usize, iters: usize) -> u64 {
    let mut buf = vec![0u8; part_bytes];
    let passes = (0..iters).flat_map(|it| (0..n_parts).map(move |p| (it, p)));
    passes.fold(FNV_OFFSET, |acc, (it, p)| {
        pass_fill(it, p, &mut buf);
        fnv1a(acc, &buf)
    })
}

/// The zero-length rendezvous scenario, run with every message sent by
/// rendezvous: rank 1 sends an empty message, then four bytes, to rank
/// 0. Returns at rank 0 the empty receive's length in the high word and
/// the four bytes in the low one; 0 at the sender, whose sends must
/// have returned for the run to end.
pub fn zero_rdv(comm: &Comm) -> u64 {
    if comm.rank() == 0 {
        let empty = comm.recv_into(Some(1), Some(3), &mut []);
        let mut four = [0u8; 4];
        comm.recv_into(Some(1), Some(4), &mut four);
        (empty.len as u64) << 32 | u64::from(u32::from_le_bytes(four))
    } else {
        comm.send(0, 3, &[]);
        comm.send(0, 4, &[1, 2, 3, 4]);
        0
    }
}

/// Tagged messages in the echo scenario.
pub const ECHO_TAGS: i64 = 16;

/// The eager echo scenario: rank 0 sends `ECHO_TAGS` tagged 32-byte
/// eager messages to rank 1, which digests them in tag order and echoes
/// its digest back. Both ranks return that digest (rank 0 the echo).
pub fn echo(comm: &Comm) -> u64 {
    if comm.rank() == 0 {
        for tag in 0..ECHO_TAGS {
            comm.send(1, tag, &[tag as u8; 32]);
        }
        let mut b = [0u8; 8];
        comm.recv_into(Some(1), Some(99), &mut b);
        u64::from_le_bytes(b)
    } else {
        let mut acc = FNV_OFFSET;
        let mut b = [0u8; 32];
        for tag in 0..ECHO_TAGS {
            comm.recv_into(Some(0), Some(tag), &mut b);
            acc = fnv1a(acc, &b);
        }
        comm.send(0, 99, &acc.to_le_bytes());
        acc
    }
}

/// The digest both ranks of a correct echo report.
pub fn echo_expected_digest() -> u64 {
    (0..ECHO_TAGS).fold(FNV_OFFSET, |acc, tag| fnv1a(acc, &[tag as u8; 32]))
}

/// The strategies scenario's shapes: one all-eager, one whose bulk
/// buffers cross the 64 KiB eager ceiling, so the single-message
/// strategy takes the wire rendezvous path (an `Rts` and a one-message
/// stream).
pub fn strategy_scenarios() -> Vec<RealScenario> {
    vec![
        RealScenario::immediate(2, 2, 96, 2, 2),
        RealScenario::immediate(2, 1, 40 * 1024, 1, 2),
    ]
}

/// The strategies scenario: every one of the eight strategies over each
/// of [`strategy_scenarios`], returning the receiver's digests in
/// (scenario, approach) order. Each strategy runs universes of its own:
/// in process they are the shared-memory baseline; in a rank process
/// each joins the mesh, and rank 1 (the receiver) holds the wire's
/// digests.
pub fn strategy_digests() -> Vec<u64> {
    strategy_scenarios()
        .iter()
        .flat_map(|sc| RealApproach::ALL.map(|a| measure_validated(a, sc).1))
        .collect()
}

/// `scenario <i> / <approach>` for each entry of [`strategy_digests`].
pub fn strategy_labels() -> Vec<String> {
    (0..strategy_scenarios().len())
        .flat_map(|i| RealApproach::ALL.map(|a| format!("scenario {i} / {}", a.label())))
        .collect()
}

/// The barrier-storm scenario: pure control traffic, so a half-open
/// socket leaves the peer with nothing but silence for the
/// heartbeat monitor to judge.
pub fn barrier_storm(comm: &Comm, rounds: usize) -> u64 {
    for _ in 0..rounds {
        comm.barrier();
    }
    0
}

/// The threads this rank process runs at steady state, read from
/// `/proc/self/task` between two barriers: every carrier thread is up
/// and nothing is tearing down yet. The test harness's own main thread
/// is not counted: it only waits for the test thread, which plays the
/// rank process's main thread (the one that called `Universe::run`).
pub fn threads_at_steady_state(comm: &Comm) -> u64 {
    comm.barrier();
    let threads = std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    comm.barrier();
    threads.saturating_sub(1) as u64
}

/// Child branch: when `PCOMM_TEST_CHILD` is set, run the selected
/// scenario as this process's rank and report through the out file.
/// Returns `true` when this process was a child (the test should then
/// return without running its parent logic).
pub fn maybe_run_child() -> bool {
    let Ok(scenario) = std::env::var(ENV_CHILD) else {
        return false;
    };
    let env = MultiprocEnv::from_env().expect("child requires the PCOMM_NET_* environment");
    let env_usize = |key: &str, default: usize| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let n_parts = env_usize(ENV_PARTS, 16);
    let part_bytes = env_usize(ENV_PART_BYTES, 16 * 1024);
    let gap = Duration::from_millis(env_usize(ENV_PREADY_GAP_MS, 0) as u64);
    let iters = env_usize(ENV_ITERS, 1);
    let seed = env_usize(ENV_SEED, 1) as u64;
    let rounds = env_usize(ENV_ROUNDS, 240) as u64;
    let write_out = |line: String| {
        std::fs::write(env.dir.join(format!("test-out-{}", env.rank)), line)
            .expect("write child out file");
    };
    if scenario == "strategies" {
        // Every strategy runs universes of its own; a failed one panics
        // the child, which the parent sees as a failed exit.
        let digests = strategy_digests();
        let fold = digests
            .iter()
            .fold(FNV_OFFSET, |acc, d| fnv1a(acc, &d.to_le_bytes()));
        write_out(format!("ok {fold:016x}{}", list_field("digests", &digests)));
        return true;
    }
    // When the scenario body returned; `run` still has the fabric's
    // teardown (closing barrier, `Bye`s, progress-thread join) to do.
    let body_done = std::sync::Mutex::new(None);
    // Per-pass figures a scenario reports beside its digest.
    let pass_wakes = std::sync::Mutex::new(Vec::new());
    // A failure a scenario reports instead of its digest.
    let failed = std::sync::Mutex::new(None);
    let universe = match scenario.as_str() {
        // Every message, the empty one included, goes by rendezvous.
        "zero-rdv" => Universe::new(env.n_ranks).with_eager_max(0),
        _ => Universe::new(env.n_ranks),
    };
    let result = universe.run(|comm| {
        let (digest, slowest) = match scenario.as_str() {
            "barrier-storm" => (barrier_storm(&comm, 10_000), Duration::ZERO),
            // Rank 1 vanishes without ceremony after one barrier — the
            // harness's stand-in for a peer process dying mid-run. Rank 0
            // keeps hammering barriers until liveness monitoring notices.
            "abort-mid" => {
                comm.barrier();
                if comm.rank() == 1 {
                    std::process::abort();
                }
                (barrier_storm(&comm, 10_000), Duration::ZERO)
            }
            "handoff-stress" => handoff_stress(&comm, seed, rounds),
            "async-progress" => async_progress(&comm, Duration::from_millis(400)),
            "threads" => (threads_at_steady_state(&comm), Duration::ZERO),
            "zero-rdv" => (zero_rdv(&comm), Duration::ZERO),
            "rewrite" => (
                rewrite_after_wait(&comm, n_parts, part_bytes, iters),
                Duration::ZERO,
            ),
            "echo" => (echo(&comm), Duration::ZERO),
            "early-bird" => {
                let digest = early_bird(&comm, n_parts, part_bytes).unwrap_or_else(|e| {
                    *failed.lock().unwrap() = Some(e);
                    0
                });
                (digest, Duration::ZERO)
            }
            "stream-repeat" => {
                let (digest, wakes) = stream_repeat(&comm, n_parts, part_bytes, iters);
                *pass_wakes.lock().unwrap() = wakes;
                (digest, Duration::ZERO)
            }
            _ => (transfer(&comm, n_parts, part_bytes, gap), Duration::ZERO),
        };
        let bell = comm.doorbell_stats().unwrap_or_default();
        *body_done.lock().unwrap() = Some(Instant::now());
        (digest, slowest, bell)
    });
    let teardown = body_done
        .lock()
        .unwrap()
        .map_or(Duration::ZERO, |t| t.elapsed());
    let line = match (result, failed.into_inner().unwrap()) {
        (Ok(_), Some(e)) => format!("err {e}"),
        (Ok(vals), None) => {
            let (digest, slowest, bell) = vals[0];
            format!(
                "ok {digest:016x} slowest_us={} teardown_us={} rings={} wakes={} \
                 parks_counted={} parks_uncounted={} copied_for_peers={} \
                 copied_by_peers={}{}",
                slowest.as_micros(),
                teardown.as_micros(),
                bell.rings,
                bell.wakes,
                bell.parks_counted,
                bell.parks_uncounted,
                bell.copied_for_peers,
                bell.copied_by_peers,
                list_field("pass_wakes", &pass_wakes.lock().unwrap())
            )
        }
        (Err(e), _) => format!("err {}", format!("{e}").replace('\n', " | ")),
    };
    write_out(line);
    true
}

/// ` key=a,b,…` for the `ok` line, or nothing for an empty list.
fn list_field(key: &str, values: &[u64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let list: Vec<String> = values.iter().map(u64::to_string).collect();
    format!(" {key}={}", list.join(","))
}

/// The `PCOMM_NET_FABRIC` values a cell covers: the socket carrier
/// always, ipc where the runtime picks it (cross-memory attach works).
pub fn carriers() -> Vec<&'static str> {
    if pcomm_net::sys::cma_works() {
        vec!["socket", "ipc"]
    } else {
        vec!["socket"]
    }
}

/// What one rank process reported back to the parent.
pub struct RankOutcome {
    pub status: ExitStatus,
    /// Contents of `test-out-<rank>`: `ok <digest>` or `err <message>`.
    pub out: String,
    /// The rank's Chrome trace JSON (children run under `PCOMM_TRACE`).
    pub trace: String,
    /// The rank's analysis-grade `.events` ring — written only when the
    /// cell ran with `PCOMM_VERIFY=1`, and on typed-error exits too.
    pub events: Option<pcomm_trace::RankEvents>,
}

impl RankOutcome {
    pub fn digest(&self) -> Option<u64> {
        let d = self.out.strip_prefix("ok ")?.split_whitespace().next()?;
        u64::from_str_radix(d, 16).ok()
    }

    /// A `key=a,b,…` list from the `ok` line (`digests` of the
    /// strategies scenario, `pass_wakes` of stream-repeat); empty when
    /// absent.
    pub fn list(&self, key: &str) -> Vec<u64> {
        self.out
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
            .map_or_else(Vec::new, |list| {
                list.split(',').filter_map(|n| n.parse().ok()).collect()
            })
    }

    /// A `key=<n>` figure from the `ok` line (`slowest_us`,
    /// `teardown_us`, the doorbell and copy tallies).
    pub fn figure(&self, key: &str) -> Option<u64> {
        self.out
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    }
}

/// Knobs a child does not inherit from the suite's environment: a cell
/// that wants faults or verification names them.
const AMBIENT_KNOBS: [&str; 2] = ["PCOMM_FAULTS", "PCOMM_VERIFY"];

/// Spawn `test_name` from this test binary as a 2-rank mesh (UDS, or
/// what a `PCOMM_NET_BACKEND` in `common_env` names) and collect each
/// rank's outcome. `common_env` applies to both ranks,
/// `per_rank_env[r]` only to rank `r`; children always write Chrome
/// traces into the rendezvous dir. Panics if a child outlives `timeout`
/// (after killing it) — no scenario may hang the suite.
pub fn run_wire_pair(
    test_name: &str,
    scenario: &str,
    common_env: &[(&str, String)],
    per_rank_env: [Vec<(&str, String)>; 2],
    timeout: Duration,
) -> Vec<RankOutcome> {
    run_wire_ranks(
        test_name,
        scenario,
        common_env,
        &per_rank_env,
        timeout,
        None,
    )
}

/// [`run_wire_pair`] at one rank per entry of `per_rank_env`, with rank
/// `r` pinned to `cpus[r]` by `taskset` (`None`: unpinned).
pub fn run_wire_ranks(
    test_name: &str,
    scenario: &str,
    common_env: &[(&str, String)],
    per_rank_env: &[Vec<(&str, String)>],
    timeout: Duration,
    cpus: Option<&[usize]>,
) -> Vec<RankOutcome> {
    let n_ranks = per_rank_env.len();
    let backend = (common_env.iter())
        .find(|(k, _)| *k == launch::ENV_BACKEND)
        .map_or(Backend::Uds, |(_, v)| {
            Backend::parse(v).expect("a backend name")
        });
    let spmd = MultiprocEnv::in_fresh_dir(n_ranks, backend).expect("rendezvous dir");
    let dir = &spmd.dir;
    let exe = std::env::current_exe().expect("test binary path");
    let trace_base = dir.join("trace.json");
    let children = launch::spawn_ranks(&spmd, 0..n_ranks, RankOutput::Files, |rank| {
        let mut cmd = launch::pinned_command(&exe, cpus.map(|c| c[rank]));
        cmd.arg(test_name).arg("--exact").arg("--test-threads=1");
        cmd.env(ENV_CHILD, scenario);
        cmd.env("PCOMM_TRACE", &trace_base);
        for knob in AMBIENT_KNOBS {
            cmd.env_remove(knob);
        }
        for (k, v) in common_env.iter().chain(&per_rank_env[rank]) {
            cmd.env(k, v);
        }
        cmd
    })
    .expect("spawn rank children");
    let statuses = launch::wait_ranks(children, Some(Instant::now() + timeout))
        .unwrap_or_else(|e| panic!("{test_name}: {e} ({timeout:?})"));
    for (rank, status) in statuses.iter().enumerate() {
        if !status.success() {
            eprintln!("{test_name}: {status}\n{}", launch::rank_output(dir, rank));
        }
    }
    let outcomes = statuses
        .into_iter()
        .enumerate()
        .map(|(rank, status)| {
            let trace = trace_path(&trace_base, rank);
            let mut events = trace.as_os_str().to_owned();
            events.push(".events");
            RankOutcome {
                status,
                out: std::fs::read_to_string(dir.join(format!("test-out-{rank}")))
                    .unwrap_or_default(),
                trace: std::fs::read_to_string(&trace).unwrap_or_default(),
                events: pcomm_trace::read_events(std::path::Path::new(&events)).ok(),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(dir);
    outcomes
}

fn trace_path(base: &std::path::Path, rank: usize) -> PathBuf {
    let mut s = base.as_os_str().to_owned();
    s.push(format!(".rank{rank}"));
    PathBuf::from(s)
}

/// In-process (shared-memory) digest of the same transfer — the
/// baseline every wire run must agree with bit-for-bit.
pub fn shm_baseline_digest(n_parts: usize, part_bytes: usize) -> u64 {
    let out = Universe::new(2)
        .run(|comm| transfer(&comm, n_parts, part_bytes, Duration::ZERO))
        .expect("in-process baseline failed");
    out[0]
}
