//! The eight pipelined-communication strategies: paper Tables 1–2 as data.
//!
//! The paper defines its strategies as one benchmark template (Fig. 3)
//! plus the init / start / ready / wait cells of Tables 1–2. This module
//! holds exactly that, once: the template's input ([`Scenario`], whose
//! [`Scenario::partition`] is the partition→thread rule), the [`Op`]
//! vocabulary, one [`Strategy`] row per [`Approach`] (`TABLE`), and the
//! template (`run_template`) as an interpreter over a row.
//! `pcomm_simmpi::strategies` runs the same scenarios and rows in virtual
//! time and `figures tables` prints them.
//!
//! This world binds the ops to OS threads, real locks and `Instant`
//! timing. Compute delays are calibrated spin-waits
//! ([`crate::sync::spin_for_micros`]), since `thread::sleep` granularity is
//! far above the µs scale of interest.

use std::time::{Duration, Instant};

use crate::comm::Comm;
use crate::p2p::{PersistentRecv, PersistentSend};
use crate::part::{PartOptions, PrecvRequest, PsendRequest};
use crate::rma::{WinOrigin, WinTarget};
use crate::sync::spin_for_micros;
use crate::Universe;

/// The eight pipelined-communication strategies of Tables 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// MPI-4 partitioned communication, improved implementation.
    PtpPart,
    /// MPI-4 partitioned communication, legacy AM implementation.
    PtpPartOld,
    /// One persistent message after bulk thread synchronization.
    PtpSingle,
    /// One message per partition from per-thread duplicated communicators.
    PtpMany,
    /// One shared window, passive synchronization.
    RmaSinglePassive,
    /// One window per thread, passive synchronization.
    RmaManyPassive,
    /// One shared window, active (PSCW) synchronization.
    RmaSingleActive,
    /// One window per thread, active synchronization.
    RmaManyActive,
}

/// The name the runtime-side harnesses know [`Approach`] by.
pub type RealApproach = Approach;

impl Approach {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Approach; 8] = [
        Approach::PtpPart,
        Approach::PtpPartOld,
        Approach::PtpSingle,
        Approach::PtpMany,
        Approach::RmaSinglePassive,
        Approach::RmaManyPassive,
        Approach::RmaSingleActive,
        Approach::RmaManyActive,
    ];

    /// This strategy's row of Tables 1–2.
    pub fn table(&self) -> &'static Strategy {
        &TABLE[*self as usize]
    }

    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        self.table().label
    }

    /// Table 1's cells `[init, start, ready, wait]` as the paper prints them.
    pub fn sender_ops(&self) -> [String; 4] {
        self.table().sides[SENDER].cells()
    }

    /// Table 2's cells, likewise.
    pub fn receiver_ops(&self) -> [String; 4] {
        self.table().sides[RECEIVER].cells()
    }
}

/// One MPI call of Tables 1–2. Each world binds every op to its own API;
/// "the request", "the window" or "the communicator" an op acts on is the
/// one in the executing thread's slot (see [`Strategy::many`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Create the partitioned send request over the whole buffer.
    PsendInit,
    /// Create the matching partitioned receive request.
    PrecvInit,
    /// Create persistent sends: one for the whole buffer (single) or one
    /// per partition of the slot's thread, tagged by partition (many).
    SendInit,
    /// Create the matching persistent receives.
    RecvInit,
    /// Duplicate the communicator; the slot's later ops use the duplicate.
    CommDup,
    /// Create a window over the whole buffer.
    WinCreate,
    /// `MPI_Win_lock(MPI_MODE_NOCHECK)`, held for the whole run.
    WinLock,
    /// Start the current request.
    Start,
    /// Mark the current partition ready.
    Pready,
    /// Probe the current partition's arrival. The receiver's `Wait` covers
    /// every partition, so both worlds execute this as a no-op and give
    /// the receiver no threads for it.
    Parrived,
    /// Complete the current request.
    Wait,
    /// Put the current partition into the window.
    Put,
    /// Complete the window's puts at the target.
    WinFlush,
    /// 0-byte send ([`NOTIFY_TAG`]): the passive target exposes its
    /// window, the origin reports its puts complete.
    Notify,
    /// Receive the peer's [`Op::Notify`].
    AwaitNotify,
    /// `MPI_Win_start`: open the access epoch once the target posted.
    EpochStart,
    /// `MPI_Win_complete`: close the access epoch.
    EpochComplete,
    /// `MPI_Win_post`: open the exposure epoch of every window.
    Post,
    /// `MPI_Win_wait`: close the exposure epoch of every window.
    EpochWait,
}

impl Op {
    /// The name Tables 1–2 print for this op.
    pub fn mpi_name(&self) -> &'static str {
        match self {
            Op::PsendInit => "MPI_Psend_init",
            Op::PrecvInit => "MPI_Precv_init",
            Op::SendInit => "MPI_Send_init",
            Op::RecvInit => "MPI_Recv_init",
            Op::CommDup => "MPI_Comm_dup",
            Op::WinCreate => "MPI_Win_create",
            Op::WinLock => "MPI_Win_lock",
            Op::Start | Op::EpochStart => "MPI_Start",
            Op::Pready => "MPI_Pready",
            Op::Parrived => "MPI_Parrived",
            Op::Wait | Op::EpochWait => "MPI_Wait",
            Op::Put => "MPI_Put",
            Op::WinFlush => "MPI_Win_flush",
            Op::Notify => "MPI_Send",
            Op::AwaitNotify => "MPI_Recv",
            Op::EpochComplete => "MPI_Complete",
            Op::Post => "MPI_Post",
        }
    }
}

/// One side's row of Table 1 or Table 2, in execution order. The paper's
/// `ready` column is the three `thread_*` / `per_partition` cells: what
/// each of the N threads of the parallel region does before, at and after
/// its partitions.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Once per slot, before the first iteration.
    pub init: &'static [Op],
    /// Master thread, before the parallel region.
    pub start: &'static [Op],
    /// Once per thread, before its first partition.
    pub thread_begin: &'static [Op],
    /// For each partition of the thread, once it is ready.
    pub per_partition: &'static [Op],
    /// Once per thread, after its last partition.
    pub thread_end: &'static [Op],
    /// Master thread, after the parallel region.
    pub wait: &'static [Op],
}

impl Side {
    fn ready(&self) -> impl Iterator<Item = &'static Op> {
        let begin_and_parts = self.thread_begin.iter().chain(self.per_partition);
        begin_and_parts.chain(self.thread_end)
    }

    /// Whether a side without compute of its own (the receiver) needs the
    /// parallel region at all; see [`Op::Parrived`].
    pub fn needs_threads(&self) -> bool {
        self.ready().any(|op| *op != Op::Parrived)
    }

    /// The four cells `[init, start, ready, wait]` as the paper prints them.
    pub fn cells(&self) -> [String; 4] {
        fn cell<'a>(ops: impl Iterator<Item = &'a Op>) -> String {
            ops.map(Op::mpi_name).collect::<Vec<_>>().join(" ")
        }
        let (init, start, wait) = (self.init.iter(), self.start.iter(), self.wait.iter());
        [cell(init), cell(start), cell(self.ready()), cell(wait)]
    }
}

/// Rank of the sending side (Table 1).
pub const SENDER: usize = 0;
/// Rank of the receiving side (Table 2); its `wait` ends the iteration.
pub const RECEIVER: usize = 1;
/// Tag of the 0-byte message rank `r`'s [`Op::Notify`] sends: the sender's
/// "puts complete", the receiver's "window exposed".
pub const NOTIFY_TAG: [i64; 2] = [6, 5];

/// One strategy: its rows of Tables 1–2 plus the paper's "single | many".
#[derive(Debug, Clone, Copy)]
pub struct Strategy {
    /// The label of the paper's figures.
    pub label: &'static str,
    /// `false`: the threads share one communicator / window / request
    /// (slot 0). `true`: thread `t` owns slot `t`, and the init column
    /// runs once per thread.
    pub many: bool,
    /// The partitioned request takes the legacy single-message path.
    pub legacy: bool,
    /// Table 1 at [`SENDER`], Table 2 at [`RECEIVER`].
    pub sides: [Side; 2],
}

impl Strategy {
    /// The init ops `rank` executes per slot: its own column, preceded by
    /// any collective the paper prints in the peer's column only (the
    /// RMA-single sender's `MPI_Comm_dup`) — both ranks must call those.
    pub fn init_ops(&self, rank: usize) -> impl Iterator<Item = Op> {
        let (own, peer) = (self.sides[rank].init, self.sides[1 - rank].init);
        let implied =
            move |op: &&Op| matches!(op, Op::CommDup | Op::WinCreate) && !own.contains(op);
        peer.iter().filter(implied).chain(own).copied()
    }

    /// The persistent messages of `slot` as `(first partition, partitions)`,
    /// each tagged by its first partition: one per partition of thread
    /// `slot` (many), else one for the whole buffer.
    pub fn messages(&self, sc: &Scenario, slot: usize) -> Vec<(usize, usize)> {
        match self.many {
            true => (0..sc.theta).map(|j| (sc.partition(slot, j), 1)).collect(),
            false => vec![(0, sc.n_parts())],
        }
    }
}

type Ops = &'static [Op];

/// Tables 1–2, in [`Approach::ALL`] order: per strategy the sender's line
/// (Table 1) above the receiver's (Table 2).
#[rustfmt::skip] // laid out as the tables it is
const TABLE: [Strategy; 8] = {
    use Op::*;
    const fn side([init, start, thread_begin, per_partition, thread_end, wait]: [Ops; 6]) -> Side {
        Side { init, start, thread_begin, per_partition, thread_end, wait }
    }
    const fn row(label: &'static str, many: bool, sender: [Ops; 6], receiver: [Ops; 6]) -> Strategy {
        Strategy { label, many, legacy: false, sides: [side(sender), side(receiver)] }
    }
    const SINGLE: bool = false;
    const MANY: bool = true;
    //   init                             start            thread begin   per partition    thread end        wait
    let part = row("Pt2Pt part", SINGLE,
        [&[PsendInit],                    &[Start],        &[],           &[Pready],       &[],              &[Wait]],
        [&[PrecvInit],                    &[Start],        &[],           &[Parrived],     &[],              &[Wait]]);
    let passive_target: [Ops; 6] =
        [&[WinCreate],                    &[Notify],       &[],           &[],             &[],              &[AwaitNotify]];
    let active_target: [Ops; 6] =
        [&[WinCreate],                    &[Post],         &[],           &[],             &[],              &[EpochWait]];
    [
        part,
        Strategy { label: "Pt2Pt part - old", legacy: true, ..part },
        row("Pt2Pt single", SINGLE,
        [&[SendInit],                     &[],             &[],           &[],             &[],              &[Start, Wait]],
        [&[RecvInit],                     &[Start],        &[],           &[],             &[],              &[Wait]]),
        row("Pt2Pt many", MANY,
        [&[CommDup, SendInit],            &[],             &[],           &[Start, Wait],  &[],              &[]],
        [&[CommDup, RecvInit],            &[],             &[],           &[Start, Wait],  &[],              &[]]),
        row("RMA single - passive", SINGLE,
        [&[CommDup, WinCreate, WinLock],  &[AwaitNotify],  &[],           &[Put],          &[],              &[WinFlush, Notify]],
        passive_target),
        row("RMA many - passive", MANY,
        [&[WinCreate, WinLock],           &[AwaitNotify],  &[],           &[Put],          &[WinFlush],      &[Notify]],
        passive_target),
        row("RMA single - active", SINGLE,
        [&[CommDup, WinCreate],           &[EpochStart],   &[],           &[Put],          &[],              &[EpochComplete]],
        active_target),
        row("RMA many - active", MANY,
        [&[WinCreate],                    &[],             &[EpochStart], &[Put],          &[EpochComplete], &[]],
        active_target),
    ]
};

/// The input of the Fig. 3 template, the same for both worlds: N threads
/// of θ partitions of `part_bytes` each, the aggregation bound and every
/// partition's ready time.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Worker threads per rank (N).
    pub n_threads: usize,
    /// Partitions per thread (θ); see [`Scenario::partition`].
    pub theta: usize,
    /// Bytes per partition (S_part).
    pub part_bytes: usize,
    /// Aggregation bound for the improved partitioned path
    /// (`MPIR_CVAR_PART_AGGR_SIZE`); `None` disables aggregation.
    pub aggr_size: Option<usize>,
    /// Per-partition ready times in µs from the compute start: spun here,
    /// slept in virtual time by the simulator.
    pub delays_us: Vec<f64>,
    /// Match shards per rank; the simulator's VCIs per rank.
    pub shards: usize,
    /// Iterations (the first is a warm-up the caller may discard).
    pub iterations: usize,
    /// Ablation: defer partitioned sends to `wait()` (no early-bird).
    pub defer_sends: bool,
}

/// The name the runtime-side harnesses know [`Scenario`] by.
pub type RealScenario = Scenario;

impl Scenario {
    /// A delay-free scenario.
    pub fn immediate(
        n_threads: usize,
        theta: usize,
        part_bytes: usize,
        shards: usize,
        iterations: usize,
    ) -> Scenario {
        Scenario {
            n_threads,
            theta,
            part_bytes,
            aggr_size: None,
            delays_us: vec![0.0; n_threads * theta],
            shards,
            iterations,
            defer_sends: false,
        }
    }

    /// Total partitions.
    pub fn n_parts(&self) -> usize {
        self.n_threads * self.theta
    }

    /// Total buffer bytes.
    pub fn total_bytes(&self) -> usize {
        self.n_parts() * self.part_bytes
    }

    /// Thread `t`'s `j`-th partition: partition `p` belongs to thread
    /// `p mod N`, the round-robin attribution of paper §3.2.2.
    pub fn partition(&self, t: usize, j: usize) -> usize {
        t + j * self.n_threads
    }

    /// Largest injected delay (subtracted from measured times).
    pub fn max_delay_us(&self) -> f64 {
        self.delays_us.iter().copied().fold(0.0, f64::max)
    }

    /// Panics on a scenario neither template can run.
    pub fn validate(&self) {
        assert!(self.n_threads >= 1, "need at least one thread");
        assert!(self.theta >= 1, "need at least one partition per thread");
        assert!(self.part_bytes >= 1, "empty partitions not supported");
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.iterations >= 1, "need at least one iteration");
        let covered = self.delays_us.len() == self.n_parts();
        assert!(covered, "delays must cover every partition");
    }
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a (64-bit) running hash.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(h, step)
}

/// Deterministic per-partition fill: every strategy writes the same
/// bytes for partition `p`, so on a clean run every strategy — and every
/// fabric, shared-memory or socket — produces the same digest.
fn fill_pattern(buf: &mut [u8], p: usize) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (p.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) as u8) ^ 0x3D;
    }
}

/// Run `approach` under `scenario`; returns per-iteration communication
/// overhead (receiver-side time-to-solution minus injected compute),
/// including the warm-up iteration at index 0.
pub fn measure(approach: Approach, sc: &Scenario) -> Vec<Duration> {
    run_strategy(approach, sc, false).0
}

/// Like [`measure`], but the sender writes a deterministic pattern and
/// the receiver folds every received byte (canonical partition order,
/// every iteration) into an FNV-1a digest returned alongside the
/// timings. All eight strategies yield the *same* digest for a given
/// scenario, so transport-agreement tests can compare digests across
/// strategies and fabrics. In a multiprocess run only the receiving
/// rank's process observes the real digest (the sender's is 0).
pub fn measure_validated(approach: Approach, sc: &Scenario) -> (Vec<Duration>, u64) {
    run_strategy(approach, sc, true)
}

fn run_strategy(approach: Approach, sc: &Scenario, validate: bool) -> (Vec<Duration>, u64) {
    sc.validate();
    let (row, universe) = (approach.table(), Universe::new(2).with_shards(sc.shards));
    let run_rank = |comm: Comm| {
        let mut rank = Rank {
            row,
            sc,
            validate,
            parent: comm.clone(),
            comms: Vec::new(),
            reqs: Vec::new(),
            origins: Vec::new(),
            targets: Vec::new(),
        };
        run_template(&mut rank, row, sc, &comm)
    };
    let mut out = universe.run(run_rank).expect("measurement universe failed");
    out.pop().expect("receiver produces the timings")
}

/// Binds the ops of a row to an API. The runtime's binding is [`Rank`];
/// tests substitute a recorder to see what the template prescribes.
trait Executor: Sync {
    /// One op of the init column, for `slot`.
    fn init(&mut self, op: Op, slot: usize);
    /// One op of the start / ready / wait columns, executed by thread `t`
    /// (the master is thread 0) at its `j`-th partition. `payload` is the
    /// thread's put source buffer.
    fn exec(&self, op: Op, t: usize, j: usize, payload: &mut [u8]);
    /// Validated runs: fold this iteration's received data into `digest`.
    fn digest(&self, digest: &mut u64);
}

/// The benchmark template of Fig. 3 over one table row: init, then per
/// iteration the inter-rank barrier → start ops → N compute threads
/// issuing the ready ops → wait ops. Returns the receiver's per-iteration
/// overheads and digest (nothing and 0 on the sender).
fn run_template<E: Executor>(
    ex: &mut E,
    row: &Strategy,
    sc: &Scenario,
    comm: &Comm,
) -> (Vec<Duration>, u64) {
    let (role, side) = (comm.rank(), &row.sides[comm.rank()]);
    // Reserved before the init column allocates the request buffers: where
    // this one allocation that outlives them lands moves the heap's
    // high-water mark and the strategies' times (experiments/ARCHIVE.md).
    let mut times = Vec::with_capacity(sc.iterations);
    for slot in 0..if row.many { sc.n_threads } else { 1 } {
        row.init_ops(role).for_each(|op| ex.init(op, slot));
    }
    let ex = &*ex;
    // The receiver has no compute: it needs threads only for ready ops.
    let threaded = role == SENDER || side.needs_threads();
    let compute = Duration::from_nanos((sc.max_delay_us() * 1000.0) as u64);
    let mut digest = if role == SENDER { 0 } else { FNV_OFFSET };
    for _ in 0..sc.iterations {
        comm.barrier();
        let t0 = Instant::now();
        side.start.iter().for_each(|&op| ex.exec(op, 0, 0, &mut []));
        if threaded {
            std::thread::scope(|s| {
                for t in 0..sc.n_threads {
                    s.spawn(move || worker(ex, side, sc, role == SENDER, t));
                }
            });
        }
        side.wait.iter().for_each(|&op| ex.exec(op, 0, 0, &mut []));
        if role == RECEIVER {
            // Time-to-solution minus the injected compute.
            times.push(t0.elapsed().saturating_sub(compute));
            ex.digest(&mut digest);
        }
    }
    (times, digest)
}

/// Thread `t` of the parallel region: spin until each of its partitions
/// is ready (`compute`: the sender), issuing the `ready` column around them.
fn worker<E: Executor>(ex: &E, side: &Side, sc: &Scenario, compute: bool, t: usize) {
    // Only `Put` reads the payload; an empty `Vec` does not allocate.
    let put = side.per_partition.contains(&Op::Put);
    let mut payload = vec![1u8; if put { sc.part_bytes } else { 0 }];
    (side.thread_begin.iter()).for_each(|&op| ex.exec(op, t, 0, &mut payload));
    let t0 = Instant::now();
    for j in 0..sc.theta {
        if compute {
            let ready_us = sc.delays_us[sc.partition(t, j)];
            spin_for_micros(ready_us - t0.elapsed().as_secs_f64() * 1e6);
        }
        (side.per_partition.iter()).for_each(|&op| ex.exec(op, t, j, &mut payload));
    }
    (side.thread_end.iter()).for_each(|&op| ex.exec(op, t, 0, &mut payload));
}

/// A request of either kind, so `Start` / `Wait` need not know which.
enum Req {
    Psend(PsendRequest),
    Precv(PrecvRequest),
    Send(PersistentSend),
    Recv(PersistentRecv),
}

/// One rank's objects on the real runtime: built slot by slot by the init
/// column, then shared read-only by the N threads of every iteration.
struct Rank<'a> {
    row: &'static Strategy,
    sc: &'a Scenario,
    validate: bool,
    parent: Comm,
    /// Slot → duplicated communicator; a slot without one uses `parent`.
    comms: Vec<Comm>,
    /// Slot → its requests, in the order of the slot's partitions.
    reqs: Vec<Vec<Req>>,
    origins: Vec<WinOrigin>,
    targets: Vec<WinTarget>,
}

impl Executor for Rank<'_> {
    fn init(&mut self, op: Op, slot: usize) {
        let (sc, role, peer) = (self.sc, self.parent.rank(), 1 - self.parent.rank());
        let comm = self.comms.get(slot).unwrap_or(&self.parent).clone();
        let part_opts = PartOptions {
            aggr_size: sc.aggr_size.filter(|_| !self.row.legacy),
            legacy_single_message: self.row.legacy,
            defer_sends: sc.defer_sends,
        };
        let messages = self.row.messages(sc, slot);
        match op {
            Op::CommDup => self.comms.push(self.parent.dup()),
            Op::PsendInit => {
                let req = comm.psend_init(peer, 0, sc.n_parts(), sc.part_bytes, part_opts);
                self.reqs.push(vec![Req::Psend(req)]);
            }
            Op::PrecvInit => {
                let req = comm.precv_init(peer, 0, sc.n_parts(), sc.part_bytes, part_opts);
                self.reqs.push(vec![Req::Precv(req)]);
            }
            Op::SendInit => {
                let send = |(first, n): (usize, usize)| {
                    let req = comm.send_init(peer, first as i64, n * sc.part_bytes);
                    if self.validate {
                        req.write(|b| {
                            for (chunk, p) in b.chunks_mut(sc.part_bytes).zip(first..) {
                                fill_pattern(chunk, p);
                            }
                        });
                    }
                    Req::Send(req)
                };
                self.reqs.push(messages.into_iter().map(send).collect());
            }
            Op::RecvInit => {
                let recv = |(first, n): (usize, usize)| {
                    Req::Recv(comm.recv_init(peer, first as i64, n * sc.part_bytes))
                };
                self.reqs.push(messages.into_iter().map(recv).collect());
            }
            Op::WinCreate if role == SENDER => {
                let win = comm.win_create_origin(peer, sc.total_bytes());
                self.origins.push(win);
            }
            Op::WinCreate => {
                let win = comm.win_create_target(peer, sc.total_bytes());
                self.targets.push(win);
            }
            Op::WinLock => self.origins[slot].lock(),
            _ => unreachable!("{op:?} is not an init op"),
        }
    }

    fn exec(&self, op: Op, t: usize, j: usize, payload: &mut [u8]) {
        let (sc, role, peer) = (self.sc, self.parent.rank(), 1 - self.parent.rank());
        let (slot, p) = (if self.row.many { t } else { 0 }, sc.partition(t, j));
        let comm = self.comms.get(slot).unwrap_or(&self.parent);
        match op {
            Op::Start => match &self.reqs[slot][j] {
                Req::Psend(r) => r.start(),
                Req::Precv(r) => r.start(),
                Req::Send(r) => r.start(),
                Req::Recv(r) => r.start(),
            },
            Op::Wait => match &self.reqs[slot][j] {
                Req::Psend(r) => r.wait(),
                Req::Precv(r) => r.wait(),
                Req::Send(r) => r.wait(),
                Req::Recv(r) => drop(r.wait()),
            },
            Op::Pready => {
                let Req::Psend(ps) = &self.reqs[slot][0] else {
                    unreachable!("Pready without PsendInit")
                };
                if self.validate {
                    ps.write_partition(p, |buf| fill_pattern(buf, p));
                }
                ps.pready(p);
            }
            Op::Parrived => {}
            Op::Put => {
                if self.validate {
                    fill_pattern(payload, p);
                }
                self.origins[slot].put(p * sc.part_bytes, payload);
            }
            Op::WinFlush => self.origins[slot].flush(),
            Op::Notify => comm.send(peer, NOTIFY_TAG[role], &[0]),
            Op::AwaitNotify => drop(comm.recv_into(Some(peer), Some(NOTIFY_TAG[peer]), &mut [0])),
            Op::EpochStart => self.origins[slot].start_epoch(),
            Op::EpochComplete => self.origins[slot].complete_epoch(),
            Op::Post => self.targets.iter().for_each(WinTarget::post),
            Op::EpochWait => self.targets.iter().for_each(WinTarget::wait_epoch),
            _ => unreachable!("{op:?} is an init op"),
        }
    }

    /// Folds every partition in ascending order (`j` outer, `t` inner) from
    /// the slot that received it (many), else from the one buffer of all.
    fn digest(&self, digest: &mut u64) {
        if !self.validate {
            return;
        }
        let (sc, len) = (self.sc, self.sc.part_bytes);
        for (j, t) in (0..sc.theta).flat_map(|j| (0..sc.n_threads).map(move |t| (j, t))) {
            let p = sc.partition(t, j);
            let mut fold = |b: &[u8]| *digest = fnv1a(*digest, b);
            let (slot, k, at) = match self.row.many {
                true => (t, j, 0),
                false => (0, 0, p * len),
            };
            match self.reqs.get(slot).map(|reqs| &reqs[k]) {
                Some(Req::Precv(r)) => r.read_partition(p, fold),
                Some(Req::Recv(r)) => r.read(|b| fold(&b[at..at + len])),
                None => self.targets[slot].read(|b| fold(&b[p * len..][..len])),
                Some(_) => unreachable!("a sender holds no received data"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_complete_small_scenario() {
        let sc = Scenario::immediate(2, 1, 256, 2, 3);
        for a in RealApproach::ALL {
            let times = measure(a, &sc);
            assert_eq!(times.len(), 3, "{a:?}");
            for t in &times {
                assert!(
                    *t < Duration::from_millis(100),
                    "{a:?}: implausible iteration {t:?}"
                );
            }
        }
    }

    #[test]
    fn all_strategies_complete_with_theta_and_aggregation() {
        let mut sc = Scenario::immediate(2, 4, 128, 2, 2);
        sc.aggr_size = Some(512);
        for a in RealApproach::ALL {
            let times = measure(a, &sc);
            assert_eq!(times.len(), 2, "{a:?}");
        }
    }

    #[test]
    fn delays_are_subtracted() {
        // A 200µs injected delay must not inflate the reported overhead
        // (single-message bulk waits for it, then subtracts it).
        let mut sc = Scenario::immediate(2, 1, 128, 1, 40);
        sc.delays_us[1] = 200.0;
        let times = measure(RealApproach::PtpSingle, &sc);
        // Wall-clock scheduling can inflate individual iterations (a
        // parallel `cargo test` on two cores inflated all four of the
        // five this used to run, one time in four); the *best* of forty
        // shows the true overhead, which must be far below the injected
        // 200µs delay.
        let best = times[1..].iter().min().unwrap();
        assert!(
            *best < Duration::from_micros(150),
            "delay leaked into overhead: best {best:?} of {times:?}"
        );
    }

    #[test]
    fn rendezvous_sized_scenario_completes() {
        let sc = Scenario::immediate(2, 1, 256 * 1024, 2, 2);
        for a in [
            RealApproach::PtpPart,
            RealApproach::PtpSingle,
            RealApproach::PtpMany,
        ] {
            let times = measure(a, &sc);
            assert_eq!(times.len(), 2, "{a:?}");
        }
    }

    #[test]
    fn validated_strategies_agree_on_digest() {
        let eager = Scenario::immediate(2, 2, 96, 2, 3);
        // Partitioned sends held back to `wait()` deliver the same bytes.
        let deferred = Scenario {
            defer_sends: true,
            ..eager.clone()
        };
        for sc in [eager, deferred] {
            // The canonical digest: every iteration folds all partitions
            // in ascending order, each filled with the deterministic pattern.
            let mut expect = FNV_OFFSET;
            let mut buf = vec![0u8; sc.part_bytes];
            for _ in 0..sc.iterations {
                for p in 0..sc.n_parts() {
                    fill_pattern(&mut buf, p);
                    expect = fnv1a(expect, &buf);
                }
            }
            for a in RealApproach::ALL {
                let (times, digest) = measure_validated(a, &sc);
                let deferred = sc.defer_sends;
                assert_eq!(times.len(), sc.iterations, "{a:?} deferred {deferred}");
                assert_eq!(digest, expect, "{a:?} deferred {deferred}: corrupted bytes");
            }
        }
    }

    #[test]
    fn scenario_accessors() {
        let sc = Scenario::immediate(4, 2, 1024, 1, 10);
        assert_eq!(sc.n_parts(), 8);
        assert_eq!(sc.total_bytes(), 8192);
        assert_eq!(sc.max_delay_us(), 0.0);
        assert_eq!([sc.partition(1, 0), sc.partition(1, 1)], [1, 5]);
        sc.validate();
    }

    /// Thread `t` owns partition `p` iff `p mod N = t` (paper §3.2.2), and
    /// every partition has exactly one owner.
    #[test]
    fn partition_is_round_robin_and_a_bijection() {
        let sc = Scenario::immediate(4, 3, 64, 1, 1);
        let of_thread_1: Vec<usize> = (0..3).map(|j| sc.partition(1, j)).collect();
        assert_eq!(of_thread_1, [1, 5, 9]);
        for (n, theta) in (1..=8).flat_map(|n| (1..=5).map(move |theta| (n, theta))) {
            let sc = Scenario::immediate(n, theta, 64, 1, 1);
            let mut seen = vec![false; sc.n_parts()];
            for (t, j) in (0..n).flat_map(|t| (0..theta).map(move |j| (t, j))) {
                let p = sc.partition(t, j);
                assert_eq!(p % n, t, "partition {p} of N = {n}");
                assert!(!std::mem::replace(&mut seen[p], true), "{p} owned twice");
            }
            assert!(seen.iter().all(|&s| s), "N = {n}, θ = {theta}: an orphan");
        }
    }

    #[test]
    fn max_delay_is_max() {
        let mut sc = Scenario::immediate(2, 2, 64, 1, 1);
        sc.delays_us = vec![0.0, 3.0, 7.0, 5.0];
        assert_eq!(sc.max_delay_us(), 7.0);
    }

    #[test]
    #[should_panic(expected = "delays must cover")]
    fn validate_catches_bad_delays() {
        let mut sc = Scenario::immediate(2, 2, 64, 1, 1);
        sc.delays_us.pop();
        sc.validate();
    }

    #[test]
    fn labels_cover_all() {
        let labels: std::collections::HashSet<&str> =
            RealApproach::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 8);
    }

    /// Tables 1–2 as the paper prints them — the cells the hand-written
    /// string tables held before the ops became data — per approach the
    /// sender's `[init, start, ready, wait]` then the receiver's.
    const PAPER_CELLS: [[[&str; 4]; 2]; 8] = [
        [
            ["MPI_Psend_init", "MPI_Start", "MPI_Pready", "MPI_Wait"],
            ["MPI_Precv_init", "MPI_Start", "MPI_Parrived", "MPI_Wait"],
        ],
        [
            ["MPI_Psend_init", "MPI_Start", "MPI_Pready", "MPI_Wait"],
            ["MPI_Precv_init", "MPI_Start", "MPI_Parrived", "MPI_Wait"],
        ],
        [
            ["MPI_Send_init", "", "", "MPI_Start MPI_Wait"],
            ["MPI_Recv_init", "MPI_Start", "", "MPI_Wait"],
        ],
        [
            ["MPI_Comm_dup MPI_Send_init", "", "MPI_Start MPI_Wait", ""],
            ["MPI_Comm_dup MPI_Recv_init", "", "MPI_Start MPI_Wait", ""],
        ],
        [
            [
                "MPI_Comm_dup MPI_Win_create MPI_Win_lock",
                "MPI_Recv",
                "MPI_Put",
                "MPI_Win_flush MPI_Send",
            ],
            ["MPI_Win_create", "MPI_Send", "", "MPI_Recv"],
        ],
        [
            [
                "MPI_Win_create MPI_Win_lock",
                "MPI_Recv",
                "MPI_Put MPI_Win_flush",
                "MPI_Send",
            ],
            ["MPI_Win_create", "MPI_Send", "", "MPI_Recv"],
        ],
        [
            [
                "MPI_Comm_dup MPI_Win_create",
                "MPI_Start",
                "MPI_Put",
                "MPI_Complete",
            ],
            ["MPI_Win_create", "MPI_Post", "", "MPI_Wait"],
        ],
        [
            ["MPI_Win_create", "", "MPI_Start MPI_Put MPI_Complete", ""],
            ["MPI_Win_create", "MPI_Post", "", "MPI_Wait"],
        ],
    ];

    #[test]
    fn table_renders_the_papers_cells_in_the_papers_order() {
        let labels = [
            "Pt2Pt part",
            "Pt2Pt part - old",
            "Pt2Pt single",
            "Pt2Pt many",
            "RMA single - passive",
            "RMA many - passive",
            "RMA single - active",
            "RMA many - active",
        ];
        for (i, a) in Approach::ALL.into_iter().enumerate() {
            assert_eq!(a as usize, i, "TABLE is indexed by discriminant");
            assert_eq!(a.label(), labels[i]);
            assert_eq!(a.sender_ops(), PAPER_CELLS[i][SENDER], "{a:?} Table 1");
            assert_eq!(a.receiver_ops(), PAPER_CELLS[i][RECEIVER], "{a:?} Table 2");
            assert_eq!(a.table().legacy, a == Approach::PtpPartOld);
        }
    }

    /// The ops the `init` executors bind; every other op belongs to `exec`.
    fn is_init(op: Op) -> bool {
        use Op::*;
        matches!(
            op,
            PsendInit | PrecvInit | SendInit | RecvInit | CommDup | WinCreate | WinLock
        )
    }

    #[test]
    fn every_op_is_used_and_sits_in_a_column_that_executes_it() {
        let mut used = std::collections::HashSet::new();
        for a in Approach::ALL {
            for (rank, side) in a.table().sides.iter().enumerate() {
                for &op in side.init {
                    assert!(is_init(op), "{a:?}: {op:?} in an init column");
                }
                let iteration: Vec<Op> = (side.start.iter().chain(side.ready()))
                    .chain(side.wait)
                    .copied()
                    .collect();
                for &op in &iteration {
                    assert!(!is_init(op), "{a:?}: {op:?} outside the init column");
                }
                used.extend(a.table().init_ops(rank).chain(iteration));
            }
        }
        assert_eq!(used.len(), Op::EpochWait as usize + 1, "an op no row uses");
    }

    /// Who the template asked to execute an op.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Who {
        /// The init column, for a slot.
        Init(usize),
        /// The master thread (start and wait columns).
        Master,
        /// Thread `t` of the parallel region at its `j`-th partition.
        Thread(usize, usize),
    }

    /// An executor that binds every op to a log entry.
    struct Recording {
        master: std::thread::ThreadId,
        log: crate::sync::Mutex<Vec<(Who, Op)>>,
    }

    impl Executor for Recording {
        fn init(&mut self, op: Op, slot: usize) {
            self.log.lock().push((Who::Init(slot), op));
        }

        fn exec(&self, op: Op, t: usize, j: usize, _payload: &mut [u8]) {
            let who = if std::thread::current().id() == self.master {
                Who::Master
            } else {
                Who::Thread(t, j)
            };
            self.log.lock().push((who, op));
        }

        fn digest(&self, _digest: &mut u64) {}
    }

    /// What `run_template` asks of the executor on both ranks of `row`.
    fn recorded(row: &'static Strategy, sc: &Scenario) -> Vec<Vec<(Who, Op)>> {
        Universe::new(2)
            .run(|comm| {
                let mut ex = Recording {
                    master: std::thread::current().id(),
                    log: crate::sync::Mutex::new(Vec::new()),
                };
                run_template(&mut ex, row, sc, &comm);
                let log = std::mem::take(&mut *ex.log.lock());
                log
            })
            .unwrap()
    }

    /// The template executes exactly what the table prescribes: the init
    /// column once per slot (implied collectives included), then per
    /// iteration the start column on the master, the ready column on each
    /// thread around its partitions, the wait column on the master — and
    /// nothing else. This is the test that catches a side skipping a
    /// collective (the runtime's RMA-single rows once had no
    /// `MPI_Comm_dup`).
    #[test]
    fn the_template_executes_exactly_what_the_table_prescribes() {
        let sc = Scenario::immediate(2, 2, 96, 2, 2);
        for a in Approach::ALL {
            let row = a.table();
            for (rank, log) in recorded(row, &sc).into_iter().enumerate() {
                let side = &row.sides[rank];
                let by = |pick: &dyn Fn(&Who) -> bool| -> Vec<(Who, Op)> {
                    log.iter().filter(|(w, _)| pick(w)).copied().collect()
                };
                // init: every slot runs the whole column, in order.
                let slots = if row.many { sc.n_threads } else { 1 };
                let init: Vec<(Who, Op)> = (0..slots)
                    .flat_map(|slot| row.init_ops(rank).map(move |op| (Who::Init(slot), op)))
                    .collect();
                assert_eq!(log[..init.len()], init[..], "{a:?} rank {rank} init");
                // master: start then wait, every iteration.
                let master: Vec<(Who, Op)> = (0..sc.iterations)
                    .flat_map(|_| side.start.iter().chain(side.wait))
                    .map(|&op| (Who::Master, op))
                    .collect();
                assert_eq!(
                    by(&|w| *w == Who::Master),
                    master,
                    "{a:?} rank {rank} master"
                );
                // threads: begin, θ × per-partition, end, every iteration —
                // on the receiver only where the ready column executes.
                let threaded = rank == SENDER || side.needs_threads();
                for t in 0..sc.n_threads {
                    let at =
                        |j: usize, ops: Ops| ops.iter().map(move |&op| (Who::Thread(t, j), op));
                    let once = || {
                        let parts = (0..sc.theta).flat_map(|j| at(j, side.per_partition));
                        (at(0, side.thread_begin).chain(parts)).chain(at(0, side.thread_end))
                    };
                    let thread: Vec<(Who, Op)> = (0..sc.iterations)
                        .filter(|_| threaded)
                        .flat_map(|_| once())
                        .collect();
                    assert_eq!(
                        by(&|w| matches!(w, Who::Thread(tt, _) if *tt == t)),
                        thread,
                        "{a:?} rank {rank} thread {t}"
                    );
                }
                // phases: within an iteration the master's start ops come
                // before every thread op, its wait ops after.
                let ready = side.ready().count() + (sc.theta - 1) * side.per_partition.len();
                let per_iteration = [
                    (true, side.start.len()),
                    (false, if threaded { ready * sc.n_threads } else { 0 }),
                    (true, side.wait.len()),
                ];
                let phases: Vec<bool> = (0..sc.iterations)
                    .flat_map(|_| per_iteration)
                    .flat_map(|(master, n)| std::iter::repeat_n(master, n))
                    .collect();
                let seen: Vec<bool> = log[init.len()..]
                    .iter()
                    .map(|(w, _)| *w == Who::Master)
                    .collect();
                assert_eq!(seen, phases, "{a:?} rank {rank} phase order");
            }
        }
        // The drift this would have caught, spelled out: the receiver of
        // both RMA-single rows dups before it creates the window.
        for a in [Approach::RmaSinglePassive, Approach::RmaSingleActive] {
            let receiver = &recorded(a.table(), &sc)[RECEIVER];
            let expect = [(Who::Init(0), Op::CommDup), (Who::Init(0), Op::WinCreate)];
            assert_eq!(receiver[..2], expect, "{a:?}");
            assert!(matches!(receiver[2], (Who::Master, _)), "{a:?}");
        }
    }
}
