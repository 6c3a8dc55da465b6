//! The typed event taxonomy: every phenomenon the paper measures, as a
//! compact fixed-size record.
//!
//! Events encode to four `u64` words so the ring recorder can store them
//! in atomic slots (seqlock publication, no allocation on the hot path):
//!
//! ```text
//! w0 = timestamp [ns]
//! w1 = tag(16) | rank(16) | aux1(16) | aux2(16)
//! w2, w3 = two u64 payload fields (bytes, durations, counters)
//! ```

use std::fmt;

/// Which chaos fault a [`EventKind::FaultInjected`] event records.
///
/// The discriminants are the on-wire codes (stored in `aux1` of the
/// four-word encoding); they are stable and must not be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A message attempt was dropped before delivery.
    Drop = 1,
    /// A message was delayed before delivery.
    Delay = 2,
    /// An eager message was delivered twice.
    Duplicate = 3,
    /// A message was held back so a later one overtakes it.
    Reorder = 4,
    /// The issue order of a `pready_range`/`pready_list` was permuted.
    PreadyJitter = 5,
    /// A wire write delivered only a prefix of its bytes.
    TornWrite = 6,
    /// A wire read returned fewer bytes than were available.
    ShortRead = 7,
    /// A byte of an outgoing wire write was flipped in flight.
    Garbage = 8,
    /// A connection was reset at a write boundary.
    Reset = 9,
    /// A writer lane was killed after its byte threshold.
    LaneKill = 10,
    /// Writes began disappearing silently (half-open peer).
    HalfOpen = 11,
}

impl FaultKind {
    /// Stable wire code (the enum discriminant).
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decode a wire code; `None` for unknown codes.
    pub fn from_code(code: u16) -> Option<FaultKind> {
        Some(match code {
            1 => FaultKind::Drop,
            2 => FaultKind::Delay,
            3 => FaultKind::Duplicate,
            4 => FaultKind::Reorder,
            5 => FaultKind::PreadyJitter,
            6 => FaultKind::TornWrite,
            7 => FaultKind::ShortRead,
            8 => FaultKind::Garbage,
            9 => FaultKind::Reset,
            10 => FaultKind::LaneKill,
            11 => FaultKind::HalfOpen,
            _ => return None,
        })
    }

    /// Stable lower-case name, greppable in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::PreadyJitter => "pready_jitter",
            FaultKind::TornWrite => "torn_write",
            FaultKind::ShortRead => "short_read",
            FaultKind::Garbage => "garbage",
            FaultKind::Reset => "reset",
            FaultKind::LaneKill => "lane_kill",
            FaultKind::HalfOpen => "half_open",
        }
    }
}

/// One trace event: a timestamp, the rank it is attributed to, and a
/// typed payload.
///
/// Timestamps are nanoseconds since the trace epoch — wall-clock on the
/// real runtime, virtual time in the simulator. The shared timebase is
/// what makes sim and real traces directly comparable in one viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Rank the event is attributed to.
    pub rank: u16,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy, covering the paper's phenomena end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Waited to acquire a match-shard lock (real runtime) or a VCI
    /// (simulator) — the contention of Figs. 5–6. Span.
    LockWait {
        /// Shard / VCI index.
        shard: u16,
        /// Time spent waiting for the lock, in ns.
        wait_ns: u64,
    },
    /// Injected an eager (bcopy) message. Instant.
    EagerSend {
        /// Destination rank.
        dst: u16,
        /// Shard / VCI the message was injected on.
        shard: u16,
        /// Payload bytes.
        bytes: u64,
    },
    /// Posted a rendezvous (zcopy) send — the RTS. Instant.
    RdvSend {
        /// Destination rank.
        dst: u16,
        /// Shard / VCI the message was injected on.
        shard: u16,
        /// Payload bytes.
        bytes: u64,
    },
    /// A rendezvous transfer completed: from RTS to the zero-copy data
    /// landing (the time the sender's buffer stayed pinned). Span.
    RdvCopy {
        /// Shard the match completed on.
        shard: u16,
        /// Payload bytes.
        bytes: u64,
        /// RTS-to-completion time in ns.
        wait_ns: u64,
    },
    /// `MPI_Pready(p)` was called. Instant.
    Pready {
        /// Partition index.
        part: u64,
    },
    /// The last `pready` of an internal message injected it — the
    /// early-bird send of Fig. 8. `gap_ns` is the pready→fabric-send
    /// latency. Instant.
    EarlyBird {
        /// Internal message index.
        msg: u16,
        /// Shard / VCI the message was injected on.
        shard: u16,
        /// Message bytes.
        bytes: u64,
        /// Latency from the completing `pready` to the fabric send, ns.
        gap_ns: u64,
    },
    /// A partitioned layout was negotiated: `base_msgs` gcd messages
    /// folded into `msgs` under the aggregation bound (Fig. 7). Instant.
    AggrLayout {
        /// gcd(N_send, N_recv) base message count.
        base_msgs: u16,
        /// Messages after aggregation.
        msgs: u16,
        /// Bytes of the first (typical) message.
        bytes_per_msg: u64,
    },
    /// Legacy path: waited for the receiver's clear-to-send (the
    /// per-iteration CTS round-trip of Fig. 4). Span.
    CtsWait {
        /// Peer rank.
        peer: u16,
        /// Time blocked on the CTS, ns.
        wait_ns: u64,
    },
    /// `wait()` on a partitioned request: entry to all-messages-complete.
    /// Span. Early-bird sends *outside* this span overlapped compute.
    PartWait {
        /// Internal messages drained.
        msgs: u16,
        /// Time inside `wait()`, ns.
        wait_ns: u64,
    },
    /// RMA active-target epoch opened (origin blocked for the post). Span.
    EpochOpen {
        /// Window id (low bits of the window context).
        win: u16,
        /// Time blocked waiting for the target's post, ns.
        wait_ns: u64,
    },
    /// RMA epoch closed with `puts` puts flushed. Instant.
    EpochClose {
        /// Window id.
        win: u16,
        /// Puts in the epoch.
        puts: u64,
    },
    /// An eager send acquired its payload buffer: from the per-rank pool
    /// (`hit`) or via a fresh allocation (miss). Instant.
    EagerPool {
        /// Shard the message was injected on.
        shard: u16,
        /// Whether a recycled buffer was reused.
        hit: bool,
        /// Payload bytes.
        bytes: u64,
    },
    /// Per-rank completion probe-path counters for the run: probes
    /// answered by the single-atomic-load fast path vs waits that fell
    /// through to spin-then-park. Instant, emitted at rank exit.
    ProbeStats {
        /// Fast-path probes (`is_set` / immediate `wait` returns).
        fast_probes: u64,
        /// Waits that registered and parked.
        slow_waits: u64,
    },
    /// The chaos layer injected a fault on a message (or a `pready`
    /// order). Instant, attributed to the sending rank.
    FaultInjected {
        /// Which fault.
        fault: FaultKind,
        /// Destination rank of the affected message.
        dst: u16,
        /// Tag of the affected message (negative tags are the internal
        /// CTS/DATA/RMA control tags).
        tag: i64,
        /// Fault-specific argument: attempt index for `Drop`, delay in
        /// microseconds for `Delay`, extra copies for `Duplicate`,
        /// held-back messages for `Reorder`, permutation round for
        /// `PreadyJitter`.
        arg: u64,
    },
    /// A dropped message attempt is being resent (bounded retry).
    /// Instant, attributed to the sending rank.
    RetryAttempt {
        /// Destination rank.
        dst: u16,
        /// Retry attempt number (1 = first resend).
        attempt: u16,
        /// Tag of the message being resent.
        tag: i64,
    },
    /// The watchdog declared the universe stalled and produced a
    /// `StallReport`. Instant, emitted once by the supervisor.
    StallDetected {
        /// Number of blocked waits at detection time.
        blocked: u16,
        /// Configured watchdog deadline, ms.
        watchdog_ms: u64,
        /// Observed quiet period with no fabric activity, ms.
        quiet_ms: u64,
    },
    /// A run of ready partitions was coalesced into one `PartData`
    /// chunk and handed to a writer lane — the wire-streaming analogue
    /// of [`EventKind::EarlyBird`], recording chunk geometry under the
    /// `PCOMM_NET_AGGR` threshold. Instant, attributed to the sender.
    StreamChunk {
        /// Writer lane the chunk was queued on.
        lane: u16,
        /// Partitions coalesced into the chunk.
        parts: u16,
        /// Byte offset of the chunk in the whole buffer.
        offset: u64,
        /// Chunk bytes.
        bytes: u64,
    },
    /// A `PartData` range landed and was committed into the pinned
    /// destination buffer, flipping `msgs` per-message completions.
    /// Instant, attributed to the receiver.
    StreamCommit {
        /// Reader lane the range arrived on.
        lane: u16,
        /// Per-message completions flipped by this commit.
        msgs: u16,
        /// Byte offset of the range in the destination buffer.
        offset: u64,
        /// Range bytes.
        bytes: u64,
    },
    /// [verify] A partitioned request was created. One per side; `req`
    /// is the low 16 bits of the partitioned context, identical on the
    /// sender and the receiver. Instant.
    VerifyPartInit {
        /// Request id (low 16 bits of the part context, same both sides).
        req: u16,
        /// True for the psend side, false for precv.
        sender: bool,
        /// Partition count on this side.
        parts: u32,
        /// Wire messages after layout negotiation.
        msgs: u32,
    },
    /// [verify] Layout of one wire message within a partitioned request:
    /// the send- and recv-partition ranges it covers. Emitted once per
    /// message at init so the analyzer can map partitions to transfer
    /// accesses. Instant.
    VerifyLayoutMsg {
        /// Request id.
        req: u16,
        /// Wire message index.
        msg: u16,
        /// First send partition covered.
        first_spart: u16,
        /// Send partitions covered.
        n_sparts: u16,
        /// First recv partition covered.
        first_rpart: u16,
        /// Recv partitions covered.
        n_rparts: u16,
        /// Message payload bytes.
        bytes: u64,
    },
    /// [verify] `start()` activated a partitioned request for one
    /// iteration. Instant.
    VerifyStart {
        /// Request id.
        req: u16,
        /// True for the psend side.
        sender: bool,
        /// Iteration number (0-based, counted per request).
        iter: u32,
        /// Calling thread id.
        tid: u16,
    },
    /// [verify] `pready(part)` was observed — emitted *before* the state
    /// gate, so a double pready leaves two events. Instant.
    VerifyPready {
        /// Request id.
        req: u16,
        /// Partition index.
        part: u32,
        /// Iteration number.
        iter: u32,
        /// Calling thread id.
        tid: u16,
    },
    /// [verify] A checked user write into a send partition. Span.
    VerifyWrite {
        /// Request id.
        req: u16,
        /// Partition index.
        part: u32,
        /// Iteration number.
        iter: u32,
        /// Writing thread id.
        tid: u16,
        /// Time inside the write closure, ns.
        dur_ns: u64,
    },
    /// [verify] A checked user read of a recv partition. Span.
    VerifyRead {
        /// Request id.
        req: u16,
        /// Partition index.
        part: u32,
        /// Iteration number.
        iter: u32,
        /// Reading thread id.
        tid: u16,
        /// Time inside the read closure, ns.
        dur_ns: u64,
    },
    /// [verify] Wire message `msg` was handed to the fabric — the
    /// transfer's read of the send partitions it covers. Instant.
    VerifyMsgSend {
        /// Request id.
        req: u16,
        /// Wire message index.
        msg: u16,
        /// Iteration number.
        iter: u32,
        /// Issuing thread id.
        tid: u16,
    },
    /// [verify] Wire message `msg` landed in the recv buffer — the
    /// transfer's write of the recv partitions it covers. The analyzer
    /// pairs the k-th recv of a (req, msg) channel with its k-th send
    /// (per-channel FIFO). Instant.
    VerifyMsgRecv {
        /// Request id.
        req: u16,
        /// Wire message index.
        msg: u16,
        /// Thread that performed the copy.
        tid: u16,
        /// True when the payload came from a pooled eager buffer (the
        /// copy does not touch the sender's user buffer).
        eager: bool,
    },
    /// [verify] A `parrived(part)` probe observation. Observing `true`
    /// is a synchronization edge from the delivering message. Instant.
    VerifyParrived {
        /// Request id.
        req: u16,
        /// Partition index.
        part: u32,
        /// Iteration number.
        iter: u32,
        /// Probing thread id.
        tid: u16,
        /// The probe's answer.
        arrived: bool,
    },
    /// [verify] `wait()` returned for an iteration — all messages of the
    /// request are complete on this side. Instant.
    VerifyWaitDone {
        /// Request id.
        req: u16,
        /// True for the psend side.
        sender: bool,
        /// Iteration number.
        iter: u32,
        /// Waiting thread id.
        tid: u16,
    },
    /// [verify] At stall time, the event's rank was blocked waiting on
    /// `peer` (wait-for-graph edge). Emitted by the supervisor, one per
    /// blocked wait in the `StallReport`. Instant.
    VerifyBlocked {
        /// Peer rank the wait depends on, when known.
        peer: Option<u16>,
        /// Tag of the blocked wait, when known.
        tag: Option<i64>,
    },
    /// A writer lane to `peer` died (socket error on its reader or
    /// writer half) and was marked out of rotation. Instant.
    LaneDown {
        /// Peer rank the lane connected to.
        peer: u16,
        /// Which lane died.
        lane: u16,
    },
    /// In-flight work from a dead data lane was re-routed to surviving
    /// lanes (offset-addressed commits make the replay idempotent).
    /// Instant, attributed to the sender.
    LaneFailover {
        /// Peer rank.
        peer: u16,
        /// The lane that died.
        lane: u16,
        /// Writer messages re-queued onto surviving lanes.
        requeued: u64,
    },
    /// A lane-0 reconnect attempt finished. Instant.
    Reconnect {
        /// Peer rank.
        peer: u16,
        /// Whether the re-handshake succeeded.
        ok: bool,
        /// Wall time the attempt took, ms.
        took_ms: u64,
    },
    /// A peer exceeded the heartbeat silence budget and is about to be
    /// declared dead. Instant.
    HeartbeatMiss {
        /// The silent peer.
        peer: u16,
        /// Observed silence, ms.
        quiet_ms: u64,
    },
    /// A writer lane's queue backlog crossed a power-of-two high-water
    /// mark (the channel is unbounded, so depth — not blocking — is the
    /// stall signal). Instant.
    WriterQueue {
        /// Peer rank.
        peer: u16,
        /// Lane whose queue grew.
        lane: u16,
        /// Queued writer messages at the crossing.
        depth: u64,
    },
    /// [verify] A wire frame was put on a lane's socket, in wire order
    /// (emitted under the lane's write mutex, *before* the write, so a
    /// partially transmitted frame is still recorded). `seq` is a
    /// monotone per-lane counter; `epoch` counts lane-0 reconnects, and
    /// frame *k* of an epoch on the sender pairs with frame *k* of the
    /// same epoch at the receiver (per-epoch byte streams are FIFO with
    /// the prefix property). Instant.
    VerifyWireSend {
        /// Destination peer rank.
        peer: u16,
        /// Lane the frame travelled.
        lane: u16,
        /// Wire opcode (`pcomm-net` frame op).
        op: u16,
        /// Reconnect epoch of the peer link at send time.
        epoch: u32,
        /// Monotone per-lane send ordinal (never reset; gaps reveal
        /// dropped ring slots, not dropped frames).
        seq: u32,
    },
    /// [verify] A wire frame was read off a lane's socket, in wire
    /// order (single reader thread per lane). Fields as in
    /// [`VerifyWireSend`](EventKind::VerifyWireSend). Instant.
    VerifyWireRecv {
        /// Source peer rank.
        peer: u16,
        /// Lane the frame arrived on.
        lane: u16,
        /// Wire opcode.
        op: u16,
        /// Reconnect epoch of the peer link at read time.
        epoch: u32,
        /// Monotone per-lane receive ordinal.
        seq: u32,
    },
    /// [verify] A `PartRts` stream announcement: `tx` at the sender's
    /// `part_stream_begin`, `rx` when the receiver handles the frame.
    /// `stream` is the low 32 bits of the rdv id — unique per *sender*,
    /// so the audit keys streams by `(sender rank, stream)`. Instant.
    VerifyStreamRts {
        /// The other end of the stream.
        peer: u16,
        /// True on the announcing (sender) side.
        tx: bool,
        /// Stream id (low 32 bits of the rdv id).
        stream: u32,
        /// Total pinned bytes the stream will carry.
        total_len: u64,
    },
    /// [verify] A `PartCts` stream release: `tx` when the receiver
    /// activates the stream and releases the sender, `rx` when the
    /// sender handles the release. Instant.
    VerifyStreamCts {
        /// The other end of the stream.
        peer: u16,
        /// True on the releasing (receiver) side.
        tx: bool,
        /// Stream id.
        stream: u32,
        /// Reconnect epoch at release time — the FSM pass proves at
        /// most one release per stream per epoch.
        epoch: u32,
    },
    /// [verify] A `PartData` range: `tx` per chunk put on the wire
    /// (inline or writer-thread path), `rx` when the receiver commits
    /// bytes against the pinned buffer. Instant.
    VerifyStreamData {
        /// The other end of the stream.
        peer: u16,
        /// Lane the range travelled.
        lane: u16,
        /// True on the sending side.
        tx: bool,
        /// Stream id.
        stream: u32,
        /// Byte offset inside the pinned stream.
        offset: u64,
        /// Range length in bytes.
        len: u32,
    },
    /// [verify] `claim_range` granted a *fresh* sub-range of an
    /// incoming stream — one event per disjoint fresh range, none for a
    /// pure duplicate (replays absorbed by the ledger leave no commit).
    /// Instant, receiver side.
    VerifyStreamCommit {
        /// Sending peer rank.
        peer: u16,
        /// Lane whose reader committed the range.
        lane: u16,
        /// Stream id.
        stream: u32,
        /// First byte of the fresh range.
        lo: u64,
        /// Fresh bytes granted.
        len: u32,
    },
    /// [verify] The sender declared a stream's bytes unrecoverable
    /// (`MessageLost`) from a resync request naming a retired span.
    /// Instant, sender side.
    VerifyStreamLost {
        /// Receiver rank whose resync triggered the verdict.
        peer: u16,
        /// Stream id.
        stream: u32,
        /// Bytes the receiver reported missing.
        missing: u64,
    },
    /// [verify] Binds one wire message of a partitioned request to its
    /// byte range inside a stream — emitted by both sides (sender at
    /// `part_stream_begin`, receiver at stream activation), so the
    /// audit can join each side's locally interned request ids across
    /// processes. Instant.
    VerifyStreamMsg {
        /// Stream id.
        stream: u32,
        /// Request id (local interning of the emitting process).
        req: u16,
        /// Wire message index (15 bits on the wire).
        msg: u16,
        /// True on the originating (psend) side, false at the
        /// receiver — rendezvous ids are allocated per process, so a
        /// rank can both originate stream `s` and receive a different
        /// peer's stream `s`; the side bit keeps them apart.
        tx: bool,
        /// The message's byte offset inside the stream.
        offset: u64,
        /// The message's length in bytes.
        len: u32,
    },
    /// The ipc fabric's producer found the descriptor ring (or FIFO
    /// slab) to a peer full and blocked until the consumer freed
    /// space — emitted once per backpressure episode, after it
    /// resolves. Instant.
    IpcRingFull {
        /// The peer whose inbound channel was full.
        peer: u16,
        /// Slot kind the producer was trying to publish.
        kind: u16,
        /// How long the producer was blocked, ns.
        wait_ns: u64,
    },
    /// The ipc progress thread parked on its futex doorbell (it only
    /// parks after a yield-spin budget finds no work, so these mark
    /// genuine idle periods, not per-message syscalls). Instant.
    IpcDoorbell {
        /// Bell sequence snapshot the park waited on.
        seq: u32,
        /// Whether the park ended by a ring (vs timeout).
        woken: bool,
    },
    /// One rank's always-on doorbell tallies, emitted once at ipc
    /// teardown: who paid a syscall to notify whom (counts saturate at
    /// `u32::MAX`). Instant.
    IpcDoorbellStats {
        /// Peer doorbells this rank rang (one per published record).
        rings: u32,
        /// Of those, rings that issued a `FUTEX_WAKE`.
        wakes: u32,
        /// Progress-thread parks counted in `sleepers`.
        parks_counted: u32,
        /// Progress-thread parks a polling app thread took over.
        parks_uncounted: u32,
    },
}

const TAG_LOCK_WAIT: u64 = 1;
const TAG_EAGER_SEND: u64 = 2;
const TAG_RDV_SEND: u64 = 3;
const TAG_RDV_COPY: u64 = 4;
const TAG_PREADY: u64 = 5;
const TAG_EARLY_BIRD: u64 = 6;
const TAG_AGGR_LAYOUT: u64 = 7;
const TAG_CTS_WAIT: u64 = 8;
const TAG_PART_WAIT: u64 = 9;
const TAG_EPOCH_OPEN: u64 = 10;
const TAG_EPOCH_CLOSE: u64 = 11;
const TAG_EAGER_POOL: u64 = 12;
const TAG_PROBE_STATS: u64 = 13;
const TAG_FAULT_INJECTED: u64 = 14;
const TAG_RETRY_ATTEMPT: u64 = 15;
const TAG_STALL_DETECTED: u64 = 16;
const TAG_VERIFY_PART_INIT: u64 = 17;
const TAG_VERIFY_LAYOUT_MSG: u64 = 18;
const TAG_VERIFY_START: u64 = 19;
const TAG_VERIFY_PREADY: u64 = 20;
const TAG_VERIFY_WRITE: u64 = 21;
const TAG_VERIFY_READ: u64 = 22;
const TAG_VERIFY_MSG_SEND: u64 = 23;
const TAG_VERIFY_MSG_RECV: u64 = 24;
const TAG_VERIFY_PARRIVED: u64 = 25;
const TAG_VERIFY_WAIT_DONE: u64 = 26;
const TAG_VERIFY_BLOCKED: u64 = 27;
const TAG_STREAM_CHUNK: u64 = 28;
const TAG_STREAM_COMMIT: u64 = 29;
const TAG_LANE_DOWN: u64 = 30;
const TAG_LANE_FAILOVER: u64 = 31;
const TAG_RECONNECT: u64 = 32;
const TAG_HEARTBEAT_MISS: u64 = 33;
const TAG_WRITER_QUEUE: u64 = 34;
const TAG_VERIFY_WIRE_SEND: u64 = 35;
const TAG_VERIFY_WIRE_RECV: u64 = 36;
const TAG_VERIFY_STREAM_RTS: u64 = 37;
const TAG_VERIFY_STREAM_CTS: u64 = 38;
const TAG_VERIFY_STREAM_DATA: u64 = 39;
const TAG_VERIFY_STREAM_COMMIT: u64 = 40;
const TAG_VERIFY_STREAM_LOST: u64 = 41;
const TAG_VERIFY_STREAM_MSG: u64 = 42;
const TAG_IPC_RING_FULL: u64 = 43;
const TAG_IPC_DOORBELL: u64 = 44;
const TAG_IPC_DOORBELL_STATS: u64 = 45;

/// `w2` layout shared by the per-partition verify events:
/// low 32 bits = partition / message index, high 32 bits = iteration.
fn pack_part_iter(part: u32, iter: u32) -> u64 {
    part as u64 | ((iter as u64) << 32)
}

fn pack_w1(tag: u64, rank: u16, aux1: u16, aux2: u16) -> u64 {
    (tag << 48) | ((rank as u64) << 32) | ((aux1 as u64) << 16) | aux2 as u64
}

impl Event {
    /// Encode into the four-word wire format.
    pub fn encode(&self) -> [u64; 4] {
        let (tag, aux1, aux2, w2, w3) = match self.kind {
            EventKind::LockWait { shard, wait_ns } => (TAG_LOCK_WAIT, shard, 0, wait_ns, 0),
            EventKind::EagerSend { dst, shard, bytes } => (TAG_EAGER_SEND, dst, shard, bytes, 0),
            EventKind::RdvSend { dst, shard, bytes } => (TAG_RDV_SEND, dst, shard, bytes, 0),
            EventKind::RdvCopy {
                shard,
                bytes,
                wait_ns,
            } => (TAG_RDV_COPY, shard, 0, bytes, wait_ns),
            EventKind::Pready { part } => (TAG_PREADY, 0, 0, part, 0),
            EventKind::EarlyBird {
                msg,
                shard,
                bytes,
                gap_ns,
            } => (TAG_EARLY_BIRD, msg, shard, bytes, gap_ns),
            EventKind::AggrLayout {
                base_msgs,
                msgs,
                bytes_per_msg,
            } => (TAG_AGGR_LAYOUT, base_msgs, msgs, bytes_per_msg, 0),
            EventKind::CtsWait { peer, wait_ns } => (TAG_CTS_WAIT, peer, 0, wait_ns, 0),
            EventKind::PartWait { msgs, wait_ns } => (TAG_PART_WAIT, msgs, 0, wait_ns, 0),
            EventKind::EpochOpen { win, wait_ns } => (TAG_EPOCH_OPEN, win, 0, wait_ns, 0),
            EventKind::EpochClose { win, puts } => (TAG_EPOCH_CLOSE, win, 0, puts, 0),
            EventKind::EagerPool { shard, hit, bytes } => {
                (TAG_EAGER_POOL, shard, hit as u16, bytes, 0)
            }
            EventKind::ProbeStats {
                fast_probes,
                slow_waits,
            } => (TAG_PROBE_STATS, 0, 0, fast_probes, slow_waits),
            EventKind::FaultInjected {
                fault,
                dst,
                tag,
                arg,
            } => (TAG_FAULT_INJECTED, fault.code(), dst, tag as u64, arg),
            EventKind::RetryAttempt { dst, attempt, tag } => {
                (TAG_RETRY_ATTEMPT, dst, attempt, tag as u64, 0)
            }
            EventKind::StallDetected {
                blocked,
                watchdog_ms,
                quiet_ms,
            } => (TAG_STALL_DETECTED, blocked, 0, watchdog_ms, quiet_ms),
            EventKind::VerifyPartInit {
                req,
                sender,
                parts,
                msgs,
            } => (
                TAG_VERIFY_PART_INIT,
                req,
                sender as u16,
                parts as u64,
                msgs as u64,
            ),
            EventKind::VerifyLayoutMsg {
                req,
                msg,
                first_spart,
                n_sparts,
                first_rpart,
                n_rparts,
                bytes,
            } => (
                TAG_VERIFY_LAYOUT_MSG,
                req,
                msg,
                (first_spart as u64)
                    | ((n_sparts as u64) << 16)
                    | ((first_rpart as u64) << 32)
                    | ((n_rparts as u64) << 48),
                bytes,
            ),
            EventKind::VerifyStart {
                req,
                sender,
                iter,
                tid,
            } => (TAG_VERIFY_START, req, tid, iter as u64, sender as u64),
            EventKind::VerifyPready {
                req,
                part,
                iter,
                tid,
            } => (TAG_VERIFY_PREADY, req, tid, pack_part_iter(part, iter), 0),
            EventKind::VerifyWrite {
                req,
                part,
                iter,
                tid,
                dur_ns,
            } => (
                TAG_VERIFY_WRITE,
                req,
                tid,
                pack_part_iter(part, iter),
                dur_ns,
            ),
            EventKind::VerifyRead {
                req,
                part,
                iter,
                tid,
                dur_ns,
            } => (
                TAG_VERIFY_READ,
                req,
                tid,
                pack_part_iter(part, iter),
                dur_ns,
            ),
            EventKind::VerifyMsgSend {
                req,
                msg,
                iter,
                tid,
            } => (
                TAG_VERIFY_MSG_SEND,
                req,
                tid,
                pack_part_iter(msg as u32, iter),
                0,
            ),
            EventKind::VerifyMsgRecv {
                req,
                msg,
                tid,
                eager,
            } => (TAG_VERIFY_MSG_RECV, req, tid, msg as u64, eager as u64),
            EventKind::VerifyParrived {
                req,
                part,
                iter,
                tid,
                arrived,
            } => (
                TAG_VERIFY_PARRIVED,
                req,
                tid,
                pack_part_iter(part, iter),
                arrived as u64,
            ),
            EventKind::VerifyWaitDone {
                req,
                sender,
                iter,
                tid,
            } => (TAG_VERIFY_WAIT_DONE, req, tid, iter as u64, sender as u64),
            EventKind::VerifyBlocked { peer, tag } => (
                TAG_VERIFY_BLOCKED,
                peer.unwrap_or(0),
                (peer.is_some() as u16) | ((tag.is_some() as u16) << 1),
                tag.unwrap_or(0) as u64,
                0,
            ),
            EventKind::StreamChunk {
                lane,
                parts,
                offset,
                bytes,
            } => (TAG_STREAM_CHUNK, lane, parts, offset, bytes),
            EventKind::StreamCommit {
                lane,
                msgs,
                offset,
                bytes,
            } => (TAG_STREAM_COMMIT, lane, msgs, offset, bytes),
            EventKind::LaneDown { peer, lane } => (TAG_LANE_DOWN, peer, lane, 0, 0),
            EventKind::LaneFailover {
                peer,
                lane,
                requeued,
            } => (TAG_LANE_FAILOVER, peer, lane, requeued, 0),
            EventKind::Reconnect { peer, ok, took_ms } => {
                (TAG_RECONNECT, peer, ok as u16, took_ms, 0)
            }
            EventKind::HeartbeatMiss { peer, quiet_ms } => {
                (TAG_HEARTBEAT_MISS, peer, 0, quiet_ms, 0)
            }
            EventKind::WriterQueue { peer, lane, depth } => {
                (TAG_WRITER_QUEUE, peer, lane, depth, 0)
            }
            EventKind::VerifyWireSend {
                peer,
                lane,
                op,
                epoch,
                seq,
            } => (
                TAG_VERIFY_WIRE_SEND,
                peer,
                lane,
                op as u64 | ((epoch as u64) << 32),
                seq as u64,
            ),
            EventKind::VerifyWireRecv {
                peer,
                lane,
                op,
                epoch,
                seq,
            } => (
                TAG_VERIFY_WIRE_RECV,
                peer,
                lane,
                op as u64 | ((epoch as u64) << 32),
                seq as u64,
            ),
            EventKind::VerifyStreamRts {
                peer,
                tx,
                stream,
                total_len,
            } => (
                TAG_VERIFY_STREAM_RTS,
                peer,
                tx as u16,
                stream as u64,
                total_len,
            ),
            EventKind::VerifyStreamCts {
                peer,
                tx,
                stream,
                epoch,
            } => (
                TAG_VERIFY_STREAM_CTS,
                peer,
                tx as u16,
                stream as u64 | ((epoch as u64) << 32),
                0,
            ),
            EventKind::VerifyStreamData {
                peer,
                lane,
                tx,
                stream,
                offset,
                len,
            } => (
                TAG_VERIFY_STREAM_DATA,
                peer,
                (lane & 0x7fff) | ((tx as u16) << 15),
                stream as u64 | ((len as u64) << 32),
                offset,
            ),
            EventKind::VerifyStreamCommit {
                peer,
                lane,
                stream,
                lo,
                len,
            } => (
                TAG_VERIFY_STREAM_COMMIT,
                peer,
                lane,
                stream as u64 | ((len as u64) << 32),
                lo,
            ),
            EventKind::VerifyStreamLost {
                peer,
                stream,
                missing,
            } => (TAG_VERIFY_STREAM_LOST, peer, 0, stream as u64, missing),
            EventKind::VerifyStreamMsg {
                stream,
                req,
                msg,
                tx,
                offset,
                len,
            } => (
                TAG_VERIFY_STREAM_MSG,
                req,
                (msg & 0x7fff) | ((tx as u16) << 15),
                stream as u64 | ((len as u64) << 32),
                offset,
            ),
            EventKind::IpcRingFull {
                peer,
                kind,
                wait_ns,
            } => (TAG_IPC_RING_FULL, peer, kind, wait_ns, 0),
            EventKind::IpcDoorbell { seq, woken } => {
                (TAG_IPC_DOORBELL, woken as u16, 0, seq as u64, 0)
            }
            EventKind::IpcDoorbellStats {
                rings,
                wakes,
                parks_counted,
                parks_uncounted,
            } => (
                TAG_IPC_DOORBELL_STATS,
                0,
                0,
                rings as u64 | ((wakes as u64) << 32),
                parks_counted as u64 | ((parks_uncounted as u64) << 32),
            ),
        };
        [self.ts_ns, pack_w1(tag, self.rank, aux1, aux2), w2, w3]
    }

    /// Decode the wire format; `None` for unknown tags (torn slots).
    pub fn decode(w: [u64; 4]) -> Option<Event> {
        let tag = w[1] >> 48;
        let rank = (w[1] >> 32) as u16;
        let aux1 = (w[1] >> 16) as u16;
        let aux2 = w[1] as u16;
        let kind = match tag {
            TAG_LOCK_WAIT => EventKind::LockWait {
                shard: aux1,
                wait_ns: w[2],
            },
            TAG_EAGER_SEND => EventKind::EagerSend {
                dst: aux1,
                shard: aux2,
                bytes: w[2],
            },
            TAG_RDV_SEND => EventKind::RdvSend {
                dst: aux1,
                shard: aux2,
                bytes: w[2],
            },
            TAG_RDV_COPY => EventKind::RdvCopy {
                shard: aux1,
                bytes: w[2],
                wait_ns: w[3],
            },
            TAG_PREADY => EventKind::Pready { part: w[2] },
            TAG_EARLY_BIRD => EventKind::EarlyBird {
                msg: aux1,
                shard: aux2,
                bytes: w[2],
                gap_ns: w[3],
            },
            TAG_AGGR_LAYOUT => EventKind::AggrLayout {
                base_msgs: aux1,
                msgs: aux2,
                bytes_per_msg: w[2],
            },
            TAG_CTS_WAIT => EventKind::CtsWait {
                peer: aux1,
                wait_ns: w[2],
            },
            TAG_PART_WAIT => EventKind::PartWait {
                msgs: aux1,
                wait_ns: w[2],
            },
            TAG_EPOCH_OPEN => EventKind::EpochOpen {
                win: aux1,
                wait_ns: w[2],
            },
            TAG_EPOCH_CLOSE => EventKind::EpochClose {
                win: aux1,
                puts: w[2],
            },
            TAG_EAGER_POOL => EventKind::EagerPool {
                shard: aux1,
                hit: aux2 != 0,
                bytes: w[2],
            },
            TAG_PROBE_STATS => EventKind::ProbeStats {
                fast_probes: w[2],
                slow_waits: w[3],
            },
            TAG_FAULT_INJECTED => EventKind::FaultInjected {
                fault: FaultKind::from_code(aux1)?,
                dst: aux2,
                tag: w[2] as i64,
                arg: w[3],
            },
            TAG_RETRY_ATTEMPT => EventKind::RetryAttempt {
                dst: aux1,
                attempt: aux2,
                tag: w[2] as i64,
            },
            TAG_STALL_DETECTED => EventKind::StallDetected {
                blocked: aux1,
                watchdog_ms: w[2],
                quiet_ms: w[3],
            },
            TAG_VERIFY_PART_INIT => EventKind::VerifyPartInit {
                req: aux1,
                sender: aux2 != 0,
                parts: w[2] as u32,
                msgs: w[3] as u32,
            },
            TAG_VERIFY_LAYOUT_MSG => EventKind::VerifyLayoutMsg {
                req: aux1,
                msg: aux2,
                first_spart: w[2] as u16,
                n_sparts: (w[2] >> 16) as u16,
                first_rpart: (w[2] >> 32) as u16,
                n_rparts: (w[2] >> 48) as u16,
                bytes: w[3],
            },
            TAG_VERIFY_START => EventKind::VerifyStart {
                req: aux1,
                sender: w[3] != 0,
                iter: w[2] as u32,
                tid: aux2,
            },
            TAG_VERIFY_PREADY => EventKind::VerifyPready {
                req: aux1,
                part: w[2] as u32,
                iter: (w[2] >> 32) as u32,
                tid: aux2,
            },
            TAG_VERIFY_WRITE => EventKind::VerifyWrite {
                req: aux1,
                part: w[2] as u32,
                iter: (w[2] >> 32) as u32,
                tid: aux2,
                dur_ns: w[3],
            },
            TAG_VERIFY_READ => EventKind::VerifyRead {
                req: aux1,
                part: w[2] as u32,
                iter: (w[2] >> 32) as u32,
                tid: aux2,
                dur_ns: w[3],
            },
            TAG_VERIFY_MSG_SEND => EventKind::VerifyMsgSend {
                req: aux1,
                msg: w[2] as u16,
                iter: (w[2] >> 32) as u32,
                tid: aux2,
            },
            TAG_VERIFY_MSG_RECV => EventKind::VerifyMsgRecv {
                req: aux1,
                msg: w[2] as u16,
                tid: aux2,
                eager: w[3] != 0,
            },
            TAG_VERIFY_PARRIVED => EventKind::VerifyParrived {
                req: aux1,
                part: w[2] as u32,
                iter: (w[2] >> 32) as u32,
                tid: aux2,
                arrived: w[3] != 0,
            },
            TAG_VERIFY_WAIT_DONE => EventKind::VerifyWaitDone {
                req: aux1,
                sender: w[3] != 0,
                iter: w[2] as u32,
                tid: aux2,
            },
            TAG_VERIFY_BLOCKED => EventKind::VerifyBlocked {
                peer: if aux2 & 1 != 0 { Some(aux1) } else { None },
                tag: if aux2 & 2 != 0 {
                    Some(w[2] as i64)
                } else {
                    None
                },
            },
            TAG_STREAM_CHUNK => EventKind::StreamChunk {
                lane: aux1,
                parts: aux2,
                offset: w[2],
                bytes: w[3],
            },
            TAG_STREAM_COMMIT => EventKind::StreamCommit {
                lane: aux1,
                msgs: aux2,
                offset: w[2],
                bytes: w[3],
            },
            TAG_LANE_DOWN => EventKind::LaneDown {
                peer: aux1,
                lane: aux2,
            },
            TAG_LANE_FAILOVER => EventKind::LaneFailover {
                peer: aux1,
                lane: aux2,
                requeued: w[2],
            },
            TAG_RECONNECT => EventKind::Reconnect {
                peer: aux1,
                ok: aux2 != 0,
                took_ms: w[2],
            },
            TAG_HEARTBEAT_MISS => EventKind::HeartbeatMiss {
                peer: aux1,
                quiet_ms: w[2],
            },
            TAG_WRITER_QUEUE => EventKind::WriterQueue {
                peer: aux1,
                lane: aux2,
                depth: w[2],
            },
            TAG_VERIFY_WIRE_SEND => EventKind::VerifyWireSend {
                peer: aux1,
                lane: aux2,
                op: w[2] as u16,
                epoch: (w[2] >> 32) as u32,
                seq: w[3] as u32,
            },
            TAG_VERIFY_WIRE_RECV => EventKind::VerifyWireRecv {
                peer: aux1,
                lane: aux2,
                op: w[2] as u16,
                epoch: (w[2] >> 32) as u32,
                seq: w[3] as u32,
            },
            TAG_VERIFY_STREAM_RTS => EventKind::VerifyStreamRts {
                peer: aux1,
                tx: aux2 != 0,
                stream: w[2] as u32,
                total_len: w[3],
            },
            TAG_VERIFY_STREAM_CTS => EventKind::VerifyStreamCts {
                peer: aux1,
                tx: aux2 != 0,
                stream: w[2] as u32,
                epoch: (w[2] >> 32) as u32,
            },
            TAG_VERIFY_STREAM_DATA => EventKind::VerifyStreamData {
                peer: aux1,
                lane: aux2 & 0x7fff,
                tx: aux2 & 0x8000 != 0,
                stream: w[2] as u32,
                offset: w[3],
                len: (w[2] >> 32) as u32,
            },
            TAG_VERIFY_STREAM_COMMIT => EventKind::VerifyStreamCommit {
                peer: aux1,
                lane: aux2,
                stream: w[2] as u32,
                lo: w[3],
                len: (w[2] >> 32) as u32,
            },
            TAG_VERIFY_STREAM_LOST => EventKind::VerifyStreamLost {
                peer: aux1,
                stream: w[2] as u32,
                missing: w[3],
            },
            TAG_VERIFY_STREAM_MSG => EventKind::VerifyStreamMsg {
                stream: w[2] as u32,
                req: aux1,
                msg: aux2 & 0x7fff,
                tx: aux2 >> 15 == 1,
                offset: w[3],
                len: (w[2] >> 32) as u32,
            },
            TAG_IPC_RING_FULL => EventKind::IpcRingFull {
                peer: aux1,
                kind: aux2,
                wait_ns: w[2],
            },
            TAG_IPC_DOORBELL => EventKind::IpcDoorbell {
                seq: w[2] as u32,
                woken: aux1 == 1,
            },
            TAG_IPC_DOORBELL_STATS => EventKind::IpcDoorbellStats {
                rings: w[2] as u32,
                wakes: (w[2] >> 32) as u32,
                parks_counted: w[3] as u32,
                parks_uncounted: (w[3] >> 32) as u32,
            },
            _ => return None,
        };
        Some(Event {
            ts_ns: w[0],
            rank,
            kind,
        })
    }
}

impl EventKind {
    /// Wrap into an [`Event`] at timestamp `ts_ns` (rank 0; span-emit
    /// paths overwrite the rank before recording).
    pub fn at(self, ts_ns: u64) -> Event {
        Event {
            ts_ns,
            rank: 0,
            kind: self,
        }
    }

    /// Stable event name (used by the exporters and greppable in JSON).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::LockWait { .. } => "shard_lock_wait",
            EventKind::EagerSend { .. } => "eager_send",
            EventKind::RdvSend { .. } => "rdv_send",
            EventKind::RdvCopy { .. } => "rdv_copy",
            EventKind::Pready { .. } => "pready",
            EventKind::EarlyBird { .. } => "early_bird_send",
            EventKind::AggrLayout { .. } => "aggr_layout",
            EventKind::CtsWait { .. } => "cts_wait",
            EventKind::PartWait { .. } => "part_wait",
            EventKind::EpochOpen { .. } => "epoch_open",
            EventKind::EpochClose { .. } => "epoch_close",
            EventKind::EagerPool { .. } => "eager_pool",
            EventKind::ProbeStats { .. } => "probe_stats",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RetryAttempt { .. } => "retry_attempt",
            EventKind::StallDetected { .. } => "stall_detected",
            EventKind::VerifyPartInit { .. } => "verify_part_init",
            EventKind::VerifyLayoutMsg { .. } => "verify_layout_msg",
            EventKind::VerifyStart { .. } => "verify_start",
            EventKind::VerifyPready { .. } => "verify_pready",
            EventKind::VerifyWrite { .. } => "verify_write",
            EventKind::VerifyRead { .. } => "verify_read",
            EventKind::VerifyMsgSend { .. } => "verify_msg_send",
            EventKind::VerifyMsgRecv { .. } => "verify_msg_recv",
            EventKind::VerifyParrived { .. } => "verify_parrived",
            EventKind::VerifyWaitDone { .. } => "verify_wait_done",
            EventKind::VerifyBlocked { .. } => "verify_blocked",
            EventKind::StreamChunk { .. } => "stream_chunk",
            EventKind::StreamCommit { .. } => "stream_commit",
            EventKind::LaneDown { .. } => "lane_down",
            EventKind::LaneFailover { .. } => "lane_failover",
            EventKind::Reconnect { .. } => "reconnect",
            EventKind::HeartbeatMiss { .. } => "heartbeat_miss",
            EventKind::WriterQueue { .. } => "writer_queue",
            EventKind::VerifyWireSend { .. } => "verify_wire_send",
            EventKind::VerifyWireRecv { .. } => "verify_wire_recv",
            EventKind::VerifyStreamRts { .. } => "verify_stream_rts",
            EventKind::VerifyStreamCts { .. } => "verify_stream_cts",
            EventKind::VerifyStreamData { .. } => "verify_stream_data",
            EventKind::VerifyStreamCommit { .. } => "verify_stream_commit",
            EventKind::VerifyStreamLost { .. } => "verify_stream_lost",
            EventKind::VerifyStreamMsg { .. } => "verify_stream_msg",
            EventKind::IpcRingFull { .. } => "ipc_ring_full",
            EventKind::IpcDoorbell { .. } => "ipc_doorbell",
            EventKind::IpcDoorbellStats { .. } => "ipc_doorbell_stats",
        }
    }

    /// Span duration in ns (`Some` for span events, `None` for instants).
    pub fn dur_ns(&self) -> Option<u64> {
        match *self {
            EventKind::LockWait { wait_ns, .. }
            | EventKind::RdvCopy { wait_ns, .. }
            | EventKind::CtsWait { wait_ns, .. }
            | EventKind::PartWait { wait_ns, .. }
            | EventKind::EpochOpen { wait_ns, .. } => Some(wait_ns),
            EventKind::VerifyWrite { dur_ns, .. } | EventKind::VerifyRead { dur_ns, .. } => {
                Some(dur_ns)
            }
            _ => None,
        }
    }

    /// Whether this is an analysis-grade `Verify*` event (only emitted
    /// when verification is enabled on the trace).
    pub fn is_verify(&self) -> bool {
        matches!(
            self,
            EventKind::VerifyPartInit { .. }
                | EventKind::VerifyLayoutMsg { .. }
                | EventKind::VerifyStart { .. }
                | EventKind::VerifyPready { .. }
                | EventKind::VerifyWrite { .. }
                | EventKind::VerifyRead { .. }
                | EventKind::VerifyMsgSend { .. }
                | EventKind::VerifyMsgRecv { .. }
                | EventKind::VerifyParrived { .. }
                | EventKind::VerifyWaitDone { .. }
                | EventKind::VerifyBlocked { .. }
                | EventKind::VerifyWireSend { .. }
                | EventKind::VerifyWireRecv { .. }
                | EventKind::VerifyStreamRts { .. }
                | EventKind::VerifyStreamCts { .. }
                | EventKind::VerifyStreamData { .. }
                | EventKind::VerifyStreamCommit { .. }
                | EventKind::VerifyStreamLost { .. }
                | EventKind::VerifyStreamMsg { .. }
        )
    }

    /// The track (shard / VCI lane) the event belongs to, for per-shard
    /// rendering; lane 0 for events without one.
    pub fn lane(&self) -> u16 {
        match *self {
            EventKind::LockWait { shard, .. }
            | EventKind::EagerSend { shard, .. }
            | EventKind::RdvSend { shard, .. }
            | EventKind::RdvCopy { shard, .. }
            | EventKind::EarlyBird { shard, .. }
            | EventKind::EagerPool { shard, .. } => shard,
            EventKind::StreamChunk { lane, .. }
            | EventKind::StreamCommit { lane, .. }
            | EventKind::LaneDown { lane, .. }
            | EventKind::LaneFailover { lane, .. }
            | EventKind::WriterQueue { lane, .. }
            | EventKind::VerifyWireSend { lane, .. }
            | EventKind::VerifyWireRecv { lane, .. }
            | EventKind::VerifyStreamData { lane, .. }
            | EventKind::VerifyStreamCommit { lane, .. } => lane,
            _ => 0,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12.2}  {:>4}  ",
            self.ts_ns as f64 / 1000.0,
            self.rank
        )?;
        match self.kind {
            EventKind::LockWait { shard, wait_ns } => {
                write!(
                    f,
                    "lock wait shard {shard} ({:.2} us)",
                    wait_ns as f64 / 1e3
                )
            }
            EventKind::EagerSend { dst, shard, bytes } => {
                write!(f, "eager send -> rank {dst} shard {shard} ({bytes} B)")
            }
            EventKind::RdvSend { dst, shard, bytes } => {
                write!(f, "rendezvous RTS -> rank {dst} shard {shard} ({bytes} B)")
            }
            EventKind::RdvCopy {
                shard,
                bytes,
                wait_ns,
            } => write!(
                f,
                "rendezvous data landed shard {shard} ({bytes} B, {:.2} us pinned)",
                wait_ns as f64 / 1e3
            ),
            EventKind::Pready { part } => write!(f, "pready partition {part}"),
            EventKind::EarlyBird {
                msg,
                shard,
                bytes,
                gap_ns,
            } => write!(
                f,
                "message {msg} complete: early-bird send shard {shard} ({bytes} B, gap {:.2} us)",
                gap_ns as f64 / 1e3
            ),
            EventKind::AggrLayout {
                base_msgs,
                msgs,
                bytes_per_msg,
            } => write!(
                f,
                "layout: {base_msgs} base msgs aggregated to {msgs} x {bytes_per_msg} B"
            ),
            EventKind::CtsWait { peer, wait_ns } => {
                write!(
                    f,
                    "CTS from rank {peer} ({:.2} us wait)",
                    wait_ns as f64 / 1e3
                )
            }
            EventKind::PartWait { msgs, wait_ns } => {
                write!(
                    f,
                    "wait: {msgs} msgs drained ({:.2} us)",
                    wait_ns as f64 / 1e3
                )
            }
            EventKind::EpochOpen { win, wait_ns } => {
                write!(
                    f,
                    "epoch open win {win} ({:.2} us wait)",
                    wait_ns as f64 / 1e3
                )
            }
            EventKind::EpochClose { win, puts } => {
                write!(f, "epoch close win {win} ({puts} puts)")
            }
            EventKind::EagerPool { shard, hit, bytes } => write!(
                f,
                "eager buffer {} shard {shard} ({bytes} B)",
                if hit { "pool hit" } else { "pool miss" }
            ),
            EventKind::ProbeStats {
                fast_probes,
                slow_waits,
            } => write!(
                f,
                "probe stats: {fast_probes} fast probes, {slow_waits} parked waits"
            ),
            EventKind::FaultInjected {
                fault,
                dst,
                tag,
                arg,
            } => write!(
                f,
                "fault {} -> rank {dst} tag {tag} (arg {arg})",
                fault.name()
            ),
            EventKind::RetryAttempt { dst, attempt, tag } => {
                write!(f, "retry {attempt} -> rank {dst} tag {tag}")
            }
            EventKind::StallDetected {
                blocked,
                watchdog_ms,
                quiet_ms,
            } => write!(
                f,
                "STALL: {blocked} blocked waits, quiet {quiet_ms} ms (watchdog {watchdog_ms} ms)"
            ),
            EventKind::VerifyPartInit {
                req,
                sender,
                parts,
                msgs,
            } => write!(
                f,
                "verify: {} req {req} init ({parts} parts, {msgs} msgs)",
                if sender { "psend" } else { "precv" }
            ),
            EventKind::VerifyLayoutMsg {
                req,
                msg,
                first_spart,
                n_sparts,
                first_rpart,
                n_rparts,
                bytes,
            } => write!(
                f,
                "verify: req {req} msg {msg} = sparts {first_spart}+{n_sparts} \
                 rparts {first_rpart}+{n_rparts} ({bytes} B)"
            ),
            EventKind::VerifyStart {
                req,
                sender,
                iter,
                tid,
            } => write!(
                f,
                "verify: {} req {req} start iter {iter} (tid {tid})",
                if sender { "psend" } else { "precv" }
            ),
            EventKind::VerifyPready {
                req,
                part,
                iter,
                tid,
            } => write!(
                f,
                "verify: req {req} pready part {part} iter {iter} (tid {tid})"
            ),
            EventKind::VerifyWrite {
                req,
                part,
                iter,
                tid,
                dur_ns,
            } => write!(
                f,
                "verify: req {req} write part {part} iter {iter} (tid {tid}, {dur_ns} ns)"
            ),
            EventKind::VerifyRead {
                req,
                part,
                iter,
                tid,
                dur_ns,
            } => write!(
                f,
                "verify: req {req} read part {part} iter {iter} (tid {tid}, {dur_ns} ns)"
            ),
            EventKind::VerifyMsgSend {
                req,
                msg,
                iter,
                tid,
            } => write!(
                f,
                "verify: req {req} msg {msg} sent iter {iter} (tid {tid})"
            ),
            EventKind::VerifyMsgRecv {
                req,
                msg,
                tid,
                eager,
            } => write!(
                f,
                "verify: req {req} msg {msg} landed (tid {tid}, {})",
                if eager { "eager" } else { "rendezvous" }
            ),
            EventKind::VerifyParrived {
                req,
                part,
                iter,
                tid,
                arrived,
            } => write!(
                f,
                "verify: req {req} parrived({part}) iter {iter} -> {arrived} (tid {tid})"
            ),
            EventKind::VerifyWaitDone {
                req,
                sender,
                iter,
                tid,
            } => write!(
                f,
                "verify: {} req {req} wait done iter {iter} (tid {tid})",
                if sender { "psend" } else { "precv" }
            ),
            EventKind::VerifyBlocked { peer, tag } => {
                write!(f, "verify: blocked on ")?;
                match peer {
                    Some(p) => write!(f, "rank {p}")?,
                    None => write!(f, "unknown peer")?,
                }
                match tag {
                    Some(t) => write!(f, " tag {t}"),
                    None => Ok(()),
                }
            }
            EventKind::StreamChunk {
                lane,
                parts,
                offset,
                bytes,
            } => write!(
                f,
                "stream chunk lane {lane}: {parts} partition(s) @ {offset} ({bytes} B)"
            ),
            EventKind::StreamCommit {
                lane,
                msgs,
                offset,
                bytes,
            } => write!(
                f,
                "stream commit lane {lane}: range @ {offset} ({bytes} B, {msgs} msg(s) done)"
            ),
            EventKind::LaneDown { peer, lane } => {
                write!(f, "lane {lane} -> rank {peer} DOWN")
            }
            EventKind::LaneFailover {
                peer,
                lane,
                requeued,
            } => write!(
                f,
                "failover from lane {lane} -> rank {peer} ({requeued} msg(s) requeued)"
            ),
            EventKind::Reconnect { peer, ok, took_ms } => write!(
                f,
                "reconnect to rank {peer} {} ({took_ms} ms)",
                if ok { "OK" } else { "FAILED" }
            ),
            EventKind::HeartbeatMiss { peer, quiet_ms } => {
                write!(f, "heartbeat miss: rank {peer} quiet {quiet_ms} ms")
            }
            EventKind::WriterQueue { peer, lane, depth } => {
                write!(f, "writer queue lane {lane} -> rank {peer} depth {depth}")
            }
            EventKind::VerifyWireSend {
                peer,
                lane,
                op,
                epoch,
                seq,
            } => write!(
                f,
                "verify: wire send op {op} -> rank {peer} lane {lane} epoch {epoch} seq {seq}"
            ),
            EventKind::VerifyWireRecv {
                peer,
                lane,
                op,
                epoch,
                seq,
            } => write!(
                f,
                "verify: wire recv op {op} <- rank {peer} lane {lane} epoch {epoch} seq {seq}"
            ),
            EventKind::VerifyStreamRts {
                peer,
                tx,
                stream,
                total_len,
            } => write!(
                f,
                "verify: stream {stream} rts {} rank {peer} ({total_len} B)",
                if tx { "->" } else { "<-" }
            ),
            EventKind::VerifyStreamCts {
                peer,
                tx,
                stream,
                epoch,
            } => write!(
                f,
                "verify: stream {stream} cts {} rank {peer} epoch {epoch}",
                if tx { "->" } else { "<-" }
            ),
            EventKind::VerifyStreamData {
                peer,
                lane,
                tx,
                stream,
                offset,
                len,
            } => write!(
                f,
                "verify: stream {stream} data {} rank {peer} lane {lane} @ {offset} ({len} B)",
                if tx { "->" } else { "<-" }
            ),
            EventKind::VerifyStreamCommit {
                peer,
                lane,
                stream,
                lo,
                len,
            } => write!(
                f,
                "verify: stream {stream} commit <- rank {peer} lane {lane} @ {lo} ({len} B fresh)"
            ),
            EventKind::VerifyStreamLost {
                peer,
                stream,
                missing,
            } => write!(
                f,
                "verify: stream {stream} declared lost (rank {peer} missing {missing} B)"
            ),
            EventKind::VerifyStreamMsg {
                stream,
                req,
                msg,
                tx,
                offset,
                len,
            } => write!(
                f,
                "verify: stream {stream} carries req {req} msg {msg} ({}) @ {offset} ({len} B)",
                if tx { "tx" } else { "rx" }
            ),
            EventKind::IpcRingFull {
                peer,
                kind,
                wait_ns,
            } => write!(
                f,
                "ipc: ring to rank {peer} full (slot kind {kind}), blocked {wait_ns} ns"
            ),
            EventKind::IpcDoorbell { seq, woken } => write!(
                f,
                "ipc: parked on doorbell @ seq {seq}, {}",
                if woken { "rung" } else { "timed out" }
            ),
            EventKind::IpcDoorbellStats {
                rings,
                wakes,
                parks_counted,
                parks_uncounted,
            } => write!(
                f,
                "ipc: {rings} doorbell rings, {wakes} futex wakes; progress thread parked \
                 {parks_counted} counted / {parks_uncounted} uncounted"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::LockWait {
                shard: 3,
                wait_ns: 12_345,
            },
            EventKind::EagerSend {
                dst: 1,
                shard: 2,
                bytes: 512,
            },
            EventKind::RdvSend {
                dst: 7,
                shard: 0,
                bytes: 1 << 20,
            },
            EventKind::RdvCopy {
                shard: 1,
                bytes: 1 << 20,
                wait_ns: 99,
            },
            EventKind::Pready { part: 123_456 },
            EventKind::EarlyBird {
                msg: 5,
                shard: 1,
                bytes: 4096,
                gap_ns: 800,
            },
            EventKind::AggrLayout {
                base_msgs: 16,
                msgs: 4,
                bytes_per_msg: 2048,
            },
            EventKind::CtsWait {
                peer: 1,
                wait_ns: 5_000,
            },
            EventKind::PartWait {
                msgs: 4,
                wait_ns: 77,
            },
            EventKind::EpochOpen {
                win: 2,
                wait_ns: 1_000,
            },
            EventKind::EpochClose { win: 2, puts: 8 },
            EventKind::EagerPool {
                shard: 3,
                hit: true,
                bytes: 256,
            },
            EventKind::ProbeStats {
                fast_probes: 1_000_000,
                slow_waits: 12,
            },
            EventKind::FaultInjected {
                fault: FaultKind::Drop,
                dst: 1,
                tag: -1,
                arg: 2,
            },
            EventKind::RetryAttempt {
                dst: 1,
                attempt: 2,
                tag: 7,
            },
            EventKind::StallDetected {
                blocked: 3,
                watchdog_ms: 500,
                quiet_ms: 612,
            },
            EventKind::VerifyPartInit {
                req: 42,
                sender: true,
                parts: 64,
                msgs: 8,
            },
            EventKind::VerifyLayoutMsg {
                req: 42,
                msg: 3,
                first_spart: 24,
                n_sparts: 8,
                first_rpart: 12,
                n_rparts: 4,
                bytes: 65_536,
            },
            EventKind::VerifyStart {
                req: 42,
                sender: false,
                iter: 7,
                tid: 3,
            },
            EventKind::VerifyPready {
                req: 42,
                part: 63,
                iter: 7,
                tid: 3,
            },
            EventKind::VerifyWrite {
                req: 42,
                part: 63,
                iter: 7,
                tid: 3,
                dur_ns: 812,
            },
            EventKind::VerifyRead {
                req: 42,
                part: 0,
                iter: 7,
                tid: 5,
                dur_ns: 44,
            },
            EventKind::VerifyMsgSend {
                req: 42,
                msg: 3,
                iter: 7,
                tid: 3,
            },
            EventKind::VerifyMsgRecv {
                req: 42,
                msg: 3,
                tid: 1,
                eager: true,
            },
            EventKind::VerifyParrived {
                req: 42,
                part: 12,
                iter: 7,
                tid: 5,
                arrived: false,
            },
            EventKind::VerifyWaitDone {
                req: 42,
                sender: true,
                iter: 7,
                tid: 3,
            },
            EventKind::VerifyBlocked {
                peer: Some(1),
                tag: Some(-2),
            },
            EventKind::StreamChunk {
                lane: 1,
                parts: 4,
                offset: 1 << 18,
                bytes: 1 << 18,
            },
            EventKind::StreamCommit {
                lane: 1,
                msgs: 2,
                offset: 1 << 18,
                bytes: 1 << 18,
            },
            EventKind::LaneDown { peer: 1, lane: 2 },
            EventKind::LaneFailover {
                peer: 1,
                lane: 2,
                requeued: 17,
            },
            EventKind::Reconnect {
                peer: 1,
                ok: true,
                took_ms: 42,
            },
            EventKind::HeartbeatMiss {
                peer: 1,
                quiet_ms: 401,
            },
            EventKind::WriterQueue {
                peer: 1,
                lane: 2,
                depth: 1 << 12,
            },
            EventKind::VerifyWireSend {
                peer: 1,
                lane: 0,
                op: 14,
                epoch: 1,
                seq: 4_000_000,
            },
            EventKind::VerifyWireRecv {
                peer: 0,
                lane: 2,
                op: 16,
                epoch: 0,
                seq: 77,
            },
            EventKind::VerifyStreamRts {
                peer: 1,
                tx: true,
                stream: 9,
                total_len: 1 << 21,
            },
            EventKind::VerifyStreamCts {
                peer: 0,
                tx: false,
                stream: 9,
                epoch: 1,
            },
            EventKind::VerifyStreamData {
                peer: 1,
                lane: 2,
                tx: true,
                stream: 9,
                offset: 1 << 18,
                len: 1 << 16,
            },
            EventKind::VerifyStreamCommit {
                peer: 1,
                lane: 2,
                stream: 9,
                lo: 1 << 18,
                len: 1 << 16,
            },
            EventKind::VerifyStreamLost {
                peer: 0,
                stream: 9,
                missing: 4096,
            },
            EventKind::VerifyStreamMsg {
                stream: 9,
                req: 42,
                msg: 3,
                tx: true,
                offset: 1 << 18,
                len: 1 << 16,
            },
            EventKind::IpcRingFull {
                peer: 1,
                kind: 2,
                wait_ns: 55_000,
            },
            EventKind::IpcDoorbell {
                seq: 77,
                woken: true,
            },
            EventKind::IpcDoorbellStats {
                rings: 70_000,
                wakes: 9,
                parks_counted: 4,
                parks_uncounted: 100_000,
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip_every_kind() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                ts_ns: 1_000_000 + i as u64,
                rank: i as u16,
                kind,
            };
            assert_eq!(Event::decode(ev.encode()), Some(ev));
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(Event::decode([0, 0, 0, 0]), None);
        assert_eq!(Event::decode([5, 0xffff << 48, 1, 2]), None);
    }

    #[test]
    fn fault_kind_codes_roundtrip() {
        for k in [
            FaultKind::Drop,
            FaultKind::Delay,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::PreadyJitter,
            FaultKind::TornWrite,
            FaultKind::ShortRead,
            FaultKind::Garbage,
            FaultKind::Reset,
            FaultKind::LaneKill,
            FaultKind::HalfOpen,
        ] {
            assert_eq!(FaultKind::from_code(k.code()), Some(k));
        }
        assert_eq!(FaultKind::from_code(0), None);
        assert_eq!(FaultKind::from_code(12), None);
        // A torn fault_injected slot with a bogus fault code (aux1 = 99)
        // must not decode.
        let w = [7, (14u64 << 48) | (99u64 << 16), 0, 0];
        assert_eq!(Event::decode(w), None);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::HashSet<&str> = all_kinds().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 45);
        assert!(names.contains("shard_lock_wait"));
        assert!(names.contains("stream_chunk"));
        assert!(names.contains("stream_commit"));
        assert!(names.contains("early_bird_send"));
        assert!(names.contains("eager_pool"));
        assert!(names.contains("probe_stats"));
        assert!(names.contains("fault_injected"));
        assert!(names.contains("retry_attempt"));
        assert!(names.contains("stall_detected"));
        assert!(names.contains("verify_pready"));
        assert!(names.contains("verify_msg_recv"));
        assert!(names.contains("verify_blocked"));
        assert!(names.contains("verify_wire_send"));
        assert!(names.contains("verify_wire_recv"));
        assert!(names.contains("verify_stream_rts"));
        assert!(names.contains("verify_stream_commit"));
        assert!(names.contains("verify_stream_msg"));
        assert!(names.contains("ipc_doorbell_stats"));
    }

    #[test]
    fn verify_kinds_are_flagged() {
        let verify = all_kinds().iter().filter(|k| k.is_verify()).count();
        assert_eq!(verify, 19);
        assert!(!EventKind::Pready { part: 0 }.is_verify());
    }

    #[test]
    fn spans_and_instants_partition_the_taxonomy() {
        let spans = all_kinds().iter().filter(|k| k.dur_ns().is_some()).count();
        assert_eq!(
            spans, 7,
            "LockWait, RdvCopy, CtsWait, PartWait, EpochOpen, VerifyWrite, VerifyRead"
        );
    }

    #[test]
    fn display_is_human_readable() {
        let ev = Event {
            ts_ns: 1_500,
            rank: 0,
            kind: EventKind::Pready { part: 3 },
        };
        assert!(format!("{ev}").contains("pready partition 3"));
    }
}
