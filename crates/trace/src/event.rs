//! The typed event taxonomy: every phenomenon the paper measures, as a
//! compact fixed-size record — written once, as the `taxonomy!` table below.
//!
//! Events encode to four `u64` words so the ring recorder can store them
//! in atomic slots (seqlock publication, no allocation on the hot path):
//!
//! ```text
//! w0 = timestamp [ns]
//! w1 = tag(16) | rank(16) | aux1(16) | aux2(16)
//! w2, w3 = two u64 payload words (bytes, durations, counters)
//! ```
//!
//! A table row is one event: its doc comment, `Variant = <tag> "<name>"`,
//! its class (`perf` | `verify`), optional `span(<field>)` (the field is
//! the duration: the event renders as a span) and `lane(<field>)` (the
//! field is the shard / lane track it renders on), its fields as
//! `name: type @ slot[lo..hi]` over the payload slots `aux1`, `aux2`, `w2`,
//! `w3` (no range = the whole slot), and its prose as `write!` arguments
//! over the field names. The enum, `encode` / `decode`, the classifiers,
//! the exporters' field visitor and `Display` are all generated from it, so
//! **adding an event is adding one row**. Tags are append-only: ring slots
//! and `.events` files persist them, so a tag, a slot assignment or a name,
//! once released, never changes (`tests/taxonomy_golden.rs` holds the
//! recorded words).

use std::fmt;

/// Declares [`FaultKind`] from one list of `Variant = <code> "<name>"`.
macro_rules! fault_kinds {
    ($( $(#[$meta:meta])* $V:ident = $code:literal $name:literal, )*) => {
        /// Which chaos fault a [`EventKind::FaultInjected`] event records.
        ///
        /// The discriminants are the on-wire codes (stored in `aux1` of the
        /// four-word encoding); they are stable and must not be renumbered.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FaultKind {
            $( $(#[$meta])* $V = $code, )*
        }

        impl FaultKind {
            /// Every kind, in code order.
            pub const ALL: [FaultKind; [$($code),*].len()] = [$(FaultKind::$V),*];

            /// Stable lower-case name, greppable in exported traces.
            pub fn name(self) -> &'static str {
                match self {
                    $( FaultKind::$V => $name, )*
                }
            }
        }
    };
}

fault_kinds! {
    /// A message attempt was dropped before delivery.
    Drop = 1 "drop",
    /// A message was delayed before delivery.
    Delay = 2 "delay",
    /// An eager message was delivered twice.
    Duplicate = 3 "duplicate",
    /// A message was held back so a later one overtakes it.
    Reorder = 4 "reorder",
    /// The issue order of a `pready_range`/`pready_list` was permuted.
    PreadyJitter = 5 "pready_jitter",
    /// A wire write delivered only a prefix of its bytes.
    TornWrite = 6 "torn_write",
    /// A wire read returned fewer bytes than were available.
    ShortRead = 7 "short_read",
    /// A byte of an outgoing wire write was flipped in flight.
    Garbage = 8 "garbage",
    /// A connection was reset at a write boundary.
    Reset = 9 "reset",
    /// A writer lane was killed after its byte threshold.
    LaneKill = 10 "lane_kill",
    /// Writes began disappearing silently (half-open peer).
    HalfOpen = 11 "half_open",
}

impl FaultKind {
    /// Stable wire code (the enum discriminant).
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decode a wire code; `None` for unknown codes.
    pub fn from_code(code: u16) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.code() == code)
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
}

// One row per event, in tag order. The macro that turns the rows into code is
// below the table, so it is invoked by path.
self::taxonomy! {
    // ---- Perf: what the paper's figures are built from, then the chaos layer's record.

    /// Waited to acquire a match-shard lock (real runtime) or a VCI
    /// (simulator) — the contention of Figs. 5–6. Span.
    LockWait = 1 "shard_lock_wait" perf span(wait_ns) lane(shard) {
        /// Shard / VCI index.
        shard: u16 @ aux1,
        /// Time spent waiting for the lock, in ns.
        wait_ns: u64 @ w2,
    } => ("lock wait shard {shard} ({:.2} us)", wait_ns as f64 / 1e3);
    /// Injected an eager (bcopy) message. Instant.
    EagerSend = 2 "eager_send" perf lane(shard) {
        /// Destination rank.
        dst: u16 @ aux1,
        /// Shard / VCI the message was injected on.
        shard: u16 @ aux2,
        /// Payload bytes.
        bytes: u64 @ w2,
    } => ("eager send -> rank {dst} shard {shard} ({bytes} B)");
    /// Posted a rendezvous (zcopy) send — the RTS. Instant.
    RdvSend = 3 "rdv_send" perf lane(shard) {
        /// Destination rank.
        dst: u16 @ aux1,
        /// Shard / VCI the message was injected on.
        shard: u16 @ aux2,
        /// Payload bytes.
        bytes: u64 @ w2,
    } => ("rendezvous RTS -> rank {dst} shard {shard} ({bytes} B)");
    /// A rendezvous transfer completed: from RTS to the zero-copy data
    /// landing (the time the sender's buffer stayed pinned). Span.
    RdvCopy = 4 "rdv_copy" perf span(wait_ns) lane(shard) {
        /// Shard the match completed on.
        shard: u16 @ aux1,
        /// Payload bytes.
        bytes: u64 @ w2,
        /// RTS-to-completion time in ns.
        wait_ns: u64 @ w3,
    } => (
        "rendezvous data landed shard {shard} ({bytes} B, {:.2} us pinned)",
        wait_ns as f64 / 1e3
    );
    /// `MPI_Pready(p)` was called. Instant.
    Pready = 5 "pready" perf {
        /// Partition index.
        part: u64 @ w2,
    } => ("pready partition {part}");
    /// The last `pready` of an internal message injected it — the
    /// early-bird send of Fig. 8. `gap_ns` is the pready→fabric-send
    /// latency. Instant.
    EarlyBird = 6 "early_bird_send" perf lane(shard) {
        /// Internal message index.
        msg: u16 @ aux1,
        /// Shard / VCI the message was injected on.
        shard: u16 @ aux2,
        /// Message bytes.
        bytes: u64 @ w2,
        /// Latency from the completing `pready` to the fabric send, ns.
        gap_ns: u64 @ w3,
    } => (
        "message {msg} complete: early-bird send shard {shard} ({bytes} B, gap {:.2} us)",
        gap_ns as f64 / 1e3
    );
    /// A partitioned layout was negotiated: `base_msgs` gcd messages
    /// folded into `msgs` under the aggregation bound (Fig. 7). Instant.
    AggrLayout = 7 "aggr_layout" perf {
        /// gcd(N_send, N_recv) base message count.
        base_msgs: u16 @ aux1,
        /// Messages after aggregation.
        msgs: u16 @ aux2,
        /// Bytes of the first (typical) message.
        bytes_per_msg: u64 @ w2,
    } => ("layout: {base_msgs} base msgs aggregated to {msgs} x {bytes_per_msg} B");
    /// Legacy path: waited for the receiver's clear-to-send (the
    /// per-iteration CTS round-trip of Fig. 4). Span.
    CtsWait = 8 "cts_wait" perf span(wait_ns) {
        /// Peer rank.
        peer: u16 @ aux1,
        /// Time blocked on the CTS, ns.
        wait_ns: u64 @ w2,
    } => ("CTS from rank {peer} ({:.2} us wait)", wait_ns as f64 / 1e3);
    /// `wait()` on a partitioned request: entry to all-messages-complete.
    /// Span. Early-bird sends *outside* this span overlapped compute.
    PartWait = 9 "part_wait" perf span(wait_ns) {
        /// Internal messages drained.
        msgs: u16 @ aux1,
        /// Time inside `wait()`, ns.
        wait_ns: u64 @ w2,
    } => ("wait: {msgs} msgs drained ({:.2} us)", wait_ns as f64 / 1e3);
    /// RMA active-target epoch opened (origin blocked for the post). Span.
    EpochOpen = 10 "epoch_open" perf span(wait_ns) {
        /// Window id (low bits of the window context).
        win: u16 @ aux1,
        /// Time blocked waiting for the target's post, ns.
        wait_ns: u64 @ w2,
    } => ("epoch open win {win} ({:.2} us wait)", wait_ns as f64 / 1e3);
    /// RMA epoch closed with `puts` puts flushed. Instant.
    EpochClose = 11 "epoch_close" perf {
        /// Window id.
        win: u16 @ aux1,
        /// Puts in the epoch.
        puts: u64 @ w2,
    } => ("epoch close win {win} ({puts} puts)");
    /// An eager send acquired its payload buffer from a pool (`hit`) or a
    /// fresh allocation (miss). Instant. The runtime no longer emits it.
    EagerPool = 12 "eager_pool" perf lane(shard) {
        /// Shard the message was injected on.
        shard: u16 @ aux1,
        /// Whether a recycled buffer was reused.
        hit: bool @ aux2,
        /// Payload bytes.
        bytes: u64 @ w2,
    } => (
        "eager buffer {} shard {shard} ({bytes} B)",
        if hit { "pool hit" } else { "pool miss" }
    );
    /// Per-rank completion probe-path counters for the run: probes
    /// answered by the single-atomic-load fast path vs waits that fell
    /// through to spin-then-park. Instant, emitted at rank exit.
    ProbeStats = 13 "probe_stats" perf {
        /// Fast-path probes (`is_set` / immediate `wait` returns).
        fast_probes: u64 @ w2,
        /// Waits that registered and parked.
        slow_waits: u64 @ w3,
    } => ("probe stats: {fast_probes} fast probes, {slow_waits} parked waits");
    /// The chaos layer injected a fault on a message (or a `pready`
    /// order). Instant, attributed to the sending rank.
    FaultInjected = 14 "fault_injected" perf {
        /// Which fault.
        fault: FaultKind @ aux1,
        /// Destination rank of the affected message.
        dst: u16 @ aux2,
        /// Tag of the affected message (negative tags are the internal
        /// CTS/DATA/RMA control tags).
        tag: i64 @ w2,
        /// Fault-specific argument: attempt index for `Drop`, delay in
        /// microseconds for `Delay`, extra copies for `Duplicate`,
        /// held-back messages for `Reorder`, permutation round for
        /// `PreadyJitter`.
        arg: u64 @ w3,
    } => ("fault {} -> rank {dst} tag {tag} (arg {arg})", fault.name());
    /// A dropped message attempt is being resent (bounded retry).
    /// Instant, attributed to the sending rank.
    RetryAttempt = 15 "retry_attempt" perf {
        /// Destination rank.
        dst: u16 @ aux1,
        /// Retry attempt number (1 = first resend).
        attempt: u16 @ aux2,
        /// Tag of the message being resent.
        tag: i64 @ w2,
    } => ("retry {attempt} -> rank {dst} tag {tag}");
    /// The watchdog declared the universe stalled and produced a
    /// `StallReport`. Instant, emitted once by the supervisor.
    StallDetected = 16 "stall_detected" perf {
        /// Number of blocked waits at detection time.
        blocked: u16 @ aux1,
        /// Configured watchdog deadline, ms.
        watchdog_ms: u64 @ w2,
        /// Observed quiet period with no fabric activity, ms.
        quiet_ms: u64 @ w3,
    } => ("STALL: {blocked} blocked waits, quiet {quiet_ms} ms (watchdog {watchdog_ms} ms)");

    // ---- Verify: the analysis-grade stream `pcomm-verify` proves races and deadlocks from.

    /// \[verify\] A partitioned request was created. One per side; `req`
    /// is the low 16 bits of the partitioned context, identical on the
    /// sender and the receiver. Instant.
    VerifyPartInit = 17 "verify_part_init" verify {
        /// Request id (low 16 bits of the part context, same both sides).
        req: u16 @ aux1,
        /// True for the psend side, false for precv.
        sender: bool @ aux2,
        /// Partition count on this side.
        parts: u32 @ w2[0..32],
        /// Wire messages after layout negotiation.
        msgs: u32 @ w3[0..32],
    } => (
        "verify: {} req {req} init ({parts} parts, {msgs} msgs)",
        if sender { "psend" } else { "precv" }
    );
    /// \[verify\] Layout of one wire message within a partitioned request:
    /// the send- and recv-partition ranges it covers. Emitted once per
    /// message at init so the analyzer can map partitions to transfer
    /// accesses. Instant.
    VerifyLayoutMsg = 18 "verify_layout_msg" verify {
        /// Request id.
        req: u16 @ aux1,
        /// Wire message index.
        msg: u16 @ aux2,
        /// First send partition covered.
        first_spart: u16 @ w2[0..16],
        /// Send partitions covered.
        n_sparts: u16 @ w2[16..32],
        /// First recv partition covered.
        first_rpart: u16 @ w2[32..48],
        /// Recv partitions covered.
        n_rparts: u16 @ w2[48..64],
        /// Message payload bytes.
        bytes: u64 @ w3,
    } => (
        "verify: req {req} msg {msg} = sparts {first_spart}+{n_sparts} \
          rparts {first_rpart}+{n_rparts} ({bytes} B)"
    );
    /// \[verify\] `start()` activated a partitioned request for one
    /// iteration. Instant.
    VerifyStart = 19 "verify_start" verify {
        /// Request id.
        req: u16 @ aux1,
        /// True for the psend side.
        sender: bool @ w3,
        /// Iteration number (0-based, counted per request).
        iter: u32 @ w2[0..32],
        /// Calling thread id.
        tid: u16 @ aux2,
    } => (
        "verify: {} req {req} start iter {iter} (tid {tid})",
        if sender { "psend" } else { "precv" }
    );
    /// \[verify\] `pready(part)` was observed — emitted *before* the state
    /// gate, so a double pready leaves two events. Instant.
    VerifyPready = 20 "verify_pready" verify {
        /// Request id.
        req: u16 @ aux1,
        /// Partition index.
        part: u32 @ w2[0..32],
        /// Iteration number.
        iter: u32 @ w2[32..64],
        /// Calling thread id.
        tid: u16 @ aux2,
    } => ("verify: req {req} pready part {part} iter {iter} (tid {tid})");
    /// \[verify\] A checked user write into a send partition. Span.
    VerifyWrite = 21 "verify_write" verify span(dur_ns) {
        /// Request id.
        req: u16 @ aux1,
        /// Partition index.
        part: u32 @ w2[0..32],
        /// Iteration number.
        iter: u32 @ w2[32..64],
        /// Writing thread id.
        tid: u16 @ aux2,
        /// Time inside the write closure, ns.
        dur_ns: u64 @ w3,
    } => ("verify: req {req} write part {part} iter {iter} (tid {tid}, {dur_ns} ns)");
    /// \[verify\] A checked user read of a recv partition. Span.
    VerifyRead = 22 "verify_read" verify span(dur_ns) {
        /// Request id.
        req: u16 @ aux1,
        /// Partition index.
        part: u32 @ w2[0..32],
        /// Iteration number.
        iter: u32 @ w2[32..64],
        /// Reading thread id.
        tid: u16 @ aux2,
        /// Time inside the read closure, ns.
        dur_ns: u64 @ w3,
    } => ("verify: req {req} read part {part} iter {iter} (tid {tid}, {dur_ns} ns)");
    /// \[verify\] Wire message `msg` was handed to the fabric — the
    /// transfer's read of the send partitions it covers. Instant.
    VerifyMsgSend = 23 "verify_msg_send" verify {
        /// Request id.
        req: u16 @ aux1,
        /// Wire message index.
        msg: u16 @ w2[0..16],
        /// Iteration number.
        iter: u32 @ w2[32..64],
        /// Issuing thread id.
        tid: u16 @ aux2,
    } => ("verify: req {req} msg {msg} sent iter {iter} (tid {tid})");
    /// \[verify\] Wire message `msg` landed in the recv buffer — the
    /// transfer's write of the recv partitions it covers. The analyzer
    /// pairs the k-th recv of a (req, msg) channel with its k-th send
    /// (per-channel FIFO). Instant.
    VerifyMsgRecv = 24 "verify_msg_recv" verify {
        /// Request id.
        req: u16 @ aux1,
        /// Wire message index.
        msg: u16 @ w2[0..16],
        /// Thread that performed the copy.
        tid: u16 @ aux2,
        /// True when the payload came from an eager buffer (the copy
        /// does not touch the sender's user buffer).
        eager: bool @ w3,
    } => (
        "verify: req {req} msg {msg} landed (tid {tid}, {})",
        if eager { "eager" } else { "rendezvous" }
    );
    /// \[verify\] A `parrived(part)` probe observation. Observing `true`
    /// is a synchronization edge from the delivering message. Instant.
    VerifyParrived = 25 "verify_parrived" verify {
        /// Request id.
        req: u16 @ aux1,
        /// Partition index.
        part: u32 @ w2[0..32],
        /// Iteration number.
        iter: u32 @ w2[32..64],
        /// Probing thread id.
        tid: u16 @ aux2,
        /// The probe's answer.
        arrived: bool @ w3,
    } => ("verify: req {req} parrived({part}) iter {iter} -> {arrived} (tid {tid})");
    /// \[verify\] `wait()` returned for an iteration — all messages of the
    /// request are complete on this side. Instant.
    VerifyWaitDone = 26 "verify_wait_done" verify {
        /// Request id.
        req: u16 @ aux1,
        /// True for the psend side.
        sender: bool @ w3,
        /// Iteration number.
        iter: u32 @ w2[0..32],
        /// Waiting thread id.
        tid: u16 @ aux2,
    } => (
        "verify: {} req {req} wait done iter {iter} (tid {tid})",
        if sender { "psend" } else { "precv" }
    );
    /// \[verify\] At stall time, the event's rank was blocked waiting on
    /// `peer` (wait-for-graph edge). Emitted by the supervisor, one per
    /// blocked wait in the `StallReport`. Instant.
    VerifyBlocked = 27 "verify_blocked" verify {
        /// Peer rank the wait depends on, when known.
        peer: Option<u16>,
        /// Tag of the blocked wait, when known.
        tag: Option<i64>,
    } custom {
        // Presence bits in aux2 keep `Some(0)` apart from `None`.
        encode: [
            peer.unwrap_or(0) as u64,
            peer.is_some() as u64 | (tag.is_some() as u64) << 1,
            tag.unwrap_or(0) as u64,
            0,
        ],
        decode: |s: [u64; 4]| EventKind::VerifyBlocked {
            peer: (s[1] & 1 != 0).then_some(s[0] as u16),
            tag: (s[1] & 2 != 0).then_some(s[2] as i64),
        },
    } => (
        "verify: blocked on {}{}",
        peer.map_or("unknown peer".into(), |p| format!("rank {p}")),
        tag.map_or(String::new(), |t| format!(" tag {t}"))
    );

    // ---- Wire: chunk geometry and link health on the socket carrier.

    /// One issued message's range was handed to the socket carrier as
    /// one `PartData` chunk — the wire-streaming analogue of
    /// [`EventKind::EarlyBird`]. Instant, attributed to the sender.
    StreamChunk = 28 "stream_chunk" perf lane(lane) {
        /// Writer lane the chunk was queued on.
        lane: u16 @ aux1,
        /// Partitions in the chunk's message.
        parts: u16 @ aux2,
        /// Byte offset of the chunk in the whole buffer.
        offset: u64 @ w2,
        /// Chunk bytes.
        bytes: u64 @ w3,
    } => ("stream chunk lane {lane}: {parts} partition(s) @ {offset} ({bytes} B)");
    /// A `PartData` range landed and was committed into the pinned
    /// destination buffer, flipping `msgs` per-message completions.
    /// Instant, attributed to the receiver.
    StreamCommit = 29 "stream_commit" perf lane(lane) {
        /// Reader lane the range arrived on.
        lane: u16 @ aux1,
        /// Per-message completions flipped by this commit.
        msgs: u16 @ aux2,
        /// Byte offset of the range in the destination buffer.
        offset: u64 @ w2,
        /// Range bytes.
        bytes: u64 @ w3,
    } => ("stream commit lane {lane}: range @ {offset} ({bytes} B, {msgs} msg(s) done)");
    /// A writer lane to `peer` died (socket error on its reader or
    /// writer half) and was marked out of rotation. Instant.
    LaneDown = 30 "lane_down" perf lane(lane) {
        /// Peer rank the lane connected to.
        peer: u16 @ aux1,
        /// Which lane died.
        lane: u16 @ aux2,
    } => ("lane {lane} -> rank {peer} DOWN");
    /// In-flight work from a dead data lane was re-routed to surviving
    /// lanes (offset-addressed commits make the replay idempotent).
    /// Instant, attributed to the sender.
    LaneFailover = 31 "lane_failover" perf lane(lane) {
        /// Peer rank.
        peer: u16 @ aux1,
        /// The lane that died.
        lane: u16 @ aux2,
        /// Writer messages re-queued onto surviving lanes.
        requeued: u64 @ w2,
    } => ("failover from lane {lane} -> rank {peer} ({requeued} msg(s) requeued)");
    /// A lane-0 reconnect attempt finished. Instant.
    Reconnect = 32 "reconnect" perf {
        /// Peer rank.
        peer: u16 @ aux1,
        /// Whether the re-handshake succeeded.
        ok: bool @ aux2,
        /// Wall time the attempt took, ms.
        took_ms: u64 @ w2,
    } => ("reconnect to rank {peer} {} ({took_ms} ms)", if ok { "OK" } else { "FAILED" });
    /// A peer exceeded the heartbeat silence budget and is about to be
    /// declared dead. Instant.
    HeartbeatMiss = 33 "heartbeat_miss" perf {
        /// The silent peer.
        peer: u16 @ aux1,
        /// Observed silence, ms.
        quiet_ms: u64 @ w2,
    } => ("heartbeat miss: rank {peer} quiet {quiet_ms} ms");
    /// A writer lane's queue backlog crossed a power-of-two high-water
    /// mark (the channel is unbounded, so depth — not blocking — is the
    /// stall signal). Instant.
    WriterQueue = 34 "writer_queue" perf lane(lane) {
        /// Peer rank.
        peer: u16 @ aux1,
        /// Lane whose queue grew.
        lane: u16 @ aux2,
        /// Queued writer messages at the crossing.
        depth: u64 @ w2,
    } => ("writer queue lane {lane} -> rank {peer} depth {depth}");

    // ---- Wire verify: the frame and stream record `pcomm-audit` replays the wire FSM from.

    /// \[verify\] A wire frame was put on a lane's socket, in wire order
    /// (emitted under the lane's write mutex, *before* the write, so a
    /// partially transmitted frame is still recorded). `seq` is a
    /// monotone per-lane counter; `epoch` counts lane-0 reconnects, and
    /// frame *k* of an epoch on the sender pairs with frame *k* of the
    /// same epoch at the receiver (per-epoch byte streams are FIFO with
    /// the prefix property). Instant.
    VerifyWireSend = 35 "verify_wire_send" verify lane(lane) {
        /// Destination peer rank.
        peer: u16 @ aux1,
        /// Lane the frame travelled.
        lane: u16 @ aux2,
        /// Wire opcode (`pcomm-net` frame op).
        op: u16 @ w2[0..16],
        /// Reconnect epoch of the peer link at send time.
        epoch: u32 @ w2[32..64],
        /// Monotone per-lane send ordinal (never reset; gaps reveal
        /// dropped ring slots, not dropped frames).
        seq: u32 @ w3[0..32],
    } => ("verify: wire send op {op} -> rank {peer} lane {lane} epoch {epoch} seq {seq}");
    /// \[verify\] A wire frame was read off a lane's socket, in wire
    /// order (one reader at a time per lane). Fields as in
    /// [`VerifyWireSend`](EventKind::VerifyWireSend). Instant.
    VerifyWireRecv = 36 "verify_wire_recv" verify lane(lane) {
        /// Source peer rank.
        peer: u16 @ aux1,
        /// Lane the frame arrived on.
        lane: u16 @ aux2,
        /// Wire opcode.
        op: u16 @ w2[0..16],
        /// Reconnect epoch of the peer link at read time.
        epoch: u32 @ w2[32..64],
        /// Monotone per-lane receive ordinal.
        seq: u32 @ w3[0..32],
    } => ("verify: wire recv op {op} <- rank {peer} lane {lane} epoch {epoch} seq {seq}");
    /// \[verify\] A `PartRts` stream announcement: `tx` at the sender's
    /// `part_stream_begin`, `rx` when the receiver handles the frame.
    /// `stream` is the low 32 bits of the rdv id — unique per *sender*,
    /// so the audit keys streams by `(sender rank, stream)`. Instant.
    VerifyStreamRts = 37 "verify_stream_rts" verify {
        /// The other end of the stream.
        peer: u16 @ aux1,
        /// True on the announcing (sender) side.
        tx: bool @ aux2,
        /// Stream id (low 32 bits of the rdv id).
        stream: u32 @ w2[0..32],
        /// Total pinned bytes the stream will carry.
        total_len: u64 @ w3,
    } => (
        "verify: stream {stream} rts {} rank {peer} ({total_len} B)",
        if tx { "->" } else { "<-" }
    );
    /// \[verify\] A `PartCts` stream release: `tx` when the receiver
    /// activates the stream and releases the sender, `rx` when the
    /// sender handles the release. Instant.
    VerifyStreamCts = 38 "verify_stream_cts" verify {
        /// The other end of the stream.
        peer: u16 @ aux1,
        /// True on the releasing (receiver) side.
        tx: bool @ aux2,
        /// Stream id.
        stream: u32 @ w2[0..32],
        /// Always 0: the engine sees no reconnect, and the ledger pass
        /// proves at most one release per stream.
        epoch: u32 @ w2[32..64],
    } => (
        "verify: stream {stream} cts {} rank {peer} epoch {epoch}",
        if tx { "->" } else { "<-" }
    );
    /// \[verify\] A `PartData` range: `tx` per chunk put on the wire
    /// (inline or writer-thread path), `rx` when the receiver commits
    /// bytes against the pinned buffer. Instant.
    VerifyStreamData = 39 "verify_stream_data" verify lane(lane) {
        /// The other end of the stream.
        peer: u16 @ aux1,
        /// Lane the range travelled.
        lane: u16 @ aux2[0..15],
        /// True on the sending side.
        tx: bool @ aux2[15..16],
        /// Stream id.
        stream: u32 @ w2[0..32],
        /// Byte offset inside the pinned stream.
        offset: u64 @ w3,
        /// Range length in bytes.
        len: u32 @ w2[32..64],
    } => (
        "verify: stream {stream} data {} rank {peer} lane {lane} @ {offset} ({len} B)",
        if tx { "->" } else { "<-" }
    );
    /// \[verify\] `claim_range` granted a *fresh* sub-range of an
    /// incoming stream — one event per disjoint fresh range, none for a
    /// pure duplicate (replays absorbed by the ledger leave no commit).
    /// Instant, receiver side.
    VerifyStreamCommit = 40 "verify_stream_commit" verify lane(lane) {
        /// Sending peer rank.
        peer: u16 @ aux1,
        /// Lane whose reader committed the range.
        lane: u16 @ aux2,
        /// Stream id.
        stream: u32 @ w2[0..32],
        /// First byte of the fresh range.
        lo: u64 @ w3,
        /// Fresh bytes granted.
        len: u32 @ w2[32..64],
    } => ("verify: stream {stream} commit <- rank {peer} lane {lane} @ {lo} ({len} B fresh)");
    /// \[verify\] The sender declared a stream's bytes unrecoverable
    /// (`MessageLost`): a pinned range left whole on a socket that died
    /// before the peer read it, so it cannot go again. Instant, sender.
    VerifyStreamLost = 41 "verify_stream_lost" verify {
        /// Receiver rank the range was bound for.
        peer: u16 @ aux1,
        /// Stream id.
        stream: u32 @ w2[0..32],
        /// Bytes of the lost range.
        missing: u64 @ w3,
    } => ("verify: stream {stream} declared lost (rank {peer} missing {missing} B)");
    /// \[verify\] Binds one wire message of a partitioned request to its
    /// byte range inside a stream — emitted by both sides (sender at
    /// `part_stream_begin`, receiver at stream activation), so the
    /// audit can join each side's locally interned request ids across
    /// processes. Instant.
    VerifyStreamMsg = 42 "verify_stream_msg" verify {
        /// Stream id.
        stream: u32 @ w2[0..32],
        /// Request id (local interning of the emitting process).
        req: u16 @ aux1,
        /// Wire message index (15 bits on the wire).
        msg: u16 @ aux2[0..15],
        /// True on the originating (psend) side, false at the
        /// receiver — rendezvous ids are allocated per process, so a
        /// rank can both originate stream `s` and receive a different
        /// peer's stream `s`; the side bit keeps them apart.
        tx: bool @ aux2[15..16],
        /// The message's byte offset inside the stream.
        offset: u64 @ w3,
        /// The message's length in bytes.
        len: u32 @ w2[32..64],
    } => (
        "verify: stream {stream} carries req {req} msg {msg} ({}) @ {offset} ({len} B)",
        if tx { "tx" } else { "rx" }
    );

    // ---- Ipc: backpressure and doorbell behaviour of the shared-memory segment.

    /// The ipc fabric's producer found the descriptor ring (or FIFO
    /// slab) to a peer full and blocked until the consumer freed
    /// space — emitted once per backpressure episode, after it
    /// resolves. Instant.
    IpcRingFull = 43 "ipc_ring_full" perf {
        /// The peer whose inbound channel was full.
        peer: u16 @ aux1,
        /// Slot kind the producer was trying to publish.
        kind: u16 @ aux2,
        /// How long the producer was blocked, ns.
        wait_ns: u64 @ w2,
    } => ("ipc: ring to rank {peer} full (slot kind {kind}), blocked {wait_ns} ns");
    /// The ipc progress thread parked on its futex doorbell (it only
    /// parks after a yield-spin budget finds no work, so these mark
    /// genuine idle periods, not per-message syscalls). Instant.
    IpcDoorbell = 44 "ipc_doorbell" perf {
        /// Bell sequence snapshot the park waited on.
        seq: u32 @ w2[0..32],
        /// Whether the park ended by a ring (vs timeout).
        woken: bool @ aux1,
    } => ("ipc: parked on doorbell @ seq {seq}, {}", if woken { "rung" } else { "timed out" });
    /// One rank's always-on doorbell tallies, emitted once at ipc
    /// teardown: who paid a syscall to notify whom (counts saturate at
    /// `u32::MAX`). Instant.
    IpcDoorbellStats = 45 "ipc_doorbell_stats" perf {
        /// Peer doorbells this rank rang (one per published record).
        rings: u32 @ w2[0..32],
        /// Of those, rings that issued a `FUTEX_WAKE`.
        wakes: u32 @ w2[32..64],
        /// Progress-thread parks counted in `sleepers`.
        parks_counted: u32 @ w3[0..32],
        /// Progress-thread parks a polling app thread took over.
        parks_uncounted: u32 @ w3[32..64],
    } => (
        "ipc: {rings} doorbell rings, {wakes} futex wakes; progress thread parked \
          {parks_counted} counted / {parks_uncounted} uncounted"
    );
}

/// A field type that is stored in a bit range of one payload slot.
trait Packed: Copy {
    /// The value as the low bits of a word.
    fn pack(self) -> u64;
    /// The value those bits hold; `None` only for a type with fewer values
    /// than bit patterns (a fault code from a torn slot).
    fn unpack(bits: u64) -> Option<Self>;
}

macro_rules! packed_ints {
    ($($t:ident)*) => {$(
        impl Packed for $t {
            #[inline]
            fn pack(self) -> u64 {
                self as u64
            }
            #[inline]
            fn unpack(bits: u64) -> Option<$t> {
                Some(bits as $t)
            }
        }
    )*};
}
packed_ints!(u16 u32 u64 i64);

impl Packed for bool {
    #[inline]
    fn pack(self) -> u64 {
        self as u64
    }
    #[inline]
    fn unpack(bits: u64) -> Option<bool> {
        Some(bits != 0)
    }
}

impl Packed for FaultKind {
    #[inline]
    fn pack(self) -> u64 {
        self.code() as u64
    }
    #[inline]
    fn unpack(bits: u64) -> Option<FaultKind> {
        FaultKind::from_code(bits as u16)
    }
}

/// The bits `[lo, hi)` of a slot, as a mask over the low `hi - lo` bits.
#[inline]
fn mask((lo, hi): (u32, u32)) -> u64 {
    u64::MAX >> (64 - (hi - lo))
}

/// `v`, cut to the width of the range and moved into place.
#[inline]
fn put(v: u64, bits: (u32, u32)) -> u64 {
    (v & mask(bits)) << bits.0
}

/// The value stored in the range `bits` of `word`.
#[inline]
fn get(word: u64, bits: (u32, u32)) -> u64 {
    (word >> bits.0) & mask(bits)
}

/// A field's value as the exporters see it (see
/// [`EventKind::for_each_field`]); `Display` is its JSON form.
pub(crate) enum Arg {
    Uint(u64),
    Int(i64),
    Bool(bool),
    Name(&'static str),
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Arg::Uint(v) => write!(f, "{v}"),
            Arg::Int(v) => write!(f, "{v}"),
            Arg::Bool(v) => write!(f, "{v}"),
            Arg::Name(v) => write!(f, "\"{v}\""),
        }
    }
}

macro_rules! arg_from {
    ($($t:ty => |$v:ident| $arg:expr;)*) => {$(
        impl From<$t> for Arg {
            fn from($v: $t) -> Arg {
                $arg
            }
        }
    )*};
}
arg_from! {
    u16 => |v| Arg::Uint(v as u64);
    u32 => |v| Arg::Uint(v as u64);
    u64 => |v| Arg::Uint(v);
    i64 => |v| Arg::Int(v);
    bool => |v| Arg::Bool(v);
    FaultKind => |v| Arg::Name(v.name());
    // An unknown peer / tag exports as a value no rank or tag can have.
    Option<u16> => |v| Arg::Int(v.map_or(-1, i64::from));
    Option<i64> => |v| Arg::Int(v.unwrap_or(i64::MIN));
}

/// Generates [`EventKind`] and everything that has to agree with it from
/// the table above (row grammar: module doc). The `@` rules are the table's
/// vocabulary — slot names, class names — and what a row's field list (or,
/// for an irregular row, its `custom` pair) expands to.
macro_rules! taxonomy {
    (@slot aux1) => { 0 };
    (@slot aux2) => { 1 };
    (@slot w2) => { 2 };
    (@slot w3) => { 3 };
    (@bits $slot:ident [$lo:literal .. $hi:literal]) => { ($lo, $hi) };
    (@bits aux1) => { (0, 16) };
    (@bits aux2) => { (0, 16) };
    (@bits w2) => { (0, 64) };
    (@bits w3) => { (0, 64) };
    (@verify perf) => { false };
    (@verify verify) => { true };

    // One event's payload slots `[aux1, aux2, w2, w3]`, and back. Slot and
    // range are constants, so each arm compiles to the shifts and ors a
    // hand-written one would hold.
    (@encode [] $($f:ident: $ty:ident @ $slot:ident $([$lo:literal .. $hi:literal])?),*) => {{
        let mut s = [0u64; 4];
        $( s[taxonomy!(@slot $slot)] |=
            put(Packed::pack($f), taxonomy!(@bits $slot $([$lo .. $hi])?)); )*
        s
    }};
    (@encode [$enc:expr] $($fields:tt)*) => { $enc };
    (@decode $V:ident $s:ident []
        $($f:ident: $ty:ident @ $slot:ident $([$lo:literal .. $hi:literal])?),*) => {
        EventKind::$V {
            $( $f: <$ty as Packed>::unpack(
                get($s[taxonomy!(@slot $slot)], taxonomy!(@bits $slot $([$lo .. $hi])?)))?, )*
        }
    };
    (@decode $V:ident $s:ident [$dec:expr] $($fields:tt)*) => { ($dec)($s) };

    ($(
        $(#[$vmeta:meta])*
        $V:ident = $tag:literal $name:literal $class:ident
            $(span($span:ident))? $(lane($lane:ident))? {
            $( $(#[$fmeta:meta])* $f:ident: $ty:ident $(<$targ:ident>)?
                $(@ $slot:ident $([$lo:literal .. $hi:literal])?)? ),* $(,)?
        } $(custom { encode: $enc:expr, decode: $dec:expr $(,)? })?
        => ($fmt:literal $(, $arg:expr)* $(,)?);
    )*) => {
        /// The event taxonomy, covering the paper's phenomena end to end.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$vmeta])* $V { $( $(#[$fmeta])* $f: $ty $(<$targ>)? ),* }, )*
        }

        impl Event {
            /// Encode into the four-word wire format.
            pub fn encode(&self) -> [u64; 4] {
                let (tag, s): (u64, [u64; 4]) = match self.kind {
                    $( EventKind::$V { $($f),* } => ($tag, taxonomy!(
                        @encode [$($enc)?] $($f: $ty $(@ $slot $([$lo .. $hi])?)?),*
                    )), )*
                };
                let aux = (s[0] & 0xffff) << 16 | (s[1] & 0xffff);
                [self.ts_ns, tag << 48 | (self.rank as u64) << 32 | aux, s[2], s[3]]
            }

            /// Decode the wire format; `None` for unknown tags (torn slots).
            pub fn decode(w: [u64; 4]) -> Option<Event> {
                let s = [(w[1] >> 16) & 0xffff, w[1] & 0xffff, w[2], w[3]];
                let kind = match w[1] >> 48 {
                    $( $tag => taxonomy!(
                        @decode $V s [$($dec)?] $($f: $ty $(@ $slot $([$lo .. $hi])?)?),*
                    ), )*
                    _ => return None,
                };
                Some(Event { ts_ns: w[0], rank: (w[1] >> 32) as u16, kind })
            }
        }

        impl EventKind {
            /// Stable event name (used by the exporters and greppable in JSON).
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$V { .. } => $name, )*
                }
            }

            /// Span duration in ns (`Some` for span events, `None` for instants).
            pub fn dur_ns(&self) -> Option<u64> {
                match *self {
                    $($( EventKind::$V { $span, .. } => Some($span), )?)*
                    _ => None,
                }
            }

            /// Whether this is an analysis-grade `Verify*` event (only emitted
            /// when verification is enabled on the trace).
            pub fn is_verify(&self) -> bool {
                match self {
                    $( EventKind::$V { .. } => taxonomy!(@verify $class), )*
                }
            }

            /// The track (shard / VCI lane) the event belongs to, for per-shard
            /// rendering; lane 0 for events without one.
            pub fn lane(&self) -> u16 {
                match *self {
                    $($( EventKind::$V { $lane, .. } => $lane, )?)*
                    _ => 0,
                }
            }

            /// Calls `visit(name, value)` for each field, in declaration order —
            /// what an exporter needs to render any event without naming it.
            /// (`dyn`: one copy of the 45 arms, not one per caller's closure.)
            pub(crate) fn for_each_field(&self, visit: &mut dyn FnMut(&'static str, Arg)) {
                match *self {
                    $( EventKind::$V { $($f),* } => {
                        $( visit(stringify!($f), Arg::from($f)); )*
                    } )*
                }
            }
        }

        impl fmt::Display for Event {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:>12.2}  {:>4}  ", self.ts_ns as f64 / 1000.0, self.rank)?;
                match self.kind {
                    $( EventKind::$V { $($f),* } => write!(f, $fmt $(, $arg)*), )*
                }
            }
        }

        /// Every row's tag, name and bit layout, for the soundness tests.
        #[cfg(test)]
        pub(crate) const ROWS: &[tests::Row] = &[$( tests::Row {
            tag: $tag,
            name: $name,
            fields: taxonomy!(@layout [$($enc)?] $($f: $ty $(@ $slot $([$lo .. $hi])?)?),*),
        } ),*];

        /// One value of every kind, in tag order: every field non-zero and
        /// inside its bit range (so it survives `encode` → `decode`).
        #[cfg(test)]
        pub(crate) fn sample_kinds() -> Vec<EventKind> {
            let mut n = 0;
            let mut next = || {
                n += 1;
                n
            };
            vec![$( EventKind::$V { $( $f: tests::Sample::sample(next()) ),* } ),*]
        }
    };

    // Test-only: a row's fields as data (an irregular row has no layout).
    (@layout [] $($f:ident: $ty:ident @ $slot:ident $([$lo:literal .. $hi:literal])?),*) => {
        &[$( tests::FieldLayout {
            name: stringify!($f),
            ty: stringify!($ty),
            slot: taxonomy!(@slot $slot),
            bits: taxonomy!(@bits $slot $([$lo .. $hi])?),
        } ),*]
    };
    (@layout [$enc:expr] $($fields:tt)*) => { &[] };
}
use taxonomy;

#[cfg(test)]
mod tests {
    use super::*;

    /// One table row as data: what the soundness tests walk.
    pub(crate) struct Row {
        pub tag: u64,
        pub name: &'static str,
        pub fields: &'static [FieldLayout],
    }

    /// Where one field lives: bits `[bits.0, bits.1)` of payload slot
    /// `slot` (0 = aux1, 1 = aux2, 2 = w2, 3 = w3).
    pub(crate) struct FieldLayout {
        pub name: &'static str,
        pub ty: &'static str,
        pub slot: usize,
        pub bits: (u32, u32),
    }

    /// A non-zero value of a field type, distinct for distinct small `n`.
    pub(crate) trait Sample {
        fn sample(n: u16) -> Self;
    }
    macro_rules! sample_ints {
        ($($t:ident)*) => {$(
            impl Sample for $t {
                fn sample(n: u16) -> $t {
                    n as $t
                }
            }
        )*};
    }
    sample_ints!(u16 u32 u64 i64);
    impl Sample for bool {
        fn sample(_: u16) -> bool {
            true
        }
    }
    impl Sample for FaultKind {
        fn sample(n: u16) -> FaultKind {
            FaultKind::ALL[n as usize % FaultKind::ALL.len()]
        }
    }
    impl<T: Sample> Sample for Option<T> {
        fn sample(n: u16) -> Option<T> {
            Some(T::sample(n))
        }
    }

    /// Bits a value of the named field type can occupy.
    fn type_bits(ty: &str) -> u32 {
        match ty {
            "bool" => 1,
            "u16" | "FaultKind" => 16,
            "u32" => 32,
            "u64" | "i64" => 64,
            other => panic!("no width recorded for field type {other}"),
        }
    }

    #[test]
    fn tags_are_dense_and_names_unique() {
        let tags: Vec<u64> = ROWS.iter().map(|r| r.tag).collect();
        assert_eq!(tags, (1..=45).collect::<Vec<u64>>(), "append-only, no gap");
        let names: std::collections::HashSet<&str> = ROWS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), ROWS.len());
        for (row, kind) in ROWS.iter().zip(sample_kinds()) {
            assert_eq!(row.name, kind.name());
            assert_eq!(kind.at(0).encode()[1] >> 48, row.tag);
        }
    }

    #[test]
    fn fields_fit_their_slots_and_never_overlap() {
        // The two 15-bit fields share a slot with a side bit; the format
        // documents them as narrower than their `u16`.
        let narrow = [("verify_stream_data", "lane"), ("verify_stream_msg", "msg")];
        let mut laid_out = 0;
        for row in ROWS {
            let mut used = [0u64; 4];
            for f in row.fields {
                let (lo, hi) = f.bits;
                let slot_bits = if f.slot < 2 { 16 } else { 64 };
                assert!(
                    lo < hi && hi <= slot_bits,
                    "{}.{}: {lo}..{hi}",
                    row.name,
                    f.name
                );
                let m = mask(f.bits) << lo;
                assert_eq!(used[f.slot] & m, 0, "{}.{} overlaps", row.name, f.name);
                used[f.slot] |= m;
                if narrow.contains(&(row.name, f.name)) {
                    assert_eq!(hi - lo, 15);
                } else {
                    assert!(
                        hi - lo >= type_bits(f.ty),
                        "{}.{}: a {} does not fit {lo}..{hi}",
                        row.name,
                        f.name,
                        f.ty
                    );
                }
            }
            laid_out += !row.fields.is_empty() as usize;
        }
        assert_eq!(laid_out, 44, "every row but verify_blocked is bit ranges");
    }

    #[test]
    fn samples_fill_every_field() {
        for kind in sample_kinds() {
            kind.for_each_field(&mut |name, value| {
                let zero = matches!(value, Arg::Uint(0) | Arg::Int(0) | Arg::Bool(false));
                assert!(!zero, "{}.{name} is zero", kind.name());
            });
        }
    }

    #[test]
    fn encode_decode_roundtrip_every_kind() {
        for (i, kind) in sample_kinds().into_iter().enumerate() {
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
        assert_eq!(Event::decode([5, 46 << 48, 1, 2]), None);
        assert_eq!(Event::decode([5, 0xffff << 48, 1, 2]), None);
    }

    #[test]
    fn fault_kind_codes_roundtrip() {
        assert_eq!(FaultKind::ALL.len(), 11);
        for (i, k) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(k.code() as usize, i + 1, "code order");
            assert_eq!(FaultKind::from_code(k.code()), Some(k));
        }
        let names: std::collections::HashSet<&str> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 11);
        assert_eq!(FaultKind::from_code(0), None);
        assert_eq!(FaultKind::from_code(12), None);
        // A torn fault_injected slot with a bogus fault code must not
        // decode.
        for code in [0u64, 12, 99] {
            let w = [7, (14u64 << 48) | (code << 16), 0, 0];
            assert_eq!(Event::decode(w), None);
        }
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: std::collections::HashSet<&str> =
            sample_kinds().iter().map(|k| k.name()).collect();
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
        let verify = sample_kinds().iter().filter(|k| k.is_verify()).count();
        assert_eq!(verify, 19);
        assert!(!EventKind::Pready { part: 0 }.is_verify());
    }

    #[test]
    fn spans_and_instants_partition_the_taxonomy() {
        let spans = sample_kinds()
            .iter()
            .filter(|k| k.dur_ns().is_some())
            .count();
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
