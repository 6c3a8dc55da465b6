//! The versioned wire protocol.
//!
//! Every frame on a socket is `u32` little-endian body length followed
//! by the body: one version byte, one opcode byte, then the opcode's
//! fields in little-endian order. The frames are the rows of the
//! `frames!` table below, in opcode order: the [`op`] constants,
//! [`Frame`], its encoder and its decoder are generated from it, so
//! **adding a frame is adding one row** (`tests/frame_golden.rs` holds
//! the recorded bytes). A `Vec<u8>` or `String` field runs to the end
//! of the body; a body with bytes left over after its fields is refused.
//! The protocol is symmetric — both sides of a connection may send any
//! frame at any time after the opening [`Frame::Hello`].
//!
//! Opcodes 14–16 carry the partition-granular streaming protocol: one
//! `PartRts` per request announces its whole buffer on a communicator
//! context, the receiver sends one `PartCts` credit per iteration, and
//! each `PartData` commits one byte range (an aggregated run of ready
//! partitions) at an explicit offset, so a range a reconnect sends
//! again whole lands idempotently over the prefix that arrived.
//!
//! Opcode 17, `Heartbeat`, keeps every socket audibly alive on a fixed
//! interval and carries the cumulative count of frames its sender has
//! read whole from the peer: the socket carrier's ack. Opcodes 4, 5 and
//! 18 are retired and stay unassigned.

use std::io::{self, Read, Write};

/// Protocol version carried in every frame body. Version 3 gave `Hello`
/// and `Heartbeat` receive counts and retired opcodes 4, 5 and 18;
/// version 4 made `PartCts` one credit per iteration.
pub const WIRE_VERSION: u8 = 4;

/// Upper bound on a frame body; larger lengths are treated as stream
/// corruption rather than an allocation request.
pub const MAX_FRAME_BODY: usize = 1 << 30;

/// [`Frame::Abort`] kind: a message was dropped on every retry
/// (`a` = src rank, `b` = dst rank, plus `tag` and `attempts`).
pub const ABORT_MESSAGE_LOST: u8 = 1;
/// [`Frame::Abort`] kind: a rank panicked (`a` = rank, `detail` = message).
pub const ABORT_PEER_PANICKED: u8 = 2;
/// [`Frame::Abort`] kind: API misuse attributed to a rank (`a` = rank).
pub const ABORT_MISUSE_RANK: u8 = 3;
/// [`Frame::Abort`] kind: API misuse with no attributable rank.
pub const ABORT_MISUSE: u8 = 4;

// One row per frame, in opcode order: `Variant = <opcode> <CONST>
// "<opcode doc>"`, then its fields in wire order. The values are part of
// the wire format and must never be renumbered. The macro that turns the
// rows into code is below the table, so it is invoked by path.
self::frames! {
    /// First frame on every connection: who is connecting, for which
    /// universe (the per-process multiproc universe sequence number),
    /// and how many of the peer's frames it has read whole.
    Hello = 1 HELLO "Connection handshake ([`Frame::Hello`](super::Frame::Hello))." {
        /// Rank of the connecting process.
        rank: u16,
        /// Frames read whole from the peer over the pair's lifetime: 0
        /// on a first connection, where a reconnect resumes.
        received: u64,
        /// Universe sequence number both sides must agree on.
        seq: u64,
    };
    /// A fully buffered eager message.
    Eager = 2 EAGER "Buffered eager message." {
        /// Match shard the receiver must deliver into.
        shard: u16,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: i64,
        /// The message bytes.
        payload: Vec<u8>,
    };
    /// Rendezvous ready-to-send: the sender has `len` bytes pinned as a
    /// one-message stream under `rdv_id`; the receiver matches the
    /// envelope and answers the stream's [`Frame::PartCts`].
    Rts = 3 RTS "Rendezvous ready-to-send." {
        /// Match shard the receiver must deliver into.
        shard: u16,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: i64,
        /// Payload length in bytes; never 0 (an empty message is eager).
        len: u64,
        /// Sender-chosen stream id, echoed by `PartCts`/`PartData`.
        rdv_id: u64,
    };
    /// A rank reached barrier generation `gen` (sent to the coordinator).
    BarrierArrive = 6 BARRIER_ARRIVE "Barrier arrival (rank → coordinator)." {
        /// Barrier generation number.
        gen: u64,
    };
    /// The coordinator releases barrier generation `gen`.
    BarrierRelease = 7 BARRIER_RELEASE "Barrier release (coordinator → rank)." {
        /// Barrier generation number.
        gen: u64,
    };
    /// A peer aborted its universe; carries an encoded `PcommError`
    /// (see the `ABORT_*` kinds — the field meaning depends on `kind`).
    Abort = 8 ABORT "Peer abort carrying a typed error." {
        /// One of the `ABORT_*` constants.
        kind: u8,
        /// First numeric field (e.g. source or panicking rank).
        a: u64,
        /// Second numeric field (e.g. destination rank).
        b: u64,
        /// Message tag, where applicable.
        tag: i64,
        /// Delivery attempts, where applicable.
        attempts: u64,
        /// Human-readable detail (panic message, misuse description).
        detail: String,
    };
    /// Clean shutdown: no further frames follow from this peer.
    Bye = 9 BYE "Clean shutdown.";
    /// A window target announces an exposed region to its origin.
    WinAnnounce = 10 WIN_ANNOUNCE "RMA window announcement." {
        /// Window context id (agreed by SPMD allocation order).
        win_ctx: u64,
        /// Window length in bytes.
        len: u64,
    };
    /// One-sided put into a remote window.
    Put = 11 PUT "RMA put." {
        /// Window context id.
        win_ctx: u64,
        /// Byte offset into the window.
        offset: u64,
        /// The bytes to store.
        payload: Vec<u8>,
    };
    /// One-sided get request; the target answers with [`Frame::GetResp`].
    GetReq = 12 GET_REQ "RMA get request." {
        /// Window context id.
        win_ctx: u64,
        /// Byte offset into the window.
        offset: u64,
        /// Bytes requested.
        len: u64,
        /// Origin-chosen token echoed by the response.
        token: u64,
    };
    /// Reply to a [`Frame::GetReq`].
    GetResp = 13 GET_RESP "RMA get response." {
        /// The token from the request.
        token: u64,
        /// The window bytes read.
        payload: Vec<u8>,
    };
    /// Partitioned-stream ready-to-send, once per request: `total_len`
    /// bytes pinned for the pair on context `ctx`, streamed under
    /// `rdv_id` as each iteration's [`Frame::PartCts`] arrives.
    PartRts = 14 PART_RTS "Partitioned-stream ready-to-send." {
        /// Partitioned communicator context id (pairs sender/receiver).
        ctx: u64,
        /// Whole-buffer length in bytes.
        total_len: u64,
        /// Sender-chosen stream id, echoed by `PartCts`/`PartData`.
        rdv_id: u64,
    };
    /// Partitioned-stream clear-to-send: one credit per iteration (the
    /// `k`-th clears iteration `k` of stream `rdv_id`).
    PartCts = 15 PART_CTS "Partitioned-stream clear-to-send." {
        /// The stream id from the PartRts.
        rdv_id: u64,
    };
    /// One committed byte range of a partitioned stream. Offsets are
    /// explicit, so `PartData` frames are order-independent.
    PartData = 16 PART_DATA "Partitioned-stream data chunk." {
        /// The stream id from the PartRts.
        rdv_id: u64,
        /// Byte offset of this range in the destination buffer.
        offset: u64,
        /// The range bytes.
        payload: Vec<u8>,
    };
    /// Liveness probe and ack. Receipt of *any* frame counts as life,
    /// the heartbeat just guarantees a bounded silence interval.
    Heartbeat = 17 HEARTBEAT "Liveness heartbeat." {
        /// Frames read whole from the peer over the pair's lifetime.
        received: u64,
    };
}

/// Declares the wire format from the table above: the [`op`] module,
/// [`Frame`], [`Frame::op`], [`Frame::encode_into`] and
/// [`Frame::decode`]. A row without braces is a field-less frame.
macro_rules! frames {
    ($(
        $(#[$vmeta:meta])*
        $V:ident = $op:literal $CONST:ident $opdoc:literal
            $({ $( $(#[$fmeta:meta])* $f:ident: $ty:ty ),* $(,)? })?;
    )*) => {
        /// Wire opcodes, public so the offline auditor (`pcomm-audit`) can
        /// reason about frame kinds without re-deriving the numbering. The
        /// values are part of the wire format and must never be renumbered.
        pub mod op {
            $( #[doc = $opdoc] pub const $CONST: u8 = $op; )*

            /// Human-readable opcode name for audit findings; `"op?"` for
            /// a byte that is no opcode.
            pub fn name(op: u8) -> &'static str {
                match op {
                    $( $CONST => stringify!($V), )*
                    _ => "op?",
                }
            }
        }

        /// One decoded wire frame.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Frame {
            $( $(#[$vmeta])* $V $({ $( $(#[$fmeta])* $f: $ty ),* })?, )*
        }

        impl Frame {
            /// The frame's wire opcode (one of the [`op`] constants).
            pub fn op(&self) -> u8 {
                match self {
                    $( Frame::$V { .. } => op::$CONST, )*
                }
            }

            /// Encode the frame (length prefix + body) into `out`, clearing it
            /// first. Reusing one scratch buffer across calls amortises the
            /// allocation that a fresh [`Frame::encode`] pays per frame.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                out.clear();
                // The length prefix is patched in once the body is written.
                out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, self.op()]);
                match self {
                    $( Frame::$V { $($($f),*)? } => { $($( $f.put(out); )*)? } )*
                }
                let body = (out.len() - 4) as u32;
                out[..4].copy_from_slice(&body.to_le_bytes());
            }

            /// Decode one frame body (without the length prefix). A body
            /// that ends before its frame's fields do, or runs past them,
            /// is refused.
            pub fn decode(body: &[u8]) -> io::Result<Frame> {
                let mut d = Dec(body);
                check_version(u8::take(&mut d)?)?;
                let frame = match u8::take(&mut d)? {
                    $( op::$CONST => Frame::$V { $($( $f: <$ty>::take(&mut d)?, )*)? }, )*
                    other => return Err(corrupt(format!("unknown opcode {other}"))),
                };
                match d.0.len() {
                    0 => Ok(frame),
                    extra => Err(trailing(extra, frame)),
                }
            }
        }
    };
}
use frames;

#[cold]
fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("net: {}", what.into()))
}

/// The error for a body with `extra` bytes past `frame`'s fields (out of
/// line, so the decoder's hot path does not carry the frame's drop).
#[cold]
#[inline(never)]
fn trailing(extra: usize, frame: Frame) -> io::Error {
    corrupt(format!(
        "{extra} trailing byte(s) after a {} body",
        frame.name()
    ))
}

/// What is left of a frame body being read, field by field.
struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let next = self.0.split_first_chunk::<N>();
        let (bytes, rest) = next.ok_or_else(|| corrupt("truncated frame body"))?;
        self.0 = rest;
        Ok(*bytes)
    }

    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }
}

/// How one field type goes onto the wire and comes off it.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(d: &mut Dec<'_>) -> io::Result<Self>;
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        /// Little-endian, fixed width.
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(d: &mut Dec<'_>) -> io::Result<Self> {
                d.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
int_fields!(u8, u16, u64, i64);

/// The rest of the body, as it came.
impl Field for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    fn take(d: &mut Dec<'_>) -> io::Result<Self> {
        Ok(d.rest().to_vec())
    }
}

/// The rest of the body as text, lossily: a peer's bytes need not be UTF-8.
impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn take(d: &mut Dec<'_>) -> io::Result<Self> {
        Ok(String::from_utf8_lossy(d.rest()).into_owned())
    }
}

/// Check the version byte of a frame body and return the opcode byte
/// without decoding the fields.
pub fn body_opcode(body: &[u8]) -> io::Result<u8> {
    let mut d = Dec(body);
    check_version(u8::take(&mut d)?)?;
    u8::take(&mut d)
}

/// The body of an encoded frame: what follows its length prefix. A
/// frame *header* (`part_data_header`) gives the body's head.
pub fn body_of(encoded: &[u8]) -> &[u8] {
    &encoded[4..]
}

/// Validate a version byte read off the wire, before anything else of
/// the frame is believed.
fn check_version(version: u8) -> io::Result<()> {
    if version != WIRE_VERSION {
        return Err(corrupt(format!(
            "wire version mismatch: got {version}, expected {WIRE_VERSION}"
        )));
    }
    Ok(())
}

/// `PartData` body bytes before the payload: version, opcode, `rdv_id`,
/// `offset`.
pub const PART_DATA_BODY_HDR: usize = 2 + 16;

/// Encode a `PartData` frame *header* — length prefix through `offset`,
/// everything except the payload — into `out`. A writer follows it with
/// the payload bytes themselves (one vectored write straight from the
/// pinned source buffer), producing exactly the bytes
/// `Frame::PartData { .. }.encode_into(..)` would.
pub fn encode_part_data_header(rdv_id: u64, offset: u64, payload_len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&part_data_header(rdv_id, offset, payload_len));
}

/// A `PartData` frame header: length prefix through `offset`.
pub type PartDataHead = [u8; 4 + PART_DATA_BODY_HDR];

/// Stack-allocated form of [`encode_part_data_header`], for writers
/// that assemble vectored batches without touching the heap.
pub fn part_data_header(rdv_id: u64, offset: u64, payload_len: usize) -> PartDataHead {
    let mut out = PartDataHead::default();
    let body = (PART_DATA_BODY_HDR + payload_len) as u32;
    out[..4].copy_from_slice(&body.to_le_bytes());
    out[4] = WIRE_VERSION;
    out[5] = op::PART_DATA;
    out[6..14].copy_from_slice(&rdv_id.to_le_bytes());
    out[14..22].copy_from_slice(&offset.to_le_bytes());
    out
}

/// Decode a `PartData` body in place: returns `(rdv_id, offset,
/// payload)` with the payload borrowed from `body`, so a reader can
/// commit the range straight out of its receive buffer without the
/// intermediate `Vec` a full [`Frame::decode`] would allocate.
pub fn decode_part_data(body: &[u8]) -> io::Result<(u64, u64, &[u8])> {
    let op = body_opcode(body)?;
    if op != op::PART_DATA {
        return Err(corrupt(format!("expected PartData, got opcode {op}")));
    }
    let mut d = Dec(&body[2..]);
    let rdv_id = u64::take(&mut d)?;
    let offset = u64::take(&mut d)?;
    Ok((rdv_id, offset, d.rest()))
}

impl Frame {
    /// Short name of the frame's opcode (diagnostics).
    pub fn name(&self) -> &'static str {
        op::name(self.op())
    }

    /// Encode the frame, including its 4-byte length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Write the frame to a stream (length prefix + body).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Read one frame from a blocking stream. `Err(UnexpectedEof)` with
    /// an empty prefix means the peer closed the connection cleanly at a
    /// frame boundary; a stream that runs dry (a read timeout) reports
    /// `WouldBlock`.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut dec = Decoder::new(false);
        loop {
            match dec.next(r, |_, _| unreachable!("nothing is pinned"))? {
                Some(Event::Frame(f)) => return Ok(f),
                Some(Event::Head(_)) => {}
                None => return Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }
}

/// Allocation step for frame bodies read off the wire.
const BODY_ALLOC_STEP: usize = 1 << 20;

/// What a [`Decoder`] surfaced.
#[derive(Debug, PartialEq, Eq)]
pub enum Event {
    /// A frame head whose length and version checked out, with its
    /// opcode. Every frame surfaces its head first.
    Head(u8),
    /// A whole frame (everything but a pinned frame's payload).
    Frame(Frame),
}

/// Where the next run of a `PartData` payload belongs: the caller reads
/// it off the stream itself, straight into its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// Stream id.
    pub id: u64,
    /// Offset of the run in the stream's destination.
    pub offset: u64,
    /// Payload bytes of the frame not yet read, this run's included.
    pub len: usize,
}

/// A `PartData` body's fixed fields after version and opcode: `rdv_id`
/// and `offset`.
const PART_DATA_FIXED: usize = PART_DATA_BODY_HDR - 2;

#[derive(Clone, Copy)]
enum Stage {
    /// Collecting the six-byte head.
    Head,
    /// Collecting a `PartData`'s fixed fields; `rest` body bytes follow
    /// the head.
    Fixed { rest: usize },
    /// `piece.len` payload bytes of a `PartData` still on the wire.
    Payload { piece: Piece },
    /// Collecting a body of `end` bytes (version and opcode included),
    /// `filled` of them so far.
    Body { end: usize, filled: usize },
}

/// An incremental frame reader for a stream that may run dry at any
/// byte: it keeps its place across `WouldBlock` and resumes where it
/// stopped. It reads the head, then either the whole body or — for a
/// `PartData` when built with `pinned` — the fixed fields, and hands
/// the payload to the caller piece by piece.
/// The length prefix is the peer's word: a body grows in 1 MiB steps as
/// bytes actually arrive, so a lying prefix costs at most one step of
/// memory before the stream runs dry, never an up-front allocation.
pub struct Decoder {
    /// The head, then a `PartData`'s fixed fields.
    fixed: PartDataHead,
    have: usize,
    stage: Stage,
    /// Control-frame body, reused across frames.
    body: Vec<u8>,
    pinned: bool,
}

/// One `read` that reports a dry stream as `None` and EOF as an error.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        return match r.read(buf) {
            Ok(0) if !buf.is_empty() => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => Ok(Some(n)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(e),
        };
    }
}

impl Decoder {
    /// A decoder at a frame boundary. With `pinned`, `PartData` payloads
    /// go to the caller's `land` instead of a body.
    pub fn new(pinned: bool) -> Decoder {
        Decoder {
            fixed: PartDataHead::default(),
            have: 0,
            stage: Stage::Head,
            body: Vec::new(),
            pinned,
        }
    }

    /// Capacity of the reusable body buffer (what a lying length prefix
    /// managed to allocate).
    pub fn body_capacity(&self) -> usize {
        self.body.capacity()
    }

    /// Whether the last [`Event::Head`] surfaced belongs to a frame not
    /// yet read whole.
    pub fn mid_frame(&self) -> bool {
        !matches!(self.stage, Stage::Head)
    }

    /// Read what `r` has toward the next [`Event`]; `Ok(None)` once `r`
    /// runs dry (`WouldBlock`), with the place kept. A pinned payload
    /// goes through `land(piece, r)`, which reads at most `piece.len`
    /// bytes off `r` to wherever they belong and returns how many, with
    /// `Read`'s conventions (0 for a non-empty piece is EOF).
    pub fn next<R: Read>(
        &mut self,
        r: &mut R,
        mut land: impl FnMut(Piece, &mut R) -> io::Result<usize>,
    ) -> io::Result<Option<Event>> {
        loop {
            match self.stage {
                Stage::Head | Stage::Fixed { .. } => {
                    let want = match self.stage {
                        Stage::Fixed { .. } => self.fixed.len(),
                        _ => 6,
                    };
                    while self.have < want {
                        let Some(n) = read_some(r, &mut self.fixed[self.have..want])? else {
                            return Ok(None);
                        };
                        self.have += n;
                    }
                    if let Stage::Fixed { rest } = self.stage {
                        let word = |at: usize| {
                            u64::from_le_bytes(std::array::from_fn(|i| self.fixed[6 + at + i]))
                        };
                        let piece = Piece {
                            id: word(0),
                            offset: word(8),
                            len: rest - PART_DATA_FIXED,
                        };
                        self.stage = Stage::Payload { piece };
                        continue;
                    }
                    let len = u32::from_le_bytes(std::array::from_fn(|i| self.fixed[i])) as usize;
                    if !(2..=MAX_FRAME_BODY).contains(&len) {
                        return Err(corrupt(format!("implausible frame length {len}")));
                    }
                    check_version(self.fixed[4])?;
                    let (op, rest) = (self.fixed[5], len - 2);
                    self.stage = if self.pinned && op == op::PART_DATA {
                        if rest < PART_DATA_FIXED {
                            return Err(corrupt(format!("truncated PartData body ({rest} B)")));
                        }
                        Stage::Fixed { rest }
                    } else {
                        self.body.clear();
                        self.body.extend_from_slice(&[WIRE_VERSION, op]);
                        Stage::Body {
                            end: len,
                            filled: 2,
                        }
                    };
                    return Ok(Some(Event::Head(op)));
                }
                Stage::Payload { mut piece } => {
                    let n = loop {
                        match land(piece, r) {
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Ok(0) if piece.len > 0 => {
                                return Err(io::ErrorKind::UnexpectedEof.into())
                            }
                            other => break other?.min(piece.len),
                        }
                    };
                    (piece.offset, piece.len) = (piece.offset + n as u64, piece.len - n);
                    self.stage = if piece.len == 0 {
                        self.have = 0;
                        Stage::Head
                    } else {
                        Stage::Payload { piece }
                    };
                }
                Stage::Body { end, mut filled } => {
                    while filled < end {
                        if filled == self.body.len() {
                            self.body
                                .resize(filled + (end - filled).min(BODY_ALLOC_STEP), 0);
                        }
                        let got = read_some(r, &mut self.body[filled..]);
                        let Some(n) = got? else {
                            self.stage = Stage::Body { end, filled };
                            return Ok(None);
                        };
                        filled += n;
                    }
                    (self.stage, self.have) = (Stage::Head, 0);
                    return Frame::decode(&self.body).map(|f| Some(Event::Frame(f)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let enc = f.encode();
        let body_len = u32::from_le_bytes(enc[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, enc.len() - 4, "length prefix covers the body");
        let dec = Frame::decode(&enc[4..]).unwrap();
        assert_eq!(dec, f);
        // And through the stream API.
        let mut cursor = std::io::Cursor::new(&enc);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), f);
        // encode_into with a dirty scratch buffer agrees with encode.
        let mut scratch = vec![0xAAu8; 7];
        f.encode_into(&mut scratch);
        assert_eq!(scratch, enc, "scratch reuse matches fresh encode");
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            rank: 3,
            received: 1 << 40,
            seq: 7,
        });
        roundtrip(Frame::Eager {
            shard: 2,
            ctx: 99,
            tag: -11,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::Rts {
            shard: 0,
            ctx: 1,
            tag: 5,
            len: 1 << 20,
            rdv_id: 42,
        });
        roundtrip(Frame::BarrierArrive { gen: 8 });
        roundtrip(Frame::BarrierRelease { gen: 8 });
        roundtrip(Frame::Abort {
            kind: ABORT_MESSAGE_LOST,
            a: 0,
            b: 1,
            tag: 5,
            attempts: 3,
            detail: String::new(),
        });
        roundtrip(Frame::Abort {
            kind: ABORT_PEER_PANICKED,
            a: 1,
            b: 0,
            tag: 0,
            attempts: 0,
            detail: "index out of bounds".into(),
        });
        roundtrip(Frame::Bye);
        roundtrip(Frame::WinAnnounce {
            win_ctx: 1 << 18,
            len: 4096,
        });
        roundtrip(Frame::Put {
            win_ctx: 1 << 18,
            offset: 64,
            payload: vec![7; 64],
        });
        roundtrip(Frame::GetReq {
            win_ctx: 1 << 18,
            offset: 0,
            len: 64,
            token: 5,
        });
        roundtrip(Frame::GetResp {
            token: 5,
            payload: vec![1; 64],
        });
        roundtrip(Frame::PartRts {
            ctx: 1 << 17,
            total_len: 1 << 20,
            rdv_id: 77,
        });
        roundtrip(Frame::PartCts { rdv_id: 77 });
        roundtrip(Frame::PartData {
            rdv_id: 77,
            offset: 1 << 16,
            payload: vec![5; 256],
        });
        roundtrip(Frame::Heartbeat { received: 999 });
    }

    #[test]
    fn empty_payload_roundtrips() {
        roundtrip(Frame::Eager {
            shard: 0,
            ctx: 0,
            tag: -1,
            payload: Vec::new(),
        });
        roundtrip(Frame::PartData {
            rdv_id: 1,
            offset: 0,
            payload: Vec::new(),
        });
    }

    #[test]
    fn part_data_fast_path_matches_decode() {
        let f = Frame::PartData {
            rdv_id: 9,
            offset: 4096,
            payload: vec![0xCD; 33],
        };
        let enc = f.encode();
        let body = &enc[4..];
        assert_eq!(body_opcode(body).unwrap(), op::PART_DATA);
        let (rdv_id, offset, payload) = decode_part_data(body).unwrap();
        assert_eq!((rdv_id, offset), (9, 4096));
        assert_eq!(payload, &[0xCD; 33][..]);
        // Non-PartData bodies are refused by the fast path.
        let cts = Frame::PartCts { rdv_id: 9 }.encode();
        assert_eq!(body_opcode(&cts[4..]).unwrap(), op::PART_CTS);
        assert!(decode_part_data(&cts[4..]).is_err());
    }

    #[test]
    fn split_header_encoding_matches_the_full_frame() {
        let payload = vec![0x5A; 57];
        let full = Frame::PartData {
            rdv_id: 77,
            offset: 1 << 20,
            payload: payload.clone(),
        }
        .encode();
        let mut split = Vec::new();
        encode_part_data_header(77, 1 << 20, payload.len(), &mut split);
        assert_eq!(split.len(), 4 + PART_DATA_BODY_HDR);
        split.extend_from_slice(&payload);
        assert_eq!(split, full);
        check_version(split[4]).unwrap();
        assert!(check_version(WIRE_VERSION + 1).is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut enc = Frame::Bye.encode();
        enc[4] = WIRE_VERSION + 1;
        assert!(Frame::decode(&enc[4..]).is_err());
        assert!(body_opcode(&enc[4..]).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        // The retired opcodes stay unassigned.
        for op in [4, 5, 18, 200] {
            assert!(Frame::decode(&[WIRE_VERSION, op]).is_err(), "opcode {op}");
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        let enc = Frame::PartCts { rdv_id: 1 }.encode();
        assert!(Frame::decode(&enc[4..enc.len() - 2]).is_err());
        let part = Frame::PartData {
            rdv_id: 1,
            offset: 8,
            payload: Vec::new(),
        }
        .encode();
        // PartData's fixed header is 16 bytes after version+opcode;
        // anything shorter is rejected by both decode paths.
        assert!(Frame::decode(&part[4..part.len() - 2]).is_err());
        assert!(decode_part_data(&part[4..part.len() - 2]).is_err());
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(&bytes);
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn lying_length_prefix_fails_without_oversized_allocation() {
        // A prefix claiming MAX_FRAME_BODY over a nearly-empty stream
        // must fail with a typed error after at most one alloc step,
        // not allocate a gigabyte up front.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_BODY as u32).to_le_bytes());
        bytes.extend_from_slice(&[WIRE_VERSION, op::BYE]);
        let mut cursor = std::io::Cursor::new(&bytes);
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
