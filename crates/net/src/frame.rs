//! The versioned wire protocol.
//!
//! Every frame on a socket is `u32` little-endian body length followed
//! by the body: one version byte, one opcode byte, then the opcode's
//! fields in little-endian order (variable-length payloads run to the
//! end of the body). The protocol is symmetric — both sides of a
//! connection may send any frame at any time after the opening
//! [`Frame::Hello`].
//!
//! | opcode | frame            | fields                                     |
//! |--------|------------------|--------------------------------------------|
//! | 1      | `Hello`          | rank:u16, lane:u16, seq:u64                |
//! | 2      | `Eager`          | shard:u16, ctx:u64, tag:i64, payload       |
//! | 3      | `Rts`            | shard:u16, ctx:u64, tag:i64, len:u64, rdv_id:u64 |
//! | 4      | `Cts`            | rdv_id:u64                                 |
//! | 5      | `RdvData`        | rdv_id:u64, payload                        |
//! | 6      | `BarrierArrive`  | gen:u64                                    |
//! | 7      | `BarrierRelease` | gen:u64                                    |
//! | 8      | `Abort`          | kind:u8, a:u64, b:u64, tag:i64, attempts:u64, detail |
//! | 9      | `Bye`            | —                                          |
//! | 10     | `WinAnnounce`    | win_ctx:u64, len:u64                       |
//! | 11     | `Put`            | win_ctx:u64, offset:u64, payload           |
//! | 12     | `GetReq`         | win_ctx:u64, offset:u64, len:u64, token:u64 |
//! | 13     | `GetResp`        | token:u64, payload                         |
//! | 14     | `PartRts`        | ctx:u64, total_len:u64, rdv_id:u64         |
//! | 15     | `PartCts`        | rdv_id:u64                                 |
//! | 16     | `PartData`       | rdv_id:u64, offset:u64, payload            |
//! | 17     | `Heartbeat`      | seq:u64                                    |
//! | 18     | `StreamResync`   | rdv_id:u64, received:u64, missing ranges   |
//!
//! Opcodes 14–16 carry the partition-granular streaming protocol: a
//! `PartRts` announces a whole partitioned-send buffer for a given
//! communicator context, the receiver answers `PartCts` once its
//! destination is pinned, and each `PartData` commits one byte range
//! (an aggregated run of ready partitions) at an explicit offset.
//! Because every `PartData` names its own offset, a replayed range
//! lands idempotently.
//!
//! Opcodes 17–18 serve liveness and recovery: `Heartbeat` frames keep
//! the socket audibly alive when `PCOMM_NET_HB_MS` is set, and after a
//! reconnect each receiver reports, per open inbound stream,
//! which byte ranges it is still missing so the sender can replay
//! exactly those (offset-addressed commits are idempotent, so replaying
//! a range that did arrive is harmless).

use std::io::{self, Read, Write};

/// Protocol version carried in every frame body. Version 2 added the
/// `lane` field to `Hello` (always 0 since a pair shares one socket)
/// and the partitioned streaming frames (`PartRts`/`PartCts`/`PartData`).
pub const WIRE_VERSION: u8 = 2;

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

/// Wire opcodes, public so the offline auditor (`pcomm-audit`) can
/// reason about frame kinds without re-deriving the numbering. The
/// values are part of the wire format and must never be renumbered.
pub mod op {
    /// Connection handshake ([`Frame::Hello`](super::Frame::Hello)).
    pub const HELLO: u8 = 1;
    /// Buffered eager message.
    pub const EAGER: u8 = 2;
    /// Rendezvous ready-to-send.
    pub const RTS: u8 = 3;
    /// Rendezvous clear-to-send.
    pub const CTS: u8 = 4;
    /// Rendezvous payload.
    pub const RDV_DATA: u8 = 5;
    /// Barrier arrival (rank → coordinator).
    pub const BARRIER_ARRIVE: u8 = 6;
    /// Barrier release (coordinator → rank).
    pub const BARRIER_RELEASE: u8 = 7;
    /// Peer abort carrying a typed error.
    pub const ABORT: u8 = 8;
    /// Clean shutdown.
    pub const BYE: u8 = 9;
    /// RMA window announcement.
    pub const WIN_ANNOUNCE: u8 = 10;
    /// RMA put.
    pub const PUT: u8 = 11;
    /// RMA get request.
    pub const GET_REQ: u8 = 12;
    /// RMA get response.
    pub const GET_RESP: u8 = 13;
    /// Partitioned-stream ready-to-send.
    pub const PART_RTS: u8 = 14;
    /// Partitioned-stream clear-to-send.
    pub const PART_CTS: u8 = 15;
    /// Partitioned-stream data chunk.
    pub const PART_DATA: u8 = 16;
    /// Liveness heartbeat.
    pub const HEARTBEAT: u8 = 17;
    /// Post-failover stream resynchronisation.
    pub const STREAM_RESYNC: u8 = 18;

    /// Human-readable opcode name for audit findings; `"op<N>"` is
    /// never returned for valid wire traffic.
    pub fn name(op: u8) -> &'static str {
        match op {
            HELLO => "Hello",
            EAGER => "Eager",
            RTS => "Rts",
            CTS => "Cts",
            RDV_DATA => "RdvData",
            BARRIER_ARRIVE => "BarrierArrive",
            BARRIER_RELEASE => "BarrierRelease",
            ABORT => "Abort",
            BYE => "Bye",
            WIN_ANNOUNCE => "WinAnnounce",
            PUT => "Put",
            GET_REQ => "GetReq",
            GET_RESP => "GetResp",
            PART_RTS => "PartRts",
            PART_CTS => "PartCts",
            PART_DATA => "PartData",
            HEARTBEAT => "Heartbeat",
            STREAM_RESYNC => "StreamResync",
            _ => "op?",
        }
    }
}

const OP_HELLO: u8 = op::HELLO;
const OP_EAGER: u8 = op::EAGER;
const OP_RTS: u8 = op::RTS;
const OP_CTS: u8 = op::CTS;
const OP_RDV_DATA: u8 = op::RDV_DATA;
const OP_BARRIER_ARRIVE: u8 = op::BARRIER_ARRIVE;
const OP_BARRIER_RELEASE: u8 = op::BARRIER_RELEASE;
const OP_ABORT: u8 = op::ABORT;
const OP_BYE: u8 = op::BYE;
const OP_WIN_ANNOUNCE: u8 = op::WIN_ANNOUNCE;
const OP_PUT: u8 = op::PUT;
const OP_GET_REQ: u8 = op::GET_REQ;
const OP_GET_RESP: u8 = op::GET_RESP;
const OP_PART_RTS: u8 = op::PART_RTS;
const OP_PART_CTS: u8 = op::PART_CTS;
const OP_PART_DATA: u8 = op::PART_DATA;
const OP_HEARTBEAT: u8 = op::HEARTBEAT;
const OP_STREAM_RESYNC: u8 = op::STREAM_RESYNC;

/// Upper bound on the number of missing ranges one [`Frame::StreamResync`]
/// may carry; a decoded count beyond this is treated as corruption.
pub const MAX_RESYNC_RANGES: usize = 4096;

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: who is connecting, and for
    /// which universe (the per-process multiproc universe sequence
    /// number).
    Hello {
        /// Rank of the connecting process.
        rank: u16,
        /// Always 0: a peer pair has one socket. Checked on receipt.
        lane: u16,
        /// Universe sequence number both sides must agree on.
        seq: u64,
    },
    /// A fully buffered eager message.
    Eager {
        /// Match shard the receiver must deliver into.
        shard: u16,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: i64,
        /// The message bytes.
        payload: Vec<u8>,
    },
    /// Rendezvous ready-to-send: the sender has `len` bytes pinned under
    /// `rdv_id` and waits for a [`Frame::Cts`].
    Rts {
        /// Match shard the receiver must deliver into.
        shard: u16,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: i64,
        /// Payload length in bytes.
        len: u64,
        /// Sender-chosen rendezvous id, echoed by `Cts`/`RdvData`.
        rdv_id: u64,
    },
    /// Rendezvous clear-to-send: the receiver has a matching posted
    /// buffer for `rdv_id`.
    Cts {
        /// The rendezvous id from the RTS.
        rdv_id: u64,
    },
    /// The rendezvous payload, sent after `Cts`.
    RdvData {
        /// The rendezvous id from the RTS.
        rdv_id: u64,
        /// The message bytes.
        payload: Vec<u8>,
    },
    /// A rank reached barrier generation `gen` (sent to the coordinator).
    BarrierArrive {
        /// Barrier generation number.
        gen: u64,
    },
    /// The coordinator releases barrier generation `gen`.
    BarrierRelease {
        /// Barrier generation number.
        gen: u64,
    },
    /// A peer aborted its universe; carries an encoded `PcommError`
    /// (see the `ABORT_*` kinds — the field meaning depends on `kind`).
    Abort {
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
    },
    /// Clean shutdown: no further frames follow from this peer.
    Bye,
    /// A window target announces an exposed region to its origin.
    WinAnnounce {
        /// Window context id (agreed by SPMD allocation order).
        win_ctx: u64,
        /// Window length in bytes.
        len: u64,
    },
    /// One-sided put into a remote window.
    Put {
        /// Window context id.
        win_ctx: u64,
        /// Byte offset into the window.
        offset: u64,
        /// The bytes to store.
        payload: Vec<u8>,
    },
    /// One-sided get request; the target answers with [`Frame::GetResp`].
    GetReq {
        /// Window context id.
        win_ctx: u64,
        /// Byte offset into the window.
        offset: u64,
        /// Bytes requested.
        len: u64,
        /// Origin-chosen token echoed by the response.
        token: u64,
    },
    /// Reply to a [`Frame::GetReq`].
    GetResp {
        /// The token from the request.
        token: u64,
        /// The window bytes read.
        payload: Vec<u8>,
    },
    /// Partitioned-stream ready-to-send: the sender has `total_len`
    /// bytes pinned for the partitioned pair on context `ctx` and will
    /// stream ranges under `rdv_id` once a [`Frame::PartCts`] arrives.
    PartRts {
        /// Partitioned communicator context id (pairs sender/receiver).
        ctx: u64,
        /// Whole-buffer length in bytes.
        total_len: u64,
        /// Sender-chosen stream id, echoed by `PartCts`/`PartData`.
        rdv_id: u64,
    },
    /// Partitioned-stream clear-to-send: the receiver has pinned its
    /// whole destination buffer for `rdv_id`.
    PartCts {
        /// The stream id from the PartRts.
        rdv_id: u64,
    },
    /// One committed byte range of a partitioned stream. Offsets are
    /// explicit, so `PartData` frames are order-independent.
    PartData {
        /// The stream id from the PartRts.
        rdv_id: u64,
        /// Byte offset of this range in the destination buffer.
        offset: u64,
        /// The range bytes.
        payload: Vec<u8>,
    },
    /// Liveness probe. Carries a sender-local sequence number
    /// for diagnostics; receipt of *any* frame counts as life, the
    /// heartbeat just guarantees a bounded silence interval.
    Heartbeat {
        /// Monotonic per-peer heartbeat counter.
        seq: u64,
    },
    /// After a reconnect, the receiver of stream `rdv_id`
    /// reports how much it has committed and which byte ranges are
    /// still missing, so the sender replays exactly those.
    StreamResync {
        /// The stream id from the PartRts.
        rdv_id: u64,
        /// Total bytes committed so far (diagnostics).
        received: u64,
        /// Byte ranges `(offset, len)` not yet committed.
        missing: Vec<(u64, u64)>,
    },
}

fn corrupt(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("net: {}", what.into()))
}

/// Frame body encoder writing into a caller-owned buffer so writers can
/// reuse one scratch allocation across frames.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut Vec<u8>, op: u8) -> Enc<'a> {
        // Reserve the 4-byte length prefix up front; patched in finish().
        buf.clear();
        buf.extend_from_slice(&[0u8; 4]);
        buf.push(WIRE_VERSION);
        buf.push(op);
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn finish(self) {
        let body = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&body.to_le_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(corrupt("truncated frame body"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        // PANIC: `take(2)` either errs or returns exactly 2 bytes.
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        // PANIC: `take(8)` either errs or returns exactly 8 bytes.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> io::Result<i64> {
        // PANIC: `take(8)` either errs or returns exactly 8 bytes.
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest_slice(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn rest(&mut self) -> Vec<u8> {
        self.rest_slice().to_vec()
    }
}

/// Check the version byte of a frame body and return the opcode byte
/// without decoding the fields. Used by readers to route hot frames
/// (`PartData`) to a zero-extra-copy fast path.
pub fn body_opcode(body: &[u8]) -> io::Result<u8> {
    let mut d = Dec { buf: body, at: 0 };
    check_version(d.u8()?)?;
    d.u8()
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

/// Body bytes of an `RdvData` frame before the payload: version, op,
/// rdv id.
pub const RDV_DATA_BODY_HDR: usize = 2 + 8;

/// An `RdvData` frame *header* — length prefix through the rdv id,
/// everything except the payload. A writer follows it with the payload
/// bytes themselves (one vectored write straight from the pinned
/// rendezvous source), producing exactly the bytes
/// `Frame::RdvData { .. }.encode_into(..)` would.
pub fn rdv_data_header(rdv_id: u64, payload_len: usize) -> [u8; 4 + RDV_DATA_BODY_HDR] {
    let mut out = [0u8; 4 + RDV_DATA_BODY_HDR];
    let body = (RDV_DATA_BODY_HDR + payload_len) as u32;
    out[..4].copy_from_slice(&body.to_le_bytes());
    out[4] = WIRE_VERSION;
    out[5] = OP_RDV_DATA;
    out[6..].copy_from_slice(&rdv_id.to_le_bytes());
    out
}

/// Stack-allocated form of [`encode_part_data_header`], for writers
/// that assemble vectored batches without touching the heap.
pub fn part_data_header(
    rdv_id: u64,
    offset: u64,
    payload_len: usize,
) -> [u8; 4 + PART_DATA_BODY_HDR] {
    let mut out = [0u8; 4 + PART_DATA_BODY_HDR];
    let body = (PART_DATA_BODY_HDR + payload_len) as u32;
    out[..4].copy_from_slice(&body.to_le_bytes());
    out[4] = WIRE_VERSION;
    out[5] = OP_PART_DATA;
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
    if op != OP_PART_DATA {
        return Err(corrupt(format!("expected PartData, got opcode {op}")));
    }
    let mut d = Dec { buf: body, at: 2 };
    let rdv_id = d.u64()?;
    let offset = d.u64()?;
    Ok((rdv_id, offset, d.rest_slice()))
}

impl Frame {
    /// Short name of the frame's opcode (diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Eager { .. } => "Eager",
            Frame::Rts { .. } => "Rts",
            Frame::Cts { .. } => "Cts",
            Frame::RdvData { .. } => "RdvData",
            Frame::BarrierArrive { .. } => "BarrierArrive",
            Frame::BarrierRelease { .. } => "BarrierRelease",
            Frame::Abort { .. } => "Abort",
            Frame::Bye => "Bye",
            Frame::WinAnnounce { .. } => "WinAnnounce",
            Frame::Put { .. } => "Put",
            Frame::GetReq { .. } => "GetReq",
            Frame::GetResp { .. } => "GetResp",
            Frame::PartRts { .. } => "PartRts",
            Frame::PartCts { .. } => "PartCts",
            Frame::PartData { .. } => "PartData",
            Frame::Heartbeat { .. } => "Heartbeat",
            Frame::StreamResync { .. } => "StreamResync",
        }
    }

    /// The frame's wire opcode (one of the [`op`] constants).
    pub fn op(&self) -> u8 {
        match self {
            Frame::Hello { .. } => op::HELLO,
            Frame::Eager { .. } => op::EAGER,
            Frame::Rts { .. } => op::RTS,
            Frame::Cts { .. } => op::CTS,
            Frame::RdvData { .. } => op::RDV_DATA,
            Frame::BarrierArrive { .. } => op::BARRIER_ARRIVE,
            Frame::BarrierRelease { .. } => op::BARRIER_RELEASE,
            Frame::Abort { .. } => op::ABORT,
            Frame::Bye => op::BYE,
            Frame::WinAnnounce { .. } => op::WIN_ANNOUNCE,
            Frame::Put { .. } => op::PUT,
            Frame::GetReq { .. } => op::GET_REQ,
            Frame::GetResp { .. } => op::GET_RESP,
            Frame::PartRts { .. } => op::PART_RTS,
            Frame::PartCts { .. } => op::PART_CTS,
            Frame::PartData { .. } => op::PART_DATA,
            Frame::Heartbeat { .. } => op::HEARTBEAT,
            Frame::StreamResync { .. } => op::STREAM_RESYNC,
        }
    }

    /// Encode the frame, including its 4-byte length prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Encode the frame (length prefix + body) into `out`, clearing it
    /// first. Reusing one scratch buffer across calls amortises the
    /// allocation that a fresh [`Frame::encode`] pays per frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { rank, lane, seq } => {
                let mut e = Enc::new(out, OP_HELLO);
                e.u16(*rank);
                e.u16(*lane);
                e.u64(*seq);
                e.finish()
            }
            Frame::Eager {
                shard,
                ctx,
                tag,
                payload,
            } => {
                let mut e = Enc::new(out, OP_EAGER);
                e.u16(*shard);
                e.u64(*ctx);
                e.i64(*tag);
                e.bytes(payload);
                e.finish()
            }
            Frame::Rts {
                shard,
                ctx,
                tag,
                len,
                rdv_id,
            } => {
                let mut e = Enc::new(out, OP_RTS);
                e.u16(*shard);
                e.u64(*ctx);
                e.i64(*tag);
                e.u64(*len);
                e.u64(*rdv_id);
                e.finish()
            }
            Frame::Cts { rdv_id } => {
                let mut e = Enc::new(out, OP_CTS);
                e.u64(*rdv_id);
                e.finish()
            }
            Frame::RdvData { rdv_id, payload } => {
                let mut e = Enc::new(out, OP_RDV_DATA);
                e.u64(*rdv_id);
                e.bytes(payload);
                e.finish()
            }
            Frame::BarrierArrive { gen } => {
                let mut e = Enc::new(out, OP_BARRIER_ARRIVE);
                e.u64(*gen);
                e.finish()
            }
            Frame::BarrierRelease { gen } => {
                let mut e = Enc::new(out, OP_BARRIER_RELEASE);
                e.u64(*gen);
                e.finish()
            }
            Frame::Abort {
                kind,
                a,
                b,
                tag,
                attempts,
                detail,
            } => {
                let mut e = Enc::new(out, OP_ABORT);
                e.u8(*kind);
                e.u64(*a);
                e.u64(*b);
                e.i64(*tag);
                e.u64(*attempts);
                e.bytes(detail.as_bytes());
                e.finish()
            }
            Frame::Bye => Enc::new(out, OP_BYE).finish(),
            Frame::WinAnnounce { win_ctx, len } => {
                let mut e = Enc::new(out, OP_WIN_ANNOUNCE);
                e.u64(*win_ctx);
                e.u64(*len);
                e.finish()
            }
            Frame::Put {
                win_ctx,
                offset,
                payload,
            } => {
                let mut e = Enc::new(out, OP_PUT);
                e.u64(*win_ctx);
                e.u64(*offset);
                e.bytes(payload);
                e.finish()
            }
            Frame::GetReq {
                win_ctx,
                offset,
                len,
                token,
            } => {
                let mut e = Enc::new(out, OP_GET_REQ);
                e.u64(*win_ctx);
                e.u64(*offset);
                e.u64(*len);
                e.u64(*token);
                e.finish()
            }
            Frame::GetResp { token, payload } => {
                let mut e = Enc::new(out, OP_GET_RESP);
                e.u64(*token);
                e.bytes(payload);
                e.finish()
            }
            Frame::PartRts {
                ctx,
                total_len,
                rdv_id,
            } => {
                let mut e = Enc::new(out, OP_PART_RTS);
                e.u64(*ctx);
                e.u64(*total_len);
                e.u64(*rdv_id);
                e.finish()
            }
            Frame::PartCts { rdv_id } => {
                let mut e = Enc::new(out, OP_PART_CTS);
                e.u64(*rdv_id);
                e.finish()
            }
            Frame::PartData {
                rdv_id,
                offset,
                payload,
            } => {
                let mut e = Enc::new(out, OP_PART_DATA);
                e.u64(*rdv_id);
                e.u64(*offset);
                e.bytes(payload);
                e.finish()
            }
            Frame::Heartbeat { seq } => {
                let mut e = Enc::new(out, OP_HEARTBEAT);
                e.u64(*seq);
                e.finish()
            }
            Frame::StreamResync {
                rdv_id,
                received,
                missing,
            } => {
                let mut e = Enc::new(out, OP_STREAM_RESYNC);
                e.u64(*rdv_id);
                e.u64(*received);
                debug_assert!(missing.len() <= MAX_RESYNC_RANGES);
                e.u16(missing.len().min(MAX_RESYNC_RANGES) as u16);
                for &(off, len) in missing.iter().take(MAX_RESYNC_RANGES) {
                    e.u64(off);
                    e.u64(len);
                }
                e.finish()
            }
        }
    }

    /// Decode one frame body (without the length prefix).
    pub fn decode(body: &[u8]) -> io::Result<Frame> {
        let mut d = Dec { buf: body, at: 0 };
        check_version(d.u8()?)?;
        let op = d.u8()?;
        let frame = match op {
            OP_HELLO => Frame::Hello {
                rank: d.u16()?,
                lane: d.u16()?,
                seq: d.u64()?,
            },
            OP_EAGER => Frame::Eager {
                shard: d.u16()?,
                ctx: d.u64()?,
                tag: d.i64()?,
                payload: d.rest(),
            },
            OP_RTS => Frame::Rts {
                shard: d.u16()?,
                ctx: d.u64()?,
                tag: d.i64()?,
                len: d.u64()?,
                rdv_id: d.u64()?,
            },
            OP_CTS => Frame::Cts { rdv_id: d.u64()? },
            OP_RDV_DATA => Frame::RdvData {
                rdv_id: d.u64()?,
                payload: d.rest(),
            },
            OP_BARRIER_ARRIVE => Frame::BarrierArrive { gen: d.u64()? },
            OP_BARRIER_RELEASE => Frame::BarrierRelease { gen: d.u64()? },
            OP_ABORT => Frame::Abort {
                kind: d.u8()?,
                a: d.u64()?,
                b: d.u64()?,
                tag: d.i64()?,
                attempts: d.u64()?,
                detail: String::from_utf8_lossy(&d.rest()).into_owned(),
            },
            OP_BYE => Frame::Bye,
            OP_WIN_ANNOUNCE => Frame::WinAnnounce {
                win_ctx: d.u64()?,
                len: d.u64()?,
            },
            OP_PUT => Frame::Put {
                win_ctx: d.u64()?,
                offset: d.u64()?,
                payload: d.rest(),
            },
            OP_GET_REQ => Frame::GetReq {
                win_ctx: d.u64()?,
                offset: d.u64()?,
                len: d.u64()?,
                token: d.u64()?,
            },
            OP_GET_RESP => Frame::GetResp {
                token: d.u64()?,
                payload: d.rest(),
            },
            OP_PART_RTS => Frame::PartRts {
                ctx: d.u64()?,
                total_len: d.u64()?,
                rdv_id: d.u64()?,
            },
            OP_PART_CTS => Frame::PartCts { rdv_id: d.u64()? },
            OP_PART_DATA => Frame::PartData {
                rdv_id: d.u64()?,
                offset: d.u64()?,
                payload: d.rest(),
            },
            OP_HEARTBEAT => Frame::Heartbeat { seq: d.u64()? },
            OP_STREAM_RESYNC => {
                let rdv_id = d.u64()?;
                let received = d.u64()?;
                let count = d.u16()? as usize;
                if count > MAX_RESYNC_RANGES {
                    return Err(corrupt(format!("implausible resync range count {count}")));
                }
                // Sized by bytes actually present, not the claimed
                // count, so a lying count cannot reserve memory.
                let mut missing = Vec::new();
                for _ in 0..count {
                    missing.push((d.u64()?, d.u64()?));
                }
                Frame::StreamResync {
                    rdv_id,
                    received,
                    missing,
                }
            }
            other => return Err(corrupt(format!("unknown opcode {other}"))),
        };
        Ok(frame)
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

/// Where the next run of a pinned frame's payload belongs: the caller
/// reads it off the stream itself, straight into its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Piece {
    /// [`op::PART_DATA`] or [`op::RDV_DATA`].
    pub op: u8,
    /// Stream or rendezvous id.
    pub id: u64,
    /// Offset of the run: in the stream's destination for `PartData`,
    /// in the rendezvous payload for `RdvData`.
    pub offset: u64,
    /// Payload bytes of the frame not yet read, this run's included.
    pub len: usize,
}

#[derive(Clone, Copy)]
enum Stage {
    /// Collecting the six-byte head.
    Head,
    /// Collecting a pinned frame's fixed fields; `rest` body bytes
    /// follow the head.
    Fixed { op: u8, rest: usize },
    /// `piece.len` payload bytes of a pinned frame still on the wire.
    Payload { piece: Piece },
    /// Collecting a body of `end` bytes (version and opcode included),
    /// `filled` of them so far.
    Body { end: usize, filled: usize },
}

/// An incremental frame reader for a stream that may run dry at any
/// byte: it keeps its place across `WouldBlock` and resumes where it
/// stopped. It reads the head, then either the whole body or — for
/// pinned frames (`PartData`, `RdvData`) when built with `pinned` — the
/// fixed fields, and hands the payload to the caller piece by piece.
/// The length prefix is the peer's word: a body grows in 1 MiB steps as
/// bytes actually arrive, so a lying prefix costs at most one step of
/// memory before the stream runs dry, never an up-front allocation.
pub struct Decoder {
    /// The head, then a pinned frame's fixed fields.
    fixed: [u8; 6 + 16],
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
    /// A decoder at a frame boundary. With `pinned`, `PartData` and
    /// `RdvData` payloads go to the caller's `land` instead of a body.
    pub fn new(pinned: bool) -> Decoder {
        Decoder {
            fixed: [0; 6 + 16],
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
                        Stage::Fixed { op, .. } => 6 + pinned_fixed(op),
                        _ => 6,
                    };
                    while self.have < want {
                        let Some(n) = read_some(r, &mut self.fixed[self.have..want])? else {
                            return Ok(None);
                        };
                        self.have += n;
                    }
                    if let Stage::Fixed { op, rest } = self.stage {
                        let word = |at: usize| {
                            u64::from_le_bytes(std::array::from_fn(|i| self.fixed[6 + at + i]))
                        };
                        let offset = if op == OP_PART_DATA { word(8) } else { 0 };
                        let len = rest - pinned_fixed(op);
                        let piece = Piece {
                            op,
                            id: word(0),
                            offset,
                            len,
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
                    self.stage = if self.pinned && (op == OP_PART_DATA || op == OP_RDV_DATA) {
                        if rest < pinned_fixed(op) {
                            return Err(corrupt(format!(
                                "truncated {} body ({rest} B)",
                                op::name(op)
                            )));
                        }
                        Stage::Fixed { op, rest }
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

/// Fixed fields of a pinned frame's body after version and opcode:
/// `rdv_id` (and a `PartData`'s `offset`).
fn pinned_fixed(op: u8) -> usize {
    if op == OP_PART_DATA {
        16
    } else {
        8
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
            lane: 1,
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
        roundtrip(Frame::Cts { rdv_id: 42 });
        roundtrip(Frame::RdvData {
            rdv_id: 42,
            payload: vec![9; 128],
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
        roundtrip(Frame::Heartbeat { seq: 999 });
        roundtrip(Frame::StreamResync {
            rdv_id: 77,
            received: 1 << 19,
            missing: vec![(0, 4096), (1 << 19, 65536)],
        });
        roundtrip(Frame::StreamResync {
            rdv_id: 1,
            received: 0,
            missing: Vec::new(),
        });
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
        let cts = Frame::Cts { rdv_id: 9 }.encode();
        assert_eq!(body_opcode(&cts[4..]).unwrap(), op::CTS);
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
    fn split_rdv_header_encoding_matches_the_full_frame() {
        let payload = vec![0xA7; 143];
        let full = Frame::RdvData {
            rdv_id: 91,
            payload: payload.clone(),
        }
        .encode();
        let mut split = rdv_data_header(91, payload.len()).to_vec();
        split.extend_from_slice(&payload);
        assert_eq!(split, full);
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
        let body = [WIRE_VERSION, 200];
        assert!(Frame::decode(&body).is_err());
    }

    #[test]
    fn truncated_body_is_rejected() {
        let enc = Frame::Cts { rdv_id: 1 }.encode();
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
        bytes.extend_from_slice(&[WIRE_VERSION, OP_BYE]);
        let mut cursor = std::io::Cursor::new(&bytes);
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn resync_range_count_lies_are_rejected() {
        // Body claims u16::MAX ranges but carries none.
        let mut body = vec![WIRE_VERSION, OP_STREAM_RESYNC];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&(u16::MAX).to_le_bytes());
        let err = Frame::decode(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
