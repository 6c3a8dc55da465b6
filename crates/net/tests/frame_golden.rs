//! The wire format, frozen: for one sample of every frame (every field
//! non-zero and distinct, so a swapped field shows) the hex of
//! `encode()`, `name()`, `op()`, `op::name(op)` and the `Debug` of what
//! `decode` gives back, then the error text `decode` and `read_from`
//! give for malformed bodies, compared byte for byte with
//! `frame_golden.txt`. The last block, each sample with one byte too
//! many, was appended once trailing bytes became an error.
//!
//! The text file was recorded from the hand-written codec, before the
//! frames became one table, and re-recorded whole when wire version 3
//! retired opcodes 4, 5 and 18 and gave `Hello` and `Heartbeat` their
//! receive counts, and again when version 4 made `PartCts` a credit per
//! iteration (only the version byte changed). Peers of different builds
//! exchange these bytes, so a difference here is a wire break: never
//! edit a line of the golden file to make this test pass. A new frame
//! or a new rejection appends lines; it changes none.

use std::io::Cursor;

use pcomm_net::frame::{op, Frame, WIRE_VERSION};

const GOLDEN: &str = include_str!("frame_golden.txt");

/// One value per frame, in opcode order.
fn samples() -> Vec<Frame> {
    vec![
        Frame::Hello {
            rank: 3,
            received: 0x1112_1314_1516_1718,
            seq: 0x0102_0304_0506_0708,
        },
        Frame::Eager {
            shard: 7,
            ctx: 0x1111,
            tag: -2,
            payload: vec![0xE1, 0xE2, 0xE3],
        },
        Frame::Rts {
            shard: 9,
            ctx: 0x2222,
            tag: -3,
            len: 1 << 20,
            rdv_id: 41,
        },
        Frame::BarrierArrive { gen: 44 },
        Frame::BarrierRelease { gen: 45 },
        Frame::Abort {
            kind: 2,
            a: 46,
            b: 47,
            tag: -48,
            attempts: 49,
            detail: "index out of bounds".into(),
        },
        Frame::Bye,
        Frame::WinAnnounce {
            win_ctx: 1 << 18,
            len: 4096,
        },
        Frame::Put {
            win_ctx: (1 << 18) + 1,
            offset: 64,
            payload: vec![0xB1, 0xB2, 0xB3, 0xB4],
        },
        Frame::GetReq {
            win_ctx: (1 << 18) + 2,
            offset: 128,
            len: 32,
            token: 50,
        },
        Frame::GetResp {
            token: 51,
            payload: vec![0xC1],
        },
        Frame::PartRts {
            ctx: 1 << 17,
            total_len: 1 << 21,
            rdv_id: 52,
        },
        Frame::PartCts { rdv_id: 53 },
        Frame::PartData {
            rdv_id: 54,
            offset: 1 << 16,
            payload: vec![0xA1, 0xA2, 0xA3, 0xA4, 0xA5],
        },
        Frame::Heartbeat { received: 55 },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn body(words: &[&[u8]]) -> Vec<u8> {
    words.concat()
}

/// Malformed bodies `decode` must refuse, each with its label.
fn bad_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let v = WIRE_VERSION;
    vec![
        ("empty", vec![]),
        ("version only", vec![v]),
        ("bad version", vec![v + 1, op::BYE]),
        ("unknown opcode 0", vec![v, 0]),
        ("retired opcode 4", vec![v, 4]),
        ("retired opcode 5", vec![v, 5]),
        ("retired opcode 18", vec![v, 18]),
        ("unknown opcode 19", vec![v, 19]),
        ("unknown opcode 255", vec![v, 255]),
        ("truncated Hello", vec![v, op::HELLO, 3, 0, 5]),
        (
            "truncated PartCts",
            body(&[&[v, op::PART_CTS], &42u64.to_le_bytes()[..6]]),
        ),
        ("truncated Abort", vec![v, op::ABORT, 2]),
        (
            "truncated PartData",
            body(&[&[v, op::PART_DATA], &54u64.to_le_bytes(), &[1, 2]]),
        ),
    ]
}

/// Bodies that decode although no encoder writes them, each with its label.
fn odd_bodies() -> Vec<(&'static str, Vec<u8>)> {
    let v = WIRE_VERSION;
    vec![
        (
            "Abort with a non-UTF-8 detail",
            body(&[
                &[v, op::ABORT, 1],
                &1u64.to_le_bytes(),
                &2u64.to_le_bytes(),
                &3i64.to_le_bytes(),
                &4u64.to_le_bytes(),
                &[b'o', b'k', 0xFF, b'!'],
            ]),
        ),
        (
            "Eager with an empty payload",
            body(&[
                &[v, op::EAGER],
                &1u16.to_le_bytes(),
                &2u64.to_le_bytes(),
                &(-3i64).to_le_bytes(),
            ]),
        ),
    ]
}

/// Streams `read_from` must refuse, each with its label.
fn bad_streams() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "length 1",
            body(&[&1u32.to_le_bytes(), &[WIRE_VERSION, op::BYE]]),
        ),
        (
            "length past the cap",
            body(&[&((1u32 << 30) + 1).to_le_bytes(), &[WIRE_VERSION, op::BYE]]),
        ),
        (
            "bad version",
            body(&[&2u32.to_le_bytes(), &[WIRE_VERSION + 1, op::BYE]]),
        ),
        ("prefix cut", vec![6, 0]),
        (
            "body cut",
            body(&[&10u32.to_le_bytes(), &[WIRE_VERSION, op::PART_CTS, 1]]),
        ),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for f in samples() {
        let enc = f.encode();
        out.push_str(&format!(
            "{}|{}|{}|{}|{:?}\n",
            hex(&enc),
            f.name(),
            f.op(),
            op::name(f.op()),
            Frame::decode(&enc[4..]),
        ));
    }
    for code in 0..=20u8 {
        out.push_str(&format!("op {code}|{}\n", op::name(code)));
    }
    out.push_str(&format!("op 255|{}\n", op::name(255)));
    for (label, body) in bad_bodies().into_iter().chain(odd_bodies()) {
        let got = match Frame::decode(&body) {
            Ok(f) => format!("ok {f:?}"),
            Err(e) => format!("{:?} {e}", e.kind()),
        };
        out.push_str(&format!("decode {label}|{}|{got}\n", hex(&body)));
    }
    for (label, bytes) in bad_streams() {
        let got = match Frame::read_from(&mut Cursor::new(&bytes)) {
            Ok(f) => format!("ok {f:?}"),
            Err(e) => format!("{:?} {e}", e.kind()),
        };
        out.push_str(&format!("read_from {label}|{}|{got}\n", hex(&bytes)));
    }
    // One byte past each sample's body: a field-less tail is refused, a
    // payload or detail takes the byte in.
    for f in samples() {
        let mut body = f.encode()[4..].to_vec();
        body.push(0xEE);
        let got = match Frame::decode(&body) {
            Ok(f) => format!("ok {f:?}"),
            Err(e) => format!("{:?} {e}", e.kind()),
        };
        out.push_str(&format!(
            "decode {} + 1 byte|{}|{got}\n",
            f.name(),
            hex(&body)
        ));
    }
    out
}

#[test]
fn every_frame_encodes_names_and_decodes_as_recorded() {
    let got = render();
    // Line by line first, so a failure names the sample.
    for (n, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "golden line {}", n + 1);
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn samples_cover_every_opcode() {
    let ops: Vec<u8> = samples().iter().map(Frame::op).collect();
    let assigned = (1..=17).filter(|code| ![4, 5].contains(code));
    assert_eq!(ops, assigned.collect::<Vec<u8>>());
}
