//! Property sweep over the wire-frame codec: every frame variant —
//! including the partitioned-stream trio (`PartRts`/`PartCts`/
//! `PartData`) — must survive an encode→decode roundtrip bit-exact, and
//! every truncation of a frame's fixed header must be *rejected*, never
//! misparsed. Deliberately not feature-gated: the codec is the process
//! boundary, so it runs in every `cargo test`.

use std::io::Cursor;

use pcomm_net::frame::{self, Frame, MAX_FRAME_BODY, WIRE_VERSION};

/// Deterministic xorshift64* — the sweep is seeded, so a failure
/// reproduces from the printed (seed, variant, round) triple alone.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A u64 biased toward the interesting edges (0, MAX, small).
    fn edgy(&mut self) -> u64 {
        match self.next() % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => self.next() % 1024,
            _ => self.next(),
        }
    }

    fn payload(&mut self) -> Vec<u8> {
        let len = (self.next() % 256) as usize;
        (0..len).map(|_| (self.next() & 0xff) as u8).collect()
    }

    fn ascii(&mut self) -> String {
        let len = (self.next() % 48) as usize;
        (0..len)
            .map(|_| char::from(b' ' + (self.next() % 94) as u8))
            .collect()
    }
}

const N_VARIANTS: usize = 15;

/// One random instance of variant `v` (0..N_VARIANTS).
fn gen_frame(rng: &mut XorShift, v: usize) -> Frame {
    match v {
        0 => Frame::Hello {
            rank: rng.edgy() as u16,
            received: rng.edgy(),
            seq: rng.edgy(),
        },
        1 => Frame::Eager {
            shard: rng.edgy() as u16,
            ctx: rng.edgy(),
            tag: rng.edgy() as i64,
            payload: rng.payload(),
        },
        2 => Frame::Rts {
            shard: rng.edgy() as u16,
            ctx: rng.edgy(),
            tag: rng.edgy() as i64,
            len: rng.edgy(),
            rdv_id: rng.edgy(),
        },
        3 => Frame::BarrierArrive { gen: rng.edgy() },
        4 => Frame::BarrierRelease { gen: rng.edgy() },
        5 => Frame::Abort {
            kind: (rng.next() % 5) as u8,
            a: rng.edgy(),
            b: rng.edgy(),
            tag: rng.edgy() as i64,
            attempts: rng.edgy(),
            detail: rng.ascii(),
        },
        6 => Frame::Bye,
        7 => Frame::WinAnnounce {
            win_ctx: rng.edgy(),
            len: rng.edgy(),
        },
        8 => Frame::Put {
            win_ctx: rng.edgy(),
            offset: rng.edgy(),
            payload: rng.payload(),
        },
        9 => Frame::GetReq {
            win_ctx: rng.edgy(),
            offset: rng.edgy(),
            len: rng.edgy(),
            token: rng.edgy(),
        },
        10 => Frame::GetResp {
            token: rng.edgy(),
            payload: rng.payload(),
        },
        11 => Frame::PartRts {
            ctx: rng.edgy(),
            total_len: rng.edgy(),
            rdv_id: rng.edgy(),
        },
        12 => Frame::PartCts { rdv_id: rng.edgy() },
        13 => Frame::PartData {
            rdv_id: rng.edgy(),
            offset: rng.edgy(),
            payload: rng.payload(),
        },
        14 => Frame::Heartbeat {
            received: rng.edgy(),
        },
        _ => unreachable!("variant index out of range"),
    }
}

/// Bytes of fixed (non-payload) fields after the version+opcode pair.
/// Any body shorter than `2 + fixed` must be rejected by the decoder.
fn fixed_field_bytes(f: &Frame) -> usize {
    match f {
        Frame::Hello { .. } => 2 + 8 + 8,
        Frame::Eager { .. } => 2 + 8 + 8,
        Frame::Rts { .. } => 2 + 8 + 8 + 8 + 8,
        Frame::BarrierArrive { .. } | Frame::BarrierRelease { .. } => 8,
        Frame::Abort { .. } => 1 + 8 + 8 + 8 + 8,
        Frame::Bye => 0,
        Frame::WinAnnounce { .. } => 8 + 8,
        Frame::Put { .. } => 8 + 8,
        Frame::GetReq { .. } => 8 + 8 + 8 + 8,
        Frame::GetResp { .. } => 8,
        Frame::PartRts { .. } => 8 + 8 + 8,
        Frame::PartCts { .. } => 8,
        Frame::PartData { .. } => 8 + 8,
        Frame::Heartbeat { .. } => 8,
    }
}

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const ROUNDS: usize = 64;

#[test]
fn every_variant_roundtrips_bit_exact() {
    let mut rng = XorShift::new(SEED);
    for round in 0..ROUNDS {
        for v in 0..N_VARIANTS {
            let f = gen_frame(&mut rng, v);
            let buf = f.encode();
            let body_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            assert_eq!(
                body_len,
                buf.len() - 4,
                "length prefix covers the body ({} round {round})",
                f.name()
            );
            assert!(body_len <= MAX_FRAME_BODY);
            let back = Frame::decode(&buf[4..])
                .unwrap_or_else(|e| panic!("{} round {round}: decode failed: {e}", f.name()));
            assert_eq!(back, f, "roundtrip ({} round {round})", f.name());

            // The stream path (length prefix + body) must agree.
            let streamed = Frame::read_from(&mut Cursor::new(&buf))
                .unwrap_or_else(|e| panic!("{} round {round}: read_from failed: {e}", f.name()));
            assert_eq!(
                streamed,
                f,
                "read_from roundtrip ({} round {round})",
                f.name()
            );
        }
    }
}

#[test]
fn truncated_fixed_fields_are_rejected_not_misparsed() {
    let mut rng = XorShift::new(SEED ^ 0xdead_beef);
    for round in 0..ROUNDS {
        for v in 0..N_VARIANTS {
            let f = gen_frame(&mut rng, v);
            let body = &f.encode()[4..];
            // Cutting into version or opcode: always rejected.
            for cut in 0..2.min(body.len()) {
                assert!(
                    Frame::decode(&body[..cut]).is_err(),
                    "{} round {round}: {cut}-byte body must not decode",
                    f.name()
                );
            }
            // Cutting anywhere inside the fixed fields: always rejected.
            let fixed_end = 2 + fixed_field_bytes(&f);
            for cut in 2..fixed_end {
                assert!(
                    Frame::decode(&body[..cut]).is_err(),
                    "{} round {round}: truncation at {cut}/{fixed_end} must be rejected",
                    f.name()
                );
            }
        }
    }
}

/// Whether the frame's last field runs to the end of the body.
fn has_rest(f: &Frame) -> bool {
    matches!(
        f,
        Frame::Eager { .. }
            | Frame::Abort { .. }
            | Frame::Put { .. }
            | Frame::GetResp { .. }
            | Frame::PartData { .. }
    )
}

#[test]
fn a_fixed_layout_body_with_a_byte_to_spare_is_rejected() {
    let mut rng = XorShift::new(SEED ^ 0x7a11);
    let mut checked = 0;
    for round in 0..ROUNDS {
        for v in 0..N_VARIANTS {
            let f = gen_frame(&mut rng, v);
            if has_rest(&f) {
                continue;
            }
            checked += 1;
            let mut buf = f.encode();
            buf.push((rng.next() & 0xff) as u8);
            let err = Frame::decode(&buf[4..]).expect_err(&format!(
                "{} round {round}: a trailing byte must not decode",
                f.name()
            ));
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{}", f.name());
            // The same through the stream API, with an honest prefix.
            let body_len = (buf.len() - 4) as u32;
            buf[..4].copy_from_slice(&body_len.to_le_bytes());
            assert!(
                Frame::read_from(&mut Cursor::new(&buf)).is_err(),
                "{} round {round}: a trailing byte must not read",
                f.name()
            );
        }
    }
    assert_eq!(
        checked,
        10 * ROUNDS,
        "every fixed-layout variant, every round"
    );
}

#[test]
fn truncated_streams_and_bad_headers_are_rejected() {
    let mut rng = XorShift::new(SEED ^ 0x5eed);
    for v in 0..N_VARIANTS {
        let f = gen_frame(&mut rng, v);
        let buf = f.encode();

        // A stream that ends mid-frame is an error, not a short frame.
        for cut in [1usize, 3, buf.len() - 1] {
            assert!(
                Frame::read_from(&mut Cursor::new(&buf[..cut])).is_err(),
                "{}: stream cut at {cut} must error",
                f.name()
            );
        }

        // A foreign wire version is rejected before any field parse.
        let mut wrong_ver = buf.clone();
        wrong_ver[4] = WIRE_VERSION + 1;
        assert!(
            Frame::decode(&wrong_ver[4..]).is_err(),
            "{}: wire version {} must be rejected",
            f.name(),
            WIRE_VERSION + 1
        );
    }

    // Unknown opcodes and implausible lengths are rejected too.
    assert!(
        Frame::decode(&[WIRE_VERSION, 250]).is_err(),
        "unknown opcode"
    );
    let huge = ((MAX_FRAME_BODY + 1) as u32).to_le_bytes();
    assert!(
        Frame::read_from(&mut Cursor::new(&huge)).is_err(),
        "over-limit frame length"
    );
    assert!(
        Frame::read_from(&mut Cursor::new(&1u32.to_le_bytes())).is_err(),
        "sub-minimum frame length"
    );
}

#[test]
fn seeded_corruption_sweep_never_panics_and_never_over_allocates() {
    // Decode hardening: random byte flips over every frame variant, and
    // length-prefix lies over the stream API, must come back as a clean
    // typed error (or a different-but-valid frame — a flip can land in a
    // payload byte), never a panic and never an allocation sized by the
    // lie instead of by the bytes that actually arrived.
    let mut rng = XorShift::new(SEED ^ 0xc0de);
    for round in 0..ROUNDS {
        for v in 0..N_VARIANTS {
            let f = gen_frame(&mut rng, v);
            let buf = f.encode();

            // 1) Byte flips in the body.
            let n_flips = 1 + (rng.next() % 3) as usize;
            let mut mutated = buf[4..].to_vec();
            for _ in 0..n_flips {
                let at = (rng.next() as usize) % mutated.len();
                mutated[at] ^= 1 << (rng.next() % 8);
            }
            let outcome = std::panic::catch_unwind(|| Frame::decode(&mutated).map(|_| ()));
            assert!(
                outcome.is_ok(),
                "{} round {round}: decode of flipped body panicked",
                f.name()
            );

            // 2) Length-prefix lies over the stream API: claim more
            // bytes than follow. Must be UnexpectedEof/InvalidData, not
            // a panic, and must not allocate the claimed length before
            // the stream proves it has the bytes.
            let mut lying = buf.clone();
            let claim = match rng.next() % 3 {
                0 => MAX_FRAME_BODY as u32,
                1 => (buf.len() as u32).saturating_mul(1000).max(8),
                _ => (buf.len() - 4 + 1 + (rng.next() % 4096) as usize) as u32,
            };
            lying[..4].copy_from_slice(&claim.to_le_bytes());
            let outcome =
                std::panic::catch_unwind(|| Frame::read_from(&mut Cursor::new(&lying)).map(|_| ()));
            match outcome {
                Ok(res) => assert!(
                    res.is_err(),
                    "{} round {round}: lying prefix ({claim} bytes claimed, {} present) \
                     must not decode",
                    f.name(),
                    lying.len() - 4
                ),
                Err(_) => panic!("{} round {round}: lying prefix panicked", f.name()),
            }

            // 3) Truncated stream with an honest prefix: typed error.
            if buf.len() > 5 {
                let cut = 4 + 1 + (rng.next() as usize) % (buf.len() - 5);
                assert!(
                    Frame::read_from(&mut Cursor::new(&buf[..cut])).is_err(),
                    "{} round {round}: truncated stream must error",
                    f.name()
                );
            }
        }
    }
}

#[test]
fn part_data_fast_header_agrees_with_the_frame_codec() {
    let mut rng = XorShift::new(SEED ^ 0x7a57);
    for round in 0..ROUNDS {
        let rdv_id = rng.edgy();
        let offset = rng.edgy();
        let payload = rng.payload();

        // The writer's zero-copy path: stack header + pinned payload.
        let hdr = frame::part_data_header(rdv_id, offset, payload.len());
        let mut wire = hdr.to_vec();
        wire.extend_from_slice(&payload);

        // The generic codec must read it back as the same PartData.
        let back = Frame::read_from(&mut Cursor::new(&wire)).expect("fast header decodes");
        assert_eq!(
            back,
            Frame::PartData {
                rdv_id,
                offset,
                payload: payload.clone()
            },
            "round {round}: fast-path header disagrees with the codec"
        );

        // And the receiver's zero-copy peek must agree field-for-field.
        let (id2, off2, pay2) = frame::decode_part_data(&wire[4..]).expect("decode_part_data");
        assert_eq!((id2, off2, pay2), (rdv_id, offset, &payload[..]));
    }
}
