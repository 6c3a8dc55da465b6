//! Golden fixtures for the cross-process auditor: hand-built two-rank
//! `.events` streams with one planted violation each must produce
//! exactly that finding, with provenance pointing at the planted event;
//! the clean fixtures (streaming, failover replay, reconnect epochs)
//! must audit with zero findings.

use pcomm_net::frame::op;
use pcomm_trace::{Event, EventKind, RankEvents};
use pcomm_verify::{audit, AuditKind};

fn ev(ts_ns: u64, rank: u16, kind: EventKind) -> Event {
    Event { ts_ns, rank, kind }
}

fn ring(rank: u16, events: Vec<Event>) -> RankEvents {
    RankEvents {
        rank,
        dropped: 0,
        events,
    }
}

/// Wire frame pair helper: the k-th frame src sent on a lane epoch and
/// its arrival at dst, 5 ns later.
fn frame(ts: u64, src: u16, dst: u16, lane: u16, epoch: u32, seq: u32, fop: u8) -> (Event, Event) {
    let send = ev(
        ts,
        src,
        EventKind::VerifyWireSend {
            peer: dst,
            lane,
            op: fop as u16,
            epoch,
            seq,
        },
    );
    let recv = ev(
        ts + 5,
        dst,
        EventKind::VerifyWireRecv {
            peer: src,
            lane,
            op: fop as u16,
            epoch,
            seq,
        },
    );
    (send, recv)
}

/// A complete clean streaming run, rank 0 -> rank 1: RTS/CTS on lane 0,
/// payload (with one failover replay the ledger absorbs) on lane 1,
/// barrier, goodbye — plus the partitioned-request verify events whose
/// happens-before chain is intact. Returns the two rings.
fn clean_run() -> Vec<RankEvents> {
    let mut r0: Vec<Event> = Vec::new();
    let mut r1: Vec<Event> = Vec::new();

    // Partitioned request: rank 0 interned it as req 0, rank 1 as req 3.
    r0.push(ev(
        10,
        0,
        EventKind::VerifyPartInit {
            req: 0,
            sender: true,
            parts: 1,
            msgs: 1,
        },
    ));
    r0.push(ev(
        11,
        0,
        EventKind::VerifyLayoutMsg {
            req: 0,
            msg: 0,
            first_spart: 0,
            n_sparts: 1,
            first_rpart: 0,
            n_rparts: 1,
            bytes: 8192,
        },
    ));
    r1.push(ev(
        10,
        1,
        EventKind::VerifyPartInit {
            req: 3,
            sender: false,
            parts: 1,
            msgs: 1,
        },
    ));
    r1.push(ev(
        11,
        1,
        EventKind::VerifyLayoutMsg {
            req: 3,
            msg: 0,
            first_spart: 0,
            n_sparts: 1,
            first_rpart: 0,
            n_rparts: 1,
            bytes: 8192,
        },
    ));

    // Sender app thread (tid 100): start, write, pready, inject.
    r0.push(ev(
        20,
        0,
        EventKind::VerifyStart {
            req: 0,
            sender: true,
            iter: 0,
            tid: 100,
        },
    ));
    r0.push(ev(
        30,
        0,
        EventKind::VerifyWrite {
            req: 0,
            part: 0,
            iter: 0,
            tid: 100,
            dur_ns: 5,
        },
    ));
    r0.push(ev(
        40,
        0,
        EventKind::VerifyPready {
            req: 0,
            part: 0,
            iter: 0,
            tid: 100,
        },
    ));

    // Stream negotiation: sender pins 8192 bytes as stream 7.
    r0.push(ev(
        50,
        0,
        EventKind::VerifyStreamRts {
            peer: 1,
            tx: true,
            stream: 7,
            total_len: 8192,
        },
    ));
    r0.push(ev(
        51,
        0,
        EventKind::VerifyStreamMsg {
            stream: 7,
            req: 0,
            msg: 0,
            tx: true,
            offset: 0,
            len: 8192,
        },
    ));
    r0.push(ev(
        52,
        0,
        EventKind::VerifyMsgSend {
            req: 0,
            msg: 0,
            iter: 0,
            tid: 100,
        },
    ));
    let (s, r) = frame(60, 0, 1, 0, 0, 0, op::PART_RTS);
    r0.push(s);
    r1.push(r);
    r1.push(ev(
        70,
        1,
        EventKind::VerifyStreamRts {
            peer: 0,
            tx: false,
            stream: 7,
            total_len: 8192,
        },
    ));
    r1.push(ev(
        71,
        1,
        EventKind::VerifyStreamMsg {
            stream: 7,
            req: 3,
            msg: 0,
            tx: false,
            offset: 0,
            len: 8192,
        },
    ));
    r1.push(ev(
        72,
        1,
        EventKind::VerifyStreamCts {
            peer: 0,
            tx: true,
            stream: 7,
            epoch: 0,
        },
    ));
    let (s, r) = frame(80, 1, 0, 0, 0, 0, op::PART_CTS);
    r1.push(s);
    r0.push(r);

    // Payload on lane 1: two halves, the second replayed once by a
    // failover retry — the ledger commits it exactly once.
    r0.push(ev(
        100,
        0,
        EventKind::VerifyStreamData {
            peer: 1,
            lane: 1,
            tx: true,
            stream: 7,
            offset: 0,
            len: 4096,
        },
    ));
    let (s, r) = frame(101, 0, 1, 1, 0, 0, op::PART_DATA);
    r0.push(s);
    r1.push(r);
    r1.push(ev(
        110,
        1,
        EventKind::VerifyStreamData {
            peer: 0,
            lane: 1,
            tx: false,
            stream: 7,
            offset: 0,
            len: 4096,
        },
    ));
    r1.push(ev(
        111,
        1,
        EventKind::VerifyStreamCommit {
            peer: 0,
            lane: 1,
            stream: 7,
            lo: 0,
            len: 4096,
        },
    ));
    for (i, ts) in [(1u32, 120u64), (2, 140)].into_iter() {
        // Same second half twice: wire retry after failover.
        r0.push(ev(
            ts,
            0,
            EventKind::VerifyStreamData {
                peer: 1,
                lane: 1,
                tx: true,
                stream: 7,
                offset: 4096,
                len: 4096,
            },
        ));
        let (s, r) = frame(ts + 1, 0, 1, 1, 0, i, op::PART_DATA);
        r0.push(s);
        r1.push(r);
        r1.push(ev(
            ts + 10,
            1,
            EventKind::VerifyStreamData {
                peer: 0,
                lane: 1,
                tx: false,
                stream: 7,
                offset: 4096,
                len: 4096,
            },
        ));
    }
    // Only the first arrival was fresh.
    r1.push(ev(
        131,
        1,
        EventKind::VerifyStreamCommit {
            peer: 0,
            lane: 1,
            stream: 7,
            lo: 4096,
            len: 4096,
        },
    ));

    // Receiver completion: transport thread (tid 200) lands the
    // message, app thread (tid 201) probes and reads.
    r1.push(ev(
        150,
        1,
        EventKind::VerifyMsgRecv {
            req: 3,
            msg: 0,
            tid: 200,
            eager: false,
        },
    ));
    r1.push(ev(
        160,
        1,
        EventKind::VerifyParrived {
            req: 3,
            part: 0,
            iter: 0,
            tid: 201,
            arrived: true,
        },
    ));
    r1.push(ev(
        170,
        1,
        EventKind::VerifyRead {
            req: 3,
            part: 0,
            iter: 0,
            tid: 201,
            dur_ns: 5,
        },
    ));

    // Finalize: barrier (arrive to rank 0, release back), then Bye on
    // every lane.
    let (s, r) = frame(200, 1, 0, 0, 0, 1, op::BARRIER_ARRIVE);
    r1.push(s);
    r0.push(r);
    let (s, r) = frame(210, 0, 1, 0, 0, 1, op::BARRIER_RELEASE);
    r0.push(s);
    r1.push(r);
    let (s, r) = frame(220, 0, 1, 0, 0, 2, op::BYE);
    r0.push(s);
    r1.push(r);
    let (s, r) = frame(220, 0, 1, 1, 0, 3, op::BYE);
    r0.push(s);
    r1.push(r);
    let (s, r) = frame(221, 1, 0, 0, 0, 2, op::BYE);
    r1.push(s);
    r0.push(r);

    vec![ring(0, r0), ring(1, r1)]
}

#[test]
fn clean_streaming_run_audits_clean() {
    let report = audit(&clean_run());
    assert!(report.is_clean(), "expected clean audit, got:\n{report}");
    assert_eq!(report.stats.ranks, 2);
    assert!(report.stats.matched_frames >= 8);
    assert_eq!(report.stats.streams, 1);
    // The failover replay was absorbed, not double-committed.
    assert_eq!(report.stats.replayed_bytes, 4096);
}

#[test]
fn reconnect_epoch_keeps_lanes_apart() {
    // Frames before and after a lane-0 reconnect live in different
    // epochs; ordinal matching must not mix them even though the
    // post-reconnect ordinals restart relative order.
    let mut r0 = Vec::new();
    let mut r1 = Vec::new();
    let (s, r) = frame(10, 0, 1, 0, 0, 0, op::HEARTBEAT);
    r0.push(s);
    r1.push(r);
    // Epoch 0 loses a frame in flight (sent, never received).
    r0.push(ev(
        20,
        0,
        EventKind::VerifyWireSend {
            peer: 1,
            lane: 0,
            op: op::HEARTBEAT as u16,
            epoch: 0,
            seq: 1,
        },
    ));
    // Epoch 1 resumes with fresh ordinals on both sides.
    let (s, r) = frame(30, 0, 1, 0, 1, 2, op::HEARTBEAT);
    r0.push(s);
    r1.push(r);
    let report = audit(&[ring(0, r0), ring(1, r1)]);
    assert!(report.is_clean(), "unexpected findings:\n{report}");
    assert_eq!(report.stats.unmatched_sends, 1);
    assert_eq!(report.stats.matched_frames, 2);
}

#[test]
fn planted_data_before_rts_is_flagged() {
    let r0 = vec![ev(
        10,
        0,
        EventKind::VerifyStreamData {
            peer: 1,
            lane: 1,
            tx: true,
            stream: 9,
            offset: 0,
            len: 1024,
        },
    )];
    // Receiver sees payload for stream 9 with no RTS anywhere.
    let r1 = vec![ev(
        20,
        1,
        EventKind::VerifyStreamData {
            peer: 0,
            lane: 1,
            tx: false,
            stream: 9,
            offset: 0,
            len: 1024,
        },
    )];
    let report = audit(&[ring(0, r0), ring(1, r1)]);
    assert_eq!(report.finding_count(), 1, "report:\n{report}");
    let f = &report.findings[0];
    assert_eq!(f.kind, AuditKind::DataBeforeRts);
    assert_eq!(f.rank, 1);
    assert_eq!(f.seq, 0);
    assert_eq!(f.peer, 0);
    assert_eq!(f.stream, Some(9));
}

#[test]
fn planted_overlapping_commit_is_flagged() {
    let r0 = vec![
        ev(
            10,
            0,
            EventKind::VerifyStreamRts {
                peer: 1,
                tx: true,
                stream: 5,
                total_len: 8192,
            },
        ),
        ev(
            20,
            0,
            EventKind::VerifyStreamData {
                peer: 1,
                lane: 1,
                tx: true,
                stream: 5,
                offset: 0,
                len: 4096,
            },
        ),
    ];
    let r1 = vec![
        ev(
            15,
            1,
            EventKind::VerifyStreamRts {
                peer: 0,
                tx: false,
                stream: 5,
                total_len: 8192,
            },
        ),
        ev(
            30,
            1,
            EventKind::VerifyStreamData {
                peer: 0,
                lane: 1,
                tx: false,
                stream: 5,
                offset: 0,
                len: 4096,
            },
        ),
        ev(
            31,
            1,
            EventKind::VerifyStreamCommit {
                peer: 0,
                lane: 1,
                stream: 5,
                lo: 0,
                len: 4096,
            },
        ),
        // claim_range must never re-commit bytes: [2048, 4096) is
        // already inside the first commit.
        ev(
            40,
            1,
            EventKind::VerifyStreamCommit {
                peer: 0,
                lane: 2,
                stream: 5,
                lo: 2048,
                len: 2048,
            },
        ),
    ];
    let report = audit(&[ring(0, r0), ring(1, r1)]);
    assert_eq!(report.finding_count(), 1, "report:\n{report}");
    let f = &report.findings[0];
    assert_eq!(f.kind, AuditKind::CommitOverlap);
    assert_eq!(f.rank, 1);
    assert_eq!(f.seq, 3);
    assert_eq!(f.stream, Some(5));
    assert!(f.detail.contains("[2048, 4096)"), "detail: {}", f.detail);
}

/// Rank 1 reads partition 0 without ever probing parrived: the
/// transport's commit (TransferWrite at MsgRecv, tid 200, 50 ns) and the
/// user read (tid 201, 60 ns) are unordered across the two processes.
fn read_before_commit() -> Vec<RankEvents> {
    let r0 = vec![
        ev(
            10,
            0,
            EventKind::VerifyPartInit {
                req: 0,
                sender: true,
                parts: 1,
                msgs: 1,
            },
        ),
        ev(
            11,
            0,
            EventKind::VerifyLayoutMsg {
                req: 0,
                msg: 0,
                first_spart: 0,
                n_sparts: 1,
                first_rpart: 0,
                n_rparts: 1,
                bytes: 4096,
            },
        ),
        ev(
            20,
            0,
            EventKind::VerifyStreamRts {
                peer: 1,
                tx: true,
                stream: 4,
                total_len: 4096,
            },
        ),
        ev(
            21,
            0,
            EventKind::VerifyStreamMsg {
                stream: 4,
                req: 0,
                msg: 0,
                tx: true,
                offset: 0,
                len: 4096,
            },
        ),
        ev(
            30,
            0,
            EventKind::VerifyMsgSend {
                req: 0,
                msg: 0,
                iter: 0,
                tid: 100,
            },
        ),
    ];
    let r1 = vec![
        // Receiver interned the same context as req 6.
        ev(
            10,
            1,
            EventKind::VerifyPartInit {
                req: 6,
                sender: false,
                parts: 1,
                msgs: 1,
            },
        ),
        ev(
            11,
            1,
            EventKind::VerifyLayoutMsg {
                req: 6,
                msg: 0,
                first_spart: 0,
                n_sparts: 1,
                first_rpart: 0,
                n_rparts: 1,
                bytes: 4096,
            },
        ),
        ev(
            40,
            1,
            EventKind::VerifyStreamRts {
                peer: 0,
                tx: false,
                stream: 4,
                total_len: 4096,
            },
        ),
        ev(
            41,
            1,
            EventKind::VerifyStreamMsg {
                stream: 4,
                req: 6,
                msg: 0,
                tx: false,
                offset: 0,
                len: 4096,
            },
        ),
        ev(
            50,
            1,
            EventKind::VerifyMsgRecv {
                req: 6,
                msg: 0,
                tid: 200,
                eager: true,
            },
        ),
        // No parrived probe before the read: unsynchronized.
        ev(
            60,
            1,
            EventKind::VerifyRead {
                req: 6,
                part: 0,
                iter: 0,
                tid: 201,
                dur_ns: 5,
            },
        ),
    ];
    vec![ring(0, r0), ring(1, r1)]
}

#[test]
fn planted_read_before_commit_race_is_flagged() {
    let report = audit(&read_before_commit());
    assert!(report.findings.is_empty(), "report:\n{report}");
    assert_eq!(report.races.len(), 1, "report:\n{report}");
    let race = &report.races[0];
    assert_eq!(race.part, 0);
    // The race pairs the transport's write with the user's read, with
    // provenance on both sides.
    assert_eq!(race.first.rank, 1);
    assert_eq!(race.second.rank, 1);
    // Request ids were unified across the two processes: the sender's
    // req 0 and receiver's req 6 resolved to one global id (2 inits,
    // 2 layouts, send, recv, read — stream bookkeeping stays out).
    assert_eq!(report.stats.hb_events, 7);
    assert_eq!(report.stats.demoted_races, 0);
}

/// Overflowed rings whose every thread reaches back to the race's
/// first access still hold what could have ordered it: flagged.
#[test]
fn a_race_every_ring_covers_is_flagged_despite_drops() {
    let mut rings = read_before_commit();
    let start = EventKind::VerifyStart {
        req: 6,
        sender: false,
        iter: 0,
        tid: 201,
    };
    rings[1].events.insert(4, ev(45, 1, start));
    for r in &mut rings {
        r.dropped = 7;
    }
    let report = audit(&rings);
    assert_eq!(report.races.len(), 1, "report:\n{report}");
    assert_eq!(report.stats.demoted_races, 0);
}

/// The exchange ordered by a `parrived` probe audits clean. With the
/// probe evicted from an overflowed ring whose reading thread now
/// begins after the commit, the race left is demoted, not reported.
#[test]
fn a_race_before_an_overflowed_rings_coverage_is_demoted() {
    let mut rings = read_before_commit();
    let probe = EventKind::VerifyParrived {
        req: 6,
        part: 0,
        iter: 0,
        tid: 201,
        arrived: true,
    };
    rings[1].events.insert(5, ev(55, 1, probe));
    let report = audit(&rings);
    assert!(report.is_clean(), "report:\n{report}");
    rings[1].events.remove(5);
    rings[1].dropped = 1;
    let report = audit(&rings);
    assert!(report.is_clean(), "report:\n{report}");
    assert_eq!(report.stats.demoted_races, 1);
    assert!(report.to_string().contains("1 race(s) demoted"), "{report}");
}

/// A reconnect replays frames; it never repeats a handshake. A second
/// `PartCts` for one stream is a finding even on a later epoch.
#[test]
fn planted_cts_repeated_after_a_reconnect_is_flagged() {
    let cts = |ts, epoch| {
        ev(
            ts,
            1,
            EventKind::VerifyStreamCts {
                peer: 0,
                tx: true,
                stream: 4,
                epoch,
            },
        )
    };
    let report = audit(&[ring(0, vec![]), ring(1, vec![cts(10, 0), cts(20, 1)])]);
    assert_eq!(report.finding_count(), 1, "report:\n{report}");
    let f = &report.findings[0];
    assert_eq!(f.kind, AuditKind::CtsReplayed);
    assert_eq!((f.rank, f.seq, f.stream), (1, 1, Some(4)));
    assert!(
        f.detail.contains("released 2 times"),
        "detail: {}",
        f.detail
    );
}

#[test]
fn overflowed_ring_demotes_absence_findings() {
    // Same payload-without-RTS shape as the planted test, but the
    // receiver's ring overflowed: the auditor must stay silent rather
    // than accuse based on an incomplete record.
    let r1 = RankEvents {
        rank: 1,
        dropped: 12,
        events: vec![ev(
            20,
            1,
            EventKind::VerifyStreamData {
                peer: 0,
                lane: 1,
                tx: false,
                stream: 9,
                offset: 0,
                len: 1024,
            },
        )],
    };
    let report = audit(&[ring(0, vec![]), r1]);
    assert!(report.is_clean(), "report:\n{report}");
    assert_eq!(report.stats.dropped_events, 12);
}

/// Clocks align from the frames both rings still hold: a ring that
/// overflowed and lost its first arrivals still pairs each surviving
/// one with the send of its wire ordinal. Rank 1's clock reads 1000 ns
/// behind rank 0's, and frames take 5 ns each way.
#[test]
fn an_overflowed_ring_still_aligns_clocks_by_wire_ordinal() {
    let (mut r0, mut r1) = (Vec::new(), Vec::new());
    for k in 0..4u32 {
        let t = 1100 + 20 * u64::from(k);
        let (send, mut recv) = frame(t, 0, 1, 0, 0, k, op::HEARTBEAT);
        recv.ts_ns -= 1000;
        r0.push(send);
        if k >= 2 {
            r1.push(recv);
        }
        let (mut send, recv) = frame(t + 10, 1, 0, 0, 0, k, op::HEARTBEAT);
        send.ts_ns -= 1000;
        r1.push(send);
        r0.push(recv);
    }
    let r1 = RankEvents {
        rank: 1,
        dropped: 2,
        events: r1,
    };
    let report = audit(&[ring(0, r0), r1]);
    assert!(report.is_clean(), "report:\n{report}");
    assert_eq!(report.stats.clock_offsets_ns, vec![(0, 0), (1, 1000)]);
}

#[test]
fn wire_op_mismatch_and_phantom_frames_are_flagged() {
    let mut r0 = Vec::new();
    let mut r1 = Vec::new();
    // Ordinal 0 disagrees on the op.
    r0.push(ev(
        10,
        0,
        EventKind::VerifyWireSend {
            peer: 1,
            lane: 0,
            op: op::EAGER as u16,
            epoch: 0,
            seq: 0,
        },
    ));
    r1.push(ev(
        15,
        1,
        EventKind::VerifyWireRecv {
            peer: 0,
            lane: 0,
            op: op::PUT as u16,
            epoch: 0,
            seq: 0,
        },
    ));
    // A second frame arrives that nobody sent.
    r1.push(ev(
        25,
        1,
        EventKind::VerifyWireRecv {
            peer: 0,
            lane: 0,
            op: op::EAGER as u16,
            epoch: 0,
            seq: 1,
        },
    ));
    let report = audit(&[ring(0, r0), ring(1, r1)]);
    let kinds: Vec<AuditKind> = report.findings.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        vec![AuditKind::OpMismatch, AuditKind::RecvWithoutSend],
        "report:\n{report}"
    );
}

/// Three rounds of one persistent partitioned stream 0 -> 1 (id 3,
/// 4096 bytes): one `PartRts`, then per round the receiver's credit,
/// the sender's range and the receiver's commit. With `straggler`, one
/// more range of 512 bytes reaches the receiver after round 2 landed and
/// before its next credit. Returns the rings and, with a straggler, the
/// receiver-ring index of its data event.
fn persistent_stream(straggler: bool) -> (Vec<RankEvents>, Option<usize>) {
    let (mut r0, mut r1) = (Vec::new(), Vec::new());
    let data = |ts, rank, tx, len| {
        let peer = 1 - rank;
        let kind = EventKind::VerifyStreamData {
            peer,
            lane: 0,
            tx,
            stream: 3,
            offset: 0,
            len,
        };
        ev(ts, rank, kind)
    };
    let cts = |ts, rank: u16, tx| {
        let kind = EventKind::VerifyStreamCts {
            peer: 1 - rank,
            tx,
            stream: 3,
            epoch: 0,
        };
        ev(ts, rank, kind)
    };
    for (rank, tx, ring) in [(0, true, &mut r0), (1, false, &mut r1)] {
        let kind = EventKind::VerifyStreamRts {
            peer: 1 - rank,
            tx,
            stream: 3,
            total_len: 4096,
        };
        ring.push(ev(10 + u64::from(rank), rank, kind));
    }
    let (s, r) = frame(12, 0, 1, 0, 0, 0, op::PART_RTS);
    r0.push(s);
    r1.push(r);
    let (mut data_seq, mut at) = (1, None);
    for round in 0..3u32 {
        let ts = 100 * u64::from(round + 1);
        r1.push(cts(ts, 1, true));
        let (s, r) = frame(ts + 1, 1, 0, 0, 0, round, op::PART_CTS);
        r1.push(s);
        r0.push(r);
        r0.push(cts(ts + 10, 0, false));
        let mut ranges = vec![4096];
        if straggler && round == 1 {
            ranges.push(512);
        }
        for (i, len) in ranges.into_iter().enumerate() {
            let t = ts + 20 + 30 * i as u64;
            r0.push(data(t, 0, true, len));
            let (s, r) = frame(t + 1, 0, 1, 0, 0, data_seq, op::PART_DATA);
            data_seq += 1;
            r0.push(s);
            r1.push(r);
            if i == 1 {
                at = Some(r1.len());
            }
            r1.push(data(t + 10, 1, false, len));
            if i == 0 {
                let kind = EventKind::VerifyStreamCommit {
                    peer: 0,
                    lane: 0,
                    stream: 3,
                    lo: 0,
                    len: 4096,
                };
                r1.push(ev(t + 11, 1, kind));
            }
        }
    }
    (vec![ring(0, r0), ring(1, r1)], at)
}

/// One `PartRts` and a credit per round: three rounds of one stream
/// commit the same bytes three times, once per round, and audit clean.
#[test]
fn a_persistent_stream_audits_clean_round_by_round() {
    let (rings, _) = persistent_stream(false);
    let report = audit(&rings);
    assert!(report.is_clean(), "report:\n{report}");
    assert_eq!(report.stats.streams, 1);
    assert_eq!(report.stats.replayed_bytes, 0);
}

/// A range that reaches the receiver after its round landed whole, and
/// before the next credit opened another, is a finding.
#[test]
fn planted_range_after_its_round_landed_is_flagged() {
    let (rings, at) = persistent_stream(true);
    let report = audit(&rings);
    assert_eq!(report.finding_count(), 1, "report:\n{report}");
    let f = &report.findings[0];
    assert_eq!(f.kind, AuditKind::DataOutsideRound);
    assert_eq!((f.rank, Some(f.seq), f.stream), (1, at, Some(3)));
    assert!(f.detail.contains("after round 2 landed"), "{}", f.detail);
}
