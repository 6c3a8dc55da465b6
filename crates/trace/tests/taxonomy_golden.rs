//! The trace format, frozen: for a fixed value of every event kind (and
//! every `FaultKind`) the four `encode` words, the name, the span / verify /
//! lane classification, the Chrome `args` fragment, the `Display` line and
//! what `decode` gives back, compared byte for byte with
//! `taxonomy_golden.txt`.
//!
//! The text file was recorded from the hand-written `encode` / `decode` /
//! `name` / `Display` / `args_json` matches, before the taxonomy became one
//! table. Ring slots and `.events` v1 files persist these words and the
//! exporters' output is what tools grep, so a difference here is a format
//! break: never edit a line of the golden file to make this test pass. A
//! new event appends samples (and lines); it changes none.

use pcomm_trace::{chrome_trace_json, Event, EventKind, FaultKind};

const GOLDEN: &str = include_str!("taxonomy_golden.txt");

/// One fixed value per kind, in tag order — fields non-zero and distinct,
/// so a swapped slot shows — followed by the edge shapes: every
/// `FaultKind` under a negative tag, the four `VerifyBlocked` presence
/// shapes, the 15 + 1-bit `lane|tx` / `msg|tx` packings at both edges (and
/// one past, which the encoding masks), both values of every `bool`, and
/// every packed field at its type's maximum.
fn samples() -> Vec<EventKind> {
    use EventKind::*;
    let mut v = vec![
        LockWait {
            shard: 3,
            wait_ns: 12_345,
        },
        EagerSend {
            dst: 1,
            shard: 2,
            bytes: 512,
        },
        RdvSend {
            dst: 7,
            shard: 5,
            bytes: 1 << 20,
        },
        RdvCopy {
            shard: 1,
            bytes: 1 << 21,
            wait_ns: 99,
        },
        Pready { part: 123_456 },
        EarlyBird {
            msg: 5,
            shard: 1,
            bytes: 4096,
            gap_ns: 800,
        },
        AggrLayout {
            base_msgs: 16,
            msgs: 4,
            bytes_per_msg: 2048,
        },
        CtsWait {
            peer: 1,
            wait_ns: 5_000,
        },
        PartWait {
            msgs: 4,
            wait_ns: 77,
        },
        EpochOpen {
            win: 2,
            wait_ns: 1_000,
        },
        EpochClose { win: 2, puts: 8 },
        EagerPool {
            shard: 3,
            hit: true,
            bytes: 256,
        },
        ProbeStats {
            fast_probes: 1_000_000,
            slow_waits: 12,
        },
        FaultInjected {
            fault: FaultKind::Drop,
            dst: 1,
            tag: -1,
            arg: 2,
        },
        RetryAttempt {
            dst: 1,
            attempt: 2,
            tag: -7,
        },
        StallDetected {
            blocked: 3,
            watchdog_ms: 500,
            quiet_ms: 612,
        },
        VerifyPartInit {
            req: 42,
            sender: true,
            parts: 64,
            msgs: 8,
        },
        VerifyLayoutMsg {
            req: 42,
            msg: 3,
            first_spart: 24,
            n_sparts: 8,
            first_rpart: 12,
            n_rparts: 4,
            bytes: 65_536,
        },
        VerifyStart {
            req: 42,
            sender: true,
            iter: 7,
            tid: 3,
        },
        VerifyPready {
            req: 42,
            part: 63,
            iter: 7,
            tid: 3,
        },
        VerifyWrite {
            req: 42,
            part: 63,
            iter: 7,
            tid: 3,
            dur_ns: 812,
        },
        VerifyRead {
            req: 42,
            part: 9,
            iter: 7,
            tid: 5,
            dur_ns: 44,
        },
        VerifyMsgSend {
            req: 42,
            msg: 3,
            iter: 7,
            tid: 5,
        },
        VerifyMsgRecv {
            req: 42,
            msg: 3,
            tid: 1,
            eager: true,
        },
        VerifyParrived {
            req: 42,
            part: 12,
            iter: 7,
            tid: 5,
            arrived: true,
        },
        VerifyWaitDone {
            req: 42,
            sender: true,
            iter: 7,
            tid: 3,
        },
        VerifyBlocked {
            peer: Some(1),
            tag: Some(-2),
        },
        StreamChunk {
            lane: 1,
            parts: 4,
            offset: 1 << 18,
            bytes: 1 << 17,
        },
        StreamCommit {
            lane: 1,
            msgs: 2,
            offset: 1 << 18,
            bytes: 1 << 17,
        },
        LaneDown { peer: 1, lane: 2 },
        LaneFailover {
            peer: 1,
            lane: 2,
            requeued: 17,
        },
        Reconnect {
            peer: 1,
            ok: true,
            took_ms: 42,
        },
        HeartbeatMiss {
            peer: 1,
            quiet_ms: 401,
        },
        WriterQueue {
            peer: 1,
            lane: 2,
            depth: 1 << 12,
        },
        VerifyWireSend {
            peer: 1,
            lane: 2,
            op: 14,
            epoch: 3,
            seq: 4_000_000,
        },
        VerifyWireRecv {
            peer: 4,
            lane: 2,
            op: 16,
            epoch: 3,
            seq: 77,
        },
        VerifyStreamRts {
            peer: 1,
            tx: true,
            stream: 9,
            total_len: 1 << 21,
        },
        VerifyStreamCts {
            peer: 2,
            tx: true,
            stream: 9,
            epoch: 3,
        },
        VerifyStreamData {
            peer: 1,
            lane: 2,
            tx: true,
            stream: 9,
            offset: 1 << 18,
            len: 1 << 16,
        },
        VerifyStreamCommit {
            peer: 1,
            lane: 2,
            stream: 9,
            lo: 1 << 18,
            len: 1 << 16,
        },
        VerifyStreamLost {
            peer: 3,
            stream: 9,
            missing: 4096,
        },
        VerifyStreamMsg {
            stream: 9,
            req: 42,
            msg: 3,
            tx: true,
            offset: 1 << 18,
            len: 1 << 16,
        },
        IpcRingFull {
            peer: 1,
            kind: 2,
            wait_ns: 55_000,
        },
        IpcDoorbell {
            seq: 77,
            woken: true,
        },
        IpcDoorbellStats {
            rings: 70_000,
            wakes: 9,
            parks_counted: 4,
            parks_uncounted: 100_000,
        },
    ];
    assert_eq!(v.len(), 45);

    // Every fault kind, code order, under a negative (internal) tag.
    for (i, fault) in [
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
    ]
    .into_iter()
    .enumerate()
    {
        v.push(FaultInjected {
            fault,
            dst: 100 + i as u16,
            tag: -(i as i64) - 3,
            arg: 1000 + i as u64,
        });
    }
    v.extend([
        FaultInjected {
            fault: FaultKind::HalfOpen,
            dst: u16::MAX,
            tag: i64::MIN,
            arg: u64::MAX,
        },
        RetryAttempt {
            dst: u16::MAX,
            attempt: u16::MAX,
            tag: i64::MAX,
        },
        // The four presence shapes; a `Some(0)` must stay apart from `None`.
        VerifyBlocked {
            peer: None,
            tag: None,
        },
        VerifyBlocked {
            peer: Some(0),
            tag: None,
        },
        VerifyBlocked {
            peer: None,
            tag: Some(0),
        },
        VerifyBlocked {
            peer: Some(u16::MAX),
            tag: Some(i64::MIN),
        },
        VerifyBlocked {
            peer: Some(7),
            tag: Some(i64::MAX),
        },
        // lane|tx and msg|tx: 15 + 1 bits of one slot.
        VerifyStreamData {
            peer: u16::MAX,
            lane: 0x7fff,
            tx: true,
            stream: u32::MAX,
            offset: u64::MAX,
            len: u32::MAX,
        },
        VerifyStreamData {
            peer: 0,
            lane: 0x7fff,
            tx: false,
            stream: 1,
            offset: 2,
            len: 3,
        },
        VerifyStreamData {
            peer: 5,
            lane: 0,
            tx: true,
            stream: 1,
            offset: 2,
            len: 3,
        },
        VerifyStreamData {
            peer: 5,
            lane: 0x8001,
            tx: false,
            stream: 1,
            offset: 2,
            len: 3,
        },
        VerifyStreamMsg {
            stream: u32::MAX,
            req: u16::MAX,
            msg: 0x7fff,
            tx: true,
            offset: u64::MAX,
            len: u32::MAX,
        },
        VerifyStreamMsg {
            stream: 1,
            req: 2,
            msg: 0x7fff,
            tx: false,
            offset: 4,
            len: 5,
        },
        VerifyStreamMsg {
            stream: 1,
            req: 2,
            msg: 0,
            tx: true,
            offset: 4,
            len: 5,
        },
        VerifyStreamMsg {
            stream: 1,
            req: 2,
            msg: 0xffff,
            tx: false,
            offset: 4,
            len: 5,
        },
        // The other value of every bool.
        EagerPool {
            shard: 3,
            hit: false,
            bytes: 256,
        },
        VerifyPartInit {
            req: 42,
            sender: false,
            parts: 64,
            msgs: 8,
        },
        VerifyStart {
            req: 42,
            sender: false,
            iter: 7,
            tid: 3,
        },
        VerifyMsgRecv {
            req: 42,
            msg: 3,
            tid: 1,
            eager: false,
        },
        VerifyParrived {
            req: 42,
            part: 12,
            iter: 7,
            tid: 5,
            arrived: false,
        },
        VerifyWaitDone {
            req: 42,
            sender: false,
            iter: 7,
            tid: 3,
        },
        Reconnect {
            peer: 1,
            ok: false,
            took_ms: 42,
        },
        VerifyStreamRts {
            peer: 1,
            tx: false,
            stream: 9,
            total_len: 1 << 21,
        },
        VerifyStreamCts {
            peer: 2,
            tx: false,
            stream: 9,
            epoch: 3,
        },
        IpcDoorbell {
            seq: 77,
            woken: false,
        },
        // Packed fields at their type's maximum.
        VerifyPartInit {
            req: u16::MAX,
            sender: true,
            parts: u32::MAX,
            msgs: u32::MAX,
        },
        VerifyLayoutMsg {
            req: u16::MAX,
            msg: u16::MAX - 1,
            first_spart: u16::MAX - 2,
            n_sparts: u16::MAX - 3,
            first_rpart: u16::MAX - 4,
            n_rparts: u16::MAX - 5,
            bytes: u64::MAX,
        },
        VerifyLayoutMsg {
            req: 1,
            msg: 2,
            first_spart: 0,
            n_sparts: u16::MAX,
            first_rpart: 0,
            n_rparts: u16::MAX,
            bytes: 3,
        },
        VerifyStart {
            req: u16::MAX,
            sender: true,
            iter: u32::MAX,
            tid: u16::MAX - 1,
        },
        VerifyPready {
            req: u16::MAX,
            part: u32::MAX,
            iter: u32::MAX - 1,
            tid: u16::MAX - 1,
        },
        VerifyPready {
            req: 1,
            part: 0,
            iter: u32::MAX,
            tid: 2,
        },
        VerifyWrite {
            req: u16::MAX,
            part: u32::MAX,
            iter: u32::MAX - 1,
            tid: u16::MAX - 1,
            dur_ns: u64::MAX,
        },
        VerifyRead {
            req: u16::MAX,
            part: u32::MAX - 1,
            iter: u32::MAX,
            tid: u16::MAX - 1,
            dur_ns: u64::MAX,
        },
        VerifyMsgSend {
            req: u16::MAX,
            msg: u16::MAX - 1,
            iter: u32::MAX,
            tid: u16::MAX - 2,
        },
        VerifyMsgRecv {
            req: u16::MAX,
            msg: u16::MAX - 1,
            tid: u16::MAX - 2,
            eager: true,
        },
        VerifyParrived {
            req: u16::MAX,
            part: u32::MAX,
            iter: u32::MAX - 1,
            tid: u16::MAX - 1,
            arrived: true,
        },
        VerifyWaitDone {
            req: u16::MAX,
            sender: true,
            iter: u32::MAX,
            tid: u16::MAX - 1,
        },
        VerifyWireSend {
            peer: u16::MAX,
            lane: u16::MAX - 1,
            op: u16::MAX - 2,
            epoch: u32::MAX,
            seq: u32::MAX - 1,
        },
        VerifyWireRecv {
            peer: u16::MAX,
            lane: u16::MAX - 1,
            op: u16::MAX - 2,
            epoch: u32::MAX - 1,
            seq: u32::MAX,
        },
        VerifyStreamRts {
            peer: u16::MAX,
            tx: true,
            stream: u32::MAX,
            total_len: u64::MAX,
        },
        VerifyStreamCts {
            peer: u16::MAX,
            tx: true,
            stream: u32::MAX - 1,
            epoch: u32::MAX,
        },
        VerifyStreamCommit {
            peer: u16::MAX,
            lane: u16::MAX - 1,
            stream: u32::MAX,
            lo: u64::MAX,
            len: u32::MAX - 1,
        },
        VerifyStreamLost {
            peer: u16::MAX,
            stream: u32::MAX,
            missing: u64::MAX,
        },
        IpcDoorbell {
            seq: u32::MAX,
            woken: true,
        },
        IpcDoorbellStats {
            rings: u32::MAX,
            wakes: u32::MAX - 1,
            parks_counted: u32::MAX - 2,
            parks_uncounted: u32::MAX - 3,
        },
        Pready { part: u64::MAX },
        EarlyBird {
            msg: u16::MAX,
            shard: u16::MAX - 1,
            bytes: u64::MAX,
            gap_ns: u64::MAX - 1,
        },
    ]);
    v
}

/// The `"key":value,…` fragment `chrome_trace_json` renders inside the
/// event's `"args":{…}` (the last one in a one-event document).
fn chrome_args(ev: Event) -> String {
    let json = chrome_trace_json(&[ev], 0);
    let body = json
        .strip_suffix("}}]}")
        .unwrap_or_else(|| panic!("unexpected document tail: {json}"));
    let at = body.rfind("\"args\":{").expect("an args object");
    body[at + "\"args\":{".len()..].to_string()
}

fn render() -> String {
    let mut out = String::new();
    for (i, kind) in samples().into_iter().enumerate() {
        let ev = Event {
            ts_ns: 1_000_000 + 1_500 * i as u64,
            rank: (i % 7) as u16,
            kind,
        };
        let w = ev.encode();
        out.push_str(&format!(
            "{:x} {:x} {:x} {:x}|{}|dur={:?}|verify={}|lane={}|{}|{}|{:?}\n",
            w[0],
            w[1],
            w[2],
            w[3],
            kind.name(),
            kind.dur_ns(),
            kind.is_verify(),
            kind.lane(),
            chrome_args(ev),
            ev,
            Event::decode(w),
        ));
    }
    for code in 0..=12u16 {
        match FaultKind::from_code(code) {
            Some(k) => out.push_str(&format!("fault {code}|{}|{}|{k:?}\n", k.code(), k.name())),
            None => out.push_str(&format!("fault {code}|none\n")),
        }
    }
    out
}

#[test]
fn every_kind_encodes_names_and_renders_as_recorded() {
    let got = render();
    // Line by line first, so a failure names the sample.
    for (n, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "golden line {}", n + 1);
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn samples_cover_the_taxonomy() {
    let names: std::collections::BTreeSet<&str> = samples().iter().map(|k| k.name()).collect();
    assert_eq!(names.len(), 45);
}
