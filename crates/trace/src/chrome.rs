//! Chrome trace-event JSON exporter (loadable in Perfetto / `chrome://tracing`).
//!
//! Layout: one *process* per rank, one *thread* (track) per shard / VCI
//! lane, so contention on a shard renders as stacked spans on one track —
//! a Fig. 5/6 picture straight from the viewer. Span events (`dur_ns()`
//! is `Some`) become `ph:"X"` complete events; instants become `ph:"i"`.
//!
//! The writer is hand-rolled: every name and key is a static ASCII
//! string, all values are integers or finite floats, so no escaping is
//! needed and the output is valid JSON by construction. The same schema
//! is emitted for real-runtime and simulator traces, which makes them
//! directly comparable (virtual vs wall-clock time on the same axis).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::event::{Event, EventKind};

fn ts_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Extra per-kind argument fields, as `"key":value` fragments.
fn args_json(kind: &EventKind) -> String {
    match *kind {
        EventKind::LockWait { shard, wait_ns } => {
            format!("\"shard\":{shard},\"wait_ns\":{wait_ns}")
        }
        EventKind::EagerSend { dst, shard, bytes } => {
            format!("\"dst\":{dst},\"shard\":{shard},\"bytes\":{bytes}")
        }
        EventKind::RdvSend { dst, shard, bytes } => {
            format!("\"dst\":{dst},\"shard\":{shard},\"bytes\":{bytes}")
        }
        EventKind::RdvCopy {
            shard,
            bytes,
            wait_ns,
        } => format!("\"shard\":{shard},\"bytes\":{bytes},\"wait_ns\":{wait_ns}"),
        EventKind::Pready { part } => format!("\"part\":{part}"),
        EventKind::EarlyBird {
            msg,
            shard,
            bytes,
            gap_ns,
        } => format!("\"msg\":{msg},\"shard\":{shard},\"bytes\":{bytes},\"gap_ns\":{gap_ns}"),
        EventKind::AggrLayout {
            base_msgs,
            msgs,
            bytes_per_msg,
        } => format!("\"base_msgs\":{base_msgs},\"msgs\":{msgs},\"bytes_per_msg\":{bytes_per_msg}"),
        EventKind::CtsWait { peer, wait_ns } => {
            format!("\"peer\":{peer},\"wait_ns\":{wait_ns}")
        }
        EventKind::PartWait { msgs, wait_ns } => {
            format!("\"msgs\":{msgs},\"wait_ns\":{wait_ns}")
        }
        EventKind::EpochOpen { win, wait_ns } => {
            format!("\"win\":{win},\"wait_ns\":{wait_ns}")
        }
        EventKind::EpochClose { win, puts } => format!("\"win\":{win},\"puts\":{puts}"),
        EventKind::EagerPool { shard, hit, bytes } => {
            format!("\"shard\":{shard},\"hit\":{hit},\"bytes\":{bytes}")
        }
        EventKind::ProbeStats {
            fast_probes,
            slow_waits,
        } => format!("\"fast_probes\":{fast_probes},\"slow_waits\":{slow_waits}"),
        EventKind::FaultInjected {
            fault,
            dst,
            tag,
            arg,
        } => format!(
            "\"fault\":\"{}\",\"dst\":{dst},\"tag\":{tag},\"arg\":{arg}",
            fault.name()
        ),
        EventKind::RetryAttempt { dst, attempt, tag } => {
            format!("\"dst\":{dst},\"attempt\":{attempt},\"tag\":{tag}")
        }
        EventKind::StallDetected {
            blocked,
            watchdog_ms,
            quiet_ms,
        } => format!("\"blocked\":{blocked},\"watchdog_ms\":{watchdog_ms},\"quiet_ms\":{quiet_ms}"),
        EventKind::VerifyPartInit {
            req,
            sender,
            parts,
            msgs,
        } => format!("\"req\":{req},\"sender\":{sender},\"parts\":{parts},\"msgs\":{msgs}"),
        EventKind::VerifyLayoutMsg {
            req,
            msg,
            first_spart,
            n_sparts,
            first_rpart,
            n_rparts,
            bytes,
        } => format!(
            "\"req\":{req},\"msg\":{msg},\"first_spart\":{first_spart},\"n_sparts\":{n_sparts},\
             \"first_rpart\":{first_rpart},\"n_rparts\":{n_rparts},\"bytes\":{bytes}"
        ),
        EventKind::VerifyStart {
            req,
            sender,
            iter,
            tid,
        } => format!("\"req\":{req},\"sender\":{sender},\"iter\":{iter},\"tid\":{tid}"),
        EventKind::VerifyPready {
            req,
            part,
            iter,
            tid,
        } => format!("\"req\":{req},\"part\":{part},\"iter\":{iter},\"tid\":{tid}"),
        EventKind::VerifyWrite {
            req,
            part,
            iter,
            tid,
            dur_ns,
        }
        | EventKind::VerifyRead {
            req,
            part,
            iter,
            tid,
            dur_ns,
        } => format!(
            "\"req\":{req},\"part\":{part},\"iter\":{iter},\"tid\":{tid},\"dur_ns\":{dur_ns}"
        ),
        EventKind::VerifyMsgSend {
            req,
            msg,
            iter,
            tid,
        } => format!("\"req\":{req},\"msg\":{msg},\"iter\":{iter},\"tid\":{tid}"),
        EventKind::VerifyMsgRecv {
            req,
            msg,
            tid,
            eager,
        } => format!("\"req\":{req},\"msg\":{msg},\"tid\":{tid},\"eager\":{eager}"),
        EventKind::VerifyParrived {
            req,
            part,
            iter,
            tid,
            arrived,
        } => format!(
            "\"req\":{req},\"part\":{part},\"iter\":{iter},\"tid\":{tid},\"arrived\":{arrived}"
        ),
        EventKind::VerifyWaitDone {
            req,
            sender,
            iter,
            tid,
        } => format!("\"req\":{req},\"sender\":{sender},\"iter\":{iter},\"tid\":{tid}"),
        EventKind::VerifyBlocked { peer, tag } => format!(
            "\"peer\":{},\"tag\":{}",
            peer.map_or(-1i32, |p| p as i32),
            tag.unwrap_or(i64::MIN)
        ),
        EventKind::StreamChunk {
            lane,
            parts,
            offset,
            bytes,
        } => format!("\"lane\":{lane},\"parts\":{parts},\"offset\":{offset},\"bytes\":{bytes}"),
        EventKind::StreamCommit {
            lane,
            msgs,
            offset,
            bytes,
        } => format!("\"lane\":{lane},\"msgs\":{msgs},\"offset\":{offset},\"bytes\":{bytes}"),
        EventKind::LaneDown { peer, lane } => format!("\"peer\":{peer},\"lane\":{lane}"),
        EventKind::LaneFailover {
            peer,
            lane,
            requeued,
        } => format!("\"peer\":{peer},\"lane\":{lane},\"requeued\":{requeued}"),
        EventKind::Reconnect { peer, ok, took_ms } => {
            format!("\"peer\":{peer},\"ok\":{ok},\"took_ms\":{took_ms}")
        }
        EventKind::HeartbeatMiss { peer, quiet_ms } => {
            format!("\"peer\":{peer},\"quiet_ms\":{quiet_ms}")
        }
        EventKind::WriterQueue { peer, lane, depth } => {
            format!("\"peer\":{peer},\"lane\":{lane},\"depth\":{depth}")
        }
        EventKind::VerifyWireSend {
            peer,
            lane,
            op,
            epoch,
            seq,
        }
        | EventKind::VerifyWireRecv {
            peer,
            lane,
            op,
            epoch,
            seq,
        } => format!("\"peer\":{peer},\"lane\":{lane},\"op\":{op},\"epoch\":{epoch},\"seq\":{seq}"),
        EventKind::VerifyStreamRts {
            peer,
            tx,
            stream,
            total_len,
        } => format!("\"peer\":{peer},\"tx\":{tx},\"stream\":{stream},\"total_len\":{total_len}"),
        EventKind::VerifyStreamCts {
            peer,
            tx,
            stream,
            epoch,
        } => format!("\"peer\":{peer},\"tx\":{tx},\"stream\":{stream},\"epoch\":{epoch}"),
        EventKind::VerifyStreamData {
            peer,
            lane,
            tx,
            stream,
            offset,
            len,
        } => format!(
            "\"peer\":{peer},\"lane\":{lane},\"tx\":{tx},\"stream\":{stream},\
             \"offset\":{offset},\"len\":{len}"
        ),
        EventKind::VerifyStreamCommit {
            peer,
            lane,
            stream,
            lo,
            len,
        } => format!(
            "\"peer\":{peer},\"lane\":{lane},\"stream\":{stream},\"lo\":{lo},\"len\":{len}"
        ),
        EventKind::VerifyStreamLost {
            peer,
            stream,
            missing,
        } => format!("\"peer\":{peer},\"stream\":{stream},\"missing\":{missing}"),
        EventKind::VerifyStreamMsg {
            stream,
            req,
            msg,
            tx,
            offset,
            len,
        } => format!(
            "\"stream\":{stream},\"req\":{req},\"msg\":{msg},\"tx\":{tx},\"offset\":{offset},\"len\":{len}"
        ),
        EventKind::IpcRingFull {
            peer,
            kind,
            wait_ns,
        } => format!("\"peer\":{peer},\"kind\":{kind},\"wait_ns\":{wait_ns}"),
        EventKind::IpcDoorbell { seq, woken } => format!("\"seq\":{seq},\"woken\":{woken}"),
        EventKind::IpcDoorbellStats {
            rings,
            wakes,
            parks_counted,
            parks_uncounted,
        } => format!(
            "\"rings\":{rings},\"wakes\":{wakes},\"parks_counted\":{parks_counted},\"parks_uncounted\":{parks_uncounted}"
        ),
    }
}

/// Render `events` as a Chrome trace-event JSON document.
///
/// `dropped` is recorded under `otherData` so a truncated trace is
/// visibly truncated.
pub fn chrome_trace_json(events: &[Event], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 140 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"pcomm-trace\",");
    let _ = write!(out, "\"dropped\":{dropped}}},\"traceEvents\":[");

    // Name the tracks first: one process per rank, one thread per lane.
    let tracks: BTreeSet<(u16, u16)> = events.iter().map(|e| (e.rank, e.kind.lane())).collect();
    let ranks: BTreeSet<u16> = tracks.iter().map(|&(r, _)| r).collect();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for r in &ranks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":0,\
             \"args\":{{\"name\":\"rank {r}\"}}}}"
        );
    }
    for (r, lane) in &tracks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{r},\"tid\":{lane},\
             \"args\":{{\"name\":\"shard {lane}\"}}}}"
        );
    }

    for ev in events {
        sep(&mut out);
        let name = ev.kind.name();
        let args = args_json(&ev.kind);
        let pid = ev.rank;
        let tid = ev.kind.lane();
        match ev.kind.dur_ns() {
            Some(dur) => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"pcomm\",\"ph\":\"X\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{{args}}}}}",
                    ts_us(ev.ts_ns),
                    ts_us(dur),
                );
            }
            None => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{{args}}}}}",
                    ts_us(ev.ts_ns),
                );
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, non-empty, starts `{` ends `}`.
    fn assert_balanced_json(s: &str) {
        assert!(s.starts_with('{') && s.ends_with('}'), "not an object");
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced nesting");
        }
        assert_eq!(depth, 0, "unbalanced braces");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn golden_two_event_trace() {
        let events = [
            Event {
                ts_ns: 1_500,
                rank: 0,
                kind: EventKind::LockWait {
                    shard: 2,
                    wait_ns: 500,
                },
            },
            Event {
                ts_ns: 2_000,
                rank: 1,
                kind: EventKind::EarlyBird {
                    msg: 0,
                    shard: 1,
                    bytes: 4096,
                    gap_ns: 250,
                },
            },
        ];
        let json = chrome_trace_json(&events, 3);
        let expect = concat!(
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"pcomm-trace\",\"dropped\":3},",
            "\"traceEvents\":[",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"rank 1\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"shard 2\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"shard 1\"}},",
            "{\"name\":\"shard_lock_wait\",\"cat\":\"pcomm\",\"ph\":\"X\",\"ts\":1.500,\"dur\":0.500,",
            "\"pid\":0,\"tid\":2,\"args\":{\"shard\":2,\"wait_ns\":500}},",
            "{\"name\":\"early_bird_send\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,",
            "\"pid\":1,\"tid\":1,\"args\":{\"msg\":0,\"shard\":1,\"bytes\":4096,\"gap_ns\":250}}",
            "]}"
        );
        assert_eq!(json, expect);
    }

    #[test]
    fn golden_chaos_events_trace() {
        let events = [
            Event {
                ts_ns: 1_000,
                rank: 0,
                kind: EventKind::FaultInjected {
                    fault: crate::event::FaultKind::Drop,
                    dst: 1,
                    tag: 7,
                    arg: 0,
                },
            },
            Event {
                ts_ns: 1_250,
                rank: 0,
                kind: EventKind::RetryAttempt {
                    dst: 1,
                    attempt: 1,
                    tag: 7,
                },
            },
            Event {
                ts_ns: 9_000,
                rank: 0,
                kind: EventKind::StallDetected {
                    blocked: 1,
                    watchdog_ms: 5,
                    quiet_ms: 8,
                },
            },
        ];
        let json = chrome_trace_json(&events, 0);
        let expect = concat!(
            "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"pcomm-trace\",\"dropped\":0},",
            "\"traceEvents\":[",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 0\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"shard 0\"}},",
            "{\"name\":\"fault_injected\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.000,",
            "\"pid\":0,\"tid\":0,\"args\":{\"fault\":\"drop\",\"dst\":1,\"tag\":7,\"arg\":0}},",
            "{\"name\":\"retry_attempt\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.250,",
            "\"pid\":0,\"tid\":0,\"args\":{\"dst\":1,\"attempt\":1,\"tag\":7}},",
            "{\"name\":\"stall_detected\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\"ts\":9.000,",
            "\"pid\":0,\"tid\":0,\"args\":{\"blocked\":1,\"watchdog_ms\":5,\"quiet_ms\":8}}",
            "]}"
        );
        assert_eq!(json, expect);
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace_json(&[], 0);
        assert_balanced_json(&json);
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn every_kind_renders_valid_json() {
        let kinds = [
            EventKind::LockWait {
                shard: 1,
                wait_ns: 9,
            },
            EventKind::EagerSend {
                dst: 0,
                shard: 0,
                bytes: 8,
            },
            EventKind::RdvSend {
                dst: 0,
                shard: 0,
                bytes: 8,
            },
            EventKind::RdvCopy {
                shard: 0,
                bytes: 8,
                wait_ns: 1,
            },
            EventKind::Pready { part: 0 },
            EventKind::EarlyBird {
                msg: 0,
                shard: 0,
                bytes: 8,
                gap_ns: 1,
            },
            EventKind::AggrLayout {
                base_msgs: 4,
                msgs: 1,
                bytes_per_msg: 32,
            },
            EventKind::CtsWait {
                peer: 1,
                wait_ns: 2,
            },
            EventKind::PartWait {
                msgs: 2,
                wait_ns: 3,
            },
            EventKind::EpochOpen { win: 0, wait_ns: 4 },
            EventKind::EpochClose { win: 0, puts: 5 },
            EventKind::FaultInjected {
                fault: crate::event::FaultKind::Delay,
                dst: 1,
                tag: -2,
                arg: 40,
            },
            EventKind::RetryAttempt {
                dst: 1,
                attempt: 1,
                tag: 0,
            },
            EventKind::StallDetected {
                blocked: 2,
                watchdog_ms: 250,
                quiet_ms: 260,
            },
        ];
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Event {
                ts_ns: i as u64 * 10,
                rank: (i % 3) as u16,
                kind,
            })
            .collect();
        let json = chrome_trace_json(&events, 0);
        assert_balanced_json(&json);
        for k in &kinds {
            assert!(json.contains(k.name()), "missing {}", k.name());
        }
    }
}
