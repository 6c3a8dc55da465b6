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

use crate::event::Event;

fn ts_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
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
        let pid = ev.rank;
        let tid = ev.kind.lane();
        let _ = match ev.kind.dur_ns() {
            Some(dur) => write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"pcomm\",\"ph\":\"X\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{",
                ts_us(ev.ts_ns),
                ts_us(dur),
            ),
            None => write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"pcomm\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{",
                ts_us(ev.ts_ns),
            ),
        };
        // The args are the event's fields, by name, in declaration order.
        let mut first_arg = true;
        ev.kind.for_each_field(&mut |key, value| {
            let comma = if first_arg { "" } else { "," };
            first_arg = false;
            let _ = write!(out, "{comma}\"{key}\":{value}");
        });
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

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
        let kinds = crate::event::sample_kinds();
        assert_eq!(kinds.len(), 45);
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
            assert!(
                json.contains(&format!("{{\"name\":\"{}\",\"cat\"", k.name())),
                "missing {}",
                k.name()
            );
            // Every field is an arg, under its own name.
            k.for_each_field(&mut |key, value| {
                assert!(
                    json.contains(&format!("\"{key}\":{value}")),
                    "{}.{key}",
                    k.name()
                );
            });
        }
    }
}
