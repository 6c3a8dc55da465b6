//! Analysis-grade event persistence: the `.events` sidecar format.
//!
//! A multi-process run cannot be audited from its Chrome traces — those
//! are lossy, human-oriented renderings. `pcomm-audit` needs the exact
//! event stream each rank recorded, so verify-grade runs persist their
//! ring snapshot next to the Chrome JSON as `<path>.events`, one file
//! per OS process.
//!
//! The format is deliberately trivial to parse without any external
//! crates: a single ASCII header line
//!
//! ```text
//! pcomm-events v1 rank=<r> dropped=<d> n=<n>
//! ```
//!
//! followed by exactly `n` lines, each one event as its four
//! [`Event::encode`] words in lower-case hex separated by single
//! spaces. Events round-trip bit-exactly ([`Event::decode`] is the
//! inverse), so the auditor sees precisely what the rank's ring held —
//! including the `dropped` count, which the auditor uses to demote
//! absence-based findings on truncated rings.

use std::fmt::Write as _;

use crate::event::Event;
use crate::recorder::TraceData;

/// Render a rank's snapshot in `.events` form.
pub fn events_to_string(rank: u16, data: &TraceData) -> String {
    let mut out = String::with_capacity(data.events.len() * 68 + 64);
    let _ = writeln!(
        out,
        "pcomm-events v1 rank={rank} dropped={} n={}",
        data.dropped,
        data.events.len()
    );
    for ev in &data.events {
        let w = ev.encode();
        let _ = writeln!(out, "{:x} {:x} {:x} {:x}", w[0], w[1], w[2], w[3]);
    }
    out
}

/// One rank's persisted event stream, parsed back from `.events` form.
#[derive(Debug, Clone)]
pub struct RankEvents {
    /// The rank recorded in the header (every event carries it too).
    pub rank: u16,
    /// Ring overflow count: events evicted before the snapshot. A
    /// nonzero value means the stream is a *suffix* of what happened.
    pub dropped: u64,
    /// The decoded events, in ring snapshot order.
    pub events: Vec<Event>,
}

/// Parse a `.events` document produced by [`events_to_string`].
///
/// Returns a description of the first malformed line on error; events
/// whose tag is unknown to this build are rejected rather than skipped,
/// so an auditor older than the traced runtime fails loudly.
pub fn events_from_str(text: &str) -> Result<RankEvents, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty .events file")?;
    let mut rank: Option<u16> = None;
    let mut dropped: Option<u64> = None;
    let mut n: Option<usize> = None;
    let mut fields = header.split_whitespace();
    if fields.next() != Some("pcomm-events") || fields.next() != Some("v1") {
        return Err(format!("bad header: `{header}`"));
    }
    for f in fields {
        let (k, v) = f
            .split_once('=')
            .ok_or_else(|| format!("bad field `{f}`"))?;
        match k {
            "rank" => rank = v.parse().ok(),
            "dropped" => dropped = v.parse().ok(),
            "n" => n = v.parse().ok(),
            _ => return Err(format!("unknown header field `{k}`")),
        }
    }
    let (Some(rank), Some(dropped), Some(n)) = (rank, dropped, n) else {
        return Err(format!("incomplete header: `{header}`"));
    };
    // `n` is whatever the file claims: reserve no more than the text can
    // hold (an event line is at least four hex digits and its separators).
    let mut events = Vec::with_capacity(n.min(text.len() / 8));
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut w = [0u64; 4];
        let mut parts = line.split_whitespace();
        for slot in &mut w {
            let p = parts
                .next()
                .ok_or_else(|| format!("line {}: short event line", i + 2))?;
            *slot =
                u64::from_str_radix(p, 16).map_err(|_| format!("line {}: bad hex `{p}`", i + 2))?;
        }
        if parts.next().is_some() {
            return Err(format!("line {}: trailing words", i + 2));
        }
        let ev = Event::decode(w)
            .ok_or_else(|| format!("line {}: unknown event tag {:#x}", i + 2, w[1] >> 48))?;
        events.push(ev);
    }
    if events.len() != n {
        return Err(format!(
            "header says n={n} but {} events decoded",
            events.len()
        ));
    }
    Ok(RankEvents {
        rank,
        dropped,
        events,
    })
}

/// Write a rank's snapshot to `path` in `.events` form.
pub fn write_events(path: &std::path::Path, rank: u16, data: &TraceData) -> std::io::Result<()> {
    std::fs::write(path, events_to_string(rank, data))
}

/// Read a `.events` file written by [`write_events`].
pub fn read_events(path: &std::path::Path) -> std::io::Result<RankEvents> {
    let text = std::fs::read_to_string(path)?;
    events_from_str(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ranked(mut ev: Event, rank: u16) -> Event {
        ev.rank = rank;
        ev
    }

    fn sample() -> TraceData {
        TraceData {
            events: vec![
                ranked(EventKind::Pready { part: 3 }.at(10), 1),
                ranked(
                    EventKind::VerifyWireSend {
                        peer: 0,
                        lane: 2,
                        op: 16,
                        epoch: 1,
                        seq: 99,
                    }
                    .at(20),
                    1,
                ),
                ranked(
                    EventKind::VerifyStreamCommit {
                        peer: 0,
                        lane: 1,
                        stream: 7,
                        lo: 1 << 33,
                        len: 4096,
                    }
                    .at(30),
                    1,
                ),
            ],
            dropped: 5,
        }
    }

    #[test]
    fn round_trips_bit_exact() {
        let data = sample();
        let text = events_to_string(1, &data);
        let back = events_from_str(&text).unwrap();
        assert_eq!(back.rank, 1);
        assert_eq!(back.dropped, 5);
        assert_eq!(back.events.len(), data.events.len());
        for (a, b) in back.events.iter().zip(&data.events) {
            assert_eq!(a.encode(), b.encode());
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let events: Vec<Event> = crate::event::sample_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| ranked(kind.at(10 * i as u64), 1))
            .collect();
        assert_eq!(events.len(), 45);
        let data = TraceData { events, dropped: 0 };
        let back = events_from_str(&events_to_string(1, &data)).unwrap();
        assert_eq!(back.events, data.events);
    }

    #[test]
    fn header_is_first_line() {
        let text = events_to_string(3, &sample());
        assert!(text.starts_with("pcomm-events v1 rank=3 dropped=5 n=3\n"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(events_from_str("").is_err());
        assert!(events_from_str("not-a-header\n").is_err());
        assert!(events_from_str("pcomm-events v1 rank=0 dropped=0 n=1\n").is_err());
        assert!(events_from_str("pcomm-events v1 rank=0 dropped=0 n=1\n1 2 3\n").is_err());
        // Unknown tag (0xffff) is an error, not a skip.
        assert!(
            events_from_str("pcomm-events v1 rank=0 dropped=0 n=1\n0 ffff000000000000 0 0\n")
                .is_err()
        );
        // A header that lies about `n` is an error like any other, not an
        // allocation of `n` events.
        for n in ["4398046511104", "18446744073709551615"] {
            let text = format!("pcomm-events v1 rank=0 dropped=0 n={n}\n0 5000000000000 3 0\n");
            let err = events_from_str(&text).unwrap_err();
            assert!(err.contains("1 events decoded"), "{err}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("pcomm-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.events");
        write_events(&path, 2, &sample()).unwrap();
        let back = read_events(&path).unwrap();
        assert_eq!(back.rank, 2);
        assert_eq!(back.events.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
