//! What a rank process tells the parent (one text line per value,
//! digest or span on its standard output), and the result line the
//! parent prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::{self_times_ns, Span, NO_PARENT};

/// One rank's findings for one epoch.
#[derive(Debug, Clone, Default)]
pub struct RankOut {
    pub rank: usize,
    pub values: Vec<(String, f64)>,
    /// Running FNV-1a digest over every validated iteration (receiver).
    pub digest: Option<u64>,
    pub spans: Vec<Span>,
}

impl RankOut {
    pub fn new(rank: usize) -> RankOut {
        RankOut {
            rank,
            ..RankOut::default()
        }
    }

    pub fn put(&mut self, key: impl Into<String>, value: f64) {
        self.values.push((key.into(), value));
    }

    /// `M <rank> <key> <value>`, `D <rank> <hex digest>`,
    /// `S <rank> <name> <start_ns> <end_ns> <self_ns> <parent> <iter>`;
    /// `parent` indexes this rank's spans of this epoch, -1 for none.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let own = self_times_ns(&self.spans);
        for (k, v) in &self.values {
            let _ = writeln!(out, "M {} {k} {v}", self.rank);
        }
        if let Some(d) = self.digest {
            let _ = writeln!(out, "D {} {d:016x}", self.rank);
        }
        for (s, own) in self.spans.iter().zip(own) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "S {} {} {} {} {own} {parent} {}",
                self.rank, s.name, s.start_ns, s.end_ns, s.iter
            );
        }
        out
    }
}

/// A span as the parent holds it: named by string, tagged with the
/// epoch and rank it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub epoch: String,
    pub rank: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub self_ns: u64,
    pub parent: i64,
    pub iter: u32,
}

/// Every rank's lines of one epoch, merged: `proc.*` values add up over
/// the rank processes, `rss.*` keep the largest, any other key comes
/// from the one rank that measured it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochOut {
    pub values: BTreeMap<String, f64>,
    pub digest: Option<u64>,
    pub spans: Vec<SpanRow>,
}

impl EpochOut {
    /// Merge the lines of one rank process; lines of any other form
    /// (the library's own notes) are skipped.
    pub fn absorb(&mut self, epoch: &str, text: &str) {
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["M", _rank, key, value] => {
                    let Ok(v) = value.parse::<f64>() else {
                        continue;
                    };
                    // `proc.*` add up over the rank processes, `rss.*`
                    // keep the largest, anything else has one author.
                    let slot = self.values.entry(key.to_string()).or_insert(0.0);
                    *slot = if key.starts_with("proc.") {
                        *slot + v
                    } else if key.starts_with("rss.") {
                        slot.max(v)
                    } else {
                        v
                    };
                }
                ["D", _rank, hex] => self.digest = u64::from_str_radix(hex, 16).ok(),
                ["S", rank, name, start, end, own, parent, iter] => {
                    let row = (|| {
                        Some(SpanRow {
                            epoch: epoch.to_string(),
                            rank: rank.parse().ok()?,
                            name: name.to_string(),
                            start_ns: start.parse().ok()?,
                            end_ns: end.parse().ok()?,
                            self_ns: own.parse().ok()?,
                            parent: parent.parse().ok()?,
                            iter: iter.parse().ok()?,
                        })
                    })();
                    self.spans.extend(row);
                }
                _ => {}
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }
}

/// One named, united number of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: one JSON object with exactly the keys the contract
/// names. Values print with every digit `f64` carries.
pub fn result_line(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The span file: one JSON object per span, self time included.
pub fn trace_json(workload: &str, spans: &[SpanRow]) -> String {
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"clock\": \"ns since the epoch's t0\", \"spans\": [\n"
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"epoch\": \"{}\", \"rank\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {}, \"parent\": {}, \"iter\": {}}}{sep}",
            s.epoch, s.rank, s.name, s.start_ns, s.end_ns, s.self_ns, s.parent, s.iter
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_lines_round_trip_and_merge() {
        let mut r0 = RankOut::new(0);
        r0.put("iter.p50_us", 12.345678901234);
        r0.put("proc.cpu_us", 100.0);
        r0.put("rss.hwm_kb", 9000.0);
        r0.digest = Some(0xdead_beef_0123_4567);
        r0.spans.push(Span {
            name: "part.recv_wait",
            start_ns: 10,
            end_ns: 25,
            parent: NO_PARENT,
            iter: 3,
        });
        let mut r1 = RankOut::new(1);
        r1.put("proc.cpu_us", 40.5);
        r1.put("rss.hwm_kb", 12000.0);

        let mut e = EpochOut::default();
        e.absorb("e0", &r0.to_lines());
        e.absorb("e0", "pcomm: a note from the library\n");
        e.absorb("e0", &r1.to_lines());
        assert_eq!(e.get("iter.p50_us"), Some(12.345678901234));
        assert_eq!(e.get("proc.cpu_us"), Some(140.5));
        assert_eq!(e.get("rss.hwm_kb"), Some(12000.0));
        assert_eq!(e.digest, Some(0xdead_beef_0123_4567));
        assert_eq!(e.spans.len(), 1);
        assert_eq!(e.spans[0].name, "part.recv_wait");
        assert_eq!((e.spans[0].parent, e.spans[0].self_ns), (-1, 15));
        assert_eq!((e.spans[0].rank, e.spans[0].iter), (0, 3));
    }

    /// Read `"name": {"value": <number>, "unit": "<unit>"}` back out.
    fn metric_in(line: &str, name: &str) -> (f64, String) {
        let at = line.find(&format!("\"{name}\": {{\"value\": ")).unwrap();
        let rest = &line[at..];
        let value = rest.split("\"value\": ").nth(1).unwrap();
        let value: f64 = value[..value.find(',').unwrap()].parse().unwrap();
        let unit = rest.split("\"unit\": \"").nth(1).unwrap();
        (value, unit[..unit.find('"').unwrap()].to_string())
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let metrics = [
            Metric {
                name: "iter_p50_us".into(),
                unit: "us",
                value: 351.206_897_123_4,
            },
            Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.041_237_8,
            },
        ];
        let line = result_line(35_211, 0, true, &metrics);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 35211, \"failed\": 0, \"metrics\": {"
        ));
        assert!(line.ends_with("}}") && !line.contains('\n'));
        assert_eq!(
            metric_in(&line, "iter_p50_us"),
            (351.206_897_123_4, "us".into())
        );
        assert_eq!(metric_in(&line, "setup_s"), (0.041_237_8, "s".into()));
        let bad = result_line(10, 10, false, &[]);
        assert!(bad.contains("\"correct\": false") && bad.ends_with("\"metrics\": {}}"));
    }
}
