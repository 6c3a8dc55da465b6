//! Plain-text summary report: the trace condensed into the numbers the
//! paper's figures are built from.
//!
//! Sections:
//! - per-shard lock-wait histograms (log2 buckets) — the contention
//!   picture behind the sharded-vs-single-lock experiments;
//! - message/byte counters split eager vs rendezvous (`rdv copies`
//!   counts in-process handoffs only: over the wire a rendezvous is a
//!   one-message stream and lands as `StreamCommit`, not `RdvCopy`);
//! - early-bird stats: `pready`→fabric-send gap distribution and the
//!   fraction of partition sends that overlapped application compute
//!   (issued outside any `wait`-side blocking span);
//! - aggregation fold decisions and RMA epoch counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind, FaultKind};

/// Number of log2 histogram buckets: bucket `i` counts waits in
/// `[2^i, 2^(i+1))` ns; the last bucket is open-ended.
const BUCKETS: usize = 24; // up to ~16.8 ms, ample for in-process locks

#[derive(Default, Clone)]
struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Hist {
    fn add(&mut self, ns: u64) {
        let b = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// True if instant `t` falls inside any `[start, end)` interval.
fn inside(t: u64, spans: &[(u64, u64)]) -> bool {
    spans.iter().any(|&(s, e)| s <= t && t < e)
}

/// Render `events` as a human-readable summary.
pub fn summary_report(events: &[Event], dropped: u64) -> String {
    let mut lock_by_shard: BTreeMap<u16, Hist> = BTreeMap::new();
    let mut cts = Hist::default();
    let mut gap = Hist::default();
    let (mut eager_msgs, mut eager_bytes) = (0u64, 0u64);
    let (mut rdv_msgs, mut rdv_bytes) = (0u64, 0u64);
    let (mut rdv_copies, mut rdv_copy_wait) = (0u64, 0u64);
    let mut preadys = 0u64;
    let (mut aggr_events, mut aggr_base, mut aggr_folded) = (0u64, 0u64, 0u64);
    let (mut part_waits, mut part_wait_ns) = (0u64, 0u64);
    let (mut epochs, mut epoch_wait_ns, mut rma_puts) = (0u64, 0u64, 0u64);
    let (mut probe_fast, mut probe_slow) = (0u64, 0u64);
    let mut faults_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut retries = 0u64;
    let mut stalls: Vec<(u16, u64, u64)> = Vec::new();
    let mut verify_events = 0u64;
    let (mut chunks, mut chunk_bytes, mut chunk_parts) = (0u64, 0u64, 0u64);
    let (mut commits, mut commit_bytes) = (0u64, 0u64);
    let mut chunk_lanes: BTreeMap<u16, u64> = BTreeMap::new();
    let mut wire_health: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut ring_fulls, mut ring_full_ns) = (0u64, 0u64);
    let (mut parks_rung, mut parks_timed_out) = (0u64, 0u64);
    let mut doorbell_stats: Vec<(u16, [u32; 4])> = Vec::new();

    // Per-rank wait-side blocking spans, for the overlap fraction.
    let mut blocked: BTreeMap<u16, Vec<(u64, u64)>> = BTreeMap::new();
    let mut early: Vec<(u16, u64)> = Vec::new(); // (rank, ts) of early-bird sends

    for ev in events {
        match ev.kind {
            EventKind::LockWait { shard, wait_ns } => {
                lock_by_shard.entry(shard).or_default().add(wait_ns);
            }
            EventKind::EagerSend { bytes, .. } => {
                eager_msgs += 1;
                eager_bytes += bytes;
            }
            EventKind::RdvSend { bytes, .. } => {
                rdv_msgs += 1;
                rdv_bytes += bytes;
            }
            EventKind::RdvCopy { wait_ns, .. } => {
                rdv_copies += 1;
                rdv_copy_wait += wait_ns;
            }
            EventKind::Pready { .. } => preadys += 1,
            EventKind::EarlyBird { gap_ns, .. } => {
                gap.add(gap_ns);
                early.push((ev.rank, ev.ts_ns));
            }
            EventKind::AggrLayout {
                base_msgs, msgs, ..
            } => {
                aggr_events += 1;
                aggr_base += base_msgs as u64;
                aggr_folded += msgs as u64;
            }
            EventKind::CtsWait { wait_ns, .. } => cts.add(wait_ns),
            EventKind::PartWait { wait_ns, .. } => {
                part_waits += 1;
                part_wait_ns += wait_ns;
                blocked
                    .entry(ev.rank)
                    .or_default()
                    .push((ev.ts_ns, ev.ts_ns + wait_ns));
            }
            EventKind::EpochOpen { wait_ns, .. } => {
                epochs += 1;
                epoch_wait_ns += wait_ns;
                blocked
                    .entry(ev.rank)
                    .or_default()
                    .push((ev.ts_ns, ev.ts_ns + wait_ns));
            }
            EventKind::EpochClose { puts, .. } => rma_puts += puts,
            EventKind::ProbeStats {
                fast_probes,
                slow_waits,
            } => {
                probe_fast += fast_probes;
                probe_slow += slow_waits;
            }
            EventKind::FaultInjected { fault, .. } => {
                *faults_by_kind.entry(fault.name()).or_default() += 1;
            }
            EventKind::RetryAttempt { .. } => retries += 1,
            EventKind::StallDetected {
                blocked,
                watchdog_ms,
                quiet_ms,
            } => stalls.push((blocked, watchdog_ms, quiet_ms)),
            EventKind::StreamChunk {
                lane, parts, bytes, ..
            } => {
                chunks += 1;
                chunk_bytes += bytes;
                chunk_parts += parts as u64;
                *chunk_lanes.entry(lane).or_default() += 1;
            }
            EventKind::StreamCommit { bytes, .. } => {
                commits += 1;
                commit_bytes += bytes;
            }
            EventKind::LaneDown { .. }
            | EventKind::LaneFailover { .. }
            | EventKind::Reconnect { .. }
            | EventKind::HeartbeatMiss { .. }
            | EventKind::WriterQueue { .. } => {
                *wire_health.entry(ev.kind.name()).or_default() += 1;
            }
            EventKind::IpcRingFull { wait_ns, .. } => {
                ring_fulls += 1;
                ring_full_ns += wait_ns;
            }
            EventKind::IpcDoorbell { woken, .. } => {
                if woken {
                    parks_rung += 1;
                } else {
                    parks_timed_out += 1;
                }
            }
            EventKind::IpcDoorbellStats {
                rings,
                wakes,
                parks_counted,
                parks_uncounted,
            } => doorbell_stats.push((ev.rank, [rings, wakes, parks_counted, parks_uncounted])),
            // Analysis-grade events are consumed by pcomm-verify; the
            // summary only counts them.
            k => {
                debug_assert!(k.is_verify(), "non-verify kind must have an explicit arm");
                verify_events += 1;
            }
        }
    }

    let overlapped = early
        .iter()
        .filter(|&&(rank, ts)| !inside(ts, blocked.get(&rank).map_or(&[][..], |v| v)))
        .count();

    let mut out = String::new();
    let _ = writeln!(out, "pcomm trace summary");
    let _ = writeln!(out, "===================");
    let _ = writeln!(out, "events: {}  dropped: {}", events.len(), dropped);
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        let _ = writeln!(
            out,
            "span:   {} .. {} ({})",
            fmt_ns(first.ts_ns),
            fmt_ns(last.ts_ns),
            fmt_ns(last.ts_ns.saturating_sub(first.ts_ns)),
        );
    }

    let _ = writeln!(out, "\nshard lock waits");
    let _ = writeln!(out, "----------------");
    if lock_by_shard.is_empty() {
        let _ = writeln!(out, "(none recorded)");
    }
    for (shard, h) in &lock_by_shard {
        let _ = writeln!(
            out,
            "shard {shard:>3}: {:>7} acquisitions  mean {:>10}  max {:>10}",
            h.count,
            fmt_ns(h.mean_ns()),
            fmt_ns(h.max_ns),
        );
        // Print the occupied histogram range only.
        let hi = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let peak = h.buckets.iter().copied().max().unwrap_or(1).max(1);
        for b in 0..hi {
            let bar = "#".repeat((h.buckets[b] * 40 / peak) as usize);
            let _ = writeln!(
                out,
                "  <{:>9}: {:>7} {bar}",
                fmt_ns(1u64 << (b + 1)),
                h.buckets[b],
            );
        }
    }

    let _ = writeln!(out, "\ntransfers");
    let _ = writeln!(out, "---------");
    let _ = writeln!(
        out,
        "eager:      {eager_msgs:>7} msgs  {eager_bytes:>12} bytes"
    );
    let _ = writeln!(out, "rendezvous: {rdv_msgs:>7} msgs  {rdv_bytes:>12} bytes");
    if rdv_copies > 0 {
        let _ = writeln!(
            out,
            "rdv copies: {rdv_copies:>7}       mean wait {}",
            fmt_ns(rdv_copy_wait.checked_div(rdv_copies).unwrap_or(0)),
        );
    }
    if cts.count > 0 {
        let _ = writeln!(
            out,
            "cts waits:  {:>7}       mean {}  max {}",
            cts.count,
            fmt_ns(cts.mean_ns()),
            fmt_ns(cts.max_ns),
        );
    }
    if probe_fast + probe_slow > 0 {
        let _ = writeln!(
            out,
            "probes:     {probe_fast:>7} fast  {probe_slow:>7} slow waits"
        );
    }

    let _ = writeln!(out, "\npartitioned sends");
    let _ = writeln!(out, "-----------------");
    let _ = writeln!(out, "pready calls:     {preadys}");
    let _ = writeln!(out, "early-bird sends: {}", gap.count);
    if gap.count > 0 {
        let _ = writeln!(
            out,
            "pready->send gap: mean {}  max {}",
            fmt_ns(gap.mean_ns()),
            fmt_ns(gap.max_ns),
        );
        let _ = writeln!(
            out,
            "overlap fraction: {:.1}% ({overlapped}/{} sends issued outside wait-side blocking)",
            100.0 * overlapped as f64 / gap.count as f64,
            gap.count,
        );
    }
    if aggr_events > 0 {
        let _ = writeln!(
            out,
            "aggregation:      {aggr_events} layouts, {aggr_base} base msgs folded to {aggr_folded}",
        );
    }
    if part_waits > 0 {
        let _ = writeln!(
            out,
            "part waits:       {part_waits}  total blocked {}",
            fmt_ns(part_wait_ns),
        );
    }
    if chunks + commits > 0 {
        let _ = writeln!(out, "\nwire streaming");
        let _ = writeln!(out, "--------------");
        if let Some(mean) = chunk_bytes.checked_div(chunks) {
            let _ = writeln!(
                out,
                "chunks sent:      {chunks} ({chunk_parts} partitions, {chunk_bytes} bytes, \
                 mean {mean} B/chunk)",
            );
            let lanes: Vec<String> = chunk_lanes
                .iter()
                .map(|(lane, n)| format!("lane {lane}: {n}"))
                .collect();
            let _ = writeln!(out, "lane spread:      {}", lanes.join("  "));
        }
        if commits > 0 {
            let _ = writeln!(
                out,
                "ranges committed: {commits} ({commit_bytes} bytes received)"
            );
        }
    }

    if !wire_health.is_empty() {
        let _ = writeln!(out, "\nwire health");
        let _ = writeln!(out, "-----------");
        for (name, n) in &wire_health {
            let _ = writeln!(out, "{name:<17} {n}");
        }
    }
    if ring_fulls + parks_rung + parks_timed_out > 0 || !doorbell_stats.is_empty() {
        let _ = writeln!(out, "\nipc fabric");
        let _ = writeln!(out, "----------");
        let _ = writeln!(
            out,
            "ring-full waits:  {ring_fulls}  total blocked {}",
            fmt_ns(ring_full_ns),
        );
        let _ = writeln!(
            out,
            "progress parks:   {parks_rung} rung  {parks_timed_out} timed out"
        );
        // Who paid a syscall: a ring is one atomic add unless the
        // peer's progress thread was counted asleep (then a futex wake).
        for (rank, [rings, wakes, counted, uncounted]) in &doorbell_stats {
            let _ = writeln!(
                out,
                "rank {rank} doorbell:  {rings} rings  {wakes} futex wakes  \
                 parks {counted} counted / {uncounted} uncounted",
            );
        }
    }

    if epochs + rma_puts > 0 {
        let _ = writeln!(out, "\nrma epochs");
        let _ = writeln!(out, "----------");
        let _ = writeln!(
            out,
            "epochs: {epochs}  open-wait total {}  puts {rma_puts}",
            fmt_ns(epoch_wait_ns),
        );
    }

    let fault_total: u64 = faults_by_kind.values().sum();
    if fault_total + retries > 0 || !stalls.is_empty() {
        let _ = writeln!(out, "\nchaos");
        let _ = writeln!(out, "-----");
        let _ = writeln!(out, "faults injected:  {fault_total}");
        // Stable order: the FaultKind code order, not alphabetical.
        for k in FaultKind::ALL {
            if let Some(n) = faults_by_kind.get(k.name()) {
                let _ = writeln!(out, "  {:<14} {n}", k.name());
            }
        }
        let _ = writeln!(out, "retry attempts:   {retries}");
        for (blocked, watchdog_ms, quiet_ms) in &stalls {
            let _ = writeln!(
                out,
                "STALL detected:   {blocked} blocked waits after {quiet_ms} ms quiet (watchdog {watchdog_ms} ms)"
            );
        }
    }
    if verify_events > 0 {
        let _ = writeln!(out, "\nverification");
        let _ = writeln!(out, "------------");
        let _ = writeln!(
            out,
            "verify events:    {verify_events} (run pcomm-verify for the analysis)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, rank: u16, kind: EventKind) -> Event {
        Event {
            ts_ns: ts,
            rank,
            kind,
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Hist::default();
        h.add(0); // bucket 0
        h.add(1); // bucket 0
        h.add(2); // bucket 1
        h.add(1023); // bucket 9
        h.add(u64::MAX); // clamped to last bucket
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets[BUCKETS - 1], 1);
        assert_eq!(h.count, 5);
    }

    #[test]
    fn report_counts_and_overlap() {
        let events = vec![
            ev(
                100,
                0,
                EventKind::LockWait {
                    shard: 0,
                    wait_ns: 50,
                },
            ),
            ev(
                200,
                0,
                EventKind::EagerSend {
                    dst: 1,
                    shard: 0,
                    bytes: 64,
                },
            ),
            ev(
                300,
                0,
                EventKind::RdvSend {
                    dst: 1,
                    shard: 1,
                    bytes: 1 << 20,
                },
            ),
            // Rank 0 blocks in wait() over [1000, 2000).
            ev(
                1_000,
                0,
                EventKind::PartWait {
                    msgs: 2,
                    wait_ns: 1_000,
                },
            ),
            // One early bird during the wait (not overlapped), one before it.
            ev(
                500,
                0,
                EventKind::EarlyBird {
                    msg: 0,
                    shard: 0,
                    bytes: 128,
                    gap_ns: 10,
                },
            ),
            ev(
                1_500,
                0,
                EventKind::EarlyBird {
                    msg: 1,
                    shard: 1,
                    bytes: 128,
                    gap_ns: 20,
                },
            ),
        ];
        let rpt = summary_report(&events, 2);
        assert!(rpt.contains("events: 6  dropped: 2"));
        assert!(rpt.contains("eager:            1 msgs"));
        assert!(rpt.contains("rendezvous:       1 msgs"));
        assert!(rpt.contains("early-bird sends: 2"));
        assert!(rpt.contains("overlap fraction: 50.0% (1/2"));
        assert!(rpt.contains("shard   0:"));
    }

    #[test]
    fn chaos_section_appears_when_faults_recorded() {
        let events = vec![
            ev(
                10,
                0,
                EventKind::FaultInjected {
                    fault: FaultKind::Drop,
                    dst: 1,
                    tag: 3,
                    arg: 0,
                },
            ),
            ev(
                20,
                0,
                EventKind::RetryAttempt {
                    dst: 1,
                    attempt: 1,
                    tag: 3,
                },
            ),
            ev(
                30,
                1,
                EventKind::FaultInjected {
                    fault: FaultKind::Delay,
                    dst: 0,
                    tag: 3,
                    arg: 55,
                },
            ),
            ev(
                900,
                0,
                EventKind::StallDetected {
                    blocked: 2,
                    watchdog_ms: 100,
                    quiet_ms: 130,
                },
            ),
        ];
        let rpt = summary_report(&events, 0);
        assert!(rpt.contains("chaos"));
        assert!(rpt.contains("faults injected:  2"));
        assert!(rpt.contains("drop           1"));
        assert!(rpt.contains("delay          1"));
        assert!(rpt.contains("retry attempts:   1"));
        assert!(
            rpt.contains("STALL detected:   2 blocked waits after 130 ms quiet (watchdog 100 ms)")
        );
        // A fault-free trace has no chaos section.
        assert!(!summary_report(&[], 0).contains("chaos"));
    }

    #[test]
    fn wire_faults_get_their_own_lines() {
        let fault = |ts, fault| {
            ev(
                ts,
                0,
                EventKind::FaultInjected {
                    fault,
                    dst: 1,
                    tag: -3,
                    arg: 4096,
                },
            )
        };
        let events = vec![
            fault(10, FaultKind::LaneKill),
            fault(20, FaultKind::TornWrite),
            fault(30, FaultKind::Drop),
        ];
        let rpt = summary_report(&events, 0);
        // Every injected fault is in the breakdown, in code order.
        let at = |line: &str| {
            rpt.find(line)
                .unwrap_or_else(|| panic!("no `{line}`:\n{rpt}"))
        };
        assert!(rpt.contains("faults injected:  3"));
        assert!(at("  drop           1") < at("  torn_write     1"));
        assert!(at("  torn_write     1") < at("  lane_kill      1"));
    }

    #[test]
    fn ipc_and_wire_events_are_summarised_not_fatal() {
        let events = vec![
            ev(
                5,
                0,
                EventKind::IpcRingFull {
                    peer: 1,
                    kind: 2,
                    wait_ns: 4_000,
                },
            ),
            ev(
                6,
                0,
                EventKind::IpcDoorbell {
                    seq: 3,
                    woken: true,
                },
            ),
            ev(
                7,
                1,
                EventKind::IpcDoorbell {
                    seq: 4,
                    woken: false,
                },
            ),
            ev(
                8,
                1,
                EventKind::HeartbeatMiss {
                    peer: 0,
                    quiet_ms: 9,
                },
            ),
            ev(
                9,
                1,
                EventKind::IpcDoorbellStats {
                    rings: 640,
                    wakes: 3,
                    parks_counted: 2,
                    parks_uncounted: 9,
                },
            ),
        ];
        let rpt = summary_report(&events, 0);
        assert!(rpt.contains("ipc fabric"), "{rpt}");
        assert!(rpt.contains("ring-full waits:  1"), "{rpt}");
        assert!(
            rpt.contains("progress parks:   1 rung  1 timed out"),
            "{rpt}"
        );
        assert!(
            rpt.contains(
                "rank 1 doorbell:  640 rings  3 futex wakes  parks 2 counted / 9 uncounted"
            ),
            "{rpt}"
        );
        assert!(rpt.contains("heartbeat_miss"), "{rpt}");
        assert!(!summary_report(&[], 0).contains("ipc fabric"));
    }

    #[test]
    fn streaming_section_appears_when_chunks_recorded() {
        let events = vec![
            ev(
                10,
                1,
                EventKind::StreamChunk {
                    lane: 1,
                    parts: 4,
                    offset: 0,
                    bytes: 256 * 1024,
                },
            ),
            ev(
                20,
                1,
                EventKind::StreamChunk {
                    lane: 2,
                    parts: 4,
                    offset: 256 * 1024,
                    bytes: 256 * 1024,
                },
            ),
            ev(
                30,
                0,
                EventKind::StreamCommit {
                    lane: 1,
                    msgs: 2,
                    offset: 0,
                    bytes: 256 * 1024,
                },
            ),
        ];
        let rpt = summary_report(&events, 0);
        assert!(rpt.contains("wire streaming"));
        assert!(rpt.contains("chunks sent:      2 (8 partitions"));
        assert!(rpt.contains("lane 1: 1  lane 2: 1"));
        assert!(rpt.contains("ranges committed: 1"));
        // A stream-free trace has no streaming section.
        assert!(!summary_report(&[], 0).contains("wire streaming"));
    }

    #[test]
    fn empty_trace_reports_cleanly() {
        let rpt = summary_report(&[], 0);
        assert!(rpt.contains("events: 0"));
        assert!(rpt.contains("(none recorded)"));
    }
}
