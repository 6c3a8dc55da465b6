//! The multithreaded recorder: per-thread bounded rings, merged at
//! teardown.
//!
//! # Hot path
//!
//! Each recording thread owns a private *lane* — a bounded ring of
//! atomic 4-word slots. `record` is lock-free: one thread-local cache
//! lookup, four relaxed stores and two release stores (the seqlock
//! publication). No allocation, no shared mutable state, no mutex. A
//! lane is registered once per thread (one mutex acquisition, off the
//! hot path); the thread-local cache makes every later record hit the
//! lane directly.
//!
//! # Overflow
//!
//! A full lane wraps: the newest event overwrites the oldest and the
//! overwritten event counts as dropped. Teardown traces therefore keep
//! the *most recent* window of activity, which is what post-mortem
//! analysis wants.
//!
//! # Merge
//!
//! [`RingRecorder::snapshot`] validates every slot through its sequence
//! word (a torn slot — one being overwritten concurrently — is counted
//! dropped, never mis-decoded) and merges all lanes into timestamp
//! order. Snapshots taken after the writing threads have quiesced (the
//! `Universe` teardown path) observe every event exactly once.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::recorder::{Recorder, TraceData};

/// Hard cap on per-thread lanes per recorder: a runaway thread-spawner cannot
/// allocate unbounded trace memory; excess threads' events are dropped.
const MAX_THREAD_LANES: usize = 1024;

/// One 4-word event slot published through a sequence word.
///
/// Writer protocol (single writer per lane): `seq := 2i+1` (release),
/// payload words (relaxed), `seq := 2i+2` (release). A reader accepts
/// the slot for index `i` only if it observes `seq == 2i+2` both before
/// and after reading the payload.
struct Slot {
    seq: AtomicU64,
    w: [AtomicU64; 4],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            w: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A single-producer bounded ring.
struct Lane {
    /// Total events ever written to this lane (monotonic).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Lane {
    fn new(cap: usize) -> Arc<Lane> {
        Arc::new(Lane {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        })
    }

    /// Producer-side push (must only be called from the owning thread).
    fn push(&self, ev: &Event) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        let words = ev.encode();
        slot.seq.store(2 * i + 1, Ordering::Release);
        for (s, &w) in slot.w.iter().zip(words.iter()) {
            s.store(w, Ordering::Relaxed);
        }
        slot.seq.store(2 * i + 2, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Reader-side scan: the retained window in write order, plus the
    /// count of dropped (overwritten or torn) events.
    fn scan(&self) -> (Vec<Event>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut dropped = first; // overwritten by wraparound
        let mut out = Vec::with_capacity((head - first) as usize);
        for i in first..head {
            let slot = &self.slots[(i % cap) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            let words = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
            ];
            let seq2 = slot.seq.load(Ordering::Acquire);
            let expect = 2 * i + 2;
            match (seq1 == expect && seq2 == expect, Event::decode(words)) {
                (true, Some(ev)) => out.push(ev),
                _ => dropped += 1, // torn or in-flight slot
            }
        }
        (out, dropped)
    }
}

/// Per-thread bounded ring recorder for the real runtime.
///
/// Create once per traced run, share as `Arc<RingRecorder>` across rank
/// and worker threads, and [`snapshot`](RingRecorder::snapshot) after
/// they have joined.
pub struct RingRecorder {
    /// Process-unique id keyed by the thread-local lane cache.
    id: u64,
    lane_cap: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Events dropped because the lane table was full.
    overflow_dropped: AtomicU64,
}

static NEXT_RECORDER_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Single-entry cache: (recorder id, this thread's lane in it).
    static LANE_CACHE: RefCell<Option<(u64, Arc<Lane>)>> = const { RefCell::new(None) };
}

impl RingRecorder {
    /// A recorder whose lanes retain the last `lane_cap` events each.
    pub fn new(lane_cap: usize) -> Arc<RingRecorder> {
        assert!(lane_cap >= 1, "lane capacity must be at least 1");
        Arc::new(RingRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed) as u64,
            lane_cap,
            lanes: Mutex::new(Vec::new()),
            overflow_dropped: AtomicU64::new(0),
        })
    }

    /// Events retained per thread before wraparound.
    pub fn lane_capacity(&self) -> usize {
        self.lane_cap
    }

    /// The calling thread's lane, registering one on first use.
    fn lane(&self) -> Option<Arc<Lane>> {
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, lane)) = cache.as_ref() {
                if *id == self.id {
                    return Some(Arc::clone(lane));
                }
            }
            let mut lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
            if lanes.len() >= MAX_THREAD_LANES {
                return None;
            }
            let lane = Lane::new(self.lane_cap);
            lanes.push(Arc::clone(&lane));
            *cache = Some((self.id, Arc::clone(&lane)));
            Some(lane)
        })
    }

    /// Merge all lanes into a timestamp-ordered trace. Call after the
    /// recording threads have quiesced for an exact snapshot; concurrent
    /// snapshots are safe but may count in-flight slots as dropped.
    pub fn snapshot(&self) -> TraceData {
        let lanes: Vec<Arc<Lane>> = self.lanes.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut events = Vec::new();
        let mut dropped = self.overflow_dropped.load(Ordering::Relaxed);
        for lane in lanes {
            let (evs, d) = lane.scan();
            events.extend(evs);
            dropped += d;
        }
        TraceData::from_events(events, dropped)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, ev: Event) {
        match self.lane() {
            Some(lane) => lane.push(&ev),
            None => {
                self.overflow_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> Event {
        Event {
            ts_ns: ts,
            rank: 0,
            kind: EventKind::Pready { part: ts },
        }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let r = RingRecorder::new(64);
        for i in 0..10 {
            r.record(ev(i));
        }
        let td = r.snapshot();
        assert_eq!(td.dropped, 0);
        let ts: Vec<u64> = td.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let r = RingRecorder::new(8);
        for i in 0..20 {
            r.record(ev(i));
        }
        let td = r.snapshot();
        assert_eq!(td.dropped, 12, "20 written, 8 retained");
        let ts: Vec<u64> = td.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, (12..20).collect::<Vec<u64>>(), "newest window survives");
    }

    #[test]
    fn exact_capacity_drops_nothing() {
        let r = RingRecorder::new(8);
        for i in 0..8 {
            r.record(ev(i));
        }
        let td = r.snapshot();
        assert_eq!(td.dropped, 0);
        assert_eq!(td.events.len(), 8);
    }

    #[test]
    fn lanes_merge_across_threads() {
        let r = RingRecorder::new(128);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..50 {
                        r.record(ev(t * 1000 + i));
                    }
                });
            }
        });
        let td = r.snapshot();
        assert_eq!(td.events.len(), 200);
        assert_eq!(td.dropped, 0);
        assert!(td.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn per_thread_wraparound_sums_drop_counts() {
        let r = RingRecorder::new(16);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..40 {
                        r.record(ev(i));
                    }
                });
            }
        });
        let td = r.snapshot();
        assert_eq!(td.events.len(), 3 * 16);
        assert_eq!(td.dropped, 3 * 24);
    }

    #[test]
    fn concurrent_snapshot_never_misdecodes() {
        // A reader racing the writer must only ever see valid events or
        // count the slot dropped — never decode garbage.
        let r = RingRecorder::new(32);
        std::thread::scope(|s| {
            let writer = Arc::clone(&r);
            s.spawn(move || {
                for i in 0..50_000 {
                    writer.record(ev(i));
                }
            });
            for _ in 0..100 {
                let td = r.snapshot();
                for e in &td.events {
                    assert!(matches!(e.kind, EventKind::Pready { part } if part == e.ts_ns));
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = RingRecorder::new(0);
    }
}
