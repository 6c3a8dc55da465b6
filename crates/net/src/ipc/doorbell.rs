//! Futex doorbells: the only blocking primitive in the ipc fabric.
//!
//! A doorbell is a pair of process-shared words — a monotonic *bell*
//! counter and a *sleepers* count. The waiter side drains its work,
//! snapshots the bell ([`Doorbell::seq`]), drains again, and only then
//! parks; the notifier bumps the bell and issues a `FUTEX_WAKE` **only
//! when someone is counted in `sleepers`** — which is what makes the
//! steady state zero-syscall: a spinning (yielding) receiver never
//! costs the sender a kernel entry.
//!
//! # Who may touch `sleepers`
//!
//! Counting and parking are separate steps. [`Doorbell::wait`] does
//! both for a waiter nobody stands in for (the producer's
//! backpressure park on a space doorbell). A rank's *inbound* doorbell
//! is parked on by its progress thread, and there a [`Handoff`]
//! decides whether that park is counted: while at least one app thread
//! of the rank polls the rings the bell covers, the progress thread
//! still sleeps in `futex_wait(bell, seen, tick)` but is **not**
//! counted, so a peer's [`Doorbell::ring`] is one atomic add — no
//! syscall, no thread woken on the poller's core only to find nothing
//! to do. The first poller in un-counts an already-parked progress
//! thread on its behalf; the last poller out re-counts it and must
//! then drain once more itself. Only [`Handoff`] (under its lock) and
//! [`Doorbell::wait`] write `sleepers`; notifiers only read it.
//!
//! # Why no wake is lost
//!
//! Two races, both of the Dekker shape "store mine, load yours" with
//! every access `SeqCst`, so at least one side sees the other.
//!
//! * *Park vs ring.* The waiter counts itself, then reads the bell
//!   (`count`, and again in the kernel under `futex_wait`'s own
//!   lock); the notifier bumps the bell, then reads `sleepers`. If the
//!   notifier read `sleepers == 0` its bump precedes the waiter's
//!   count in the total order, so the waiter's bell read sees a value
//!   past its snapshot and does not sleep. Otherwise the notifier
//!   wakes it.
//! * *Last poller out vs ring.* The leaving poller re-counts the
//!   parked thread (`sleepers += 1`), reads the bell, then drains the
//!   rings; the notifier publishes its record, bumps the bell, reads
//!   `sleepers`. A notifier that read `sleepers == 0` bumped the bell
//!   before the re-count, so the poller's bell read synchronises with
//!   that bump and its drain finds the record. A notifier that read
//!   `sleepers > 0` issues the wake, and the parked thread is really
//!   in (or entering, see above) `futex_wait`.
//!
//! The progress thread's park is additionally bounded by its tick and
//! a counted [`Doorbell::wait`] by the caller's slice, so even a
//! theoretically lost wake costs one timeout, never liveness. Teardown
//! uses [`Doorbell::wake`], which skips the `sleepers` test: an
//! un-counted sleeper must still hear "stop".

use crate::sys;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

/// A bell/sleepers word pair somewhere in the shared segment.
pub struct Doorbell<'a> {
    bell: &'a AtomicU32,
    sleepers: &'a AtomicU32,
}

impl<'a> Doorbell<'a> {
    /// Wrap a bell/sleepers pair (segment layout picks the words).
    pub fn new(bell: &'a AtomicU32, sleepers: &'a AtomicU32) -> Self {
        Doorbell { bell, sleepers }
    }

    /// Snapshot the bell. Drain once more after taking this and pass it
    /// to [`Doorbell::wait`] / [`Handoff::park`] — any ring after the
    /// snapshot makes the park return immediately.
    pub fn seq(&self) -> u32 {
        // ORDERING: SeqCst like every access to the pair (module doc);
        // reading a bump also acquires the records published before it.
        self.bell.load(Ordering::SeqCst)
    }

    /// Ring the bell: make pending work visible, then wake sleepers —
    /// skipping the `futex_wake` syscall entirely when nobody is
    /// counted (the common, polling-receiver case). Returns whether a
    /// `FUTEX_WAKE` was issued.
    pub fn ring(&self) -> io::Result<bool> {
        // ORDERING: the notifier's half of both Dekker pairs — bump the
        // bell (releasing the record just published), *then* read
        // `sleepers`; SeqCst keeps the store-load pair in order.
        self.bell.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return Ok(false);
        }
        sys::futex_wake(self.bell, u32::MAX)?;
        Ok(true)
    }

    /// Ring and wake unconditionally. For teardown: a sleeper whose
    /// park is not counted (see [`Handoff`]) is invisible to
    /// [`Doorbell::ring`] and would sit out its whole timeout.
    pub fn wake(&self) -> io::Result<()> {
        // ORDERING: as `ring`; the bump makes a sleeper that has not
        // reached the kernel yet bounce off its stale snapshot.
        self.bell.fetch_add(1, Ordering::SeqCst);
        sys::futex_wake(self.bell, u32::MAX)?;
        Ok(())
    }

    /// Register one sleeper and return the bell as seen *after* the
    /// registration — the load that closes both races in the module
    /// doc. May be called on behalf of another, already parked thread.
    fn count(&self) -> u32 {
        // ORDERING: the waiter's half — register in `sleepers`, *then*
        // read the bell. A notifier that read `sleepers == 0` bumped
        // before this increment in the SeqCst order, so this load sees
        // its bump (and acquires the record published before it).
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        self.bell.load(Ordering::SeqCst)
    }

    /// Undo one [`Doorbell::count`].
    fn uncount(&self) {
        // ORDERING: un-counting early can only cost a spurious wake or
        // save one; SeqCst for a single order over the pair.
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sleep until the bell moves past `seen` or `timeout_ns` elapses,
    /// without touching `sleepers`.
    fn park(&self, seen: u32, timeout_ns: u64) -> io::Result<bool> {
        sys::futex_wait(self.bell, seen, timeout_ns)
    }

    /// Counted park until the bell moves past `seen` or `timeout_ns`
    /// elapses. Returns `Ok(true)` if (probably) rung, `Ok(false)` on
    /// timeout; callers re-drain in a loop either way.
    pub fn wait(&self, seen: u32, timeout_ns: u64) -> io::Result<bool> {
        let woken = if self.count() != seen {
            Ok(true) // rung since the snapshot: skip the syscall
        } else {
            self.park(seen, timeout_ns)
        };
        self.uncount();
        woken
    }
}

/// How one [`Handoff::park`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parked {
    /// The bell moved (or a wake arrived) rather than the timeout.
    pub woken: bool,
    /// The park was counted in `sleepers` when it began.
    pub counted: bool,
}

#[derive(Default)]
struct HandoffState {
    /// App threads currently polling the rings the bell covers.
    pollers: u32,
    /// The progress thread is inside [`Handoff::park`].
    parked: bool,
    /// The progress thread's park is counted in `sleepers`. Invariant
    /// at every unlock: `counted == (parked && pollers == 0)`.
    counted: bool,
}

/// Process-local arbiter of one inbound doorbell between the rank's
/// polling app threads and its progress thread (module doc). Touched
/// on entry to and exit from a wait, never per record.
#[derive(Default)]
pub struct Handoff {
    state: Mutex<HandoffState>,
}

impl Handoff {
    /// A hand-off with no pollers and nobody parked.
    pub fn new() -> Handoff {
        Handoff::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HandoffState> {
        // The critical sections below cannot panic half-way through an
        // update, so a poisoned lock still guards a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An app thread starts polling. The first one in takes the
    /// doorbell over: a progress thread already parked is un-counted
    /// on its behalf, so peers stop paying for wakes.
    pub fn poller_enter(&self, bell: &Doorbell<'_>) {
        let mut st = self.lock();
        st.pollers += 1;
        if st.counted {
            bell.uncount();
            st.counted = false;
        }
    }

    /// An app thread stops polling. The last one out hands the
    /// doorbell back: a parked progress thread is re-counted, and the
    /// caller **must drain the rings once more** when this returns
    /// `true` — a peer may have published while nobody was counted.
    #[must_use = "the last poller out must drain once more"]
    pub fn poller_exit(&self, bell: &Doorbell<'_>) -> bool {
        let mut st = self.lock();
        st.pollers -= 1;
        if st.pollers == 0 && st.parked {
            bell.count();
            st.counted = true;
            return true;
        }
        false
    }

    /// Whether an app thread polls the rings now (it drains them: the
    /// progress thread has nothing to watch for).
    pub fn polled(&self) -> bool {
        self.lock().pollers > 0
    }

    /// The progress thread parks until the bell moves past `seen` or
    /// `timeout_ns` elapses — counted only while no app thread polls.
    pub fn park(&self, bell: &Doorbell<'_>, seen: u32, timeout_ns: u64) -> io::Result<Parked> {
        let counted = {
            let mut st = self.lock();
            let counted = st.pollers == 0;
            if counted && bell.count() != seen {
                // Rung since the snapshot: no sleep, no syscall.
                bell.uncount();
                return Ok(Parked {
                    woken: true,
                    counted,
                });
            }
            st.parked = true;
            st.counted = counted;
            counted
        };
        let woken = bell.park(seen, timeout_ns);
        let mut st = self.lock();
        st.parked = false;
        // A poller may have come (un-counted us) or gone (re-counted
        // us) meanwhile: settle whatever the state says now.
        if std::mem::take(&mut st.counted) {
            bell.uncount();
        }
        Ok(Parked {
            woken: woken?,
            counted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    const LONG_NS: u64 = 5_000_000_000;

    fn sleepers_of(db: &Doorbell<'_>) -> u32 {
        db.sleepers.load(Ordering::SeqCst)
    }

    #[test]
    fn ring_wakes_waiter_across_threads() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let db = Doorbell::new(&bell, &sleepers);
                let seen = db.seq();
                db.wait(seen, 2_000_000_000).unwrap()
            });
            let db = Doorbell::new(&bell, &sleepers);
            while sleepers.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            assert!(db.ring().unwrap(), "a counted sleeper costs a wake");
            assert!(waiter.join().unwrap());
        });
    }

    #[test]
    fn stale_snapshot_returns_immediately() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        let db = Doorbell::new(&bell, &sleepers);
        let seen = db.seq();
        assert!(!db.ring().unwrap(), "nobody counted: no wake issued");
        // Bell moved after the snapshot: wait must not block.
        assert!(db.wait(seen, LONG_NS).unwrap());
        assert_eq!(sleepers_of(&db), 0);
        let parked = Handoff::new().park(&db, seen, LONG_NS).unwrap();
        assert!(parked.woken && parked.counted);
        assert_eq!(sleepers_of(&db), 0);
    }

    /// Spin until the hand-off reports the progress thread parked.
    fn await_parked(h: &Handoff) {
        while !h.lock().parked {
            std::thread::yield_now();
        }
    }

    #[test]
    fn first_poller_in_uncounts_a_parked_waiter_and_last_out_recounts_it() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        let h = Handoff::new();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let db = Doorbell::new(&bell, &sleepers);
                h.park(&db, db.seq(), LONG_NS).unwrap()
            });
            let db = Doorbell::new(&bell, &sleepers);
            await_parked(&h);
            assert_eq!(sleepers_of(&db), 1, "nobody polls: the park is counted");

            h.poller_enter(&db);
            assert_eq!(sleepers_of(&db), 0, "first poller in un-counts the waiter");
            h.poller_enter(&db);
            assert!(!h.poller_exit(&db), "a poller remains: nothing handed back");
            assert_eq!(sleepers_of(&db), 0);
            assert!(h.poller_exit(&db), "last poller out must drain once more");
            assert_eq!(sleepers_of(&db), 1, "last poller out re-counts the waiter");

            assert!(db.ring().unwrap(), "the re-counted waiter is woken");
            let parked = waiter.join().unwrap();
            assert!(parked.woken && parked.counted);
            assert_eq!(
                sleepers_of(&db),
                0,
                "the waiter un-counts itself on the way out"
            );
        });
    }

    #[test]
    fn a_park_under_a_poller_is_not_counted_and_costs_the_ringer_nothing() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        let h = Handoff::new();
        let db = Doorbell::new(&bell, &sleepers);
        h.poller_enter(&db);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let db = Doorbell::new(&bell, &sleepers);
                h.park(&db, db.seq(), 50_000_000).unwrap()
            });
            await_parked(&h);
            assert_eq!(sleepers_of(&db), 0);
            assert!(!db.ring().unwrap(), "an un-counted sleeper costs no wake");
            let parked = waiter.join().unwrap();
            assert!(!parked.counted);
        });
        assert!(!h.poller_exit(&db), "nobody parked: nothing to hand back");
        assert_eq!(sleepers_of(&db), 0);
    }

    #[test]
    fn unconditional_wake_reaches_an_uncounted_sleeper() {
        if !sys::supported() {
            return;
        }
        let bell = AtomicU32::new(0);
        let sleepers = AtomicU32::new(0);
        let h = Handoff::new();
        let db = Doorbell::new(&bell, &sleepers);
        h.poller_enter(&db);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let db = Doorbell::new(&bell, &sleepers);
                let t0 = Instant::now();
                let parked = h.park(&db, db.seq(), LONG_NS).unwrap();
                (parked, t0.elapsed())
            });
            await_parked(&h);
            // Let the waiter reach the kernel; a wake that lands before
            // it does still works (the bell moved), this only makes the
            // test exercise FUTEX_WAKE rather than EAGAIN.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(sleepers_of(&db), 0);
            db.wake().unwrap();
            let (parked, took) = waiter.join().unwrap();
            assert!(parked.woken && !parked.counted);
            assert!(
                took < Duration::from_secs(2),
                "un-counted sleeper sat out {took:?} of its timeout"
            );
        });
        let _ = h.poller_exit(&db);
    }
}
