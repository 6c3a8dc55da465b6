//! Hot-path observability counters.
//!
//! The atomics-first runtime makes one promise on its probe paths:
//! completed-operation probes (`Completion::is_set`, `parrived`) are a
//! single atomic load. This module makes it *testable* with per-thread
//! counters ([`thread_stats`]): every acquisition of a runtime mutex
//! ([`crate::sync::Mutex`]) and every completion fast-probe / slow-wait
//! is counted in a thread-local `Cell` (a plain non-atomic increment,
//! ~1 ns). A test can assert "this probe loop acquired zero locks"
//! without interference from concurrently running tests, because only
//! the calling thread's counters move.
//!
//! [`Universe::run`](crate::Universe::run) additionally emits a
//! `ProbeStats` trace event per rank at rank exit when tracing is
//! enabled, carrying that rank thread's fast/slow probe deltas.

use std::cell::Cell;

thread_local! {
    static MUTEX_LOCKS: Cell<u64> = const { Cell::new(0) };
    static FAST_PROBES: Cell<u64> = const { Cell::new(0) };
    static SLOW_WAITS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's hot-path counters.
///
/// All counters are monotonic; measure a code region by taking the
/// difference of two snapshots on the same thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadHotpathStats {
    /// Acquisitions of runtime mutexes (`crate::sync::Mutex::lock`) by
    /// this thread. A lock-free probe path leaves this unchanged.
    pub mutex_locks: u64,
    /// `Completion` probes answered by the single-atomic-load fast path
    /// (`is_set`, and the immediate-return path of `wait`).
    pub completion_fast_probes: u64,
    /// Times this thread fell through to the spin-then-park slow path of
    /// `Completion::wait`.
    pub completion_slow_waits: u64,
}

/// This thread's counters so far.
pub fn thread_stats() -> ThreadHotpathStats {
    ThreadHotpathStats {
        mutex_locks: MUTEX_LOCKS.with(Cell::get),
        completion_fast_probes: FAST_PROBES.with(Cell::get),
        completion_slow_waits: SLOW_WAITS.with(Cell::get),
    }
}

#[inline]
pub(crate) fn count_mutex_lock() {
    MUTEX_LOCKS.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_fast_probe() {
    FAST_PROBES.with(|c| c.set(c.get() + 1));
}

#[inline]
pub(crate) fn count_slow_wait() {
    SLOW_WAITS.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counters_are_thread_local() {
        let before = thread_stats();
        count_mutex_lock();
        count_fast_probe();
        count_fast_probe();
        let t = std::thread::spawn(move || {
            // A fresh thread starts from zero regardless of this thread.
            count_slow_wait();
            thread_stats().completion_slow_waits
        });
        assert_eq!(t.join().unwrap(), 1);
        let after = thread_stats();
        assert_eq!(after.mutex_locks - before.mutex_locks, 1);
        assert_eq!(
            after.completion_fast_probes - before.completion_fast_probes,
            2
        );
        // The spawned thread's slow wait did not land on this thread.
        assert_eq!(after.completion_slow_waits, before.completion_slow_waits);
    }
}
