//! Small synchronization helpers for the real runtime.
//!
//! [`Mutex`] and [`Condvar`] are thin std-only shims with the ergonomic
//! (`parking_lot`-style) API the runtime uses: `lock()` returns the guard
//! directly and `Condvar::wait_timeout` takes the guard by `&mut`.
//! Poisoning is
//! deliberately ignored — a rank thread that panics propagates its panic
//! through `Universe::run` anyway, so poison adds no safety and would
//! only turn clean panics into double panics. Keeping the shim here means
//! the workspace builds offline with no external crates. Every `lock()`
//! bumps a per-thread counter ([`crate::hotpath`]) so tests can assert
//! that probe paths acquire zero locks.
//!
//! [`Completion`] is the runtime's one-shot completion flag, rebuilt as a
//! futex-style atomic state machine: the probe path is a single atomic
//! load, setters take no lock unless a waiter actually parked, and
//! waiters spin briefly before registering for `thread::park`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::hotpath;

/// A mutex whose `lock()` returns the guard directly (poison-ignoring).
#[derive(Default, Debug)]
pub(crate) struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait_timeout`] can
/// take it by value (as std requires) while callers keep borrowing the
/// wrapper.
pub(crate) struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, ignoring poison.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        hotpath::count_mutex_lock();
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquire the lock only if it is free right now (poison-ignoring).
    /// `None` when any thread — this one included — already holds it,
    /// which is exactly what reentrant progress paths need: a nested
    /// drain skips the channel its caller is already draining.
    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => {
                hotpath::count_mutex_lock();
                Some(MutexGuard { inner: Some(g) })
            }
            Err(std::sync::TryLockError::Poisoned(e)) => {
                hotpath::count_mutex_lock();
                Some(MutexGuard {
                    inner: Some(e.into_inner()),
                })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not in a condvar wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not in a condvar wait")
    }
}

/// Condition variable working on [`MutexGuard`] by `&mut`.
#[derive(Default, Debug)]
pub(crate) struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub(crate) fn new() -> Condvar {
        Condvar::default()
    }

    /// Atomically release the lock and wait for a notification, giving
    /// up after `timeout`. Spurious wakeups are allowed either way, so
    /// callers re-check their predicate in a loop; the timeout exists so
    /// the loop can also poll an abort flag instead of blocking forever.
    pub(crate) fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let inner = guard.inner.take().expect("guard already waiting");
        let (inner, _timed_out) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(inner);
    }

    /// Wake all waiters.
    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A value alone on its cache line, for a counter one thread bumps per
/// message while others read the fields next to it: that false sharing
/// cost `small_shm` about a quarter of its iteration on a 2-vCPU x86
/// guest. 128 bytes covers x86's adjacent-line prefetch and the
/// 128-byte lines of some aarch64 parts.
#[repr(align(128))]
#[derive(Default, Debug)]
pub(crate) struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Completion states.
const UNSET: u32 = 0;
const SET: u32 = 1;
/// Unset, with at least one waiter registered for unpark.
const PARKED: u32 = 2;

/// Probe-path spins before a waiter registers itself and parks. A
/// `spin_loop` is an x86 `PAUSE`, which costs over 100 cycles on recent
/// Intel cores: 1024 of them took 10–16 µs (p50 of 2000 samples) on
/// 2-vCPU Xeon guests. A completion set within that window never parks
/// its waiter, so the common wait stays lock-free.
const SPIN_LIMIT: u32 = 1024;

/// Effective spin budget. Spinning only pays off when the setter can run
/// on *another* core during the spin; on a single-CPU machine the spin
/// just steals the setter's timeslice, so waiters park (yielding the
/// core) immediately — the pre-atomics condvar behavior.
fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_LIMIT,
        _ => 0,
    })
}

/// A one-shot completion flag: futex-style atomic state machine.
///
/// The state is a single `AtomicU32` (`UNSET → SET`, or
/// `UNSET → PARKED → SET` when a waiter blocks):
///
/// * [`is_set`] — one atomic load, no lock, ever (the `MPI_Test` path).
/// * [`set`] — one atomic swap; it touches the waiter list only if a
///   waiter actually parked (then it unparks them all).
/// * [`wait`] — loads, then spins up to [`SPIN_LIMIT`], then registers
///   its thread handle under the (slow-path-only) waiter mutex and
///   `thread::park`s until the setter unparks it.
/// * [`reset`] — re-arms the flag for the next iteration, so persistent
///   requests reuse one allocation across their whole lifetime.
///
/// [`is_set`]: Completion::is_set
/// [`set`]: Completion::set
/// [`wait`]: Completion::wait
/// [`reset`]: Completion::reset
#[derive(Default)]
pub(crate) struct Completion {
    state: AtomicU32,
    /// Threads parked in [`wait`](Completion::wait); touched only on the
    /// slow path (state `PARKED`), never by probes.
    waiters: std::sync::Mutex<Vec<Thread>>,
}

impl Completion {
    pub(crate) fn new() -> Arc<Completion> {
        Arc::new(Completion::default())
    }

    /// A completion that starts in the set state (used by persistent
    /// requests so "not yet started" probes answer `true`, matching the
    /// MPI inactive-request convention).
    pub(crate) fn new_set() -> Arc<Completion> {
        let c = Completion::default();
        c.state.store(SET, Ordering::Release);
        Arc::new(c)
    }

    /// Mark complete and wake all waiters. Idempotent. Lock-free unless a
    /// waiter parked.
    pub(crate) fn set(&self) {
        if self.state.swap(SET, Ordering::AcqRel) == PARKED {
            let woken =
                std::mem::take(&mut *self.waiters.lock().unwrap_or_else(|e| e.into_inner()));
            for t in woken {
                t.unpark();
            }
        }
    }

    /// Re-arm for the next iteration.
    ///
    /// Caller must guarantee quiescence: no concurrent `wait`/`set` and
    /// no fabric thread still holding this completion for the previous
    /// iteration. The persistent-request state machines provide this —
    /// `reset` is only called from `start()`, which the API contract
    /// orders after the previous `wait()`.
    pub(crate) fn reset(&self) {
        debug_assert!(
            self.waiters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "reset with parked waiters"
        );
        self.state.store(UNSET, Ordering::Release);
    }

    /// Block until complete: spin-then-park. Production waits go through
    /// `Fabric::wait_on` (abort-aware, built on [`Completion::wait_timeout`]);
    /// the unbounded form remains for tests of the parking machinery.
    #[cfg(test)]
    pub(crate) fn wait(&self) {
        if self.state.load(Ordering::Acquire) == SET {
            hotpath::count_fast_probe();
            return;
        }
        for _ in 0..spin_limit() {
            std::hint::spin_loop();
            if self.state.load(Ordering::Acquire) == SET {
                return;
            }
        }
        hotpath::count_slow_wait();
        // Register under the waiter lock, then park. Ordering argument:
        // `set` swaps the state to SET *before* draining the waiter list,
        // and we push our handle *before* releasing the lock; so either
        // our CAS below observes SET (return), or `set` observes PARKED
        // and blocks on the waiter lock until our handle is visible.
        {
            let mut ws = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
            match self
                .state
                .compare_exchange(UNSET, PARKED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) | Err(PARKED) => ws.push(std::thread::current()),
                Err(_) => return, // SET won the race
            }
        }
        loop {
            std::thread::park();
            if self.state.load(Ordering::Acquire) == SET {
                return;
            }
            // Spurious wakeup (or stale permit): our handle is still
            // registered, just park again.
        }
    }

    /// Non-blocking probe: a single atomic load.
    #[inline]
    pub(crate) fn is_set(&self) -> bool {
        hotpath::count_fast_probe();
        self.state.load(Ordering::Acquire) == SET
    }

    /// Block until complete or until `timeout` elapses; `true` if the
    /// completion is set. Same registration discipline as
    /// [`wait`](Completion::wait) but parks with a deadline
    /// (`park_timeout`) and deregisters its thread handle on timeout, so
    /// an abandoned timed wait leaves no stale entry for `set` to unpark.
    ///
    /// This is the primitive behind the abort-aware blocking paths: the
    /// fabric waits in short slices and checks its abort flag between
    /// them, and the watchdog supervisor sleeps on its shutdown flag
    /// with this instead of a bare `sleep`.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        if self.state.load(Ordering::Acquire) == SET {
            hotpath::count_fast_probe();
            return true;
        }
        let deadline = Instant::now() + timeout;
        for _ in 0..spin_limit() {
            std::hint::spin_loop();
            if self.state.load(Ordering::Acquire) == SET {
                return true;
            }
        }
        hotpath::count_slow_wait();
        {
            let mut ws = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
            match self
                .state
                .compare_exchange(UNSET, PARKED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) | Err(PARKED) => ws.push(std::thread::current()),
                Err(_) => return true, // SET won the race
            }
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                // Deregister under the waiter lock. `set` drains the list
                // *after* swapping the state, so with the lock held either
                // the state is already SET (we won after all) or our
                // removal is visible to any later `set`.
                let mut ws = self.waiters.lock().unwrap_or_else(|e| e.into_inner());
                if self.state.load(Ordering::Acquire) == SET {
                    return true;
                }
                let me = std::thread::current().id();
                ws.retain(|t| t.id() != me);
                return false;
            }
            std::thread::park_timeout(deadline - now);
            if self.state.load(Ordering::Acquire) == SET {
                return true;
            }
        }
    }
}

/// The spin target for [`spin_for_micros`], sanitized: `None` for
/// non-positive or NaN inputs (nothing to spin), otherwise a duration
/// whose nanosecond count saturates instead of overflowing.
pub(crate) fn spin_target(micros: f64) -> Option<std::time::Duration> {
    if micros.is_nan() || micros <= 0.0 {
        return None;
    }
    let ns = micros * 1000.0;
    // `as` saturates on overflow and would map NaN to 0, but be explicit:
    // anything beyond u64::MAX ns (~584 years) pins to the maximum.
    let ns = if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns as u64
    };
    Some(std::time::Duration::from_nanos(ns))
}

/// Spin for `micros` microseconds of wall time.
///
/// `std::thread::sleep` has ~50 µs granularity on Linux, far too coarse
/// for injecting the µs-scale compute delays the benchmarks need; a
/// calibrated busy-wait keeps the thread hot, like real compute would.
/// Non-positive, NaN and overflowing inputs are sanitized by
/// [`spin_target`] rather than cast blindly.
pub fn spin_for_micros(micros: f64) {
    let Some(target) = spin_target(micros) else {
        return;
    };
    let start = std::time::Instant::now();
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn completion_set_then_wait() {
        let c = Completion::new();
        assert!(!c.is_set());
        c.set();
        assert!(c.is_set());
        c.wait(); // returns immediately
    }

    #[test]
    fn completion_wakes_blocked_waiter() {
        let c = Completion::new();
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            c2.wait();
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        c.set();
        assert!(t.join().unwrap());
    }

    #[test]
    fn completion_wakes_many_parked_waiters() {
        let c = Completion::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || c.wait()));
        }
        // Long enough that every waiter exhausts its spin budget and
        // actually parks.
        std::thread::sleep(Duration::from_millis(30));
        c.set();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn completion_set_is_idempotent() {
        let c = Completion::new();
        c.set();
        c.set();
        assert!(c.is_set());
    }

    #[test]
    fn completion_reset_rearms() {
        let c = Completion::new();
        for _ in 0..3 {
            assert!(!c.is_set());
            c.set();
            c.wait();
            c.reset();
        }
        assert!(!c.is_set());
    }

    #[test]
    fn completion_new_set_starts_set() {
        let c = Completion::new_set();
        assert!(c.is_set());
        c.reset();
        assert!(!c.is_set());
    }

    #[test]
    fn completion_probe_takes_no_mutex() {
        let c = Completion::new();
        c.set();
        let before = crate::hotpath::thread_stats();
        for _ in 0..1000 {
            assert!(c.is_set());
        }
        let after = crate::hotpath::thread_stats();
        assert_eq!(after.mutex_locks, before.mutex_locks, "is_set locked");
        assert_eq!(
            after.completion_fast_probes - before.completion_fast_probes,
            1000
        );
    }

    #[test]
    fn completion_hammered_from_many_threads() {
        // Waiters racing the setter through the spin/park boundary.
        for _ in 0..50 {
            let c = Completion::new();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let c = Arc::clone(&c);
                    s.spawn(move || c.wait());
                }
                c.set();
            });
        }
    }

    #[test]
    fn wait_timeout_times_out_then_recovers() {
        let c = Completion::new();
        let t0 = Instant::now();
        assert!(!c.wait_timeout(Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        // The timed-out waiter deregistered; set still works and a
        // subsequent timed wait returns immediately.
        c.set();
        assert!(c.wait_timeout(Duration::from_millis(5)));
        c.wait(); // immediate
    }

    #[test]
    fn wait_timeout_wakes_on_set() {
        let c = Completion::new();
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        let t0 = Instant::now();
        c.set();
        assert!(t.join().unwrap(), "waiter must observe the set");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "set must wake the parked timed waiter promptly"
        );
    }

    #[test]
    fn wait_timeout_mixes_with_plain_waiters() {
        let c = Completion::new();
        std::thread::scope(|s| {
            let c1 = Arc::clone(&c);
            s.spawn(move || c1.wait());
            let c2 = Arc::clone(&c);
            s.spawn(move || {
                // Time out once, then block until set.
                c2.wait_timeout(Duration::from_millis(2));
                c2.wait();
            });
            std::thread::sleep(Duration::from_millis(20));
            c.set();
        });
    }

    #[test]
    fn spin_waits_roughly_right() {
        let t0 = Instant::now();
        spin_for_micros(200.0);
        let e = t0.elapsed();
        assert!(e >= Duration::from_micros(200), "spun only {e:?}");
        assert!(e < Duration::from_millis(50), "spun way too long {e:?}");
    }

    #[test]
    fn spin_zero_is_noop() {
        spin_for_micros(0.0);
        spin_for_micros(-5.0);
    }

    #[test]
    fn spin_target_rejects_nan_and_nonpositive() {
        assert_eq!(spin_target(f64::NAN), None);
        assert_eq!(spin_target(0.0), None);
        assert_eq!(spin_target(-1.0), None);
        assert_eq!(spin_target(f64::NEG_INFINITY), None);
    }

    #[test]
    fn spin_target_saturates_on_huge_inputs() {
        // 1e30 µs = 1e33 ns overflows u64; must clamp, not wrap.
        assert_eq!(spin_target(1e30), Some(Duration::from_nanos(u64::MAX)));
        assert_eq!(
            spin_target(f64::INFINITY),
            Some(Duration::from_nanos(u64::MAX))
        );
        // Ordinary values convert exactly.
        assert_eq!(spin_target(2.5), Some(Duration::from_nanos(2500)));
    }

    #[test]
    fn spin_nan_returns_immediately() {
        let t0 = Instant::now();
        spin_for_micros(f64::NAN);
        assert!(t0.elapsed() < Duration::from_millis(10));
    }
}
