//! One-sided (RMA) communication over shared memory.
//!
//! A window exposes a byte region of the *target* rank; the *origin*
//! `put`s into it directly (a real memcpy into shared memory — the
//! in-process analogue of NIC-driven RDMA). Synchronization:
//!
//! * **Active (PSCW)**: target `post`s, origin `start_epoch`s (blocks for
//!   the post), puts, `complete_epoch`s; target `wait_epoch`s for the
//!   completion notice. Control messages are real 0/8-byte sends on the
//!   window's context.
//! * **Passive**: `lock` (MPI_MODE_NOCHECK — local), puts, `flush`
//!   (memory fence; local puts are synchronous so remote completion is
//!   immediate), `unlock`. Exposure is managed by the caller with 0-byte
//!   messages, as the paper's passive strategies do (§2.3.3).
//!
//! # Safety
//!
//! Window memory is an `UnsafeCell` shared across threads. Soundness
//! rests on the epoch protocol: the target must not read the window
//! between its `post`/exposure and the matching `wait_epoch`/done
//! notification, and origins must not put outside an epoch. The control
//! messages travel through mutexes, establishing the happens-before
//! edges that make the plain memcpys race-free under that protocol.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pcomm_trace::EventKind;

use crate::comm::Comm;

/// Tag for the active-target "post" notification.
const TAG_POST: i64 = -11;
/// Tag for the active-target "complete" notification (payload: put count).
const TAG_COMPLETE: i64 = -12;

/// Shared window memory (registered in the fabric by the target).
pub struct WinMem {
    data: UnsafeCell<Box<[u8]>>,
    /// Puts that have landed in the current exposure epoch.
    arrived: AtomicU64,
}

// SAFETY: access is governed by the epoch protocol documented above.
unsafe impl Sync for WinMem {}
unsafe impl Send for WinMem {}

impl WinMem {
    pub(crate) fn new(len: usize) -> Arc<WinMem> {
        Arc::new(WinMem {
            data: UnsafeCell::new(vec![0u8; len].into_boxed_slice()),
            arrived: AtomicU64::new(0),
        })
    }

    pub(crate) fn len(&self) -> usize {
        // SAFETY: the length is fixed at construction; reading it never
        // aliases the window contents concurrent `put`s may be writing.
        unsafe { (&*self.data.get()).len() }
    }

    /// Apply a put that arrived over the wire (target process's reader
    /// thread). Bounds are checked by the caller.
    pub(crate) fn apply_put(&self, offset: usize, data: &[u8]) {
        if !data.is_empty() {
            // SAFETY: epoch protocol — the target does not read the
            // window between exposure and completion, and the completion
            // notice travels the same FIFO socket *after* every put of
            // the epoch, so no local reader races this copy.
            unsafe {
                let base = (*self.data.get()).as_mut_ptr();
                std::ptr::copy_nonoverlapping(data.as_ptr(), base.add(offset), data.len());
            }
        }
        self.arrived.fetch_add(1, Ordering::Relaxed);
    }

    /// Read a range for a wire get (the target process's read path).
    /// Bounds are checked by the caller.
    pub(crate) fn read_range(&self, offset: usize, len: usize) -> Vec<u8> {
        // SAFETY: epoch protocol — gets and puts to overlapping ranges
        // in one epoch are erroneous, so nothing writes this range now.
        unsafe { (&*self.data.get())[offset..offset + len].to_vec() }
    }
}

/// Where an origin's window memory lives.
enum OriginBacking {
    /// Target rank in the same process: direct memcpy into shared
    /// memory.
    Local(Arc<WinMem>),
    /// Target rank in another process: puts and gets travel the wire
    /// as one-sided frames applied by the target's progress engine.
    Remote { len: usize },
}

/// Origin side of a window: issues `put`s toward the target.
pub struct WinOrigin {
    comm: Comm,
    target: usize,
    backing: OriginBacking,
    puts_in_epoch: AtomicU64,
}

/// Target side of a window: owns the exposed memory.
pub struct WinTarget {
    comm: Comm,
    origin: usize,
    mem: Arc<WinMem>,
}

impl Comm {
    /// Collective window creation: the target rank calls with
    /// `origin == false` and allocates `len` bytes; the origin attaches.
    /// Both ranks must call in the same creation order.
    pub fn win_create_origin(&self, target: usize, len: usize) -> WinOrigin {
        let ctx = self.win_ctx();
        let backing = if self.fabric().is_local(target) {
            let mem = self.fabric().attach_win(ctx, self.rank());
            assert_eq!(mem.len(), len, "window size mismatch between ranks");
            OriginBacking::Local(mem)
        } else {
            let announced = self.fabric().remote_wait_win_announce(self.rank(), ctx);
            assert_eq!(announced, len, "window size mismatch between ranks");
            OriginBacking::Remote { len }
        };
        let shard = self.fabric().shard_of_ctx(ctx);
        WinOrigin {
            comm: self.with_ctx(ctx, shard),
            target,
            backing,
            puts_in_epoch: AtomicU64::new(0),
        }
    }

    /// Collective window creation, target side: allocates and exposes
    /// `len` bytes to `origin`.
    pub fn win_create_target(&self, origin: usize, len: usize) -> WinTarget {
        let ctx = self.win_ctx();
        let mem = WinMem::new(len);
        self.fabric().register_win(ctx, Arc::clone(&mem));
        if !self.fabric().is_local(origin) {
            // The origin's process cannot attach our memory: tell it the
            // window exists (and how big it is) over the wire.
            self.fabric().remote_announce_win(origin, ctx, len);
        }
        let shard = self.fabric().shard_of_ctx(ctx);
        WinTarget {
            comm: self.with_ctx(ctx, shard),
            origin,
            mem,
        }
    }
}

impl WinOrigin {
    /// Window size in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            OriginBacking::Local(mem) => mem.len(),
            OriginBacking::Remote { len } => *len,
        }
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `MPI_Win_lock(MPI_MODE_NOCHECK)`: local only.
    pub fn lock(&self) {}

    /// `MPI_Win_unlock`: flush and release.
    pub fn unlock(&self) {
        self.flush();
    }

    /// `MPI_Put`: copy `data` into the target window at `offset`.
    ///
    /// Must be called within an epoch (passive lock or active
    /// start/complete); the copy is performed by the calling thread.
    pub fn put(&self, offset: usize, data: &[u8]) {
        let end = offset.checked_add(data.len()).expect("offset overflow");
        assert!(end <= self.len(), "put exceeds window");
        match &self.backing {
            OriginBacking::Local(mem) => {
                if !data.is_empty() {
                    // SAFETY: epoch protocol — the target does not read
                    // between exposure and completion; concurrent puts
                    // touch disjoint ranges by API contract (as in MPI,
                    // overlapping puts in one epoch are erroneous).
                    unsafe {
                        let base = (*mem.data.get()).as_mut_ptr();
                        std::ptr::copy_nonoverlapping(data.as_ptr(), base.add(offset), data.len());
                    }
                }
                // Relaxed: these are pure tallies. The target only reads
                // them after the TAG_COMPLETE message, whose send/recv
                // (plus the SeqCst fence in `flush`) already orders every
                // put of the epoch before the read — an extra AcqRel per
                // put buys nothing.
                mem.arrived.fetch_add(1, Ordering::Relaxed);
            }
            OriginBacking::Remote { .. } => {
                // The target's reader applies the put (and bumps its
                // `arrived` counter) before any later frame from us —
                // including the TAG_COMPLETE eager message — so the
                // epoch accounting holds across the wire.
                self.comm
                    .fabric()
                    .remote_put(self.target, self.comm.ctx(), offset, data);
            }
        }
        self.puts_in_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// `MPI_Get`: copy `buf.len()` bytes from the target window at
    /// `offset` into `buf`. Same epoch contract as [`WinOrigin::put`];
    /// in-process the read is a synchronous memcpy by the calling thread.
    pub fn get(&self, offset: usize, buf: &mut [u8]) {
        let end = offset.checked_add(buf.len()).expect("offset overflow");
        assert!(end <= self.len(), "get exceeds window");
        match &self.backing {
            OriginBacking::Local(mem) => {
                if !buf.is_empty() {
                    // SAFETY: epoch protocol — no concurrent writer to
                    // this range (gets and puts to overlapping ranges in
                    // one epoch are erroneous, as in MPI).
                    unsafe {
                        let base = (&*mem.data.get()).as_ptr();
                        std::ptr::copy_nonoverlapping(
                            base.add(offset),
                            buf.as_mut_ptr(),
                            buf.len(),
                        );
                    }
                }
            }
            OriginBacking::Remote { .. } => {
                if !buf.is_empty() {
                    let data = self.comm.fabric().remote_get(
                        self.comm.rank(),
                        self.target,
                        self.comm.ctx(),
                        offset,
                        buf.len(),
                    );
                    buf.copy_from_slice(&data);
                }
            }
        }
    }

    /// `MPI_Win_flush`: make all puts of this epoch remotely visible.
    /// In-process puts are synchronous memcpys, so this is a fence. Over
    /// the wire the per-peer socket is FIFO and the target's reader
    /// applies each put before reading any later frame, so the fence
    /// semantics carry over without a round trip.
    pub fn flush(&self) {
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Active sync: `MPI_Win_start` — block until the target posted.
    pub fn start_epoch(&self) {
        let trace = self.comm.fabric().trace();
        let t0 = trace.now_ns();
        let mut b = [0u8; 1];
        self.comm
            .recv_into(Some(self.target), Some(TAG_POST), &mut b);
        trace.emit_span(t0, self.comm.rank() as u16, |start, dur| {
            EventKind::EpochOpen {
                win: (self.comm.ctx() & 0xffff) as u16,
                wait_ns: dur,
            }
            .at(start)
        });
    }

    /// Active sync: `MPI_Win_complete` — notify the target with the put
    /// count of this epoch.
    pub fn complete_epoch(&self) {
        self.flush();
        let n = self.puts_in_epoch.swap(0, Ordering::AcqRel);
        self.comm.send(self.target, TAG_COMPLETE, &n.to_le_bytes());
        self.comm
            .fabric()
            .trace()
            .emit(self.comm.rank() as u16, || EventKind::EpochClose {
                win: (self.comm.ctx() & 0xffff) as u16,
                puts: n,
            });
    }
}

impl WinTarget {
    /// Window size in bytes.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Active sync: `MPI_Post` — expose the window.
    pub fn post(&self) {
        self.mem.arrived.store(0, Ordering::Release);
        self.comm.send(self.origin, TAG_POST, &[0]);
    }

    /// Active sync: `MPI_Win_wait` — wait for the origin's completion
    /// notice and verify all announced puts landed.
    pub fn wait_epoch(&self) {
        let mut b = [0u8; 8];
        self.comm
            .recv_into(Some(self.origin), Some(TAG_COMPLETE), &mut b);
        let announced = u64::from_le_bytes(b);
        // Puts are synchronous; by the time the complete notice (which is
        // sent after them) arrives, they are all visible.
        let arrived = self.mem.arrived.load(Ordering::Acquire);
        assert!(
            arrived >= announced,
            "epoch ended with {arrived}/{announced} puts visible"
        );
    }

    /// Mutate the window contents locally (only outside exposure epochs,
    /// as MPI allows local window access between epochs).
    pub fn write(&self, f: impl FnOnce(&mut [u8])) {
        // SAFETY: epoch protocol — no origin accesses the window outside
        // an exposure epoch.
        f(unsafe { &mut *self.mem.data.get() });
    }

    /// Read the window contents (only outside exposure epochs).
    pub fn read(&self, f: impl FnOnce(&[u8])) {
        // SAFETY: epoch protocol — caller reads only after wait_epoch /
        // done notification, when no origin is writing.
        f(unsafe { &*self.mem.data.get() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn active_epoch_put_roundtrip() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let win = comm.win_create_origin(1, 256);
                    win.start_epoch();
                    win.put(0, &[1, 2, 3]);
                    win.put(100, &[9; 10]);
                    win.complete_epoch();
                } else {
                    let win = comm.win_create_target(0, 256);
                    win.post();
                    win.wait_epoch();
                    win.read(|b| {
                        assert_eq!(&b[..3], &[1, 2, 3]);
                        assert_eq!(&b[100..110], &[9; 10]);
                        assert_eq!(b[50], 0);
                    });
                }
            })
            .unwrap();
    }

    #[test]
    fn epochs_reusable_across_iterations() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let win = comm.win_create_origin(1, 64);
                    for it in 0..10u8 {
                        win.start_epoch();
                        win.put(0, &[it; 64]);
                        win.complete_epoch();
                    }
                } else {
                    let win = comm.win_create_target(0, 64);
                    for it in 0..10u8 {
                        win.post();
                        win.wait_epoch();
                        win.read(|b| assert!(b.iter().all(|&x| x == it)));
                    }
                }
            })
            .unwrap();
    }

    #[test]
    fn passive_puts_with_explicit_exposure() {
        // The paper's passive pattern: exposure via 0B messages.
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let win = comm.win_create_origin(1, 128);
                    win.lock();
                    let mut b = [0u8; 1];
                    comm.recv_into(Some(1), Some(50), &mut b); // exposure
                    win.put(0, &[7; 128]);
                    win.flush();
                    comm.send(1, 51, &[0]); // done
                    win.unlock();
                } else {
                    let win = comm.win_create_target(0, 128);
                    comm.send(0, 50, &[0]); // expose
                    let mut b = [0u8; 1];
                    comm.recv_into(Some(0), Some(51), &mut b); // done
                    win.read(|buf| assert!(buf.iter().all(|&x| x == 7)));
                }
            })
            .unwrap();
    }

    #[test]
    fn get_reads_target_memory() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let win = comm.win_create_origin(1, 64);
                    win.start_epoch(); // target filled its window before post
                    let mut buf = [0u8; 16];
                    win.get(8, &mut buf);
                    assert!(buf.iter().all(|&b| b == 0x5A), "get returned {buf:?}");
                    win.put(0, &[1; 4]);
                    win.complete_epoch();
                } else {
                    let win = comm.win_create_target(0, 64);
                    // Local window fill outside any exposure epoch.
                    win.write(|b| b.fill(0x5A));
                    win.post();
                    win.wait_epoch();
                    win.read(|b| assert_eq!(&b[..4], &[1; 4]));
                }
            })
            .unwrap();
    }

    #[test]
    fn multithreaded_puts_disjoint_ranges() {
        Universe::new(2)
            .run(|comm| {
                let n_threads = 8;
                let chunk = 64;
                if comm.rank() == 0 {
                    let win = Arc::new(comm.win_create_origin(1, n_threads * chunk));
                    win.start_epoch();
                    std::thread::scope(|s| {
                        for t in 0..n_threads {
                            let win = Arc::clone(&win);
                            s.spawn(move || {
                                win.put(t * chunk, &vec![t as u8 + 1; chunk]);
                            });
                        }
                    });
                    win.complete_epoch();
                } else {
                    let win = comm.win_create_target(0, n_threads * chunk);
                    win.post();
                    win.wait_epoch();
                    win.read(|b| {
                        for t in 0..n_threads {
                            assert!(
                                b[t * chunk..(t + 1) * chunk]
                                    .iter()
                                    .all(|&x| x == t as u8 + 1),
                                "thread {t}'s chunk corrupted"
                            );
                        }
                    });
                }
            })
            .unwrap();
    }

    #[test]
    fn multiple_windows_per_rank_pair() {
        Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let w1 = comm.win_create_origin(1, 16);
                    let w2 = comm.win_create_origin(1, 32);
                    w1.start_epoch();
                    w1.put(0, &[1; 16]);
                    w1.complete_epoch();
                    w2.start_epoch();
                    w2.put(0, &[2; 32]);
                    w2.complete_epoch();
                } else {
                    let w1 = comm.win_create_target(0, 16);
                    let w2 = comm.win_create_target(0, 32);
                    w1.post();
                    w1.wait_epoch();
                    w2.post();
                    w2.wait_epoch();
                    w1.read(|b| assert!(b.iter().all(|&x| x == 1)));
                    w2.read(|b| assert!(b.iter().all(|&x| x == 2)));
                }
            })
            .unwrap();
    }

    #[test]
    fn oversized_put_returns_peer_panicked() {
        let err = Universe::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let win = comm.win_create_origin(1, 8);
                    win.put(4, &[0; 8]);
                } else {
                    let _win = comm.win_create_target(0, 8);
                }
            })
            .unwrap_err();
        match err {
            crate::PcommError::PeerPanicked { rank, message } => {
                assert_eq!(rank, 0);
                assert!(message.contains("put exceeds window"), "{message}");
            }
            other => panic!("expected PeerPanicked, got {other:?}"),
        }
    }
}
