//! `pcomm-ipc` — the same-host process-shared memory fabric.
//!
//! All ranks of one universe map a single anonymous memory file
//! (`memfd_create` + `mmap(MAP_SHARED)`, see [`crate::sys`]) laid out
//! as:
//!
//! ```text
//! [ header page | rank blocks | channel 0·0 | channel 0·1 | ... ]
//! ```
//!
//! * **header page** — magic/version plus the geometry knobs, so every
//!   rank can validate it mapped the same segment with the same
//!   parameters before touching a byte of it;
//! * **rank blocks** — one 128-byte block per rank holding its inbound
//!   doorbell (see [`doorbell`]);
//! * **channels** — one region per *directed* rank pair `src → dst`
//!   holding a lock-free SPSC descriptor ring, the claim words of the
//!   partition ranges `src` has ready for `dst` to pull, a FIFO payload
//!   slab for frames too large for a ring slot, and a partition arena that
//!   `dst` carves its partitioned buffers toward and from `src` out of
//!   (see [`ring`], [`claim`] and [`slab`]).
//!
//! Every cross-process reference inside the segment is an **offset** —
//! each rank maps the segment at a different address, so pointers never
//! cross the boundary. The one exception names memory outside it: a
//! destination outside the arena is granted by its address in the
//! receiver's process, and a range toward it gives its source's address
//! in the sender's process. Either side moves it with cross-memory
//! attach ([`sys::process_vm_readv`], [`sys::process_vm_writev`]) to or
//! from the pid the kernel attested for that peer ([`Segment::pid`]),
//! so a peer's word can only name its own memory.
//! All queue positions are monotonic counters
//! (`wrapping_sub` distances), which keeps full/empty disambiguation
//! trivial and makes the state legible to a post-mortem debugger.
//!
//! The segment file descriptor travels from rank 0 to every peer as an
//! `SCM_RIGHTS` control message over the already-established
//! UDS bootstrap stream ([`bootstrap`]). The sockets then stay open and
//! silent: nothing is written to them again, so a peer's socket hangs up
//! exactly when that peer's process exits, which is how the carrier
//! learns of a death. Steady state does zero syscalls per message
//! (doorbell futexes fire only when a peer is actually asleep).

pub mod claim;
pub mod doorbell;
pub mod ring;
pub mod slab;

use crate::{sys, Mesh};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Segment magic: `b"pcommipc"` as a little-endian u64.
pub const SEG_MAGIC: u64 = u64::from_le_bytes(*b"pcommipc");
/// Segment layout version; bumped on any incompatible layout change.
pub const SEG_VERSION: u32 = 4;

/// Size of the validation/geometry header at offset 0.
const HEADER_BYTES: usize = 4096;
/// Stride of one per-rank block (the doorbell words, a cache line apart
/// from the next rank's).
const RANK_BLOCK_BYTES: usize = 128;

/// Geometry of one segment: everything a rank needs to recompute every
/// offset locally. All ranks must agree on these (the header page
/// carries them for validation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpcParams {
    /// Number of ranks sharing the segment.
    pub n_ranks: usize,
    /// Descriptor-ring capacity per directed channel, in slots.
    pub ring_slots: u32,
    /// FIFO payload-slab capacity per directed channel, in bytes.
    pub fifo_bytes: u64,
    /// Partition-arena capacity per directed channel, in bytes.
    pub arena_bytes: u64,
}

impl IpcParams {
    /// Byte span of one directed channel, 4 KiB-aligned so channels
    /// start on page boundaries (the segment is sparse; untouched
    /// pages — e.g. the wasted diagonal channels — cost nothing).
    fn channel_stride(&self) -> usize {
        let raw = ring::channel_bytes(self.ring_slots, self.fifo_bytes, self.arena_bytes);
        (raw + 4095) & !4095
    }

    /// Offset of the first channel region.
    fn channels_base(&self) -> usize {
        let raw = HEADER_BYTES + self.n_ranks * RANK_BLOCK_BYTES;
        (raw + 4095) & !4095
    }

    /// Total segment length for this geometry.
    pub fn segment_len(&self) -> usize {
        self.channels_base() + self.n_ranks * self.n_ranks * self.channel_stride()
    }
}

/// Always-on counters of one rank's segment traffic: bumped on every
/// run, read racily for diagnostics.
#[derive(Debug, Default)]
pub struct Tallies {
    /// Peer doorbells rung (one per published record).
    pub rings: AtomicU64,
    /// Of those, rings that found a counted sleeper and paid `FUTEX_WAKE`.
    pub wakes: AtomicU64,
    /// Progress-thread parks counted in `sleepers` (no poller active).
    pub parks_counted: AtomicU64,
    /// Progress-thread parks taken over by a polling app thread.
    pub parks_uncounted: AtomicU64,
    /// Ready ranges of a peer's stream this rank claimed and copied.
    pub copied_for_peers: AtomicU64,
    /// Ready ranges of this rank's streams a peer claimed and copied.
    pub copied_by_peers: AtomicU64,
}

impl Tallies {
    /// Count one event.
    pub fn bump(tally: &AtomicU64) {
        // ORDERING: a diagnostics counter, independently monotonic and
        // read racily; it publishes no memory.
        tally.fetch_add(1, Ordering::Relaxed);
    }

    /// Read one counter (a racy snapshot by design).
    pub fn read(tally: &AtomicU64) -> u64 {
        // ORDERING: see `bump`.
        tally.load(Ordering::Relaxed)
    }
}

/// One mapped segment: the base address this process sees plus the
/// agreed geometry. Cheap to clone behind an `Arc`; unmapped on drop.
pub struct Segment {
    base: *mut u8,
    len: usize,
    params: IpcParams,
    /// Each rank's process id (see [`Segment::pid`]).
    pids: Vec<i32>,
}

// SAFETY: the segment is MAP_SHARED memory accessed only through the
// atomics and raw-byte helpers below; every multi-writer location is an
// atomic, and non-atomic payload ranges are handed out under the SPSC
// ring protocol (one producer process, one consumer process, ordered by
// Release/Acquire on the ring cursors).
unsafe impl Send for Segment {}
// SAFETY: see the `Send` justification — all shared mutation goes
// through atomics or SPSC-ordered payload ranges.
unsafe impl Sync for Segment {}

impl Segment {
    /// Create the segment (rank 0): allocate the memfd, size it, map
    /// it, and write the validation header. Returns the mapping plus
    /// the fd to hand to peers (close it after the handoff).
    pub fn create(params: IpcParams) -> io::Result<(Segment, i32)> {
        let len = params.segment_len();
        let fd = sys::memfd_create("pcomm-ipc-seg")?;
        sys::ftruncate(fd, len)?;
        let base = sys::mmap_shared(fd, len)?;
        let seg = Segment::mapped(base, len, params);
        // Geometry stores are Relaxed because the magic is written last
        // with Release — a peer that Acquire-loads the magic is
        // guaranteed to see the fully initialised header.
        seg.header_u32(12)
            .store(params.n_ranks as u32, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u32(16)
            .store(params.ring_slots, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u32(20)
            .store(ring::SLOT_BYTES as u32, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u64(24)
            .store(params.fifo_bytes, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u64(32)
            .store(params.arena_bytes, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u32(8).store(SEG_VERSION, Ordering::Relaxed); // ORDERING: published by magic
        seg.header_u64(0).store(SEG_MAGIC, Ordering::Release);
        Ok((seg, fd))
    }

    /// Attach to an existing segment received over the bootstrap
    /// socket: map the fd and validate magic, version and geometry
    /// against what this rank derived from its own environment.
    pub fn attach(fd: i32, params: IpcParams) -> io::Result<Segment> {
        let len = params.segment_len();
        let base = sys::mmap_shared(fd, len)?;
        let seg = Segment::mapped(base, len, params);
        if seg.header_u64(0).load(Ordering::Acquire) != SEG_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "ipc: segment magic mismatch",
            ));
        }
        // Relaxed is enough below — the Acquire load of the magic above
        // synchronises with the creator's Release store, which happens
        // after every geometry store.
        let got = (
            seg.header_u32(8).load(Ordering::Relaxed), // ORDERING: ordered by magic Acquire
            seg.header_u32(12).load(Ordering::Relaxed) as usize, // ORDERING: ordered by magic Acquire
            seg.header_u32(16).load(Ordering::Relaxed), // ORDERING: ordered by magic Acquire
            seg.header_u32(20).load(Ordering::Relaxed) as usize, // ORDERING: ordered by magic Acquire
            seg.header_u64(24).load(Ordering::Relaxed), // ORDERING: ordered by magic Acquire
            seg.header_u64(32).load(Ordering::Relaxed), // ORDERING: ordered by magic Acquire
        );
        let want = (
            SEG_VERSION,
            params.n_ranks,
            params.ring_slots,
            ring::SLOT_BYTES,
            params.fifo_bytes,
            params.arena_bytes,
        );
        if got != want {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ipc: segment geometry mismatch (creator {got:?}, attacher {want:?})"),
            ));
        }
        Ok(seg)
    }

    fn mapped(base: *mut u8, len: usize, params: IpcParams) -> Segment {
        let pids = vec![std::process::id() as i32; params.n_ranks];
        Segment {
            base,
            len,
            params,
            pids,
        }
    }

    /// The agreed geometry.
    pub fn params(&self) -> &IpcParams {
        &self.params
    }

    /// The process id of `rank`: for a peer, what the kernel recorded
    /// on its mesh socket ([`bootstrap`]); this process's own until then,
    /// as for a segment one process maps twice.
    pub fn pid(&self, rank: usize) -> i32 {
        self.pids[rank]
    }

    fn header_u32(&self, off: usize) -> &AtomicU32 {
        // SAFETY: `off` is a fixed in-header offset < HEADER_BYTES,
        // 4-aligned; the mapping outlives `self`.
        unsafe { &*(self.base.add(off) as *const AtomicU32) }
    }

    fn header_u64(&self, off: usize) -> &AtomicU64 {
        // SAFETY: as `header_u32`, 8-aligned fixed offset.
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }

    fn rank_word_u32(&self, rank: usize, off: usize) -> &AtomicU32 {
        debug_assert!(rank < self.params.n_ranks);
        let at = HEADER_BYTES + rank * RANK_BLOCK_BYTES + off;
        // SAFETY: rank blocks live inside the mapping (layout math in
        // `segment_len`), offsets are fixed and 4-aligned.
        unsafe { &*(self.base.add(at) as *const AtomicU32) }
    }

    /// A rank's inbound doorbell (covers all channels targeting it).
    pub fn doorbell(&self, rank: usize) -> doorbell::Doorbell<'_> {
        doorbell::Doorbell::new(self.rank_word_u32(rank, 0), self.rank_word_u32(rank, 4))
    }

    /// The directed channel `src → dst`.
    pub fn channel(&self, src: usize, dst: usize) -> ring::Channel {
        debug_assert!(src < self.params.n_ranks && dst < self.params.n_ranks);
        let k = src * self.params.n_ranks + dst;
        let at = self.params.channels_base() + k * self.params.channel_stride();
        // SAFETY: the channel region lies inside the mapping by the
        // same layout math `segment_len` used to size it.
        unsafe {
            ring::Channel::new(
                self.base.add(at),
                self.params.ring_slots,
                self.params.fifo_bytes,
                self.params.arena_bytes,
            )
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: `base..base+len` is the one mapping `create`/`attach`
        // made; nothing references it after drop.
        let _ = unsafe { sys::munmap(self.base, self.len) };
    }
}

/// Create (rank 0) or attach (everyone else) the shared segment,
/// passing the memfd over the mesh's Unix sockets with `SCM_RIGHTS`,
/// tagged with the sender's rank, and read each peer's pid off its
/// socket (`SO_PEERCRED`), having let those peers reach this process's
/// memory ([`sys::allow_cma_from_peers`]). Rank 0 waits for a one-byte ACK from
/// every peer before returning, so no rank starts pushing before every
/// mapping exists. Reads every byte written to the mesh and consumes
/// nothing else: the sockets stay open, and the caller keeps them as
/// the peers' death signal.
pub fn bootstrap(mesh: &mut Mesh, params: IpcParams) -> io::Result<Segment> {
    let fail =
        |what: &str, e: io::Error| io::Error::new(e.kind(), format!("ipc bootstrap: {what}: {e}"));
    let (rank, n_ranks) = (mesh.rank, mesh.n_ranks);
    let sock = |mesh: &Mesh, r: usize| -> io::Result<i32> {
        let ep = mesh.peers[r].as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("ipc bootstrap: no mesh endpoint toward rank {r}"),
            )
        })?;
        ep.raw_fd().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "ipc bootstrap: fd passing needs a Unix-socket mesh (PCOMM_NET_BACKEND=uds)",
            )
        })
    };
    // Bounded reads: a peer that dies mid-bootstrap becomes an error,
    // not a hang.
    for ep in mesh.peers.iter().flatten() {
        let _ = ep.set_read_timeout(Some(crate::mesh::ESTABLISH_TIMEOUT));
    }
    // Before any peer can learn an address of ours.
    sys::allow_cma_from_peers().map_err(|e| fail("allowing cross-memory attach", e))?;
    // The kernel's word for who is at the far end of each socket: the
    // process whose memory that peer's descriptors name.
    let pids = (0..n_ranks)
        .map(|r| {
            if r == rank {
                return Ok(std::process::id() as i32);
            }
            sys::peer_pid(sock(mesh, r)?).map_err(|e| fail("reading a peer's pid", e))
        })
        .collect::<io::Result<Vec<i32>>>()?;
    let mut segment = if rank == 0 {
        let (segment, fd) = Segment::create(params).map_err(|e| fail("creating the segment", e))?;
        for r in 1..n_ranks {
            sys::send_fd(sock(mesh, r)?, fd, 0).map_err(|e| fail("passing the segment fd", e))?;
        }
        // One ACK byte per peer: after this, every rank is mapped and
        // no push can outrun an attach.
        for r in 1..n_ranks {
            if let Some(ep) = mesh.peers[r].as_mut() {
                ep.read_exact(&mut [0u8; 1])
                    .map_err(|e| fail("waiting for a peer's attach ACK", e))?;
            }
        }
        let _ = sys::close(fd);
        segment
    } else {
        let (fd, from) =
            sys::recv_fd(sock(mesh, 0)?).map_err(|e| fail("receiving the segment fd", e))?;
        let attached = if from == 0 {
            Segment::attach(fd, params).map_err(|e| fail("attaching the segment", e))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ipc bootstrap: segment fd came from rank {from}, expected 0"),
            ))
        };
        let _ = sys::close(fd);
        let segment = attached?;
        if let Some(ep) = mesh.peers[0].as_mut() {
            ep.write_all(&[1u8])
                .map_err(|e| fail("sending the attach ACK", e))?;
        }
        segment
    };
    // Silent from here on: the caller only probes them for a hang-up.
    for ep in mesh.peers.iter().flatten() {
        ep.set_nonblocking(true)
            .map_err(|e| fail("making the mesh nonblocking", e))?;
    }
    segment.pids = pids;
    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> IpcParams {
        IpcParams {
            n_ranks: 2,
            ring_slots: 8,
            fifo_bytes: 1 << 16,
            arena_bytes: 1 << 16,
        }
    }

    #[test]
    fn create_then_attach_roundtrip() {
        if !sys::supported() {
            return;
        }
        let (seg, fd) = Segment::create(tiny_params()).unwrap();
        let seg2 = Segment::attach(fd, tiny_params()).unwrap();
        sys::close(fd).unwrap();
        seg.doorbell(1).ring().unwrap();
        assert_eq!(seg2.doorbell(1).seq(), 1);
        // Geometry disagreement must be rejected.
        let (_seg3, fd3) = Segment::create(tiny_params()).unwrap();
        let bad = IpcParams {
            ring_slots: 16,
            ..tiny_params()
        };
        assert!(Segment::attach(fd3, bad).is_err());
        sys::close(fd3).unwrap();
    }

    #[test]
    fn channels_are_disjoint() {
        if !sys::supported() {
            return;
        }
        let (seg, fd) = Segment::create(tiny_params()).unwrap();
        sys::close(fd).unwrap();
        let a = seg.channel(0, 1);
        let b = seg.channel(1, 0);
        // Fill a's ring completely; b must stay empty.
        let mut n = 0;
        while a
            .try_push(
                ring::SlotDesc {
                    kind: ring::K_FRAME,
                    parts: 0,
                    a: n,
                    b: 0,
                    c: 0,
                },
                &[1, 2, 3],
            )
            .is_ok()
        {
            n += 1;
        }
        assert_eq!(n, 8);
        assert!(!b.try_pop(|_, _| {}).unwrap());
        let mut seen = 0;
        while a
            .try_pop(|d, pay| {
                assert_eq!(d.a, seen);
                assert_eq!(pay, &[1, 2, 3]);
            })
            .unwrap()
        {
            seen += 1;
        }
        assert_eq!(seen, 8);
    }
}
