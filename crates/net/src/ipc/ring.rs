//! The lock-free SPSC descriptor ring of one directed channel.
//!
//! Each directed rank pair owns a fixed array of 1 KiB slots: a
//! 32-byte descriptor header plus up to [`INLINE_MAX`] bytes of
//! bcopy-style inline payload. Larger frames live in the channel's
//! FIFO slab ([`super::slab`]) and the slot carries their cursor; the
//! slab carries nothing else. Partition ranges carry no bytes: a commit
//! (`K_PART`) names a destination range the sender already wrote, a
//! ready range (`K_READY`) names a source range the receiver may read
//! ([`super::claim`] decides who copies one both sides can reach).
//!
//! Protocol: the producer fully writes a slot, then publishes it with a
//! Release store of the *head* cursor; the consumer Acquire-loads the
//! head, processes `tail..head` strictly in order, then Release-stores
//! the *tail*, which both recycles the slots and releases any FIFO
//! bytes they referenced. Cursors are monotonic `u32`s compared with
//! `wrapping_sub`, so full (`head - tail == slots`) and empty
//! (`head == tail`) never alias. Exactly one process produces and one
//! consumes per channel; each side serialises its own threads
//! externally (the transport holds a mutex per direction).

use super::claim::{Claims, CLAIM_BYTES, CLAIM_SLOTS};
use super::doorbell::Doorbell;
use super::slab;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Stride of one ring slot (descriptor header + inline payload).
pub const SLOT_BYTES: usize = 1024;
/// Descriptor header bytes at the start of each slot.
pub const SLOT_HDR_BYTES: usize = 32;
/// Largest payload that ships inline in a slot.
pub const INLINE_MAX: usize = SLOT_BYTES - SLOT_HDR_BYTES;
/// Bytes reserved for the ring's shared cursor header.
pub const RING_HDR_BYTES: usize = 128;
/// Offset of the slot array in a channel region: past the cursor
/// header and the claim table.
const SLOTS_AT: usize = RING_HDR_BYTES + CLAIM_BYTES;

/// Byte span of one channel region: cursor header, claim table, slot
/// array, FIFO slab, partition arena.
pub fn channel_bytes(slots: u32, fifo_bytes: u64, arena_bytes: u64) -> usize {
    SLOTS_AT + slots as usize * SLOT_BYTES + fifo_bytes as usize + arena_bytes as usize
}

/// Slot kind: a complete wire frame, encoded bytes inline.
pub const K_FRAME: u16 = 1;
/// Slot kind: a complete wire frame, encoded bytes in the FIFO slab at
/// cursor `c`.
pub const K_SLAB: u16 = 2;
/// Slot kind: partition commit — `a` = rdv id, `b` = offset of the
/// committed range inside the *receiver's* destination, `c` bytes the
/// sender already copied into the granted destination. No payload.
pub const K_PART: u16 = 3;
/// Slot kind: partition clear-to-send — `a` = rdv id, `b` = arena
/// offset granted to the sender, or `u64::MAX` and `c` = the
/// destination's address in the receiver's process. No payload.
pub const K_PART_CTS: u16 = 5;
/// Slot kind: a ready partition range, not yet copied — `a` = rdv id,
/// `b` = destination offset, `c` = length; the inline payload is a
/// [`ReadyRange`]. Whoever wins its claim word copies it: the receiver
/// from the sender's arena or process (then answers [`K_PULLED`]), or
/// the sender into the granted destination (then publishes [`K_PART`]).
pub const K_READY: u16 = 6;
/// Slot kind: the receiver claimed and copied a [`K_READY`] range —
/// `a` = claim index, `b` = claim sequence. No payload.
pub const K_PULLED: u16 = 7;

/// Where a [`K_READY`] range's bytes are and which claim word decides
/// who copies them: the inline payload of the descriptor, four
/// little-endian `u64`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyRange {
    /// Offset of the source in the arena of the channel the *receiver*
    /// publishes on (its sender's), or its address in the sender's process.
    pub src: u64,
    /// Claim index in this channel's table.
    pub idx: u64,
    /// Claim sequence number.
    pub seq: u64,
    /// `src` is an address, and so is the destination's grant.
    pub addr: bool,
}

impl ReadyRange {
    /// Encoded length.
    pub const BYTES: usize = 32;

    /// The inline payload.
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        let words = [self.src, self.idx, self.seq, self.addr.into()];
        for (i, w) in words.into_iter().enumerate() {
            out[i * 8..][..8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode a peer's `K_READY` payload for a range of `len` bytes and
    /// check it against `window`, the channel whose arena holds the
    /// peer's source: the claim index must lie in the table and the
    /// range, non-empty, in the arena (an address, the kernel checks).
    /// Everything is checked before anything is touched.
    pub fn check(payload: &[u8], len: usize, window: &Channel) -> Result<ReadyRange, String> {
        match ReadyRange::decode(payload) {
            Some(r) if r.idx >= CLAIM_SLOTS as u64 => Err(format!(
                "ready range names claim {} outside the {CLAIM_SLOTS}-slot table",
                r.idx
            )),
            Some(r) if len == 0 || !(r.addr || window.arena_holds(r.src, len)) => Err(format!(
                "ready range {}+{len} leaves the peer's {}-byte window",
                r.src, window.arena_bytes
            )),
            Some(r) => Ok(r),
            None => Err(format!("{}-byte ready range descriptor", payload.len())),
        }
    }

    /// Decode a payload; `None` unless it is exactly [`Self::BYTES`].
    pub fn decode(payload: &[u8]) -> Option<ReadyRange> {
        if payload.len() != Self::BYTES {
            return None;
        }
        let word = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&payload[i * 8..][..8]);
            u64::from_le_bytes(w)
        };
        Some(ReadyRange {
            src: word(0),
            idx: word(1),
            seq: word(2),
            addr: word(3) != 0,
        })
    }
}

/// The descriptor fields of one slot (everything but the payload).
/// Field meaning is kind-specific; see the `K_*` docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotDesc {
    /// Slot kind (`K_*`).
    pub kind: u16,
    /// Partition count hint for `K_PART` commits and `K_READY` ranges.
    pub parts: u16,
    /// First kind-specific word (typically an rdv/stream id).
    pub a: u64,
    /// Second kind-specific word (typically a byte offset).
    pub b: u64,
    /// Third kind-specific word: the FIFO cursor for `K_SLAB` (set
    /// by the push itself — callers leave it 0); free for inline and
    /// payload-less kinds (`K_PART` carries the range length here).
    pub c: u64,
}

impl SlotDesc {
    /// A descriptor of `kind` with its words (slab pushes set `c`).
    pub fn new(kind: u16, parts: u16, a: u64, b: u64, c: u64) -> SlotDesc {
        SlotDesc {
            kind,
            parts,
            a,
            b,
            c,
        }
    }
}

/// Push failure: no ring slot or no FIFO span free. Pure backpressure —
/// retry after the consumer advances (see `Channel::space_doorbell`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Full;

/// One directed channel's shared-memory view: cursor header, claim
/// table, slot array, FIFO slab and partition arena. Cheap to copy; all methods
/// take `&self` and rely on the SPSC protocol for exclusivity.
#[derive(Clone, Copy)]
pub struct Channel {
    base: *mut u8,
    slots: u32,
    fifo_bytes: u64,
    arena_bytes: u64,
}

// SAFETY: `Channel` is a typed window onto MAP_SHARED segment memory;
// every shared location it touches is either an atomic cursor or a
// payload range ordered by the Release/Acquire cursor protocol
// documented in the module header.
unsafe impl Send for Channel {}
// SAFETY: see `Send`.
unsafe impl Sync for Channel {}

impl Channel {
    /// Wrap the channel region at `base` (see `Segment::channel` for
    /// the layout math that sizes it).
    ///
    /// # Safety
    /// `base` must point at a channel region of at least
    /// [`channel_bytes`] bytes inside a live shared mapping that
    /// outlives the `Channel`.
    pub unsafe fn new(base: *mut u8, slots: u32, fifo_bytes: u64, arena_bytes: u64) -> Channel {
        debug_assert!(slots.is_power_of_two() || slots > 0);
        Channel {
            base,
            slots,
            fifo_bytes,
            arena_bytes,
        }
    }

    fn word32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= RING_HDR_BYTES);
        // SAFETY: fixed 4-aligned offset inside the ring header; the
        // mapping outlives `self` per the `new` contract.
        unsafe { &*(self.base.add(off) as *const AtomicU32) }
    }

    fn word64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= RING_HDR_BYTES);
        // SAFETY: as `word32`, 8-aligned fixed offset.
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }

    // Producer-owned words on one cache line; consumer-owned on another.
    fn head(&self) -> &AtomicU32 {
        self.word32(0)
    }
    fn fifo_head(&self) -> &AtomicU64 {
        self.word64(8)
    }
    fn tail(&self) -> &AtomicU32 {
        self.word32(64)
    }
    fn fifo_tail(&self) -> &AtomicU64 {
        self.word64(72)
    }

    /// The producer's backpressure doorbell: the consumer rings it as
    /// it frees slots/FIFO bytes; a blocked producer parks on it.
    pub fn space_doorbell(&self) -> Doorbell<'_> {
        Doorbell::new(self.word32(80), self.word32(20))
    }

    fn slot_ptr(&self, idx: u32) -> *mut u8 {
        debug_assert!(idx < self.slots);
        // SAFETY: `idx < slots` keeps this inside the slot array sized
        // by the `new` contract.
        unsafe { self.base.add(SLOTS_AT + idx as usize * SLOT_BYTES) }
    }

    fn fifo_ptr(&self, pos: u64) -> *mut u8 {
        debug_assert!(pos < self.fifo_bytes);
        // SAFETY: `pos < fifo_bytes` keeps this inside the FIFO region
        // that follows the slot array.
        unsafe {
            self.base
                .add(SLOTS_AT + self.slots as usize * SLOT_BYTES + pos as usize)
        }
    }

    /// Arena capacity of this channel.
    pub fn arena_bytes(&self) -> u64 {
        self.arena_bytes
    }

    /// Pointer to arena offset `off` (receiver-granted ranges only).
    ///
    /// # Safety
    /// `off..off + len` of the intended access must lie inside
    /// `0..arena_bytes` and be a range the caller currently owns under
    /// the CTS grant protocol (sender between grant and commit,
    /// receiver otherwise).
    pub unsafe fn arena_ptr(&self, off: u64) -> *mut u8 {
        debug_assert!(off < self.arena_bytes);
        // SAFETY: bound forwarded from the caller's contract.
        unsafe {
            self.base.add(
                SLOTS_AT
                    + self.slots as usize * SLOT_BYTES
                    + self.fifo_bytes as usize
                    + off as usize,
            )
        }
    }

    /// The arena offset of `len` bytes at `ptr`, if they all lie in
    /// this channel's arena (a pointer this process mapped).
    pub fn arena_offset(&self, ptr: *const u8, len: usize) -> Option<u64> {
        if self.arena_bytes == 0 {
            return None;
        }
        // SAFETY: offset 0 of a non-empty arena is in bounds; the
        // pointer is only used for address arithmetic.
        let a0 = unsafe { self.arena_ptr(0) } as usize;
        let p = ptr as usize;
        (p >= a0 && p.checked_add(len)? <= a0 + self.arena_bytes as usize).then(|| (p - a0) as u64)
    }

    /// Whether `off..off + len` lies inside the arena (`off` and `len`
    /// are a peer's word: overflow is out of bounds).
    pub fn arena_holds(&self, off: u64, len: usize) -> bool {
        off.checked_add(len as u64)
            .is_some_and(|end| end <= self.arena_bytes)
    }

    /// This channel's claim table.
    pub fn claims(&self) -> Claims {
        // SAFETY: the table sits between the cursor header and the slot
        // array, inside the region the `new` contract sized.
        unsafe { Claims::new(self.base.add(RING_HDR_BYTES)) }
    }

    /// Producer: publish a descriptor with an inline payload
    /// (`payload.len() <= INLINE_MAX`; use [`Self::try_push_slab`]
    /// above that). `desc.c` passes through untouched (payload-less
    /// kinds like `K_PART` carry a length there).
    pub fn try_push(&self, desc: SlotDesc, payload: &[u8]) -> Result<(), Full> {
        assert!(
            payload.len() <= INLINE_MAX,
            "ipc: inline payload over {INLINE_MAX}"
        );
        // ORDERING: head is producer-owned; only this side writes it.
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots {
            return Err(Full);
        }
        let slot = self.slot_ptr(head % self.slots);
        // SAFETY: the full/empty check above proves the consumer is
        // done with this slot; the write completes before the Release
        // store of head publishes it.
        unsafe {
            write_hdr(
                slot,
                payload.len() as u32,
                desc.kind,
                desc.parts,
                desc.a,
                desc.b,
                desc.c,
            );
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                slot.add(SLOT_HDR_BYTES),
                payload.len(),
            );
        }
        self.head().store(head.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Producer: publish a frame (the concatenation of `chunks`) through
    /// the FIFO slab; the slot's `c` is set to the record's cursor. It
    /// must fit the slab (`total <= fifo_bytes`).
    pub fn try_push_slab(&self, desc: SlotDesc, chunks: &[&[u8]]) -> Result<(), Full> {
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert!(
            total > 0 && total as u64 <= self.fifo_bytes,
            "ipc: slab record over fifo capacity"
        );
        // ORDERING: head/fifo_head are producer-owned; only this side
        // writes them.
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots {
            return Err(Full);
        }
        // ORDERING: fifo_head is producer-owned (see above).
        let fh = self.fifo_head().load(Ordering::Relaxed);
        let ft = self.fifo_tail().load(Ordering::Acquire);
        let Some(span) = slab::fifo_reserve(fh, ft, self.fifo_bytes, total as u64) else {
            return Err(Full);
        };
        let mut at = span.start % self.fifo_bytes;
        for chunk in chunks {
            // SAFETY: `fifo_reserve` guarantees `start..start+total` is
            // contiguous in the ring and unreferenced by the consumer
            // (it is ahead of every published record's release point).
            unsafe {
                std::ptr::copy_nonoverlapping(chunk.as_ptr(), self.fifo_ptr(at), chunk.len());
            }
            at += chunk.len() as u64;
        }
        // ORDERING: fifo_head is only read back by this producer; the
        // consumer learns record positions from slot descriptors.
        self.fifo_head().store(span.head, Ordering::Relaxed);
        let slot = self.slot_ptr(head % self.slots);
        // SAFETY: same slot-exclusivity argument as `try_push`.
        unsafe {
            write_hdr(
                slot,
                total as u32,
                desc.kind,
                desc.parts,
                desc.a,
                desc.b,
                span.start,
            );
        }
        self.head().store(head.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer: pop one descriptor if available, handing `f` the
    /// descriptor and its payload (slab slice for `K_SLAB`, else
    /// the inline slice — empty for payload-less kinds). Slot and FIFO bytes are recycled after
    /// `f` returns, and the producer's space doorbell is rung.
    pub fn try_pop(&self, f: impl FnOnce(&SlotDesc, &[u8])) -> std::io::Result<bool> {
        // ORDERING: tail is consumer-owned; only this side writes it.
        let tail = self.tail().load(Ordering::Relaxed);
        let head = self.head().load(Ordering::Acquire);
        if tail == head {
            return Ok(false);
        }
        let slot = self.slot_ptr(tail % self.slots);
        // SAFETY: the Acquire load of head synchronises with the
        // producer's Release publish, so the slot bytes (and any FIFO
        // bytes it references) are fully written and stable until we
        // advance tail.
        let (len, desc) = unsafe { read_hdr(slot) };
        let payload: &[u8] = match desc.kind {
            K_SLAB => {
                // SAFETY: slab record at cursor `c`, contiguous by
                // construction, released only when we advance fifo_tail
                // below.
                unsafe {
                    std::slice::from_raw_parts(
                        self.fifo_ptr(desc.c % self.fifo_bytes),
                        len as usize,
                    )
                }
            }
            // SAFETY: inline payload written before publish (see
            // above); `len <= INLINE_MAX` enforced at push, and the
            // clamp keeps a corrupt length inside the slot.
            _ => unsafe {
                std::slice::from_raw_parts(slot.add(SLOT_HDR_BYTES), (len as usize).min(INLINE_MAX))
            },
        };
        f(&desc, payload);
        if desc.kind == K_SLAB {
            self.fifo_tail()
                .store(desc.c + len as u64, Ordering::Release);
        }
        self.tail().store(tail.wrapping_add(1), Ordering::Release);
        self.space_doorbell().ring()?;
        Ok(true)
    }

    /// Consumer: whether anything is waiting (no side effects).
    pub fn has_pending(&self) -> bool {
        // ORDERING: advisory peek; the authoritative check is the
        // Acquire load inside `try_pop`.
        self.tail().load(Ordering::Relaxed) != self.head().load(Ordering::Acquire)
    }
}

/// Write a slot descriptor header.
///
/// # Safety
/// `slot` must point at a full [`SLOT_BYTES`] slot the caller owns
/// under the SPSC protocol.
unsafe fn write_hdr(slot: *mut u8, len: u32, kind: u16, parts: u16, a: u64, b: u64, c: u64) {
    // SAFETY: fixed offsets within the owned slot; plain stores are
    // race-free because publication happens via the head cursor.
    unsafe {
        (slot as *mut u32).write(len);
        (slot.add(4) as *mut u16).write(kind);
        (slot.add(6) as *mut u16).write(parts);
        (slot.add(8) as *mut u64).write(a);
        (slot.add(16) as *mut u64).write(b);
        (slot.add(24) as *mut u64).write(c);
    }
}

/// Read a slot descriptor header.
///
/// # Safety
/// `slot` must point at a published slot (between the consumer's
/// Acquire of head and its Release of tail).
unsafe fn read_hdr(slot: *const u8) -> (u32, SlotDesc) {
    // SAFETY: mirrors `write_hdr`; the cursor protocol orders these
    // plain loads after the producer's stores.
    unsafe {
        (
            (slot as *const u32).read(),
            SlotDesc {
                kind: (slot.add(4) as *const u16).read(),
                parts: (slot.add(6) as *const u16).read(),
                a: (slot.add(8) as *const u64).read(),
                b: (slot.add(16) as *const u64).read(),
                c: (slot.add(24) as *const u64).read(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::{IpcParams, Segment};
    use crate::sys;

    fn chan() -> (Segment, Channel) {
        let params = IpcParams {
            n_ranks: 2,
            ring_slots: 4,
            fifo_bytes: 256,
            arena_bytes: 4096,
        };
        let (seg, fd) = Segment::create(params).unwrap();
        sys::close(fd).unwrap();
        let ch = seg.channel(0, 1);
        (seg, ch)
    }

    #[test]
    fn inline_roundtrip_and_ring_full() {
        if !sys::supported() {
            return;
        }
        let (_seg, ch) = chan();
        for i in 0..4u64 {
            ch.try_push(
                SlotDesc {
                    kind: K_FRAME,
                    parts: 0,
                    a: i,
                    b: i * 2,
                    c: 0,
                },
                &[i as u8; 5],
            )
            .unwrap();
        }
        assert_eq!(
            ch.try_push(
                SlotDesc {
                    kind: K_FRAME,
                    parts: 0,
                    a: 9,
                    b: 0,
                    c: 0
                },
                &[]
            ),
            Err(Full)
        );
        for i in 0..4u64 {
            let popped = ch
                .try_pop(|d, pay| {
                    assert_eq!((d.kind, d.a, d.b), (K_FRAME, i, i * 2));
                    assert_eq!(pay, &[i as u8; 5]);
                })
                .unwrap();
            assert!(popped);
        }
        assert!(!ch.try_pop(|_, _| unreachable!()).unwrap());
    }

    #[test]
    fn slab_records_wrap_and_backpressure() {
        if !sys::supported() {
            return;
        }
        let (_seg, ch) = chan();
        // 100-byte records against a 256-byte FIFO: the third must hit
        // backpressure, and wrap padding must stay invisible.
        let rec = |v: u8| vec![v; 100];
        ch.try_push_slab(
            SlotDesc {
                kind: K_SLAB,
                parts: 0,
                a: 1,
                b: 0,
                c: 0,
            },
            &[&rec(1)],
        )
        .unwrap();
        ch.try_push_slab(
            SlotDesc {
                kind: K_SLAB,
                parts: 0,
                a: 2,
                b: 0,
                c: 0,
            },
            &[&rec(2)],
        )
        .unwrap();
        assert_eq!(
            ch.try_push_slab(
                SlotDesc {
                    kind: K_SLAB,
                    parts: 0,
                    a: 3,
                    b: 0,
                    c: 0
                },
                &[&rec(3)]
            ),
            Err(Full)
        );
        let mut seen = Vec::new();
        while ch.try_pop(|d, pay| seen.push((d.a, pay.to_vec()))).unwrap() {}
        assert_eq!(seen.len(), 2);
        // Freed: the wrap-padded third record now fits, split chunks
        // concatenate, and survives many cycles of reuse.
        for round in 0..20u64 {
            let (a, b) = (rec(7), rec(8));
            ch.try_push_slab(
                SlotDesc {
                    kind: K_SLAB,
                    parts: 0,
                    a: round,
                    b: 0,
                    c: 0,
                },
                &[&a[..40], &a[40..], &b[..]],
            )
            .unwrap();
            let mut got = Vec::new();
            while ch.try_pop(|d, pay| got.push((d.a, pay.to_vec()))).unwrap() {}
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].0, round);
            assert_eq!(&got[0].1[..100], &rec(7)[..]);
            assert_eq!(&got[0].1[100..], &rec(8)[..]);
        }
    }

    #[test]
    fn cross_thread_spsc_stream() {
        if !sys::supported() {
            return;
        }
        let (_seg, ch) = chan();
        const N: u64 = 5000;
        std::thread::scope(|s| {
            let producer = s.spawn(move || {
                for i in 0..N {
                    let body = [i as u8; 32];
                    loop {
                        let r = if i % 3 == 0 {
                            ch.try_push_slab(
                                SlotDesc {
                                    kind: K_SLAB,
                                    parts: 0,
                                    a: i,
                                    b: 0,
                                    c: 0,
                                },
                                &[&body],
                            )
                        } else {
                            ch.try_push(
                                SlotDesc {
                                    kind: K_FRAME,
                                    parts: 0,
                                    a: i,
                                    b: 0,
                                    c: 0,
                                },
                                &body,
                            )
                        };
                        if r.is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
            let mut next = 0u64;
            while next < N {
                let got = ch
                    .try_pop(|d, pay| {
                        assert_eq!(d.a, next);
                        assert_eq!(pay, &[next as u8; 32]);
                    })
                    .unwrap();
                if got {
                    next += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            producer.join().unwrap();
        });
    }
}
