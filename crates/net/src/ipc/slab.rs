//! Payload-slab bookkeeping for the ipc fabric.
//!
//! Two kinds of payload storage hang off each directed channel:
//!
//! * the **FIFO slab** — a byte ring the producer writes variable-size
//!   records into (frames too large for an inline ring slot). Records
//!   are referenced by descriptor slots and consumed — and therefore
//!   released — in ring order, so two monotonic byte cursors fully
//!   describe it. The cursor math lives here ([`fifo_reserve`]);
//! * the **partition arena** — ranges the channel's *receiving* rank
//!   carves out as partitioned buffers it shares with the channel's
//!   sender: destinations of streams from that peer (advertised to it
//!   by offset in the CTS) and send windows of streams toward it (named
//!   by offset in each ready range). Lifetimes are the carving rank's
//!   (freed when its request drops), so the allocator state is plain
//!   process-local memory ([`ArenaAlloc`]); only the bytes are shared.

/// Outcome of a FIFO reservation: where the record starts (absolute
/// cursor, already past any end-of-ring padding) — the producer copies
/// its bytes at `start % capacity` and publishes `start` in the slot
/// descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FifoSpan {
    /// Absolute start cursor of the record.
    pub start: u64,
    /// New head cursor after the record (`start + len`).
    pub head: u64,
}

/// Reserve `len` contiguous bytes in a FIFO of `capacity` bytes whose
/// producer cursor is `head` and consumer cursor is `tail`. Records
/// never wrap: if the tail of the ring can't hold `len`, the remainder
/// is skipped as padding (the consumer infers it from the published
/// start cursor). Returns `None` when the span wouldn't fit yet —
/// back-pressure, try again after the consumer advances.
pub fn fifo_reserve(head: u64, tail: u64, capacity: u64, len: u64) -> Option<FifoSpan> {
    debug_assert!(len > 0 && len <= capacity);
    let pos = head % capacity;
    let start = if pos + len > capacity {
        head + (capacity - pos)
    } else {
        head
    };
    if start + len - tail > capacity {
        None
    } else {
        Some(FifoSpan {
            start,
            head: start + len,
        })
    }
}

/// First-fit allocator over one channel's partition arena. Entirely
/// process-local to the receiving rank — see the module docs.
pub struct ArenaAlloc {
    /// Free extents `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(u64, u64)>,
    capacity: u64,
}

/// Allocation granularity: keeps concurrently-streamed destinations on
/// distinct cache lines.
const ARENA_ALIGN: u64 = 64;

impl ArenaAlloc {
    /// A fresh allocator over `capacity` bytes (offsets `0..capacity`).
    pub fn new(capacity: u64) -> Self {
        let free = if capacity > 0 {
            vec![(0, capacity)]
        } else {
            Vec::new()
        };
        ArenaAlloc { free, capacity }
    }

    /// Carve out `len` bytes; `None` when no extent fits (the caller
    /// falls back to the FIFO copy path — never an error).
    pub fn alloc(&mut self, len: u64) -> Option<u64> {
        if len == 0 || len > self.capacity {
            return None;
        }
        let need = (len + ARENA_ALIGN - 1) & !(ARENA_ALIGN - 1);
        let i = self.free.iter().position(|&(_, flen)| flen >= need)?;
        let (off, flen) = self.free[i];
        if flen == need {
            self.free.remove(i);
        } else {
            self.free[i] = (off + need, flen - need);
        }
        Some(off)
    }

    /// Whether every byte is free again (nothing handed out).
    pub fn is_empty(&self) -> bool {
        self.capacity == 0 || self.free == [(0, self.capacity)]
    }

    /// Return the range handed out for (`off`, `len`) by [`Self::alloc`],
    /// coalescing with neighbours.
    pub fn release(&mut self, off: u64, len: u64) {
        let need = (len + ARENA_ALIGN - 1) & !(ARENA_ALIGN - 1);
        debug_assert!(off + need <= self.capacity);
        let i = self.free.partition_point(|&(foff, _)| foff < off);
        self.free.insert(i, (off, need));
        // Coalesce with the next extent, then the previous one.
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == self.free[i].0 {
            self.free[i - 1].1 += self.free[i].1;
            self.free.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_reserve_pads_at_wrap_and_backpressures() {
        // Plenty of room, no wrap.
        assert_eq!(
            fifo_reserve(0, 0, 64, 16),
            Some(FifoSpan { start: 0, head: 16 })
        );
        // Record would straddle the end: skip to the wrap boundary.
        let s = fifo_reserve(56, 40, 64, 16).unwrap();
        assert_eq!(s.start, 64);
        assert_eq!(s.start % 64, 0);
        // Same wrap but the consumer is too far behind: backpressure.
        assert_eq!(fifo_reserve(56, 10, 64, 16), None);
        // Exactly full is allowed.
        assert_eq!(fifo_reserve(64, 0, 64, 64), None);
        assert_eq!(fifo_reserve(64, 64, 64, 64).map(|s| s.start), Some(64));
    }

    #[test]
    fn arena_alloc_release_coalesces() {
        let mut a = ArenaAlloc::new(1024);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        let z = a.alloc(100).unwrap();
        assert_eq!((x, y, z), (0, 128, 256));
        // Exhaustion falls back to None, never panics.
        assert!(a.alloc(2048).is_none());
        a.release(y, 100);
        a.release(x, 100);
        a.release(z, 100);
        // Fully coalesced: a max-size alloc fits again.
        assert!(a.is_empty());
        assert_eq!(a.alloc(1024), Some(0));
        assert!(!a.is_empty());
    }
}
