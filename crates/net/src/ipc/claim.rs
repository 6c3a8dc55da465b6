//! Claim words: which side copies a pulled partition range.
//!
//! A sender whose source buffer lives in the segment may publish a
//! ready range without copying it (`K_READY`, see [`super::ring`]).
//! The range then has two possible movers — the receiver, which reads
//! the source and writes its destination, and the sender's own waiting
//! thread, which writes the receiver's granted destination — and
//! exactly one of them must copy it. Each directed channel holds a
//! table of [`CLAIM_SLOTS`] claim words for that, one per outstanding
//! range. A word holds `seq << 1 | claimed`: the publisher opens slot
//! `idx` under a fresh sequence number, and a mover claims it with one
//! compare-and-swap from "open under `seq`" to "claimed under `seq`".
//! One CAS wins per sequence number; a descriptor naming an older
//! sequence (a stale claim) can never win, because the word no longer
//! holds that number.
//!
//! The publisher's bookkeeping — which slot holds which range, under
//! which sequence — is process-local ([`Pulls`]); only the words are
//! shared.

use std::sync::atomic::{AtomicU64, Ordering};

/// Claim words per directed channel: the most ranges one channel has
/// outstanding at once. A range that finds every slot in use is copied
/// by its sender at once instead.
pub const CLAIM_SLOTS: usize = 64;
/// Bytes the claim table takes in the channel region.
pub const CLAIM_BYTES: usize = CLAIM_SLOTS * 8;

/// One channel's claim table (see the module docs). Cheap to copy.
#[derive(Clone, Copy)]
pub struct Claims {
    base: *mut u8,
}

// SAFETY: a typed window onto MAP_SHARED segment memory whose every
// location is an atomic word.
unsafe impl Send for Claims {}
// SAFETY: see `Send`.
unsafe impl Sync for Claims {}

impl Claims {
    /// Wrap the table at `base`.
    ///
    /// # Safety
    /// `base` must point at [`CLAIM_BYTES`] 8-aligned bytes inside a
    /// live shared mapping that outlives the `Claims`.
    pub unsafe fn new(base: *mut u8) -> Claims {
        Claims { base }
    }

    fn word(&self, idx: usize) -> &AtomicU64 {
        assert!(idx < CLAIM_SLOTS, "claim index {idx} outside the table");
        // SAFETY: `idx < CLAIM_SLOTS` keeps the word inside the table
        // the `new` contract sized; the mapping outlives `self`.
        unsafe { &*(self.base.add(idx * 8) as *const AtomicU64) }
    }

    /// Publisher: open slot `idx` under `seq` (> 0). Published by the
    /// Release of the ring cursor that carries the range's descriptor.
    pub fn open(&self, idx: usize, seq: u64) {
        // ORDERING: the descriptor naming (idx, seq) is published after
        // this store with a Release on the ring's head cursor.
        self.word(idx).store(seq << 1, Ordering::Relaxed);
    }

    /// Either mover: claim slot `idx` under `seq`. `true` for the one
    /// caller that wins this sequence number; a stale `seq` never wins.
    pub fn claim(&self, idx: usize, seq: u64) -> bool {
        self.word(idx)
            .compare_exchange(seq << 1, seq << 1 | 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether slot `idx` was claimed under `seq`.
    pub fn claimed(&self, idx: usize, seq: u64) -> bool {
        self.word(idx).load(Ordering::Acquire) == seq << 1 | 1
    }
}

/// Why a peer's acknowledgement of a pulled range was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckError {
    /// The index lies outside the claim table.
    OutOfTable,
    /// No range is open in that slot under that sequence number, or
    /// the peer never claimed it.
    NotPublished,
}

/// The publisher's process-local record of its open ranges: per claim
/// slot, the sequence it is open under (0: free) and the range.
pub struct Pulls<T> {
    seqs: [u64; CLAIM_SLOTS],
    ranges: Vec<Option<T>>,
    open: usize,
    next_seq: u64,
}

impl<T> Default for Pulls<T> {
    fn default() -> Self {
        Pulls {
            seqs: [0; CLAIM_SLOTS],
            ranges: (0..CLAIM_SLOTS).map(|_| None).collect(),
            open: 0,
            next_seq: 1,
        }
    }
}

impl<T> Pulls<T> {
    /// Open `range` under the next sequence number in the first free
    /// slot from `seq % CLAIM_SLOTS` on: its `(idx, seq)`, or the range
    /// back when every slot holds one.
    pub fn open(&mut self, claims: &Claims, range: T) -> Result<(usize, u64), T> {
        let seq = self.next_seq;
        let from = (seq % CLAIM_SLOTS as u64) as usize;
        let Some(idx) = (0..CLAIM_SLOTS)
            .map(|k| (from + k) % CLAIM_SLOTS)
            .find(|&i| self.seqs[i] == 0)
        else {
            return Err(range);
        };
        self.next_seq += 1;
        claims.open(idx, seq);
        (self.seqs[idx], self.ranges[idx], self.open) = (seq, Some(range), self.open + 1);
        Ok((idx, seq))
    }

    /// The publisher's own claim: win the newest open range it can and
    /// take it out of the table. `None` when every open range is
    /// claimed by the peer (or none is open). Allocates nothing: a
    /// polling thread calls it on every pass.
    pub fn claim_newest(&mut self, claims: &Claims) -> Option<T> {
        if self.open == 0 {
            return None;
        }
        let mut open = [(0u64, 0usize); CLAIM_SLOTS];
        let mut n = 0;
        for (idx, &seq) in self.seqs.iter().enumerate().filter(|(_, &seq)| seq != 0) {
            open[n] = (seq, idx);
            n += 1;
        }
        open[..n].sort_unstable_by(|a, b| b.cmp(a));
        let &(_, idx) = open[..n]
            .iter()
            .find(|&&(seq, idx)| claims.claim(idx, seq))?;
        self.take(idx)
    }

    /// The peer says it claimed and copied `(idx, seq)`: the range, if
    /// it is open under that sequence and its word shows the claim.
    pub fn acked(&mut self, claims: &Claims, idx: u64, seq: u64) -> Result<T, AckError> {
        let i = usize::try_from(idx)
            .ok()
            .filter(|&i| i < CLAIM_SLOTS)
            .ok_or(AckError::OutOfTable)?;
        if seq == 0 || self.seqs[i] != seq || !claims.claimed(i, seq) {
            return Err(AckError::NotPublished);
        }
        self.take(i).ok_or(AckError::NotPublished)
    }

    fn take(&mut self, idx: usize) -> Option<T> {
        (self.seqs[idx], self.open) = (0, self.open - 1);
        self.ranges[idx].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize};

    /// A claim table over plain (8-aligned) process memory.
    fn table() -> (Vec<u64>, Claims) {
        let mut words = vec![0u64; CLAIM_SLOTS];
        // SAFETY: `words` is CLAIM_BYTES of 8-aligned memory that the
        // tests keep alive for as long as the table.
        let claims = unsafe { Claims::new(words.as_mut_ptr() as *mut u8) };
        (words, claims)
    }

    /// Two threads race one claim word over 100 000 sequence numbers,
    /// each also trying the sequence before the current one: every
    /// sequence has exactly one winner, and the stale one never wins.
    #[test]
    fn one_winner_per_sequence_and_a_stale_claim_never_wins() {
        const N: u64 = 100_000;
        let (_words, claims) = table();
        let idx = 5;
        let wins: Vec<AtomicU32> = (0..=N).map(|_| AtomicU32::new(0)).collect();
        let stale_wins = AtomicUsize::new(0);
        let current = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let seq = current.load(Ordering::Acquire);
                    if seq > N {
                        return;
                    }
                    if seq > 0 && claims.claim(idx, seq) {
                        wins[seq as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    if seq > 1 && claims.claim(idx, seq - 1) {
                        stale_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::spin_loop();
                });
            }
            for seq in 1..=N {
                claims.open(idx, seq);
                current.store(seq, Ordering::Release);
                while !claims.claimed(idx, seq) {
                    std::thread::yield_now();
                }
            }
            current.store(N + 1, Ordering::Release);
        });
        assert_eq!(stale_wins.load(Ordering::Relaxed), 0, "a stale claim won");
        let bad: Vec<u64> = (1..=N)
            .filter(|&seq| wins[seq as usize].load(Ordering::Relaxed) != 1)
            .take(5)
            .collect();
        assert!(
            bad.is_empty(),
            "sequences without exactly one winner: {bad:?}"
        );
    }

    #[test]
    fn the_publisher_claims_newest_first_and_skips_what_the_peer_took() {
        let (_words, claims) = table();
        let mut pulls = Pulls::default();
        let opened: Vec<(usize, u64)> = (0..4).map(|r| pulls.open(&claims, r).unwrap()).collect();
        // The peer claims range 3 (the newest): the publisher gets 2.
        let (idx3, seq3) = opened[3];
        assert!(claims.claim(idx3, seq3));
        assert_eq!(pulls.claim_newest(&claims), Some(2));
        // An ack for a range the publisher itself took is refused, as
        // is one for an open, unclaimed range, and one off the table.
        let (idx2, seq2) = opened[2];
        assert_eq!(
            pulls.acked(&claims, idx2 as u64, seq2),
            Err(AckError::NotPublished)
        );
        let (idx0, seq0) = opened[0];
        assert_eq!(
            pulls.acked(&claims, idx0 as u64, seq0),
            Err(AckError::NotPublished)
        );
        assert_eq!(
            pulls.acked(&claims, CLAIM_SLOTS as u64, 1),
            Err(AckError::OutOfTable)
        );
        assert_eq!(pulls.acked(&claims, idx3 as u64, seq3), Ok(3));
        assert_eq!(pulls.claim_newest(&claims), Some(1));
        assert_eq!(pulls.claim_newest(&claims), Some(0));
        assert_eq!(pulls.claim_newest(&claims), None);
    }

    #[test]
    fn a_full_table_refuses_the_next_range_until_one_resolves() {
        let (_words, claims) = table();
        let mut pulls = Pulls::default();
        for r in 0..CLAIM_SLOTS {
            pulls.open(&claims, r).unwrap();
        }
        assert_eq!(pulls.open(&claims, 99), Err(99));
        assert_eq!(pulls.claim_newest(&claims), Some(CLAIM_SLOTS - 1));
        // Sequence CLAIM_SLOTS + 1 takes the one slot just freed.
        let (idx, seq) = pulls.open(&claims, 100).unwrap();
        assert_eq!(seq, CLAIM_SLOTS as u64 + 1);
        assert!(claims.claim(idx, seq) && !claims.claim(idx, seq - 1));
    }
}
