//! Seeded wire-level fault injection.
//!
//! [`WireFaults`] describes a plan of *wire-class* faults — torn
//! (partial) writes, short reads, injected garbage bytes, connection
//! reset at a frame boundary, a socket kill after a byte threshold, and
//! half-open silent death — and an [`Endpoint`] wrapped via
//! [`Endpoint::with_faults`] applies them on every `read`/`write` call,
//! and on every splice of a pinned payload
//! ([`Endpoint::write_pinned`]) as on a write.
//!
//! Every decision is a pure function of `(seed, peer, call index)`: two runs with the same plan and the same call sequence
//! inject bit-for-bit the same faults, so a failing chaos run replays
//! exactly. On a nonblocking socket a call the kernel refuses with
//! `WouldBlock` never happened as far as the plan is concerned — it
//! takes no index, moves no byte ledger and reports nothing — so the
//! fault sequence does not depend on when the peer drains. The
//! probability draws use the same SplitMix64 folding
//! discipline as the message-level `FaultPlan` in `pcomm-trace`, but
//! live here so `pcomm-net` stays free of any `pcomm-core` dependency:
//! the runtime converts its parsed `PCOMM_FAULTS` plan into a
//! [`WireFaults`] when it builds the socket transport.

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pcomm_prng::{Rng64, SplitMix64};

use crate::endpoint::{Endpoint, Pipe};

/// Domain separator for write-side draws.
const DOMAIN_WRITE: u64 = 0x7772; // "wr"
/// Domain separator for read-side draws.
const DOMAIN_READ: u64 = 0x7264; // "rd"

/// One wire-class fault, as injected (reported through the
/// [`WireFaults::on_fault`] observer and counted per endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// A write call delivered only a prefix of the caller's bytes.
    TornWrite,
    /// A read call returned fewer bytes than the peer had available.
    ShortRead,
    /// A byte of an outgoing write was flipped in flight.
    Garbage,
    /// The connection was reset (socket shut down, error returned).
    Reset,
    /// The socket was killed after its byte threshold.
    LaneKill,
    /// Writes are silently swallowed: the peer sees a live socket that
    /// never speaks again.
    HalfOpen,
}

impl WireFault {
    /// Stable short name (used by counters and log lines).
    pub fn name(self) -> &'static str {
        match self {
            WireFault::TornWrite => "torn-write",
            WireFault::ShortRead => "short-read",
            WireFault::Garbage => "garbage",
            WireFault::Reset => "reset",
            WireFault::LaneKill => "lane-kill",
            WireFault::HalfOpen => "half-open",
        }
    }

    /// Index into per-endpoint fault counters.
    fn slot(self) -> usize {
        match self {
            WireFault::TornWrite => 0,
            WireFault::ShortRead => 1,
            WireFault::Garbage => 2,
            WireFault::Reset => 3,
            WireFault::LaneKill => 4,
            WireFault::HalfOpen => 5,
        }
    }
}

/// Observer invoked synchronously as `(fault, peer)` for every injected
/// fault (the runtime uses it to emit trace events without `pcomm-net`
/// knowing about the tracer).
pub type FaultObserver = Arc<dyn Fn(WireFault, u32) + Send + Sync>;

/// A seeded wire-fault plan shared by every wrapped endpoint of one
/// transport. Probabilities are per `read`/`write` *call*; thresholds
/// are cumulative bytes written to the socket.
#[derive(Clone, Default)]
pub struct WireFaults {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a write delivers only a seeded prefix.
    pub torn: f64,
    /// Probability a read returns fewer bytes than requested.
    pub short_read: f64,
    /// Probability one byte of a write is flipped in flight.
    pub garbage: f64,
    /// Probability a write call resets the connection instead.
    pub reset: f64,
    /// Kill the socket once this many cumulative bytes were written.
    pub lane_kill: Option<u64>,
    /// After this many bytes written, silently swallow all further
    /// writes (half-open peer: alive socket, dead process).
    pub half_open: Option<u64>,
    /// Observer called on every injection.
    pub on_fault: Option<FaultObserver>,
}

impl fmt::Debug for WireFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireFaults")
            .field("seed", &self.seed)
            .field("torn", &self.torn)
            .field("short_read", &self.short_read)
            .field("garbage", &self.garbage)
            .field("reset", &self.reset)
            .field("lane_kill", &self.lane_kill)
            .field("half_open", &self.half_open)
            .finish()
    }
}

impl WireFaults {
    /// Whether any wire fault can ever fire under this plan.
    pub fn any(&self) -> bool {
        self.torn > 0.0
            || self.short_read > 0.0
            || self.garbage > 0.0
            || self.reset > 0.0
            || self.lane_kill.is_some()
            || self.half_open.is_some()
    }
}

/// Mutable per-link state, shared by every clone of one wrapped
/// endpoint so a socket's read and write halves see one byte/call
/// ledger.
#[derive(Debug, Default)]
pub struct FaultyState {
    written: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
    dead: AtomicBool,
    half_open: AtomicBool,
    injected: [AtomicU64; 6],
}

impl FaultyState {
    /// How many faults of `kind` this link has injected so far.
    pub fn injected(&self, kind: WireFault) -> u64 {
        // ORDERING: advisory fault tally, read for assertions after
        // the I/O threads have been joined.
        self.injected[kind.slot()].load(Ordering::Relaxed)
    }
}

/// An [`Endpoint`] plus the fault plan that intercepts its I/O. Built
/// by [`Endpoint::with_faults`]; clones share one [`FaultyState`].
pub struct FaultyLink {
    /// The real endpoint the surviving bytes travel over.
    pub(crate) inner: Endpoint,
    pub(crate) plan: Arc<WireFaults>,
    pub(crate) peer: u32,
    pub(crate) state: Arc<FaultyState>,
}

impl fmt::Debug for FaultyLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyLink")
            .field("inner", &self.inner)
            .field("peer", &self.peer)
            .field("plan", &self.plan)
            .finish()
    }
}

/// Map a 64-bit draw to a uniform in `[0, 1)` (same convention as the
/// message-level fault plan).
fn u01(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultyLink {
    pub(crate) fn clone_shared(&self) -> io::Result<FaultyLink> {
        Ok(FaultyLink {
            inner: self.inner.try_clone()?,
            plan: Arc::clone(&self.plan),
            peer: self.peer,
            state: Arc::clone(&self.state),
        })
    }

    /// One deterministic 64-bit draw for call `idx` in `domain`. The
    /// `0` stands where a socket index once did; it stays so every
    /// seeded schedule replays unchanged.
    fn draw(&self, domain: u64, idx: u64) -> u64 {
        let mut acc = SplitMix64::new(self.plan.seed).next_u64();
        for w in [domain, self.peer as u64, 0, idx] {
            acc = SplitMix64::new(acc ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        SplitMix64::new(acc).next_u64()
    }

    fn report(&self, kind: WireFault) {
        // ORDERING: advisory fault tally (see `FaultyState::injected`).
        self.state.injected[kind.slot()].fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.plan.on_fault {
            obs(kind, self.peer);
        }
    }

    fn reset_err(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("wire fault: connection reset (peer {})", self.peer),
        )
    }

    /// One write call of `buf` under the plan: spliced through `pipe`
    /// when given (a pinned payload meets the plan as a write does: the
    /// same draws, the same kinds; only garbage copies, to own the byte
    /// it flips), else copied.
    pub(crate) fn faulty_write(
        &mut self,
        buf: &[u8],
        mut pipe: Option<&mut Pipe>,
    ) -> io::Result<usize> {
        // ORDERING: sticky kill flag — reading it late only lets one
        // more write reach a socket the kill already shut down.
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(self.reset_err());
        }
        // ORDERING: the byte ledger is written only under the socket's
        // write mutex, which serialises every call; reads elsewhere are
        // advisory.
        let written = self.state.written.load(Ordering::Relaxed);
        if self.plan.lane_kill.is_some_and(|after| written >= after) {
            // ORDERING: the swap makes the fault report exactly-once; no
            // other memory rides on the flag.
            if !self.state.dead.swap(true, Ordering::Relaxed) {
                self.report(WireFault::LaneKill);
                // Kill the real socket so the peer's reader fails too
                // instead of waiting forever.
                self.inner.shutdown();
            }
            return Err(self.reset_err());
        }
        if let Some(after) = self.plan.half_open {
            // ORDERING: sticky half-open latch; a late read only delays
            // the first swallowed write by one call.
            if written >= after || self.state.half_open.load(Ordering::Relaxed) {
                // ORDERING: swap = exactly-once report (see lane_kill).
                if !self.state.half_open.swap(true, Ordering::Relaxed) {
                    self.report(WireFault::HalfOpen);
                }
                // Swallow: the caller believes the bytes left; the peer
                // hears silence from now on.
                if let Some(pipe) = pipe {
                    pipe.discard()?;
                }
                let n = buf.len() as u64;
                // ORDERING: single-writer byte ledger (see above).
                self.state.written.fetch_add(n, Ordering::Relaxed);
                return Ok(buf.len());
            }
        }
        // ORDERING: per-call index for the deterministic draw; the socket's
        // write mutex serialises every call, so load-then-store is exact.
        // It is stored only once the call really happened.
        let idx = self.state.writes.load(Ordering::Relaxed);
        let p = u01(self.draw(DOMAIN_WRITE, idx));
        if p < self.plan.reset {
            // ORDERING: as the index load above.
            self.state.writes.store(idx + 1, Ordering::Relaxed);
            // ORDERING: sticky kill flag (see the load at the top).
            self.state.dead.store(true, Ordering::Relaxed);
            self.report(WireFault::Reset);
            self.inner.shutdown();
            return Err(self.reset_err());
        }
        let mut corrupt = Vec::new();
        let (fault, out) = if p < self.plan.reset + self.plan.garbage && !buf.is_empty() {
            // Flip one seeded byte of a copy; the peer's decode layer
            // must turn this into a typed error, never a panic.
            let pick = self.draw(DOMAIN_WRITE ^ 0xff, idx);
            corrupt.extend_from_slice(buf);
            let at = (pick as usize) % corrupt.len();
            corrupt[at] ^= 1 << ((pick >> 32) % 8);
            if let Some(pipe) = pipe.take() {
                pipe.discard()?;
            }
            (Some(WireFault::Garbage), &corrupt[..])
        } else if p < self.plan.reset + self.plan.garbage + self.plan.torn && buf.len() > 1 {
            // Deliver only a seeded prefix; a correct caller loops.
            let pick = self.draw(DOMAIN_WRITE ^ 0xaa, idx);
            let k = 1 + (pick as usize) % (buf.len() - 1);
            (Some(WireFault::TornWrite), &buf[..k])
        } else {
            (None, buf)
        };
        let wrote = match pipe {
            Some(pipe) => self.inner.splice_upto(pipe, buf, out.len()),
            None => self.inner.write(out),
        };
        if wrote.as_ref().is_err_and(would_block) {
            return wrote; // the socket refused the call: it never happened
        }
        // ORDERING: as the index load above.
        self.state.writes.store(idx + 1, Ordering::Relaxed);
        if let Some(kind) = fault {
            self.report(kind);
        }
        let n = wrote?;
        // ORDERING: the byte ledger is serialised by the socket's write
        // mutex (see the load at the top).
        self.state.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    pub(crate) fn faulty_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // ORDERING: sticky kill flag (see `faulty_write`).
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(self.reset_err());
        }
        // ORDERING: per-call draw index; the socket's read mutex serialises
        // every call, and the index is stored only once a call happened.
        let idx = self.state.reads.load(Ordering::Relaxed);
        let short = buf.len() > 1 && u01(self.draw(DOMAIN_READ, idx)) < self.plan.short_read;
        // Hand back fewer bytes than asked for; a correct caller (the
        // frame decoder, `read_exact`) loops.
        let k = if short {
            1 + (self.draw(DOMAIN_READ ^ 0x55, idx) as usize) % (buf.len() - 1)
        } else {
            buf.len()
        };
        let read = self.inner.read(&mut buf[..k]);
        if read.as_ref().is_err_and(would_block) {
            return read;
        }
        // ORDERING: as the index load above.
        self.state.reads.store(idx + 1, Ordering::Relaxed);
        if short {
            self.report(WireFault::ShortRead);
        }
        read
    }
}

fn would_block(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    fn pair_with(plan: WireFaults) -> (Endpoint, Endpoint) {
        let (a, b) = UnixStream::pair().unwrap();
        let faulty = Endpoint::Uds(a).with_faults(Arc::new(plan), 1);
        (faulty, Endpoint::Uds(b))
    }

    #[test]
    fn torn_writes_still_deliver_via_write_all() {
        let (mut tx, mut rx) = pair_with(WireFaults {
            seed: 7,
            torn: 1.0,
            ..WireFaults::default()
        });
        let msg = [0xabu8; 4096];
        let writer = std::thread::spawn(move || {
            tx.write_all(&msg).unwrap();
            tx
        });
        let mut got = [0u8; 4096];
        rx.read_exact(&mut got).unwrap();
        let tx = writer.join().unwrap();
        assert_eq!(got, msg);
        match &tx {
            Endpoint::Faulty(l) => assert!(l.state.injected(WireFault::TornWrite) > 0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn lane_kill_fires_at_threshold_and_peer_sees_eof() {
        let (mut tx, mut rx) = pair_with(WireFaults {
            seed: 7,
            lane_kill: Some(1024),
            ..WireFaults::default()
        });
        let chunk = [0u8; 512];
        tx.write_all(&chunk).unwrap();
        tx.write_all(&chunk).unwrap();
        let err = tx.write_all(&chunk).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Drain what made it through, then observe the shutdown.
        let mut sink = Vec::new();
        rx.read_to_end(&mut sink).unwrap();
        assert_eq!(sink.len(), 1024);
    }

    #[test]
    fn half_open_swallows_writes_silently() {
        let (mut tx, mut rx) = pair_with(WireFaults {
            seed: 7,
            half_open: Some(256),
            ..WireFaults::default()
        });
        tx.write_all(&[9u8; 256]).unwrap();
        tx.write_all(&[9u8; 256]).unwrap(); // swallowed, still Ok
        drop(tx);
        let mut sink = Vec::new();
        rx.read_to_end(&mut sink).unwrap();
        assert_eq!(sink.len(), 256, "only pre-threshold bytes arrive");
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = |seed| {
            let (a, _b) = UnixStream::pair().unwrap();
            let ep = Endpoint::Uds(a).with_faults(
                Arc::new(WireFaults {
                    seed,
                    torn: 0.5,
                    ..WireFaults::default()
                }),
                3,
            );
            let mut ep = ep;
            let mut pattern = Vec::new();
            for _ in 0..64 {
                pattern.push(ep.write(&[0u8; 64]).unwrap());
            }
            pattern
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Write 64 × 64 B through a faulty endpoint under `torn=0.5` —
    /// spliced when `spliced`, else copied — and return every call's
    /// count, checking the peer got every byte in order.
    fn torn_pattern(seed: u64, spliced: bool) -> Vec<usize> {
        let plan = WireFaults {
            seed,
            torn: 0.5,
            ..WireFaults::default()
        };
        let (mut tx, mut rx) = pair_with(plan);
        let data: Vec<u8> = (0..64 * 64).map(|i| (i % 253) as u8).collect();
        let (mut pipe, mut pattern) = (Pipe::new().unwrap(), Vec::new());
        for range in data.chunks(64) {
            let mut at = 0;
            while at < range.len() {
                let n = match spliced {
                    true => tx.write_pinned(&mut pipe, &range[at..]),
                    false => tx.write(&range[at..]),
                };
                pattern.push(n.unwrap());
                at += pattern[pattern.len() - 1];
            }
        }
        drop(tx);
        let mut got = Vec::new();
        rx.read_to_end(&mut got).unwrap();
        assert!(got == data, "the bytes differ");
        pattern
    }

    #[test]
    fn a_splice_draws_its_faults_as_a_write_does() {
        let spliced = torn_pattern(42, true);
        assert!(spliced.iter().any(|&n| n < 64), "no splice was torn");
        assert_eq!(spliced, torn_pattern(42, true));
        assert_eq!(spliced, torn_pattern(42, false));
        assert_ne!(spliced, torn_pattern(43, true));
    }

    /// Splice 4 KiB once under `plan`; returns the call's result, the
    /// kinds that fired and what the peer got (until EOF).
    fn splice_once(plan: WireFaults) -> (io::Result<usize>, Vec<WireFault>, Vec<u8>) {
        let (mut tx, mut rx) = pair_with(plan);
        let data = [0x3Cu8; 4096];
        let mut pipe = Pipe::new().unwrap();
        let wrote = tx.write_pinned(&mut pipe, &data);
        let kinds = fired(state_of(&tx), &[0; 6]);
        drop(tx);
        let mut got = Vec::new();
        let _ = rx.read_to_end(&mut got);
        (wrote, kinds, got)
    }

    #[test]
    fn every_write_fault_fires_on_a_spliced_range() {
        let plan = |f: fn(&mut WireFaults)| {
            let mut plan = WireFaults {
                seed: 7,
                ..WireFaults::default()
            };
            f(&mut plan);
            plan
        };
        let (n, kinds, got) = splice_once(plan(|p| p.torn = 1.0));
        let n = n.unwrap();
        assert_eq!((kinds, got.len()), (vec![WireFault::TornWrite], n));
        assert!(n < 4096);
        let (n, kinds, got) = splice_once(plan(|p| p.reset = 1.0));
        assert_eq!(n.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!((kinds, got.len()), (vec![WireFault::Reset], 0));
        let (n, kinds, got) = splice_once(plan(|p| p.lane_kill = Some(0)));
        assert_eq!(n.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!((kinds, got.len()), (vec![WireFault::LaneKill], 0));
        let (n, kinds, got) = splice_once(plan(|p| p.half_open = Some(0)));
        assert_eq!(
            (n.unwrap(), kinds, got.len()),
            (4096, vec![WireFault::HalfOpen], 0)
        );
        // Garbage copies: the flipped byte is its own.
        let (n, kinds, got) = splice_once(plan(|p| p.garbage = 1.0));
        assert_eq!(
            (n.unwrap(), kinds, got.len()),
            (4096, vec![WireFault::Garbage], 4096)
        );
        let flipped: u32 = got.iter().map(|b| (b ^ 0x3C).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    fn state_of(ep: &Endpoint) -> &FaultyState {
        match ep {
            Endpoint::Faulty(l) => &l.state,
            _ => unreachable!("a wrapped endpoint"),
        }
    }

    /// Kinds whose tally grew between two snapshots.
    fn fired(state: &FaultyState, before: &[u64; 6]) -> Vec<WireFault> {
        use WireFault::*;
        let kinds = [TornWrite, ShortRead, Garbage, Reset, LaneKill, HalfOpen];
        let grew = |k: &WireFault| state.injected(*k) > before[k.slot()];
        kinds.into_iter().filter(grew).collect()
    }

    fn tallies(state: &FaultyState) -> [u64; 6] {
        std::array::from_fn(|i| state.injected[i].load(Ordering::Relaxed))
    }

    /// Push 1 MiB through a faulty write half and return every injected
    /// fault with the stream offset it hit. Nonblocking: the peer reads
    /// nothing until the socket first refuses a write, so many calls
    /// come back `WouldBlock`. Calls stay at 4 KiB, which a Unix stream
    /// socket takes whole or not at all, so both modes see the same
    /// call sequence.
    fn write_faults(nonblocking: bool) -> Vec<(WireFault, u64)> {
        let plan = WireFaults {
            seed: 21,
            torn: 0.4,
            garbage: 0.1,
            ..WireFaults::default()
        };
        let (mut tx, mut rx) = pair_with(plan);
        tx.set_nonblocking(nonblocking).unwrap();
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            if nonblocking {
                wait.recv().unwrap();
            }
            let mut sink = Vec::new();
            rx.read_to_end(&mut sink).unwrap();
            sink.len()
        });
        let data = vec![0x3Cu8; 1 << 20];
        let (mut off, mut seen, mut refused) = (0, Vec::new(), 0);
        while off < data.len() {
            let (before, at) = (tallies(state_of(&tx)), off as u64);
            match tx.write(&data[off..data.len().min(off + 4096)]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert_eq!(tallies(state_of(&tx)), before, "a refused call reported");
                    if refused == 0 {
                        go.send(()).unwrap();
                    }
                    refused += 1;
                    std::thread::yield_now();
                }
                Err(e) => panic!("{e}"),
            }
            seen.extend(fired(state_of(&tx), &before).into_iter().map(|k| (k, at)));
        }
        if !nonblocking {
            drop(go);
        } else {
            assert!(refused > 0, "the peer never pushed back");
        }
        assert_eq!(state_of(&tx).written.load(Ordering::Relaxed), 1 << 20);
        drop(tx);
        assert_eq!(reader.join().unwrap(), 1 << 20);
        seen
    }

    /// Pull 64 bursts of 4 KiB through a faulty read half and return
    /// every injected fault with the stream offset it hit. The peer
    /// writes a burst only when asked; nonblocking, the reader first
    /// knocks on the empty socket three times.
    fn read_faults(nonblocking: bool) -> Vec<(WireFault, u64)> {
        let plan = WireFaults {
            seed: 21,
            short_read: 0.5,
            ..WireFaults::default()
        };
        let (a, b) = UnixStream::pair().unwrap();
        let mut rx = Endpoint::Uds(a).with_faults(Arc::new(plan), 1);
        rx.set_nonblocking(nonblocking).unwrap();
        let mut tx = Endpoint::Uds(b);
        let (ask, asked) = std::sync::mpsc::channel::<()>();
        let (wrote, written) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            for () in asked {
                tx.write_all(&[0xA5u8; 4096]).unwrap();
                wrote.send(()).unwrap();
            }
        });
        let (mut got, mut seen, mut buf) = (0u64, Vec::new(), [0u8; 4096]);
        for _ in 0..64 {
            for _ in 0..if nonblocking { 3 } else { 0 } {
                let before = tallies(state_of(&rx));
                let err = rx.read(&mut buf).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
                assert_eq!(tallies(state_of(&rx)), before, "a refused call reported");
            }
            ask.send(()).unwrap();
            written.recv().unwrap();
            let mut left = buf.len();
            while left > 0 {
                let before = tallies(state_of(&rx));
                let n = rx.read(&mut buf[..left]).unwrap();
                seen.extend(fired(state_of(&rx), &before).into_iter().map(|k| (k, got)));
                (got, left) = (got + n as u64, left - n);
            }
        }
        drop(ask);
        writer.join().unwrap();
        seen
    }

    #[test]
    fn a_refused_call_leaves_the_fault_sequence_a_function_of_the_seed() {
        let blocking = write_faults(false);
        assert!(blocking.iter().any(|&(k, _)| k == WireFault::TornWrite));
        assert!(blocking.iter().any(|&(k, _)| k == WireFault::Garbage));
        assert_eq!(write_faults(true), blocking);
        let blocking = read_faults(false);
        assert!(!blocking.is_empty());
        assert_eq!(read_faults(true), blocking);
    }

    #[test]
    fn garbage_flips_exactly_one_bit() {
        let (mut tx, mut rx) = pair_with(WireFaults {
            seed: 11,
            garbage: 1.0,
            ..WireFaults::default()
        });
        let msg = [0u8; 128];
        tx.write_all(&msg).unwrap();
        drop(tx);
        let mut got = Vec::new();
        rx.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), 128);
        let flipped: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert!(flipped >= 1, "at least one bit flipped");
    }

    #[test]
    fn observer_sees_injections() {
        use std::sync::atomic::AtomicUsize;
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let (mut tx, _rx) = pair_with(WireFaults {
            seed: 5,
            torn: 1.0,
            on_fault: Some(Arc::new(move |f, peer| {
                assert_eq!(f, WireFault::TornWrite);
                assert_eq!(peer, 1);
                h.fetch_add(1, Ordering::Relaxed);
            })),
            ..WireFaults::default()
        });
        let _ = tx.write(&[0u8; 64]).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
