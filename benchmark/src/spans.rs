//! In-memory spans around the benchmark's own calls into the library.
//!
//! The library is not instrumented: a span opens just before a public
//! call and closes just after it returns, on the thread that made the
//! call. Spans nest (an iteration holds its `start`/`pready`/`wait`
//! calls); a span's self time is its duration minus its children's.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Nanoseconds since the Unix epoch, the one clock the parent and its
/// rank processes share.
pub fn unix_now_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Monotonic time expressed in nanoseconds since the parent's `t0`
/// (taken just before the first rank of the epoch is spawned).
#[derive(Clone, Copy)]
pub struct Clock {
    base: Instant,
    offset_ns: i128,
}

impl Clock {
    pub fn since(t0_unix_ns: u128) -> Clock {
        Clock {
            base: Instant::now(),
            offset_ns: unix_now_ns() as i128 - t0_unix_ns as i128,
        }
    }

    pub fn now_ns(&self) -> u64 {
        (self.offset_ns + self.base.elapsed().as_nanos() as i128).max(0) as u64
    }
}

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub iter: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Disabled, `open`/`close` cost one predictable
/// branch and read no clock.
pub struct Recorder {
    pub clock: Clock,
    on: bool,
    iter: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(clock: Clock, on: bool) -> Recorder {
        Recorder {
            clock,
            on,
            iter: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter as u32;
    }

    /// Open a span; the token goes to the matching [`Recorder::close`].
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            iter: self.iter,
        });
        self.stack.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `token`.
    pub fn close(&mut self, token: u32) {
        if !self.on {
            return;
        }
        let end = self.clock.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(token), "spans must close innermost first");
        self.spans[token as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the duration of the
/// spans that name it as parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("iter", 0, 1000, NO_PARENT),
            span("part.start_send", 100, 250, 0),
            span("part.send_wait", 300, 900, 0),
            span("inner", 400, 500, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![250, 150, 500, 100]);
    }

    #[test]
    fn recorder_nests_and_tags_iterations() {
        let mut rec = Recorder::new(Clock::since(unix_now_ns()), true);
        rec.set_iter(7);
        let outer = rec.open("iter");
        let inner = rec.open("part.pready");
        rec.close(inner);
        rec.close(outer);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (NO_PARENT, 0));
        assert_eq!((s[0].iter, s[1].iter), (7, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own[0] + own[1], s[0].dur_ns());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Clock::since(unix_now_ns()), false);
        let t = rec.open("iter");
        rec.close(t);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn the_clock_counts_from_the_parents_t0() {
        let t0 = unix_now_ns() - 5_000_000;
        let c = Clock::since(t0);
        let a = c.now_ns();
        assert!((5_000_000..60_000_000_000).contains(&a));
        assert!(c.now_ns() >= a);
    }
}
