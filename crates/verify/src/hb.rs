//! Vector-clock happens-before race detection.
//!
//! Each verify event that carries a `tid` belongs to one thread of
//! execution (the global `pcomm_trace::current_tid()` id in the real
//! runtime, the rank in the simulator). Threads advance their own clock
//! component per event; the synchronization edges the runtime actually
//! provides are mirrored as clock joins:
//!
//! * `start` → every later event of the same request side (the
//!   `started` flag's release/acquire pair);
//! * `write(p)` → `pready(p)` (partition-state release/acquire);
//! * `pready(p)` → the send of the wire message covering `p` (the
//!   ready-counter `fetch_add`);
//! * k-th `MsgSend(req, m)` → k-th `MsgRecv(req, m)` (per-channel FIFO
//!   delivery through the fabric);
//! * `MsgRecv(req, m)` → any `parrived == true` probe of a partition `m`
//!   covers (the arrival `Completion`'s release/acquire);
//! * `MsgRecv(req, *)` → receiver `wait` (futex completion wake);
//! * `MsgSend(req, *)` → sender `wait`, and additionally
//!   `MsgRecv(req, m)` → sender `wait` for non-eager messages (a
//!   rendezvous sender blocks until the receiver's copy drains its
//!   buffer; an eager send detached at injection time).
//!
//! Buffer accesses are then checked pairwise per `(request, side,
//! partition)` cell: user writes and transfer reads on the send buffer,
//! transfer writes and user reads on the recv buffer. Two accesses with
//! at least one write that are not ordered by the edges above are a
//! race, reported with full provenance on both sides.

use std::collections::{BTreeMap, HashMap, VecDeque};

use pcomm_trace::EventKind;

use crate::model::{Model, Side};
use crate::{AccessInfo, AccessKind, RaceFinding};

/// A vector clock: one logical-time component per thread.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Clock(Vec<u32>);

impl Clock {
    fn join(&mut self, other: &Clock) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    fn inc(&mut self, t: usize) {
        if t >= self.0.len() {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }

    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }
}

/// One recorded buffer access with its clock snapshot.
#[derive(Debug, Clone)]
struct Access {
    thread: usize,
    clock: Clock,
    info: AccessInfo,
}

impl Access {
    fn is_write(&self) -> bool {
        matches!(
            self.info.kind,
            AccessKind::UserWrite | AccessKind::TransferWrite
        )
    }

    /// Did this access happen-before the current state of `clock`?
    fn ordered_before(&self, clock: &Clock) -> bool {
        self.clock.get(self.thread) <= clock.get(self.thread)
    }
}

/// Per-location state: the classic last-write + reads-since frontier.
#[derive(Default)]
struct Cell {
    last_write: Option<Access>,
    reads: Vec<Access>,
}

pub(crate) fn detect_races(model: &Model) -> Vec<RaceFinding> {
    let mut threads: HashMap<u16, usize> = HashMap::new();
    let mut clocks: Vec<Clock> = Vec::new();
    // Release stores keyed by the synchronizing object.
    let mut start_clock: HashMap<(u16, Side), Clock> = HashMap::new();
    let mut part_release: HashMap<(u16, u32), Clock> = HashMap::new();
    let mut msg_release: HashMap<(u16, u16), Clock> = HashMap::new();
    let mut sent_release: HashMap<u16, Clock> = HashMap::new();
    let mut chan: HashMap<(u16, u16), VecDeque<Clock>> = HashMap::new();
    let mut recv_done: HashMap<(u16, u16), (Clock, bool)> = HashMap::new();
    // Access cells keyed by (req, buffer side, partition).
    let mut cells: BTreeMap<(u16, Side, u32), Cell> = BTreeMap::new();
    let mut races: Vec<RaceFinding> = Vec::new();

    let mut thread_of = |tid: u16, clocks: &mut Vec<Clock>| -> usize {
        let n = threads.len();
        let t = *threads.entry(tid).or_insert(n);
        if t >= clocks.len() {
            clocks.resize(t + 1, Clock::default());
        }
        t
    };

    for e in &model.events {
        let tid = match verify_tid(&e.ev.kind) {
            Some(t) => t,
            None => continue, // VerifyBlocked etc.: no thread, no clock
        };
        let t = thread_of(tid, &mut clocks);
        clocks[t].inc(t);

        let record = |clocks: &[Clock],
                      races: &mut Vec<RaceFinding>,
                      cells: &mut BTreeMap<(u16, Side, u32), Cell>,
                      req: u16,
                      side: Side,
                      part: u32,
                      kind: AccessKind,
                      iter: u32| {
            let access = Access {
                thread: t,
                clock: clocks[t].clone(),
                info: AccessInfo {
                    kind,
                    rank: e.ev.rank,
                    tid,
                    part,
                    iter,
                    seq: e.seq,
                    ts_ns: e.ev.ts_ns,
                },
            };
            let cell = cells.entry((req, side, part)).or_default();
            let mut conflict: Option<&Access> = None;
            if let Some(w) = &cell.last_write {
                if !w.ordered_before(&clocks[t]) {
                    conflict = Some(w);
                }
            }
            if conflict.is_none() && access.is_write() {
                conflict = cell.reads.iter().find(|r| !r.ordered_before(&clocks[t]));
            }
            if let Some(prior) = conflict {
                races.push(RaceFinding {
                    req,
                    side,
                    part,
                    first: prior.info.clone(),
                    second: access.info.clone(),
                });
            }
            if access.is_write() {
                cell.last_write = Some(access);
                cell.reads.clear();
            } else {
                cell.reads.push(access);
            }
        };

        match e.ev.kind {
            EventKind::VerifyStart { req, sender, .. } => {
                start_clock.insert((req, Side::from_sender(sender)), clocks[t].clone());
            }
            EventKind::VerifyWrite {
                req, part, iter, ..
            } => {
                if let Some(c) = start_clock.get(&(req, Side::Send)) {
                    let c = c.clone();
                    clocks[t].join(&c);
                }
                record(
                    &clocks,
                    &mut races,
                    &mut cells,
                    req,
                    Side::Send,
                    part,
                    AccessKind::UserWrite,
                    iter,
                );
                part_release.insert((req, part), clocks[t].clone());
            }
            EventKind::VerifyPready { req, part, .. } => {
                for c in [
                    start_clock.get(&(req, Side::Send)).cloned(),
                    part_release.get(&(req, part)).cloned(),
                ]
                .into_iter()
                .flatten()
                {
                    clocks[t].join(&c);
                }
                if let Some(info) = model.requests.get(&req) {
                    if let Some(m) = info.msg_of_spart(part) {
                        msg_release.entry((req, m)).or_default().join(&clocks[t]);
                    }
                }
            }
            EventKind::VerifyMsgSend { req, msg, iter, .. } => {
                for c in [
                    start_clock.get(&(req, Side::Send)).cloned(),
                    msg_release.get(&(req, msg)).cloned(),
                ]
                .into_iter()
                .flatten()
                {
                    clocks[t].join(&c);
                }
                // The injection reads every send partition the message
                // covers (eager copies now; a rendezvous hands the range
                // to the fabric, which reads it at match time — modeled
                // again at the recv).
                if let Some(info) = model.requests.get(&req) {
                    for p in info.sparts_of_msg(msg) {
                        record(
                            &clocks,
                            &mut races,
                            &mut cells,
                            req,
                            Side::Send,
                            p,
                            AccessKind::TransferRead,
                            iter,
                        );
                    }
                }
                chan.entry((req, msg))
                    .or_default()
                    .push_back(clocks[t].clone());
                sent_release.entry(req).or_default().join(&clocks[t]);
            }
            EventKind::VerifyMsgRecv {
                req, msg, eager, ..
            } => {
                for c in [
                    start_clock.get(&(req, Side::Recv)).cloned(),
                    chan.get_mut(&(req, msg)).and_then(|q| q.pop_front()),
                ]
                .into_iter()
                .flatten()
                {
                    clocks[t].join(&c);
                }
                if let Some(info) = model.requests.get(&req) {
                    let iter = 0; // recv copy has no iteration counter
                    for p in info.rparts_of_msg(msg) {
                        record(
                            &clocks,
                            &mut races,
                            &mut cells,
                            req,
                            Side::Recv,
                            p,
                            AccessKind::TransferWrite,
                            iter,
                        );
                    }
                    if !eager {
                        // Zero-copy path: the match-time copy reads the
                        // sender's partitions directly.
                        for p in info.sparts_of_msg(msg) {
                            record(
                                &clocks,
                                &mut races,
                                &mut cells,
                                req,
                                Side::Send,
                                p,
                                AccessKind::TransferRead,
                                iter,
                            );
                        }
                    }
                }
                recv_done.insert((req, msg), (clocks[t].clone(), eager));
            }
            EventKind::VerifyParrived {
                req,
                part,
                arrived: true,
                ..
            } => {
                let m = model
                    .requests
                    .get(&req)
                    .and_then(|info| info.msg_of_rpart(part));
                if let Some((c, _)) = m.and_then(|m| recv_done.get(&(req, m))) {
                    let c = c.clone();
                    clocks[t].join(&c);
                }
            }
            EventKind::VerifyRead {
                req, part, iter, ..
            } => {
                record(
                    &clocks,
                    &mut races,
                    &mut cells,
                    req,
                    Side::Recv,
                    part,
                    AccessKind::UserRead,
                    iter,
                );
            }
            EventKind::VerifyWaitDone { req, sender, .. } => {
                let joins: Vec<Clock> = recv_done
                    .iter()
                    .filter(|((r, _), (_, eager))| *r == req && (!sender || !eager))
                    .map(|(_, (c, _))| c.clone())
                    .collect();
                for c in joins {
                    clocks[t].join(&c);
                }
                if sender {
                    if let Some(c) = sent_release.get(&req).cloned() {
                        clocks[t].join(&c);
                    }
                }
            }
            _ => {}
        }
    }
    races
}

/// The thread id a verify event executes on, when it has one.
pub(crate) fn verify_tid(kind: &EventKind) -> Option<u16> {
    match *kind {
        EventKind::VerifyStart { tid, .. }
        | EventKind::VerifyPready { tid, .. }
        | EventKind::VerifyWrite { tid, .. }
        | EventKind::VerifyRead { tid, .. }
        | EventKind::VerifyMsgSend { tid, .. }
        | EventKind::VerifyMsgRecv { tid, .. }
        | EventKind::VerifyParrived { tid, .. }
        | EventKind::VerifyWaitDone { tid, .. } => Some(tid),
        // Init events run before any concurrency exists; give them the
        // emitting rank's identity so they advance some clock.
        EventKind::VerifyPartInit { .. } | EventKind::VerifyLayoutMsg { .. } => None,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcomm_trace::Event;

    fn ev(ts_ns: u64, rank: u16, kind: EventKind) -> Event {
        Event { ts_ns, rank, kind }
    }

    /// A minimal 1-partition, 1-message request preamble.
    fn preamble(req: u16) -> Vec<Event> {
        vec![
            ev(
                0,
                0,
                EventKind::VerifyPartInit {
                    req,
                    sender: true,
                    parts: 1,
                    msgs: 1,
                },
            ),
            ev(
                1,
                0,
                EventKind::VerifyLayoutMsg {
                    req,
                    msg: 0,
                    first_spart: 0,
                    n_sparts: 1,
                    first_rpart: 0,
                    n_rparts: 1,
                    bytes: 8,
                },
            ),
        ]
    }

    #[test]
    fn ordered_write_then_send_is_clean() {
        let req = 3;
        let mut events = preamble(req);
        events.extend([
            ev(
                10,
                0,
                EventKind::VerifyStart {
                    req,
                    sender: true,
                    iter: 0,
                    tid: 1,
                },
            ),
            ev(
                11,
                0,
                EventKind::VerifyWrite {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 1,
                    dur_ns: 5,
                },
            ),
            ev(
                12,
                0,
                EventKind::VerifyPready {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 1,
                },
            ),
            ev(
                13,
                0,
                EventKind::VerifyMsgSend {
                    req,
                    msg: 0,
                    iter: 0,
                    tid: 1,
                },
            ),
        ]);
        let model = Model::build(&events);
        assert!(detect_races(&model).is_empty());
    }

    #[test]
    fn cross_thread_pready_edge_orders_the_transfer_read() {
        // Thread 2 writes+preadys partition 0; thread 1 issues the send.
        // The pready release edge must order write(t2) before read(t1).
        let req = 4;
        let mut events = preamble(req);
        events.extend([
            ev(
                10,
                0,
                EventKind::VerifyStart {
                    req,
                    sender: true,
                    iter: 0,
                    tid: 1,
                },
            ),
            ev(
                11,
                0,
                EventKind::VerifyWrite {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 2,
                    dur_ns: 5,
                },
            ),
            ev(
                12,
                0,
                EventKind::VerifyPready {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 2,
                },
            ),
            ev(
                13,
                0,
                EventKind::VerifyMsgSend {
                    req,
                    msg: 0,
                    iter: 0,
                    tid: 1,
                },
            ),
        ]);
        let model = Model::build(&events);
        assert!(detect_races(&model).is_empty());
    }

    #[test]
    fn write_after_pready_races_with_the_transfer_read() {
        // The planted bug of the fixture suite: partition 0 is written
        // again from another thread after its pready released it.
        let req = 5;
        let mut events = preamble(req);
        events.extend([
            ev(
                10,
                0,
                EventKind::VerifyStart {
                    req,
                    sender: true,
                    iter: 0,
                    tid: 1,
                },
            ),
            ev(
                11,
                0,
                EventKind::VerifyWrite {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 1,
                    dur_ns: 5,
                },
            ),
            ev(
                12,
                0,
                EventKind::VerifyPready {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 1,
                },
            ),
            // Racy late write from a worker thread, unordered with the
            // transfer below.
            ev(
                13,
                0,
                EventKind::VerifyWrite {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 7,
                    dur_ns: 5,
                },
            ),
            ev(
                14,
                0,
                EventKind::VerifyMsgSend {
                    req,
                    msg: 0,
                    iter: 0,
                    tid: 1,
                },
            ),
        ]);
        let model = Model::build(&events);
        let races = detect_races(&model);
        // Two findings: the late write is unordered with the earlier
        // write AND with the transfer's read of the partition.
        assert_eq!(races.len(), 2, "{races:?}");
        assert!(races.iter().all(|r| r.part == 0 && r.side == Side::Send));
        let vs_transfer = races
            .iter()
            .find(|r| r.second.kind == AccessKind::TransferRead)
            .expect("write vs transfer-read race");
        assert_eq!(vs_transfer.first.tid, 7);
        assert_eq!(vs_transfer.first.kind, AccessKind::UserWrite);
    }

    #[test]
    fn recv_read_after_parrived_true_is_clean_but_unprobed_read_races() {
        let req = 6;
        let mk = |with_probe: bool| {
            let mut events = preamble(req);
            events.extend([
                ev(
                    10,
                    1,
                    EventKind::VerifyStart {
                        req,
                        sender: false,
                        iter: 0,
                        tid: 11,
                    },
                ),
                // Transfer write performed by the sender's thread.
                ev(
                    20,
                    1,
                    EventKind::VerifyMsgRecv {
                        req,
                        msg: 0,
                        tid: 3,
                        eager: true,
                    },
                ),
            ]);
            if with_probe {
                events.push(ev(
                    21,
                    1,
                    EventKind::VerifyParrived {
                        req,
                        part: 0,
                        iter: 0,
                        tid: 11,
                        arrived: true,
                    },
                ));
            }
            events.push(ev(
                22,
                1,
                EventKind::VerifyRead {
                    req,
                    part: 0,
                    iter: 0,
                    tid: 11,
                    dur_ns: 2,
                },
            ));
            events
        };
        let clean = detect_races(&Model::build(&mk(true)));
        assert!(clean.is_empty(), "{clean:?}");
        let racy = detect_races(&Model::build(&mk(false)));
        assert_eq!(racy.len(), 1);
        assert_eq!(racy[0].side, Side::Recv);
        assert_eq!(racy[0].second.kind, AccessKind::UserRead);
    }
}
