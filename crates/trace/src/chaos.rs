//! Chaos-engineering configuration shared by the real runtime and the
//! simulator.
//!
//! A [`FaultPlan`] describes *which* faults to inject (drop, delay,
//! duplicate, reorder, `pready` jitter) and with what probabilities; the
//! consumers (`pcomm-core`'s fabric, `pcomm-simmpi`'s transport) call
//! [`FaultPlan::decide`] at their injection points. Every decision is a
//! pure function of `(seed, message envelope, per-channel sequence
//! number, attempt)`: two runs with the same plan and the same workload
//! inject bit-for-bit the same fault sequence regardless of how the OS
//! interleaves the rank threads. That determinism is what makes a chaos
//! failure reproducible from nothing but the seed in the trace.
//!
//! The plan lives here — next to the [`FaultKind`](crate::FaultKind)
//! trace events it emits — so both runtimes share one definition and
//! one `PCOMM_FAULTS` spec grammar.

use crate::FaultKind;
use pcomm_prng::{Rng64, SplitMix64, Xoshiro256pp};

/// The action [`FaultPlan::decide`] chose for one message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    None,
    /// Drop this attempt; the sender should retry (bounded).
    Drop,
    /// Delay delivery by the given number of microseconds.
    Delay {
        /// Injected delay in microseconds, in `[1, max_delay_us]`.
        us: u64,
    },
    /// Deliver the message twice (eager only).
    Duplicate,
    /// Hold the message back so a later one overtakes it (eager only).
    Reorder,
}

/// A seeded fault-injection plan.
///
/// Probabilities are evaluated per message *attempt* from a single
/// uniform draw with cumulative thresholds, so
/// `drop_p + delay_p + dup_p + reorder_p` should stay ≤ 1.0 (excess is
/// clamped by the cumulative comparison order: drop wins over delay,
/// delay over duplicate, duplicate over reorder).
///
/// Build programmatically:
///
/// ```
/// use pcomm_trace::FaultPlan;
/// let plan = FaultPlan::seeded(42).drops(0.02).delays(0.05, 200).retries(3);
/// assert!(plan.any_faults());
/// ```
///
/// or from the `PCOMM_FAULTS` spec grammar:
///
/// ```
/// use pcomm_trace::FaultPlan;
/// let plan = FaultPlan::parse("seed=42,drop=0.02,delay=0.05:200,reorder=0.01,retries=3").unwrap();
/// assert_eq!(plan.seed, 42);
/// assert_eq!(plan.max_delay_us, 200);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every decision derives from it.
    pub seed: u64,
    /// Probability a message attempt is dropped.
    pub drop_p: f64,
    /// Probability a message is delayed.
    pub delay_p: f64,
    /// Upper bound on the injected delay, microseconds (≥ 1).
    pub max_delay_us: u64,
    /// Probability an eager message is duplicated.
    pub dup_p: f64,
    /// Probability an eager message is held back (reordered).
    pub reorder_p: f64,
    /// Whether `pready_range` / `pready_list` issue order is permuted.
    pub jitter_pready: bool,
    /// Resend attempts after a dropped message before it counts as lost.
    pub max_retries: u32,
    /// Probability a wire write delivers only a prefix of its bytes
    /// (socket transport only; shm delivery is all-or-nothing).
    pub wire_torn_p: f64,
    /// Probability a wire read returns fewer bytes than available.
    pub wire_short_read_p: f64,
    /// Probability one byte of a wire write is flipped in flight.
    pub wire_garbage_p: f64,
    /// Probability a connection resets at a write boundary.
    pub wire_reset_p: f64,
    /// Kill a rank's socket toward each peer after this many bytes
    /// have crossed it.
    pub wire_lane_kill: Option<u64>,
    /// Silently swallow writes after this many bytes (half-open peer:
    /// the socket looks healthy, nothing arrives).
    pub wire_half_open: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero) with the
    /// given seed. Chain the builder methods to enable faults.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.0,
            delay_p: 0.0,
            max_delay_us: 100,
            dup_p: 0.0,
            reorder_p: 0.0,
            jitter_pready: false,
            max_retries: 3,
            wire_torn_p: 0.0,
            wire_short_read_p: 0.0,
            wire_garbage_p: 0.0,
            wire_reset_p: 0.0,
            wire_lane_kill: None,
            wire_half_open: None,
        }
    }

    /// Drop each message attempt with probability `p`.
    pub fn drops(mut self, p: f64) -> FaultPlan {
        self.drop_p = p;
        self
    }

    /// Delay messages with probability `p`, up to `max_us` microseconds.
    pub fn delays(mut self, p: f64, max_us: u64) -> FaultPlan {
        self.delay_p = p;
        self.max_delay_us = max_us.max(1);
        self
    }

    /// Duplicate eager messages with probability `p`.
    pub fn duplicates(mut self, p: f64) -> FaultPlan {
        self.dup_p = p;
        self
    }

    /// Hold eager messages back (reorder) with probability `p`.
    pub fn reorders(mut self, p: f64) -> FaultPlan {
        self.reorder_p = p;
        self
    }

    /// Permute the issue order of `pready_range` / `pready_list`.
    pub fn jitter(mut self, on: bool) -> FaultPlan {
        self.jitter_pready = on;
        self
    }

    /// Bound the resend attempts after a drop (0 = no resend: first
    /// drop is a lost message).
    pub fn retries(mut self, n: u32) -> FaultPlan {
        self.max_retries = n;
        self
    }

    /// Tear wire writes with probability `p`.
    pub fn torn_writes(mut self, p: f64) -> FaultPlan {
        self.wire_torn_p = p;
        self
    }

    /// Kill the socket after `bytes` bytes have crossed it.
    pub fn lane_kill(mut self, bytes: u64) -> FaultPlan {
        self.wire_lane_kill = Some(bytes);
        self
    }

    /// Silently swallow writes after `bytes` bytes (half-open).
    pub fn half_open(mut self, bytes: u64) -> FaultPlan {
        self.wire_half_open = Some(bytes);
        self
    }

    /// Whether the plan injects wire-class faults (socket transport).
    pub fn any_wire_faults(&self) -> bool {
        self.wire_torn_p > 0.0
            || self.wire_short_read_p > 0.0
            || self.wire_garbage_p > 0.0
            || self.wire_reset_p > 0.0
            || self.wire_lane_kill.is_some()
            || self.wire_half_open.is_some()
    }

    /// Whether the plan can inject anything at all.
    pub fn any_faults(&self) -> bool {
        self.drop_p > 0.0
            || self.delay_p > 0.0
            || self.dup_p > 0.0
            || self.reorder_p > 0.0
            || self.jitter_pready
            || self.any_wire_faults()
    }

    /// Parse the `PCOMM_FAULTS` spec: comma-separated `key=value` items.
    ///
    /// Keys: `seed=N`, `drop=P`, `delay=P[:MAX_US]`, `dup=P`,
    /// `reorder=P`, `jitter` (flag), `retries=N`, and the wire-class
    /// faults (socket transport only): `torn=P`, `shortread=P`,
    /// `garbage=P`, `reset=P`, `lanekill=BYTES`, `halfopen=BYTES`.
    /// Probabilities are in `[0, 1]`. Unknown keys and malformed values
    /// are errors.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        fn need<'a>(key: &str, v: Option<&'a str>) -> Result<&'a str, String> {
            v.ok_or_else(|| format!("`{key}` needs a value"))
        }
        let mut plan = FaultPlan::seeded(0);
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, val) = match item.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (item, None),
            };
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
                if (0.0..=1.0).contains(&p) {
                    Ok(p)
                } else {
                    Err(format!("probability `{v}` outside [0, 1]"))
                }
            };
            match key {
                "seed" => {
                    plan.seed = need(key, val)?
                        .parse()
                        .map_err(|_| format!("bad seed `{}`", val.unwrap_or("")))?;
                }
                "drop" => plan.drop_p = prob(need(key, val)?)?,
                "delay" => {
                    let v = need(key, val)?;
                    let (p, max_us) = match v.split_once(':') {
                        Some((p, us)) => (
                            prob(p)?,
                            us.parse().map_err(|_| format!("bad delay bound `{us}`"))?,
                        ),
                        None => (prob(v)?, plan.max_delay_us),
                    };
                    plan.delay_p = p;
                    plan.max_delay_us = max_us.max(1);
                }
                "dup" => plan.dup_p = prob(need(key, val)?)?,
                "reorder" => plan.reorder_p = prob(need(key, val)?)?,
                "jitter" => match val {
                    None | Some("1") | Some("true") => plan.jitter_pready = true,
                    Some("0") | Some("false") => plan.jitter_pready = false,
                    Some(v) => return Err(format!("bad jitter flag `{v}`")),
                },
                "retries" => {
                    plan.max_retries = need(key, val)?
                        .parse()
                        .map_err(|_| format!("bad retries `{}`", val.unwrap_or("")))?;
                }
                "torn" => plan.wire_torn_p = prob(need(key, val)?)?,
                "shortread" => plan.wire_short_read_p = prob(need(key, val)?)?,
                "garbage" => plan.wire_garbage_p = prob(need(key, val)?)?,
                "reset" => plan.wire_reset_p = prob(need(key, val)?)?,
                "lanekill" | "halfopen" => {
                    let v = need(key, val)?;
                    let bytes = match v.split_once(':') {
                        Some((_, b)) => {
                            return Err(format!(
                                "`{key}={v}`: a peer pair has one socket, so the \
                                 threshold stands alone: `{key}={b}`"
                            ))
                        }
                        None => v
                            .parse()
                            .map_err(|_| format!("bad {key} byte threshold `{v}`"))?,
                    };
                    if key == "lanekill" {
                        plan.wire_lane_kill = Some(bytes);
                    } else {
                        plan.wire_half_open = Some(bytes);
                    }
                }
                _ => return Err(format!("unknown PCOMM_FAULTS key `{key}`")),
            }
        }
        Ok(plan)
    }

    /// Decide the fate of one message attempt.
    ///
    /// `seq` is the per-channel (src, dst, ctx, tag) message sequence
    /// number maintained by the caller; `attempt` is the resend attempt
    /// (0 = first try). The result is a pure function of the arguments
    /// and the seed — independent of thread interleaving.
    pub fn decide(
        &self,
        src: usize,
        dst: usize,
        ctx: u64,
        tag: i64,
        seq: u64,
        attempt: u32,
    ) -> FaultAction {
        let mut rng = self.stream(&[
            0x6d73, // domain separator: message decisions
            src as u64,
            dst as u64,
            ctx,
            tag as u64,
            seq,
            attempt as u64,
        ]);
        let r = rng.next_f64();
        let mut cum = self.drop_p;
        if r < cum {
            return FaultAction::Drop;
        }
        cum += self.delay_p;
        if r < cum {
            return FaultAction::Delay {
                us: 1 + rng.next_bounded(self.max_delay_us),
            };
        }
        cum += self.dup_p;
        if r < cum {
            return FaultAction::Duplicate;
        }
        cum += self.reorder_p;
        if r < cum {
            return FaultAction::Reorder;
        }
        FaultAction::None
    }

    /// Deterministic permutation of `0..n` for `pready` jitter round
    /// `round` on `rank`. Identity when `jitter_pready` is off.
    pub fn jitter_order(&self, rank: usize, round: u64, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if self.jitter_pready && n > 1 {
            let seed = self.stream(&[0x6a74, rank as u64, round]).next_u64();
            Xoshiro256pp::seed_from_u64(seed).shuffle(&mut order);
        }
        order
    }

    /// A decision stream keyed by the seed and the given words: each
    /// word is folded through a SplitMix64 step so nearby envelopes get
    /// uncorrelated streams.
    fn stream(&self, words: &[u64]) -> SplitMix64 {
        let mut acc = SplitMix64::new(self.seed).next_u64();
        for &w in words {
            acc = SplitMix64::new(acc ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
        SplitMix64::new(acc)
    }
}

/// Map a [`FaultAction`] to the [`FaultKind`] it is traced as.
pub fn action_fault_kind(action: FaultAction) -> Option<FaultKind> {
    match action {
        FaultAction::None => None,
        FaultAction::Drop => Some(FaultKind::Drop),
        FaultAction::Delay { .. } => Some(FaultKind::Delay),
        FaultAction::Duplicate => Some(FaultKind::Duplicate),
        FaultAction::Reorder => Some(FaultKind::Reorder),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::seeded(42)
            .drops(0.2)
            .delays(0.2, 500)
            .duplicates(0.1)
            .reorders(0.1);
        for seq in 0..200 {
            for attempt in 0..3 {
                let a = plan.decide(0, 1, 7, 3, seq, attempt);
                let b = plan.decide(0, 1, 7, 3, seq, attempt);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn distinct_channels_get_distinct_streams() {
        let plan = FaultPlan::seeded(1).drops(0.5);
        let on_a: Vec<_> = (0..64).map(|s| plan.decide(0, 1, 0, 0, s, 0)).collect();
        let on_b: Vec<_> = (0..64).map(|s| plan.decide(0, 2, 0, 0, s, 0)).collect();
        assert_ne!(on_a, on_b, "channel envelope must perturb the stream");
        let drops = on_a.iter().filter(|a| **a == FaultAction::Drop).count();
        assert!((10..=54).contains(&drops), "p=0.5 over 64 draws: {drops}");
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let plan = FaultPlan::seeded(9);
        assert!(!plan.any_faults());
        for seq in 0..100 {
            assert_eq!(plan.decide(1, 0, 0, 5, seq, 0), FaultAction::None);
        }
    }

    #[test]
    fn delay_bound_is_respected() {
        let plan = FaultPlan::seeded(3).delays(1.0, 50);
        for seq in 0..200 {
            match plan.decide(0, 1, 0, 0, seq, 0) {
                FaultAction::Delay { us } => assert!((1..=50).contains(&us)),
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn jitter_order_is_a_deterministic_permutation() {
        let plan = FaultPlan::seeded(5).jitter(true);
        let a = plan.jitter_order(2, 1, 16);
        let b = plan.jitter_order(2, 1, 16);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(a, plan.jitter_order(2, 2, 16), "rounds differ");
        let off = FaultPlan::seeded(5);
        assert_eq!(off.jitter_order(2, 1, 8), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parse_roundtrips_the_readme_example() {
        let plan =
            FaultPlan::parse("seed=42, drop=0.02, delay=0.05:200, dup=0.01, jitter").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop_p, 0.02);
        assert_eq!(plan.delay_p, 0.05);
        assert_eq!(plan.max_delay_us, 200);
        assert_eq!(plan.dup_p, 0.01);
        assert!(plan.jitter_pready);
        assert_eq!(plan.max_retries, 3, "default retries");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("").is_ok(), "empty spec is a no-op plan");
    }

    #[test]
    fn parse_wire_fault_keys() {
        let plan = FaultPlan::parse(
            "seed=7, torn=0.1, shortread=0.2, garbage=0.05, reset=0.01, \
             lanekill=65536, halfopen=1024",
        )
        .unwrap();
        assert_eq!(plan.wire_torn_p, 0.1);
        assert_eq!(plan.wire_short_read_p, 0.2);
        assert_eq!(plan.wire_garbage_p, 0.05);
        assert_eq!(plan.wire_reset_p, 0.01);
        assert_eq!(plan.wire_lane_kill, Some(65536));
        assert_eq!(plan.wire_half_open, Some(1024));
        assert!(plan.any_wire_faults());
        assert!(plan.any_faults());
        // A message-class-only plan reports no wire faults.
        assert!(!FaultPlan::parse("drop=0.1").unwrap().any_wire_faults());
        // Thresholded faults take a byte count.
        assert!(FaultPlan::parse("lanekill").is_err());
        assert!(FaultPlan::parse("halfopen=x").is_err());
        assert!(FaultPlan::parse("torn=2.0").is_err());
    }

    #[test]
    fn the_retired_lane_form_is_an_error_naming_the_new_one() {
        for (spec, want) in [
            ("seed=42,lanekill=0:65536", "`lanekill=65536`"),
            ("halfopen=0:256", "`halfopen=256`"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(want), "`{spec}` gave `{err}`");
        }
    }
}
