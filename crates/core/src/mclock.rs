//! Merge-clock types for multi-ring ordering.
//!
//! A single ring totally orders its own stream; running R independent
//! rings multiplies ordering throughput but yields R unrelated streams.
//! Multi-Ring Paxos merges them with a deterministic round-robin rule
//! paced by a per-ring λ ("lambda") rate: each ring's deliveries are
//! stamped with a *merge slot* derived from the token round they were
//! ordered in, and the merged stream releases messages in global
//! `(slot, ring)` order. Because the slot is a pure function of the
//! ring's own ordered history — never of wall-clock arrival — every
//! observer computes the identical merged order.
//!
//! Two wrinkles are handled here:
//!
//! * **λ pacing.** A ring ordering λ rounds per slot maps rounds
//!   `0..λ` to slot 0, `λ..2λ` to slot 1, and so on. Setting λ > 1
//!   lets a fast ring contribute λ rounds of messages per merge step,
//!   mirroring Multi-Ring Paxos' λ parameter (M values per deterministic
//!   merge round).
//! * **View changes.** Extended Virtual Synchrony reforms a ring with a
//!   fresh token, restarting rounds from zero. Each regular
//!   configuration's monotonically increasing ring-id counter is mapped
//!   to an *epoch base* ([`epoch_base`]) occupying the high bits of the
//!   slot, and [`LambdaClock::align`] raises the clock's offset to that
//!   base when the configuration is installed. The base is intrinsic to
//!   the message — every node that delivers a message delivers it under
//!   the same regular configuration (or its closing transitional one),
//!   by virtue of EVS — so two observers stamp a commonly delivered
//!   message with the identical slot even when their own configuration
//!   histories diverged in between (e.g. they transited different
//!   partition components). A history-derived fence (pinning the offset
//!   at the observer's current slot) would not survive that: observers
//!   with different histories would disagree on every later slot.

use crate::types::Round;

/// Bits of a merge slot devoted to the λ-quantized round; the
/// configuration epoch occupies the bits above. 2⁴⁰ rounds per
/// configuration (~two weeks at a microsecond a round) and 2²⁴
/// configuration counters before saturation.
pub const EPOCH_SHIFT: u32 = 40;

const MAX_EPOCH: u64 = (1 << (u64::BITS - EPOCH_SHIFT)) - 1;

/// Maps a regular configuration's ring-id counter to the merge-slot
/// base its messages are stamped from (saturating far beyond any
/// realistic reformation count).
pub const fn epoch_base(epoch: u64) -> u64 {
    if epoch > MAX_EPOCH {
        u64::MAX << EPOCH_SHIFT
    } else {
        epoch << EPOCH_SHIFT
    }
}

/// Index of a ring within a multi-ring deployment (`0..R`).
///
/// Distinct from [`crate::RingId`], which names one membership *instance*
/// of one ring; a `RingIdx` names the logical shard and is stable across
/// that shard's view changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingIdx(u16);

impl RingIdx {
    /// Wraps a raw ring index.
    pub const fn new(idx: u16) -> Self {
        Self(idx)
    }

    /// The raw index.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// The index widened to `usize` for vector addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RingIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ring{}", self.0)
    }
}

/// Global position of a message in the merged multi-ring stream.
///
/// Ordered first by merge slot, then by ring index — the deterministic
/// round-robin tiebreak. Messages stamped with the same key preserve
/// their per-ring delivery order (the merge is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MergeKey {
    /// λ-quantized, epoch-adjusted merge slot.
    pub slot: u64,
    /// Ring the message was ordered on (round-robin tiebreak).
    pub ring: RingIdx,
}

/// Per-ring logical clock mapping token rounds to merge slots.
///
/// `stamp` is monotone: a round that would map below an already-issued
/// slot is clamped up to the last slot (a safety net — with
/// [`align`](Self::align) called at every regular configuration the raw
/// stamps are already monotone, because epoch bases dominate any
/// realistic round count).
#[derive(Debug, Clone)]
pub struct LambdaClock {
    /// Rounds per merge slot (λ ≥ 1).
    lambda: u64,
    /// Slot offset accumulated across view-change epochs.
    offset: u64,
    /// Highest slot issued so far.
    last: u64,
}

impl LambdaClock {
    /// Creates a clock issuing one merge slot per `lambda` token rounds.
    ///
    /// A `lambda` of zero is treated as one.
    pub fn new(lambda: u64) -> Self {
        Self {
            lambda: lambda.max(1),
            offset: 0,
            last: 0,
        }
    }

    /// The configured rounds-per-slot pace.
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// Stamps a delivery ordered in `round` with its merge slot.
    ///
    /// Monotone: never returns less than a previously returned slot.
    pub fn stamp(&mut self, round: Round) -> u64 {
        let slot = self.offset.saturating_add(round.as_u64() / self.lambda);
        self.last = self.last.max(slot);
        self.last
    }

    /// Raises the epoch offset to `base` (normally
    /// [`epoch_base`]`(counter)` of a newly installed regular
    /// configuration, whose fresh token restarts rounds from zero).
    /// Never lowers it; aligning to a stale base is a no-op.
    pub fn align(&mut self, base: u64) {
        self.offset = self.offset.max(base);
        self.last = self.last.max(self.offset);
    }

    /// Lifts the offset so that `round` stamps at least `hint` (a skip
    /// tick's merge-slot hint, ordered in `round`). Never lowers the
    /// offset, so stamps stay monotone; a hint the clock already meets is
    /// a no-op. Observers that apply the same hints at the same points of
    /// the ring's stream keep identical clocks.
    pub fn raise(&mut self, hint: u64, round: Round) {
        let quantized = round.as_u64() / self.lambda;
        self.offset = self.offset.max(hint.saturating_sub(quantized));
    }

    /// The highest slot issued so far (zero before any stamp).
    pub fn current(&self) -> u64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_quantizes_rounds_into_slots() {
        let mut c = LambdaClock::new(3);
        assert_eq!(c.stamp(Round::new(0)), 0);
        assert_eq!(c.stamp(Round::new(2)), 0);
        assert_eq!(c.stamp(Round::new(3)), 1);
        assert_eq!(c.stamp(Round::new(7)), 2);
        assert_eq!(c.current(), 2);
    }

    #[test]
    fn zero_lambda_is_clamped_to_one() {
        let mut c = LambdaClock::new(0);
        assert_eq!(c.lambda(), 1);
        assert_eq!(c.stamp(Round::new(5)), 5);
    }

    #[test]
    fn stamps_are_monotone_even_if_rounds_regress() {
        let mut c = LambdaClock::new(1);
        assert_eq!(c.stamp(Round::new(10)), 10);
        // A regressing round (should not happen within one epoch, but the
        // clock must stay safe) is clamped to the issued high-water mark.
        assert_eq!(c.stamp(Round::new(4)), 10);
    }

    #[test]
    fn align_carries_slots_across_round_restart() {
        let mut c = LambdaClock::new(2);
        assert_eq!(c.stamp(Round::new(9)), 4);
        // View change: configuration counter 8, new token, rounds
        // restart at zero. Slots jump to the intrinsic epoch base.
        c.align(epoch_base(8));
        assert_eq!(c.stamp(Round::new(0)), epoch_base(8));
        assert_eq!(c.stamp(Round::new(2)), epoch_base(8) + 1);
        assert_eq!(c.stamp(Round::new(4)), epoch_base(8) + 2);
    }

    #[test]
    fn align_is_idempotent_and_never_rewinds() {
        let mut c = LambdaClock::new(1);
        c.align(epoch_base(12));
        c.align(epoch_base(12));
        assert_eq!(c.stamp(Round::new(0)), epoch_base(12));
        // A stale (smaller) base is ignored.
        c.align(epoch_base(4));
        assert_eq!(c.stamp(Round::new(1)), epoch_base(12) + 1);
    }

    #[test]
    fn raise_lifts_the_ticks_own_stamp_and_never_lowers() {
        let mut c = LambdaClock::new(2);
        assert_eq!(c.stamp(Round::new(4)), 2);
        // A slot hint above the clock: round 6 now stamps the hint.
        c.raise(40, Round::new(6));
        assert_eq!(c.stamp(Round::new(6)), 40);
        assert_eq!(c.stamp(Round::new(8)), 41);
        // A hint the clock already meets changes nothing.
        c.raise(10, Round::new(10));
        assert_eq!(c.stamp(Round::new(10)), 42);
        // Nor does a hint below a later round's quantized value.
        c.raise(0, Round::new(100));
        assert_eq!(c.stamp(Round::new(12)), 43);
    }

    #[test]
    fn raised_stamps_stay_monotone() {
        let mut c = LambdaClock::new(1);
        let mut last = 0;
        for (i, hint) in [5u64, 0, 90, 3, 91, 400, 7].into_iter().enumerate() {
            let round = Round::new(i as u64 * 3);
            c.raise(hint, round);
            for r in [round.as_u64(), round.as_u64() + 1] {
                let slot = c.stamp(Round::new(r));
                assert!(slot >= last, "stamp regressed");
                last = slot;
            }
            assert!(last >= hint, "the tick's round stamps at least its hint");
        }
    }

    #[test]
    fn clocks_fed_the_same_stream_agree() {
        // Interleave stamps, aligns and raises; two clocks fed the same
        // sequence issue the same slots.
        let feed = |c: &mut LambdaClock| -> Vec<u64> {
            let mut out = Vec::new();
            for i in 0..60u64 {
                match i % 7 {
                    0 => c.align(epoch_base(i / 7)),
                    3 => c.raise(i * i * 1_000, Round::new(i)),
                    _ => out.push(c.stamp(Round::new(i))),
                }
            }
            out
        };
        let (mut a, mut b) = (LambdaClock::new(3), LambdaClock::new(3));
        assert_eq!(feed(&mut a), feed(&mut b));
        assert_eq!(a.current(), b.current());
    }

    #[test]
    fn epoch_bases_dominate_rounds_and_saturate() {
        assert_eq!(epoch_base(0), 0);
        assert!(epoch_base(4) > 1 << 40);
        assert!(epoch_base(4) < epoch_base(8));
        // Saturation: absurd counters stay ordered at the top band.
        assert_eq!(epoch_base(u64::MAX), epoch_base(1 << 30));
    }

    #[test]
    fn merge_key_orders_by_slot_then_ring() {
        let a = MergeKey {
            slot: 1,
            ring: RingIdx::new(3),
        };
        let b = MergeKey {
            slot: 2,
            ring: RingIdx::new(0),
        };
        let c = MergeKey {
            slot: 1,
            ring: RingIdx::new(4),
        };
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn ring_idx_displays_compactly() {
        assert_eq!(RingIdx::new(7).to_string(), "ring7");
    }
}
