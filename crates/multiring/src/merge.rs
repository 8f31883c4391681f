//! The deterministic cross-ring merge.
//!
//! Each ring hands the [`Merger`] its own totally ordered stream; the
//! merger interleaves the streams into one total order every observer
//! computes identically. The rule is Multi-Ring Paxos' deterministic
//! round-robin: each entry is stamped with a λ-quantized merge slot
//! derived from the token round it was ordered in (see
//! [`accelring_core::mclock::LambdaClock`]), and entries are released in
//! global `(slot, ring index)` order, per-ring FIFO within a slot.
//!
//! Crucially, the merged **order** is a pure function of the per-ring
//! streams — slot and ring index are intrinsic to each message — while
//! the per-ring **watermarks** (how far each ring is known to have
//! progressed) control only *when* entries become releasable. Two
//! observers may release at different times, but never in different
//! orders.
//!
//! An idle ring would stall the merge (its watermark stops moving, so
//! other rings' entries at later slots can never be proven final). The
//! fix is Multi-Ring Paxos' skip messages: the runtime orders contentless
//! tick messages on idle rings, and their deliveries advance the
//! watermark through [`Merger::advance`] without enqueuing anything. A
//! permanently dead ring is removed with [`Merger::retire`].
//!
//! Rings do not turn rounds at the same speed: an idle ring's leader
//! holds the token, so a busy ring's slots outrun an idle ring's. A tick
//! that only advanced the idle ring through its *own* rounds would leave
//! it ever further behind. So a tick may also carry a merge-slot hint,
//! and [`Merger::advance_hinted`] lifts the ring's clock to it; the
//! runtime finds the rings that need one with [`Merger::lagging_rings`]
//! (Stretching Multi-Ring Paxos' skip instances play the same role).

use std::collections::VecDeque;

use accelring_core::{epoch_base, LambdaClock, RingIdx, Round};

/// One released element of the merged stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergedEntry<T> {
    /// An ordered item from one ring.
    Item {
        /// Ring that ordered it.
        ring: RingIdx,
        /// Merge slot it was released at.
        slot: u64,
        /// The item.
        item: T,
    },
    /// An EVS view-change fence: ring `ring` installed a new regular
    /// configuration at this point of the merged stream. Everything the
    /// ring ordered before its view change merges before the fence,
    /// everything after merges after it.
    Fence {
        /// Ring whose configuration changed.
        ring: RingIdx,
        /// Merge slot the fence was released at.
        slot: u64,
        /// The item carried with the fence (e.g. configuration-change
        /// notifications for local clients).
        item: T,
    },
}

impl<T> MergedEntry<T> {
    /// Ring the entry came from.
    pub fn ring(&self) -> RingIdx {
        match self {
            MergedEntry::Item { ring, .. } | MergedEntry::Fence { ring, .. } => *ring,
        }
    }

    /// Merge slot the entry was released at.
    pub fn slot(&self) -> u64 {
        match self {
            MergedEntry::Item { slot, .. } | MergedEntry::Fence { slot, .. } => *slot,
        }
    }

    /// The carried item, discarding merge metadata.
    pub fn into_item(self) -> T {
        match self {
            MergedEntry::Item { item, .. } | MergedEntry::Fence { item, .. } => item,
        }
    }
}

#[derive(Debug)]
struct Queued<T> {
    slot: u64,
    fence: bool,
    item: T,
}

#[derive(Debug)]
struct RingLane<T> {
    clock: LambdaClock,
    queue: VecDeque<Queued<T>>,
    /// Watermark: every future entry of this ring has slot ≥ `floor`.
    floor: u64,
    /// Retired rings never produce again (treated as floor = ∞).
    retired: bool,
}

impl<T> RingLane<T> {
    fn effective_floor(&self) -> u64 {
        if self.retired {
            u64::MAX
        } else {
            self.floor
        }
    }
}

/// Deterministic λ-paced merger over R totally ordered ring streams.
///
/// Feed each ring's deliveries in its own order via [`push`]/[`advance`]
/// and view changes via [`push_fence`]; each call returns the entries the
/// merged stream can now release. The release order is identical for
/// every observer fed the same per-ring streams, regardless of how the
/// calls interleave across rings.
///
/// [`push`]: Merger::push
/// [`advance`]: Merger::advance
/// [`push_fence`]: Merger::push_fence
#[derive(Debug)]
pub struct Merger<T> {
    rings: Vec<RingLane<T>>,
    /// Highest slot released so far (the delivered-slot cursor a state
    /// snapshot is anchored at: a joiner seeded with this cursor resumes
    /// gap-free at `cursor + 1`).
    cursor: u64,
}

impl<T> Merger<T> {
    /// A merger over `rings` rings, all paced at `lambda` rounds per
    /// merge slot.
    pub fn new(rings: u16, lambda: u64) -> Merger<T> {
        Merger {
            rings: (0..rings.max(1))
                .map(|_| RingLane {
                    clock: LambdaClock::new(lambda),
                    queue: VecDeque::new(),
                    floor: 0,
                    retired: false,
                })
                .collect(),
            cursor: 0,
        }
    }

    /// Highest merge slot released so far (0 before the first release).
    /// Every observer fed the same per-ring streams computes the same
    /// cursor after the same releases — it is the snapshot anchor for
    /// ordered state transfer.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Number of rings being merged.
    pub fn rings(&self) -> u16 {
        self.rings.len() as u16
    }

    fn lane(&mut self, ring: RingIdx) -> &mut RingLane<T> {
        &mut self.rings[ring.as_usize()]
    }

    /// The watermark of one ring (∞-as-`u64::MAX` if retired).
    pub fn floor(&self, ring: RingIdx) -> u64 {
        self.rings[ring.as_usize()].effective_floor()
    }

    /// Entries queued but not yet releasable, across all rings.
    pub fn pending(&self) -> usize {
        self.rings.iter().map(|l| l.queue.len()).sum()
    }

    /// Rings whose lagging watermark is what currently blocks the merged
    /// stream (empty when nothing is queued or the head is releasable).
    ///
    /// The live runtime uses this to decide where skip ticks are needed.
    pub fn blocking_rings(&self) -> Vec<RingIdx> {
        let Some((slot, ring)) = self.min_head() else {
            return Vec::new();
        };
        self.rings
            .iter()
            .enumerate()
            .filter(|&(q, lane)| {
                q != ring
                    && !(lane.effective_floor() > slot
                        || (lane.effective_floor() == slot && q > ring))
            })
            .map(|(q, _)| RingIdx::new(q as u16))
            .collect()
    }

    /// Rings that need a slot-hint tick, each with the slot to hint: every
    /// live ring whose watermark trails the highest live watermark (the
    /// highest slot any lane has stamped), lifted to that watermark; and
    /// a ring that blocks the head of the merged stream at a tie, lifted
    /// just past the head (a lower-indexed ring must pass the slot, a
    /// higher-indexed one only reach it).
    ///
    /// Unlike [`blocking_rings`](Merger::blocking_rings), the first rule
    /// needs nothing queued here, so a daemon with no local subscribers
    /// still paces the rings for every other daemon. The rule settles:
    /// a hint lifts a ring to the highest watermark and no further, so
    /// once the rings stop delivering, they stop needing hints.
    pub fn lagging_rings(&self) -> Vec<(RingIdx, u64)> {
        let high = self
            .rings
            .iter()
            .filter(|l| !l.retired)
            .map(|l| l.floor)
            .max()
            .unwrap_or(0);
        let head = self.min_head();
        self.rings
            .iter()
            .enumerate()
            .filter(|(_, lane)| !lane.retired)
            .filter_map(|(q, lane)| {
                let need = match head {
                    Some((slot, ring)) if ring != q => high.max(slot + u64::from(q < ring)),
                    _ => high,
                };
                (lane.floor < need).then_some((RingIdx::new(q as u16), need))
            })
            .collect()
    }

    /// Enqueues one ordered item from `ring`, stamped from the token
    /// round it was ordered in, and returns any entries the merged
    /// stream releases as a result.
    pub fn push(&mut self, ring: RingIdx, round: Round, item: T) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        let slot = lane.clock.stamp(round);
        lane.floor = lane.floor.max(slot);
        lane.queue.push_back(Queued {
            slot,
            fence: false,
            item,
        });
        self.drain()
    }

    /// Advances `ring`'s watermark from an ordered delivery that carries
    /// no client-visible content (a skip tick, an undecodable payload),
    /// and returns any entries the merged stream releases as a result.
    pub fn advance(&mut self, ring: RingIdx, round: Round) -> Vec<MergedEntry<T>> {
        self.advance_to(ring, 0, round)
    }

    /// Like [`advance`](Merger::advance), but the tick also carries a
    /// configuration-epoch hint: the ring's λ-clock is first aligned to
    /// `epoch`'s base. This is how a ring stuck at a low epoch (it never
    /// reformed) stops gating rings whose configurations — and therefore
    /// slot bases — have moved far ahead: the runtime orders an
    /// epoch-carrying tick *on the lagging ring*, so every observer of
    /// that ring's stream aligns at the same point of it.
    pub fn advance_to(&mut self, ring: RingIdx, epoch: u64, round: Round) -> Vec<MergedEntry<T>> {
        self.advance_hinted(ring, epoch, 0, round)
    }

    /// Like [`advance_to`](Merger::advance_to), but the tick also carries
    /// a merge-slot hint: after the epoch alignment the ring's λ-clock is
    /// raised so the tick's own round stamps at least `slot`. Both hints
    /// ride in the ring's stream, so every observer lifts the clock at
    /// the same point and the merged order stays a pure function of the
    /// per-ring streams.
    pub fn advance_hinted(
        &mut self,
        ring: RingIdx,
        epoch: u64,
        slot: u64,
        round: Round,
    ) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        lane.clock.align(epoch_base(epoch));
        lane.clock.raise(slot, round);
        let slot = lane.clock.stamp(round);
        lane.floor = lane.floor.max(slot);
        self.drain()
    }

    /// Records that `ring` installed a new regular configuration with
    /// ring-id counter `epoch`: a fence entry is queued at the ring's
    /// current slot, and the λ-clock is aligned to the configuration's
    /// intrinsic epoch base, so the fresh token's restarted rounds stamp
    /// slots every observer of the ring computes identically — even
    /// observers whose own configuration histories diverged earlier.
    pub fn push_fence(&mut self, ring: RingIdx, epoch: u64, item: T) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        let slot = lane.clock.current();
        lane.queue.push_back(Queued {
            slot,
            fence: true,
            item,
        });
        lane.clock.align(epoch_base(epoch));
        lane.floor = lane.floor.max(lane.clock.current());
        self.drain()
    }

    /// Enqueues an item at `ring`'s current slot without consuming a
    /// round (used for per-ring events that carry no token round, e.g.
    /// transitional-configuration notifications).
    pub fn push_now(&mut self, ring: RingIdx, item: T) -> Vec<MergedEntry<T>> {
        let lane = self.lane(ring);
        let slot = lane.clock.current();
        lane.queue.push_back(Queued {
            slot,
            fence: false,
            item,
        });
        self.drain()
    }

    /// Permanently removes `ring` from the merge: its queued entries
    /// still release in order, but its watermark no longer gates the
    /// other rings. Called after a rebalance moves the dead ring's
    /// groups elsewhere.
    pub fn retire(&mut self, ring: RingIdx) -> Vec<MergedEntry<T>> {
        self.lane(ring).retired = true;
        self.drain()
    }

    /// Flushes everything still queued, in merge-key order, ignoring
    /// watermarks. Only sound once no ring will produce again (end of a
    /// simulation, offline journal merging).
    pub fn finish(&mut self) -> Vec<MergedEntry<T>> {
        for lane in &mut self.rings {
            lane.retired = true;
        }
        self.drain()
    }

    /// The smallest `(slot, ring)` among queue heads, if any.
    fn min_head(&self) -> Option<(u64, usize)> {
        self.rings
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| lane.queue.front().map(|q| (q.slot, i)))
            .min()
    }

    /// Releases every entry proven final: the globally minimal queued
    /// key, repeatedly, as long as every *other* ring's watermark shows
    /// it can never produce a smaller key.
    fn drain(&mut self) -> Vec<MergedEntry<T>> {
        let mut out = Vec::new();
        while let Some((slot, ring)) = self.min_head() {
            let releasable = self.rings.iter().enumerate().all(|(q, lane)| {
                q == ring
                    || lane.effective_floor() > slot
                    || (lane.effective_floor() == slot && q > ring)
            });
            if !releasable {
                break;
            }
            let q = self.rings[ring].queue.pop_front().expect("head exists");
            self.cursor = self.cursor.max(q.slot);
            let ring = RingIdx::new(ring as u16);
            out.push(if q.fence {
                MergedEntry::Fence {
                    ring,
                    slot: q.slot,
                    item: q.item,
                }
            } else {
                MergedEntry::Item {
                    ring,
                    slot: q.slot,
                    item: q.item,
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: RingIdx = RingIdx::new(0);
    const R1: RingIdx = RingIdx::new(1);
    const R2: RingIdx = RingIdx::new(2);

    fn labels<T: Clone>(entries: &[MergedEntry<T>]) -> Vec<T> {
        entries.iter().map(|e| e.clone().into_item()).collect()
    }

    #[test]
    fn single_ring_passes_through_in_order() {
        let mut m: Merger<u32> = Merger::new(1, 1);
        let mut got = Vec::new();
        for (i, round) in [(1u32, 0u64), (2, 0), (3, 1)] {
            got.extend(m.push(R0, Round::new(round), i));
        }
        got.extend(m.finish());
        assert_eq!(labels(&got), vec![1, 2, 3]);
    }

    #[test]
    fn release_waits_for_other_rings_watermark() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        // Ring 0 orders "a" at slot 0. Ring 1's floor is also 0, but
        // anything ring 1 still produces at slot 0 sorts after ring 0's
        // entries, so "a" is already final.
        let got = m.push(R0, Round::new(0), "a");
        assert_eq!(labels(&got), vec!["a"]);
        // Ring 1 at slot 0 now needs ring 0 to pass slot 0.
        assert!(m.push(R1, Round::new(0), "b").is_empty());
        assert_eq!(m.blocking_rings(), vec![R0]);
        let got = m.advance(R0, Round::new(1));
        assert_eq!(labels(&got), vec!["b"]);
    }

    #[test]
    fn merged_order_is_slot_then_ring() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        let mut got = Vec::new();
        got.extend(m.push(R1, Round::new(0), "r1s0"));
        got.extend(m.push(R1, Round::new(1), "r1s1"));
        got.extend(m.push(R0, Round::new(0), "r0s0"));
        got.extend(m.push(R0, Round::new(1), "r0s1"));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["r0s0", "r1s0", "r0s1", "r1s1"]);
    }

    #[test]
    fn merge_order_is_arrival_invariant() {
        // The defining property: any interleaving of the same per-ring
        // streams merges identically.
        let r0 = [(0u64, "a0"), (0, "a1"), (2, "a2")];
        let r1 = [(0u64, "b0"), (1, "b1"), (1, "b2")];
        let r2 = [(3u64, "c0")];
        let feed = |order: &[usize]| {
            let mut m: Merger<&str> = Merger::new(3, 1);
            let (mut i0, mut i1, mut i2) = (0, 0, 0);
            let mut got = Vec::new();
            for &ring in order {
                match ring {
                    0 if i0 < r0.len() => {
                        got.extend(m.push(R0, Round::new(r0[i0].0), r0[i0].1));
                        i0 += 1;
                    }
                    1 if i1 < r1.len() => {
                        got.extend(m.push(R1, Round::new(r1[i1].0), r1[i1].1));
                        i1 += 1;
                    }
                    2 if i2 < r2.len() => {
                        got.extend(m.push(R2, Round::new(r2[i2].0), r2[i2].1));
                        i2 += 1;
                    }
                    _ => {}
                }
            }
            got.extend(m.finish());
            labels(&got)
        };
        let a = feed(&[0, 0, 0, 1, 1, 1, 2]);
        let b = feed(&[2, 1, 0, 1, 0, 1, 0]);
        let c = feed(&[1, 0, 2, 0, 1, 0, 1]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn lambda_batches_rounds_per_slot() {
        let mut m: Merger<&str> = Merger::new(2, 2);
        let mut got = Vec::new();
        // λ=2: rounds 0..2 are slot 0, rounds 2..4 slot 1.
        got.extend(m.push(R0, Round::new(0), "a"));
        got.extend(m.push(R0, Round::new(1), "b"));
        got.extend(m.push(R1, Round::new(0), "c"));
        got.extend(m.push(R0, Round::new(2), "d"));
        got.extend(m.advance(R1, Round::new(2)));
        assert_eq!(labels(&got), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn idle_ring_skip_unblocks_via_advance() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        assert!(m.push(R1, Round::new(5), "late").is_empty());
        assert_eq!(m.blocking_rings(), vec![R0]);
        // Ring 0 is idle; ticks ordered on it advance the watermark
        // without contributing items. A floor *equal* to the blocked
        // slot is not enough for a lower-indexed ring (it may still
        // produce more messages in that slot's rounds).
        assert!(m.advance(R0, Round::new(3)).is_empty());
        assert!(m.advance(R0, Round::new(5)).is_empty());
        let got = m.advance(R0, Round::new(6));
        assert_eq!(labels(&got), vec!["late"]);
        assert!(m.blocking_rings().is_empty());
    }

    #[test]
    fn fence_orders_between_epochs_and_carries_forward() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        let mut got = Vec::new();
        got.extend(m.push(R0, Round::new(4), "old"));
        got.extend(m.push_fence(R0, 8, "fence"));
        // New configuration (counter 8): rounds restart, slots continue
        // from the configuration's intrinsic epoch base.
        got.extend(m.push(R0, Round::new(0), "new"));
        got.extend(m.push(R0, Round::new(3), "newer"));
        got.extend(m.retire(R1));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["old", "fence", "new", "newer"]);
        assert_eq!(got[2].slot(), accelring_core::epoch_base(8));
        let fence = |e: &MergedEntry<&str>| matches!(e, MergedEntry::Fence { .. });
        assert_eq!(got.iter().position(fence), Some(1));
        // Slots never rewind across the fence.
        let slots: Vec<u64> = got.iter().map(MergedEntry::slot).collect();
        assert!(slots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn divergent_config_histories_stamp_common_messages_identically() {
        // Two observers of the same ring saw different configuration
        // histories (one transited an extra configuration while
        // partitioned away), yet messages common to both get identical
        // slots: the stamp derives from the delivering configuration's
        // counter, never from the observer's accumulated history.
        let run = |extra: bool| {
            let mut m: Merger<&str> = Merger::new(1, 1);
            let mut got = Vec::new();
            got.extend(m.push_fence(R0, 4, "cfg4"));
            got.extend(m.push(R0, Round::new(1), "common1"));
            if extra {
                got.extend(m.push_fence(R0, 8, "cfg8"));
                got.extend(m.push(R0, Round::new(7), "private"));
            }
            got.extend(m.push_fence(R0, 12, "cfg12"));
            got.extend(m.push(R0, Round::new(2), "common2"));
            got.extend(m.finish());
            got.into_iter()
                .filter_map(|e| match e {
                    MergedEntry::Item { slot, item, .. } if item.starts_with("common") => {
                        Some((item, slot))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn epoch_carrying_tick_unblocks_a_lagging_ring() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        // Ring 0 reformed (counter 8); ring 1 never did. Ring 0's
        // post-reformation message sits above every slot ring 1's local
        // rounds can reach.
        let fence = m.push_fence(R0, 8, "cfg");
        assert_eq!(labels(&fence), vec!["cfg"]);
        assert!(m.push(R0, Round::new(1), "blocked").is_empty());
        assert_eq!(m.blocking_rings(), vec![R1]);
        // A plain tick on ring 1 cannot help: its local rounds stamp
        // below ring 0's epoch base forever…
        assert!(m.advance(R1, Round::new(50)).is_empty());
        // …but an epoch-carrying tick aligns ring 1 past that base.
        let got = m.advance_to(R1, 8, Round::new(51));
        assert_eq!(labels(&got), vec!["blocked"]);
    }

    #[test]
    fn lagging_rings_trail_the_highest_watermark() {
        let mut m: Merger<&str> = Merger::new(3, 1);
        assert!(m.lagging_rings().is_empty(), "fresh rings are level");
        // Ring 1 runs ahead with nothing queued (no local subscriber):
        // rings 0 and 2 trail its watermark.
        m.advance(R1, Round::new(9));
        assert_eq!(m.lagging_rings(), vec![(R0, 9), (R2, 9)]);
        // Retired rings never lag, and never set the pace.
        m.retire(R2);
        assert_eq!(m.lagging_rings(), vec![(R0, 9)]);
        m.advance(R0, Round::new(9));
        assert!(m.lagging_rings().is_empty(), "level again: no hint needed");
    }

    #[test]
    fn a_tie_at_the_head_asks_the_lower_ring_to_pass_the_slot() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        assert!(m.push(R1, Round::new(4), "b").is_empty());
        m.advance(R0, Round::new(4));
        // Level watermarks, but ring 0 may still order at slot 4 ahead
        // of "b": it must pass slot 4.
        assert_eq!(m.lagging_rings(), vec![(R0, 5)]);
        let got = m.advance_hinted(R0, 0, 5, Round::new(4));
        assert_eq!(labels(&got), vec!["b"]);
        // Ring 1 now trails ring 0's watermark by one; one more hint
        // levels them and the rule settles.
        assert_eq!(m.lagging_rings(), vec![(R1, 5)]);
        m.advance_hinted(R1, 0, 5, Round::new(4));
        assert!(m.lagging_rings().is_empty());
    }

    #[test]
    fn a_slot_hint_releases_a_busy_rings_backlog() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        // Ring 0 is busy and far ahead in rounds; ring 1 is idle and its
        // held token has turned only 3 rounds.
        assert!(m.advance(R1, Round::new(3)).is_empty());
        let mut got = Vec::new();
        for (round, label) in [(100u64, "a"), (200, "b"), (300, "c")] {
            got.extend(m.push(R0, Round::new(round), label));
        }
        assert!(got.is_empty(), "ring 1's own rounds gate ring 0");
        // A plain tick in ring 1's next round does not help…
        assert!(m.advance(R1, Round::new(4)).is_empty());
        // …a tick hinting ring 0's highest slot releases everything.
        assert_eq!(m.lagging_rings(), vec![(R1, 300)]);
        let got = m.advance_hinted(R1, 0, 300, Round::new(5));
        assert_eq!(labels(&got), vec!["a", "b", "c"]);
        assert_eq!(m.floor(R1), 300);
        // Ring 1's later rounds continue above the hint.
        assert!(m.push(R1, Round::new(6), "d").is_empty());
        assert_eq!(m.floor(R1), 301);
    }

    #[test]
    fn retire_removes_a_dead_ring_from_the_gate() {
        let mut m: Merger<&str> = Merger::new(3, 1);
        assert!(m.push(R1, Round::new(2), "x").is_empty());
        assert!(m.advance(R2, Round::new(9)).is_empty());
        // Ring 0 is dead. Retiring it leaves rings 1 and 2 to merge.
        let got = m.retire(R0);
        assert_eq!(labels(&got), vec!["x"]);
    }

    #[test]
    fn push_now_orders_at_current_slot() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        let mut got = Vec::new();
        got.extend(m.push(R0, Round::new(1), "a"));
        got.extend(m.push_now(R0, "note"));
        got.extend(m.push(R0, Round::new(2), "b"));
        got.extend(m.retire(R1));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["a", "note", "b"]);
    }

    #[test]
    fn cursor_tracks_max_released_slot() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        assert_eq!(m.cursor(), 0);
        // Nothing queued releases while ring 1's watermark lags.
        assert!(m.push(R1, Round::new(3), "late").is_empty());
        assert_eq!(m.cursor(), 0, "queued-but-unreleased must not move it");
        let got = m.advance(R0, Round::new(4));
        assert_eq!(labels(&got), vec!["late"]);
        assert_eq!(m.cursor(), 3);
        // The cursor is a pure function of the released prefix: a second
        // merger fed the same streams lands on the same cursor.
        let mut m2: Merger<&str> = Merger::new(2, 1);
        m2.advance(R0, Round::new(4));
        m2.push(R1, Round::new(3), "late");
        assert_eq!(m2.cursor(), 3);
    }

    #[test]
    fn finish_flushes_everything_in_key_order() {
        let mut m: Merger<&str> = Merger::new(2, 1);
        let mut got = Vec::new();
        got.extend(m.push(R1, Round::new(1), "b"));
        got.extend(m.push(R0, Round::new(1), "a"));
        got.extend(m.push(R0, Round::new(9), "z"));
        got.extend(m.finish());
        assert_eq!(labels(&got), vec!["a", "b", "z"]);
        assert_eq!(m.pending(), 0);
    }
}
