//! The single-pass exact stack-distance engine: an order-statistic
//! tree over last-access timestamps.
//!
//! Olken's classic algorithm: give every access a fresh timestamp
//! slot and keep one marker per *live* line at its most recent slot.
//! The stack distance of a re-access is then the number of markers at
//! slots later than the line's previous one — an order-statistic
//! query, answered here by a Fenwick tree in O(log U). Slots are
//! consumed monotonically, so the tree is compacted (live markers
//! renumbered densely) whenever it fills; each compaction frees at
//! least half the slots, keeping the amortised cost O(log U) per
//! event and the memory O(distinct lines).

use sim_core::hash::FxHashMap;

use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};
use crate::COLD_DISTANCE;

/// A Fenwick (binary indexed) tree counting live markers per slot.
///
/// Stored in `u32` with wrapping arithmetic: a decrement is an add of
/// `u32::MAX` (two's complement), and because every true prefix sum
/// is a count of live lines — always representable — the wrapped
/// intermediate node values cancel out exactly in queries.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn with_slots(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, slot: u32, delta: u32) {
        let mut i = slot as usize + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live markers at slots `<= slot`.
    fn prefix_through(&self, slot: u32) -> u32 {
        let mut i = slot as usize + 1;
        let mut sum = 0u32;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The exact single-pass engine: O(log U) per event, O(distinct
/// lines) memory, and a histogram identical to
/// [`crate::NaiveStackEngine`]'s event for event.
#[derive(Debug, Clone, Default)]
pub struct StackDistanceEngine {
    /// line -> slot of its most recent access.
    index: FxHashMap<u64, u32>,
    tree: Fenwick,
    /// Next unused slot; compaction renumbers when it hits `slots`.
    next_slot: u32,
    /// Total slots the tree currently addresses.
    slots: u32,
    /// Live lines (markers in the tree).
    live: u32,
    hist: DistanceHistogram,
}

impl StackDistanceEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one line access.
    pub fn record_line(&mut self, line: u64) {
        self.record_line_distance(line);
    }

    /// Records one line access and returns its stack distance, or
    /// `None` for a first touch (infinite distance). The access is
    /// recorded in the histogram exactly as by [`Self::record_line`].
    pub fn record_line_distance(&mut self, line: u64) -> Option<u64> {
        let distance = self.touch(line);
        match distance {
            Some(d) => self.hist.record(d),
            None => self.hist.record_cold(),
        }
        distance
    }

    /// Moves `line` to the top of the LRU stack and returns its stack
    /// distance (`None` for a first touch), leaving the histogram
    /// alone.
    fn touch(&mut self, line: u64) -> Option<u64> {
        if self.next_slot == self.slots {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        match self.index.insert(line, slot) {
            Some(prev) => {
                // Live markers strictly after `prev` are exactly the
                // distinct lines touched since the previous access.
                let distance = u64::from(self.live - self.tree.prefix_through(prev));
                self.tree.add(prev, u32::MAX); // -1
                self.tree.add(slot, 1);
                Some(distance)
            }
            None => {
                self.live += 1;
                self.tree.add(slot, 1);
                None
            }
        }
    }

    /// Records a chunk of decomposed references (see
    /// [`crate::line_from_parts`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn record_parts_block(&mut self, sets: &[u32], tags: &[u64], set_bits: u32) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        for (&set, &tag) in sets.iter().zip(tags) {
            self.record_line(crate::line_from_parts(set, tag, set_bits));
        }
    }

    /// The per-event stack distances of a whole decomposed trace, one
    /// `u32` per event in trace order: [`COLD_DISTANCE`] marks a first
    /// touch, and a finite distance too large for `u32` saturates just
    /// below it (it still exceeds every capacity a `u32` can name).
    ///
    /// This is the memo the accuracy drivers score against: an access
    /// hits a fully-associative LRU cache of `C` lines iff its
    /// distance is `< C` (see [`crate::fits`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn distances_of_parts(sets: &[u32], tags: &[u64], set_bits: u32) -> Vec<u32> {
        let mut distances = Vec::with_capacity(sets.len());
        StackDistanceEngine::new().record_parts_distances(sets, tags, set_bits, &mut distances);
        distances
    }

    /// Pushes a chunk of decomposed references through the LRU stack
    /// and appends each one's stack distance to `out` in the memo
    /// encoding of [`Self::distances_of_parts`], so a trace fed chunk
    /// by chunk yields exactly the whole-trace memo. `out` is the
    /// record: the engine's own histogram is not updated (build one
    /// from the distances with
    /// [`DistanceHistogram::record_distances`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn record_parts_distances(
        &mut self,
        sets: &[u32],
        tags: &[u64],
        set_bits: u32,
        out: &mut Vec<u32>,
    ) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        out.extend(sets.iter().zip(tags).map(|(&set, &tag)| {
            match self.touch(crate::line_from_parts(set, tag, set_bits)) {
                Some(d) => d.min(u64::from(COLD_DISTANCE - 1)) as u32,
                None => COLD_DISTANCE,
            }
        }));
    }

    /// Renumbers live markers densely into slot order, growing the
    /// slot space when more than half of it is live. Freeing at least
    /// half the slots each time keeps the amortised cost O(log U).
    fn compact(&mut self) {
        if u64::from(self.live) * 2 >= u64::from(self.slots) {
            self.slots = (self.slots * 2).max(64);
        }
        let mut markers: Vec<(u32, u64)> = self.index.iter().map(|(&l, &s)| (s, l)).collect();
        markers.sort_unstable_by_key(|&(slot, _)| slot);
        self.tree = Fenwick::with_slots(self.slots as usize);
        for (new_slot, &(_, line)) in markers.iter().enumerate() {
            self.index.insert(line, new_slot as u32);
            self.tree.add(new_slot as u32, 1);
        }
        self.next_slot = self.live;
    }

    /// Distinct lines seen so far.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        u64::from(self.live)
    }

    /// The accumulated distance histogram.
    #[must_use]
    pub fn histogram(&self) -> &DistanceHistogram {
        &self.hist
    }

    /// Miss ratio of a fully-associative LRU cache of
    /// `capacity_lines` lines.
    #[must_use]
    pub fn miss_ratio(&self, capacity_lines: u64) -> f64 {
        self.hist.miss_ratio(capacity_lines)
    }

    /// Evaluates the miss-ratio curve at the given capacities.
    #[must_use]
    pub fn curve(&self, capacities: &[u64]) -> MissRatioCurve {
        MissRatioCurve::from_points(
            capacities
                .iter()
                .map(|&c| CurvePoint {
                    capacity_lines: c,
                    miss_ratio: self.miss_ratio(c),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveStackEngine;

    #[test]
    fn matches_naive_on_a_small_mixed_trace() {
        let trace: Vec<u64> = vec![0, 1, 2, 0, 3, 1, 1, 4, 2, 0, 5, 3, 0, 0, 6, 1];
        let mut fast = StackDistanceEngine::new();
        let mut slow = NaiveStackEngine::new();
        for &line in &trace {
            fast.record_line(line);
            slow.record_line(line);
        }
        assert_eq!(fast.histogram(), slow.histogram());
        assert_eq!(fast.distinct_lines(), slow.distinct_lines());
    }

    #[test]
    fn chunked_distances_equal_the_whole_trace_memo() {
        // 40 lines over 4 sets, revisited with growing strides so the
        // trace mixes cold touches, short and long distances.
        let lines: Vec<u64> = (0..3_000u64).map(|i| (i * i + i / 7) % 40).collect();
        let sets: Vec<u32> = lines.iter().map(|&l| (l & 3) as u32).collect();
        let tags: Vec<u64> = lines.iter().map(|&l| l >> 2).collect();
        let whole = StackDistanceEngine::distances_of_parts(&sets, &tags, 2);
        for chunk in [1, 7, 1024] {
            let mut engine = StackDistanceEngine::new();
            let mut chunked = Vec::new();
            for (s, t) in sets.chunks(chunk).zip(tags.chunks(chunk)) {
                engine.record_parts_distances(s, t, 2, &mut chunked);
            }
            assert_eq!(chunked, whole, "chunk {chunk}");
            assert_eq!(engine.histogram().total(), 0, "the histogram is left alone");
        }
    }

    #[test]
    fn survives_many_compactions() {
        // 64 lines re-accessed round-robin for thousands of events
        // forces repeated slot exhaustion and renumbering.
        let mut fast = StackDistanceEngine::new();
        let mut slow = NaiveStackEngine::new();
        for i in 0..10_000u64 {
            let line = i % 64;
            fast.record_line(line);
            slow.record_line(line);
        }
        assert_eq!(fast.histogram(), slow.histogram());
        assert_eq!(fast.histogram().bucket(63), 10_000 - 64);
    }

    #[test]
    fn curve_is_monotone_in_capacity() {
        let mut e = StackDistanceEngine::new();
        for i in 0..5_000u64 {
            e.record_line(i * 7919 % 512);
        }
        let caps = [1u64, 2, 8, 64, 256, 1024];
        let curve = e.curve(&caps);
        for pair in curve.points().windows(2) {
            assert!(pair[0].miss_ratio >= pair[1].miss_ratio - 1e-12);
        }
    }
}
