//! The single-pass exact stack-distance engine: Olken's marker
//! count, ranked by 64-slot word.
//!
//! Olken's algorithm gives every access a fresh timestamp slot and
//! keeps one marker per *live* line at its most recent slot. The
//! stack distance of a re-access is the number of markers at slots
//! later than the line's previous one. Here:
//!
//! * each line gets a dense id at its first touch, so an event costs
//!   one [`FxHashMap`] lookup, then `slot_of[id]` and `id_at[slot]`;
//! * a marker is one bit of a bitmap over the slots;
//! * a Fenwick tree counts the markers per 64-slot word, over the
//!   words already written through. The word being filled stays out
//!   of the tree until it is full.
//!
//! A re-access whose previous slot shares the newest slot's word
//! counts markers with one popcount. A longer one adds the markers
//! beyond its own word, read off the tree: U/64 nodes for U slots, a
//! few KiB at the trace sizes the sweeps run, so it stays in L1. The
//! stale marker then costs one tree update. Slots are consumed
//! monotonically, so when they run out the live markers are
//! renumbered densely by one linear walk of the bitmap (no sort, no
//! map rewrite), growing the slot space when more than half of it is
//! live. Each compaction frees at
//! least half the slots, which keeps the amortised cost per event
//! O(log(U/64)) and the memory O(distinct lines).

use sim_core::hash::FxHashMap;

use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};
use crate::COLD_DISTANCE;

/// Bits per bitmap word: the slots one tree node counts.
const WORD_BITS: u32 = u64::BITS;

/// A Fenwick (binary indexed) tree of marker counts per bitmap word.
///
/// Stored in `u32` with wrapping arithmetic: a decrement is an add of
/// `u32::MAX` (two's complement), and because every true prefix sum
/// is a count of live lines — always representable — the wrapped
/// intermediate node values cancel out exactly in queries.
#[derive(Debug, Clone, Default)]
struct WordTree {
    tree: Vec<u32>,
}

impl WordTree {
    /// Resets the tree to `words` words, the first `full` of which
    /// hold a whole word of markers, in O(words).
    fn rebuild(&mut self, words: usize, full: usize) {
        self.tree.clear();
        self.tree.resize(words + 1, 0);
        self.tree[1..=full].fill(WORD_BITS);
        for i in 1..=words {
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                self.tree[parent] = self.tree[parent].wrapping_add(self.tree[i]);
            }
        }
    }

    fn add(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Markers in words `0..=word`.
    fn prefix_through(&self, word: usize) -> u32 {
        let mut i = word + 1;
        let mut sum = 0u32;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The exact single-pass engine: O(log(U/64)) amortised per event,
/// O(distinct lines) memory, and a histogram identical to
/// [`crate::NaiveStackEngine`]'s event for event.
#[derive(Debug, Clone, Default)]
pub struct StackDistanceEngine {
    /// line -> dense id, assigned at the line's first touch.
    ids: FxHashMap<u64, u32>,
    /// id -> slot of the line's most recent access; its length is the
    /// number of live lines.
    slot_of: Vec<u32>,
    /// slot -> id of the line accessed there, meaningful where the
    /// slot's marker is set. Its length is the slot space.
    id_at: Vec<u32>,
    /// One marker bit per slot, set at each live line's most recent
    /// slot.
    markers: Vec<u64>,
    /// Marker counts of the full words `0..next_slot / 64`.
    words: WordTree,
    /// Next unused slot; compaction renumbers when it reaches the end
    /// of the slot space.
    next_slot: u32,
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
        if self.next_slot as usize == self.id_at.len() {
            self.compact();
        }
        let slot = self.next_slot;
        let new_id = self.slot_of.len() as u32;
        let id = *self.ids.entry(line).or_insert(new_id);
        let distance = if id == new_id {
            self.slot_of.push(slot);
            None
        } else {
            let prev = std::mem::replace(&mut self.slot_of[id as usize], slot);
            Some(self.unmark(prev, slot))
        };
        self.id_at[slot as usize] = id;
        let word = (slot / WORD_BITS) as usize;
        self.markers[word] |= 1 << (slot % WORD_BITS);
        self.next_slot = slot + 1;
        if self.next_slot.is_multiple_of(WORD_BITS) {
            self.words.add(word, self.markers[word].count_ones());
        }
        distance
    }

    /// Clears the marker at `prev` and returns the number of markers
    /// after it — the distinct lines touched since that access. `top`
    /// is the slot about to be written: no marker lies at or beyond
    /// it.
    fn unmark(&mut self, prev: u32, top: u32) -> u64 {
        let word = (prev / WORD_BITS) as usize;
        let top_word = (top / WORD_BITS) as usize;
        let bit = 1u64 << (prev % WORD_BITS);
        let mut distance = u64::from((self.markers[word] & !(bit | (bit - 1))).count_ones());
        self.markers[word] &= !bit;
        if word == top_word {
            return distance;
        }
        // `word` is full, so it is in the tree, which still counts
        // `prev`'s own marker there. Every marker outside words
        // `0..=word` lies after `prev`.
        let through = self.words.prefix_through(word);
        distance += u64::from(self.slot_of.len() as u32 - through);
        self.words.add(word, u32::MAX); // -1
        distance
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

    /// Renumbers the live markers densely into slot order, growing
    /// the slot space when more than half of it is live. Freeing at
    /// least half the slots each time keeps the amortised cost
    /// O(log(U/64)).
    fn compact(&mut self) {
        // The k-th marker in slot order moves to slot k, never later
        // than its old slot, so one forward walk rewrites `id_at` in
        // place.
        let mut next = 0usize;
        for word in 0..self.markers.len() {
            let mut bits = self.markers[word];
            while bits != 0 {
                let slot = word * WORD_BITS as usize + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = self.id_at[slot];
                self.id_at[next] = id;
                self.slot_of[id as usize] = next as u32;
                next += 1;
            }
        }
        let live = self.slot_of.len();
        if live * 2 >= self.id_at.len() {
            let slots = (self.id_at.len() * 2).max(WORD_BITS as usize);
            self.id_at.resize(slots, 0);
        }
        let words = self.id_at.len() / WORD_BITS as usize;
        let full = live / WORD_BITS as usize;
        self.markers.clear();
        self.markers.resize(words, 0);
        self.markers[..full].fill(u64::MAX);
        if !live.is_multiple_of(WORD_BITS as usize) {
            self.markers[full] = (1 << (live % WORD_BITS as usize)) - 1;
        }
        self.words.rebuild(words, full);
        self.next_slot = live as u32;
    }

    /// Distinct lines seen so far.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        self.slot_of.len() as u64
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
