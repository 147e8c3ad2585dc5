//! Scoring the MCT against the classic three-C oracle
//! (paper Figures 1 and 2).
//!
//! For every miss of the real (set-associative) cache, the oracle says
//! whether it was a conflict miss in the classic sense (a
//! fully-associative LRU cache of equal capacity would have hit) or a
//! non-conflict miss (capacity/compulsory). The MCT's on-the-fly label
//! is compared against that ground truth:
//!
//! * **conflict accuracy** — fraction of oracle-conflict misses the
//!   MCT also labels conflict;
//! * **capacity accuracy** — fraction of oracle-non-conflict misses
//!   the MCT labels capacity.
//!
//! # Examples
//!
//! ```
//! use cache_model::CacheGeometry;
//! use mct::accuracy::AccuracyEvaluator;
//! use mct::TagBits;
//! use sim_core::LineAddr;
//!
//! let geom = CacheGeometry::new(1024, 1, 64)?; // 16 sets DM
//! let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
//! // Two lines fighting over one set: classic conflict behaviour.
//! for _ in 0..100 {
//!     eval.observe(LineAddr::new(0));
//!     eval.observe(LineAddr::new(16));
//! }
//! let report = eval.finish();
//! assert!(report.conflict.value() > 0.9);
//! # Ok::<(), cache_model::ConfigError>(())
//! ```

use cache_model::oracle::ThreeCClassifier;
use cache_model::{BlockSink, CacheGeometry, SetAssocCache};
use sim_core::probe;
use sim_core::stats::Ratio;
use sim_core::LineAddr;

use crate::{EvictionClassifier, MissClassificationTable, TagBits};

/// Accuracy of the MCT over one reference stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccuracyReport {
    /// Oracle-conflict misses the MCT labelled conflict.
    pub conflict: Ratio,
    /// Oracle-non-conflict (capacity + compulsory) misses the MCT
    /// labelled capacity.
    pub capacity: Ratio,
    /// Total references observed.
    pub accesses: u64,
    /// Total real-cache misses observed.
    pub misses: u64,
}

impl AccuracyReport {
    /// Fraction of all misses classified in agreement with the oracle.
    #[must_use]
    pub fn overall(&self) -> f64 {
        let agree = self.conflict.numerator() + self.capacity.numerator();
        let total = self.conflict.denominator() + self.capacity.denominator();
        if total == 0 {
            0.0
        } else {
            agree as f64 / total as f64
        }
    }

    /// Merges another report's tallies into this one (suite
    /// averaging).
    pub fn merge(&mut self, other: &AccuracyReport) {
        self.conflict.merge(other.conflict);
        self.capacity.merge(other.capacity);
        self.accesses += other.accesses;
        self.misses += other.misses;
    }

    /// Scores one miss: the MCT's label against the three-C verdict.
    /// Returns whether they agree.
    fn score(&mut self, oracle_conflict: bool, mct_conflict: bool) -> bool {
        self.misses += 1;
        let agree = oracle_conflict == mct_conflict;
        if oracle_conflict {
            self.conflict.record(agree);
        } else {
            self.capacity.record(agree);
        }
        agree
    }
}

/// One classifier of an [`AccuracyGroup`] and its report.
#[derive(Debug, Clone)]
struct Member<T> {
    table: T,
    report: AccuracyReport,
}

/// Several eviction classifiers scored over one reference stream on
/// one cache kernel.
///
/// Every member sees the same cache: one [`SetAssocCache`] of the
/// group's geometry replays the stream, and each miss is classified by
/// every member against its own pre-fill state, each eviction recorded
/// in every member. A line's metadata holds the members' conflict
/// bits, bit `j` for member `j`. Sharing the kernel is exact because
/// no replacement policy reads line metadata
/// ([`cache_model::Replacement::victim_reads_metadata`], asserted at
/// construction): the members' differing conflict bits never change
/// which line a fill evicts, so each member's report equals that of
/// an [`AccuracyEvaluator`] of its own.
///
/// The three-C verdicts come from the caller (see
/// [`Self::observe_parts_with_truth`]); [`AccuracyEvaluator`] is the
/// one-member group with an oracle of its own.
#[derive(Debug, Clone)]
pub struct AccuracyGroup<T = MissClassificationTable> {
    cache: SetAssocCache<u32>,
    members: Vec<Member<T>>,
}

impl<T: EvictionClassifier> AccuracyGroup<T> {
    /// The most members a group holds: one conflict bit each in a
    /// line's `u32` metadata.
    pub const MAX_MEMBERS: usize = u32::BITS as usize;

    /// Creates a group whose members are `tables`, in order, all on a
    /// cache of shape `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or holds more than
    /// [`Self::MAX_MEMBERS`] classifiers.
    #[must_use]
    pub fn new(geom: CacheGeometry, tables: impl IntoIterator<Item = T>) -> Self {
        let mut cache = SetAssocCache::new(geom);
        assert!(
            !cache.replacement().victim_reads_metadata(),
            "members share one kernel only if conflict bits never steer the victim"
        );
        // The classifying cache is always the unit an experiment
        // measures, so it reports per-set fill/evict probe events.
        cache.enable_set_probes();
        let members: Vec<Member<T>> = tables
            .into_iter()
            .map(|table| Member {
                table,
                report: AccuracyReport::default(),
            })
            .collect();
        assert!(
            (1..=Self::MAX_MEMBERS).contains(&members.len()),
            "a group holds 1 to {} classifiers, not {}",
            Self::MAX_MEMBERS,
            members.len()
        );
        AccuracyGroup { cache, members }
    }

    /// The cache geometry all members share.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    /// The number of member classifiers.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The members' final reports, in member order.
    #[must_use]
    pub fn finish(self) -> Vec<AccuracyReport> {
        self.members.into_iter().map(|m| m.report).collect()
    }

    /// Observes one decomposed reference with its three-C verdict:
    /// `oracle_conflict` is whether a fully-associative LRU cache of
    /// the geometry's line capacity would hit it (and it is not a
    /// first touch).
    ///
    /// The MCT protocol per member: classify **before** the fill,
    /// carry the conflict bit as line metadata, record the eviction.
    /// For a one-member group an armed probe sink gets exactly the
    /// events of a [`ClassifyingCache`](crate::ClassifyingCache)
    /// access (`Access`, `Classify`, `ConflictBit`, the set's
    /// fill/evict) followed by the `Oracle` verdict. A larger group
    /// emits one `Classify` and one `Oracle` per member, and a
    /// `ConflictBit` event when a line with any member's bit set is
    /// filled or evicted, so per-cell probe streams come from
    /// one-member groups.
    pub fn observe_parts_with_truth(&mut self, set: usize, tag: u64, oracle_conflict: bool) {
        for member in &mut self.members {
            member.report.accesses += 1;
        }
        if self.cache.probe_at(set, tag).is_some() {
            probe::emit(probe::ProbeEvent::Access { hit: true });
            return;
        }
        probe::emit(probe::ProbeEvent::Access { hit: false });
        let mut bits = 0u32;
        for (j, member) in self.members.iter().enumerate() {
            bits |= u32::from(member.table.classify(set, tag).is_conflict()) << j;
        }
        if bits != 0 && probe::active() {
            probe::emit(probe::ProbeEvent::ConflictBit {
                set: set as u32,
                set_bit: true,
            });
        }
        if let Some(ev) = self.cache.fill_at(set, tag, bits) {
            if ev.meta != 0 && probe::active() {
                probe::emit(probe::ProbeEvent::ConflictBit {
                    set: set as u32,
                    set_bit: false,
                });
            }
            let evicted_tag = self.cache.geometry().tag(ev.line);
            for member in &mut self.members {
                member.table.record_eviction(set, evicted_tag);
            }
        }
        for (j, member) in self.members.iter_mut().enumerate() {
            let agree = member.report.score(oracle_conflict, bits >> j & 1 != 0);
            probe::emit(probe::ProbeEvent::Oracle {
                oracle_conflict,
                agree,
            });
        }
    }

    /// [`Self::observe_parts_with_truth`] over a block of decomposed
    /// references, with one three-C verdict per reference in trace
    /// order.
    ///
    /// One block pass of the kernel
    /// ([`SetAssocCache::access_block_with`]) drives every member:
    /// each miss is classified by each member against pre-fill state
    /// and scored against its verdict on the spot, and each eviction
    /// is recorded in each member, in trace order — the per-event
    /// reports exactly. With a probe sink armed the block falls back
    /// to per-event replay, keeping the emitted stream byte-identical
    /// to unbatched replay.
    ///
    /// # Panics
    ///
    /// Panics if the slices and the verdicts differ in length, or a
    /// set index is out of range for the geometry.
    pub fn observe_block_with_truth(
        &mut self,
        sets: &[u32],
        tags: &[u64],
        oracle_conflict: impl ExactSizeIterator<Item = bool>,
    ) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        assert_eq!(
            sets.len(),
            oracle_conflict.len(),
            "one three-C verdict per reference"
        );
        if probe::active() {
            for ((&set, &tag), conflict) in sets.iter().zip(tags).zip(oracle_conflict) {
                self.observe_parts_with_truth(set as usize, tag, conflict);
            }
            return;
        }
        for member in &mut self.members {
            member.report.accesses += sets.len() as u64;
        }
        let mut sink = GroupSink {
            members: &mut self.members,
            verdicts: oracle_conflict,
            next: 0,
        };
        self.cache.access_block_with(sets, tags, &mut sink);
    }
}

/// The block sink behind [`AccuracyGroup::observe_block_with_truth`]:
/// the MCT protocol for every member, scored as it goes.
struct GroupSink<'a, T, V> {
    members: &'a mut [Member<T>],
    /// The block's verdicts, consumed in trace order.
    verdicts: V,
    /// Block index of the next verdict in `verdicts`.
    next: usize,
}

impl<T: EvictionClassifier, V: Iterator<Item = bool>> BlockSink<u32> for GroupSink<'_, T, V> {
    #[inline]
    fn hit(&mut self, _index: usize, _conflict_bits: &mut u32) {}

    #[inline]
    fn miss(&mut self, index: usize, set: usize, tag: u64) -> u32 {
        // Events arrive in block order, so the hits since the last
        // miss are skipped. The length was checked up front.
        let oracle_conflict = self.verdicts.nth(index - self.next).unwrap_or(false);
        self.next = index + 1;
        let mut bits = 0u32;
        for (j, member) in self.members.iter_mut().enumerate() {
            let conflict = member.table.classify(set, tag).is_conflict();
            member.report.score(oracle_conflict, conflict);
            bits |= u32::from(conflict) << j;
        }
        bits
    }

    #[inline]
    fn evicted(&mut self, _index: usize, set: usize, evicted_tag: u64, _conflict_bits: u32) {
        for member in self.members.iter_mut() {
            member.table.record_eviction(set, evicted_tag);
        }
    }
}

/// Runs the MCT and a [`ThreeCClassifier`] side by side over one
/// reference stream: a one-member [`AccuracyGroup`] with an oracle of
/// its own.
///
/// The `*_with_truth` entry points take the three-C verdicts from the
/// caller instead — typically read off a memoized LRU stack-distance
/// pass, which yields the same verdict for every capacity at once —
/// and leave the owned oracle idle.
#[derive(Debug, Clone)]
pub struct AccuracyEvaluator<T = MissClassificationTable> {
    group: AccuracyGroup<T>,
    /// The owned oracle, fed only by the entry points that do not
    /// take caller-supplied verdicts.
    oracle: ThreeCClassifier,
    /// Scratch for [`Self::observe_block`]: per-event oracle conflict
    /// flags, reused across blocks.
    oracle_conflict: Vec<bool>,
}

impl AccuracyEvaluator {
    /// Creates an evaluator for the given cache shape and MCT tag
    /// width. The oracle's shadow cache gets the same line capacity.
    #[must_use]
    pub fn new(geom: CacheGeometry, tag_bits: TagBits) -> Self {
        Self::with_classifier(
            geom,
            MissClassificationTable::new(geom.num_sets(), tag_bits),
        )
    }
}

impl<T: EvictionClassifier> AccuracyEvaluator<T> {
    /// Creates an evaluator around any eviction classifier (the
    /// shadow-directory depth ablation uses this).
    #[must_use]
    pub fn with_classifier(geom: CacheGeometry, table: T) -> Self {
        AccuracyEvaluator {
            group: AccuracyGroup::new(geom, [table]),
            oracle: ThreeCClassifier::new(geom.num_lines()),
            oracle_conflict: Vec::new(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        self.group.geometry()
    }

    /// Observes one reference (the oracle must see hits too).
    pub fn observe(&mut self, line: LineAddr) {
        let geom = *self.geometry();
        self.observe_parts(geom.set_index(line), geom.tag(line));
    }

    /// [`Self::observe`] with the line already split into set index
    /// and tag (decomposed replay). The oracle still sees the whole
    /// line, reconstructed with `line_from_parts` — identical to the
    /// address the parts came from.
    pub fn observe_parts(&mut self, set: usize, tag: u64) {
        let line = self.geometry().line_from_parts(tag, set);
        let oracle_conflict = self.oracle.observe(line).is_conflict();
        self.observe_parts_with_truth(set, tag, oracle_conflict);
    }

    /// [`Self::observe_parts`] with the three-C verdict supplied by
    /// the caller ([`AccuracyGroup::observe_parts_with_truth`]). The
    /// report, and the probe events an armed sink records, are those
    /// of [`Self::observe_parts`] whenever the verdict is the
    /// oracle's.
    pub fn observe_parts_with_truth(&mut self, set: usize, tag: u64, oracle_conflict: bool) {
        self.group
            .observe_parts_with_truth(set, tag, oracle_conflict);
    }

    /// Observes a block of decomposed references
    /// ([`Self::observe_parts`] in bulk — the block replay path).
    ///
    /// The three-C oracle is *globally* order-sensitive (its shadow
    /// fully-associative cache sees every reference), so it runs
    /// first, sequentially in trace order, into a scratch flag array.
    /// The MCT cache then replays the same block
    /// ([`Self::observe_block_with_truth`]) — its state is disjoint
    /// from the oracle's — which reproduces the per-event report
    /// exactly.
    ///
    /// The oracle emits no probe events, so with a probe sink armed
    /// the emitted stream (`Access`, `Classify`, `ConflictBit`,
    /// `Oracle` interleaved per event) is that of
    /// [`Self::observe_block_with_truth`]'s per-event fallback:
    /// byte-identical to unbatched replay.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn observe_block(&mut self, sets: &[u32], tags: &[u64]) {
        self.run_owned_oracle(sets, tags);
        self.group
            .observe_block_with_truth(sets, tags, self.oracle_conflict.iter().copied());
    }

    /// [`Self::observe_block`] with the three-C verdicts supplied by
    /// the caller, one per reference in trace order
    /// ([`AccuracyGroup::observe_block_with_truth`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices and the verdicts differ in length, or a
    /// set index is out of range for the geometry.
    pub fn observe_block_with_truth(
        &mut self,
        sets: &[u32],
        tags: &[u64],
        oracle_conflict: impl ExactSizeIterator<Item = bool>,
    ) {
        self.group
            .observe_block_with_truth(sets, tags, oracle_conflict);
    }

    /// Runs the owned oracle over `sets`/`tags` in trace order into
    /// the scratch flag array.
    fn run_owned_oracle(&mut self, sets: &[u32], tags: &[u64]) {
        let geom = *self.geometry();
        self.oracle_conflict.clear();
        for (&set, &tag) in sets.iter().zip(tags) {
            let line = geom.line_from_parts(tag, set as usize);
            self.oracle_conflict
                .push(self.oracle.observe(line).is_conflict());
        }
    }

    /// Observes a whole stream.
    pub fn observe_all<I>(&mut self, lines: I)
    where
        I: IntoIterator<Item = LineAddr>,
    {
        for line in lines {
            self.observe(line);
        }
    }

    /// Returns the accumulated report.
    #[must_use]
    pub fn finish(self) -> AccuracyReport {
        *self.report()
    }

    /// The report so far, without consuming the evaluator.
    #[must_use]
    pub fn report(&self) -> &AccuracyReport {
        &self.group.members[0].report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn dm(sets: u64) -> CacheGeometry {
        CacheGeometry::new(sets * 64, 1, 64).unwrap()
    }

    #[test]
    fn pure_conflict_stream_scores_high_conflict_accuracy() {
        // 16-set DM cache; lines 0 and 16 collide but the total
        // working set (2 lines) is far below capacity (16 lines):
        // every non-compulsory miss is an oracle conflict miss.
        let mut eval = AccuracyEvaluator::new(dm(16), TagBits::Full);
        for _ in 0..1000 {
            eval.observe(line(0));
            eval.observe(line(16));
        }
        let r = eval.finish();
        assert!(r.conflict.denominator() > 1500);
        assert!(
            r.conflict.value() > 0.99,
            "conflict accuracy {}",
            r.conflict.value()
        );
    }

    #[test]
    fn pure_capacity_stream_scores_high_capacity_accuracy() {
        // Cyclic sweep over 64 lines through a 16-line cache: every
        // miss (after warmup) is a capacity miss for both models.
        let mut eval = AccuracyEvaluator::new(dm(16), TagBits::Full);
        for _ in 0..50 {
            for n in 0..64 {
                eval.observe(line(n));
            }
        }
        let r = eval.finish();
        assert!(r.capacity.denominator() > 1000);
        assert!(
            r.capacity.value() > 0.95,
            "capacity accuracy {}",
            r.capacity.value()
        );
        // No oracle conflict misses should exist at all in a pure
        // cyclic sweep of a direct-mapped cache (FA LRU misses too).
        assert!(r.conflict.denominator() < r.misses / 10);
    }

    #[test]
    fn hits_do_not_enter_the_report() {
        let mut eval = AccuracyEvaluator::new(dm(4), TagBits::Full);
        eval.observe(line(0));
        for _ in 0..99 {
            eval.observe(line(0));
        }
        let r = eval.finish();
        assert_eq!(r.accesses, 100);
        assert_eq!(r.misses, 1);
        assert_eq!(r.conflict.denominator() + r.capacity.denominator(), 1);
    }

    /// A mixed conflict/capacity stream over a 16-line DM cache.
    fn mixed_stream() -> Vec<LineAddr> {
        let mut rng = sim_core::rng::SplitMix64::new(7);
        (0..4_000).map(|_| line(rng.next_below(48))).collect()
    }

    /// The oracle's verdicts for `lines`, from an independent
    /// classifier of the geometry's capacity.
    fn oracle_verdicts(lines: &[LineAddr], capacity: usize) -> Vec<bool> {
        let mut oracle = ThreeCClassifier::new(capacity);
        lines
            .iter()
            .map(|&l| oracle.observe(l).is_conflict())
            .collect()
    }

    #[test]
    fn supplied_oracle_verdicts_reproduce_the_owned_oracle() {
        let geom = dm(16);
        let lines = mixed_stream();
        let verdicts = oracle_verdicts(&lines, geom.num_lines());
        let sets: Vec<u32> = lines.iter().map(|&l| geom.set_index(l) as u32).collect();
        let tags: Vec<u64> = lines.iter().map(|&l| geom.tag(l)).collect();

        let mut owned = AccuracyEvaluator::new(geom, TagBits::Full);
        owned.observe_all(lines.iter().copied());
        let owned = owned.finish();
        assert!(owned.conflict.denominator() > 0 && owned.capacity.denominator() > 0);

        for block in [1usize, 7, 256, lines.len()] {
            let mut supplied = AccuracyEvaluator::new(geom, TagBits::Full);
            for ((s, t), v) in sets
                .chunks(block)
                .zip(tags.chunks(block))
                .zip(verdicts.chunks(block))
            {
                supplied.observe_block_with_truth(s, t, v.iter().copied());
            }
            assert_eq!(
                supplied.oracle.shadow_len(),
                0,
                "the owned oracle stays idle"
            );
            assert_eq!(supplied.finish(), owned, "block {block}");
        }

        let mut per_event = AccuracyEvaluator::new(geom, TagBits::Full);
        for ((&s, &t), &v) in sets.iter().zip(&tags).zip(&verdicts) {
            per_event.observe_parts_with_truth(s as usize, t, v);
        }
        assert_eq!(per_event.finish(), owned);
    }

    #[test]
    fn a_group_reports_what_each_member_would_alone() {
        // 8 sets, 2-way LRU: members differ in tag width, so their
        // conflict bits differ while they share one kernel.
        let geom = CacheGeometry::new(1024, 2, 64).unwrap();
        let lines = mixed_stream();
        let verdicts = oracle_verdicts(&lines, geom.num_lines());
        let sets: Vec<u32> = lines.iter().map(|&l| geom.set_index(l) as u32).collect();
        let tags: Vec<u64> = lines.iter().map(|&l| geom.tag(l)).collect();
        let widths = [TagBits::Low(1), TagBits::Low(2), TagBits::Full];
        let tables = || {
            widths
                .iter()
                .map(|&bits| MissClassificationTable::new(geom.num_sets(), bits))
        };
        let alone: Vec<AccuracyReport> = widths
            .iter()
            .map(|&bits| {
                let mut eval = AccuracyEvaluator::new(geom, bits);
                eval.observe_all(lines.iter().copied());
                eval.finish()
            })
            .collect();
        assert_ne!(alone[0], alone[2], "the widths must disagree somewhere");

        for block in [1usize, 7, 256, lines.len()] {
            let mut group = AccuracyGroup::new(geom, tables());
            for ((s, t), v) in sets
                .chunks(block)
                .zip(tags.chunks(block))
                .zip(verdicts.chunks(block))
            {
                group.observe_block_with_truth(s, t, v.iter().copied());
            }
            assert_eq!(group.finish(), alone, "block {block}");
        }
        let mut per_event = AccuracyGroup::new(geom, tables());
        for ((&s, &t), &v) in sets.iter().zip(&tags).zip(&verdicts) {
            per_event.observe_parts_with_truth(s as usize, t, v);
        }
        assert_eq!(per_event.finish(), alone);
    }

    #[test]
    #[should_panic(expected = "a group holds 1 to 32 classifiers, not 0")]
    fn an_empty_group_is_refused() {
        let _ = AccuracyGroup::<MissClassificationTable>::new(dm(4), []);
    }

    #[test]
    #[should_panic(expected = "one three-C verdict per reference")]
    fn supplied_verdicts_must_cover_the_block() {
        let mut eval = AccuracyEvaluator::new(dm(4), TagBits::Full);
        eval.observe_block_with_truth(&[0, 1], &[0, 0], [false].into_iter());
    }

    #[test]
    fn overall_combines_both_classes() {
        let r = AccuracyReport {
            conflict: Ratio::from_counts(8, 10),
            capacity: Ratio::from_counts(9, 10),
            ..AccuracyReport::default()
        };
        assert!((r.overall() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AccuracyReport {
            conflict: Ratio::from_counts(1, 2),
            capacity: Ratio::from_counts(3, 4),
            accesses: 10,
            misses: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.conflict.denominator(), 4);
        assert_eq!(a.capacity.denominator(), 8);
        assert_eq!(a.accesses, 20);
        assert_eq!(a.misses, 12);
    }
}
