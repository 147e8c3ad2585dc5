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
use cache_model::CacheGeometry;
use sim_core::probe;
use sim_core::stats::Ratio;
use sim_core::LineAddr;

use crate::{
    BlockClass, ClassifyingCache, EvictionClassifier, MissClass, MissClassificationTable, TagBits,
};

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
}

/// Runs a [`ClassifyingCache`] and a [`ThreeCClassifier`] side by side
/// over one reference stream.
///
/// The `*_with_truth` entry points take the three-C verdicts from the
/// caller instead — typically read off a memoized LRU stack-distance
/// pass, which yields the same verdict for every capacity at once —
/// and leave the owned oracle idle.
#[derive(Debug, Clone)]
pub struct AccuracyEvaluator<T = MissClassificationTable> {
    cache: ClassifyingCache<T>,
    /// The owned oracle, fed only by the entry points that do not
    /// take caller-supplied verdicts.
    oracle: ThreeCClassifier,
    report: AccuracyReport,
    /// Scratch for [`Self::observe_block`]: per-event oracle conflict
    /// flags, reused across blocks.
    oracle_conflict: Vec<bool>,
    /// Scratch for [`Self::observe_block`]: per-event MCT
    /// classifications, reused across blocks.
    classes: Vec<BlockClass>,
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
            cache: ClassifyingCache::with_classifier(geom, table),
            oracle: ThreeCClassifier::new(geom.num_lines()),
            report: AccuracyReport::default(),
            oracle_conflict: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Observes one reference (the oracle must see hits too).
    pub fn observe(&mut self, line: LineAddr) {
        let geom = *self.cache.geometry();
        self.observe_parts(geom.set_index(line), geom.tag(line));
    }

    /// [`Self::observe`] with the line already split into set index
    /// and tag (decomposed replay). The oracle still sees the whole
    /// line, reconstructed with `line_from_parts` — identical to the
    /// address the parts came from.
    pub fn observe_parts(&mut self, set: usize, tag: u64) {
        let line = self.cache.geometry().line_from_parts(tag, set);
        let oracle_conflict = self.oracle.observe(line).is_conflict();
        self.observe_parts_with_truth(set, tag, oracle_conflict);
    }

    /// [`Self::observe_parts`] with the three-C verdict supplied by
    /// the caller: `oracle_conflict` is whether a fully-associative
    /// LRU cache of the geometry's line capacity would hit this
    /// reference (and it is not a first touch). The report, and the
    /// probe events an armed sink records, are those of
    /// [`Self::observe_parts`] whenever the verdict is the oracle's.
    pub fn observe_parts_with_truth(&mut self, set: usize, tag: u64, oracle_conflict: bool) {
        self.report.accesses += 1;
        let outcome = self.cache.access_parts(set, tag);
        let Some(miss) = outcome.miss() else { return };
        self.report.misses += 1;
        let agree = if oracle_conflict {
            miss.class == MissClass::Conflict
        } else {
            miss.class == MissClass::Capacity
        };
        probe::emit(probe::ProbeEvent::Oracle {
            oracle_conflict,
            agree,
        });
        if oracle_conflict {
            self.report.conflict.record(agree);
        } else {
            self.report.capacity.record(agree);
        }
    }

    /// Observes a block of decomposed references
    /// ([`Self::observe_parts`] in bulk — the block replay path).
    ///
    /// The three-C oracle is *globally* order-sensitive (its shadow
    /// fully-associative cache sees every reference), so it runs
    /// first, sequentially in trace order, into a scratch flag array.
    /// The MCT cache then replays the same block
    /// ([`ClassifyingCache::access_parts_block`]) — its state is
    /// disjoint from the oracle's — and the two outcome arrays are
    /// merged index by index, which reproduces the per-event report
    /// exactly.
    ///
    /// With a probe sink armed the whole block falls back to
    /// per-event [`Self::observe_parts`], so the emitted event stream
    /// (`Access`, `Classify`, `ConflictBit`, `Oracle` interleaved per
    /// event) is byte-identical to unbatched replay.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn observe_block(&mut self, sets: &[u32], tags: &[u64]) {
        if probe::active() {
            for (&set, &tag) in sets.iter().zip(tags) {
                self.observe_parts(set as usize, tag);
            }
            return;
        }
        self.run_owned_oracle(sets, tags);
        // Move the flags out so the shared block path can borrow
        // `self` mutably while reading them.
        let flags = std::mem::take(&mut self.oracle_conflict);
        self.observe_block_with_truth(sets, tags, flags.iter().copied());
        self.oracle_conflict = flags;
    }

    /// [`Self::observe_block`] with the three-C verdicts supplied by
    /// the caller, one per reference in trace order (see
    /// [`Self::observe_parts_with_truth`]). The MCT cache replays the
    /// block exactly as in [`Self::observe_block`] and
    /// the verdicts are merged index by index; an armed probe sink
    /// gets the per-event fallback with the same verdicts.
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
        self.report.accesses += sets.len() as u64;
        self.classes.clear();
        self.classes.resize(sets.len(), BlockClass::Hit);
        // The scratch vector is a disjoint field, but the borrow
        // checker cannot split it through `self`; move `classes` out
        // for the duration of the cache pass.
        let mut classes = std::mem::take(&mut self.classes);
        self.cache.access_parts_block(sets, tags, &mut classes);
        merge_verdicts(&mut self.report, &classes, oracle_conflict);
        self.classes = classes;
    }

    /// Runs the owned oracle over `sets`/`tags` in trace order into
    /// the scratch flag array.
    fn run_owned_oracle(&mut self, sets: &[u32], tags: &[u64]) {
        let geom = *self.cache.geometry();
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
        self.report
    }

    /// The report so far, without consuming the evaluator.
    #[must_use]
    pub fn report(&self) -> &AccuracyReport {
        &self.report
    }

    /// The underlying classifying cache (for hit-rate inspection).
    #[must_use]
    pub fn cache(&self) -> &ClassifyingCache<T> {
        &self.cache
    }
}

/// Merges three-C verdicts and MCT classifications — parallel, in
/// trace order — into `report`.
fn merge_verdicts(
    report: &mut AccuracyReport,
    classes: &[BlockClass],
    oracle_conflict: impl Iterator<Item = bool>,
) {
    for (oracle_conflict, &class) in oracle_conflict.zip(classes) {
        if class == BlockClass::Hit {
            continue;
        }
        report.misses += 1;
        let agree = if oracle_conflict {
            class == BlockClass::Conflict
        } else {
            class == BlockClass::Capacity
        };
        // No Oracle probe events here: block paths merge only with
        // probes disarmed (armed replay takes the per-event branch),
        // where emit would be a no-op anyway.
        if oracle_conflict {
            report.conflict.record(agree);
        } else {
            report.capacity.record(agree);
        }
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
