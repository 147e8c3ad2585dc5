//! The classic three-C miss classification (Hill), used as ground
//! truth when evaluating the Miss Classification Table.
//!
//! A miss in a set-associative cache is:
//!
//! * **compulsory** if the line has never been referenced before;
//! * **capacity** if a fully-associative LRU cache of the same total
//!   capacity would also have missed;
//! * **conflict** otherwise (the fully-associative cache would have
//!   hit — the miss exists only because of restricted placement).
//!
//! The paper groups compulsory with capacity ("non-conflict") when
//! scoring the MCT; [`OracleClass::is_conflict`] captures that split.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use sim_core::hash::{FxHashMap, FxHashSet};
use sim_core::LineAddr;

/// The classic classification of one cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleClass {
    /// First-ever reference to the line.
    Compulsory,
    /// The fully-associative cache of equal capacity also missed.
    Capacity,
    /// Only the restricted placement caused the miss.
    Conflict,
}

impl OracleClass {
    /// `true` for conflict misses; compulsory and capacity misses are
    /// grouped as "non-conflict", matching the paper's convention.
    #[must_use]
    pub const fn is_conflict(self) -> bool {
        matches!(self, OracleClass::Conflict)
    }
}

/// A fully-associative LRU cache over line addresses, implemented with
/// lazy deletion: accesses push (line, stamp) onto a queue, and stale
/// queue entries are skipped during eviction.
#[derive(Debug, Clone)]
struct FullyAssocLru {
    capacity_lines: usize,
    /// line -> latest stamp for that line.
    stamps: FxHashMap<LineAddr, u64>,
    /// access order, possibly containing stale entries.
    order: VecDeque<(LineAddr, u64)>,
    clock: u64,
}

impl FullyAssocLru {
    /// An empty shadow cache. Nothing is allocated until the first
    /// access, so an oracle that is never fed (an accuracy evaluator
    /// given caller-supplied verdicts) costs no memory.
    fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "oracle cache needs capacity");
        FullyAssocLru {
            capacity_lines,
            stamps: FxHashMap::default(),
            order: VecDeque::new(),
            clock: 0,
        }
    }

    /// References a line; returns `true` on hit.
    fn access(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let hit = match self.stamps.entry(line) {
            Entry::Occupied(mut e) => {
                *e.get_mut() = clock;
                true
            }
            Entry::Vacant(e) => {
                e.insert(clock);
                false
            }
        };
        self.order.push_back((line, clock));
        if !hit {
            self.evict_to_capacity();
        }
        // Amortized compaction: drop stale entries once they dominate
        // the queue, so hit-heavy streams stay O(live lines).
        if self.order.len() > 2 * self.stamps.len().max(self.capacity_lines) {
            let stamps = &self.stamps;
            self.order.retain(|&(l, s)| stamps.get(&l) == Some(&s));
        }
        hit
    }

    fn evict_to_capacity(&mut self) {
        while self.stamps.len() > self.capacity_lines {
            let (line, stamp) = self
                .order
                .pop_front()
                .expect("stamps nonempty implies order nonempty");
            match self.stamps.get(&line) {
                Some(&latest) if latest == stamp => {
                    self.stamps.remove(&line);
                }
                // Stale entry: the line was re-referenced later.
                _ => {}
            }
        }
        // Opportunistically trim stale prefix entries so the queue
        // stays O(capacity) on hit-heavy streams.
        while let Some(&(line, stamp)) = self.order.front() {
            if self.stamps.get(&line) == Some(&stamp) {
                break;
            }
            self.order.pop_front();
        }
    }

    fn len(&self) -> usize {
        self.stamps.len()
    }
}

/// Ground-truth miss classifier: runs a fully-associative LRU shadow
/// cache and a compulsory-set next to the real cache.
///
/// Feed it **every** reference the real cache sees, in order, and ask
/// it to classify the ones that missed. (It must also observe the
/// hits — the shadow LRU state depends on them.)
///
/// # Examples
///
/// ```
/// use cache_model::oracle::{OracleClass, ThreeCClassifier};
/// use sim_core::LineAddr;
///
/// // Shadow model with room for 2 lines.
/// let mut oracle = ThreeCClassifier::new(2);
/// assert_eq!(oracle.observe(LineAddr::new(1)), OracleClass::Compulsory);
/// assert_eq!(oracle.observe(LineAddr::new(2)), OracleClass::Compulsory);
/// // Line 1 is still in a 2-line FA cache: if the real cache missed
/// // here, it was a conflict miss.
/// assert_eq!(oracle.observe(LineAddr::new(1)), OracleClass::Conflict);
/// ```
#[derive(Debug, Clone)]
pub struct ThreeCClassifier {
    shadow: FullyAssocLru,
    seen: FxHashSet<LineAddr>,
}

impl ThreeCClassifier {
    /// Creates a classifier whose shadow cache holds `capacity_lines`
    /// lines (the real cache's total line count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    #[must_use]
    pub fn new(capacity_lines: usize) -> Self {
        ThreeCClassifier {
            shadow: FullyAssocLru::new(capacity_lines),
            seen: FxHashSet::default(),
        }
    }

    /// Observes one reference and returns how a miss at this point
    /// *would* classify.
    ///
    /// Call this for every reference; ignore the return value for
    /// references that hit in the real cache.
    pub fn observe(&mut self, line: LineAddr) -> OracleClass {
        let first_touch = self.seen.insert(line);
        let shadow_hit = self.shadow.access(line);
        if first_touch {
            OracleClass::Compulsory
        } else if shadow_hit {
            OracleClass::Conflict
        } else {
            OracleClass::Capacity
        }
    }

    /// Number of lines currently resident in the shadow cache.
    #[must_use]
    pub fn shadow_len(&self) -> usize {
        self.shadow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut o = ThreeCClassifier::new(4);
        for n in 0..10 {
            assert_eq!(o.observe(line(n)), OracleClass::Compulsory);
        }
    }

    #[test]
    fn rereference_within_capacity_is_conflict() {
        let mut o = ThreeCClassifier::new(4);
        o.observe(line(0));
        o.observe(line(1));
        // Both fit in a 4-line FA cache, so a real-cache miss on
        // line 0 now can only come from placement conflicts.
        assert_eq!(o.observe(line(0)), OracleClass::Conflict);
    }

    #[test]
    fn rereference_beyond_capacity_is_capacity() {
        let mut o = ThreeCClassifier::new(2);
        o.observe(line(0));
        o.observe(line(1));
        o.observe(line(2)); // evicts 0 from the shadow
        assert_eq!(o.observe(line(0)), OracleClass::Capacity);
    }

    #[test]
    fn shadow_is_lru_not_fifo() {
        let mut o = ThreeCClassifier::new(2);
        o.observe(line(0));
        o.observe(line(1));
        o.observe(line(0)); // refresh 0; LRU is now 1
        o.observe(line(2)); // evicts 1, not 0
        assert_eq!(o.observe(line(0)), OracleClass::Conflict);
        assert_eq!(o.observe(line(1)), OracleClass::Capacity);
    }

    #[test]
    fn shadow_never_exceeds_capacity() {
        let mut o = ThreeCClassifier::new(8);
        let mut rng = sim_core::rng::SplitMix64::new(1);
        for _ in 0..10_000 {
            o.observe(line(rng.next_below(64)));
            assert!(o.shadow_len() <= 8);
        }
    }

    #[test]
    fn hit_heavy_stream_does_not_grow_queue_unboundedly() {
        let mut o = ThreeCClassifier::new(2);
        o.observe(line(0));
        o.observe(line(1));
        for _ in 0..100_000 {
            o.observe(line(0));
            o.observe(line(1));
        }
        // Amortized compaction must keep the order queue bounded.
        assert!(
            o.shadow.order.len() <= 8,
            "order queue grew to {}",
            o.shadow.order.len()
        );
    }

    #[test]
    fn is_conflict_groups_paper_style() {
        assert!(!OracleClass::Compulsory.is_conflict());
        assert!(!OracleClass::Capacity.is_conflict());
        assert!(OracleClass::Conflict.is_conflict());
    }
}
