//! The naive O(n·m) stack-distance oracle: the textbook LRU stack as
//! a literal move-to-front list.
//!
//! Mattson's original stack algorithm keeps the lines in recency
//! order; an access's stack distance is its position in that list.
//! This implementation does exactly that with a `Vec` and a linear
//! scan — quadratic over the trace, but short enough to audit by eye.
//! It exists as the reference implementation the tree-based
//! [`crate::StackDistanceEngine`] is differentially tested against;
//! nothing performance-sensitive should use it.

use crate::histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};

/// The reference stack-distance engine: a literal LRU recency list.
#[derive(Debug, Clone, Default)]
pub struct NaiveStackEngine {
    /// Lines in recency order, most recent first.
    stack: Vec<u64>,
    hist: DistanceHistogram,
}

impl NaiveStackEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one line access: its distance is its position in the
    /// recency list (cold if absent), then it moves to the front.
    pub fn record_line(&mut self, line: u64) {
        self.record_line_distance(line);
    }

    /// Records one line access and returns its stack distance, or
    /// `None` for a first touch.
    pub fn record_line_distance(&mut self, line: u64) -> Option<u64> {
        let distance = self.stack.iter().position(|&l| l == line);
        match distance {
            Some(pos) => {
                self.hist.record(pos as u64);
                self.stack.remove(pos);
            }
            None => self.hist.record_cold(),
        }
        self.stack.insert(0, line);
        distance.map(|pos| pos as u64)
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

    /// Distinct lines seen so far.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        self.stack.len() as u64
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

    #[test]
    fn cyclic_sweep_distances_equal_working_set_minus_one() {
        let mut e = NaiveStackEngine::new();
        for _ in 0..3 {
            for line in 0..4u64 {
                e.record_line(line);
            }
        }
        // 4 cold accesses, then every access returns at distance 3.
        assert_eq!(e.histogram().cold(), 4);
        assert_eq!(e.histogram().bucket(3), 8);
        assert_eq!(e.distinct_lines(), 4);
        // A 4-line cache holds the whole loop; a 3-line cache thrashes.
        assert!((e.miss_ratio(4) - 4.0 / 12.0).abs() < 1e-12);
        assert!((e.miss_ratio(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut e = NaiveStackEngine::new();
        e.record_line(7);
        e.record_line(7);
        assert_eq!(e.histogram().bucket(0), 1);
        assert!((e.miss_ratio(1) - 0.5).abs() < 1e-12);
    }
}
