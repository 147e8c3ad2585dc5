//! The stack-distance histogram and the miss-ratio curve read off it.
//!
//! Every engine in this crate funnels its observations into a
//! [`DistanceHistogram`]: one bucket per *raw* stack distance plus a
//! cold (first-touch) counter. Sampled engines store distances in
//! sampled units and scale only at evaluation time — the histogram
//! therefore stays O(distinct observed lines) even when the scaled
//! distances span the full trace footprint.

/// Histogram of LRU stack distances over one reference stream.
///
/// `buckets[d]` counts accesses whose distance was exactly `d`
/// (distinct *other* lines touched since the previous access to the
/// same line); `cold` counts first touches, whose distance is
/// infinite. The bucket vector grows lazily to the largest distance
/// seen, which is bounded by the number of distinct lines observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    buckets: Vec<u64>,
    cold: u64,
    total: u64,
}

impl DistanceHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access at stack distance `distance`.
    pub fn record(&mut self, distance: u64) {
        let idx = usize::try_from(distance).unwrap_or(usize::MAX - 1);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// The histogram of a per-event distance memo (see
    /// [`crate::StackDistanceEngine::distances_of_parts`]):
    /// [`crate::COLD_DISTANCE`] entries count as cold. Identical to
    /// the histogram of the engine pass that produced the memo.
    #[must_use]
    pub fn from_distances(distances: &[u32]) -> Self {
        let mut hist = DistanceHistogram::new();
        hist.record_distances(distances);
        hist
    }

    /// Records a chunk of a per-event distance memo, as
    /// [`Self::from_distances`] does for a whole one.
    pub fn record_distances(&mut self, distances: &[u32]) {
        for &d in distances {
            if d == crate::COLD_DISTANCE {
                self.record_cold();
            } else {
                self.record(u64::from(d));
            }
        }
    }

    /// Records one cold (first-touch) access.
    pub fn record_cold(&mut self) {
        self.cold += 1;
        self.total += 1;
    }

    /// Total accesses recorded (finite distances plus cold).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) accesses recorded.
    #[must_use]
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Count recorded at exactly `distance`.
    #[must_use]
    pub fn bucket(&self, distance: u64) -> u64 {
        usize::try_from(distance)
            .ok()
            .and_then(|i| self.buckets.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// One past the largest distance with a non-zero count.
    #[must_use]
    pub fn max_distance_bound(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Accesses whose distance is `>= threshold`, including cold
    /// accesses (infinite distance): the misses of an LRU cache
    /// holding `threshold` lines, in this histogram's distance units.
    #[must_use]
    pub fn tail(&self, threshold: u64) -> u64 {
        let start = usize::try_from(threshold).unwrap_or(usize::MAX);
        let finite: u64 = if start < self.buckets.len() {
            self.buckets[start..].iter().sum()
        } else {
            0
        };
        self.cold + finite
    }

    /// Miss ratio of an LRU cache holding `threshold` lines, in this
    /// histogram's distance units. Returns 0 for an empty histogram.
    #[must_use]
    pub fn miss_ratio(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.tail(threshold) as f64 / self.total as f64
    }
}

/// One evaluated point of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Cache capacity in lines (fully-associative LRU).
    pub capacity_lines: u64,
    /// Misses over total accesses at that capacity.
    pub miss_ratio: f64,
}

/// A miss-ratio curve: miss ratio evaluated at a ladder of cache
/// capacities, monotonically non-increasing in capacity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MissRatioCurve {
    points: Vec<CurvePoint>,
}

impl MissRatioCurve {
    /// Builds a curve from already-evaluated points.
    #[must_use]
    pub fn from_points(points: Vec<CurvePoint>) -> Self {
        MissRatioCurve { points }
    }

    /// The evaluated points, in the order they were supplied.
    #[must_use]
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The miss ratio at exactly `capacity_lines`, if that capacity
    /// was evaluated.
    #[must_use]
    pub fn at(&self, capacity_lines: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.capacity_lines == capacity_lines)
            .map(|p| p.miss_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_counts_cold_and_far_distances() {
        let mut h = DistanceHistogram::new();
        h.record_cold();
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.cold(), 1);
        assert_eq!(h.bucket(3), 2);
        assert_eq!(h.tail(0), 4);
        assert_eq!(h.tail(1), 3);
        assert_eq!(h.tail(4), 1);
        assert_eq!(h.tail(1 << 40), 1);
    }

    #[test]
    fn miss_ratio_is_tail_over_total() {
        let mut h = DistanceHistogram::new();
        h.record_cold();
        h.record(1);
        h.record(1);
        h.record(5);
        assert!((h.miss_ratio(2) - 0.5).abs() < 1e-12);
        assert!((h.miss_ratio(1) - 1.0).abs() < 1e-12);
        assert_eq!(DistanceHistogram::new().miss_ratio(1), 0.0);
    }

    #[test]
    fn curve_lookup_by_capacity() {
        let curve = MissRatioCurve::from_points(vec![
            CurvePoint {
                capacity_lines: 16,
                miss_ratio: 0.5,
            },
            CurvePoint {
                capacity_lines: 64,
                miss_ratio: 0.25,
            },
        ]);
        assert_eq!(curve.at(64), Some(0.25));
        assert_eq!(curve.at(32), None);
        assert_eq!(curve.points().len(), 2);
    }
}
