//! Miss-ratio curves from exact LRU stack distances (ROADMAP item 4).
//!
//! The paper's Miss Classification Table is scored against a 3C shadow
//! oracle; this crate supplies an *independent* second ground truth.
//! An LRU **stack distance** (reuse distance) is the number of
//! distinct other lines touched between two consecutive accesses to
//! the same line; a fully-associative LRU cache of capacity `C` lines
//! hits exactly when the distance is `< C`. One pass over a trace
//! therefore yields the miss ratio of *every* capacity at once — the
//! miss-ratio curve — from a single distance histogram, with no cache
//! model in the loop.
//!
//! Three engines share that histogram:
//!
//! * [`NaiveStackEngine`] — the textbook O(n·m) move-to-front list.
//!   Trivially auditable; kept as the reference oracle the fast
//!   engines are differentially tested against.
//! * [`StackDistanceEngine`] — the single-pass exact engine: Olken's
//!   count of live last-access markers, kept as a bitmap over access
//!   slots with a Fenwick tree over its 64-slot words. Lines get dense
//!   ids from one [`FxHashMap`](sim_core::hash::FxHashMap) lookup per
//!   event; a reuse within one word costs a popcount, a longer one a
//!   word-tree query. O(log(U/64)) amortised per event for U slots,
//!   and O(distinct lines) memory.
//! * [`ShardsEngine`] — SHARDS-style fixed-rate spatial sampling: a
//!   deterministic hash of the line address admits each line with
//!   probability `R`, and sampled distances are scaled by `1/R` at
//!   evaluation time. Memory drops to O(sampled lines); the hash is
//!   unseeded-RNG-free, so output is byte-identical across thread
//!   counts and re-runs.
//!
//! # Examples
//!
//! ```
//! use mrc::StackDistanceEngine;
//!
//! let mut engine = StackDistanceEngine::new();
//! for line in [0u64, 1, 2, 0, 1, 2] {
//!     engine.record_line(line);
//! }
//! // Second round of accesses sees distance 2 each: a 2-line cache
//! // misses all six, a 4-line cache only the three cold misses.
//! assert_eq!(engine.miss_ratio(2), 1.0);
//! assert_eq!(engine.miss_ratio(4), 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod histogram;
mod naive;
mod sampled;

pub use exact::StackDistanceEngine;
pub use histogram::{CurvePoint, DistanceHistogram, MissRatioCurve};
pub use naive::NaiveStackEngine;
pub use sampled::ShardsEngine;

/// The per-event distance recorded for a first touch (infinite stack
/// distance) in a distance memo such as
/// [`StackDistanceEngine::distances_of_parts`].
pub const COLD_DISTANCE: u32 = u32::MAX;

/// Whether an access at memoized stack distance `distance` hits a
/// fully-associative LRU cache of `capacity_lines` lines — Mattson's
/// inclusion property: `distance < capacity`, and never for a first
/// touch ([`COLD_DISTANCE`]). For a re-reference that missed the real
/// cache this is exactly the three-C oracle's *conflict* verdict.
#[must_use]
#[inline]
pub fn fits(distance: u32, capacity_lines: u64) -> bool {
    distance != COLD_DISTANCE && u64::from(distance) < capacity_lines
}

/// Reassembles a full line address from its decomposed `(set, tag)`
/// parts — the inverse of the split `trace_gen::DecomposedTrace`
/// performs, so MRC engines can consume the same chunked arrays the
/// replay pipeline feeds the cache kernel.
#[must_use]
#[inline]
pub fn line_from_parts(set: u32, tag: u64, set_bits: u32) -> u64 {
    (tag << set_bits) | u64::from(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_is_the_capacity_threshold_and_never_cold() {
        assert!(fits(0, 1));
        assert!(fits(15, 16));
        assert!(!fits(16, 16));
        assert!(!fits(COLD_DISTANCE, u64::MAX));
    }

    #[test]
    fn line_from_parts_round_trips_the_decomposition() {
        let set_bits = 6;
        for line in [0u64, 1, 63, 64, 0xdead_beef] {
            let set = (line & ((1 << set_bits) - 1)) as u32;
            let tag = line >> set_bits;
            assert_eq!(line_from_parts(set, tag, set_bits), line);
        }
    }
}
