//! Differential property tests for the MRC engines: the tree-based
//! [`StackDistanceEngine`] must reproduce the naive move-to-front
//! list oracle [`NaiveStackEngine`] event for event — identical
//! stack-distance histograms and miss ratios — across random traces,
//! line sizes, and chunk boundaries (torn / size-1 / whole-trace),
//! replayed at 1 and 4 worker threads. The per-event distance outputs
//! (`record_line_distance` and the `distances_of_parts` memo, with
//! [`COLD_DISTANCE`] on first touches) are compared one event at a
//! time, since the accuracy drivers read their ground truth from them.

use mrc::{DistanceHistogram, NaiveStackEngine, ShardsEngine, StackDistanceEngine, COLD_DISTANCE};
use proptest::prelude::*;

/// A small universe of byte addresses guarantees line reuse at every
/// generated line size.
const ADDR_UNIVERSE: u64 = 1 << 14;

/// Splits raw byte addresses into the `(set, tag)` arrays the chunked
/// replay path consumes, mirroring `trace_gen`'s decomposition.
fn decompose(addrs: &[u64], line_bits: u32, set_bits: u32) -> (Vec<u32>, Vec<u64>) {
    addrs
        .iter()
        .map(|&addr| {
            let line = addr >> line_bits;
            let set = (line & ((1 << set_bits) - 1)) as u32;
            (set, line >> set_bits)
        })
        .unzip()
}

/// Replays the whole trace through the naive oracle, per event.
fn naive_reference(addrs: &[u64], line_bits: u32) -> NaiveStackEngine {
    let mut oracle = NaiveStackEngine::new();
    for &addr in addrs {
        oracle.record_line(addr >> line_bits);
    }
    oracle
}

/// Replays decomposed chunks of `chunk` events through the tree
/// engine; the final chunk is torn whenever the trace length is not a
/// multiple of the chunk size.
fn tree_chunked(sets: &[u32], tags: &[u64], set_bits: u32, chunk: usize) -> StackDistanceEngine {
    let mut engine = StackDistanceEngine::new();
    for (s, t) in sets.chunks(chunk).zip(tags.chunks(chunk)) {
        engine.record_parts_block(s, t, set_bits);
    }
    engine
}

/// The capacity ladder the miss-ratio comparison is evaluated at.
const CAPACITIES: [u64; 8] = [1, 2, 3, 7, 16, 100, 1024, 1 << 20];

proptest! {
    /// Arbitrary chunk sizes (torn final chunks are the common case)
    /// against the naive oracle: same histogram, same miss ratio at
    /// every capacity.
    #[test]
    fn tree_engine_matches_naive_oracle_chunked(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..500),
        chunk in 1usize..64,
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, chunk);

        prop_assert_eq!(engine.histogram(), oracle.histogram());
        prop_assert_eq!(engine.distinct_lines(), oracle.distinct_lines());
        for cap in CAPACITIES {
            prop_assert_eq!(engine.miss_ratio(cap), oracle.miss_ratio(cap));
        }
    }

    /// Per-event distances: the tree engine's `record_line_distance`
    /// and the decomposed memo both equal the naive engine's distance
    /// at every event, cold sentinel included, and the memo's
    /// histogram is the engine's.
    #[test]
    fn per_event_distances_match_naive_oracle(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..400),
    ) {
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let memo = StackDistanceEngine::distances_of_parts(&sets, &tags, set_bits);
        prop_assert_eq!(memo.len(), addrs.len());
        let mut naive = NaiveStackEngine::new();
        let mut tree = StackDistanceEngine::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let line = addr >> line_bits;
            let expected = naive.record_line_distance(line);
            prop_assert_eq!(tree.record_line_distance(line), expected, "event {}", i);
            prop_assert_eq!(expected.is_none(), seen.insert(line), "event {}", i);
            let want = expected.map_or(COLD_DISTANCE, |d| d as u32);
            prop_assert_eq!(memo[i], want, "event {}", i);
        }
        prop_assert_eq!(&DistanceHistogram::from_distances(&memo), naive.histogram());
        prop_assert_eq!(tree.histogram(), naive.histogram());
    }

    /// A whole-trace chunk (chunk beyond the trace length) is one
    /// maximally torn chunk and must still match.
    #[test]
    fn whole_trace_chunk_matches_naive_oracle(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, addrs.len() + 7);
        prop_assert_eq!(engine.histogram(), oracle.histogram());
    }

    /// Chunk size 1 degenerates to per-event replay exactly.
    #[test]
    fn chunk_size_one_matches_naive_oracle(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..200),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let engine = tree_chunked(&sets, &tags, set_bits, 1);
        prop_assert_eq!(engine.histogram(), oracle.histogram());
    }

    /// The SHARDS filter at rate 1 admits everything, so the sampled
    /// engine must equal both exact engines event for event.
    #[test]
    fn shards_rate_one_matches_naive_oracle(
        line_bits in 4u32..9,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let mut sampled = ShardsEngine::new(1.0).expect("rate 1 is valid");
        for &addr in &addrs {
            sampled.record_line(addr >> line_bits);
        }
        prop_assert_eq!(sampled.histogram(), oracle.histogram());
        for cap in CAPACITIES {
            prop_assert_eq!(sampled.miss_ratio(cap), oracle.miss_ratio(cap));
        }
    }

    /// Engines replayed as parallel cells (1 and 4 worker threads, the
    /// chunk size varying per cell) all agree with the oracle and with
    /// each other — the engine has no hidden global state, and chunk
    /// geometry never leaks into the histogram.
    #[test]
    fn parallel_replay_is_thread_count_invariant(
        line_bits in 4u32..9,
        set_bits in 0u32..8,
        addrs in prop::collection::vec(0u64..ADDR_UNIVERSE, 1..300),
    ) {
        let oracle = naive_reference(&addrs, line_bits);
        let (sets, tags) = decompose(&addrs, line_bits, set_bits);
        let chunks: Vec<usize> = vec![1, 7, 64, addrs.len() + 1];
        for threads in [1usize, 4] {
            let engines = sim_core::parallel::par_map_threads(
                threads,
                chunks.clone(),
                |chunk| tree_chunked(&sets, &tags, set_bits, chunk),
            );
            for engine in &engines {
                prop_assert_eq!(engine.histogram(), oracle.histogram());
            }
        }
    }
}

/// A long trace that walks the engine through every regime of its
/// index: 34 432 events in six phases whose round-robin working set
/// doubles from 64 to 2048 lines, interleaved with a hot set of eight
/// lines. Each phase wraps its working set at least three times.
///
/// * Hot re-accesses land a few slots back, inside the newest marker
///   word (one popcount); the round-robin sweep of the later phases
///   reaches back thousands of slots, across many words (the word
///   tree).
/// * The live lines (8 hot plus every working-set line seen so far)
///   outgrow half the slot space phase after phase, so the slot space
///   doubles from 64 to 8192 slots.
/// * Each phase runs at least 4 000 events, far more than the slots
///   its live lines leave free, so the slots run out again and again:
///   the engine compacts 51 times, the first of which allocates 64
///   slots.
fn regime_walk_trace() -> Vec<u64> {
    let mut rng = sim_core::rng::SplitMix64::new(0x5eed);
    let mut lines = Vec::new();
    for phase in 0..6u32 {
        let working_set = 64u64 << phase;
        let mut cursor = 0u64;
        for _ in 0..(6 * working_set).max(4_000) {
            if rng.next_below(2) == 0 {
                lines.push((1 << 20) + rng.next_below(8));
            } else {
                lines.push(cursor);
                cursor = (cursor + 1) % working_set;
            }
        }
    }
    lines
}

/// Per-event distances of the long regime-walk trace, fed at chunk
/// sizes 1, 7, 1024 and whole-trace, equal the naive oracle's at
/// every event, cold sentinel included.
#[test]
fn long_trace_distances_match_naive_oracle_across_compactions() {
    let set_bits = 5;
    let lines = regime_walk_trace();
    let sets: Vec<u32> = lines.iter().map(|&l| (l & 31) as u32).collect();
    let tags: Vec<u64> = lines.iter().map(|&l| l >> set_bits).collect();
    let mut naive = NaiveStackEngine::new();
    let expected: Vec<u32> = lines
        .iter()
        .map(|&line| {
            naive
                .record_line_distance(line)
                .map_or(COLD_DISTANCE, |d| d as u32)
        })
        .collect();
    // Reuse within one marker word and across thousands of slots.
    assert!(expected.iter().any(|&d| d < 8));
    assert!(expected.iter().any(|&d| d != COLD_DISTANCE && d > 2_048));

    for chunk in [1, 7, 1024, lines.len()] {
        let mut engine = StackDistanceEngine::new();
        let mut distances = Vec::with_capacity(lines.len());
        for (s, t) in sets.chunks(chunk).zip(tags.chunks(chunk)) {
            engine.record_parts_distances(s, t, set_bits, &mut distances);
        }
        if let Some(i) = (0..lines.len()).find(|&i| distances[i] != expected[i]) {
            panic!(
                "chunk {chunk}: event {i} (line {}) got {} want {}",
                lines[i], distances[i], expected[i]
            );
        }
        assert_eq!(engine.distinct_lines(), naive.distinct_lines());
    }
}
