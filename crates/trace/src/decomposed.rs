//! Geometry-decomposed traces: each event's `(set, tag)` pair
//! precomputed once per `(trace, geometry)` key.
//!
//! The accuracy experiments replay one workload trace through many
//! cache models that share an indexing scheme (Figure 2 sweeps eleven
//! tag widths over the *same* 16 KB direct-mapped cache; the
//! shadow-depth ablation sweeps four depths per configuration). Every
//! replay historically re-derived each event's line address, set index
//! and tag from the raw byte address — three shifts and a mask per
//! access per cell. A [`DecomposedTrace`] hoists that work out of the
//! cell loop: the split into parallel `sets` / `tags` arrays happens
//! once per `(trace, line size, set bits)` key in the
//! [`DecomposedArena`], and cells stream the precomputed pairs, a
//! block at a time ([`DecomposedTrace::for_each_block`]), straight
//! into the cache kernel's block entry points. A streamed generator
//! is split by the same code, one chunk at a time
//! ([`DecomposedTrace::split_into`]).
//!
//! Decomposition is lossless for everything the consumers need: the
//! line address is recoverable as `(tag << set_bits) | set` (the cache
//! crate's `line_from_parts`), so oracle models that key on whole
//! lines keep working during decomposed replay.
//!
//! # Examples
//!
//! ```
//! use trace_gen::arena::{ArenaKey, TraceArena};
//! use trace_gen::decomposed::DecomposedArena;
//! use trace_gen::pattern::SequentialSweep;
//! use sim_core::Addr;
//!
//! let traces = TraceArena::new();
//! let arena = DecomposedArena::new();
//! let key = ArenaKey::new("sweep", 1, 64);
//! let trace = traces.get_or_materialize(key.clone(), || {
//!     SequentialSweep::new(Addr::new(0), 4096, 8)
//! });
//! // 64-byte lines, 16 sets.
//! let d = arena.get_or_decompose(key.clone(), 64, 4, || trace.clone());
//! assert_eq!(d.len(), 64);
//! let again = arena.get_or_decompose(key, 64, 4, || unreachable!());
//! assert!(std::sync::Arc::ptr_eq(&d, &again)); // one decomposition
//! ```

use std::sync::{Arc, OnceLock};

use crate::arena::ArenaKey;
use crate::memo::Memo;
use crate::TraceEvent;

/// One trace split against one indexing scheme: event `i` touches set
/// `sets[i]` with tag `tags[i]`.
///
/// The two arrays are parallel and equally long. Set indices are
/// stored as `u32` (no supported geometry has more than 2³² sets),
/// which keeps the decomposed form at 12 bytes per event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecomposedTrace {
    sets: Box<[u32]>,
    tags: Box<[u64]>,
    set_bits: u32,
}

impl DecomposedTrace {
    /// Splits `events` into `(set, tag)` pairs for a cache with
    /// `line_size`-byte lines and `set_bits` index bits.
    #[must_use]
    pub fn decompose(events: &[TraceEvent], line_size: u64, set_bits: u32) -> Self {
        let mut sets = vec![0; events.len()].into_boxed_slice();
        let mut tags = vec![0; events.len()].into_boxed_slice();
        Self::split_into(
            events.iter().copied(),
            line_size,
            set_bits,
            &mut sets,
            &mut tags,
        );
        DecomposedTrace {
            sets,
            tags,
            set_bits,
        }
    }

    /// Splits events from `events` into `(set, tag)` pairs for a cache
    /// with `line_size`-byte lines and `set_bits` index bits, writing
    /// them in order to the front of `sets` and `tags`. Stops when
    /// `events` runs out or the shorter buffer is full, without taking
    /// an event it cannot store, and returns the number of pairs
    /// written — so a generator is split chunk by chunk by calling
    /// this again with the same iterator.
    pub fn split_into(
        events: impl Iterator<Item = TraceEvent>,
        line_size: u64,
        set_bits: u32,
        sets: &mut [u32],
        tags: &mut [u64],
    ) -> usize {
        let mask = (1u64 << set_bits) - 1;
        let mut written = 0;
        // The buffers lead the zip, so a full buffer ends the loop
        // before another event is pulled.
        for ((set, tag), event) in sets.iter_mut().zip(tags.iter_mut()).zip(events) {
            let line = event.access.addr.line(line_size).raw();
            *set = (line & mask) as u32;
            *tag = line >> set_bits;
            written += 1;
        }
        written
    }

    /// Builds a decomposed trace directly from parallel `sets`/`tags`
    /// arrays. Benchmarks and tests use this to synthesize address
    /// patterns in split form without round-tripping through
    /// [`TraceEvent`]s.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length or any set index needs
    /// more than `set_bits` bits.
    #[must_use]
    pub fn from_parts(sets: Vec<u32>, tags: Vec<u64>, set_bits: u32) -> Self {
        assert_eq!(sets.len(), tags.len(), "sets/tags must be parallel");
        assert!(
            sets.iter().all(|&s| u64::from(s) < (1u64 << set_bits)),
            "set index out of range for {set_bits} set bits"
        );
        DecomposedTrace {
            sets: sets.into_boxed_slice(),
            tags: tags.into_boxed_slice(),
            set_bits,
        }
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The index bits this trace was decomposed against.
    #[must_use]
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// The per-event set indices.
    #[must_use]
    pub fn sets(&self) -> &[u32] {
        &self.sets
    }

    /// The per-event tags.
    #[must_use]
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// The line address of event `i` (the inverse of decomposition).
    #[must_use]
    pub fn line(&self, i: usize) -> sim_core::LineAddr {
        sim_core::LineAddr::new((self.tags[i] << self.set_bits) | u64::from(self.sets[i]))
    }

    /// Streams the parallel `sets`/`tags` arrays through `f` in
    /// fixed-size blocks of `block` pairs (the final block may be
    /// shorter). This is the batched counterpart of [`Self::iter`],
    /// feeding the kernel's `access_block` entry points; a `block` of
    /// zero is treated as one whole-trace block.
    pub fn for_each_block(&self, block: usize, mut f: impl FnMut(&[u32], &[u64])) {
        if self.sets.is_empty() {
            return;
        }
        let block = if block == 0 { self.sets.len() } else { block };
        for (sets, tags) in self.sets.chunks(block).zip(self.tags.chunks(block)) {
            f(sets, tags);
        }
    }

    /// Iterates `(set, tag)` pairs in trace order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.sets.iter().copied().zip(self.tags.iter().copied())
    }
}

/// Identity of one decomposition: which trace, against which indexing
/// scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecomposedKey {
    /// The underlying trace's arena identity.
    pub trace: ArenaKey,
    /// Line size in bytes.
    pub line_size: u64,
    /// Number of set-index bits.
    pub set_bits: u32,
}

/// A memoizing store of decomposed traces, mirroring
/// [`crate::arena::TraceArena`]: distinct keys split concurrently
/// while racing requests for the same key share one allocation.
#[derive(Debug, Default)]
pub struct DecomposedArena {
    traces: Memo<DecomposedKey, Arc<DecomposedTrace>>,
    distances: Memo<(ArenaKey, u64), Arc<[u32]>>,
}

impl DecomposedArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        DecomposedArena::default()
    }

    /// The process-wide arena shared by all experiment drivers.
    #[must_use]
    pub fn global() -> &'static DecomposedArena {
        static GLOBAL: OnceLock<DecomposedArena> = OnceLock::new();
        GLOBAL.get_or_init(DecomposedArena::new)
    }

    /// Returns the decomposition of the trace identified by `key` for
    /// a cache with `line_size`-byte lines and `set_bits` index bits,
    /// computing it on first request from the events `trace` yields
    /// (typically a [`crate::arena::TraceArena`] lookup). Subsequent
    /// requests for an equal key return the same allocation.
    pub fn get_or_decompose(
        &self,
        key: ArenaKey,
        line_size: u64,
        set_bits: u32,
        trace: impl FnOnce() -> Arc<[TraceEvent]>,
    ) -> Arc<DecomposedTrace> {
        // Span label, computed only when tracing is armed (the scope
        // belongs to the arena subsystem, so the recorded scope set is
        // identical at any thread count).
        let span_label = sim_core::span::active().then(|| {
            format!(
                "{}/{}/{}/ls{line_size}/sb{set_bits}",
                key.workload, key.seed, key.events
            )
        });
        let key = DecomposedKey {
            trace: key,
            line_size,
            set_bits,
        };
        self.traces.get_or_build(key, || {
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_decompose",
                "arena",
                || span_label.unwrap_or_default(),
                || {
                    // Injection site: transient faults retry inside the gate;
                    // a persistent one unwinds via panic_any (no panicking
                    // macro on this replay path), leaving the key unbuilt so
                    // a retried cell re-attempts the split.
                    if let Err(fault) =
                        sim_core::fault::gate(sim_core::fault::FaultSite::ArenaMaterialize)
                    {
                        std::panic::panic_any(fault);
                    }
                    let d = DecomposedTrace::decompose(&trace(), line_size, set_bits);
                    sim_core::span::add_events(d.len() as u64);
                    Arc::new(d)
                },
            )
        })
    }

    /// Returns the per-event LRU stack distances of the trace
    /// identified by `key` at `line_size`-byte lines, building them on
    /// first request with `distances` and memoizing the result.
    ///
    /// Stack distances depend only on the line address, so one memo
    /// serves every geometry with that line size, whatever its set
    /// bits. The build is lazy — the first replay pays it, never the
    /// decomposition — and runs under the `arena_distances` subsystem
    /// span. It is counted in [`Self::distance_stats`], not in
    /// [`Self::stats`], so a memo build never reads as an arena build.
    /// Racing requests for one key share one build.
    pub fn get_or_distances(
        &self,
        key: ArenaKey,
        line_size: u64,
        distances: impl FnOnce() -> Vec<u32>,
    ) -> Arc<[u32]> {
        let span_label = sim_core::span::active()
            .then(|| format!("{}/{}/{}/ls{line_size}", key.workload, key.seed, key.events));
        self.distances.get_or_build((key, line_size), || {
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_distances",
                "arena",
                || span_label.unwrap_or_default(),
                || {
                    let d: Arc<[u32]> = distances().into();
                    sim_core::span::add_events(d.len() as u64);
                    d
                },
            )
        })
    }

    /// `(hits, misses)` counters of the distance memo (see
    /// [`Self::get_or_distances`]): requests served from a memoized
    /// array vs requests that built one.
    #[must_use]
    pub fn distance_stats(&self) -> (u64, u64) {
        self.distances.stats()
    }

    /// `(hits, misses)` counters: requests served by replay vs
    /// requests that decomposed.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        self.traces.stats()
    }

    /// Drops every resident decomposition and distance memo
    /// (outstanding `Arc`s stay valid) and resets the counters.
    pub fn clear(&self) {
        self.distances.clear();
        self.traces.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SequentialSweep;
    use crate::TraceSource;
    use sim_core::Addr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sweep_events(n: usize) -> Arc<[TraceEvent]> {
        let src = SequentialSweep::new(Addr::new(0x4000), 64 * 1024, 8);
        Arc::from(src.take_events(n).collect::<Vec<_>>())
    }

    #[test]
    fn decomposition_round_trips_to_lines() {
        let events = sweep_events(500);
        let d = DecomposedTrace::decompose(&events, 64, 8);
        assert_eq!(d.len(), events.len());
        for (i, event) in events.iter().enumerate() {
            assert_eq!(d.line(i), event.access.addr.line(64), "event {i}");
        }
    }

    #[test]
    fn parts_match_direct_extraction() {
        let events = sweep_events(300);
        let set_bits = 7;
        let d = DecomposedTrace::decompose(&events, 64, set_bits);
        for (i, (set, tag)) in d.iter().enumerate() {
            let line = events[i].access.addr.line(64).raw();
            assert_eq!(u64::from(set), line & ((1 << set_bits) - 1));
            assert_eq!(tag, line >> set_bits);
        }
    }

    #[test]
    fn for_each_block_matches_iter_including_torn_tail() {
        let events = sweep_events(4096 + 37);
        let d = DecomposedTrace::decompose(&events, 64, 4);
        let whole: Vec<(u32, u64)> = d.iter().collect();
        assert_eq!(whole.len(), d.len());
        for block in [1usize, 7, 64, 1000, d.len(), d.len() + 5, 0] {
            let mut seen = Vec::new();
            d.for_each_block(block, |sets, tags| {
                assert_eq!(sets.len(), tags.len());
                assert!(!sets.is_empty());
                seen.extend(sets.iter().copied().zip(tags.iter().copied()));
            });
            assert_eq!(seen, whole, "block size {block}");
        }
    }

    #[test]
    fn arena_memoizes_per_geometry() {
        let arena = DecomposedArena::new();
        let events = sweep_events(100);
        let key = ArenaKey::new("s", 1, 100);
        let a = arena.get_or_decompose(key.clone(), 64, 4, || events.clone());
        let b = arena.get_or_decompose(key.clone(), 64, 4, || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&a, &b));
        // A different indexing scheme is a different decomposition.
        let c = arena.get_or_decompose(key, 64, 5, || events.clone());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(arena.stats(), (1, 2));
    }

    #[test]
    fn concurrent_same_key_decomposes_once() {
        let arena = DecomposedArena::new();
        let events = sweep_events(200);
        let results: Vec<Arc<DecomposedTrace>> =
            sim_core::parallel::par_map_threads(8, (0..16).collect::<Vec<u32>>(), |_| {
                arena.get_or_decompose(ArenaKey::new("shared", 3, 200), 64, 6, || events.clone())
            });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r));
        }
        assert_eq!(arena.stats().1, 1);
    }

    #[test]
    fn clear_resets() {
        let arena = DecomposedArena::new();
        let events = sweep_events(50);
        let kept = arena.get_or_decompose(ArenaKey::new("s", 1, 50), 64, 4, || events.clone());
        arena.clear();
        assert_eq!(arena.stats(), (0, 0));
        assert_eq!(kept.len(), 50); // outstanding Arc survives clear
        let again = arena.get_or_decompose(ArenaKey::new("s", 1, 50), 64, 4, || events);
        assert!(!Arc::ptr_eq(&kept, &again));
    }

    /// The paper's four Figure 1 geometries at 64 B lines, as set
    /// bits: 16 KB DM, 16 KB 2-way, 64 KB DM, 64 KB 2-way.
    const FIG1_SET_BITS: [u32; 4] = [8, 7, 10, 9];

    /// A stand-in distance build that counts its invocations; the
    /// memo's contract does not depend on what it computes.
    fn counting_build<'a>(
        builds: &'a AtomicU64,
        d: &DecomposedTrace,
    ) -> impl FnOnce() -> Vec<u32> + 'a {
        let len = d.len();
        move || {
            builds.fetch_add(1, Ordering::Relaxed);
            (0..len as u32).collect()
        }
    }

    #[test]
    fn distance_memo_is_built_once_across_fig1_geometries() {
        let arena = DecomposedArena::new();
        let events = sweep_events(400);
        let key = ArenaKey::new("d", 1, 400);
        let builds = AtomicU64::new(0);
        let memos: Vec<Arc<[u32]>> = FIG1_SET_BITS
            .iter()
            .map(|&set_bits| {
                let d = arena.get_or_decompose(key.clone(), 64, set_bits, || events.clone());
                arena.get_or_distances(key.clone(), 64, counting_build(&builds, &d))
            })
            .collect();
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        for m in &memos[1..] {
            assert!(Arc::ptr_eq(&memos[0], m));
        }
        // A different line size is a different memo.
        let d = arena.get_or_decompose(key.clone(), 32, 8, || events.clone());
        let other = arena.get_or_distances(key, 32, counting_build(&builds, &d));
        assert!(!Arc::ptr_eq(&memos[0], &other));
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_distance_requests_build_once() {
        let arena = DecomposedArena::new();
        let events = sweep_events(300);
        let key = ArenaKey::new("race", 2, 300);
        let builds = AtomicU64::new(0);
        let cells: Vec<u32> = (0..16).collect();
        let memos = sim_core::parallel::par_map_threads(8, cells, |i| {
            let set_bits = FIG1_SET_BITS[i as usize % FIG1_SET_BITS.len()];
            let d = arena.get_or_decompose(key.clone(), 64, set_bits, || events.clone());
            arena.get_or_distances(key.clone(), 64, counting_build(&builds, &d))
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        for m in &memos[1..] {
            assert!(Arc::ptr_eq(&memos[0], m));
        }
        assert_eq!(arena.distance_stats(), (15, 1));
    }

    #[test]
    fn distance_memo_keeps_its_own_counters() {
        let arena = DecomposedArena::new();
        let events = sweep_events(250);
        let key = ArenaKey::new("own", 1, 250);
        let d = arena.get_or_decompose(key.clone(), 64, 8, || events.clone());
        let decomposed_before = arena.stats();
        let builds = AtomicU64::new(0);
        let memo = arena.get_or_distances(key.clone(), 64, counting_build(&builds, &d));
        let again = arena.get_or_distances(key, 64, || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&memo, &again));
        // Memo traffic never reads as a decomposition.
        assert_eq!(arena.stats(), decomposed_before);
        assert_eq!(arena.distance_stats(), (1, 1));
    }

    #[test]
    fn clear_drops_the_distance_memo() {
        let arena = DecomposedArena::new();
        let events = sweep_events(120);
        let key = ArenaKey::new("c", 1, 120);
        let d = arena.get_or_decompose(key.clone(), 64, 8, || events.clone());
        let builds = AtomicU64::new(0);
        let kept = arena.get_or_distances(key.clone(), 64, counting_build(&builds, &d));
        arena.clear();
        assert_eq!(arena.distance_stats(), (0, 0));
        assert_eq!(kept.len(), 120); // outstanding Arc survives clear
        let again = arena.get_or_distances(key, 64, counting_build(&builds, &d));
        assert!(!Arc::ptr_eq(&kept, &again));
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }
}
