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
//! [`DecomposedArena`], and cells stream the precomputed pairs
//! straight into the kernel's `probe_at` / `fill_at` entry points.
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use sim_core::hash::FxHashMap;

use crate::arena::ArenaKey;
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
        let mask = (1u64 << set_bits) - 1;
        let mut sets = Vec::with_capacity(events.len());
        let mut tags = Vec::with_capacity(events.len());
        for event in events {
            let line = event.access.addr.line(line_size).raw();
            sets.push((line & mask) as u32);
            tags.push(line >> set_bits);
        }
        DecomposedTrace {
            sets: sets.into_boxed_slice(),
            tags: tags.into_boxed_slice(),
            set_bits,
        }
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

/// Events per chunk of the parallel partitioning pass. Chunk
/// boundaries are fixed by this constant — never by thread count — so
/// the merged result is identical whether one worker or sixteen
/// bucketed the chunks.
const PARTITION_CHUNK: usize = 64 * 1024;

/// Traces shorter than this are partitioned on the calling thread;
/// chunking overhead only pays for itself once there are at least two
/// full chunks to hand out.
const PARALLEL_PARTITION_MIN: usize = 2 * PARTITION_CHUNK;

/// A [`DecomposedTrace`] regrouped by set: one contiguous
/// `(original_index, tag)` run per touched set, plus a directory of
/// touched sets in ascending order.
///
/// The layout is CSR-style: run `k` covers set `dir_sets[k]` and
/// occupies `indices[dir_starts[k]..dir_starts[k+1]]` (and the same
/// range of `tags`). Within a run, events keep trace order — the
/// partition is a *stable* sort by set, so replaying whole runs
/// through a per-set-deterministic kernel reproduces per-event replay
/// exactly (the cache crate's `access_partitioned` relies on this).
/// Original trace indices are stored so consumers can scatter per-run
/// results back into trace order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedTrace {
    /// Touched sets, ascending.
    dir_sets: Box<[u32]>,
    /// CSR offsets: run `k` spans `dir_starts[k]..dir_starts[k + 1]`.
    dir_starts: Box<[u32]>,
    /// Original trace index of each event, grouped by set.
    indices: Box<[u32]>,
    /// Tags, parallel to `indices`.
    tags: Box<[u64]>,
    set_bits: u32,
}

/// One chunk's locally-bucketed events: the same CSR shape as the
/// final [`PartitionedTrace`], covering only that chunk's slice.
struct ChunkBuckets {
    dir_sets: Vec<u32>,
    dir_starts: Vec<u32>,
    indices: Vec<u32>,
    tags: Vec<u64>,
}

/// Stable counting sort of one event slice into per-set buckets.
/// `base` is the slice's offset into the whole trace, so stored
/// indices are global.
fn bucket_chunk(sets: &[u32], tags: &[u64], base: u32, num_sets: usize) -> ChunkBuckets {
    let mut counts = vec![0u32; num_sets];
    for &set in sets {
        counts[set as usize] += 1;
    }
    let mut dir_sets = Vec::new();
    let mut dir_starts = Vec::with_capacity(16);
    dir_starts.push(0u32);
    let mut offset = 0u32;
    for (set, count) in counts.iter_mut().enumerate() {
        if *count > 0 {
            dir_sets.push(set as u32);
            let start = offset;
            offset += *count;
            dir_starts.push(offset);
            // Repurpose the slot as the running write cursor.
            *count = start;
        }
    }
    let mut indices = vec![0u32; sets.len()];
    let mut out_tags = vec![0u64; sets.len()];
    for (i, (&set, &tag)) in sets.iter().zip(tags).enumerate() {
        let pos = counts[set as usize] as usize;
        counts[set as usize] += 1;
        indices[pos] = base + i as u32;
        out_tags[pos] = tag;
    }
    ChunkBuckets {
        dir_sets,
        dir_starts,
        indices,
        tags: out_tags,
    }
}

impl PartitionedTrace {
    /// Partitions a decomposed trace by set with a single stable
    /// counting sort. Traces of at least [`PARALLEL_PARTITION_MIN`]
    /// events are bucketed in fixed [`PARTITION_CHUNK`]-event chunks
    /// on [`sim_core::parallel`] and merged per set in chunk order,
    /// which reconstructs the exact serial stable order — the result
    /// is byte-identical at any thread count.
    #[must_use]
    pub fn partition(trace: &DecomposedTrace) -> Self {
        assert!(
            u32::try_from(trace.len()).is_ok(),
            "partitioned traces index events as u32"
        );
        let num_sets = 1usize << trace.set_bits;
        let chunks = if trace.len() >= PARALLEL_PARTITION_MIN {
            let ranges: Vec<(usize, usize)> = (0..trace.len())
                .step_by(PARTITION_CHUNK)
                .map(|start| (start, (start + PARTITION_CHUNK).min(trace.len())))
                .collect();
            sim_core::parallel::par_map(ranges, |(start, end)| {
                bucket_chunk(
                    &trace.sets[start..end],
                    &trace.tags[start..end],
                    start as u32,
                    num_sets,
                )
            })
        } else {
            vec![bucket_chunk(&trace.sets, &trace.tags, 0, num_sets)]
        };
        Self::merge(&chunks, trace.len(), trace.set_bits)
    }

    /// Merges per-chunk buckets into one CSR form: sets ascending,
    /// and within a set each chunk's segment appended in chunk order
    /// (chunks cover the trace in order, so this preserves the stable
    /// within-set trace order).
    fn merge(chunks: &[ChunkBuckets], len: usize, set_bits: u32) -> Self {
        let mut dir_sets = Vec::new();
        let mut dir_starts = Vec::with_capacity(16);
        dir_starts.push(0u32);
        let mut indices = Vec::with_capacity(len);
        let mut tags = Vec::with_capacity(len);
        let mut cursors = vec![0usize; chunks.len()];
        loop {
            let mut set = u32::MAX;
            let mut touched = false;
            for (chunk, &cursor) in chunks.iter().zip(&cursors) {
                if let Some(&s) = chunk.dir_sets.get(cursor) {
                    set = set.min(s);
                    touched = true;
                }
            }
            if !touched {
                break;
            }
            dir_sets.push(set);
            for (chunk, cursor) in chunks.iter().zip(&mut cursors) {
                if chunk.dir_sets.get(*cursor) == Some(&set) {
                    let lo = chunk.dir_starts[*cursor] as usize;
                    let hi = chunk.dir_starts[*cursor + 1] as usize;
                    indices.extend_from_slice(&chunk.indices[lo..hi]);
                    tags.extend_from_slice(&chunk.tags[lo..hi]);
                    *cursor += 1;
                }
            }
            dir_starts.push(indices.len() as u32);
        }
        debug_assert_eq!(indices.len(), len);
        PartitionedTrace {
            dir_sets: dir_sets.into_boxed_slice(),
            dir_starts: dir_starts.into_boxed_slice(),
            indices: indices.into_boxed_slice(),
            tags: tags.into_boxed_slice(),
            set_bits,
        }
    }

    /// Number of events (across all runs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` if the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The index bits this trace was partitioned against.
    #[must_use]
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// Number of per-set runs (distinct touched sets).
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.dir_sets.len()
    }

    /// Touched sets, ascending — one entry per run.
    #[must_use]
    pub fn dir_sets(&self) -> &[u32] {
        &self.dir_sets
    }

    /// CSR run offsets into [`Self::indices`] / [`Self::tags`]; one
    /// longer than [`Self::dir_sets`].
    #[must_use]
    pub fn dir_starts(&self) -> &[u32] {
        &self.dir_starts
    }

    /// Original trace index of each event, grouped by set, trace order
    /// within a set.
    #[must_use]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Tags, parallel to [`Self::indices`].
    #[must_use]
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// Iterates `(set, original_indices, tags)` runs in ascending set
    /// order.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u32], &[u64])> + '_ {
        self.dir_sets.iter().enumerate().map(move |(k, &set)| {
            let lo = self.dir_starts[k] as usize;
            let hi = self.dir_starts[k + 1] as usize;
            (set, &self.indices[lo..hi], &self.tags[lo..hi])
        })
    }

    /// Bytes of heap the partitioned form keeps resident (directory
    /// plus event arrays) — surfaced by the runtime-metrics record.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.dir_sets.len() * 4
            + self.dir_starts.len() * 4
            + self.indices.len() * 4
            + self.tags.len() * 8
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

/// One map slot: cloned out under the map lock, initialized outside it
/// so distinct keys can decompose concurrently.
type DecomposedCell = Arc<OnceLock<Arc<DecomposedTrace>>>;

/// One partitioned-form slot, same discipline as [`DecomposedCell`].
type PartitionedCell = Arc<OnceLock<Arc<PartitionedTrace>>>;

/// Counters for the partitioned side of a [`DecomposedArena`]:
/// requests served by an existing partition vs requests that sorted,
/// plus how much memoized partitioned state is resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionedStats {
    /// Requests served from a memoized partition.
    pub hits: u64,
    /// Requests that ran the counting sort.
    pub misses: u64,
    /// Partitioned traces currently resident.
    pub traces: u64,
    /// Heap bytes those traces keep resident.
    pub resident_bytes: u64,
}

/// One distance-memo slot, same discipline as [`DecomposedCell`].
type DistanceCell = Arc<OnceLock<Arc<[u32]>>>;

/// A memoizing store of decomposed traces, mirroring
/// [`crate::arena::TraceArena`]: the map mutex is held only to look up
/// or insert a per-key [`OnceLock`], never while decomposing, so
/// distinct keys split concurrently while racing requests for the same
/// key serialize and share one allocation.
#[derive(Debug, Default)]
pub struct DecomposedArena {
    map: Mutex<FxHashMap<DecomposedKey, DecomposedCell>>,
    parts: Mutex<FxHashMap<DecomposedKey, PartitionedCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    part_hits: AtomicU64,
    part_misses: AtomicU64,
    part_resident_bytes: AtomicU64,
    distances: Mutex<FxHashMap<(ArenaKey, u64), DistanceCell>>,
    dist_hits: AtomicU64,
    dist_misses: AtomicU64,
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
        let cell = {
            let key = DecomposedKey {
                trace: key,
                line_size,
                set_bits,
            };
            // Poison recovery: entries are inserted whole, so another
            // thread's panic cannot leave a half-written slot —
            // continuing with the inner map is sound (and keeps this
            // replay path free of panicking calls).
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let mut decomposed = false;
        let result = cell.get_or_init(|| {
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_decompose",
                "arena",
                || span_label.clone().unwrap_or_default(),
                || {
                    // Injection site: transient faults retry inside the gate;
                    // a persistent one unwinds via panic_any (no panicking
                    // macro on this replay path), leaving the `OnceLock`
                    // uninitialized so a retried cell re-attempts the split.
                    if let Err(fault) =
                        sim_core::fault::gate(sim_core::fault::FaultSite::ArenaMaterialize)
                    {
                        std::panic::panic_any(fault);
                    }
                    decomposed = true;
                    let d = DecomposedTrace::decompose(&trace(), line_size, set_bits);
                    sim_core::span::add_events(d.len() as u64);
                    Arc::new(d)
                },
            )
        });
        if decomposed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(result)
    }

    /// Returns the set-partitioned form of the trace identified by
    /// `key` for the same indexing scheme, partitioning (and, if
    /// needed, decomposing) on first request and memoizing both forms.
    /// The sort is paid once per `(trace, geometry)` key, amortized
    /// across every cell that replays it; subsequent requests for an
    /// equal key return the same allocation.
    pub fn get_or_partition(
        &self,
        key: ArenaKey,
        line_size: u64,
        set_bits: u32,
        trace: impl FnOnce() -> Arc<[TraceEvent]>,
    ) -> Arc<PartitionedTrace> {
        let span_label = sim_core::span::active().then(|| {
            format!(
                "{}/{}/{}/ls{line_size}/sb{set_bits}",
                key.workload, key.seed, key.events
            )
        });
        let cell = {
            let part_key = DecomposedKey {
                trace: key.clone(),
                line_size,
                set_bits,
            };
            let mut parts = self.parts.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(parts.entry(part_key).or_default())
        };
        let mut partitioned = false;
        let result = cell.get_or_init(|| {
            let decomposed = self.get_or_decompose(key, line_size, set_bits, trace);
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_partition",
                "arena",
                || span_label.clone().unwrap_or_default(),
                || {
                    partitioned = true;
                    let p = PartitionedTrace::partition(&decomposed);
                    sim_core::span::add_events(p.len() as u64);
                    self.part_resident_bytes
                        .fetch_add(p.heap_bytes() as u64, Ordering::Relaxed);
                    Arc::new(p)
                },
            )
        });
        if partitioned {
            self.part_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.part_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(result)
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
        let cell = {
            let mut map = self
                .distances
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry((key, line_size)).or_default())
        };
        let mut built = false;
        let result = cell.get_or_init(|| {
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_distances",
                "arena",
                || span_label.clone().unwrap_or_default(),
                || {
                    built = true;
                    let d: Arc<[u32]> = distances().into();
                    sim_core::span::add_events(d.len() as u64);
                    d
                },
            )
        });
        if built {
            self.dist_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dist_hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(result)
    }

    /// `(hits, misses)` counters of the distance memo (see
    /// [`Self::get_or_distances`]): requests served from a memoized
    /// array vs requests that built one.
    #[must_use]
    pub fn distance_stats(&self) -> (u64, u64) {
        (
            self.dist_hits.load(Ordering::Relaxed),
            self.dist_misses.load(Ordering::Relaxed),
        )
    }

    /// `(hits, misses)` counters: requests served by replay vs
    /// requests that decomposed.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Counters and residency of the partitioned side (see
    /// [`Self::get_or_partition`]).
    #[must_use]
    pub fn partitioned_stats(&self) -> PartitionedStats {
        let traces = self
            .parts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|cell| cell.get().is_some())
            .count() as u64;
        PartitionedStats {
            hits: self.part_hits.load(Ordering::Relaxed),
            misses: self.part_misses.load(Ordering::Relaxed),
            traces,
            resident_bytes: self.part_resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every resident decomposition, partition and distance
    /// memo (outstanding `Arc`s stay valid) and resets the counters.
    pub fn clear(&self) {
        self.distances
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.dist_hits.store(0, Ordering::Relaxed);
        self.dist_misses.store(0, Ordering::Relaxed);
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.parts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.part_hits.store(0, Ordering::Relaxed);
        self.part_misses.store(0, Ordering::Relaxed);
        self.part_resident_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SequentialSweep;
    use crate::TraceSource;
    use sim_core::Addr;

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

    /// Reference partition: an independent stable sort by set.
    fn naive_partition(d: &DecomposedTrace) -> Vec<(u32, Vec<u32>, Vec<u64>)> {
        let mut order: Vec<u32> = (0..d.len() as u32).collect();
        order.sort_by_key(|&i| d.sets()[i as usize]); // stable
        let mut runs: Vec<(u32, Vec<u32>, Vec<u64>)> = Vec::new();
        for i in order {
            let set = d.sets()[i as usize];
            let tag = d.tags()[i as usize];
            match runs.last_mut() {
                Some((s, indices, tags)) if *s == set => {
                    indices.push(i);
                    tags.push(tag);
                }
                _ => runs.push((set, vec![i], vec![tag])),
            }
        }
        runs
    }

    fn assert_matches_naive(p: &PartitionedTrace, d: &DecomposedTrace) {
        let expected = naive_partition(d);
        assert_eq!(p.len(), d.len());
        assert_eq!(p.run_count(), expected.len());
        assert_eq!(p.dir_starts().first(), Some(&0));
        assert_eq!(p.dir_starts().last(), Some(&(d.len() as u32)));
        let actual: Vec<(u32, Vec<u32>, Vec<u64>)> = p
            .runs()
            .map(|(set, indices, tags)| (set, indices.to_vec(), tags.to_vec()))
            .collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn partition_matches_stable_sort_by_set() {
        let events = sweep_events(3_000);
        // Fold into 16 sets so runs are long; also a skewed mix.
        let d = DecomposedTrace::decompose(&events, 64, 4);
        assert_matches_naive(&PartitionedTrace::partition(&d), &d);
        let d = DecomposedTrace::decompose(&events, 64, 9);
        assert_matches_naive(&PartitionedTrace::partition(&d), &d);
    }

    #[test]
    fn partition_of_empty_trace_is_empty() {
        let d = DecomposedTrace::decompose(&[], 64, 4);
        let p = PartitionedTrace::partition(&d);
        assert!(p.is_empty());
        assert_eq!(p.run_count(), 0);
        assert_eq!(p.dir_starts(), &[0]);
    }

    #[test]
    fn chunked_partition_matches_serial_at_any_thread_count() {
        // Enough events to engage the chunked parallel path, with a
        // torn final chunk.
        let events = sweep_events(PARALLEL_PARTITION_MIN + 1_037);
        let d = DecomposedTrace::decompose(&events, 64, 6);
        // Serial reference: one whole-trace chunk.
        let serial = PartitionedTrace::merge(
            &[bucket_chunk(d.sets(), d.tags(), 0, 1 << 6)],
            d.len(),
            d.set_bits(),
        );
        assert_matches_naive(&serial, &d);
        for threads in [1usize, 4, 8] {
            let chunked = sim_core::parallel::par_map_threads(threads, vec![()], |()| {
                PartitionedTrace::partition(&d)
            })
            .pop()
            .unwrap();
            assert_eq!(chunked, serial, "threads {threads}");
        }
    }

    #[test]
    fn arena_memoizes_partitions_and_counts_residency() {
        let arena = DecomposedArena::new();
        let events = sweep_events(120);
        let key = ArenaKey::new("p", 1, 120);
        let a = arena.get_or_partition(key.clone(), 64, 4, || events.clone());
        let b = arena.get_or_partition(key.clone(), 64, 4, || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = arena.partitioned_stats();
        assert_eq!((stats.hits, stats.misses, stats.traces), (1, 1, 1));
        assert_eq!(stats.resident_bytes, a.heap_bytes() as u64);
        // Partitioning also memoized the trace-order form.
        assert_eq!(arena.stats().1, 1);
        let d = arena.get_or_decompose(key.clone(), 64, 4, || unreachable!("memoized"));
        assert_matches_naive(&a, &d);
        arena.clear();
        let stats = arena.partitioned_stats();
        assert_eq!((stats.hits, stats.misses, stats.traces), (0, 0, 0));
        assert_eq!(stats.resident_bytes, 0);
        let again = arena.get_or_partition(key, 64, 4, || events);
        assert!(!Arc::ptr_eq(&a, &again));
    }
}
