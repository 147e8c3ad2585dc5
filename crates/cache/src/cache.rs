//! An LRU set-associative cache with per-line metadata.

use sim_core::probe;
use sim_core::LineAddr;

use crate::{CacheGeometry, CacheStats};

/// Which resident line a full set sacrifices on a fill.
///
/// The paper's caches use LRU; FIFO and Random are provided for
/// substrate completeness (victim choice is itself a variable some of
/// the cited work explores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict the least recently used line (default).
    #[default]
    Lru,
    /// Evict the oldest-filled line, ignoring hits.
    Fifo,
    /// Evict a pseudo-random line (deterministic per eviction count,
    /// so runs remain reproducible).
    Random,
}

impl Replacement {
    /// Whether the policy's victim choice can depend on line metadata.
    /// None does: LRU and FIFO evict the way with the oldest stamp and
    /// Random draws from the set's eviction count, and the block
    /// engine's victim hook is not even handed the metadata. Caches
    /// that differ only in the metadata they store therefore hit, miss
    /// and evict alike, which is what lets many miss classifiers share
    /// one kernel.
    #[must_use]
    pub const fn victim_reads_metadata(self) -> bool {
        match self {
            Replacement::Lru | Replacement::Fifo | Replacement::Random => false,
        }
    }
}

/// A line displaced by a [`SetAssocCache::fill`].
///
/// Carries the evicted line's address (reconstructed from its tag and
/// set) and its metadata — for the paper's architectures the metadata
/// is the *conflict bit* that travels with the line to the victim
/// buffer or the Miss Classification Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<M> {
    /// The address of the displaced line.
    pub line: LineAddr,
    /// The metadata stored with the displaced line.
    pub meta: M,
}

/// A set-associative, write-allocate cache with true-LRU replacement
/// and per-line metadata of type `M`.
///
/// Timing lives elsewhere (the architecture models); this structure
/// answers only *what is resident* and *what gets displaced*. Probes
/// update LRU state, [`SetAssocCache::peek`] does not.
///
/// Internally the cache is a flat structure-of-arrays kernel: one
/// contiguous allocation each for tags, replacement stamps and line
/// metadata, indexed by `set * assoc + way`, plus a per-set occupancy
/// count. Ways `0..occupancy` of a set are resident (fills append,
/// [`Self::invalidate`] swap-removes), so a probe is a short linear
/// scan over adjacent words — the previous per-set `Vec<Way>` layout
/// paid one heap allocation per set and a pointer chase per access.
/// The flat arrays are recycled through a thread-local pool
/// ([`crate::pool`]) on drop, so experiment drivers that build one
/// cache per cell reuse warm pages instead of faulting fresh ones in
/// every time. `reference::RefSetAssocCache` preserves the original
/// per-set implementation as a differential-test oracle.
///
/// # Examples
///
/// ```
/// use cache_model::{CacheGeometry, SetAssocCache};
/// use sim_core::LineAddr;
///
/// // A tiny 2-set, 2-way cache to watch LRU happen.
/// let geom = CacheGeometry::new(256, 2, 64)?;
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(geom);
/// let line = |n| LineAddr::new(n);
/// c.fill(line(0), 10);       // set 0
/// c.fill(line(2), 20);       // set 0 (second way)
/// c.probe(line(0));          // make line 0 most recent
/// let ev = c.fill(line(4), 30).unwrap();
/// assert_eq!(ev.line, line(2));  // LRU way displaced
/// assert_eq!(ev.meta, 20);
/// # Ok::<(), cache_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M = ()> {
    geom: CacheGeometry,
    /// Associativity, cached as `usize` for the indexing hot path.
    assoc: usize,
    /// Tag per way slot, indexed `set * assoc + way`.
    tags: Box<[u64]>,
    /// Replacement stamp per way slot (victim = minimum). Under LRU
    /// the stamp is refreshed on every hit; under FIFO it is written
    /// only at fill time; Random never reads it.
    stamps: Box<[u64]>,
    /// Metadata per way slot; `Some` exactly for resident ways.
    meta: Box<[Option<M>]>,
    /// Resident ways per set; ways `0..occ[set]` are valid.
    occ: Box<[u32]>,
    /// Total resident lines (sum of `occ`).
    resident: usize,
    clock: u64,
    stats: CacheStats,
    replacement: Replacement,
    evictions: u64,
    /// Evictions per set. Random victim choice is seeded from this
    /// (not the global count) so the victim a set picks depends only
    /// on that set's own history.
    set_evictions: Box<[u32]>,
    probed: bool,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry and LRU
    /// replacement.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_replacement(geom, Replacement::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy.
    #[must_use]
    pub fn with_replacement(geom: CacheGeometry, replacement: Replacement) -> Self {
        let slots = geom.num_lines();
        SetAssocCache {
            geom,
            assoc: geom.associativity() as usize,
            // Pooled arrays may hold stale values from a previous
            // cache; the kernel never reads slots past a set's
            // occupancy, so only `occ` needs zeroing.
            tags: crate::pool::take_u64(slots),
            stamps: crate::pool::take_u64(slots),
            meta: (0..slots).map(|_| None).collect(),
            occ: crate::pool::take_u32_zeroed(geom.num_sets()),
            resident: 0,
            clock: 0,
            stats: CacheStats::default(),
            replacement,
            evictions: 0,
            set_evictions: crate::pool::take_u32_zeroed(geom.num_sets()),
            probed: false,
        }
    }

    /// The replacement policy in use.
    #[must_use]
    pub const fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Opts this cache into per-set [`probe`] events
    /// ([`probe::ProbeEvent::SetFill`] / [`probe::ProbeEvent::SetEvict`]).
    ///
    /// Off by default so that secondary structures sharing the model
    /// (an L2, a shadow copy) do not pollute the L1's event stream;
    /// the unit that an experiment measures enables it at
    /// construction. No events are emitted either way unless a probe
    /// sink is installed.
    pub fn enable_set_probes(&mut self) {
        self.probed = true;
    }

    /// Index of the way a fill would displace in a full `set`.
    ///
    /// Stamps are globally unique (the clock advances on every probe
    /// and fill), so the minimum scans below have no ties and the
    /// victim is independent of scan order.
    fn victim_way(&self, set_index: usize) -> usize {
        let base = set_index * self.assoc;
        let occ = self.occ[set_index] as usize;
        debug_assert!(occ > 0, "victim choice in an empty set");
        match self.replacement {
            Replacement::Lru | Replacement::Fifo => min_stamp_way(&self.stamps[base..base + occ]),
            Replacement::Random => {
                // Deterministic per (set's eviction count, set): the
                // same victim is reported by eviction_candidate and
                // taken by the subsequent fill, and the choice is
                // independent of other sets' traffic.
                RandomPolicy::victim(
                    &self.stamps[base..base + occ],
                    self.set_evictions[set_index],
                    set_index,
                )
            }
        }
    }

    /// Slot index of the resident way holding `tag` in `set`, if any.
    #[inline]
    fn find_slot(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        let occ = self.occ[set] as usize;
        self.tags[base..base + occ]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Access statistics recorded by [`Self::probe`].
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Looks a line up, updating recency and hit/miss statistics.
    ///
    /// Returns mutable access to the line's metadata on a hit so
    /// callers can, for instance, flip the conflict bit in place.
    pub fn probe(&mut self, line: LineAddr) -> Option<&mut M> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        self.probe_at(set, tag)
    }

    /// [`Self::probe`] with the line already decomposed into its set
    /// index and tag — the kernel entry point decomposed-trace replay
    /// feeds, skipping per-access address arithmetic.
    pub fn probe_at(&mut self, set: usize, tag: u64) -> Option<&mut M> {
        self.clock += 1;
        match self.find_slot(set, tag) {
            Some(slot) => {
                self.stats.record_hit();
                // FIFO victims ignore recency; Random reads no stamps.
                if matches!(self.replacement, Replacement::Lru) {
                    self.stamps[slot] = self.clock;
                }
                self.meta[slot].as_mut()
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Looks a line up without touching recency or statistics.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<&M> {
        self.peek_at(self.geom.set_index(line), self.geom.tag(line))
    }

    /// [`Self::peek`] with the line already decomposed.
    #[must_use]
    pub fn peek_at(&self, set: usize, tag: u64) -> Option<&M> {
        self.find_slot(set, tag)
            .and_then(|slot| self.meta[slot].as_ref())
    }

    /// Returns `true` if the line is resident.
    #[must_use]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line, displacing the LRU way of a full set.
    ///
    /// The new line becomes the most recently used in its set. Returns
    /// the displaced line, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already resident —
    /// architectures must not double-fill (it would duplicate a tag
    /// within a set).
    pub fn fill(&mut self, line: LineAddr, meta: M) -> Option<Eviction<M>> {
        debug_assert!(!self.contains(line), "double fill of {line}");
        self.fill_at(self.geom.set_index(line), self.geom.tag(line), meta)
    }

    /// [`Self::fill`] with the line already decomposed into its set
    /// index and tag.
    pub fn fill_at(&mut self, set_index: usize, tag: u64, meta: M) -> Option<Eviction<M>> {
        self.clock += 1;
        let clock = self.clock;
        if self.probed && probe::active() {
            probe::emit(probe::ProbeEvent::SetFill {
                set: set_index as u32,
            });
        }
        let base = set_index * self.assoc;
        let occ = self.occ[set_index] as usize;
        if occ < self.assoc {
            let slot = base + occ;
            self.tags[slot] = tag;
            self.stamps[slot] = clock;
            self.meta[slot] = Some(meta);
            self.occ[set_index] += 1;
            self.resident += 1;
            return None;
        }
        // Displace the policy's victim.
        let way = self.victim_way(set_index);
        self.evictions += 1;
        self.set_evictions[set_index] += 1;
        if self.probed && probe::active() {
            probe::emit(probe::ProbeEvent::SetEvict {
                set: set_index as u32,
            });
        }
        let slot = base + way;
        let evicted_tag = self.tags[slot];
        let evicted_meta = self.meta[slot]
            .replace(meta)
            // Ways 0..occ hold Some meta by construction (fills write
            // it, invalidate swap-removes), and no non-panicking
            // fallback exists for an arbitrary meta type M.
            // simlint: allow(transitive-panic)
            .expect("resident way has meta");
        self.tags[slot] = tag;
        self.stamps[slot] = clock;
        Some(Eviction {
            line: self.geom.line_from_parts(evicted_tag, set_index),
            meta: evicted_meta,
        })
    }

    /// Removes a line, returning its metadata if it was resident.
    ///
    /// Victim-cache swaps use this to pull a line out of the cache
    /// without filling a replacement.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<M> {
        let set = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let slot = self.find_slot(set, tag)?;
        let removed = self.meta[slot].take();
        // Swap-remove: the last resident way drops into the vacated
        // slot, matching `Vec::swap_remove` in the reference layout.
        let last = set * self.assoc + self.occ[set] as usize - 1;
        if slot != last {
            self.tags[slot] = self.tags[last];
            self.stamps[slot] = self.stamps[last];
            self.meta[slot] = self.meta[last].take();
        }
        self.occ[set] -= 1;
        self.resident -= 1;
        removed
    }

    /// The line that would be displaced if a fill hit this set now.
    ///
    /// `None` if the set still has an empty way.
    #[must_use]
    pub fn eviction_candidate(&self, line: LineAddr) -> Option<LineAddr> {
        let set_index = self.geom.set_index(line);
        if (self.occ[set_index] as usize) < self.assoc {
            return None;
        }
        let way = self.victim_way(set_index);
        let tag = self.tags[set_index * self.assoc + way];
        Some(self.geom.line_from_parts(tag, set_index))
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` if no lines are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Iterates over all resident lines and their metadata, set by set
    /// in way order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> + '_ {
        (0..self.occ.len()).flat_map(move |set| {
            let base = set * self.assoc;
            // filter_map keeps this total: resident ways always hold
            // Some meta, so nothing is ever actually skipped.
            (base..base + self.occ[set] as usize).filter_map(move |slot| {
                self.meta[slot]
                    .as_ref()
                    .map(|meta| (self.geom.line_from_parts(self.tags[slot], set), meta))
            })
        })
    }
}

/// The outcome of one event in a block replay
/// ([`SetAssocCache::access_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockOutcome {
    /// The line was resident.
    #[default]
    Hit,
    /// The line missed and filled an empty way.
    FilledEmpty,
    /// The line missed and its fill displaced a resident line.
    FilledEvicting,
}

/// Per-event callbacks a block replay drives
/// ([`SetAssocCache::access_block_with`]).
///
/// `index` is the event's position in the caller's block. Events are
/// visited in block order.
pub trait BlockSink<M> {
    /// Called on a hit with the resident line's metadata.
    fn hit(&mut self, index: usize, meta: &mut M);
    /// Called on a miss *before* the fill (the MCT protocol
    /// classifies against pre-fill state); returns the metadata the
    /// filled line carries.
    fn miss(&mut self, index: usize, set: usize, tag: u64) -> M;
    /// Called when the fill of event `index` displaced a resident
    /// line.
    fn evicted(&mut self, index: usize, set: usize, evicted_tag: u64, evicted_meta: M);
}

/// Replacement policy, monomorphized for the block engine: the
/// per-event `match` on [`Replacement`] becomes one dispatch per
/// block.
trait BlockPolicy {
    /// Whether a hit refreshes the line's stamp (true LRU only).
    const REFRESH_ON_HIT: bool;
    /// Victim way among `stamps`, the resident stamps of `set_index`.
    fn victim(stamps: &[u64], set_evictions: u32, set_index: usize) -> usize;
}

struct LruPolicy;
struct FifoPolicy;
struct RandomPolicy;

impl BlockPolicy for LruPolicy {
    const REFRESH_ON_HIT: bool = true;
    #[inline]
    fn victim(stamps: &[u64], _set_evictions: u32, _set_index: usize) -> usize {
        min_stamp_way(stamps)
    }
}

impl BlockPolicy for FifoPolicy {
    // FIFO victims ignore recency; stamps are written at fill only.
    const REFRESH_ON_HIT: bool = false;
    #[inline]
    fn victim(stamps: &[u64], _set_evictions: u32, _set_index: usize) -> usize {
        min_stamp_way(stamps)
    }
}

impl BlockPolicy for RandomPolicy {
    const REFRESH_ON_HIT: bool = false;
    #[inline]
    fn victim(stamps: &[u64], set_evictions: u32, set_index: usize) -> usize {
        let mut rng = sim_core::rng::SplitMix64::new(
            u64::from(set_evictions) ^ (set_index as u64).rotate_left(32),
        );
        rng.next_below(stamps.len() as u64) as usize
    }
}

/// Index of the minimum stamp — a plain min scan (total even on an
/// empty slice, and branch-predictable on the 1-8 way geometries the
/// experiments sweep). Stamps are globally unique, so there are no
/// ties and the victim is independent of scan order.
#[inline]
fn min_stamp_way(stamps: &[u64]) -> usize {
    let mut way = 0;
    let mut min = u64::MAX;
    for (i, &stamp) in stamps.iter().enumerate() {
        if stamp < min {
            min = stamp;
            way = i;
        }
    }
    way
}

/// The sink behind [`SetAssocCache::access_block`]: records plain
/// outcomes and fills with default metadata.
struct OutcomeSink<'a> {
    out: &'a mut [BlockOutcome],
}

impl<M: Default> BlockSink<M> for OutcomeSink<'_> {
    #[inline]
    fn hit(&mut self, index: usize, _meta: &mut M) {
        self.out[index] = BlockOutcome::Hit;
    }
    #[inline]
    fn miss(&mut self, index: usize, _set: usize, _tag: u64) -> M {
        self.out[index] = BlockOutcome::FilledEmpty;
        M::default()
    }
    #[inline]
    fn evicted(&mut self, index: usize, _set: usize, _evicted_tag: u64, _evicted_meta: M) {
        self.out[index] = BlockOutcome::FilledEvicting;
    }
}

impl<M> SetAssocCache<M> {
    /// Replays a block of decomposed accesses through a sink.
    ///
    /// Semantically identical to the per-event loop
    ///
    /// ```ignore
    /// for i in 0..sets.len() {
    ///     match cache.probe_at(sets[i] as usize, tags[i]) {
    ///         Some(meta) => sink.hit(i, meta),
    ///         None => {
    ///             let meta = sink.miss(i, sets[i] as usize, tags[i]);
    ///             if let Some(ev) = cache.fill_at(sets[i] as usize, tags[i], meta) {
    ///                 sink.evicted(i, ..);
    ///             }
    ///         }
    ///     }
    /// }
    /// ```
    ///
    /// but the replacement-policy branch runs once per block instead
    /// of once per event, and adjacent
    /// same-set events are replayed as *runs* whose row, clock, and
    /// counters live in locals. Events keep trace order, so hits,
    /// misses, evictions, statistics and final contents all match
    /// per-event replay exactly.
    ///
    /// Set-probe events ([`probe::ProbeEvent::SetFill`] /
    /// [`probe::ProbeEvent::SetEvict`]) come only from the per-event
    /// entry points ([`Self::probe_at`], [`Self::fill_at`]); block
    /// replay emits none. A caller that records them replays per event
    /// while a probe sink is armed, as the MCT crate's
    /// `ClassifyingCache::access_parts_block` does.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a set index is out of
    /// range for the geometry.
    pub fn access_block_with<S: BlockSink<M>>(&mut self, sets: &[u32], tags: &[u64], sink: &mut S) {
        assert_eq!(sets.len(), tags.len(), "sets/tags length mismatch");
        match self.replacement {
            Replacement::Lru => self.process_block::<LruPolicy, S>(sets, tags, sink),
            Replacement::Fifo => self.process_block::<FifoPolicy, S>(sets, tags, sink),
            Replacement::Random => self.process_block::<RandomPolicy, S>(sets, tags, sink),
        }
    }

    /// [`Self::access_block_with`] with a plain outcome array instead
    /// of a sink: misses fill `M::default()` metadata and each event
    /// records whether it hit, filled an empty way, or displaced a
    /// line.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a set index is
    /// out of range for the geometry.
    pub fn access_block(&mut self, sets: &[u32], tags: &[u64], out: &mut [BlockOutcome])
    where
        M: Default,
    {
        assert_eq!(sets.len(), out.len(), "sets/out length mismatch");
        let mut sink = OutcomeSink { out };
        self.access_block_with(sets, tags, &mut sink);
    }

    /// The block engine, monomorphized per replacement policy: trace
    /// order, with runs of adjacent same-set events (spatial locality)
    /// folded into single row visits.
    fn process_block<P: BlockPolicy, S: BlockSink<M>>(
        &mut self,
        sets: &[u32],
        tags: &[u64],
        sink: &mut S,
    ) {
        let mut start = 0;
        while start < sets.len() {
            let set = sets[start];
            let mut end = start + 1;
            while end < sets.len() && sets[end] == set {
                end += 1;
            }
            if end == start + 1 {
                self.block_single::<P, S>(start, set as usize, tags[start], sink);
            } else {
                self.block_run::<P, S>(start, set as usize, &tags[start..end], sink);
            }
            start = end;
        }
    }

    /// Replays one isolated event of a block — a run of length one.
    ///
    /// Cuts [`Self::block_run`]'s row-slice setup and multi-field
    /// write-back down to the same touch pattern as the legacy
    /// `probe_at`/`fill_at` pair, which matters on patterns with no
    /// adjacent same-set events (a strided set walk degenerates every
    /// run to length one). The policy is still monomorphized.
    fn block_single<P: BlockPolicy, S: BlockSink<M>>(
        &mut self,
        index: usize,
        set: usize,
        tag: u64,
        sink: &mut S,
    ) {
        let base = set * self.assoc;
        let occ = self.occ[set] as usize;
        self.clock += 1;
        if let Some(way) = self.tags[base..base + occ].iter().position(|&t| t == tag) {
            self.stats.record_hit();
            if P::REFRESH_ON_HIT {
                self.stamps[base + way] = self.clock;
            }
            // Total: ways 0..occ hold Some meta by construction.
            if let Some(meta) = self.meta[base + way].as_mut() {
                sink.hit(index, meta);
            }
            return;
        }
        self.stats.record_miss();
        let meta = sink.miss(index, set, tag);
        self.clock += 1;
        if occ < self.assoc {
            self.tags[base + occ] = tag;
            self.stamps[base + occ] = self.clock;
            self.meta[base + occ] = Some(meta);
            self.occ[set] = (occ + 1) as u32;
            self.resident += 1;
            return;
        }
        let way = P::victim(&self.stamps[base..base + occ], self.set_evictions[set], set);
        self.set_evictions[set] += 1;
        self.evictions += 1;
        let evicted_tag = self.tags[base + way];
        let evicted_meta = self.meta[base + way].replace(meta);
        self.tags[base + way] = tag;
        self.stamps[base + way] = self.clock;
        if let Some(evicted_meta) = evicted_meta {
            sink.evicted(index, set, evicted_tag, evicted_meta);
        }
    }

    /// Replays one run of adjacent same-set events, the first at block
    /// index `start`.
    ///
    /// The whole run works against one row: the row slices are
    /// borrowed once, and the clock, occupancy, and hit/eviction
    /// counters live in locals until a single write-back — per event
    /// the loop touches only the row, the run's tag, and the sink,
    /// instead of re-loading kernel fields through `&mut self`.
    fn block_run<P: BlockPolicy, S: BlockSink<M>>(
        &mut self,
        start: usize,
        set: usize,
        run_tags: &[u64],
        sink: &mut S,
    ) {
        let base = set * self.assoc;
        let row_tags = &mut self.tags[base..base + self.assoc];
        let row_stamps = &mut self.stamps[base..base + self.assoc];
        let row_meta = &mut self.meta[base..base + self.assoc];
        let start_occ = self.occ[set] as usize;
        let mut occ = start_occ;
        let mut clock = self.clock;
        let mut set_evictions = self.set_evictions[set];
        let mut hits = 0u64;
        let mut evictions = 0u64;
        for (index, &tag) in (start..).zip(run_tags) {
            clock += 1;
            if let Some(way) = row_tags[..occ].iter().position(|&t| t == tag) {
                hits += 1;
                if P::REFRESH_ON_HIT {
                    row_stamps[way] = clock;
                }
                // Total: ways 0..occ hold Some meta by construction.
                if let Some(meta) = row_meta[way].as_mut() {
                    sink.hit(index, meta);
                }
                continue;
            }
            let meta = sink.miss(index, set, tag);
            clock += 1;
            if occ < row_tags.len() {
                row_tags[occ] = tag;
                row_stamps[occ] = clock;
                row_meta[occ] = Some(meta);
                occ += 1;
                continue;
            }
            let way = P::victim(&row_stamps[..occ], set_evictions, set);
            set_evictions += 1;
            evictions += 1;
            let evicted_tag = row_tags[way];
            let evicted_meta = row_meta[way].replace(meta);
            row_tags[way] = tag;
            row_stamps[way] = clock;
            if let Some(evicted_meta) = evicted_meta {
                sink.evicted(index, set, evicted_tag, evicted_meta);
            }
        }
        self.clock = clock;
        self.occ[set] = occ as u32;
        self.resident += occ - start_occ;
        self.set_evictions[set] = set_evictions;
        self.evictions += evictions;
        self.stats.record_bulk(hits, run_tags.len() as u64 - hits);
    }
}

impl<M> Drop for SetAssocCache<M> {
    fn drop(&mut self) {
        // Hand the flat arrays back to the thread-local pool so the
        // next cache of the same geometry reuses warm pages. The
        // metadata array is type-specific and dropped normally.
        crate::pool::recycle_u64(std::mem::take(&mut self.tags));
        crate::pool::recycle_u64(std::mem::take(&mut self.stamps));
        crate::pool::recycle_u32(std::mem::take(&mut self.occ));
        crate::pool::recycle_u32(std::mem::take(&mut self.set_evictions));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 4 sets, 2 ways.
        SetAssocCache::new(CacheGeometry::new(512, 2, 64).unwrap())
    }

    fn dm() -> SetAssocCache<()> {
        // 4 sets, direct-mapped.
        SetAssocCache::new(CacheGeometry::new(256, 1, 64).unwrap())
    }

    #[test]
    fn metadata_never_steers_the_victim() {
        // The same trace through two caches that store different
        // metadata (the event index vs a constant) evicts the same
        // lines under every policy.
        let geom = CacheGeometry::new(1024, 4, 64).unwrap();
        let mut rng = sim_core::rng::SplitMix64::new(3);
        let lines: Vec<LineAddr> = (0..4_000)
            .map(|_| LineAddr::new(rng.next_below(96)))
            .collect();
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            assert!(!policy.victim_reads_metadata());
            let mut indexed: SetAssocCache<usize> = SetAssocCache::with_replacement(geom, policy);
            let mut constant: SetAssocCache<usize> = SetAssocCache::with_replacement(geom, policy);
            for (i, &line) in lines.iter().enumerate() {
                let a = indexed.probe(line).is_some();
                let b = constant.probe(line).is_some();
                assert_eq!(a, b, "{policy:?} event {i}");
                if !a {
                    let ev_a = indexed.fill(line, i).map(|e| e.line);
                    let ev_b = constant.fill(line, 0).map(|e| e.line);
                    assert_eq!(ev_a, ev_b, "{policy:?} event {i}");
                }
            }
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm();
        let l = LineAddr::new(5);
        assert!(c.probe(l).is_none());
        assert!(c.fill(l, ()).is_none());
        assert!(c.probe(l).is_some());
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = dm();
        // Lines 1 and 5 share set 1 in a 4-set cache.
        c.fill(LineAddr::new(1), ());
        let ev = c.fill(LineAddr::new(5), ()).unwrap();
        assert_eq!(ev.line, LineAddr::new(1));
        assert!(c.contains(LineAddr::new(5)));
        assert!(!c.contains(LineAddr::new(1)));
    }

    #[test]
    fn lru_respects_probe_order() {
        let mut c = tiny();
        // Set 0 holds lines 0, 4, 8, ... (4 sets).
        c.fill(LineAddr::new(0), 0);
        c.fill(LineAddr::new(4), 4);
        c.probe(LineAddr::new(0)); // 4 is now LRU
        let ev = c.fill(LineAddr::new(8), 8).unwrap();
        assert_eq!(ev.line, LineAddr::new(4));
        assert_eq!(ev.meta, 4);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), 0);
        c.fill(LineAddr::new(4), 4);
        let _ = c.peek(LineAddr::new(0)); // must NOT refresh line 0
        let ev = c.fill(LineAddr::new(8), 8).unwrap();
        assert_eq!(ev.line, LineAddr::new(0));
    }

    #[test]
    fn fill_into_empty_way_evicts_nothing() {
        let mut c = tiny();
        assert!(c.fill(LineAddr::new(0), 1).is_none());
        assert!(c.fill(LineAddr::new(4), 2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(LineAddr::new(3), 7);
        assert_eq!(c.invalidate(LineAddr::new(3)), Some(7));
        assert_eq!(c.invalidate(LineAddr::new(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_candidate_matches_fill() {
        let mut c = tiny();
        assert_eq!(c.eviction_candidate(LineAddr::new(0)), None);
        c.fill(LineAddr::new(0), 0);
        assert_eq!(c.eviction_candidate(LineAddr::new(4)), None);
        c.fill(LineAddr::new(4), 4);
        let predicted = c.eviction_candidate(LineAddr::new(8)).unwrap();
        let actual = c.fill(LineAddr::new(8), 8).unwrap().line;
        assert_eq!(predicted, actual);
    }

    #[test]
    fn metadata_is_mutable_on_hit() {
        let mut c = tiny();
        c.fill(LineAddr::new(0), 1);
        if let Some(m) = c.probe(LineAddr::new(0)) {
            *m = 99;
        }
        assert_eq!(c.peek(LineAddr::new(0)), Some(&99));
    }

    #[test]
    fn iter_reports_all_resident_lines() {
        let mut c = tiny();
        for n in [0u64, 1, 2, 3, 4] {
            c.fill(LineAddr::new(n), n as u32);
        }
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.raw()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fifo_ignores_probes() {
        let geom = CacheGeometry::new(512, 2, 64).unwrap();
        let mut c: SetAssocCache<u32> = SetAssocCache::with_replacement(geom, Replacement::Fifo);
        c.fill(LineAddr::new(0), 0);
        c.fill(LineAddr::new(4), 4);
        c.probe(LineAddr::new(0)); // FIFO must NOT refresh line 0
        let ev = c.fill(LineAddr::new(8), 8).unwrap();
        assert_eq!(ev.line, LineAddr::new(0));
    }

    #[test]
    fn random_is_deterministic_and_consistent_with_candidate() {
        let geom = CacheGeometry::new(512, 2, 64).unwrap();
        let run = || {
            let mut c: SetAssocCache<()> =
                SetAssocCache::with_replacement(geom, Replacement::Random);
            let mut evicted = Vec::new();
            for n in 0..50u64 {
                let line = LineAddr::new(n);
                if !c.contains(line) {
                    let predicted = c.eviction_candidate(line);
                    let actual = c.fill(line, ()).map(|e| e.line);
                    assert_eq!(predicted, actual, "candidate must match fill victim");
                    if let Some(l) = actual {
                        evicted.push(l);
                    }
                }
            }
            evicted
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn random_spreads_victims_across_ways() {
        let geom = CacheGeometry::new(512, 4, 64).unwrap(); // 2 sets, 4 ways
        let mut c: SetAssocCache<u64> = SetAssocCache::with_replacement(geom, Replacement::Random);
        // Fill set 0, then keep inserting fresh lines and record which
        // resident line dies each time.
        let mut victims = std::collections::HashSet::new();
        for n in 0..200u64 {
            let line = LineAddr::new(n * 2); // even lines -> set 0
            if let Some(ev) = c.fill(line, n) {
                victims.insert(ev.line.raw() % 8);
            }
        }
        // All four ways should get victimised at some point.
        assert!(victims.len() >= 3, "victims {victims:?}");
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for n in 0..100 {
            c.fill(LineAddr::new(n), n as u32);
        }
        assert!(c.len() <= c.geometry().num_lines());
    }
}
