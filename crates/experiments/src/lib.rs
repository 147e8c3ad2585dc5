//! Reproduction drivers for every table and figure in the paper's
//! evaluation (§3 and §5).
//!
//! Each module regenerates one artifact:
//!
//! | module    | paper artifact | content |
//! |-----------|----------------|---------|
//! | [`fig1`]  | Figure 1 | MCT accuracy vs the 3C oracle, four cache configurations |
//! | [`fig2`]  | Figure 2 | accuracy vs number of saved tag bits |
//! | [`fig3`]  | Figure 3 + Table 1 | victim-cache policies: speedups, hit rates, swaps, fills |
//! | [`fig4`]  | Figure 4 | next-line prefetch filters: accuracy, coverage, speedup |
//! | [`fig5`]  | Figure 5 | cache-exclusion policies: hit rates and speedups |
//! | [`sec54`] | §5.4 | pseudo-associative cache: miss rates vs base and true 2-way |
//! | [`fig6`]  | Figures 6 + 7 | AMB policy combinations: speedups and hit-rate components |
//! | [`sec56`] | §5.6 | co-scheduling on a shared cache, ranked by MCT conflict rate |
//! | [`ablation`] | (extensions) | shadow-directory depth, CPU window, buffer size |
//!
//! [`mrc`] adds miss-ratio curves as a second ground truth
//! (`repro --mrc`). The rest is the `repro` harness's infrastructure:
//!
//! * [`cli`] — argument parsing and the figure-target registry;
//! * [`telemetry`] — per-figure wall time, events/sec, and the
//!   machine-readable `BENCH_repro.json`;
//! * [`probe`] and [`obs`] — per-cell probe sinks, the `obs-repro/1`
//!   JSONL and its summaries;
//! * [`tracing`] and [`traceview`] — the span layer's `trace-repro/1`
//!   output and the `obs` analytics over it;
//! * [`checkpoint`], [`ioutil`] and [`jsonl`] — checkpoint/resume,
//!   fault-aware artifact writes, and the reader for the workspace's
//!   own JSON schemas.
//!
//! Workload traces are materialized once per `(workload, seed,
//! events)` in the shared [`trace_gen::arena`] — see [`trace_for`] —
//! and replayed by every cell, so no driver pays trace synthesis more
//! than once. The accuracy drivers (fig1, fig2, the MRC family, the
//! shadow-depth ablation) go one step further through their one entry
//! point, [`replay_accuracy`]: one pass per workload feeds every cell
//! the driver needs for it ([`PassConsumer`]s: fig1's four geometries,
//! fig2's eleven tag widths, the MRC curve and its four cells, the
//! ablation's sixteen shadow directories) block by block in
//! lock-step. Cells that share a whole geometry — fig2's widths, the
//! ablation's four depths per geometry — run one cache kernel between
//! them ([`mct::accuracy::AccuracyGroup`]). Each cell reads the
//! trace's `(set, tag)` split at its geometry and reads its 3C ground
//! truth off per-event LRU stack distances, which give the verdict for
//! every capacity at once, so no cell runs an oracle of its own. From
//! the arenas, the split is precomputed once per (workload, geometry)
//! ([`decomposed_for`]) and the distances once per (workload, line
//! size) ([`distances_for`]).
//! Under `repro --stream` ([`set_stream_mode`]) no arena is touched:
//! each pass runs the generator once, splits each block once per
//! distinct geometry and computes the distances with one stack-distance
//! engine, in O(chunk + blocks × geometries + distinct lines) memory,
//! with byte-identical output.
//!
//! Every driver takes the number of trace events per workload, so the
//! same code serves quick smoke tests, Criterion benches, and the full
//! `repro` runs. Absolute numbers differ from the paper (the substrate
//! is a synthetic-workload simulator, not SPEC95 on SMTSIM); the
//! qualitative shape — who wins, roughly by how much, where crossovers
//! fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! # Examples
//!
//! ```
//! let report = experiments::fig1::run(5_000);
//! let dm16 = &report.configs[0];
//! assert!(dm16.average.conflict.value() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod cli;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod ioutil;
pub mod jsonl;
pub mod mrc;
pub mod obs;
pub mod probe;
pub mod sec54;
pub mod sec56;
mod table;
pub mod telemetry;
pub mod traceview;
pub mod tracing;

pub use table::Table;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cache_model::CacheGeometry;
use mct::accuracy::{AccuracyGroup, AccuracyReport};
use trace_gen::arena::{ArenaKey, TraceArena};
use trace_gen::decomposed::{DecomposedArena, DecomposedTrace};
use trace_gen::TraceEvent;

/// Default events per workload for full experiment runs.
pub const DEFAULT_EVENTS: usize = 300_000;

/// Event-block size for decomposed replay: large enough to amortize
/// the kernel's per-block dispatch, small enough that a block's
/// `(set, tag)` pairs and verdicts stay L1/L2-resident alongside the
/// kernel arrays. Block 1024 beat per-event replay on the `accuracy`
/// benchmark (EXPERIMENTS.md, "Kernel diet").
const REPLAY_BLOCK: usize = 1024;

/// The event-block size [`replay_accuracy`] replays in.
#[must_use]
pub const fn replay_block_size() -> usize {
    REPLAY_BLOCK
}

/// Whether drivers stream workload generators chunk-by-chunk instead
/// of materializing whole traces in the arenas (`repro --stream`).
static STREAM: AtomicBool = AtomicBool::new(false);

/// Selects streaming replay (`repro --stream`). Each accuracy pass
/// ([`replay_accuracy`]) then runs one workload generator, splits each
/// block once per distinct geometry and computes its stack distances
/// in the same pass, and the CPU-model drivers read live generators.
/// No arena is touched: a pass holds O(chunk + blocks × geometries +
/// distinct lines) — one [`STREAM_CHUNK`] of addresses, one
/// [`replay_block_size`] block of `(set, tag)` pairs per distinct
/// geometry, and the stack-distance engine's line index — whatever
/// the trace length. Output is byte-identical to arena replay at any
/// thread count: both replay the same generator stream through the
/// same kernels against the same ground truth; only residency
/// changes.
pub fn set_stream_mode(stream: bool) {
    STREAM.store(stream, Ordering::Relaxed);
}

/// Whether streaming replay is selected.
#[must_use]
pub fn stream_mode() -> bool {
    STREAM.load(Ordering::Relaxed)
}

/// Events per generator fill of a streamed accuracy pass: the
/// generator writes one chunk of byte addresses into a reused buffer,
/// which the pass splits and replays in [`replay_block_size`] blocks,
/// so the chunk bounds the pass's trace residency whatever the trace
/// length. Chunk boundaries cannot change results: every consumer
/// sees the same blocks in the same order. Public so the benchmark's
/// traced replay (`perfbench`) streams in the same chunks.
pub const STREAM_CHUNK: usize = 64 * 1024;

/// One consumer of an accuracy pass ([`replay_accuracy`]): an
/// [`AccuracyGroup`] — the fig1, fig2, ablation or MRC cells that
/// share one cache geometry — a lone
/// [`AccuracyEvaluator`](mct::accuracy::AccuracyEvaluator), or a
/// miss-ratio curve ([`mrc::CurveBuilder`]).
pub trait PassConsumer {
    /// The geometry the consumer's blocks are split against. Its line
    /// size also selects the stack distances it reads.
    fn geometry(&self) -> CacheGeometry;

    /// Consumes one block of the trace, in trace order: the `(set,
    /// tag)` pairs at [`Self::geometry`] and each event's LRU stack
    /// distance at its line size, in the memo encoding of
    /// [`::mrc::StackDistanceEngine::distances_of_parts`].
    fn observe(&mut self, sets: &[u32], tags: &[u64], distances: &[u32]);

    /// The figure cells the consumer scores: the telemetry counts the
    /// pass's events once per cell.
    fn cells(&self) -> usize {
        1
    }
}

/// A group's members read their three-C verdicts off the stack
/// distances ([`::mrc::fits`]), so no cell runs an oracle of its own.
impl<T: mct::EvictionClassifier> PassConsumer for AccuracyGroup<T> {
    fn geometry(&self) -> CacheGeometry {
        *AccuracyGroup::geometry(self)
    }

    fn observe(&mut self, sets: &[u32], tags: &[u64], distances: &[u32]) {
        let verdicts = verdicts(AccuracyGroup::geometry(self), distances);
        self.observe_block_with_truth(sets, tags, verdicts);
    }

    fn cells(&self) -> usize {
        self.member_count()
    }
}

/// A lone evaluator is its one-member group.
impl<T: mct::EvictionClassifier> PassConsumer for mct::accuracy::AccuracyEvaluator<T> {
    fn geometry(&self) -> CacheGeometry {
        *mct::accuracy::AccuracyEvaluator::geometry(self)
    }

    fn observe(&mut self, sets: &[u32], tags: &[u64], distances: &[u32]) {
        let verdicts = verdicts(mct::accuracy::AccuracyEvaluator::geometry(self), distances);
        self.observe_block_with_truth(sets, tags, verdicts);
    }
}

/// The three-C verdicts of a block at `geom`: a miss is a conflict
/// miss iff its stack distance fits the line capacity.
fn verdicts<'a>(
    geom: &CacheGeometry,
    distances: &'a [u32],
) -> impl ExactSizeIterator<Item = bool> + 'a {
    let capacity = geom.num_lines() as u64;
    distances.iter().map(move |&d| ::mrc::fits(d, capacity))
}

/// One block of a pass, split at each of the pass's geometries.
#[derive(Clone, Copy)]
enum Block<'a> {
    /// Events `start..end` of the arena-resident decomposed traces.
    Arena {
        traces: &'a [Arc<DecomposedTrace>],
        start: usize,
        end: usize,
    },
    /// The stream's per-split block buffers, filled to `len`.
    Stream {
        blocks: &'a [(Vec<u32>, Vec<u64>)],
        len: usize,
    },
}

impl<'a> Block<'a> {
    /// The block's `(set, tag)` pairs at split `split`.
    fn split(self, split: usize) -> (&'a [u32], &'a [u64]) {
        match self {
            Block::Arena { traces, start, end } => (
                &traces[split].sets()[start..end],
                &traces[split].tags()[start..end],
            ),
            Block::Stream { blocks, len } => (&blocks[split].0[..len], &blocks[split].1[..len]),
        }
    }
}

/// The input of one accuracy pass: arena-resident forms or one
/// streamed generator. Only this type's own methods and the [`Block`]s
/// they hand out look at which.
#[derive(Debug)]
enum ReplayTrace {
    /// Arena-memoized forms, shared across passes.
    Arena {
        /// Per split: the trace-order `(set, tag)` arrays
        /// ([`decomposed_for`]).
        traces: Vec<Arc<DecomposedTrace>>,
        /// The trace's memoized stack distances ([`distances_for`]).
        distances: Arc<[u32]>,
    },
    /// One chunked generator, split and ground-truthed as it streams
    /// (`repro --stream`): nothing resident beyond one chunk.
    Stream {
        /// The workload whose generator is streamed.
        workload: workloads::Workload,
        /// Total events to stream.
        events: usize,
    },
}

impl ReplayTrace {
    /// The input for `(workload, SEED, events)` split at each of
    /// `splits` (geometries of one line size): the arena-memoized
    /// decomposed traces and stack-distance memo, or a streamed
    /// generator under [`stream_mode`]. The distance memo is built
    /// here, on the first replay of a trace, never when the arenas are
    /// warmed.
    fn new(workload: &workloads::Workload, events: usize, splits: &[CacheGeometry]) -> Self {
        if stream_mode() {
            return ReplayTrace::Stream {
                workload: *workload,
                events,
            };
        }
        ReplayTrace::Arena {
            traces: splits
                .iter()
                .map(|geom| decomposed_for(workload, geom, events))
                .collect(),
            distances: distances_for(workload, &splits[0], events),
        }
    }

    /// Feeds the input to `f` in trace order, in blocks of
    /// [`replay_block_size`] events: each block once per split, with
    /// its stack distances. The walk runs under one span —
    /// `replay_block` for arena blocks, `replay_stream` for the
    /// generator pipeline — that is credited with `cell_events`.
    ///
    /// A stream fills one [`STREAM_CHUNK`] of addresses at a time from
    /// the generator, splits each block into one block buffer per
    /// split, and records the first split's block in one
    /// [`::mrc::StackDistanceEngine`].
    fn for_each_block(
        &self,
        splits: &[CacheGeometry],
        cell_events: u64,
        mut f: impl FnMut(Block<'_>, &[u32]),
    ) {
        match self {
            ReplayTrace::Arena { traces, distances } => {
                let _span = sim_core::span::enter("replay_block");
                sim_core::span::add_events(cell_events);
                for start in (0..distances.len()).step_by(REPLAY_BLOCK) {
                    let end = (start + REPLAY_BLOCK).min(distances.len());
                    f(Block::Arena { traces, start, end }, &distances[start..end]);
                }
            }
            ReplayTrace::Stream { workload, events } => {
                let _span = sim_core::span::enter("replay_stream");
                sim_core::span::add_events(cell_events);
                let chunk = STREAM_CHUNK.min(*events);
                if chunk == 0 {
                    return;
                }
                let block = REPLAY_BLOCK.min(chunk);
                let mut source = workload.source(SEED);
                // The chunk buffer comes from (and returns to) the
                // kernel's buffer pool, so streaming traffic shows up in
                // the same `trace-repro/1` pool counters as the kernel
                // arrays.
                let mut addrs = cache_model::pool::take_u64(chunk);
                let mut blocks = vec![(vec![0u32; block], vec![0u64; block]); splits.len()];
                let mut engine = ::mrc::StackDistanceEngine::new();
                let mut distances = Vec::with_capacity(block);
                let mut left = *events;
                while left > 0 {
                    let filled = left.min(chunk);
                    left -= filled;
                    for addr in &mut addrs[..filled] {
                        *addr = source.next_event().access.addr.raw();
                    }
                    for block_addrs in addrs[..filled].chunks(REPLAY_BLOCK) {
                        let n = block_addrs.len();
                        for (geom, (sets, tags)) in splits.iter().zip(&mut blocks) {
                            DecomposedTrace::split_into(
                                block_addrs.iter().map(|&a| sim_core::Addr::new(a)),
                                geom.line_size(),
                                geom.set_bits(),
                                sets,
                                tags,
                            );
                        }
                        let (sets, tags) = &blocks[0];
                        distances.clear();
                        engine.record_parts_distances(
                            &sets[..n],
                            &tags[..n],
                            splits[0].set_bits(),
                            &mut distances,
                        );
                        f(
                            Block::Stream {
                                blocks: &blocks,
                                len: n,
                            },
                            &distances,
                        );
                    }
                }
                cache_model::pool::recycle_u64(addrs);
            }
        }
    }
}

/// The one accuracy entry point (fig1, fig2, the MRC family, the
/// shadow-depth ablation): one pass over `(workload, SEED, events)`
/// that feeds every consumer each block in lock-step and counts
/// `events` per figure cell ([`PassConsumer::cells`]) in the
/// telemetry. The input and the ground truth are shared by every
/// consumer, and the cache kernel by every cell of an
/// [`AccuracyGroup`]: one kernel pass per distinct geometry, whose
/// misses and evictions each member classifies.
///
/// Input is arena-resident unless [`stream_mode`] is set. An arena
/// pass reads one decomposed trace per distinct geometry and the
/// trace's memoized stack distances. A stream pass runs one
/// generator, splits each block once per distinct geometry and
/// computes the block's distances with one
/// [`::mrc::StackDistanceEngine`] — Mattson's one-pass identity: one
/// distance gives the verdict for every capacity. Both replay in
/// blocks of [`replay_block_size`] and give identical results. When a
/// probe sink is armed, groups replay each block per event, so
/// the emitted event stream is byte-identical to unbatched replay.
///
/// # Panics
///
/// Panics if the consumers' geometries differ in line size: a pass
/// has one stack-distance stream.
pub fn replay_accuracy(
    workload: &workloads::Workload,
    events: usize,
    consumers: &mut [&mut dyn PassConsumer],
) {
    let Some(first) = consumers.first() else {
        return;
    };
    let line_size = first.geometry().line_size();
    // Consumers whose geometries index alike share one split.
    let mut splits: Vec<CacheGeometry> = Vec::new();
    let consumer_splits: Vec<usize> = consumers
        .iter()
        .map(|consumer| {
            let geom = consumer.geometry();
            assert_eq!(geom.line_size(), line_size, "one line size per pass");
            splits
                .iter()
                .position(|g| g.set_bits() == geom.set_bits())
                .unwrap_or_else(|| {
                    splits.push(geom);
                    splits.len() - 1
                })
        })
        .collect();
    let trace = ReplayTrace::new(workload, events, &splits);
    let cells: usize = consumers.iter().map(|consumer| consumer.cells()).sum();
    let cell_events = (events * cells) as u64;
    telemetry::record_events(cell_events);
    trace.for_each_block(&splits, cell_events, |block, distances| {
        for (consumer, &split) in consumers.iter_mut().zip(&consumer_splits) {
            let (sets, tags) = block.split(split);
            consumer.observe(sets, tags, distances);
        }
    });
}

/// Runs a figure's accuracy cells over `workload` in one pass and
/// returns their reports in cell order: cell `i` is classifier
/// `cells[i].1` on a cache of shape `cells[i].0`. A `lead` consumer
/// (the MRC family's curve) rides the same pass ahead of the cells.
///
/// Cells that share a whole geometry run as one [`AccuracyGroup`], one
/// cache kernel for all of them (fig2's tag widths; the depth
/// ablation's depths per geometry). That is exact only because no
/// replacement policy reads the conflict bits a group stores per line,
/// which [`AccuracyGroup::new`] asserts.
///
/// Unprobed, the whole pass is one `cell_run` scope labelled
/// `pass/{workload}`. With a probe armed, every cell is a group of its
/// own and replays as its own one-consumer pass inside its own
/// [`probe::cell`], so the `obs-repro/1` output is exactly that of
/// per-cell replay. Consumer `i` of `target` is labelled `label(i)`
/// there: the lead, if any, is consumer 0 and the cells follow it in
/// order.
pub(crate) fn accuracy_cells<T: mct::EvictionClassifier>(
    target: &'static str,
    workload: &workloads::Workload,
    events: usize,
    label: impl Fn(usize) -> String,
    lead: Option<&mut dyn PassConsumer>,
    cells: impl IntoIterator<Item = (CacheGeometry, T)>,
) -> Vec<AccuracyReport> {
    let probed = probe::enabled();
    let mut tables: Vec<(CacheGeometry, Vec<T>)> = Vec::new();
    // Per cell: its group and its member index there.
    let mut places = Vec::new();
    for (geom, table) in cells {
        let group = tables
            .iter()
            .position(|(g, _)| !probed && *g == geom)
            .unwrap_or_else(|| {
                tables.push((geom, Vec::new()));
                tables.len() - 1
            });
        places.push((group, tables[group].1.len()));
        tables[group].1.push(table);
    }
    let mut groups: Vec<AccuracyGroup<T>> = tables
        .into_iter()
        .map(|(geom, members)| AccuracyGroup::new(geom, members))
        .collect();
    let mut consumers: Vec<&mut dyn PassConsumer> = lead
        .into_iter()
        .map(|c| &mut *c as &mut dyn PassConsumer)
        .chain(groups.iter_mut().map(|g| g as &mut dyn PassConsumer))
        .collect();
    if probed {
        for (i, consumer) in consumers.iter_mut().enumerate() {
            probe::cell(
                target,
                || label(i),
                || replay_accuracy(workload, events, std::slice::from_mut(consumer)),
            );
        }
    } else {
        probe::cell(
            target,
            || format!("pass/{}", workload.name()),
            || replay_accuracy(workload, events, &mut consumers),
        );
    }
    let reports: Vec<Vec<AccuracyReport>> = groups.into_iter().map(AccuracyGroup::finish).collect();
    places
        .into_iter()
        .map(|(group, member)| reports[group][member])
        .collect()
}

/// The seed all experiments use (workload identity is mixed in by the
/// workloads crate).
pub const SEED: u64 = 1;

/// Maps `f` over independent experiment cells on scoped threads,
/// preserving order — a thin re-export of [`sim_core::parallel`], the
/// workspace's one scheduler implementation. Thread count is
/// controlled by `repro --threads` / `SIM_THREADS` /
/// [`sim_core::parallel::set_max_threads`]; results are identical at
/// any thread count because every cell owns its simulator state and
/// its (replayed) trace.
pub use sim_core::parallel::par_map;

/// The recovering variant of [`par_map`]: failed cells come back as
/// [`sim_core::parallel::CellFailure`]s instead of panicking, which is
/// how `repro` records degraded cells without aborting a sweep.
pub use sim_core::parallel::try_par_map;

/// The shared trace for `(workload, SEED, events)`, materialized once
/// in the global [`TraceArena`] and replayed by every cell that needs
/// it. Replay is bit-identical to streaming the workload's generator.
#[must_use]
pub fn trace_for(workload: &workloads::Workload, events: usize) -> Arc<[TraceEvent]> {
    trace_for_seed(workload, SEED, events)
}

/// [`trace_for`] with an explicit seed (§5.6 uses `SEED + 1` for the
/// co-scheduled partner thread).
#[must_use]
pub fn trace_for_seed(
    workload: &workloads::Workload,
    seed: u64,
    events: usize,
) -> Arc<[TraceEvent]> {
    if stream_mode() {
        // Streaming runs keep nothing resident past the caller: the
        // trace is materialized transiently and dropped with the last
        // `Arc` instead of living in the process-wide arena. (Used by
        // the few drivers whose models need random access — §5.6's
        // SMT pairings replay each trace several times.)
        let mut source = workload.source(seed);
        return (0..events).map(|_| source.next_event()).collect();
    }
    TraceArena::global().get_or_materialize(ArenaKey::new(workload.name(), seed, events), || {
        workload.source(seed)
    })
}

/// A single-pass event source for the CPU-model drivers: either a
/// window into an arena-resident trace or a live generator capped at
/// `events`. Both yield the identical event sequence (arena replay is
/// bit-identical to the generator by construction), so sweep output
/// does not depend on which variant ran.
pub(crate) enum EventStream {
    /// Arena-resident trace, replayed by reference.
    Arena(Arc<[TraceEvent]>, usize),
    /// Live generator, `events` remaining.
    Gen(Box<dyn trace_gen::TraceSource>, usize),
}

impl Iterator for EventStream {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        match self {
            EventStream::Arena(trace, pos) => {
                let event = trace.get(*pos).copied();
                *pos += 1;
                event
            }
            EventStream::Gen(source, left) => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                Some(source.next_event())
            }
        }
    }
}

/// The event stream for `(workload, seed, events)`: arena-backed
/// normally, a live generator under [`stream_mode`] (O(1) memory —
/// nothing is materialized at all for single-pass consumers).
pub(crate) fn events_for(workload: &workloads::Workload, seed: u64, events: usize) -> EventStream {
    if stream_mode() {
        EventStream::Gen(workload.source(seed), events)
    } else {
        EventStream::Arena(trace_for_seed(workload, seed, events), 0)
    }
}

/// The shared trace for `(workload, SEED, events)` split into per-event
/// `(set, tag)` pairs for `geom`'s indexing scheme, decomposed once in
/// the global [`DecomposedArena`] and replayed by every cell that
/// evaluates a cache with that geometry. The accuracy figures (fig1,
/// fig2, the shadow-depth ablation) run many models per (workload,
/// geometry) pair, so address decomposition happens once instead of
/// once per cell per event.
#[must_use]
pub fn decomposed_for(
    workload: &workloads::Workload,
    geom: &CacheGeometry,
    events: usize,
) -> Arc<DecomposedTrace> {
    DecomposedArena::global().get_or_decompose(
        ArenaKey::new(workload.name(), SEED, events),
        geom.line_size(),
        geom.set_bits(),
        || trace_for(workload, events),
    )
}

/// The per-event LRU stack distances of `(workload, SEED, events)` at
/// `geom`'s line size ([`::mrc::StackDistanceEngine::distances_of_parts`],
/// [`::mrc::COLD_DISTANCE`] for a first touch), computed in one engine
/// pass on first request and memoized in the global
/// [`DecomposedArena`]. Distances depend only on the line address, so
/// every geometry with that line size — the four fig1 shapes, fig2's
/// tag sweep, the MRC cells — shares one memo per workload, and each
/// reads its three-C verdicts off it with [`::mrc::fits`].
#[must_use]
pub fn distances_for(
    workload: &workloads::Workload,
    geom: &CacheGeometry,
    events: usize,
) -> Arc<[u32]> {
    DecomposedArena::global().get_or_distances(
        ArenaKey::new(workload.name(), SEED, events),
        geom.line_size(),
        || {
            let trace = decomposed_for(workload, geom, events);
            ::mrc::StackDistanceEngine::distances_of_parts(
                trace.sets(),
                trace.tags(),
                trace.set_bits(),
            )
        },
    )
}

/// Runs a workload trace through a memory system under the paper's
/// CPU model, returning the timing report. The trace is replayed from
/// the shared arena, not regenerated.
pub(crate) fn drive<M: cpu_model::MemorySystem>(
    system: &mut M,
    workload: &workloads::Workload,
    events: usize,
) -> cpu_model::CpuReport {
    let cpu = cpu_model::OooModel::new(cpu_model::CpuConfig::paper_default());
    telemetry::record_events(events as u64);
    cpu.run(system, events_for(workload, SEED, events))
}

#[cfg(test)]
mod tests {
    #[test]
    fn drive_runs_a_workload() {
        let w = workloads::by_name("swim").unwrap();
        let mut sys = cpu_model::BaselineSystem::paper_default().unwrap();
        let report = super::drive(&mut sys, &w, 1_000);
        assert!(report.instructions > 1_000);
        assert!(report.cycles > 0);
    }
}
