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
//! than once. The accuracy cells (fig1, fig2, the MRC cross-check,
//! the shadow-depth ablation) go one step further through their one
//! entry point, [`replay_accuracy`]: the per-event `(set, tag)` split
//! is precomputed once per (workload, geometry) ([`decomposed_for`])
//! and streamed into the cache kernel's block entry points, and the
//! 3C ground truth is read off per-event LRU stack distances memoized
//! once per (workload, line size) ([`distances_for`]) instead of a
//! per-cell oracle pass. Under `repro --stream` ([`set_stream_mode`])
//! drivers bypass the arenas entirely and pipe generators through a
//! chunked O([`STREAM_CHUNK`])-memory pipeline with byte-identical
//! output.
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

/// Selects streaming replay (`repro --stream`): drivers pipe each
/// workload generator through a chunked generate → decompose → kernel
/// pipeline with O([`STREAM_CHUNK`]) memory, bypassing the trace and
/// decomposition arenas entirely. Output is byte-identical to arena
/// replay at any thread count — both replay the same generator stream
/// through the same kernels — only residency changes.
pub fn set_stream_mode(stream: bool) {
    STREAM.store(stream, Ordering::Relaxed);
}

/// Whether streaming replay is selected.
#[must_use]
pub fn stream_mode() -> bool {
    STREAM.load(Ordering::Relaxed)
}

/// Events per chunk of the streaming pipeline: the generator fills
/// one `(set, tag)` chunk, the kernel replays it in
/// [`replay_block_size`] blocks, and the buffers are reused — peak
/// memory is O(chunk) per cell regardless of trace length. Chunk
/// boundaries cannot change results (block replay is
/// boundary-insensitive by the differential equivalence the block
/// kernel is tested for).
pub const STREAM_CHUNK: usize = 64 * 1024;

/// One accuracy-family cell's replay input: either arena-resident
/// forms (the decomposed trace and its stack distances) or a streamed
/// generator. Only this type's own methods look at which.
#[derive(Debug)]
enum ReplayTrace {
    /// Arena-memoized forms, shared across cells.
    Arena {
        /// Trace-order `(set, tag)` arrays.
        trace: Arc<DecomposedTrace>,
        /// The memoized per-event LRU stack distances of the same
        /// trace ([`distances_for`]): the three-C ground truth of
        /// every capacity at once.
        distances: Arc<[u32]>,
    },
    /// Chunked generator replay (`repro --stream`): nothing resident
    /// beyond one chunk.
    Stream {
        /// The workload whose generator is streamed.
        workload: workloads::Workload,
        /// Geometry the chunks are decomposed against.
        geom: CacheGeometry,
        /// Total events to stream.
        events: usize,
    },
}

impl ReplayTrace {
    /// The replay input for `(workload, SEED, events)` against
    /// `geom`: the arena-memoized decomposed trace and its
    /// stack-distance memo, or a streamed generator under
    /// [`stream_mode`]. The distance memo is built here, on the first
    /// replay of a trace, never when the arenas are warmed.
    fn new(workload: &workloads::Workload, geom: &CacheGeometry, events: usize) -> Self {
        if stream_mode() {
            return ReplayTrace::Stream {
                workload: *workload,
                geom: *geom,
                events,
            };
        }
        let trace = decomposed_for(workload, geom, events);
        let distances = distances_for(workload, geom, events);
        ReplayTrace::Arena { trace, distances }
    }

    /// The whole trace's memoized stack distances, if arena-resident.
    fn distances(&self) -> Option<&[u32]> {
        match self {
            ReplayTrace::Arena { distances, .. } => Some(distances),
            ReplayTrace::Stream { .. } => None,
        }
    }

    /// Feeds the input to `f` in trace order, in blocks of
    /// [`replay_block_size`] `(sets, tags)` pairs, under a span named
    /// `span` — or, for `None`, after the input kind (`replay_block`
    /// for arena blocks, `replay_stream` for the generator pipeline).
    ///
    /// Arena blocks come with their slice of the stack-distance memo.
    /// Stream blocks come with `None`: the generator fills one
    /// [`STREAM_CHUNK`] of pooled `(set, tag)` buffers at a time, so
    /// memory stays O(chunk) whatever the trace length.
    fn for_each_block(
        &self,
        span: Option<&'static str>,
        mut f: impl FnMut(&[u32], &[u64], Option<&[u32]>),
    ) {
        match self {
            ReplayTrace::Arena { trace, distances } => {
                let _span = sim_core::span::enter(span.unwrap_or("replay_block"));
                sim_core::span::add_events(trace.len() as u64);
                let mut distances = distances.chunks(REPLAY_BLOCK);
                trace.for_each_block(REPLAY_BLOCK, |sets, tags| {
                    f(sets, tags, distances.next());
                });
            }
            ReplayTrace::Stream {
                workload,
                geom,
                events,
            } => {
                let _span = sim_core::span::enter(span.unwrap_or("replay_stream"));
                sim_core::span::add_events(*events as u64);
                let chunk = STREAM_CHUNK.min(*events);
                if chunk == 0 {
                    return;
                }
                let mut source =
                    trace_gen::TraceSource::take_events(workload.source(SEED), *events);
                // Chunk buffers come from (and return to) the kernel's
                // buffer pool, so streaming traffic shows up in the same
                // `trace-repro/1` pool counters as the kernel arrays.
                let mut sets = cache_model::pool::take_u32_zeroed(chunk);
                let mut tags = cache_model::pool::take_u64(chunk);
                loop {
                    let n = DecomposedTrace::split_into(
                        &mut source,
                        geom.line_size(),
                        geom.set_bits(),
                        &mut sets,
                        &mut tags,
                    );
                    if n == 0 {
                        break;
                    }
                    for (s, t) in sets[..n]
                        .chunks(REPLAY_BLOCK)
                        .zip(tags[..n].chunks(REPLAY_BLOCK))
                    {
                        f(s, t, None);
                    }
                }
                cache_model::pool::recycle_u32(sets);
                cache_model::pool::recycle_u64(tags);
            }
        }
    }
}

/// The one accuracy-cell entry point (fig1, fig2, the MRC cross-check
/// cells, the shadow-depth ablation): replays `(workload, SEED,
/// events)` through `eval` at its own geometry and counts the events
/// in the telemetry.
///
/// Input is arena-resident unless [`stream_mode`] is set; both replay
/// in event blocks of [`replay_block_size`]. Arena blocks take their
/// three-C verdicts from the stack-distance memo — a miss is a
/// conflict miss iff its distance is below the geometry's line
/// capacity — so no cell runs an oracle of its own. Stream blocks
/// run the evaluator's owned oracle, since nothing is resident to
/// memoize. Results are identical on both (block replay is
/// differential-tested against per-event replay); the stream exists
/// purely for memory. When a probe sink is armed, blocks replay in
/// per-event order so the emitted event stream is byte-identical to
/// unbatched replay.
pub fn replay_accuracy<T: mct::EvictionClassifier>(
    workload: &workloads::Workload,
    events: usize,
    eval: &mut mct::accuracy::AccuracyEvaluator<T>,
) {
    let geom = *eval.cache().geometry();
    let trace = ReplayTrace::new(workload, &geom, events);
    telemetry::record_events(events as u64);
    let capacity = geom.num_lines() as u64;
    trace.for_each_block(None, |sets, tags, distances| match distances {
        Some(d) => {
            let verdicts = d.iter().map(|&d| ::mrc::fits(d, capacity));
            eval.observe_block_with_truth(sets, tags, verdicts);
        }
        None => eval.observe_block(sets, tags),
    });
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
