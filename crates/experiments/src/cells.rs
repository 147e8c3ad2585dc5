//! The cell memo: each distinct figure cell is computed once for the
//! life of the arenas, and every later request for it is served.
//!
//! The paper's figures share cells. The MRC family's four MCT cells
//! per workload are fig1's; fig2's full-tag width is fig1's 16 KB DM
//! cell; the paper-baseline CPU run is the reference of fig3, fig5,
//! fig6 and §5.4 and is §5.6's solo run; Ablation B at window 32 and
//! Ablation C's 8- and 16-entry rows are fig6 cells. So a cell is a
//! value, a key naming everything its result depends on:
//!
//! * an accuracy cell ([`AccuracyCell`]): workload, seed, events,
//!   cache geometry and classifier ([`Classifier`]);
//! * a CPU-model cell ([`baseline_cell`], [`amb_cell`]): core
//!   configuration, memory system, workload, seed and events.
//!
//! Every key is scoped by the input mode, so arena and `--stream`
//! results never serve each other. The memo holds one [`TraceArena`]
//! generation: after [`TraceArena::clear`] the first lookup empties
//! it, so a benchmark that clears the arenas before each sweep times
//! sweeps that simulate.
//!
//! The memo is bypassed — neither read nor written — while a probe
//! sink or a span trace is armed. Every cell then runs inside its own
//! probe and span scopes, and the `obs-repro/1` and `trace-repro/1`
//! output does not depend on which figure reached a shared cell first.
//!
//! Figures that run concurrently may both compute a missing cell. The
//! values are equal; the first insert wins, and a cell still being
//! computed is never served ([`Memo::get`]).
//!
//! A served cell counts its events in
//! [`events_simulated`](crate::telemetry::events_simulated); only a
//! computed one also counts them in
//! [`events_computed`](crate::telemetry::events_computed).

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use amb::{AmbConfig, AmbStats, AmbSystem};
use cache_model::{CacheGeometry, CacheStats};
use cpu_model::{BaselineSystem, CpuConfig, CpuReport};
use mct::accuracy::AccuracyReport;
use mct::{MissClassificationTable, ShadowDirectory, TagBits};
use trace_gen::arena::TraceArena;
use trace_gen::memo::Memo;
use workloads::Workload;

use crate::telemetry;

/// A memo of cell results `V` keyed by cells `K`, scoped as the module
/// docs describe.
pub(crate) struct CellMemo<K, V> {
    memo: Memo<Scoped<K>, V>,
    /// The arena generation the resident entries belong to.
    generation: AtomicU64,
}

/// A cell key within one input mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Scoped<K> {
    stream: bool,
    cell: K,
}

impl<K: Eq + Hash, V: Clone> CellMemo<K, V> {
    fn new() -> Self {
        CellMemo {
            memo: Memo::default(),
            generation: AtomicU64::new(0),
        }
    }

    /// `cell`'s memo key, or `None` while a probe sink or a span trace
    /// is armed. The first key of a new arena generation drops the
    /// entries of the last one.
    pub(crate) fn key(&self, cell: K) -> Option<Scoped<K>> {
        if crate::probe::enabled() || sim_core::span::active() {
            return None;
        }
        let generation = TraceArena::global().generation();
        if self.generation.swap(generation, Ordering::Relaxed) != generation {
            self.memo.clear();
        }
        Some(Scoped {
            stream: crate::stream_mode(),
            cell,
        })
    }

    /// The stored result of `key`'s cell, if it is complete.
    pub(crate) fn get(&self, key: &Scoped<K>) -> Option<V> {
        self.memo.get(key)
    }

    /// Stores a computed result; a result already stored for the key
    /// wins.
    pub(crate) fn insert(&self, key: Scoped<K>, value: V) {
        self.memo.insert(key, value);
    }

    /// `cell`'s result, served from the memo or computed by `compute`
    /// and stored. A served cell records its `events` as reused;
    /// `compute` records its own.
    fn get_or_compute(&self, cell: K, events: usize, compute: impl FnOnce() -> V) -> V {
        let Some(key) = self.key(cell) else {
            return compute();
        };
        if let Some(value) = self.get(&key) {
            telemetry::record_reused(events as u64);
            return value;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }
}

/// The classifier an accuracy cell scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Classifier {
    /// The paper's MCT: one entry per set holding `bits` of the last
    /// evicted tag (fig1, fig2, the MRC family).
    Mct {
        /// Sets tracked.
        sets: usize,
        /// Stored tag width.
        bits: TagBits,
    },
    /// A shadow directory of the last `depth` evicted tags per set
    /// (the depth ablation).
    Shadow {
        /// Sets tracked.
        sets: usize,
        /// Stored tag width.
        bits: TagBits,
        /// Evicted tags remembered per set.
        depth: usize,
    },
}

/// A classifier whose cells the memo can key.
pub(crate) trait CellClassifier: mct::EvictionClassifier {
    /// Everything the classifier's verdicts depend on.
    fn spec(&self) -> Classifier;
}

impl CellClassifier for MissClassificationTable {
    fn spec(&self) -> Classifier {
        Classifier::Mct {
            sets: self.num_sets(),
            bits: self.tag_bits(),
        }
    }
}

impl CellClassifier for ShadowDirectory {
    fn spec(&self) -> Classifier {
        Classifier::Shadow {
            sets: self.num_sets(),
            bits: self.tag_bits(),
            depth: self.depth(),
        }
    }
}

/// An accuracy cell: `classifier` on a cache of shape `geometry`, over
/// `events` events of `workload`'s `seed` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AccuracyCell {
    workload: &'static str,
    seed: u64,
    events: usize,
    geometry: CacheGeometry,
    classifier: Classifier,
}

impl AccuracyCell {
    /// The cell of `classifier` on `geometry` over the drivers'
    /// [`SEED`](crate::SEED) trace of `workload`.
    pub(crate) fn new(
        workload: &Workload,
        events: usize,
        geometry: CacheGeometry,
        classifier: Classifier,
    ) -> Self {
        AccuracyCell {
            workload: workload.name(),
            seed: crate::SEED,
            events,
            geometry,
            classifier,
        }
    }
}

/// Accuracy-cell results, for [`crate::accuracy_cells`].
pub(crate) static ACCURACY: LazyLock<CellMemo<AccuracyCell, AccuracyReport>> =
    LazyLock::new(CellMemo::new);

/// A CPU-model cell: memory system `system` under core `cpu`, over
/// `events` events of `workload`'s `seed` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CpuCell<S> {
    cpu: CpuConfig,
    system: S,
    workload: &'static str,
    seed: u64,
    events: usize,
}

impl<S> CpuCell<S> {
    fn new(cpu: CpuConfig, system: S, workload: &Workload, events: usize) -> Self {
        CpuCell {
            cpu,
            system,
            workload: workload.name(),
            seed: crate::SEED,
            events,
        }
    }
}

/// Paper-baseline results; the system is always
/// `BaselineSystem::paper_default()`.
static BASELINE: LazyLock<CellMemo<CpuCell<()>, (CpuReport, CacheStats)>> =
    LazyLock::new(CellMemo::new);

/// AMB results, keyed by the AMB configuration.
static AMB: LazyLock<CellMemo<CpuCell<AmbConfig>, (CpuReport, AmbStats)>> =
    LazyLock::new(CellMemo::new);

/// The paper-baseline cell: `BaselineSystem::paper_default()` under
/// the paper's core over `workload`'s trace, with its L1 statistics.
/// It is the no-assist reference of fig3, fig5, fig6 and §5.4, and
/// §5.6's solo run.
pub(crate) fn baseline_cell(workload: &Workload, events: usize) -> (CpuReport, CacheStats) {
    baseline_cell_on(CpuConfig::paper_default(), workload, events)
}

/// [`baseline_cell`] under core `cpu` (Ablation B's window sweep).
pub(crate) fn baseline_cell_on(
    cpu: CpuConfig,
    workload: &Workload,
    events: usize,
) -> (CpuReport, CacheStats) {
    BASELINE.get_or_compute(CpuCell::new(cpu, (), workload, events), events, || {
        let mut sys = BaselineSystem::paper_default().expect("paper config");
        let report = crate::drive_on(cpu, &mut sys, workload, events);
        (report, *sys.l1_stats())
    })
}

/// The AMB cell of `config` under core `cpu`: fig6's cells, which
/// Ablation B (VictPref at each window) and Ablation C (VicPreExc at
/// each buffer size) revisit.
pub(crate) fn amb_cell(
    config: AmbConfig,
    cpu: CpuConfig,
    workload: &Workload,
    events: usize,
) -> (CpuReport, AmbStats) {
    AMB.get_or_compute(CpuCell::new(cpu, config, workload, events), events, || {
        let mut sys = AmbSystem::paper_default(config).expect("paper config");
        let report = crate::drive_on(cpu, &mut sys, workload, events);
        (report, *sys.stats())
    })
}
