//! The shared trace arena: each workload's event stream is
//! materialized **exactly once** per `(workload, seed, events)` key
//! and replayed as a shared slice thereafter.
//!
//! The experiment drivers evaluate many (policy × workload) cells, and
//! every cell historically re-synthesized the identical reference
//! stream from scratch — for `repro all` that is hundreds of redundant
//! 300k-event generator runs, the dominant avoidable cost of the
//! end-to-end pipeline. The arena replaces regeneration with replay:
//! the first request for a key runs the generator into an
//! `Arc<[TraceEvent]>`; every later request clones the `Arc` (a
//! refcount bump) and iterates the slice.
//!
//! Concurrency: distinct keys materialize concurrently, while two
//! racing requests for the *same* key share one materialization and
//! observe the same slice. Replay order is the generator's order, so
//! arena-fed experiments are bit-identical to streaming ones.
//!
//! # Examples
//!
//! ```
//! use trace_gen::arena::{ArenaKey, TraceArena};
//! use trace_gen::pattern::SequentialSweep;
//! use sim_core::Addr;
//!
//! let arena = TraceArena::new();
//! let key = ArenaKey::new("sweep", 1, 100);
//! let make = || SequentialSweep::new(Addr::new(0), 4096, 8);
//! let first = arena.get_or_materialize(key.clone(), make);
//! let again = arena.get_or_materialize(key, make);
//! assert!(std::sync::Arc::ptr_eq(&first, &again)); // one materialization
//! assert_eq!(first.len(), 100);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::memo::Memo;
use crate::{TraceEvent, TraceSource};

/// Identity of one materialized trace: which generator recipe, which
/// seed, how many events.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArenaKey {
    /// The workload (or other generator) name.
    pub workload: String,
    /// The generator seed.
    pub seed: u64,
    /// Number of events materialized.
    pub events: usize,
}

impl ArenaKey {
    /// Creates a key.
    #[must_use]
    pub fn new(workload: impl Into<String>, seed: u64, events: usize) -> Self {
        ArenaKey {
            workload: workload.into(),
            seed,
            events,
        }
    }
}

/// A memoizing store of materialized traces. See the module docs.
#[derive(Debug, Default)]
pub struct TraceArena {
    memo: Memo<ArenaKey, Arc<[TraceEvent]>>,
    /// Bumped by every [`TraceArena::clear`].
    generation: AtomicU64,
}

/// Counters describing how much work the arena has absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served by replaying an existing slice.
    pub hits: u64,
    /// Requests that materialized a new trace.
    pub misses: u64,
    /// Distinct traces resident.
    pub traces: usize,
    /// Total events resident across all traces.
    pub resident_events: u64,
}

impl TraceArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        TraceArena::default()
    }

    /// The process-wide arena shared by all experiment drivers.
    #[must_use]
    pub fn global() -> &'static TraceArena {
        static GLOBAL: OnceLock<TraceArena> = OnceLock::new();
        GLOBAL.get_or_init(TraceArena::new)
    }

    /// Returns the trace for `key`, materializing it on first request
    /// by running `source` for `key.events` events. Subsequent
    /// requests for an equal key return the same allocation (the
    /// returned `Arc`s are pointer-equal), including requests racing
    /// with the first: they block until materialization completes.
    pub fn get_or_materialize<S>(
        &self,
        key: ArenaKey,
        source: impl FnOnce() -> S,
    ) -> Arc<[TraceEvent]>
    where
        S: TraceSource,
    {
        let events = key.events;
        // Span label, computed only when tracing is armed (the scope
        // is attributed to the arena, not the racing requester, so the
        // recorded scope set is identical at any thread count).
        let span_label = sim_core::span::active()
            .then(|| format!("{}/{}/{}", key.workload, key.seed, key.events));
        self.memo.get_or_build(key, || {
            sim_core::span::scope(
                sim_core::span::ScopeKind::Subsystem,
                "arena_materialize",
                "arena",
                || span_label.unwrap_or_default(),
                || {
                    // Injection site: a transient fault retries inside the
                    // gate and falls through to generate; a persistent one
                    // unwinds (the key stays unbuilt, so a retried cell
                    // re-attempts materialization from scratch).
                    if let Err(fault) =
                        sim_core::fault::gate(sim_core::fault::FaultSite::ArenaMaterialize)
                    {
                        std::panic::panic_any(fault);
                    }
                    let mut src = source();
                    // Collected into a `Vec` and copied, not straight
                    // into the `Arc`: that saves the copy but made a
                    // cold rebuild after `clear` fault in every page
                    // anew (EXPERIMENTS.md §"Each distinct cell once").
                    let trace: Vec<TraceEvent> = (0..events).map(|_| src.next_event()).collect();
                    sim_core::span::add_events(trace.len() as u64);
                    Arc::from(trace)
                },
            )
        })
    }

    /// Hit/miss/residency counters (for telemetry and tests).
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        let (hits, misses) = self.memo.stats();
        let mut traces = 0usize;
        let mut resident_events = 0u64;
        self.memo.for_each_built(|t| {
            traces += 1;
            resident_events += t.len() as u64;
        });
        ArenaStats {
            hits,
            misses,
            traces,
            resident_events,
        }
    }

    /// Drops every resident trace (outstanding `Arc`s stay valid),
    /// resets the counters and starts a new [`Self::generation`].
    pub fn clear(&self) {
        self.memo.clear();
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// How many times [`Self::clear`] has run. Memos of results
    /// computed from the arena's traces (the experiment drivers' cell
    /// memo) key their entries by it, so a `clear` empties them too.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SequentialSweep;
    use sim_core::Addr;

    fn sweep() -> SequentialSweep {
        SequentialSweep::new(Addr::new(0x1000), 64 * 1024, 8)
    }

    #[test]
    fn repeated_key_is_pointer_equal() {
        let arena = TraceArena::new();
        let a = arena.get_or_materialize(ArenaKey::new("s", 1, 500), sweep);
        let b = arena.get_or_materialize(ArenaKey::new("s", 1, 500), sweep);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = arena.stats();
        assert_eq!((stats.hits, stats.misses, stats.traces), (1, 1, 1));
        assert_eq!(stats.resident_events, 500);
    }

    #[test]
    fn distinct_keys_materialize_separately() {
        let arena = TraceArena::new();
        let a = arena.get_or_materialize(ArenaKey::new("s", 1, 100), sweep);
        let b = arena.get_or_materialize(ArenaKey::new("s", 2, 100), sweep);
        let c = arena.get_or_materialize(ArenaKey::new("s", 1, 200), sweep);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 100);
        assert_eq!(c.len(), 200);
        assert_eq!(arena.stats().misses, 3);
    }

    #[test]
    fn replay_matches_streaming() {
        let arena = TraceArena::new();
        let replayed = arena.get_or_materialize(ArenaKey::new("s", 7, 300), sweep);
        let mut streamed = sweep();
        for (i, event) in replayed.iter().enumerate() {
            assert_eq!(*event, streamed.next_event(), "event {i}");
        }
    }

    #[test]
    fn concurrent_same_key_materializes_once() {
        let arena = TraceArena::new();
        let slices: Vec<Arc<[TraceEvent]>> =
            sim_core::parallel::par_map_threads(8, (0..16).collect::<Vec<u32>>(), |_| {
                arena.get_or_materialize(ArenaKey::new("shared", 3, 400), sweep)
            });
        for s in &slices[1..] {
            assert!(Arc::ptr_eq(&slices[0], s));
        }
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(arena.stats().hits, 15);
    }

    #[test]
    fn clear_resets() {
        let arena = TraceArena::new();
        let kept = arena.get_or_materialize(ArenaKey::new("s", 1, 50), sweep);
        assert_eq!(arena.generation(), 0);
        arena.clear();
        assert_eq!(arena.generation(), 1, "clear starts a new generation");
        let stats = arena.stats();
        assert_eq!((stats.traces, stats.hits, stats.misses), (0, 0, 0));
        assert_eq!(kept.len(), 50); // outstanding Arc survives clear
        let again = arena.get_or_materialize(ArenaKey::new("s", 1, 50), sweep);
        assert!(!Arc::ptr_eq(&kept, &again));
    }
}
