//! The repo's byte-identity guarantees, end to end:
//!
//! * **streamed vs arena** — replaying a memoized [`experiments::trace_for`]
//!   slice yields exactly the events the workload's streaming source
//!   generates;
//! * **arena memoization** — a repeated `(workload, seed, events)` key
//!   returns the *same allocation* (pointer-equal `Arc`), not a copy;
//! * **serial vs parallel** — rendered figure reports are bit-for-bit
//!   identical whether the scheduler runs inline or on worker threads;
//! * **telemetry accounting** — the per-figure `simulated_events`
//!   formulas match the live counter the drivers feed, for every
//!   accuracy driver in arena and in stream mode;
//! * **stream residency** — a stream run builds no arena entry.
//!
//! Each side of a serial-vs-parallel comparison starts from cleared
//! arenas, which empties the cell memo, and must compute every one of
//! its cells: a side served from the memo would compare a run with
//! itself.
//!
//! Everything lives in ONE `#[test]` because the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) and stream mode are
//! process-global state: splitting these into separate tests would
//! let the harness run them concurrently and race on them.

use std::sync::Arc;

use experiments::cli::Target;
use experiments::telemetry::events_computed;
use trace_gen::arena::TraceArena;
use trace_gen::decomposed::DecomposedArena;
use trace_gen::{TraceEvent, TraceSource};

/// Runs `target` from cleared arenas (so an empty cell memo) and
/// checks that it simulated every cell rather than reading any.
fn run_computed(target: Target, events: usize) -> String {
    TraceArena::global().clear();
    DecomposedArena::global().clear();
    let before = events_computed();
    let rendered = target.run(events);
    assert_eq!(
        events_computed() - before,
        target.simulated_events(events),
        "{}: a compared side must compute all of its cells",
        target.name()
    );
    rendered
}

#[test]
fn repro_is_deterministic_across_schedules_and_replay() {
    const EVENTS: usize = 3_000;

    // Streamed generation and arena replay are the same event stream.
    for w in workloads::full_suite() {
        let mut src = w.source(experiments::SEED);
        let streamed: Vec<TraceEvent> = (0..EVENTS).map(|_| src.next_event()).collect();
        let arena = experiments::trace_for(&w, EVENTS);
        assert_eq!(
            streamed.as_slice(),
            &arena[..],
            "{}: arena replay must match streaming",
            w.name()
        );
    }

    // The arena memoizes: same key, same allocation.
    let suite = workloads::full_suite();
    let first = experiments::trace_for(&suite[0], EVENTS);
    let again = experiments::trace_for(&suite[0], EVENTS);
    assert!(
        Arc::ptr_eq(&first, &again),
        "repeated key must return the cached Arc, not a new copy"
    );
    let other_len = experiments::trace_for(&suite[0], EVENTS / 2);
    assert!(
        !Arc::ptr_eq(&first, &other_len),
        "a different event count is a different trace"
    );

    // Serial reference run, with the telemetry formulas cross-checked
    // against the live counter while nothing else is running.
    sim_core::parallel::set_max_threads(1);
    let before = experiments::telemetry::events_simulated();
    let fig1_serial = run_computed(Target::Fig1, EVENTS);
    let fig1_counted = experiments::telemetry::events_simulated() - before;
    assert_eq!(
        fig1_counted,
        Target::Fig1.simulated_events(EVENTS),
        "fig1 event formula must match the live counter"
    );
    let before = experiments::telemetry::events_simulated();
    let fig3_serial = run_computed(Target::Fig3, EVENTS);
    let fig3_counted = experiments::telemetry::events_simulated() - before;
    assert_eq!(
        fig3_counted,
        Target::Fig3.simulated_events(EVENTS),
        "fig3 event formula must match the live counter"
    );

    // Every accuracy driver's formula matches the live counter in
    // both replay modes: each consumer of a shared pass still counts
    // every event it classifies.
    for stream in [false, true] {
        if stream {
            TraceArena::global().clear();
            DecomposedArena::global().clear();
        }
        experiments::set_stream_mode(stream);
        for target in [Target::Fig1, Target::Fig2, Target::Ablation] {
            let before = experiments::telemetry::events_simulated();
            let _ = target.run(EVENTS);
            assert_eq!(
                experiments::telemetry::events_simulated() - before,
                target.simulated_events(EVENTS),
                "{} event formula must match the live counter (stream: {stream})",
                target.name()
            );
        }
        for sample in [None, Some(0.01)] {
            let before = experiments::telemetry::events_simulated();
            let _ = experiments::mrc::run(EVENTS, sample);
            assert_eq!(
                experiments::telemetry::events_simulated() - before,
                experiments::mrc::simulated_events(EVENTS),
                "mrc ({sample:?}) event formula must match the live counter (stream: {stream})"
            );
        }
        if stream {
            assert_eq!(
                TraceArena::global().stats().traces,
                0,
                "a stream run must materialize no trace"
            );
            assert_eq!(
                DecomposedArena::global().stats().1,
                0,
                "a stream run must decompose nothing into the arena"
            );
            assert_eq!(
                DecomposedArena::global().distance_stats().1,
                0,
                "a stream run must build no stack-distance memo"
            );
        }
    }
    experiments::set_stream_mode(false);

    // Parallel runs render byte-identical reports.
    sim_core::parallel::set_max_threads(4);
    let fig1_parallel = run_computed(Target::Fig1, EVENTS);
    let fig3_parallel = run_computed(Target::Fig3, EVENTS);
    sim_core::parallel::set_max_threads(0);
    assert_eq!(
        fig1_serial, fig1_parallel,
        "fig1 must be bit-for-bit identical serial vs parallel"
    );
    assert_eq!(
        fig3_serial, fig3_parallel,
        "fig3 must be bit-for-bit identical serial vs parallel"
    );
}
