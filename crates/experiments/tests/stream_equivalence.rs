//! Two replay guarantees, end to end:
//!
//! * **stream vs arena** — `repro --stream` pipes each workload
//!   generator through the chunked constant-memory pipeline and must
//!   render figure reports byte-identical to arena replay, at any
//!   worker-thread count;
//! * **large geometry vs per event** — on a geometry far larger than
//!   any sweep's (4 MB, 64K lines) the drivers' block replay must
//!   produce the exact accuracy report of per-event trace-order
//!   replay.
//!
//! Every compared figure run starts from cleared arenas, which empties
//! the cell memo, and must compute all of its cells: a run served from
//! the memo would compare a run with itself.
//!
//! Everything lives in ONE `#[test]` because stream mode
//! ([`experiments::set_stream_mode`]) and the worker-thread cap
//! ([`sim_core::parallel::set_max_threads`]) are process-global:
//! separate tests would race on them.

use cache_model::CacheGeometry;
use experiments::cli::Target;
use mct::accuracy::AccuracyEvaluator;
use mct::TagBits;
use trace_gen::arena::TraceArena;
use trace_gen::decomposed::DecomposedArena;

/// Runs `target` from cleared arenas (so an empty cell memo) and
/// checks that it simulated every cell rather than reading any.
fn run_computed(target: Target, events: usize) -> String {
    TraceArena::global().clear();
    DecomposedArena::global().clear();
    let before = experiments::telemetry::events_computed();
    let rendered = target.run(events);
    assert_eq!(
        experiments::telemetry::events_computed() - before,
        target.simulated_events(events),
        "{}: a compared run must compute all of its cells",
        target.name()
    );
    rendered
}

#[test]
fn stream_and_large_geometry_replay_match_arena_trace_order() {
    const EVENTS: usize = 3_000;

    // Arena-mode reference reports, serial.
    sim_core::parallel::set_max_threads(1);
    assert!(!experiments::stream_mode(), "stream mode must default off");
    let fig1_arena = run_computed(Target::Fig1, EVENTS);
    let fig2_arena = run_computed(Target::Fig2, EVENTS);

    // Streaming replay, serial: byte-identical reports.
    experiments::set_stream_mode(true);
    let fig1_stream = run_computed(Target::Fig1, EVENTS);
    let fig2_stream = run_computed(Target::Fig2, EVENTS);
    assert_eq!(
        fig1_arena, fig1_stream,
        "fig1 must be bit-for-bit identical arena vs stream (1 thread)"
    );
    assert_eq!(
        fig2_arena, fig2_stream,
        "fig2 must be bit-for-bit identical arena vs stream (1 thread)"
    );

    // Streaming replay on worker threads: still byte-identical.
    sim_core::parallel::set_max_threads(4);
    let fig1_stream4 = run_computed(Target::Fig1, EVENTS);
    assert_eq!(
        fig1_arena, fig1_stream4,
        "fig1 must be bit-for-bit identical arena vs stream (4 threads)"
    );
    experiments::set_stream_mode(false);
    sim_core::parallel::set_max_threads(0);

    // A streamed trace longer than one chunk exercises torn chunk
    // boundaries in the pipeline itself (not just the figure sweep).
    let big = experiments::STREAM_CHUNK + 1_537;
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    let geom = CacheGeometry::new(16 * 1024, 2, 32).unwrap();
    let mut reference = AccuracyEvaluator::new(geom, TagBits::Low(8));
    experiments::replay_accuracy(&w, big, &mut [&mut reference]);
    experiments::set_stream_mode(true);
    let mut streamed = AccuracyEvaluator::new(geom, TagBits::Low(8));
    experiments::replay_accuracy(&w, big, &mut [&mut streamed]);
    experiments::set_stream_mode(false);
    assert_eq!(
        reference.report(),
        streamed.report(),
        "chunked streaming must match arena replay across chunk seams"
    );

    // A geometry far past every sweep's: the drivers' replay must
    // equal per-event trace-order replay of the same decomposed trace.
    let mrc_geom = CacheGeometry::new(4 * 1024 * 1024, 2, 64).unwrap();
    let mut via_replay = AccuracyEvaluator::new(mrc_geom, TagBits::Low(8));
    experiments::replay_accuracy(&w, EVENTS, &mut [&mut via_replay]);
    let decomposed = experiments::decomposed_for(&w, &mrc_geom, EVENTS);
    let mut via_events = AccuracyEvaluator::new(mrc_geom, TagBits::Low(8));
    for (set, tag) in decomposed.iter() {
        via_events.observe_parts(set as usize, tag);
    }
    assert_eq!(
        via_replay.report(),
        via_events.report(),
        "large-geometry replay must match per-event trace-order replay"
    );
}
