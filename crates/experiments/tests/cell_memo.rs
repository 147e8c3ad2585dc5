//! The cell memo, end to end: each distinct figure cell is computed
//! once per arena generation and served to every later figure that
//! asks, and the served-event accounting still follows the figures'
//! formulas.
//!
//! * fig1 → fig2 → mrc serves the formulas' events and computes only
//!   the distinct cells;
//! * [`TraceArena::clear`] empties the memo, so a second fig1 computes
//!   every cell again;
//! * with a probe sink or a span trace armed, the memo is neither read
//!   nor filled;
//! * arena and `--stream` results never serve each other;
//! * fig3 then fig6 computes the twelve paper-baseline cells once.
//!
//! Everything lives in ONE `#[test]`: the memo, the arenas, the probe
//! and span layers, stream mode and the telemetry counters are
//! process-global state.

use experiments::probe::ProbeMode;
use experiments::telemetry::{events_computed, events_simulated};
use experiments::{fig1, fig2, fig3, fig6, mrc};
use trace_gen::arena::TraceArena;
use trace_gen::decomposed::DecomposedArena;

const EVENTS: usize = 2_000;

/// Runs `f` and returns (events served, events computed) during it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (served, computed) = (events_simulated(), events_computed());
    let out = f();
    (
        out,
        events_simulated() - served,
        events_computed() - computed,
    )
}

fn clear_arenas() {
    TraceArena::global().clear();
    DecomposedArena::global().clear();
}

#[test]
fn each_distinct_cell_is_computed_once_per_arena_generation() {
    sim_core::parallel::set_max_threads(1);
    let e = EVENTS as u64;
    let full = workloads::full_suite().len() as u64;
    let mrc_suite = mrc::workload_suite().len() as u64;
    let configs = fig1::configurations().len() as u64;
    let widths = fig2::widths().len() as u64;

    // fig1 → fig2 → mrc: fig2's full-tag width is fig1's 16 KB DM
    // cell, and MRC's cells on the SPEC95-analog suite are fig1's.
    // Only MRC's curves and its taxonomy-workload cells are new.
    clear_arenas();
    let (reference, served, computed) = counted(|| {
        (
            fig1::run(EVENTS).to_string(),
            fig2::run(EVENTS).to_string(),
            mrc::run(EVENTS, None).to_jsonl(),
        )
    });
    assert_eq!(
        served,
        fig1::simulated_events(EVENTS)
            + fig2::simulated_events(EVENTS)
            + mrc::simulated_events(EVENTS),
        "served events follow the formulas"
    );
    let distinct = configs * full + (widths - 1) * full + mrc_suite + configs * (mrc_suite - full);
    assert_eq!(computed, distinct * e, "each distinct cell computed once");

    // A figure whose cells are all resident computes nothing.
    let (fig1_served, served, computed) = counted(|| fig1::run(EVENTS).to_string());
    assert_eq!(fig1_served, reference.0, "a served figure renders the same");
    assert_eq!(served, fig1::simulated_events(EVENTS));
    assert_eq!(computed, 0, "every fig1 cell is in the memo");

    // clear() empties the memo: a benchmark that clears the arenas
    // before each sweep must time sweeps that simulate.
    clear_arenas();
    let (again, _, computed) = counted(|| fig1::run(EVENTS).to_string());
    assert_eq!(again, reference.0);
    assert_eq!(
        computed,
        configs * full * e,
        "after clear() fig1 computes all of its cells again"
    );

    // A probe armed: fig1's resident cells are not read...
    experiments::probe::configure(Some(ProbeMode::Epoch(500)));
    let (probed, _, computed) = counted(|| fig1::run(EVENTS).to_string());
    assert_eq!(probed, reference.0, "the probe does not change the tables");
    assert_eq!(computed, configs * full * e, "a probed run reads no cell");
    // ...and a probed run after clear() fills nothing.
    clear_arenas();
    let _ = counted(|| fig1::run(EVENTS));
    experiments::probe::configure(None);
    let (_, _, computed) = counted(|| fig1::run(EVENTS));
    assert_eq!(computed, configs * full * e, "a probed run stores no cell");

    // The same for a span trace.
    experiments::tracing::arm(true);
    let (traced, _, computed) = counted(|| fig1::run(EVENTS).to_string());
    clear_arenas();
    let _ = fig1::run(EVENTS);
    let _ = experiments::tracing::drain();
    assert_eq!(
        traced, reference.0,
        "the span trace does not change the tables"
    );
    assert_eq!(computed, configs * full * e, "a traced run reads no cell");
    let (_, _, computed) = counted(|| fig1::run(EVENTS));
    assert_eq!(computed, configs * full * e, "a traced run stores no cell");

    // Arena and stream entries never serve each other: with fig1's
    // arena cells resident, a stream fig1 computes every cell, and
    // the arena cells are still served afterwards.
    experiments::set_stream_mode(true);
    let (streamed, _, computed) = counted(|| fig1::run(EVENTS).to_string());
    assert_eq!(streamed, reference.0, "stream and arena tables match");
    assert_eq!(
        computed,
        configs * full * e,
        "arena cells never serve a stream run"
    );
    let (_, _, computed) = counted(|| fig1::run(EVENTS));
    assert_eq!(computed, 0, "stream cells serve a stream run");
    experiments::set_stream_mode(false);
    let (_, _, computed) = counted(|| fig1::run(EVENTS));
    assert_eq!(computed, 0, "the arena cells are still resident");
    // And with only stream cells resident, an arena fig1 computes
    // every cell.
    clear_arenas();
    experiments::set_stream_mode(true);
    let _ = fig1::run(EVENTS);
    experiments::set_stream_mode(false);
    let (_, _, computed) = counted(|| fig1::run(EVENTS));
    assert_eq!(
        computed,
        configs * full * e,
        "stream cells never serve an arena run"
    );

    // fig3 then fig6: the paper-baseline cell is computed by fig3 and
    // served to fig6.
    clear_arenas();
    let (_, served, computed) = counted(|| fig3::run(EVENTS));
    assert_eq!(served, fig3::simulated_events(EVENTS));
    assert_eq!(computed, served, "fig3's cells are all distinct");
    let (_, served, computed) = counted(|| fig6::run(EVENTS));
    assert_eq!(served, fig6::simulated_events(EVENTS));
    let baselines = workloads::suite().len() as u64;
    assert_eq!(
        computed,
        served - baselines * e,
        "fig6 reads fig3's {baselines} baseline cells"
    );
    sim_core::parallel::set_max_threads(0);
}
