//! Cross-ground-truth check: the MRC engine and the three-C shadow
//! oracle implement the *same* mathematical object — a
//! fully-associative LRU cache of the geometry's line capacity — via
//! unrelated code (an order-statistic tree over stack distances vs. a
//! lazy-deletion LRU queue). On the Figure 1 smoke sweep they must
//! therefore agree **exactly**, event by event: an access misses the
//! oracle's shadow cache (Compulsory or Capacity class) iff its LRU
//! stack distance is at least the capacity (or the line is cold).
//!
//! The accuracy drivers score the MCT against the memoized distances
//! ([`experiments::distances_for`]) instead of running the oracle, and
//! their merge pairs verdicts with classifications per event — so the
//! memo is checked here per event against an independent oracle run
//! over a freshly generated stream, not just in aggregate. Any
//! disagreement is printed with its cell and event index.

use cache_model::oracle::{OracleClass, ThreeCClassifier};
use mrc::StackDistanceEngine;

/// Small smoke-sweep event count: 4 configurations × the full
/// workload suite stays a sub-second test at opt-level 1.
const EVENTS: usize = 4_000;

/// Streams a workload's first `EVENTS` line addresses (64 B lines,
/// the paper's line size) at the experiments seed.
fn lines_of(workload: &workloads::Workload) -> Vec<u64> {
    let mut source = workload.source(experiments::SEED);
    (0..EVENTS)
        .map(|_| source.next_event().access.addr.line(64).raw())
        .collect()
}

#[test]
fn memoized_verdicts_match_three_c_oracle_per_event() {
    let mut disagreements: Vec<String> = Vec::new();
    let mut checked = 0u64;
    for (config, geom) in experiments::fig1::configurations() {
        let capacity = geom.num_lines();
        for workload in experiments::mrc::workload_suite() {
            let memo = experiments::distances_for(&workload, &geom, EVENTS);
            assert_eq!(memo.len(), EVENTS);
            let mut oracle = ThreeCClassifier::new(capacity);
            for (i, (line, &d)) in lines_of(&workload).into_iter().zip(memo.iter()).enumerate() {
                let oracle_conflict = oracle.observe(sim_core::LineAddr::new(line)).is_conflict();
                let memo_conflict = mrc::fits(d, capacity as u64);
                checked += 1;
                if memo_conflict != oracle_conflict && disagreements.len() < 20 {
                    disagreements.push(format!(
                        "{config}/{} event {i}: memo distance {d} says conflict={memo_conflict}, oracle says {oracle_conflict}",
                        workload.name(),
                    ));
                }
            }
        }
    }
    assert_eq!(
        checked,
        (4 * experiments::mrc::workload_suite().len() * EVENTS) as u64
    );
    assert!(
        disagreements.is_empty(),
        "memoized verdicts disagree with the three-C oracle (first {}):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn mrc_capacity_estimate_matches_three_c_oracle_exactly() {
    let mut disagreements: Vec<String> = Vec::new();
    for (config, geom) in experiments::fig1::configurations() {
        let capacity = geom.num_lines();
        for workload in experiments::mrc::workload_suite() {
            let lines = lines_of(&workload);

            let mut oracle = ThreeCClassifier::new(capacity);
            let mut oracle_fa_misses = 0u64;
            for &line in &lines {
                match oracle.observe(sim_core::LineAddr::new(line)) {
                    OracleClass::Compulsory | OracleClass::Capacity => oracle_fa_misses += 1,
                    OracleClass::Conflict => {}
                }
            }

            let mut engine = StackDistanceEngine::new();
            for &line in &lines {
                engine.record_line(line);
            }
            let mrc_fa_misses = engine.histogram().tail(capacity as u64);

            if mrc_fa_misses != oracle_fa_misses {
                disagreements.push(format!(
                    "{config}/{}: oracle {} vs mrc {} FA misses at {capacity} lines",
                    workload.name(),
                    oracle_fa_misses,
                    mrc_fa_misses,
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "MRC and three-C oracle disagree on {} cell(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn mrc_driver_cells_carry_the_oracle_ratio() {
    // The driver's cross-check cells compute `mrc_miss_ratio` through
    // the decomposed block-replay path; recomputing the oracle ratio
    // from a raw stream must give the identical f64 (same integer
    // counts, same division).
    let run = experiments::mrc::run(EVENTS, None);
    let mut disagreements: Vec<String> = Vec::new();
    for cell in &run.cells {
        let workload = workloads::by_name(&cell.workload).expect("cell workload exists");
        let mut oracle = ThreeCClassifier::new(cell.capacity_lines as usize);
        let mut fa_misses = 0u64;
        for line in lines_of(&workload) {
            if !matches!(
                oracle.observe(sim_core::LineAddr::new(line)),
                OracleClass::Conflict
            ) {
                fa_misses += 1;
            }
        }
        let oracle_ratio = fa_misses as f64 / EVENTS as f64;
        if cell.mrc_miss_ratio != oracle_ratio {
            disagreements.push(format!(
                "{}/{}: driver {} vs oracle {oracle_ratio}",
                cell.config, cell.workload, cell.mrc_miss_ratio,
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "driver MRC ratio deviates from the oracle on {} cell(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}
