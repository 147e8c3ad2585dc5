//! The `bench-repro/2` total must follow from the per-figure records
//! it sums, on a real `repro` run:
//!
//! * `total.events_per_sec == total.events / total.wall_seconds`, up to
//!   the JSON's six-decimal rounding of the wall time;
//! * `total.events` is the sum of the figures' events, and in a serial
//!   run (`--threads 1`) `total.wall_seconds` covers every figure's
//!   wall time, the MRC family's included;
//! * the total rate therefore lies within the range of the per-figure
//!   rates.
//!
//! `repro --mrc` once counted the MRC family's events in the total but
//! not its wall time, which reported about 10¹² events/s.

use std::process::Command;

use experiments::jsonl::{self, Value};

/// Slack below the slowest figure's rate: the total also spans the
/// harness's own work between figures (scheduling, rendering), which
/// no per-figure stopwatch sees.
const HARNESS_SLACK: f64 = 0.05;

fn bench_json(name: &str, extra: &[&str]) -> Value {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("repro_bench_totals_{name}.json"));
    let mrc_path = dir.join(format!("repro_bench_totals_{name}.mrc.jsonl"));
    let _ = std::fs::remove_file(&path);
    let mut args = vec!["--threads", "1", "--events", "2000"];
    args.extend_from_slice(&["--bench-json", path.to_str().expect("UTF-8 temp path")]);
    args.extend_from_slice(&["--mrc-out", mrc_path.to_str().expect("UTF-8 temp path")]);
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("bench JSON written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&mrc_path);
    jsonl::parse(&text).expect("bench JSON parses")
}

fn f64_of(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing {key}"))
}

fn check_totals(name: &str, extra: &[&str], expected_figures: usize) {
    let doc = bench_json(name, extra);
    let figures = doc
        .get("figures")
        .and_then(Value::as_array)
        .expect("figures array");
    assert_eq!(figures.len(), expected_figures, "{name}");
    let total = doc.get("total").expect("total record");
    let wall = f64_of(total, "wall_seconds");
    let events = total.u64_field("events").expect("total events");
    let rate = f64_of(total, "events_per_sec");

    let figure_events: u64 = figures.iter().filter_map(|f| f.u64_field("events")).sum();
    assert_eq!(events, figure_events, "{name}: total events");
    let figure_wall: f64 = figures.iter().map(|f| f64_of(f, "wall_seconds")).sum();
    // Each wall time is rounded to 1e-6 s in the JSON.
    let rounding = 1e-6 * (figures.len() + 1) as f64;
    assert!(
        wall + rounding >= figure_wall,
        "{name}: serial total wall {wall}s is less than the figures' {figure_wall}s"
    );

    let recomputed = events as f64 / wall;
    let tolerance = recomputed * (0.5e-6 / wall) + 1e-6;
    assert!(
        (rate - recomputed).abs() <= tolerance,
        "{name}: total events_per_sec {rate} != events / wall_seconds = {recomputed}"
    );

    let rates: Vec<f64> = figures
        .iter()
        .map(|f| f64_of(f, "events_per_sec"))
        .collect();
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rates.iter().copied().fold(0.0, f64::max);
    assert!(
        rate <= max * (1.0 + 1e-9) && rate >= min * (1.0 - HARNESS_SLACK),
        "{name}: total rate {rate} outside the per-figure range [{min}, {max}]"
    );
}

#[test]
fn mrc_alone_total_counts_its_wall_time() {
    check_totals("mrc", &["--mrc"], 1);
}

#[test]
fn targets_plus_mrc_total_is_consistent() {
    check_totals("fig2_mrc", &["--mrc", "fig2"], 2);
}
