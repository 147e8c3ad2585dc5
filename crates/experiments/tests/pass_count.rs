//! The accuracy drivers' one-pass-per-workload structure, pinned as a
//! count: a `--stream --trace-out` run of fig1 + fig2 with `--mrc`
//! streams each workload's generator once per driver, so its
//! generator passes (`replay_stream` spans, plus any `replay_mrc`
//! curve pass) equal the (target, workload) pairs — 18 + 18 + 21 = 57
//! — not the 354 cells and 21 curves they feed.

use std::process::Command;

fn generator_passes(events: usize) -> usize {
    let dir = std::env::temp_dir();
    let stem = format!("pass_count_{}_{events}", std::process::id());
    let trace = dir.join(format!("{stem}.trace.jsonl"));
    let mrc = dir.join(format!("{stem}.mrc.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--events",
            &events.to_string(),
            "--threads",
            "1",
            "--stream",
        ])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--mrc")
        .arg("--mrc-out")
        .arg(&mrc)
        .args(["fig1", "fig2"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&mrc);
    experiments::jsonl::parse_lines(&text)
        .expect("valid trace-repro/1")
        .iter()
        .filter(|v| v.str_field("type") == Some("span"))
        .filter(|v| matches!(v.str_field("name"), Some("replay_stream" | "replay_mrc")))
        .count()
}

#[test]
fn a_stream_sweep_generates_each_trace_once_per_driver() {
    let pairs = 2 * workloads::full_suite().len() + experiments::mrc::workload_suite().len();
    assert_eq!(pairs, 57);
    for events in [1_000, experiments::STREAM_CHUNK + 1] {
        assert_eq!(
            generator_passes(events),
            pairs,
            "one generator pass per (target, workload) at {events} events"
        );
    }
}
