//! Golden test for the paper tables: `repro --events 2000 --threads 1
//! all` stdout, byte-for-byte against the committed
//! `tests/fixtures/repro_all_2000.txt`. The parallel (`--threads 2`)
//! and streaming (`--stream`) sweeps must print the same file.
//!
//! A change to any table cell shows up here as a diff to the fixture.
//! Regenerate it only together with a CHANGES.md entry that names the
//! changed cells.

use std::process::Command;

const GOLDEN: &str = include_str!("fixtures/repro_all_2000.txt");

fn repro_all(extra: &[&str]) -> String {
    let mut args = vec!["--events", "2000"];
    args.extend_from_slice(extra);
    args.push("all");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn assert_golden(extra: &[&str]) {
    let stdout = repro_all(extra);
    if stdout != GOLDEN {
        let first = stdout
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .map_or_else(|| "line count".to_owned(), |i| format!("line {}", i + 1));
        panic!("repro {extra:?} all differs from the golden at {first}:\n{stdout}");
    }
}

#[test]
fn serial_sweep_matches_golden() {
    assert_golden(&["--threads", "1"]);
}

#[test]
fn parallel_sweep_matches_golden() {
    assert_golden(&["--threads", "2"]);
}

#[test]
fn stream_sweep_matches_golden() {
    assert_golden(&["--threads", "1", "--stream"]);
}
