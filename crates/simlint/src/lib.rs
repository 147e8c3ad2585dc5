//! `simlint` — an offline static-analysis pass over the workspace's
//! own sources, enforcing the determinism and hot-path contracts the
//! runtime tests can only catch after the fact.
//!
//! The reproduction's headline guarantees — bit-identical figures at
//! any `--threads`, byte-identical `obs-repro/1` probe streams, an SoA
//! cache kernel proven equal to its reference model — rest on
//! conventions that are *statically visible* in the source: no
//! default-SipHash maps on output paths, no wall-clock reads in
//! simulation logic, no panics in the kernels, probes emitted through
//! the armed-check idiom, randomness only from seeded RNGs. This crate
//! checks those conventions at review time. It is self-contained (no
//! `syn`, no crates.io dependencies — the build containers are
//! offline; the sole dependency is the in-workspace, itself
//! dependency-free `sim-core`, for the canonical contract registry):
//! a hand-rolled lexer ([`lexer`]) scrubs comments and string
//! literals, a symbol-table pass ([`items`]) links the scrubbed files
//! into an approximate cross-crate call graph, and a rule engine
//! ([`rules`]) scans code text per file plus panic/allocation
//! reachability from the registered hot entry points over the graph.
//!
//! Run it with `cargo run -p simlint` (humans) or
//! `cargo run -p simlint -- --json` (CI; schema `lint-repro/2`). A
//! finding can be waived in place with a justified comment:
//!
//! ```text
//! // simlint: allow(transitive-panic) — ways 0..occ are resident by
//! // construction; no non-panicking fallback exists for arbitrary M.
//! .expect("resident way has meta");
//! ```
//!
//! A waiver covers its own line and the line after it, so it works
//! both trailing a statement and as the comment line above one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rules::FileCtx;

/// The machine-readable schema identifier emitted by `--json`
/// (canonically defined in [`sim_core::registry`]).
pub const SCHEMA: &str = sim_core::registry::SCHEMA_LINT;

/// One diagnostic: a rule violated at a `file:line` anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`rules::RULE_NAMES`], or
    /// `waiver` for malformed waivers).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Call-path evidence for graph rules: the chain of
    /// `"name (file:line)"` entries from the hot entry point down to
    /// the function containing the finding. Empty for per-file rules.
    pub path: Vec<String>,
}

impl Finding {
    /// Creates a finding with no call-path evidence.
    #[must_use]
    pub fn new(rule: &'static str, file: &str, line: usize, message: String) -> Self {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message,
            path: Vec::new(),
        }
    }

    /// Attaches call-path evidence (graph rules).
    #[must_use]
    pub fn with_path(mut self, path: Vec<String>) -> Self {
        self.path = path;
        self
    }

    /// The human-readable diagnostic line. Graph findings append the
    /// call chain (function names only; the JSONL form keeps the full
    /// `file:line` anchors).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        );
        if !self.path.is_empty() {
            let names: Vec<&str> = self
                .path
                .iter()
                .map(|e| e.split(" (").next().unwrap_or(e))
                .collect();
            let _ = write!(out, "; call path: {}", names.join(" -> "));
        }
        out
    }
}

/// Everything one lint pass produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings that survived waivers, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by an inline waiver.
    pub waived: usize,
    /// Source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable diagnostic listing (one line per
    /// finding plus a summary line).
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let files: std::collections::BTreeSet<&str> =
            self.findings.iter().map(|f| f.file.as_str()).collect();
        let _ = writeln!(
            out,
            "simlint: {} finding{} across {} file{} ({} files scanned, {} waiver{} honored)",
            self.findings.len(),
            plural(self.findings.len()),
            files.len(),
            plural(files.len()),
            self.files_scanned,
            self.waived,
            plural(self.waived),
        );
        out
    }

    /// Renders the `lint-repro/2` JSONL document: a header object, one
    /// object per finding (with its call-path evidence array), and a
    /// trailing summary object. Parses with
    /// `experiments::jsonl::parse_lines` (golden-tested).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":{},\"rules\":[", json_string(SCHEMA));
        for (i, name) in rules::RULE_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
        }
        let _ = writeln!(out, "],\"files_scanned\":{}}}", self.files_scanned);
        for f in &self.findings {
            let path: Vec<String> = f.path.iter().map(|e| json_string(e)).collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"finding\",\"rule\":{},\"file\":{},\"line\":{},\"message\":{},\"path\":[{}]}}",
                json_string(f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.message),
                path.join(","),
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"summary\",\"findings\":{},\"waived\":{},\"files_scanned\":{}}}",
            self.findings.len(),
            self.waived,
            self.files_scanned,
        );
        out
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// A JSON string literal with the mandatory escapes (mirrors the
/// telemetry writer so all three schemas escape identically).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one file's source text under a workspace-relative `path`
/// (rule applicability is path-driven, so fixtures can be checked *as
/// if* they lived on a hot path). The graph rules see a one-file
/// workspace, so a fixture defining its own hot entry point trips
/// them too.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> (Vec<Finding>, usize) {
    let report = lint_files(&[(path.to_owned(), source.to_owned())]);
    (report.findings, report.waived)
}

/// Lints a set of `(workspace-relative path, source)` files as one
/// workspace: per-file rules on each file, the call-graph rules
/// (`transitive-panic`, `hot-path-alloc`) across all of them, and
/// in-place waivers applied to both kinds of finding.
#[must_use]
pub fn lint_files(files: &[(String, String)]) -> Report {
    struct FileData {
        path: String,
        scrubbed: lexer::Scrubbed,
        mask: Vec<bool>,
    }
    let data: Vec<FileData> = files
        .iter()
        .map(|(path, source)| {
            let scrubbed = lexer::scrub(source);
            let mask = test_line_mask(&scrubbed.lines, test_context_path(path));
            FileData {
                path: path.clone(),
                scrubbed,
                mask,
            }
        })
        .collect();

    let mut ws = items::Workspace::new();
    for d in &data {
        ws.add_file(&d.path, &d.scrubbed.lines, &d.mask);
    }
    let ctxs: Vec<FileCtx<'_>> = data
        .iter()
        .map(|d| FileCtx {
            path: &d.path,
            lines: &d.scrubbed.lines,
            test_mask: &d.mask,
            strings: &d.scrubbed.strings,
        })
        .collect();

    // Per-file findings, bucketed by file index so waivers (which are
    // per-file) can be applied uniformly to graph findings too.
    let mut buckets: Vec<Vec<Finding>> = ctxs.iter().map(rules::check_file).collect();
    for finding in rules::check_graph(&ws, &ctxs) {
        if let Some(idx) = data.iter().position(|d| d.path == finding.file) {
            buckets[idx].push(finding);
        }
    }

    let mut report = Report {
        files_scanned: data.len(),
        ..Report::default()
    };
    for (d, findings) in data.iter().zip(buckets) {
        let (kept, waived) = apply_waivers(&d.path, &d.scrubbed.comments, findings);
        report.findings.extend(kept);
        report.waived += waived;
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Applies one file's in-place waivers to its findings. Waivers cover
/// their own line and the next. Unknown rule names are themselves
/// findings — a typoed waiver must not silently waive nothing. A
/// directive must *begin* the comment (doc comments and prose that
/// merely mention the syntax keep their `/`/`!` marker or leading
/// words and are ignored).
fn apply_waivers(
    path: &str,
    comments: &[(usize, String)],
    mut findings: Vec<Finding>,
) -> (Vec<Finding>, usize) {
    let mut waivers: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (line, text) in comments {
        let Some(directive) = text.trim_start().strip_prefix("simlint:") else {
            continue;
        };
        let directive = directive.trim_start();
        let Some(rest) = directive.strip_prefix("allow") else {
            findings.push(Finding::new(
                "waiver",
                path,
                *line,
                "malformed simlint directive; expected `simlint: allow(<rule>)`".to_owned(),
            ));
            continue;
        };
        let rest = rest.trim_start();
        let Some(list) = rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|end| &r[..end]))
        else {
            findings.push(Finding::new(
                "waiver",
                path,
                *line,
                "malformed simlint waiver; expected `simlint: allow(<rule>)`".to_owned(),
            ));
            continue;
        };
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            if rules::is_rule(name) {
                waivers.entry(*line).or_default().push(name.to_owned());
            } else {
                findings.push(Finding::new(
                    "waiver",
                    path,
                    *line,
                    format!("unknown rule `{name}` in simlint waiver"),
                ));
            }
        }
    }

    let mut waived = 0usize;
    findings.retain(|f| {
        let covered = [f.line, f.line.wrapping_sub(1)].iter().any(|l| {
            waivers
                .get(l)
                .is_some_and(|names| names.iter().any(|n| n == f.rule))
        });
        if covered {
            waived += 1;
        }
        !covered
    });
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    (findings, waived)
}

/// Whether a path is test/bench/example context in its entirety.
#[must_use]
pub fn test_context_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

/// Marks the lines belonging to `#[cfg(test)]` / `#[test]` items.
///
/// Brace-depth tracking over scrubbed text: an attribute arms a
/// pending flag; the next `{` opens a region that closes when depth
/// returns. An intervening `;` at the same depth (the attribute was on
/// a braceless item) disarms it.
#[must_use]
pub fn test_line_mask(lines: &[String], whole_file: bool) -> Vec<bool> {
    if whole_file {
        return vec![true; lines.len()];
    }
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut regions: Vec<i64> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)") || trimmed.starts_with("#[test]") {
            pending = true;
        }
        let mut in_test = !regions.is_empty() || pending;
        for c in line.chars() {
            match c {
                '{' => {
                    if pending {
                        regions.push(depth);
                        pending = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                        in_test = true;
                    }
                }
                ';' if pending && regions.is_empty() => pending = false,
                _ => {}
            }
        }
        mask[i] = in_test || !regions.is_empty();
    }
    mask
}

/// Collects the workspace's `.rs` sources under `root`, sorted, as
/// `(relative_path, absolute_path)` pairs.
///
/// Always skipped: `target/` (build products), `vendor/` (the offline
/// dependency stubs are third-party idiom, not ours), `.git/`, and any
/// `fixtures/` directory under a `tests/` directory — the lint's own
/// known-bad fixture files must not fail the workspace-wide pass.
///
/// # Errors
///
/// Returns an I/O error message if a directory cannot be read.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect(root: &Path, dir: &Path, files: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git") {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|parent| parent == "tests") {
                continue;
            }
            collect(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, path));
        }
    }
    Ok(())
}

/// Lints every workspace source under `root`.
///
/// # Errors
///
/// Returns an error message if the tree cannot be walked or a file
/// cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for (rel, abs) in files {
        let source = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push((rel, source));
    }
    Ok(lint_files(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_covers_same_and_next_line() {
        let trailing = "let m = HashMap::new(); // simlint: allow(default-hasher) — memo map\n";
        let (f, waived) = lint_source("crates/x/src/lib.rs", trailing);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);

        let leading = "// simlint: allow(default-hasher) — memo map\nlet m = HashMap::new();\n";
        let (f, waived) = lint_source("crates/x/src/lib.rs", leading);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn waiver_does_not_reach_two_lines_down() {
        let src = "// simlint: allow(default-hasher)\nlet a = 1;\nlet m = HashMap::new();\n";
        let (f, waived) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(waived, 0);
    }

    #[test]
    fn unknown_waiver_rule_is_a_finding() {
        let src = "// simlint: allow(no-such-rule)\nlet a = 1;\n";
        let (f, _) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "waiver");
        assert!(f[0].message.contains("no-such-rule"));
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let src = "// simlint: allow default-hasher\nlet a = 1;\n";
        let (f, _) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "waiver");
    }

    #[test]
    fn waiver_must_name_the_right_rule() {
        let src = "let m = HashMap::new(); // simlint: allow(wallclock)\n";
        let (f, waived) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "wrong-rule waiver must not suppress");
        assert_eq!(f[0].rule, "default-hasher");
        assert_eq!(waived, 0);
    }

    #[test]
    fn integration_test_files_are_test_context() {
        let src = "use std::collections::HashMap;\n";
        let (f, _) = lint_source("crates/x/tests/foo.rs", src);
        assert!(f.is_empty());
        let (f, _) = lint_source("tests/proptest_invariants.rs", src);
        assert!(f.is_empty());
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            findings: vec![Finding::new(
                "wallclock",
                "crates/x/src/lib.rs",
                7,
                "wall-clock \"quoted\"".to_owned(),
            )],
            waived: 2,
            files_scanned: 42,
        };
        let json = report.render_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"lint-repro/2\""));
        assert!(lines[1].contains("\"line\":7"));
        assert!(lines[1].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"path\":[]"));
        assert!(lines[2].contains("\"findings\":1"));
    }

    #[test]
    fn json_report_carries_call_path_evidence() {
        let report = Report {
            findings: vec![Finding::new(
                "transitive-panic",
                "crates/x/src/lib.rs",
                9,
                "panicking call".to_owned(),
            )
            .with_path(vec![
                "access_block (crates/x/src/lib.rs:1)".to_owned(),
                "helper (crates/x/src/lib.rs:7)".to_owned(),
            ])],
            waived: 0,
            files_scanned: 1,
        };
        let json = report.render_json();
        let finding = json.lines().nth(1).unwrap();
        assert!(
            finding.contains(
                "\"path\":[\"access_block (crates/x/src/lib.rs:1)\",\"helper (crates/x/src/lib.rs:7)\"]"
            ),
            "{finding}"
        );
        let human = report.render_human();
        assert!(
            human.contains("call path: access_block -> helper"),
            "{human}"
        );
    }

    #[test]
    fn transitive_panic_walks_the_call_graph() {
        let src = "pub struct K;\nimpl K {\n    pub fn access_block(&mut self) {\n        self.step();\n    }\n    fn step(&mut self) {\n        helper();\n    }\n}\nfn helper() {\n    None::<u8>.unwrap();\n}\n";
        let (f, _) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "transitive-panic");
        assert_eq!(f[0].line, 11);
        assert_eq!(f[0].path.len(), 3, "{:?}", f[0].path);
        assert!(f[0].path[0].starts_with("access_block "));
        assert!(f[0].message.contains("`access_block`"));
        // The same panic with no hot entry point upstream is clean.
        let cold = "fn driver() {\n    helper();\n}\nfn helper() {\n    None::<u8>.unwrap();\n}\n";
        let (f, _) = lint_source("crates/x/src/lib.rs", cold);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hot_path_alloc_flags_reachable_allocation_outside_pool() {
        let src = "pub fn fill_at(n: usize) -> Vec<u8> {\n    scratch(n)\n}\nfn scratch(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\n";
        let (f, _) = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "hot-path-alloc");
        assert_eq!(f[0].line, 5);
        // The pool module is the sanctioned allocator.
        let (f, _) = lint_source("crates/cache/src/pool.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn graph_findings_are_waivable_in_place() {
        let src = "pub fn probe_at() {\n    // simlint: allow(transitive-panic) — impossible by construction\n    None::<u8>.unwrap();\n}\n";
        let (f, waived) = lint_source("crates/x/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn waiver_on_the_last_line_of_a_file_still_applies() {
        // No trailing newline, waiver trailing the offending statement
        // on the file's final line: the own-line half of the coverage
        // window must still fire, and the absent next line must not
        // trip anything.
        let src = "fn f() -> u32 {\n    rand::thread_rng().gen() // simlint: allow(unseeded-rng) — fixture\n}";
        let (f, waived) = lint_source("crates/x/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(waived, 1);
    }

    #[test]
    fn human_report_shape() {
        let mut report = Report {
            files_scanned: 3,
            ..Report::default()
        };
        assert!(report.render_human().starts_with("simlint: 0 findings"));
        report.findings.push(Finding::new(
            "unseeded-rng",
            "crates/x/src/lib.rs",
            3,
            "msg".to_owned(),
        ));
        let text = report.render_human();
        assert!(text.starts_with("crates/x/src/lib.rs:3: [unseeded-rng] msg\n"));
        assert!(text.contains("1 finding across 1 file"));
    }
}
