//! The canonical contract registry: one authoritative home for every
//! cross-crate string contract the workspace's tools agree on.
//!
//! Three families of contracts used to be duplicated across crates —
//! machine-readable schema identifiers (`bench-repro/2`, …) spelled
//! inline at every emit and parse site, span-name prefixes defined in
//! [`crate::span`] *and* privately mirrored inside `simlint`, and
//! criterion bench-group prefixes living only inside `simlint`. Drift
//! between the copies was caught (at best) by golden tests after the
//! fact. This module is the single definition; everything else —
//! `span.rs`'s runtime check, the `experiments` writers and readers,
//! and all of `simlint`'s registry-aware rules (`span-name`,
//! `bench-prefix`, `registry-drift`) — consumes it.
//!
//! The module is data plus tiny total predicates: no I/O, no
//! allocation, no dependencies, so `simlint` can link it while staying
//! buildable before anything else in the offline CI container.

/// Schema identifier of the bench report (`repro --bench-json`).
pub const SCHEMA_BENCH: &str = "bench-repro/2";

/// Schema identifier of the probe JSONL stream (`repro --probe`).
pub const SCHEMA_OBS: &str = "obs-repro/1";

/// Schema identifier of the span trace JSONL (`repro --trace-out`).
pub const SCHEMA_TRACE: &str = "trace-repro/1";

/// Schema identifier of the checkpoint JSONL (`repro --checkpoint`).
pub const SCHEMA_FAULT: &str = "fault-repro/1";

/// Schema identifier of the lint JSONL (`simlint --json`).
pub const SCHEMA_LINT: &str = "lint-repro/2";

/// Schema identifier of the miss-ratio-curve JSONL (`repro --mrc`).
pub const SCHEMA_MRC: &str = "mrc-repro/1";

/// Every current schema identifier, sorted by family name.
pub const SCHEMAS: [&str; 6] = [
    SCHEMA_BENCH,
    SCHEMA_FAULT,
    SCHEMA_LINT,
    SCHEMA_MRC,
    SCHEMA_OBS,
    SCHEMA_TRACE,
];

/// The canonical identifier for a schema family (`"bench"`, `"obs"`,
/// `"trace"`, `"fault"`, `"lint"`, `"mrc"`), or `None` for an unknown
/// family.
///
/// A schema string is spelled `<family>-repro/<version>`; the family
/// resolves which current identifier a given spelling must match.
#[must_use]
pub fn canonical_schema(family: &str) -> Option<&'static str> {
    match family {
        "bench" => Some(SCHEMA_BENCH),
        "obs" => Some(SCHEMA_OBS),
        "trace" => Some(SCHEMA_TRACE),
        "fault" => Some(SCHEMA_FAULT),
        "lint" => Some(SCHEMA_LINT),
        "mrc" => Some(SCHEMA_MRC),
        _ => None,
    }
}

/// Registered span-name prefixes, one per instrumented component.
/// Every name passed to [`crate::span::enter`] or
/// [`crate::span::scope`] must start with one of these; the simlint
/// `span-name` rule enforces it at call sites and
/// `obs verify-trace` re-checks emitted streams.
///
/// `arena_` marks warm-up: the trace arena's `arena_materialize`, the
/// decomposed arena's `arena_decompose`, and the stack-distance memo's `arena_distances`, all opened as `arena`
/// subsystem scopes apart from the figure cells they serve.
pub const SPAN_NAME_PREFIXES: [&str; 8] = [
    "arena_", "cell_", "fault_", "fig_", "probe_", "replay_", "sched_", "sweep_",
];

/// Whether `name` carries a registered span-name prefix (see
/// [`SPAN_NAME_PREFIXES`]).
#[must_use]
pub fn span_name_registered(name: &str) -> bool {
    SPAN_NAME_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Layer prefixes a criterion benchmark group name may carry, from
/// ROADMAP item 5: the prefix names the layer a group exercises, so
/// bench reports and CI deltas stay navigable as groups accumulate.
/// The simlint `bench-prefix` rule enforces this at
/// `benchmark_group(..)` call sites.
pub const BENCH_GROUP_PREFIXES: [&str; 6] = [
    "kernel_",
    "trace_",
    "probe_",
    "sched_",
    "figure_",
    "substrate/",
];

/// Whether `name` carries a registered bench-group layer prefix (see
/// [`BENCH_GROUP_PREFIXES`]).
#[must_use]
pub fn bench_group_registered(name: &str) -> bool {
    BENCH_GROUP_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The registered hot entry points: the function names through which
/// every simulated event flows during replay. A panic or heap
/// allocation in code *reachable* from any of these aborts or stalls
/// a multi-hour sweep, so simlint's graph rules (`transitive-panic`,
/// `hot-path-alloc`) walk the workspace call graph starting here.
///
/// Registration is by function name, not path: the kernel's batched
/// and per-event forms all funnel through these (the
/// accuracy sweeps through the `*_with_truth` forms, which take their
/// three-C verdicts from the stack-distance memo), and a
/// new crate that defines a function with one of these names opts
/// straight into the hot-path contract.
pub const HOT_ENTRY_POINTS: [&str; 12] = [
    "access_block",
    "access_block_with",
    "access_parts",
    "access_parts_block",
    "fill_at",
    "fill_parts",
    "observe_block",
    "observe_block_with_truth",
    "observe_parts",
    "observe_parts_with_truth",
    "peek_at",
    "probe_at",
];

/// Whether `name` is a registered hot entry point (see
/// [`HOT_ENTRY_POINTS`]).
#[must_use]
pub fn hot_entry_point(name: &str) -> bool {
    HOT_ENTRY_POINTS.contains(&name)
}

/// Name suffixes marking a *cold escape*: a function spelled
/// `..._slow` or `..._cold` is the guarded slow path of a
/// zero-overhead-when-disabled facility (`probe::emit` →
/// `emit_slow`), entered only behind an armed check. The hot-path
/// graph rules stop traversal at these functions — the armed-check
/// discipline (enforced separately by `probe-guard`) is what keeps
/// them off the replay fast path, so their allocations are by design.
pub const COLD_FN_SUFFIXES: [&str; 2] = ["_cold", "_slow"];

/// Whether `name` is a registered cold escape (see
/// [`COLD_FN_SUFFIXES`]).
#[must_use]
pub fn cold_fn(name: &str) -> bool {
    COLD_FN_SUFFIXES.iter().any(|s| name.ends_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_are_family_slash_version_shaped() {
        for schema in SCHEMAS {
            let (family, version) = schema.split_once("-repro/").expect("shape");
            assert!(!family.is_empty() && family.chars().all(|c| c.is_ascii_lowercase()));
            assert!(!version.is_empty() && version.chars().all(|c| c.is_ascii_digit()));
            assert_eq!(canonical_schema(family), Some(schema));
        }
        assert_eq!(canonical_schema("amb"), None);
    }

    #[test]
    fn prefix_predicates() {
        assert!(span_name_registered("replay_block"));
        assert!(span_name_registered("arena_distances"));
        assert!(!span_name_registered("mystery_phase"));
        assert!(bench_group_registered("substrate/cache_kernel"));
        assert!(bench_group_registered("figure_drivers"));
        assert!(!bench_group_registered("misc"));
    }

    #[test]
    fn entry_points_cover_the_kernel_and_mct_forms() {
        for name in [
            "access_block",
            "observe_block",
            "observe_block_with_truth",
            "fill_at",
        ] {
            assert!(hot_entry_point(name));
        }
        assert!(!hot_entry_point("render_table"));
        assert!(cold_fn("emit_slow"));
        assert!(cold_fn("refill_cold"));
        assert!(!cold_fn("emit"));
        // Sorted, so diagnostics listing them read deterministically.
        let mut sorted = HOT_ENTRY_POINTS;
        sorted.sort_unstable();
        assert_eq!(sorted, HOT_ENTRY_POINTS);
    }
}
