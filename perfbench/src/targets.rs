//! The benchmark's workloads: which figure drivers each one runs, what
//! it builds before the sweep, and how its rendered output is checked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use experiments::{fig1, fig2, fig3, fig4, fig5, fig6, mrc, sec54, sec56};
use trace_gen::arena::TraceArena;
use trace_gen::decomposed::DecomposedArena;

/// Reference digests of the rendered figure text, one line per
/// `events target digest`; regenerate with `--print-digests`.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Accuracy,
    Timing,
    Stream,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "accuracy" => Some(Workload::Accuracy),
            "timing" => Some(Workload::Timing),
            "stream" => Some(Workload::Stream),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Workload::Accuracy => "accuracy",
            Workload::Timing => "timing",
            Workload::Stream => "stream",
        }
    }

    pub const fn targets(self) -> &'static [Target] {
        match self {
            Workload::Accuracy | Workload::Stream => &[Target::Fig1, Target::Fig2, Target::Mrc],
            Workload::Timing => &[
                Target::Fig3,
                Target::Fig4,
                Target::Fig5,
                Target::Sec54,
                Target::Sec56,
                Target::Fig6,
            ],
        }
    }

    /// Simulated trace events of one sweep.
    pub fn simulated_events(self, events: usize) -> u64 {
        self.targets()
            .iter()
            .map(|t| t.simulated_events(events))
            .sum()
    }

    /// Builds every arena entry the sweep replays, through the same
    /// public lookups the drivers use. Streaming keeps nothing resident;
    /// its only set-up is constructing the generators it streams.
    pub fn set_up(self, events: usize) {
        match self {
            Workload::Accuracy => {
                for w in mrc::workload_suite() {
                    for (_, geom) in fig1::configurations() {
                        std::hint::black_box(experiments::decomposed_for(&w, &geom, events));
                    }
                }
            }
            Workload::Timing => {
                for w in workloads::suite() {
                    std::hint::black_box(experiments::trace_for(&w, events));
                }
                for w in sec56::jobs() {
                    for seed in [experiments::SEED, experiments::SEED + 1] {
                        std::hint::black_box(experiments::trace_for_seed(&w, seed, events));
                    }
                }
            }
            Workload::Stream => {
                for w in mrc::workload_suite() {
                    std::hint::black_box(w.source(experiments::SEED));
                }
            }
        }
    }
}

/// Drops every arena entry, so the next set-up starts cold.
pub fn clear_arenas() {
    TraceArena::global().clear();
    DecomposedArena::global().clear();
}

/// Arena builds so far: (traces materialized, traces decomposed).
pub fn arena_builds() -> (u64, u64) {
    (
        TraceArena::global().stats().misses,
        DecomposedArena::global().stats().1,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Fig1,
    Fig2,
    Mrc,
    Fig3,
    Fig4,
    Fig5,
    Sec54,
    Sec56,
    Fig6,
}

/// A driver's report, kept for rendering and for the traced run's
/// cross-checks.
#[derive(Debug)]
pub enum Report {
    Fig1(fig1::Fig1),
    Fig2(fig2::Fig2),
    Mrc(mrc::MrcRun),
    Fig3(fig3::Fig3),
    Fig4(fig4::Fig4),
    Fig5(fig5::Fig5),
    Sec54(sec54::Sec54),
    Sec56(sec56::Sec56),
    Fig6(fig6::Fig6),
}

impl Target {
    pub const fn name(self) -> &'static str {
        match self {
            Target::Fig1 => "fig1",
            Target::Fig2 => "fig2",
            Target::Mrc => "mrc",
            Target::Fig3 => "fig3",
            Target::Fig4 => "fig4",
            Target::Fig5 => "fig5",
            Target::Sec54 => "sec54",
            Target::Sec56 => "sec56",
            Target::Fig6 => "fig6",
        }
    }

    pub fn simulated_events(self, events: usize) -> u64 {
        match self {
            Target::Fig1 => fig1::simulated_events(events),
            Target::Fig2 => fig2::simulated_events(events),
            Target::Mrc => mrc::simulated_events(events),
            Target::Fig3 => fig3::simulated_events(events),
            Target::Fig4 => fig4::simulated_events(events),
            Target::Fig5 => fig5::simulated_events(events),
            Target::Sec54 => sec54::simulated_events(events),
            Target::Sec56 => sec56::simulated_events(events),
            Target::Fig6 => fig6::simulated_events(events),
        }
    }

    /// Runs the driver; a panic comes back as its message.
    pub fn run(self, events: usize) -> Result<Report, String> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Target::Fig1 => Report::Fig1(fig1::run(events)),
            Target::Fig2 => Report::Fig2(fig2::run(events)),
            Target::Mrc => Report::Mrc(mrc::run(events, None)),
            Target::Fig3 => Report::Fig3(fig3::run(events)),
            Target::Fig4 => Report::Fig4(fig4::run(events)),
            Target::Fig5 => Report::Fig5(fig5::run(events)),
            Target::Sec54 => Report::Sec54(sec54::run(events)),
            Target::Sec56 => Report::Sec56(sec56::run(events)),
            Target::Fig6 => Report::Fig6(fig6::run(events)),
        }))
        .map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_owned())
        })
    }
}

impl Report {
    pub const fn target(&self) -> Target {
        match self {
            Report::Fig1(_) => Target::Fig1,
            Report::Fig2(_) => Target::Fig2,
            Report::Mrc(_) => Target::Mrc,
            Report::Fig3(_) => Target::Fig3,
            Report::Fig4(_) => Target::Fig4,
            Report::Fig5(_) => Target::Fig5,
            Report::Sec54(_) => Target::Sec54,
            Report::Sec56(_) => Target::Sec56,
            Report::Fig6(_) => Target::Fig6,
        }
    }

    /// The report's rendered outputs, named as in the reference file:
    /// the table text, plus the JSONL document for the MRC family.
    pub fn render(&self) -> Vec<(String, String)> {
        let text = match self {
            Report::Fig1(r) => ("fig1", r.to_string()),
            Report::Fig2(r) => ("fig2", r.to_string()),
            Report::Mrc(r) => {
                return vec![
                    ("mrc".to_owned(), r.to_string()),
                    ("mrc.jsonl".to_owned(), r.to_jsonl()),
                ]
            }
            Report::Fig3(r) => ("fig3", r.to_string()),
            Report::Fig4(r) => ("fig4", r.to_string()),
            Report::Fig5(r) => ("fig5", r.to_string()),
            Report::Sec54(r) => ("sec54", r.to_string()),
            Report::Sec56(r) => ("sec56", r.to_string()),
            Report::Fig6(r) => ("fig6", r.to_string()),
        };
        vec![(text.0.to_owned(), text.1)]
    }
}

/// 64-bit FNV-1a: a stable digest with no dependency.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks one rendered output against the reference for `events`;
/// `Err` says why it does not match.
pub fn check_rendered(
    reference: &str,
    events: usize,
    name: &str,
    text: &str,
) -> Result<(), String> {
    let expected = reference.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(n), Some(t), Some(d)) if n == events.to_string() && t == name => Some(d),
            _ => None,
        }
    });
    let actual = format!("{:016x}", digest(text));
    match expected {
        None => Err(format!("no reference digest for {name} at {events} events")),
        Some(d) if d == actual => Ok(()),
        Some(d) => Err(format!("{name}: digest {actual}, reference {d}")),
    }
}

/// [`check_rendered`] against the committed reference digests.
pub fn check(events: usize, name: &str, text: &str) -> Result<(), String> {
    check_rendered(REFERENCE, events, name, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altered_table_is_caught() {
        let events = 2_000;
        let report = Target::Fig2.run(events).expect("fig2 runs");
        let (name, text) = report.render().remove(0);
        let reference = format!("{events} {name} {:016x}\n", digest(&text));
        assert_eq!(check_rendered(&reference, events, &name, &text), Ok(()));
        let altered = text.replacen('%', "#", 1);
        assert!(check_rendered(&reference, events, &name, &altered).is_err());
        assert!(check_rendered(&reference, events + 1, &name, &text).is_err());
    }

    #[test]
    fn committed_references_cover_every_output() {
        for target in [Workload::Accuracy, Workload::Timing]
            .iter()
            .flat_map(|w| w.targets())
        {
            let name = target.name();
            assert!(
                REFERENCE
                    .lines()
                    .any(|l| l.split_whitespace().nth(1) == Some(name)),
                "{name} has no reference digest"
            );
        }
    }
}
