//! Figure 2: classification accuracy when only the low bits of the
//! evicted tag are stored, on the 16 KB direct-mapped cache.
//!
//! Paper reference points: very little accuracy is lost with 8 bits;
//! with 1 bit, conflict accuracy is artificially high and capacity
//! accuracy low (but even a single bit excludes nearly half of
//! capacity misses).

use cache_model::CacheGeometry;
use mct::accuracy::AccuracyReport;
use mct::{MissClassificationTable, TagBits};
use workloads::full_suite;

use crate::table::{pct, pct_ratio};
use crate::Table;

/// One point of the tag-bit sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Tag width at this point.
    pub bits: TagBits,
    /// Suite-wide accuracy.
    pub report: AccuracyReport,
}

/// The Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// The sweep, in increasing tag width, ending with the full tag.
    pub points: Vec<SweepPoint>,
    /// Events simulated per workload.
    pub events: usize,
}

/// The tag widths swept (the paper's x-axis, plus the full tag).
#[must_use]
pub fn widths() -> Vec<TagBits> {
    let mut v: Vec<TagBits> = [1u32, 2, 3, 4, 6, 8, 10, 12, 14, 16]
        .into_iter()
        .map(TagBits::Low)
        .collect();
    v.push(TagBits::Full);
    v
}

/// Runs the Figure 2 experiment with `events` references per
/// workload: one accuracy pass per workload feeds every tag width,
/// all classifying one cache kernel's misses.
#[must_use]
pub fn run(events: usize) -> Fig2 {
    let geom = CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry is valid");
    let widths = widths();
    let passes: Vec<Vec<AccuracyReport>> = crate::par_map(full_suite(), |w| {
        crate::accuracy_cells(
            "fig2",
            &w,
            events,
            |i| format!("{}/{}", widths[i], w.name()),
            None,
            widths
                .iter()
                .map(|&bits| (geom, MissClassificationTable::new(geom.num_sets(), bits))),
        )
    });
    let points = widths
        .iter()
        .enumerate()
        .map(|(i, &bits)| {
            let mut report = AccuracyReport::default();
            for reports in &passes {
                report.merge(&reports[i]);
            }
            SweepPoint { bits, report }
        })
        .collect();
    Fig2 { points, events }
}

/// Trace events this figure simulates: one pass per (tag-width,
/// workload) cell.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    (widths().len() * full_suite().len() * events) as u64
}

impl std::fmt::Display for Fig2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 2: accuracy vs saved tag bits, 16KB DM ({} events/workload)\n",
            self.events
        )?;
        let mut table = Table::new(vec![
            "tag bits".into(),
            "conflict acc%".into(),
            "capacity acc%".into(),
            "overall%".into(),
        ]);
        for p in &self.points {
            table.row(vec![
                p.bits.to_string(),
                pct_ratio(p.report.conflict),
                pct_ratio(p.report.capacity),
                pct(p.report.overall()),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\npaper: ~8 bits ≈ full accuracy; 1 bit skews toward conflict"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_one_bit_to_full() {
        let w = widths();
        assert_eq!(w.first(), Some(&TagBits::Low(1)));
        assert_eq!(w.last(), Some(&TagBits::Full));
    }

    #[test]
    fn monotone_shape_on_small_run() {
        let fig = run(3_000);
        let first = &fig.points.first().unwrap().report;
        let last = &fig.points.last().unwrap().report;
        // 1 bit: conflict accuracy at least as high as full tags,
        // capacity accuracy lower.
        assert!(first.conflict.value() >= last.conflict.value() - 0.02);
        assert!(first.capacity.value() <= last.capacity.value());
        let display = fig.to_string();
        assert!(display.contains("full tag"));
    }
}
