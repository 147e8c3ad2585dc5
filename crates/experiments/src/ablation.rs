//! Ablations for the design choices DESIGN.md calls out, beyond the
//! paper's own figures:
//!
//! * **shadow-directory depth** — the paper's unevaluated "multiple
//!   evicted tags per set" option (§3): how much conflict-accuracy do
//!   deeper directories buy, per cache configuration?
//! * **CPU window** — the instruction-window choice (32) that sets the
//!   baseline's latency-hiding ability and hence every speedup in
//!   Figures 3–6;
//! * **buffer size** — the AMB's entry count around the paper's 8/16
//!   points.

use amb::{AmbConfig, AmbPolicy, AmbSystem};
use cpu_model::{BaselineSystem, CpuConfig, OooModel};
use mct::accuracy::AccuracyReport;
use mct::{ShadowDirectory, TagBits};
use sim_core::stats::GeoMean;
use workloads::{full_suite, suite};

use crate::table::{pct, speedup};
use crate::{fig1, Table};

/// Accuracy per (configuration, depth).
#[derive(Debug, Clone)]
pub struct DepthPoint {
    /// Cache configuration name.
    pub config: String,
    /// Shadow-directory depth (1 = the paper's MCT).
    pub depth: usize,
    /// Suite-wide accuracy.
    pub report: AccuracyReport,
}

/// Speedup per CPU window size.
#[derive(Debug, Clone)]
pub struct WindowPoint {
    /// Instruction-window size.
    pub window: u64,
    /// Suite-average baseline IPC.
    pub baseline_ipc: f64,
    /// Geomean VictPref speedup over the baseline at this window.
    pub victpref_speedup: f64,
}

/// Speedup per AMB buffer size.
#[derive(Debug, Clone)]
pub struct BufferPoint {
    /// Buffer entries.
    pub entries: usize,
    /// Geomean VicPreExc speedup over the no-buffer baseline.
    pub speedup: f64,
}

/// The three ablations.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Shadow-directory depth sweep.
    pub depths: Vec<DepthPoint>,
    /// CPU window sweep.
    pub windows: Vec<WindowPoint>,
    /// Buffer-size sweep.
    pub buffers: Vec<BufferPoint>,
    /// Events per workload.
    pub events: usize,
}

/// The swept shadow-directory depths.
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];
/// The swept CPU windows.
pub const WINDOWS: [u64; 5] = [8, 16, 32, 64, 128];
/// The swept buffer sizes.
pub const BUFFERS: [usize; 5] = [2, 4, 8, 16, 32];

fn depth_sweep(events: usize) -> Vec<DepthPoint> {
    let mut cells = Vec::new();
    for (name, geom) in fig1::configurations() {
        for depth in DEPTHS {
            cells.push((name.clone(), geom, depth));
        }
    }
    // The four depths of each geometry share one cache kernel.
    let passes: Vec<Vec<AccuracyReport>> = crate::par_map(full_suite(), |w| {
        crate::accuracy_cells(
            "ablation",
            &w,
            events,
            |i| {
                let (config, _, depth) = &cells[i];
                format!("depth/{config}-d{depth}/{}", w.name())
            },
            None,
            cells.iter().map(|&(_, geom, depth)| {
                (
                    geom,
                    ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth),
                )
            }),
        )
    });
    cells
        .into_iter()
        .enumerate()
        .map(|(i, (config, _, depth))| {
            let mut report = AccuracyReport::default();
            for reports in &passes {
                report.merge(&reports[i]);
            }
            DepthPoint {
                config,
                depth,
                report,
            }
        })
        .collect()
}

fn window_sweep(events: usize) -> Vec<WindowPoint> {
    let benchmarks = suite();
    crate::par_map(WINDOWS.to_vec(), |window| {
        let cpu = OooModel::new(CpuConfig {
            window,
            ..CpuConfig::paper_default()
        });
        let mut ipc_sum = 0.0;
        let mut mean = GeoMean::default();
        for w in &benchmarks {
            let run = |sys: &mut dyn cpu_model::MemorySystem| {
                crate::telemetry::record_events(events as u64);
                cpu.run(&mut &mut *sys, crate::events_for(w, crate::SEED, events))
            };
            let mut base = BaselineSystem::paper_default().expect("paper config");
            let base_report = crate::probe::cell(
                "ablation",
                || format!("window/w{window}-base/{}", w.name()),
                || run(&mut base),
            );
            ipc_sum += base_report.ipc();
            let mut amb = AmbSystem::paper_default(AmbConfig::new(AmbPolicy::VictPref))
                .expect("paper config");
            let amb_report = crate::probe::cell(
                "ablation",
                || format!("window/w{window}-victpref/{}", w.name()),
                || run(&mut amb),
            );
            mean.push(amb_report.speedup_over(&base_report));
        }
        WindowPoint {
            window,
            baseline_ipc: ipc_sum / benchmarks.len() as f64,
            victpref_speedup: mean.mean(),
        }
    })
}

fn buffer_sweep(events: usize) -> Vec<BufferPoint> {
    let benchmarks = suite();
    let cpu = OooModel::new(CpuConfig::paper_default());
    let baselines: Vec<_> = benchmarks
        .iter()
        .map(|w| {
            crate::probe::cell(
                "ablation",
                || format!("buffer/base/{}", w.name()),
                || {
                    let mut base = BaselineSystem::paper_default().expect("paper config");
                    crate::drive(&mut base, w, events)
                },
            )
        })
        .collect();
    crate::par_map(BUFFERS.to_vec(), |entries| {
        let mut mean = GeoMean::default();
        for (w, base) in benchmarks.iter().zip(&baselines) {
            let report = crate::probe::cell(
                "ablation",
                || format!("buffer/e{entries}/{}", w.name()),
                || {
                    let cfg = AmbConfig {
                        entries,
                        ..AmbConfig::new(AmbPolicy::VicPreExc)
                    };
                    let mut sys = AmbSystem::paper_default(cfg).expect("paper config");
                    crate::telemetry::record_events(events as u64);
                    cpu.run(&mut sys, crate::events_for(w, crate::SEED, events))
                },
            );
            mean.push(report.speedup_over(base));
        }
        BufferPoint {
            entries,
            speedup: mean.mean(),
        }
    })
}

/// Trace events the three ablations simulate: the depth sweep (one
/// pass per configuration × depth × workload), the window sweep (a
/// baseline and a VictPref run per window × workload), and the buffer
/// sweep (shared baselines plus one run per size × workload).
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    let depth = fig1::configurations().len() * DEPTHS.len() * full_suite().len();
    let window = WINDOWS.len() * 2 * suite().len();
    let buffer = (1 + BUFFERS.len()) * suite().len();
    ((depth + window + buffer) * events) as u64
}

/// Runs all three ablations.
#[must_use]
pub fn run(events: usize) -> Ablation {
    Ablation {
        depths: depth_sweep(events),
        windows: window_sweep(events),
        buffers: buffer_sweep(events),
        events,
    }
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation A: shadow-directory depth (multiple evicted tags per set, paper §3) ({} events/workload)\n",
            self.events
        )?;
        let mut t = Table::new(vec![
            "config".into(),
            "depth".into(),
            "conflict acc%".into(),
            "capacity acc%".into(),
        ]);
        for p in &self.depths {
            t.row(vec![
                p.config.clone(),
                p.depth.to_string(),
                pct(p.report.conflict.value()),
                pct(p.report.capacity.value()),
            ]);
        }
        write!(f, "{t}")?;

        writeln!(
            f,
            "\nAblation B: CPU instruction window (DESIGN.md choice: 32)\n"
        )?;
        let mut t = Table::new(vec![
            "window".into(),
            "baseline IPC".into(),
            "VictPref speedup".into(),
        ]);
        for p in &self.windows {
            t.row(vec![
                p.window.to_string(),
                format!("{:.3}", p.baseline_ipc),
                speedup(p.victpref_speedup),
            ]);
        }
        write!(f, "{t}")?;

        writeln!(f, "\nAblation C: AMB buffer size (VicPreExc)\n")?;
        let mut t = Table::new(vec!["entries".into(), "speedup".into()]);
        for p in &self.buffers {
            t.row(vec![p.entries.to_string(), speedup(p.speedup)]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_directories_only_help_conflict_accuracy() {
        let points = depth_sweep(4_000);
        // Within each configuration, conflict accuracy is
        // non-decreasing in depth (a superset of tags can only match
        // more).
        for config in points
            .iter()
            .map(|p| p.config.clone())
            .collect::<std::collections::BTreeSet<_>>()
        {
            let series: Vec<&DepthPoint> = points.iter().filter(|p| p.config == config).collect();
            for pair in series.windows(2) {
                assert!(
                    pair[1].report.conflict.value() >= pair[0].report.conflict.value() - 0.01,
                    "{config}: depth {} -> {} dropped conflict accuracy",
                    pair[0].depth,
                    pair[1].depth
                );
            }
        }
    }

    #[test]
    fn smaller_windows_hide_less_latency() {
        let points = window_sweep(5_000);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.baseline_ipc > first.baseline_ipc,
            "IPC must grow with window"
        );
    }

    #[test]
    fn display_renders() {
        let a = run(2_000);
        let s = a.to_string();
        assert!(s.contains("Ablation A"));
        assert!(s.contains("Ablation C"));
    }
}
