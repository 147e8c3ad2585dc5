//! Miss-ratio curves as a second ground truth (`repro --mrc`).
//!
//! The paper's classification ground truth is the three-C oracle: a
//! fully-associative LRU shadow cache of equal capacity, consulted
//! per miss. A miss-ratio curve (MRC) computes the same quantity from
//! the other direction — a single pass over the reference stream
//! recording every access's LRU *stack distance* yields the
//! fully-associative miss ratio at **every** capacity at once
//! (Mattson et al., 1970). The two must agree wherever they overlap:
//! the MRC's miss ratio at a geometry's line capacity is exactly the
//! oracle's compulsory + capacity miss rate for that geometry.
//!
//! This driver runs one accuracy pass ([`crate::replay_accuracy`]) per
//! workload (the SPEC95-analog suite plus the kernel-taxonomy
//! patterns) that feeds the workload's curve ([`CurveBuilder`]) and
//! its MCT cells at every [`crate::fig1::configurations`] geometry.
//! It evaluates each curve on a fixed capacity ladder and
//! cross-checks it against the MCT cells: per (configuration, workload)
//! cell it reports the MRC-derived capacity-miss estimate next to the
//! fraction of misses the MCT *labelled* capacity. The gap between
//! the two columns is the MCT's capacity-side classification error,
//! measured against an independent ground truth that shares no code
//! with the three-C oracle.
//!
//! With `--mrc-sample R` the curve comes from the SHARDS fixed-rate
//! spatial sampler, which keeps O(sampled lines) state. The MCT cells
//! still read their three-C verdicts off exact stack distances, so
//! under `--stream` each pass holds one chunk, the exact engine's line
//! index and the sampled index, regardless of trace length.

use cache_model::CacheGeometry;
use mct::accuracy::AccuracyReport;
use mct::{MissClassificationTable, TagBits};
use mrc::{CurvePoint, DistanceHistogram, ShardsEngine};
use workloads::Workload;

use crate::telemetry::{json_f64, json_string};
use crate::Table;

/// The capacity ladder (in lines) every curve is evaluated at. It
/// includes both paper geometry capacities — 256 lines (16 KB, 64 B
/// lines) and 1024 lines (64 KB) — so the cross-check cells can read
/// their estimate straight off the curve.
pub const CAPACITY_LADDER: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// The workloads the MRC family covers: the full SPEC95-analog suite
/// plus the kernel-taxonomy patterns (`uniform`,
/// `working_set_{128,512}`).
#[must_use]
pub fn workload_suite() -> Vec<Workload> {
    let mut all = workloads::full_suite();
    all.extend(workloads::taxonomy_suite());
    all
}

/// One workload's miss-ratio curve on [`CAPACITY_LADDER`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCurve {
    /// Workload name.
    pub workload: String,
    /// Events replayed.
    pub events: u64,
    /// Events admitted past the spatial filter (equals `events` for
    /// the exact engine).
    pub sampled_events: u64,
    /// Distinct lines held by the engine — its memory footprint in
    /// index entries.
    pub distinct_lines: u64,
    /// `(capacity_lines, miss_ratio)` per ladder rung.
    pub points: Vec<CurvePoint>,
}

impl WorkloadCurve {
    /// The curve's miss ratio at `capacity_lines`, if that capacity is
    /// on the ladder.
    #[must_use]
    pub fn at(&self, capacity_lines: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.capacity_lines == capacity_lines)
            .map(|p| p.miss_ratio)
    }
}

/// One (configuration, workload) cross-check cell: the MRC's
/// capacity-miss estimate next to the MCT's capacity labelling.
#[derive(Debug, Clone)]
pub struct CapacityCell {
    /// Configuration name (fig1 naming, e.g. `16KB DM`).
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// The configuration's line capacity (sets × ways).
    pub capacity_lines: u64,
    /// MRC estimate: fraction of accesses whose stack distance is at
    /// least `capacity_lines` (or cold) — the fully-associative miss
    /// ratio, i.e. the compulsory + capacity miss rate.
    pub mrc_miss_ratio: f64,
    /// Fraction of accesses the MCT labelled capacity misses.
    pub mct_capacity_ratio: f64,
    /// The real set-associative cache's miss ratio.
    pub real_miss_ratio: f64,
}

impl CapacityCell {
    /// `|mrc − mct|`: the capacity-side classification gap.
    #[must_use]
    pub fn gap(&self) -> f64 {
        (self.mrc_miss_ratio - self.mct_capacity_ratio).abs()
    }
}

/// The full MRC family output.
#[derive(Debug, Clone)]
pub struct MrcRun {
    /// `None` for the exact engine, `Some(rate)` for SHARDS.
    pub sample: Option<f64>,
    /// Events per workload.
    pub events: usize,
    /// Per-workload curves, in suite order.
    pub curves: Vec<WorkloadCurve>,
    /// Cross-check cells, configuration-major in fig1 order.
    pub cells: Vec<CapacityCell>,
}

/// Trace events this family simulates: one curve pass per workload
/// plus one MCT pass per (configuration, workload) cell.
#[must_use]
pub fn simulated_events(events: usize) -> u64 {
    let suite = workload_suite().len();
    ((crate::fig1::configurations().len() + 1) * suite * events) as u64
}

/// `miss_ratio` evaluated on [`CAPACITY_LADDER`].
fn ladder_points(miss_ratio: impl Fn(u64) -> f64) -> Vec<CurvePoint> {
    CAPACITY_LADDER
        .iter()
        .map(|&c| CurvePoint {
            capacity_lines: c,
            miss_ratio: miss_ratio(c),
        })
        .collect()
}

/// One workload's curve as a consumer of its accuracy pass
/// ([`crate::replay_accuracy`]): the exact engine's histogram, read
/// off the pass's stack distances, or a SHARDS engine fed the pass's
/// line addresses.
#[derive(Debug)]
pub struct CurveBuilder {
    workload: String,
    events: usize,
    geom: CacheGeometry,
    engine: CurveEngine,
}

#[derive(Debug)]
enum CurveEngine {
    Exact(DistanceHistogram),
    Sampled(ShardsEngine),
}

impl CurveBuilder {
    /// A curve for `events` events of `workload`, over lines of
    /// `geom`'s size: exact for `sample = None`, SHARDS at rate `R`
    /// for `Some(R)`.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is not a rate in `(0, 1]` (the CLI
    /// validates it).
    #[must_use]
    pub fn new(
        workload: &Workload,
        events: usize,
        geom: CacheGeometry,
        sample: Option<f64>,
    ) -> Self {
        let engine = match sample {
            None => CurveEngine::Exact(DistanceHistogram::new()),
            Some(rate) => CurveEngine::Sampled(
                ShardsEngine::new(rate).expect("sample rate validated by the CLI"),
            ),
        };
        CurveBuilder {
            workload: workload.name().to_owned(),
            events,
            geom,
            engine,
        }
    }

    /// The finished curve on [`CAPACITY_LADDER`].
    #[must_use]
    pub fn finish(self) -> WorkloadCurve {
        let (sampled_events, distinct_lines, points) = match &self.engine {
            // Every distinct line is cold exactly once.
            CurveEngine::Exact(hist) => (
                hist.total(),
                hist.cold(),
                ladder_points(|c| hist.miss_ratio(c)),
            ),
            CurveEngine::Sampled(engine) => (
                engine.sampled_events(),
                engine.distinct_sampled_lines(),
                ladder_points(|c| engine.miss_ratio(c)),
            ),
        };
        WorkloadCurve {
            workload: self.workload,
            events: self.events as u64,
            sampled_events,
            distinct_lines,
            points,
        }
    }
}

impl crate::PassConsumer for CurveBuilder {
    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn observe(&mut self, sets: &[u32], tags: &[u64], distances: &[u32]) {
        match &mut self.engine {
            CurveEngine::Exact(hist) => hist.record_distances(distances),
            CurveEngine::Sampled(engine) => {
                engine.record_parts_block(sets, tags, self.geom.set_bits());
            }
        }
    }
}

/// Runs the MRC family: one accuracy pass per workload feeds its
/// curve and its MCT cross-check cells over the fig1 geometry sweep.
#[must_use]
pub fn run(events: usize, sample: Option<f64>) -> MrcRun {
    let configs = crate::fig1::configurations();
    // All fig1 geometries share 64 B lines, so the curve reads the
    // same stack distances as the cells; the 16 KB DM split serves
    // SHARDS, whose filter keys on the line address alone.
    let base = configs[0].1;
    let passes: Vec<(WorkloadCurve, Vec<AccuracyReport>)> = crate::par_map(workload_suite(), |w| {
        let mut curve = CurveBuilder::new(&w, events, base, sample);
        let reports = crate::accuracy_cells(
            "mrc",
            &w,
            events,
            |i| match i {
                0 => format!("curve/{}", w.name()),
                i => format!("{}/{}", configs[i - 1].0, w.name()),
            },
            Some(&mut curve),
            configs.iter().map(|&(_, geom)| {
                (
                    geom,
                    MissClassificationTable::new(geom.num_sets(), TagBits::Full),
                )
            }),
        );
        (curve.finish(), reports)
    });

    let mut cells = Vec::new();
    for (c, (name, geom)) in configs.iter().enumerate() {
        let capacity = geom.num_lines() as u64;
        for (curve, reports) in &passes {
            let r = &reports[c];
            let accesses = r.accesses.max(1) as f64;
            // The MCT labels every miss Conflict or Capacity, so its
            // capacity-labelled count is the oracle-non-conflict
            // agreements plus the oracle-conflict disagreements.
            let mct_capacity =
                r.capacity.numerator() + (r.conflict.denominator() - r.conflict.numerator());
            cells.push(CapacityCell {
                config: name.clone(),
                workload: curve.workload.clone(),
                capacity_lines: capacity,
                mrc_miss_ratio: curve.at(capacity).unwrap_or_else(|| {
                    unreachable!("geometry capacity missing from CAPACITY_LADDER")
                }),
                mct_capacity_ratio: mct_capacity as f64 / accesses,
                real_miss_ratio: r.misses as f64 / accesses,
            });
        }
    }
    MrcRun {
        sample,
        events,
        curves: passes.into_iter().map(|(curve, _)| curve).collect(),
        cells,
    }
}

impl MrcRun {
    /// `"exact"` or `"sampled"`.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.sample.is_some() {
            "sampled"
        } else {
            "exact"
        }
    }

    /// Renders the run as `mrc-repro/1` JSONL: a header line, one
    /// `curve` record per workload, one `cell` record per
    /// cross-check cell.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":{},\"mode\":{},\"sample_rate\":{},\"events\":{},\"workloads\":{},\"cells\":{}}}\n",
            json_string(sim_core::registry::SCHEMA_MRC),
            json_string(self.mode()),
            json_f64(self.sample.unwrap_or(1.0)),
            self.events,
            self.curves.len(),
            self.cells.len(),
        ));
        for c in &self.curves {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| format!("[{},{}]", p.capacity_lines, json_f64(p.miss_ratio)))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"curve\",\"workload\":{},\"events\":{},\"sampled_events\":{},\"distinct_lines\":{},\"points\":[{}]}}\n",
                json_string(&c.workload),
                c.events,
                c.sampled_events,
                c.distinct_lines,
                points.join(","),
            ));
        }
        for cell in &self.cells {
            out.push_str(&format!(
                "{{\"type\":\"cell\",\"config\":{},\"workload\":{},\"capacity_lines\":{},\"mrc_miss_ratio\":{},\"mct_capacity_ratio\":{},\"real_miss_ratio\":{}}}\n",
                json_string(&cell.config),
                json_string(&cell.workload),
                cell.capacity_lines,
                json_f64(cell.mrc_miss_ratio),
                json_f64(cell.mct_capacity_ratio),
                json_f64(cell.real_miss_ratio),
            ));
        }
        out
    }
}

fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

impl std::fmt::Display for MrcRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Miss-ratio curves ({} engine{}, {} events/workload)\n",
            self.mode(),
            self.sample.map(|r| format!(", R={r}")).unwrap_or_default(),
            self.events
        )?;
        let mut header = vec!["workload".to_owned(), "lines".to_owned()];
        header.extend(CAPACITY_LADDER.iter().map(|c| format!("{c}L miss%")));
        let mut curve_table = Table::new(header);
        for c in &self.curves {
            let mut row = vec![c.workload.clone(), c.distinct_lines.to_string()];
            row.extend(c.points.iter().map(|p| pct(p.miss_ratio)));
            curve_table.row(row);
        }
        write!(f, "{curve_table}")?;

        writeln!(
            f,
            "\nMRC capacity-miss estimate vs. MCT capacity labelling\n"
        )?;
        let mut cross = Table::new(
            [
                "config",
                "lines",
                "avg MRC%",
                "avg MCT cap%",
                "max gap%",
                "worst workload",
            ]
            .map(str::to_owned)
            .to_vec(),
        );
        for (config, _) in crate::fig1::configurations() {
            let cells: Vec<&CapacityCell> =
                self.cells.iter().filter(|c| c.config == config).collect();
            if cells.is_empty() {
                continue;
            }
            let n = cells.len() as f64;
            let avg_mrc = cells.iter().map(|c| c.mrc_miss_ratio).sum::<f64>() / n;
            let avg_mct = cells.iter().map(|c| c.mct_capacity_ratio).sum::<f64>() / n;
            let worst = cells
                .iter()
                .max_by(|a, b| a.gap().total_cmp(&b.gap()))
                .expect("non-empty cells");
            cross.row(vec![
                config,
                cells[0].capacity_lines.to_string(),
                pct(avg_mrc),
                pct(avg_mct),
                pct(worst.gap()),
                worst.workload.clone(),
            ]);
        }
        write!(f, "{cross}")?;
        writeln!(
            f,
            "\nMRC column = fully-associative miss ratio at the geometry's capacity\n(compulsory + capacity); the gap is the MCT's capacity-side labelling error."
        )
    }
}

/// Renders a human-readable report of an `mrc-repro/1` JSONL
/// document — the logic behind `obs mrc FILE`.
///
/// Tolerance matches [`crate::obs::summarize`]: a torn final line (a
/// crash mid-write) and record lines from a foreign schema are
/// skipped with a warning; an unparseable interior line, a wrong or
/// missing header, or an empty file are errors.
///
/// # Errors
///
/// Returns a message when the input is empty, has a non-`mrc-repro/1`
/// header, or contains an unparseable non-final line.
pub fn render(text: &str) -> Result<String, String> {
    use crate::jsonl::{self, Value};

    let mut warnings: Vec<String> = Vec::new();
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut values = Vec::with_capacity(lines.len());
    for (pos, &(lineno, line)) in lines.iter().enumerate() {
        match jsonl::parse(line) {
            Ok(v) => values.push(v),
            Err(e) if pos + 1 == lines.len() => {
                warnings.push(format!("skipped torn final line {}: {e}", lineno + 1));
            }
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    let header = values.first().ok_or("empty mrc file")?;
    let schema = header.str_field("schema").unwrap_or("<missing>");
    if schema != sim_core::registry::SCHEMA_MRC {
        return Err(format!(
            "expected schema {}, found {schema}",
            sim_core::registry::SCHEMA_MRC
        ));
    }
    let mode = header.str_field("mode").unwrap_or("?").to_owned();

    struct CurveRow {
        workload: String,
        distinct_lines: u64,
        points: Vec<(u64, f64)>,
    }
    let mut curves: Vec<CurveRow> = Vec::new();
    let mut cells: Vec<CapacityCell> = Vec::new();
    let mut foreign = 0u64;
    for v in &values[1..] {
        match v.str_field("type") {
            Some("curve") => {
                let points = v
                    .get("points")
                    .and_then(Value::as_array)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|p| {
                                let p = p.as_array()?;
                                Some((p.first()?.as_u64()?, p.get(1)?.as_f64()?))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                curves.push(CurveRow {
                    workload: v.str_field("workload").unwrap_or("?").to_owned(),
                    distinct_lines: v.u64_field("distinct_lines").unwrap_or(0),
                    points,
                });
            }
            Some("cell") => {
                let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                cells.push(CapacityCell {
                    config: v.str_field("config").unwrap_or("?").to_owned(),
                    workload: v.str_field("workload").unwrap_or("?").to_owned(),
                    capacity_lines: v.u64_field("capacity_lines").unwrap_or(0),
                    mrc_miss_ratio: f("mrc_miss_ratio"),
                    mct_capacity_ratio: f("mct_capacity_ratio"),
                    real_miss_ratio: f("real_miss_ratio"),
                });
            }
            _ => foreign += 1,
        }
    }
    if foreign > 0 {
        warnings.push(format!(
            "skipped {foreign} foreign/unrecognized record line(s)"
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{}  mode={mode}{}  events/workload={}  curves={}  cells={}\n",
        sim_core::registry::SCHEMA_MRC,
        if mode == "sampled" {
            header
                .get("sample_rate")
                .and_then(Value::as_f64)
                .map(|r| format!(" rate={r}"))
                .unwrap_or_default()
        } else {
            String::new()
        },
        header.u64_field("events").unwrap_or(0),
        curves.len(),
        cells.len(),
    ));
    for w in &warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out.push('\n');

    // Column ladder: the union of capacities across curves, in first
    // appearance order (every emitter uses one ladder for all curves).
    let mut ladder: Vec<u64> = Vec::new();
    for c in &curves {
        for &(cap, _) in &c.points {
            if !ladder.contains(&cap) {
                ladder.push(cap);
            }
        }
    }
    if !curves.is_empty() {
        let mut header = vec!["workload".to_owned(), "lines".to_owned()];
        header.extend(ladder.iter().map(|c| format!("{c}L miss%")));
        let mut table = Table::new(header);
        for c in &curves {
            let mut row = vec![c.workload.clone(), c.distinct_lines.to_string()];
            for cap in &ladder {
                row.push(
                    c.points
                        .iter()
                        .find(|(pc, _)| pc == cap)
                        .map(|&(_, r)| pct(r))
                        .unwrap_or_else(|| "-".to_owned()),
                );
            }
            table.row(row);
        }
        out.push_str(&table.to_string());
    }

    if !cells.is_empty() {
        out.push_str("\nMRC capacity-miss estimate vs. MCT capacity labelling\n");
        let mut table = Table::new(
            [
                "config",
                "workload",
                "lines",
                "MRC%",
                "MCT cap%",
                "real miss%",
                "gap%",
            ]
            .map(str::to_owned)
            .to_vec(),
        );
        for c in &cells {
            table.row(vec![
                c.config.clone(),
                c.workload.clone(),
                c.capacity_lines.to_string(),
                pct(c.mrc_miss_ratio),
                pct(c.mct_capacity_ratio),
                pct(c.real_miss_ratio),
                pct(c.gap()),
            ]);
        }
        out.push_str(&table.to_string());

        let worst = cells
            .iter()
            .max_by(|a, b| a.gap().total_cmp(&b.gap()))
            .expect("non-empty cells");
        out.push_str(&format!(
            "\nworst capacity-labelling gap: {} on {} ({} lines): {} pp\n",
            worst.workload,
            worst.config,
            worst.capacity_lines,
            pct(worst.gap()),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_covers_paper_geometries() {
        for (_, geom) in crate::fig1::configurations() {
            assert!(
                CAPACITY_LADDER.contains(&(geom.num_lines() as u64)),
                "{} lines missing from ladder",
                geom.num_lines()
            );
        }
    }

    #[test]
    fn small_run_has_sane_shape() {
        let run = run(2_000, None);
        let suite = workload_suite().len();
        assert_eq!(run.curves.len(), suite);
        assert_eq!(run.cells.len(), 4 * suite);
        for c in &run.curves {
            assert_eq!(c.points.len(), CAPACITY_LADDER.len());
            // Miss ratios fall (weakly) as capacity grows.
            for pair in c.points.windows(2) {
                assert!(pair[1].miss_ratio <= pair[0].miss_ratio + 1e-12);
            }
        }
        let display = run.to_string();
        assert!(display.contains("tomcatv"));
        assert!(display.contains("working_set_512"));
        assert!(display.contains("16KB DM"));
    }

    #[test]
    fn sampled_run_reports_reduced_state() {
        let exact = run(2_000, None);
        let sampled = run(2_000, Some(0.05));
        assert_eq!(sampled.mode(), "sampled");
        let sum = |r: &MrcRun| r.curves.iter().map(|c| c.distinct_lines).sum::<u64>();
        assert!(
            sum(&sampled) < sum(&exact),
            "sampling should shrink the resident index ({} vs {})",
            sum(&sampled),
            sum(&exact)
        );
    }

    #[test]
    fn render_round_trips_a_run() {
        let run = run(1_500, None);
        let report = render(&run.to_jsonl()).expect("renderable");
        assert!(report.contains("mrc-repro/1  mode=exact"), "{report}");
        assert!(report.contains("tomcatv"), "{report}");
        assert!(report.contains("16KB DM"), "{report}");
        assert!(report.contains("worst capacity-labelling gap"), "{report}");
    }

    #[test]
    fn render_rejects_bad_input() {
        assert!(render("").unwrap_err().contains("empty mrc file"));
        let err = render("{\"schema\":\"obs-repro/1\"}\n").unwrap_err();
        assert!(err.contains("mrc-repro/1"), "{err}");
        // Torn interior line is an error; torn final line a warning.
        let good = run(1_000, Some(0.5)).to_jsonl();
        let mut torn_final = good.clone();
        torn_final.push_str("{\"type\":\"cell\",\"conf");
        let report = render(&torn_final).expect("tolerated");
        assert!(report.contains("skipped torn final line"), "{report}");
        let mut torn_middle = String::from("{\"type\nonsense\n");
        torn_middle.insert_str(0, good.lines().next().unwrap());
        assert!(render(&torn_middle).is_err());
    }

    #[test]
    fn render_warns_on_foreign_records() {
        let mut text = run(1_000, None).to_jsonl();
        text.push_str("{\"type\":\"span\",\"scope\":\"cell\"}\n{\"type\":\"totals\"}\n");
        let report = render(&text).expect("tolerated");
        assert!(
            report.contains("skipped 2 foreign/unrecognized record line(s)"),
            "{report}"
        );
    }

    #[test]
    fn jsonl_header_carries_canonical_schema() {
        let run = run(1_000, Some(0.5));
        let jsonl = run.to_jsonl();
        let values = crate::jsonl::parse_lines(&jsonl).expect("valid jsonl");
        assert_eq!(
            values[0].str_field("schema"),
            sim_core::registry::canonical_schema("mrc")
        );
        assert_eq!(values[0].str_field("mode"), Some("sampled"));
        assert_eq!(values.len(), 1 + run.curves.len() + run.cells.len());
    }
}
