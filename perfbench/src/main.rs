//! The repository's benchmark: end-to-end throughput, set-up time and
//! memory of the figure sweeps, and per-layer attribution in a separate
//! traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload accuracy|timing|stream --seed N --seconds S --trace 0|1
//! perfbench --workload W --print-digests
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod targets;
mod traced;

use std::process::ExitCode;

use experiments::telemetry::{self, Stopwatch};
use trace_gen::arena::TraceArena;

use layers::{Layer, Tracer};
use targets::{Report, Workload};
use traced::{SimCounts, Traced};

/// Trace events per workload. The reference digests are taken at this
/// size; the drivers fix the seed at `experiments::SEED`.
const EVENTS: usize = 100_000;

/// Every sweep is preceded by a cold set-up, repeated until the repeats
/// take this long, so that the sub-millisecond streaming set-up is
/// sampled as steadily as the arena builds. `setup_s` is the median of
/// all of a run's set-ups, which are spread over the whole run.
const SETUP_SLICE_SECONDS: f64 = 0.05;

/// The traced run flags a workload whose unattributed share exceeds this.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_digests,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, from the kernel's `VmHWM`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// One untraced sweep: every target of the workload, run and rendered.
#[derive(Debug)]
struct Sweep {
    wall_s: f64,
    reports: Vec<Report>,
    attempted: u64,
    failed: u64,
}

fn sweep(workload: Workload, events: usize, problems: &mut Vec<String>) -> Sweep {
    let before = telemetry::events_simulated();
    let clock = Stopwatch::start();
    let mut outcomes = Vec::new();
    for &target in workload.targets() {
        let outcome = target.run(events).map(|report| {
            let rendered = report.render();
            (report, rendered)
        });
        outcomes.push((target, outcome));
    }
    let wall_s = clock.elapsed_seconds();

    let simulated = telemetry::events_simulated() - before;
    if simulated != workload.simulated_events(events) {
        problems.push(format!(
            "event accounting: drivers recorded {simulated} events, the formulas give {}",
            workload.simulated_events(events)
        ));
    }
    let mut sweep = Sweep {
        wall_s,
        reports: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for (target, outcome) in outcomes {
        sweep.attempted += 1;
        match outcome {
            Ok((report, rendered)) => {
                let mut ok = true;
                for (name, text) in &rendered {
                    if let Err(e) = targets::check(events, name, text) {
                        problems.push(e);
                        ok = false;
                    }
                }
                sweep.failed += u64::from(!ok);
                sweep.reports.push(report);
            }
            Err(msg) => {
                problems.push(format!("{} panicked: {msg}", target.name()));
                sweep.failed += 1;
            }
        }
    }
    sweep
}

/// Times cold set-ups, each after clearing both arenas, until they add
/// up to `SETUP_SLICE_SECONDS`; returns each one's time in seconds.
fn set_up(workload: Workload, events: usize) -> Vec<f64> {
    let mut times = Vec::new();
    while times.iter().sum::<f64>() < SETUP_SLICE_SECONDS {
        targets::clear_arenas();
        let clock = Stopwatch::start();
        workload.set_up(events);
        times.push(clock.elapsed_seconds());
    }
    times
}

/// Whether another sweep of the typical length still fits in the run.
fn another_sweep(clock: &Stopwatch, walls: &[f64], seconds: f64) -> bool {
    walls.is_empty() || clock.elapsed_seconds() + median(walls) <= seconds
}

/// Checks that the sweeps built nothing the set-up did not: any arena
/// build in a sweep would move its cost from `setup_s` into
/// `events_per_s`. Streaming must leave nothing resident at all.
fn check_setup_split(workload: Workload, builds: (u64, u64), problems: &mut Vec<String>) {
    let now = targets::arena_builds();
    if workload == Workload::Stream {
        if TraceArena::global().stats().traces != 0 || now.1 != 0 {
            problems.push("stream: a sweep left arena entries resident".to_owned());
        }
    } else if now != builds {
        problems.push(format!(
            "set-up split: sweeps built arena entries (materialized, decomposed) {now:?} after set-up built {builds:?}"
        ));
    }
}

struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn end_to_end(args: &Args, problems: &mut Vec<String>) -> Output {
    let (mut attempted, mut failed) = (0, 0);
    let (mut setups, mut walls, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Stopwatch::start();
    while another_sweep(&clock, &rounds, args.seconds) {
        let round = Stopwatch::start();
        setups.extend(set_up(args.workload, EVENTS));
        let builds = targets::arena_builds();
        let s = sweep(args.workload, EVENTS, problems);
        check_setup_split(args.workload, builds, problems);
        attempted += s.attempted;
        failed += s.failed;
        walls.push(s.wall_s);
        rounds.push(round.elapsed_seconds());
    }
    let events = args.workload.simulated_events(EVENTS) as f64;
    let rates: Vec<f64> = walls.iter().map(|w| events / w).collect();
    let failed_share = failed as f64 / attempted as f64;
    println!(
        "{} sweeps at {:?} events/s, failed_share = {failed_share} fraction",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    Output {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("events_per_s".to_owned(), median(&rates), "events/s"),
            ("setup_s".to_owned(), median(&setups), "s"),
            (
                "peak_rss_mib".to_owned(),
                peak_rss_mib().unwrap_or(0.0),
                "MiB",
            ),
            ("passed_share".to_owned(), 1.0 - failed_share, "fraction"),
        ],
    }
}

/// The traced set-up: the arena entries the sweep replays, built through
/// the arenas' public lookups with the generator wrapped in a timer, so
/// set-up time splits into generation, materialization and
/// decomposition.
fn traced_set_up(workload: Workload, events: usize) -> Tracer {
    use trace_gen::arena::ArenaKey;

    targets::clear_arenas();
    let mut tracer = Tracer::new();
    let materialize = |tracer: &mut Tracer, w: &workloads::Workload, seed: u64| {
        let mut generate = layers::LayerStat::default();
        let sampler = tracer.sampler();
        let t0 = telemetry::trace_clock_ns();
        let stat = &mut generate;
        let trace = TraceArena::global()
            .get_or_materialize(ArenaKey::new(w.name(), seed, events), move || {
                layers::TimedSource::new(w.source(seed), stat, sampler)
            });
        let total = tracer.since(t0);
        tracer.charge(Layer::Generate, 1, generate.events, generate.busy_ns);
        tracer.charge(
            Layer::Arena,
            1,
            trace.len() as u64,
            total - generate.busy_ns,
        );
    };
    match workload {
        Workload::Accuracy => {
            for w in experiments::mrc::workload_suite() {
                materialize(&mut tracer, &w, experiments::SEED);
                for (_, geom) in experiments::fig1::configurations() {
                    tracer.time(Layer::Decomposed, 1, events as u64, || {
                        experiments::decomposed_for(&w, &geom, events)
                    });
                }
            }
        }
        Workload::Timing => {
            for w in workloads::suite() {
                materialize(&mut tracer, &w, experiments::SEED);
            }
            for w in experiments::sec56::jobs() {
                for seed in [experiments::SEED, experiments::SEED + 1] {
                    materialize(&mut tracer, &w, seed);
                }
            }
        }
        Workload::Stream => {
            for w in experiments::mrc::workload_suite() {
                tracer.time(Layer::Generate, 1, 0, || w.source(experiments::SEED));
            }
        }
    }
    tracer
}

fn traced(args: &Args, problems: &mut Vec<String>) -> Output {
    let setup_clock = Stopwatch::start();
    let setup = traced_set_up(args.workload, EVENTS);
    let setup_wall = setup_clock.elapsed_seconds();
    let builds = targets::arena_builds();

    let mut replay = Traced::new(EVENTS);
    let (mut attempted, mut failed) = (0, 0);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut sim: Option<SimCounts> = None;
    let mut rounds = Vec::new();
    let clock = Stopwatch::start();
    while another_sweep(&clock, &rounds, args.seconds) {
        let round = Stopwatch::start();
        let s = sweep(args.workload, EVENTS, problems);
        attempted += s.attempted;
        failed += s.failed;
        untraced_walls.push(s.wall_s);

        replay.sim = SimCounts::default();
        let calibration = replay.calibration_ns;
        let wall = Stopwatch::start();
        for report in &s.reports {
            let before = replay.mismatches.len();
            replay.replay(report);
            attempted += 1;
            failed += u64::from(replay.mismatches.len() > before);
        }
        traced_walls.push(wall.elapsed_seconds() - (replay.calibration_ns - calibration) * 1e-9);
        if sim.is_some_and(|prev| prev != replay.sim) {
            problems.push("simulated counts differ between traced sweeps".to_owned());
        }
        sim = Some(replay.sim);
        rounds.push(round.elapsed_seconds());
    }
    problems.extend(replay.mismatches.iter().cloned());
    check_setup_split(args.workload, builds, problems);
    let sim = sim.unwrap_or_default();

    let sweeps = traced_walls.len() as f64;
    let traced_wall: f64 = traced_walls.iter().sum();
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let s = replay.tracer.stat(layer);
        let busy_s = s.busy_ns * 1e-9;
        attributed += busy_s;
        let name = layer.name();
        metrics.push((format!("{name}.calls"), s.calls as f64 / sweeps, "count"));
        metrics.push((format!("{name}.busy_s"), busy_s / sweeps, "s"));
        metrics.push((format!("{name}.share"), busy_s / traced_wall, "fraction"));
        let rate = if busy_s > 0.0 {
            s.events as f64 / busy_s
        } else {
            0.0
        };
        metrics.push((format!("{name}.events_per_s"), rate, "events/s"));
    }
    for layer in [Layer::Generate, Layer::Arena, Layer::Decomposed] {
        metrics.push((
            format!("setup.{}.busy_s", layer.name()),
            setup.stat(layer).busy_ns * 1e-9,
            "s",
        ));
    }
    metrics.push(("setup.wall_s".to_owned(), setup_wall, "s"));

    let arena = TraceArena::global().stats();
    let (dec_hits, dec_misses) = trace_gen::decomposed::DecomposedArena::global().stats();
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    metrics.push((
        "trace.arena.hit_ratio".to_owned(),
        ratio(arena.hits, arena.misses),
        "fraction",
    ));
    metrics.push((
        "trace.decomposed.hit_ratio".to_owned(),
        ratio(dec_hits, dec_misses),
        "fraction",
    ));
    let unattributed = 1.0 - attributed / traced_wall;
    metrics.push(("unattributed_share".to_owned(), unattributed, "fraction"));
    let overhead = median(&traced_walls) / median(&untraced_walls);
    metrics.push(("trace_overhead".to_owned(), overhead, "ratio"));
    for (name, value) in [
        ("sim.accesses", sim.accesses),
        ("sim.misses", sim.misses),
        ("sim.instructions", sim.instructions),
        ("sim.cycles", sim.cycles),
    ] {
        metrics.push((name.to_owned(), value as f64, "count"));
    }
    println!(
        "clock read pair {:.1} ns; {} traced sweeps; per-layer figures are per sweep and their shares are of the traced \
         wall, which runs {overhead:.3}x the untraced wall",
        replay.tracer.clock_ns(),
        traced_walls.len()
    );
    if unattributed > UNATTRIBUTED_LIMIT {
        println!(
            "ATTRIBUTION: {} leaves {:.1}% of the traced wall unattributed (limit {:.0}%)",
            args.workload.name(),
            unattributed * 100.0,
            UNATTRIBUTED_LIMIT * 100.0
        );
    }
    Output {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload accuracy|timing|stream \
                 [--seed N] [--seconds S] [--trace 0|1] [--print-digests]"
            );
            return ExitCode::from(2);
        }
    };
    // One simulator worker thread, so host time is not split across
    // workers and the drivers' cells run in a fixed order.
    sim_core::parallel::set_max_threads(1);
    experiments::set_stream_mode(args.workload == Workload::Stream);

    if args.print_digests {
        for &target in args.workload.targets() {
            let report = match target.run(EVENTS) {
                Ok(report) => report,
                Err(msg) => {
                    eprintln!("perfbench: {} panicked: {msg}", target.name());
                    return ExitCode::FAILURE;
                }
            };
            for (name, text) in report.render() {
                println!("{EVENTS} {name} {:016x}", targets::digest(&text));
            }
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "workload {} (seed {} requested; the drivers fix the seed at {}), {EVENTS} events per \
         trace, 1 worker thread, caches cold in every cell",
        args.workload.name(),
        args.seed,
        experiments::SEED
    );
    let mut problems = Vec::new();
    let output = if args.trace {
        traced(&args, &mut problems)
    } else {
        end_to_end(&args, &mut problems)
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    output.print();
    ExitCode::SUCCESS
}
