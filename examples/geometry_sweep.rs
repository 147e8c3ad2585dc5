//! Sweep cache geometries and watch the conflict/capacity mix — and
//! the MCT's accuracy — change shape.
//!
//! The paper chose its 16 KB direct-mapped L1 "to create an
//! interesting mix of conflict and capacity misses for the simulated
//! workload"; this example shows what that choice looks like from the
//! MCT's perspective across sizes and associativities, plus the
//! demand-miss latency distribution of the baseline system.
//!
//! Run with: `cargo run --release --example geometry_sweep -- gcc`

use conflict_miss_repro::cache_model::CacheGeometry;
use conflict_miss_repro::cpu_model::{BaselineSystem, CpuConfig, OooModel, Plumbing};
use conflict_miss_repro::mct::accuracy::AccuracyEvaluator;
use conflict_miss_repro::mct::TagBits;
use conflict_miss_repro::workloads;

const EVENTS: usize = 200_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_owned());
    let Some(workload) = workloads::by_name(&name) else {
        eprintln!("unknown workload '{name}'");
        std::process::exit(1);
    };
    println!("workload {workload}: {}\n", workload.description());

    println!(
        "{:<14} {:>7} {:>10} {:>12} {:>12}",
        "geometry", "miss%", "conflict%", "conf-acc%", "cap-acc%"
    );
    for kb in [4u64, 8, 16, 32, 64, 128] {
        for ways in [1u32, 2, 4] {
            let Ok(geom) = CacheGeometry::new(kb * 1024, ways, 64) else {
                continue;
            };
            let mut eval = AccuracyEvaluator::new(geom, TagBits::Full);
            let mut src = workload.source(1);
            for _ in 0..EVENTS {
                eval.observe(src.next_event().access.addr.line(64));
            }
            let r = eval.report();
            // The MCT labels every miss: conflict where it agreed with
            // an oracle conflict or overrode an oracle capacity miss.
            let conflict =
                r.conflict.numerator() + r.capacity.denominator() - r.capacity.numerator();
            let conflict_share = if r.misses == 0 {
                0.0
            } else {
                100.0 * conflict as f64 / r.misses as f64
            };
            println!(
                "{:<14} {:>6.1}% {:>9.1}% {:>11.1}% {:>11.1}%",
                format!("{kb}KB {ways}-way"),
                100.0 * r.misses as f64 / r.accesses as f64,
                conflict_share,
                r.conflict.percent(),
                r.capacity.percent(),
            );
        }
    }

    // Latency observability: where do this workload's misses go?
    let mut sys = BaselineSystem::new(
        CacheGeometry::new(16 * 1024, 1, 64)?,
        Plumbing::paper_default()?,
    );
    let cpu = OooModel::new(CpuConfig::paper_default());
    let mut src = workload.source(1);
    let trace = std::iter::from_fn(move || Some(src.next_event())).take(EVENTS);
    let report = cpu.run(&mut sys, trace);
    let lat = sys.plumbing().demand_latency();
    println!(
        "\nbaseline on 16KB DM: IPC {:.3}, {} demand misses",
        report.ipc(),
        lat.count()
    );
    println!(
        "demand-miss latency: mean {:.1}, p50 {:.0}, p90 {:.0}, p99 {:.0}, max {} cycles",
        lat.mean(),
        lat.percentile(0.5),
        lat.percentile(0.9),
        lat.percentile(0.99),
        lat.max()
    );
    println!(
        "L2 hit rate behind those misses: {:.1}%",
        100.0 * sys.plumbing().l2().l2_stats().hit_rate()
    );
    Ok(())
}
