//! The traced sweep: replays every cell of a workload's figure drivers
//! from the benchmark's own code, timing each call into a layer's public
//! entry points, and checks that the replay reproduces the drivers'
//! reports exactly.
//!
//! Accuracy cells run the same decomposed trace through
//! `AccuracyEvaluator::observe_block` (the sweep's path) and, outside the
//! traced wall, through a bare `ThreeCClassifier`, a bare `SetAssocCache`
//! and a bare `ClassifyingCache`. Those calibration passes split the
//! evaluator's time into oracle, kernel and MCT; what is left is the
//! evaluator's own cost (`core.accuracy`). CPU-model cells wrap the memory
//! system in [`TimedMemory`] and the event source in [`TimedEvents`]; the
//! CPU model's self time is the run's wall minus both.

use std::hint::black_box;
use std::sync::Arc;

use ::mrc::StackDistanceEngine;
use amb::{AmbConfig, AmbPolicy, AmbSystem};
use cache_model::oracle::ThreeCClassifier;
use cache_model::{CacheGeometry, L2MemoryConfig, SetAssocCache};
use cpu_model::{BaselineSystem, CpuConfig, CpuReport, MemorySystem, OooModel, Plumbing, SmtModel};
use exclusion::{ExclusionConfig, ExclusionPolicy, ExclusionSystem};
use experiments::telemetry::trace_clock_ns;
use experiments::{fig1, fig2, fig3, fig4, fig5, fig6, mrc, sec54, sec56, SEED};
use mct::accuracy::{AccuracyEvaluator, AccuracyReport};
use mct::{BlockClass, ClassifyingCache, TagBits};
use prefetcher::{NextLineSystem, PrefetchConfig};
use pseudo_assoc::{PseudoAssocSystem, PseudoConfig, PseudoPolicy};
use sim_core::stats::GeoMean;
use sim_core::Addr;
use trace_gen::TraceEvent;
use victim_cache::{VictimConfig, VictimPolicy, VictimSystem};
use workloads::Workload;

use crate::layers::{Layer, LayerStat, TimedEvents, TimedMemory, Tracer};
use crate::targets::Report;

/// Simulated totals of a traced sweep; they repeat exactly run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub accesses: u64,
    pub misses: u64,
    pub instructions: u64,
    pub cycles: u64,
}

#[derive(Debug)]
pub struct Traced {
    pub tracer: Tracer,
    /// Host time of the calibration passes, kept out of the traced wall.
    pub calibration_ns: f64,
    pub sim: SimCounts,
    /// Replay results that differ from the drivers' reports.
    pub mismatches: Vec<String>,
    events: usize,
    /// Trace events fed to simulators by the current target.
    fed: u64,
}

impl Traced {
    pub fn new(events: usize) -> Traced {
        Traced {
            tracer: Tracer::new(),
            calibration_ns: 0.0,
            sim: SimCounts::default(),
            mismatches: Vec::new(),
            events,
            fed: 0,
        }
    }

    /// Replays the cells of `report`'s target, checking them against
    /// `report` (the untraced driver's output), then renders `report`.
    pub fn replay(&mut self, report: &Report) {
        self.fed = 0;
        match report {
            Report::Fig1(r) => self.fig1(r),
            Report::Fig2(r) => self.fig2(r),
            Report::Mrc(r) => self.mrc(r),
            Report::Fig3(r) => self.fig3(r),
            Report::Fig4(r) => self.fig4(r),
            Report::Fig5(r) => self.fig5(r),
            Report::Sec54(r) => self.sec54(r),
            Report::Sec56(r) => self.sec56(r),
            Report::Fig6(r) => self.fig6(r),
        }
        let target = report.target();
        let expected = target.simulated_events(self.events);
        if self.fed != expected {
            self.mismatches.push(format!(
                "{}: replay fed {} events, the driver counts {expected}",
                target.name(),
                self.fed
            ));
        }
        self.tracer
            .time(Layer::Render, 1, expected, || black_box(report.render()));
    }

    // ---- accuracy replay -------------------------------------------------

    /// Feeds `w`'s `(set, tag)` stream for `geom` to `f`: the whole
    /// arena-resident decomposition, or, in stream mode, generated
    /// chunks of `experiments::STREAM_CHUNK` events.
    fn for_each_chunk(
        &mut self,
        w: &Workload,
        geom: &CacheGeometry,
        mut f: impl FnMut(&mut Self, &[u32], &[u64]),
    ) {
        let events = self.events;
        if !experiments::stream_mode() {
            let trace = self.tracer.time(Layer::Decomposed, 1, events as u64, || {
                experiments::decomposed_for(w, geom, events)
            });
            f(self, trace.sets(), trace.tags());
            return;
        }
        let chunk = experiments::STREAM_CHUNK.min(events);
        let (line_size, set_bits) = (geom.line_size(), geom.set_bits());
        let mask = (1u64 << set_bits) - 1;
        let mut sets = vec![0u32; chunk];
        let mut tags = vec![0u64; chunk];
        let mut source = self.tracer.time(Layer::Generate, 1, 0, || w.source(SEED));
        let mut left = events;
        while left > 0 {
            let n = chunk.min(left);
            self.tracer.time(Layer::Generate, 0, n as u64, || {
                for (set, tag) in sets[..n].iter_mut().zip(&mut tags[..n]) {
                    let line = source.next_event().access.addr.line(line_size).raw();
                    *set = (line & mask) as u32;
                    *tag = line >> set_bits;
                }
            });
            f(self, &sets[..n], &tags[..n]);
            left -= n;
        }
    }

    /// One evaluator cell, plus its calibration passes.
    fn accuracy_cell(
        &mut self,
        w: &Workload,
        geom: CacheGeometry,
        bits: TagBits,
    ) -> AccuracyReport {
        let block = experiments::replay_block_size();
        let mut eval = self
            .tracer
            .time(Layer::Accuracy, 0, 0, || AccuracyEvaluator::new(geom, bits));
        let mut oracle = ThreeCClassifier::new(geom.num_lines());
        let mut kernel = SetAssocCache::<bool>::new(geom);
        let mut mct = ClassifyingCache::new(geom, bits);
        let mut classes = Vec::with_capacity(block);
        self.for_each_chunk(w, &geom, |t, sets, tags| {
            let n = sets.len() as u64;
            let blocks = sets.len().div_ceil(block) as u64;
            let t0 = trace_clock_ns();
            for (s, tg) in sets.chunks(block).zip(tags.chunks(block)) {
                eval.observe_block(s, tg);
            }
            let eval_ns = t.tracer.since(t0);

            let c0 = trace_clock_ns();
            let t0 = trace_clock_ns();
            for (&set, &tag) in sets.iter().zip(tags) {
                black_box(oracle.observe(geom.line_from_parts(tag, set as usize)));
            }
            let oracle_ns = t.tracer.since(t0);
            let mut kernel_calls = 0u64;
            let t0 = trace_clock_ns();
            for (&set, &tag) in sets.iter().zip(tags) {
                kernel_calls += 1;
                if kernel.probe_at(set as usize, tag).is_none() {
                    kernel_calls += 1;
                    black_box(kernel.fill_at(set as usize, tag, false));
                }
            }
            let kernel_ns = t.tracer.since(t0);
            let t0 = trace_clock_ns();
            for (s, tg) in sets.chunks(block).zip(tags.chunks(block)) {
                classes.clear();
                classes.resize(s.len(), BlockClass::Hit);
                mct.access_parts_block(s, tg, &mut classes);
            }
            black_box(&classes);
            let classifying_ns = t.tracer.since(t0);
            t.calibration_ns += trace_clock_ns().saturating_sub(c0) as f64;

            t.tracer.charge(Layer::Oracle, n, n, oracle_ns);
            t.tracer.charge(Layer::Kernel, kernel_calls, n, kernel_ns);
            t.tracer
                .charge(Layer::Mct, blocks, n, classifying_ns - kernel_ns);
            t.tracer.charge(
                Layer::Accuracy,
                blocks,
                n,
                eval_ns - oracle_ns - classifying_ns,
            );
            t.fed += n;
        });
        let report = self.tracer.time(Layer::Accuracy, 0, 0, || eval.finish());
        self.sim.accesses += report.accesses;
        self.sim.misses += report.misses;
        report
    }

    fn fig1(&mut self, r: &fig1::Fig1) {
        for (c, (_, geom)) in fig1::configurations().into_iter().enumerate() {
            for (i, w) in workloads::full_suite().iter().enumerate() {
                let report = self.accuracy_cell(w, geom, TagBits::Full);
                if r.configs[c].benchmarks[i].1 != report {
                    self.mismatch("fig1", &format!("{}/{}", r.configs[c].name, w.name()));
                }
            }
        }
    }

    fn fig2(&mut self, r: &fig2::Fig2) {
        let geom = fig1::configurations()[0].1;
        for (p, bits) in fig2::widths().into_iter().enumerate() {
            let mut total = AccuracyReport::default();
            for w in workloads::full_suite() {
                total.merge(&self.accuracy_cell(&w, geom, bits));
            }
            if r.points[p].report != total {
                self.mismatch("fig2", &bits.to_string());
            }
        }
    }

    fn mrc(&mut self, r: &mrc::MrcRun) {
        let block = experiments::replay_block_size();
        let configs = fig1::configurations();
        let base = configs[0].1;
        for (i, w) in mrc::workload_suite().iter().enumerate() {
            let mut engine = self
                .tracer
                .time(Layer::MrcExact, 0, 0, StackDistanceEngine::new);
            self.for_each_chunk(w, &base, |t, sets, tags| {
                for (s, tg) in sets.chunks(block).zip(tags.chunks(block)) {
                    t.tracer.time(Layer::MrcExact, 1, s.len() as u64, || {
                        engine.record_parts_block(s, tg, base.set_bits());
                    });
                }
                t.fed += sets.len() as u64;
            });
            let same = r.curves[i]
                .points
                .iter()
                .all(|p| p.miss_ratio == engine.miss_ratio(p.capacity_lines));
            if !same {
                self.mismatch("mrc", &format!("curve/{}", w.name()));
            }
        }
        let suite = mrc::workload_suite();
        for (c, (name, geom)) in configs.into_iter().enumerate() {
            for (i, w) in suite.iter().enumerate() {
                let report = self.accuracy_cell(w, geom, TagBits::Full);
                let cell = &r.cells[c * suite.len() + i];
                if cell.real_miss_ratio != report.misses as f64 / report.accesses.max(1) as f64 {
                    self.mismatch("mrc", &format!("{name}/{}", w.name()));
                }
            }
        }
    }

    // ---- CPU-model replay ------------------------------------------------

    fn mismatch(&mut self, target: &str, cell: &str) {
        self.mismatches.push(format!(
            "{target}: traced replay differs from the report at {cell}"
        ));
    }

    /// Builds a memory system, charging its construction to `layer`.
    fn build<M, E: std::fmt::Debug>(
        &mut self,
        layer: Layer,
        f: impl FnOnce() -> Result<M, E>,
    ) -> M {
        self.tracer
            .time(layer, 0, 0, f)
            .expect("paper configuration is valid")
    }

    /// The arena-resident trace of `(w, seed)`, as the drivers look it up.
    fn trace(&mut self, w: &Workload, seed: u64) -> Arc<[TraceEvent]> {
        let events = self.events;
        self.tracer.time(Layer::Arena, 1, 0, || {
            experiments::trace_for_seed(w, seed, events)
        })
    }

    /// Runs `trace` through `sys` under the paper's CPU model.
    fn run_cpu<M: MemorySystem>(
        &mut self,
        layer: Layer,
        sys: M,
        trace: &[TraceEvent],
    ) -> (CpuReport, M) {
        let mut shim = TimedMemory::new(sys, self.tracer.sampler());
        let mut source = LayerStat::default();
        let sampler = self.tracer.sampler();
        let cpu = OooModel::new(CpuConfig::paper_default());
        let t0 = trace_clock_ns();
        let report = cpu.run(
            &mut shim,
            TimedEvents::new(trace.iter().copied(), &mut source, sampler),
        );
        let total = self.tracer.since(t0);
        self.tracer.charge(
            Layer::CpuModel,
            1,
            trace.len() as u64,
            total - shim.stat.busy_ns - source.busy_ns,
        );
        self.tracer
            .charge(layer, shim.stat.calls, shim.stat.events, shim.stat.busy_ns);
        self.tracer
            .charge(Layer::Arena, 0, source.events, source.busy_ns);
        self.sim.accesses += shim.stat.calls;
        self.sim.instructions += report.instructions;
        self.sim.cycles += report.cycles;
        self.fed += trace.len() as u64;
        (report, shim.inner)
    }

    /// [`Self::run_cpu`] over `w`'s arena trace, as the drivers' `drive`.
    fn drive<M: MemorySystem>(&mut self, layer: Layer, sys: M, w: &Workload) -> (CpuReport, M) {
        let trace = self.trace(w, SEED);
        self.run_cpu(layer, sys, &trace)
    }

    fn baseline(&mut self, w: &Workload) -> CpuReport {
        let sys = self.build(Layer::CpuBaseline, BaselineSystem::paper_default);
        let (report, sys) = self.drive(Layer::CpuBaseline, sys, w);
        self.sim.misses += sys.l1_stats().misses();
        report
    }

    /// A figure of one baseline plus assist-system cells per workload,
    /// reported as geometric-mean speedups per configuration; `cells`
    /// runs one workload's configurations in the report's order.
    fn assist_figure(
        &mut self,
        name: &str,
        expected: &[f64],
        mut cells: impl FnMut(&mut Self, &Workload) -> Vec<CpuReport>,
    ) {
        let suite = workloads::suite();
        let baselines: Vec<CpuReport> = suite.iter().map(|w| self.baseline(w)).collect();
        let per_workload: Vec<Vec<CpuReport>> = suite.iter().map(|w| cells(self, w)).collect();
        self.check_speedups(name, expected, &baselines, &per_workload);
    }

    /// Checks geometric-mean speedups over the baselines, configuration
    /// by configuration, against the report's.
    fn check_speedups(
        &mut self,
        name: &str,
        expected: &[f64],
        baselines: &[CpuReport],
        per_workload: &[Vec<CpuReport>],
    ) {
        for (k, &want) in expected.iter().enumerate() {
            let mut mean = GeoMean::default();
            for (reports, base) in per_workload.iter().zip(baselines) {
                mean.push(reports[k].speedup_over(base));
            }
            if mean.mean() != want {
                self.mismatch(name, &format!("configuration {k}"));
            }
        }
    }

    fn fig3(&mut self, r: &fig3::Fig3) {
        let expected: Vec<f64> = r.policies.iter().map(|p| p.mean_speedup).collect();
        self.assist_figure("fig3", &expected, |t, w| {
            VictimPolicy::ALL
                .iter()
                .map(|&p| {
                    let sys = t.build(Layer::Victim, || {
                        VictimSystem::paper_default(VictimConfig::new(p))
                    });
                    t.drive(Layer::Victim, sys, w).0
                })
                .collect()
        });
    }

    fn fig5(&mut self, r: &fig5::Fig5) {
        let expected: Vec<f64> = r.policies.iter().map(|p| p.mean_speedup).collect();
        self.assist_figure("fig5", &expected, |t, w| {
            ExclusionPolicy::ALL
                .iter()
                .map(|&p| {
                    let sys = t.build(Layer::Exclusion, || {
                        ExclusionSystem::paper_default(ExclusionConfig::new(p))
                    });
                    t.drive(Layer::Exclusion, sys, w).0
                })
                .collect()
        });
    }

    fn fig6(&mut self, r: &fig6::Fig6) {
        let expected: Vec<f64> = r.results.iter().map(|p| p.mean_speedup).collect();
        self.assist_figure("fig6", &expected, |t, w| {
            let mut reports = Vec::new();
            for entries in [8usize, 16] {
                for policy in AmbPolicy::ALL {
                    let cfg = if entries == 8 {
                        AmbConfig::new(policy)
                    } else {
                        AmbConfig::large(policy)
                    };
                    let sys = t.build(Layer::Amb, || AmbSystem::paper_default(cfg));
                    reports.push(t.drive(Layer::Amb, sys, w).0);
                }
            }
            reports
        });
    }

    fn fig4(&mut self, r: &fig4::Fig4) {
        let suite = workloads::suite();
        let mut baselines = Vec::new();
        for w in &suite {
            let sys = self.build(Layer::CpuBaseline, || {
                L2MemoryConfig::paper_slow_bus().map(|l2| {
                    BaselineSystem::new(
                        CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry"),
                        Plumbing::new(cpu_model::MemTimings::paper_default(), l2),
                    )
                })
            });
            let (report, sys) = self.drive(Layer::CpuBaseline, sys, w);
            self.sim.misses += sys.l1_stats().misses();
            baselines.push(report);
        }
        let mut per_workload = Vec::new();
        for w in &suite {
            let mut reports = Vec::new();
            for filter in fig4::strategies() {
                let cfg = match filter {
                    None => PrefetchConfig::unfiltered(),
                    Some(f) => PrefetchConfig::filtered(f),
                };
                let sys = self.build(Layer::Prefetch, || NextLineSystem::paper_slow_bus(cfg));
                reports.push(self.drive(Layer::Prefetch, sys, w).0);
            }
            per_workload.push(reports);
        }
        let expected: Vec<f64> = r.strategies.iter().map(|s| s.mean_speedup).collect();
        self.check_speedups("fig4", &expected, &baselines, &per_workload);
    }

    fn sec54(&mut self, r: &sec54::Sec54) {
        let (mut over_base, mut over_two) = (GeoMean::default(), GeoMean::default());
        for w in workloads::suite() {
            self.baseline(&w);
            let pseudo = |t: &mut Self, policy| {
                let sys = t.build(Layer::Pseudo, || {
                    PseudoAssocSystem::paper_default(PseudoConfig::new(policy))
                });
                t.drive(Layer::Pseudo, sys, &w).0
            };
            let base = pseudo(self, PseudoPolicy::Lru);
            let modified = pseudo(self, PseudoPolicy::ConflictBit);
            let sys = self.build(Layer::CpuBaseline, BaselineSystem::paper_two_way);
            let (two_way, sys) = self.drive(Layer::CpuBaseline, sys, &w);
            self.sim.misses += sys.l1_stats().misses();
            over_base.push(modified.speedup_over(&base));
            over_two.push(modified.speedup_over(&two_way));
        }
        if (over_base.mean(), over_two.mean()) != r.mean_speedups {
            self.mismatch("sec54", "mean speedups");
        }
    }

    fn sec56(&mut self, r: &sec56::Sec56) {
        let jobs = sec56::jobs();
        let thread_trace = |t: &mut Self, w: &Workload, seed: u64, offset: u64| {
            let base = t.trace(w, seed);
            t.tracer.time(Layer::Arena, 0, base.len() as u64, || {
                base.iter()
                    .map(|e| {
                        let mut e = *e;
                        e.access.addr = Addr::new(e.access.addr.raw() ^ offset);
                        e
                    })
                    .collect::<Vec<TraceEvent>>()
            })
        };
        let traces: Vec<Vec<TraceEvent>> = jobs
            .iter()
            .map(|w| thread_trace(self, w, SEED, 0))
            .collect();
        let partners: Vec<Vec<TraceEvent>> = jobs
            .iter()
            .map(|w| thread_trace(self, w, SEED + 1, 1 << 43))
            .collect();
        for trace in traces.iter().chain(&partners) {
            let sys = self.build(Layer::CpuBaseline, BaselineSystem::paper_default);
            let (_, sys) = self.run_cpu(Layer::CpuBaseline, sys, trace);
            self.sim.misses += sys.l1_stats().misses();
        }
        let geom = CacheGeometry::new(16 * 1024, 1, 64).expect("paper geometry");
        let mut throughput = Vec::new();
        for (i, a) in traces.iter().enumerate() {
            for b in &partners[i..] {
                let pair = self
                    .tracer
                    .time(Layer::Arena, 0, 0, || vec![a.clone(), b.clone()]);
                let sys = self.build(Layer::CpuBaseline, BaselineSystem::paper_default);
                let mut shim = TimedMemory::new(sys, self.tracer.sampler());
                let t0 = trace_clock_ns();
                let report = SmtModel::new(CpuConfig::paper_default()).run(&mut shim, pair);
                let total = self.tracer.since(t0);
                let n = (a.len() + b.len()) as u64;
                self.tracer
                    .charge(Layer::CpuModel, 1, n, total - shim.stat.busy_ns);
                self.tracer.charge(
                    Layer::CpuBaseline,
                    shim.stat.calls,
                    shim.stat.events,
                    shim.stat.busy_ns,
                );
                self.sim.accesses += shim.stat.calls;
                self.sim.misses += shim.inner.l1_stats().misses();
                self.sim.instructions += report
                    .per_thread
                    .iter()
                    .map(|r| r.instructions)
                    .sum::<u64>();
                self.sim.cycles += report.cycles;
                throughput.push(report.throughput_ipc());

                let mut mct = ClassifyingCache::new(geom, TagBits::Full);
                self.tracer.time(Layer::Mct, n, n, || {
                    for k in 0..a.len().max(b.len()) {
                        for t in [a, b] {
                            if let Some(e) = t.get(k) {
                                black_box(mct.access(e.access.addr.line(64)));
                            }
                        }
                    }
                });
                self.fed += 2 * n;
            }
        }
        let mut expected: Vec<f64> = r.pairings.iter().map(|p| p.throughput_ipc).collect();
        expected.sort_by(f64::total_cmp);
        throughput.sort_by(f64::total_cmp);
        if expected != throughput {
            self.mismatch("sec56", "pairing throughput");
        }
    }
}
