//! The fused accuracy pass: one [`experiments::replay_accuracy`] pass
//! feeding k consumers must produce exactly what k one-consumer passes
//! produce, in arena and in stream mode, and the two modes must agree.
//!
//! The consumers mix everything a driver pass can hold: MCT evaluators
//! at the four fig1 geometries with different tag widths, shadow
//! directories, an exact miss-ratio curve and a SHARDS curve. Event
//! counts cover a single event, both sides of a replay block seam
//! (1023, 1025) and a stream chunk seam (`STREAM_CHUNK + 1537`).
//!
//! The shared cache kernel: an [`AccuracyGroup`] of k classifiers on
//! one geometry must report exactly what k one-classifier evaluators
//! report, for the groups fig2 and the ablation build — the MCT at
//! every fig2 tag width on the 16 KB DM cache, and shadow directories
//! of every ablation depth on each fig1 geometry (the 2-way ones are
//! set-associative LRU).
//!
//! One `#[test]` because stream mode ([`experiments::set_stream_mode`])
//! is process-global.

use experiments::mrc::{CurveBuilder, WorkloadCurve};
use experiments::PassConsumer;
use mct::accuracy::{AccuracyEvaluator, AccuracyGroup, AccuracyReport};
use mct::{MissClassificationTable, ShadowDirectory, TagBits};

/// Every consumer of one pass, in a fixed order.
struct Cells {
    mct: Vec<AccuracyEvaluator>,
    shadow: Vec<AccuracyEvaluator<ShadowDirectory>>,
    curves: Vec<CurveBuilder>,
}

impl Cells {
    fn new(workload: &workloads::Workload, events: usize) -> Self {
        let configs = experiments::fig1::configurations();
        let widths = [
            TagBits::Full,
            TagBits::Low(8),
            TagBits::Low(1),
            TagBits::Full,
        ];
        let mct = configs
            .iter()
            .zip(widths)
            .map(|(&(_, geom), bits)| AccuracyEvaluator::new(geom, bits))
            .collect();
        let shadow = [(configs[0].1, 2), (configs[3].1, 4)]
            .into_iter()
            .map(|(geom, depth)| {
                let dir = ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth);
                AccuracyEvaluator::with_classifier(geom, dir)
            })
            .collect();
        let curves = vec![
            CurveBuilder::new(workload, events, configs[0].1, None),
            CurveBuilder::new(workload, events, configs[3].1, Some(0.1)),
        ];
        Cells {
            mct,
            shadow,
            curves,
        }
    }

    fn consumers(&mut self) -> Vec<&mut dyn PassConsumer> {
        let mut all: Vec<&mut dyn PassConsumer> = Vec::new();
        all.extend(self.mct.iter_mut().map(|c| c as &mut dyn PassConsumer));
        all.extend(self.shadow.iter_mut().map(|c| c as &mut dyn PassConsumer));
        all.extend(self.curves.iter_mut().map(|c| c as &mut dyn PassConsumer));
        all
    }

    fn finish(self) -> (Vec<AccuracyReport>, Vec<WorkloadCurve>) {
        let mut reports: Vec<AccuracyReport> = self
            .mct
            .into_iter()
            .map(AccuracyEvaluator::finish)
            .collect();
        reports.extend(self.shadow.into_iter().map(AccuracyEvaluator::finish));
        (
            reports,
            self.curves.into_iter().map(CurveBuilder::finish).collect(),
        )
    }
}

fn fused(w: &workloads::Workload, events: usize) -> (Vec<AccuracyReport>, Vec<WorkloadCurve>) {
    let mut cells = Cells::new(w, events);
    experiments::replay_accuracy(w, events, &mut cells.consumers());
    cells.finish()
}

fn one_by_one(w: &workloads::Workload, events: usize) -> (Vec<AccuracyReport>, Vec<WorkloadCurve>) {
    let mut cells = Cells::new(w, events);
    for consumer in cells.consumers() {
        experiments::replay_accuracy(w, events, &mut [consumer]);
    }
    cells.finish()
}

/// Per cell, in figure order: fig2's widths, then each fig1
/// geometry's depths — from one pass over one group per geometry.
fn grouped(w: &workloads::Workload, events: usize) -> Vec<AccuracyReport> {
    let configs = experiments::fig1::configurations();
    let fig2_geom = configs[0].1;
    let mut widths = AccuracyGroup::new(
        fig2_geom,
        experiments::fig2::widths()
            .into_iter()
            .map(|bits| MissClassificationTable::new(fig2_geom.num_sets(), bits)),
    );
    let mut depths: Vec<AccuracyGroup<ShadowDirectory>> = configs
        .iter()
        .map(|&(_, geom)| {
            AccuracyGroup::new(
                geom,
                experiments::ablation::DEPTHS
                    .iter()
                    .map(|&depth| ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth)),
            )
        })
        .collect();
    let mut consumers: Vec<&mut dyn PassConsumer> = vec![&mut widths];
    consumers.extend(depths.iter_mut().map(|g| g as &mut dyn PassConsumer));
    experiments::replay_accuracy(w, events, &mut consumers);
    let mut reports = widths.finish();
    reports.extend(depths.into_iter().flat_map(AccuracyGroup::finish));
    reports
}

/// [`grouped`]'s cells, each replayed by an evaluator of its own.
fn alone(w: &workloads::Workload, events: usize) -> Vec<AccuracyReport> {
    let configs = experiments::fig1::configurations();
    let mut reports = Vec::new();
    for bits in experiments::fig2::widths() {
        let mut eval = AccuracyEvaluator::new(configs[0].1, bits);
        experiments::replay_accuracy(w, events, &mut [&mut eval]);
        reports.push(eval.finish());
    }
    for &(_, geom) in &configs {
        for depth in experiments::ablation::DEPTHS {
            let dir = ShadowDirectory::new(geom.num_sets(), TagBits::Full, depth);
            let mut eval = AccuracyEvaluator::with_classifier(geom, dir);
            experiments::replay_accuracy(w, events, &mut [&mut eval]);
            reports.push(eval.finish());
        }
    }
    reports
}

#[test]
fn one_pass_with_k_consumers_equals_k_one_consumer_passes() {
    let w = workloads::by_name("gcc").expect("gcc analog exists");
    for events in [1, 1_023, 1_025, experiments::STREAM_CHUNK + 1_537] {
        experiments::set_stream_mode(false);
        let arena = fused(&w, events);
        assert_eq!(
            arena,
            one_by_one(&w, events),
            "arena: fused pass diverged at {events} events"
        );
        assert!(arena.0.iter().all(|r| r.accesses == events as u64));

        experiments::set_stream_mode(true);
        let stream = fused(&w, events);
        assert_eq!(
            stream,
            one_by_one(&w, events),
            "stream: fused pass diverged at {events} events"
        );
        experiments::set_stream_mode(false);
        assert_eq!(arena, stream, "arena vs stream at {events} events");

        for stream in [false, true] {
            experiments::set_stream_mode(stream);
            let shared = grouped(&w, events);
            assert_eq!(
                shared,
                alone(&w, events),
                "stream {stream}: a shared kernel diverged at {events} events"
            );
            assert!(shared.iter().all(|r| r.accesses == events as u64));
        }
        experiments::set_stream_mode(false);
    }
}
