//! With a probe sink armed, every block entry point at the MCT layer
//! must emit the raw probe stream of its per-event counterpart, byte
//! for byte: `Access`, `Classify`, `SetFill`/`SetEvict`, `ConflictBit`
//! and `Oracle` events interleaved per reference, in trace order.
//!
//! The pairs checked, at block sizes 1, 7 and 1024 (torn final
//! blocks included):
//!
//! * [`AccuracyEvaluator::observe_block`] vs `observe_parts`;
//! * [`AccuracyEvaluator::observe_block_with_truth`] vs
//!   `observe_parts_with_truth`;
//! * [`ClassifyingCache::access_parts_block`] vs `access_parts`.

use std::cell::RefCell;
use std::rc::Rc;

use cache_model::oracle::ThreeCClassifier;
use cache_model::CacheGeometry;
use mct::accuracy::AccuracyEvaluator;
use mct::{BlockClass, ClassifyingCache, TagBits};
use sim_core::probe::{self, JsonlSink};
use sim_core::LineAddr;

const BLOCKS: [usize; 3] = [1, 7, 1024];
const EVENTS: usize = 3_000;

/// 16 sets × 2 ways of 64 B lines with 4-bit saved tags: small enough
/// that the stream below produces hits, cold misses, conflict and
/// capacity misses, evictions of conflict-marked lines and partial-tag
/// aliases.
fn geometry() -> CacheGeometry {
    CacheGeometry::new(16 * 2 * 64, 2, 64).expect("valid geometry")
}

const TAG_BITS: TagBits = TagBits::Low(4);

/// A mixed line stream: a hot loop over a few lines, a sweep larger
/// than the cache, and pseudo-random references (a fixed LCG) over a
/// universe 8× the cache's capacity, interleaved in phases.
fn mixed_lines() -> Vec<LineAddr> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..EVENTS as u64)
        .map(|i| {
            let raw = match (i / 97) % 3 {
                0 => (i % 5) * 16,
                1 => i % 96,
                _ => {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 33) % 256
                }
            };
            LineAddr::new(raw)
        })
        .collect()
}

fn parts(geom: &CacheGeometry) -> (Vec<u32>, Vec<u64>) {
    mixed_lines()
        .into_iter()
        .map(|line| (geom.set_index(line) as u32, geom.tag(line)))
        .unzip()
}

/// The three-C verdicts of the stream, as the stack-distance memo
/// would supply them.
fn verdicts(geom: &CacheGeometry) -> Vec<bool> {
    let mut oracle = ThreeCClassifier::new(geom.num_lines());
    mixed_lines()
        .into_iter()
        .map(|line| oracle.observe(line).is_conflict())
        .collect()
}

/// Runs `f` with a raw JSONL sink armed on this thread and returns
/// what it wrote.
fn raw_stream(f: impl FnOnce()) -> String {
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
    probe::with_sink(sink.clone(), f);
    let sink = Rc::try_unwrap(sink).expect("sink released");
    let (buf, written) = sink.into_inner().finish().expect("in-memory writes");
    assert!(written > 0, "the stream must emit probe events");
    String::from_utf8(buf).expect("JSONL is UTF-8")
}

fn assert_kinds(stream: &str) {
    for kind in [
        "\"access\"",
        "\"classify\"",
        "\"set_fill\"",
        "\"set_evict\"",
        "\"conflict_bit\"",
    ] {
        assert!(stream.contains(kind), "stream lacks {kind} events");
    }
}

#[test]
fn observe_block_emits_the_observe_parts_stream() {
    let geom = geometry();
    let (sets, tags) = parts(&geom);
    let per_event = raw_stream(|| {
        let mut eval = AccuracyEvaluator::new(geom, TAG_BITS);
        for (&set, &tag) in sets.iter().zip(&tags) {
            eval.observe_parts(set as usize, tag);
        }
    });
    assert_kinds(&per_event);
    assert!(per_event.contains("\"oracle\""));
    for block in BLOCKS {
        let blocked = raw_stream(|| {
            let mut eval = AccuracyEvaluator::new(geom, TAG_BITS);
            for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                eval.observe_block(s, t);
            }
        });
        assert!(blocked == per_event, "observe_block, block size {block}");
    }
}

#[test]
fn observe_block_with_truth_emits_the_per_event_stream() {
    let geom = geometry();
    let (sets, tags) = parts(&geom);
    let truth = verdicts(&geom);
    let per_event = raw_stream(|| {
        let mut eval = AccuracyEvaluator::new(geom, TAG_BITS);
        for ((&set, &tag), &conflict) in sets.iter().zip(&tags).zip(&truth) {
            eval.observe_parts_with_truth(set as usize, tag, conflict);
        }
    });
    assert_kinds(&per_event);
    assert!(per_event.contains("\"oracle\""));
    for block in BLOCKS {
        let blocked = raw_stream(|| {
            let mut eval = AccuracyEvaluator::new(geom, TAG_BITS);
            let blocks = sets
                .chunks(block)
                .zip(tags.chunks(block))
                .zip(truth.chunks(block));
            for ((s, t), v) in blocks {
                eval.observe_block_with_truth(s, t, v.iter().copied());
            }
        });
        assert!(
            blocked == per_event,
            "observe_block_with_truth, block size {block}"
        );
    }
}

#[test]
fn access_parts_block_emits_the_access_parts_stream() {
    let geom = geometry();
    let (sets, tags) = parts(&geom);
    let per_event = raw_stream(|| {
        let mut cache = ClassifyingCache::new(geom, TAG_BITS);
        for (&set, &tag) in sets.iter().zip(&tags) {
            cache.access_parts(set as usize, tag);
        }
    });
    assert_kinds(&per_event);
    for block in BLOCKS {
        let blocked = raw_stream(|| {
            let mut cache = ClassifyingCache::new(geom, TAG_BITS);
            let mut out = vec![BlockClass::Hit; block];
            for (s, t) in sets.chunks(block).zip(tags.chunks(block)) {
                cache.access_parts_block(s, t, &mut out[..s.len()]);
            }
        });
        assert!(
            blocked == per_event,
            "access_parts_block, block size {block}"
        );
    }
}
