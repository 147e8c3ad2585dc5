//! Per-layer accounting for the traced run: what each layer did (calls,
//! events) and how long it was busy, measured from the benchmark's own
//! code around calls into the layer's public entry points.

use cpu_model::{MemResponse, MemorySystem};
use experiments::telemetry::trace_clock_ns;
use sim_core::Cycle;
use trace_gen::{MemoryAccess, TraceEvent, TraceSource};

/// The layers the traced run attributes time to, named by crate and
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Generate,
    Arena,
    Decomposed,
    Oracle,
    Kernel,
    Mct,
    Accuracy,
    MrcExact,
    CpuModel,
    CpuBaseline,
    Victim,
    Prefetch,
    Exclusion,
    Pseudo,
    Amb,
    Render,
}

impl Layer {
    pub const ALL: [Layer; 16] = [
        Layer::Generate,
        Layer::Arena,
        Layer::Decomposed,
        Layer::Oracle,
        Layer::Kernel,
        Layer::Mct,
        Layer::Accuracy,
        Layer::MrcExact,
        Layer::CpuModel,
        Layer::CpuBaseline,
        Layer::Victim,
        Layer::Prefetch,
        Layer::Exclusion,
        Layer::Pseudo,
        Layer::Amb,
        Layer::Render,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Layer::Generate => "workloads.generate",
            Layer::Arena => "trace.arena",
            Layer::Decomposed => "trace.decomposed",
            Layer::Oracle => "cache.oracle",
            Layer::Kernel => "cache.kernel",
            Layer::Mct => "core.mct",
            Layer::Accuracy => "core.accuracy",
            Layer::MrcExact => "mrc.exact",
            Layer::CpuModel => "cpu.model",
            Layer::CpuBaseline => "cpu.baseline",
            Layer::Victim => "victim",
            Layer::Prefetch => "prefetch",
            Layer::Exclusion => "exclusion",
            Layer::Pseudo => "pseudo",
            Layer::Amb => "amb",
            Layer::Render => "experiments.render",
        }
    }
}

/// One layer's tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub events: u64,
    pub busy_ns: f64,
}

/// Clock reads and per-layer tallies of one traced sweep.
#[derive(Debug)]
pub struct Tracer {
    stats: [LayerStat; Layer::ALL.len()],
    /// Median cost of one pair of back-to-back clock reads, taken off
    /// every timed interval.
    clock_ns: f64,
    rng: u64,
}

/// Calls cheaper than about 50 ns are timed one in `1 << SAMPLE_SHIFT`,
/// chosen at random so that a periodic access pattern cannot alias with
/// the sampling, and the sampled time is scaled back up.
const SAMPLE_SHIFT: u32 = 6;

impl Tracer {
    pub fn new() -> Tracer {
        let mut pairs: Vec<u64> = (0..20_001)
            .map(|_| {
                let t0 = trace_clock_ns();
                trace_clock_ns().saturating_sub(t0)
            })
            .collect();
        pairs.sort_unstable();
        Tracer {
            stats: [LayerStat::default(); Layer::ALL.len()],
            clock_ns: pairs[pairs.len() / 2] as f64,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn clock_ns(&self) -> f64 {
        self.clock_ns
    }

    pub fn stat(&self, layer: Layer) -> LayerStat {
        self.stats[layer as usize]
    }

    pub fn stat_mut(&mut self, layer: Layer) -> &mut LayerStat {
        &mut self.stats[layer as usize]
    }

    /// Nanoseconds since `t0`, net of the clock's own cost.
    pub fn since(&self, t0: u64) -> f64 {
        trace_clock_ns().saturating_sub(t0) as f64 - self.clock_ns
    }

    /// Runs `f`, charging `calls` calls, `events` events and its wall
    /// time to `layer`.
    pub fn time<R>(&mut self, layer: Layer, calls: u64, events: u64, f: impl FnOnce() -> R) -> R {
        let t0 = trace_clock_ns();
        let out = f();
        let dt = self.since(t0);
        self.charge(layer, calls, events, dt);
        out
    }

    /// Adds time measured elsewhere to `layer`.
    pub fn charge(&mut self, layer: Layer, calls: u64, events: u64, busy_ns: f64) {
        let s = self.stat_mut(layer);
        s.calls += calls;
        s.events += events;
        s.busy_ns += busy_ns;
    }

    /// A sampler seeded from this tracer's stream, for a shim.
    pub fn sampler(&mut self) -> Sampler {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        Sampler {
            state: self.rng | 1,
        }
    }
}

/// Decides which calls of a cheap layer are timed, and times them.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    state: u64,
}

impl Sampler {
    /// Runs `f`, timing it on a random one in `1 << SAMPLE_SHIFT` calls;
    /// returns the result and the scaled time estimate (0 when untimed).
    #[inline]
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        if self.state >> (64 - SAMPLE_SHIFT) != 0 {
            return (f(), 0.0);
        }
        // An empty interval read just before the call measures the
        // clock's cost in the caller's own pipeline state, which a
        // calibration loop run elsewhere does not.
        let t0 = trace_clock_ns();
        let t1 = trace_clock_ns();
        let out = f();
        let t2 = trace_clock_ns();
        let dt = t2.saturating_sub(t1) as f64 - t1.saturating_sub(t0) as f64;
        (out, dt * f64::from(1u32 << SAMPLE_SHIFT))
    }
}

/// A memory system whose `access` calls are counted and sample-timed.
#[derive(Debug)]
pub struct TimedMemory<M> {
    pub inner: M,
    pub stat: LayerStat,
    sampler: Sampler,
}

impl<M> TimedMemory<M> {
    pub fn new(inner: M, sampler: Sampler) -> Self {
        TimedMemory {
            inner,
            stat: LayerStat::default(),
            sampler,
        }
    }
}

impl<M: MemorySystem> MemorySystem for TimedMemory<M> {
    fn access(&mut self, access: MemoryAccess, now: Cycle) -> MemResponse {
        let inner = &mut self.inner;
        let (response, ns) = self.sampler.run(|| inner.access(access, now));
        self.stat.calls += 1;
        self.stat.events += 1;
        self.stat.busy_ns += ns;
        response
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// An event source whose events are counted and sample-timed.
#[derive(Debug)]
pub struct TimedEvents<'a, I> {
    inner: I,
    stat: &'a mut LayerStat,
    sampler: Sampler,
}

impl<'a, I> TimedEvents<'a, I> {
    pub fn new(inner: I, stat: &'a mut LayerStat, sampler: Sampler) -> Self {
        TimedEvents {
            inner,
            stat,
            sampler,
        }
    }
}

impl<I: Iterator> Iterator for TimedEvents<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        let (item, ns) = self.sampler.run(|| inner.next());
        if item.is_some() {
            self.stat.events += 1;
        }
        self.stat.busy_ns += ns;
        item
    }
}

/// A trace generator whose events are counted and sample-timed.
pub struct TimedSource<'a> {
    inner: Box<dyn TraceSource>,
    stat: &'a mut LayerStat,
    sampler: Sampler,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: Box<dyn TraceSource>, stat: &'a mut LayerStat, sampler: Sampler) -> Self {
        TimedSource {
            inner,
            stat,
            sampler,
        }
    }
}

impl TraceSource for TimedSource<'_> {
    fn next_event(&mut self) -> TraceEvent {
        let inner = &mut self.inner;
        let (event, ns) = self.sampler.run(|| inner.next_event());
        self.stat.events += 1;
        self.stat.busy_ns += ns;
        event
    }
}
