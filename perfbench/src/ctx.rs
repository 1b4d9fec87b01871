//! State shared by the three entry-point runners: the span recorder
//! and the known-answer checker.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::Clock;
use crate::stats::median;
use crate::trace::Tracer;

/// Per-layer values of one traced sample, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Median per metric over traced samples.
pub fn median_layers(samples: &[Layers]) -> Layers {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (&k, &v) in s {
            by_name.entry(k).or_default().push(v);
        }
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// A timing sample: its wall seconds, when it ended on the run's
/// [`Clock`], and whether it ran traced.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub secs: f64,
    pub traced: bool,
    pub end: f64,
}

/// Traced median over untraced median, minus one.
pub fn overhead(samples: &[Sample]) -> f64 {
    let traced: Vec<f64> = samples
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.secs)
        .collect();
    let plain: Vec<f64> = samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.secs)
        .collect();
    if traced.is_empty() || plain.is_empty() {
        return 0.0;
    }
    median(&traced) / median(&plain) - 1.0
}

/// Counts known-answer checks and the ones that failed.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Records one check; `what` describes a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: wrong answer: {}", what());
            }
        }
    }
}

/// Everything a runner needs besides its inputs.
pub struct Ctx {
    pub tracer: Tracer,
    pub checker: Checker,
    pub clock: Clock,
    next_id: u64,
}

impl Ctx {
    pub fn new(tracing: bool) -> Ctx {
        Ctx {
            tracer: Tracer::new(tracing),
            checker: Checker::default(),
            clock: Clock::new(),
            next_id: 0,
        }
    }

    /// A sample of `t` that ended just now.
    pub fn sample(&self, t: Duration, traced: bool) -> Sample {
        Sample {
            secs: t.as_secs_f64(),
            traced,
            end: self.clock.now(),
        }
    }

    /// A fresh request/step id for the spans of one sample.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Times `f`, under a span when the sample is traced.
    pub fn time<R>(
        &mut self,
        traced: bool,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        if traced {
            self.tracer.time(name, id, f)
        } else {
            let start = Instant::now();
            let r = f();
            (r, start.elapsed())
        }
    }

    /// Opens an enclosing span when the sample is traced.
    pub fn begin(&mut self, traced: bool, name: &'static str, id: u64) -> Option<usize> {
        if traced {
            self.tracer.begin(name, id)
        } else {
            None
        }
    }
}
