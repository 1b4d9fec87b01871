//! Host-speed calibration.
//!
//! On a shared host the memory system's speed drifts: other tenants
//! slow allocation-heavy, pointer-chasing code by up to 1.7× in phases
//! that last from seconds to longer than a run, while the benchmarked
//! work itself stays the same. A run therefore times a fixed
//! calibration kernel — small allocations and ordered-map operations
//! over about a megabyte, the kind of work inference does — every
//! [`EVERY`] seconds between its steps, and reports every timing
//! sample scaled by how much slower or faster the kernel ran around it
//! than [`REF_SECS`]: seconds at the reference host speed. The kernel
//! is the benchmark's own code, so no change to rowpoly moves it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rowpoly_obs::rng::SplitMix64;

use crate::ctx::Sample;
use crate::stats::median;

/// About the kernel's median time within runs on the host the benchmark
/// was tuned on (a 2-vCPU x86-64 VM), so that reported seconds read
/// close to that host's wall seconds. It only sets their scale.
pub const REF_SECS: f64 = 0.005;

/// Seconds between calibrations, at most; a step is never interrupted.
const EVERY: f64 = 0.05;
/// Calibrations within this many seconds of a sample's interval set
/// its scale ...
const WINDOW: f64 = 0.5;
/// ... or, when fewer fall in the window, the nearest this many.
const NEAREST: usize = 3;
/// Untimed kernel runs before the first calibration.
const WARM_UP: usize = 5;

/// Keys inserted into the kernel's map, and lookups made in it.
const KEYS: u64 = 12_000;
const LOOKUPS: u64 = 12_000;

/// The calibration kernel: inserts small vectors under pseudo-random
/// keys into an ordered map, then looks keys up. Always the same work.
pub fn kernel() -> u64 {
    let mut rng = SplitMix64::seed_from_u64(0xCA11B);
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..KEYS {
        let k = rng.next_u64() % (4 * KEYS);
        map.insert(k, vec![i as u32; 1 + (k % 7) as usize]);
    }
    let mut acc = 0u64;
    for _ in 0..LOOKUPS {
        let k = rng.next_u64() % (4 * KEYS);
        if let Some((_, v)) = map.range(k..).next() {
            acc = acc.wrapping_add(u64::from(v[0]) + v.len() as u64);
        }
    }
    acc
}

/// The run's clock and its calibrations.
pub struct Clock {
    origin: Instant,
    /// Per calibration: when it ended (seconds since `origin`) and how
    /// long the kernel took.
    points: Vec<(f64, f64)>,
}

impl Clock {
    pub fn new() -> Clock {
        for _ in 0..WARM_UP {
            black_box(kernel());
        }
        let mut clock = Clock {
            origin: Instant::now(),
            points: Vec::new(),
        };
        clock.calibrate();
        clock
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn calibrate(&mut self) {
        let start = Instant::now();
        black_box(kernel());
        let secs = start.elapsed().as_secs_f64();
        self.points.push((self.now(), secs));
    }

    /// Calibrates when [`EVERY`] seconds have passed since the last
    /// calibration. Called between steps.
    pub fn tick(&mut self) {
        if self
            .points
            .last()
            .is_none_or(|&(end, _)| self.now() - end >= EVERY)
        {
            self.calibrate();
        }
    }

    /// Calibrations so far, and the median kernel time over them.
    pub fn summary(&self) -> (usize, f64) {
        let secs: Vec<f64> = self.points.iter().map(|&(_, s)| s).collect();
        (secs.len(), median(&secs))
    }

    /// [`REF_SECS`] over the median kernel time of the calibrations
    /// near `[start, end]`.
    fn factor(&self, start: f64, end: f64) -> f64 {
        let mut near: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|&(at, secs)| ((start - at).max(at - end).max(0.0), secs))
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let within = near.iter().take_while(|p| p.0 <= WINDOW).count();
        let secs: Vec<f64> = near[..within.max(NEAREST).min(near.len())]
            .iter()
            .map(|p| p.1)
            .collect();
        REF_SECS / median(&secs)
    }

    /// A sample's seconds at the reference host speed.
    pub fn scaled(&self, s: &Sample) -> f64 {
        s.secs * self.factor(s.end - s.secs, s.end)
    }

    /// Median of the samples' seconds at the reference host speed; 0
    /// for no samples.
    pub fn median(&self, samples: &[Sample]) -> f64 {
        median(&samples.iter().map(|s| self.scaled(s)).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_nearby_calibrations() {
        let clock = Clock {
            origin: Instant::now(),
            points: vec![
                (1.0, REF_SECS),
                (1.1, REF_SECS),
                (5.0, 2.0 * REF_SECS),
                (5.1, 2.0 * REF_SECS),
                (5.2, 2.0 * REF_SECS),
            ],
        };
        let at = |end: f64| Sample {
            secs: 0.5,
            traced: false,
            end,
        };
        // Near the fast calibrations the sample reads as measured; near
        // the slow ones, at half.
        assert!((clock.scaled(&at(1.2)) - 0.5).abs() < 1e-9);
        assert!((clock.scaled(&at(5.3)) - 0.25).abs() < 1e-9);
        assert!(kernel() == kernel());
    }
}
